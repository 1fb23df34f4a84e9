import hashlib
import hmac
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldbridge import notes
from shieldbridge.notes import (
    CHALLENGE_REJECTED,
    CHALLENGE_UPHELD,
    Address,
    Note,
    NoteCiphertext,
    NoteError,
    SharedSecret,
    SharedSecretDirectory,
    commit_note,
    decrypt_note,
    derive_nullifier,
    derive_rcm,
    digest,
    encode_bytes,
    encode_int,
    encrypt_note,
    random_address,
    rng_bytes,
    verify_challenge,
)
from shieldbridge.notes import _auth_tag, _decode_note, _keystream, _xor
from shieldbridge.zcash_chain import ChainState, OutputDescription, ShieldedTx


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def addr(rng):
    return random_address(rng)


def make_note(addr, value=5, rcm=b"\x01" * 32):
    return Note(addr, value, rcm)


def test_commit_deterministic(addr):
    n = make_note(addr)
    assert commit_note(n) == commit_note(n)


def test_commit_distinct_rcm(addr):
    a = make_note(addr, rcm=b"\x01" * 32)
    b = make_note(addr, rcm=b"\x02" * 32)
    assert commit_note(a) != commit_note(b)


def test_commit_distinct_value(addr):
    assert commit_note(make_note(addr, value=5)) != commit_note(make_note(addr, value=6))


def test_digests_bit_reproducible():
    # frozen golden values: the canonical encoding (fixed-width big-endian
    # integers, length-prefixed byte strings) must never drift
    note = Note(Address(b"\x01" * 11, b"\x02" * 32), 5, b"\x03" * 32)
    assert commit_note(note).hex() == \
        "3dfa4e99fab9394bd0f780cf0cf8d79be077ccd7170730071878a574a3a79764"
    assert derive_rcm(b"\xaa" * 32).hex() == \
        "ee464ca2f339c2fadfe49f2ccb16bf0bf7e15ed4840aa5021b8ece8b0071ff13"
    assert derive_nullifier(note, b"\x04" * 32).hex() == \
        "8321d6b99164d62f0594660b222075ad45d0a6d5c661c9ba902865e65615d5f5"


def test_commit_binding_random_sample(rng):
    # injectivity on 10^5 distinct notes: no digest collisions observed
    seen = set()
    addr = random_address(rng)
    for i in range(100_000):
        note = Note(addr, i, b"\x00" * 32)
        d = commit_note(note).digest
        assert d not in seen
        seen.add(d)


def test_derive_rcm_deterministic_and_distinct():
    n1, n2 = b"\xaa" * 32, b"\xbb" * 32
    assert derive_rcm(n1) == derive_rcm(n1)
    assert derive_rcm(n1) != derive_rcm(n2)
    assert len(derive_rcm(n1)) == 32


def test_nullifier_per_key(addr):
    note = make_note(addr)
    k1, k2 = b"\x03" * 32, b"\x04" * 32
    assert derive_nullifier(note, k1) == derive_nullifier(note, k1)
    assert derive_nullifier(note, k1) != derive_nullifier(note, k2)


@pytest.fixture
def channel(rng, addr):
    directory = SharedSecretDirectory(rng_bytes(rng, 32))
    epk = directory.new_ephemeral(rng)
    secret = directory.secret_for(epk, addr)
    return directory, epk, secret


def test_encrypt_roundtrip(channel, addr):
    directory, epk, secret = channel
    note = make_note(addr)
    ct = encrypt_note(note, addr, secret, epk)
    assert decrypt_note(ct, secret) == note


def test_decrypt_wrong_secret(channel, addr):
    _, epk, secret = channel
    ct = encrypt_note(make_note(addr), addr, secret, epk)
    assert decrypt_note(ct, SharedSecret(b"\x09" * 32)) is None


def test_decrypt_flipped_byte(channel, addr):
    _, epk, secret = channel
    ct = encrypt_note(make_note(addr), addr, secret, epk)
    for pos in (0, len(ct.payload) // 2, len(ct.payload) - 1):
        tampered = bytearray(ct.payload)
        tampered[pos] ^= 0x40
        assert decrypt_note(NoteCiphertext(bytes(tampered), epk), secret) is None


def test_decrypt_garbage_payload(channel, addr):
    _, epk, secret = channel
    assert decrypt_note(NoteCiphertext(b"\x00" * 80, epk), secret) is None
    assert decrypt_note(NoteCiphertext(b"", epk), secret) is None
    # shorter than a tag, even one cut from a true tag
    tag = encrypt_note(make_note(addr), addr, secret, epk).payload[-32:]
    for payload in (tag[-1:], tag[-31:]):
        assert decrypt_note(NoteCiphertext(payload, epk), secret) is None


def test_malformed_plaintext_decodes_to_none(addr):
    # a sender holding the shared secret can authenticate any plaintext, so
    # the decoder alone must refuse everything but a note's exact encoding
    note = make_note(addr)
    raw = note.encode()
    assert _decode_note(raw) == note
    malformed = [raw[:n] for n in (0, 3, 15, 51, 63, len(raw) - 1)]
    malformed += [raw + b"\x00", raw + raw[-4:]]

    def prefix(n):
        return n.to_bytes(4, "big")

    malformed += [
        prefix(12) + raw[4:],  # diversifier one byte longer
        prefix(10) + raw[4:15] + prefix(33) + raw[19:],  # bytes moved between fields
        raw[:15] + prefix(31) + raw[19:],  # pk_d one byte shorter
        raw[:59] + prefix(33) + raw[63:],  # rcm runs past the end
        raw[:59] + prefix(31) + raw[63:] + b"\x00",  # rcm shorter, bytes left over
    ]
    for bad in malformed:
        assert _decode_note(bad) is None, bad.hex()


def test_roundtrip_many_notes(rng):
    directory = SharedSecretDirectory(rng_bytes(rng, 32))
    for _ in range(200):
        addr = random_address(rng)
        note = Note(addr, rng.randrange(2**40), rng_bytes(rng, 32))
        epk = directory.new_ephemeral(rng)
        secret = directory.secret_for(epk, addr)
        assert decrypt_note(encrypt_note(note, addr, secret, epk), secret) == note


def test_decrypted_note_commitment_mismatch_detected(channel, addr):
    # ciphertext encrypting a different note: decrypt works, commitment differs
    directory, epk, secret = channel
    claimed = make_note(addr, value=50)
    other = make_note(addr, value=51)
    ct = encrypt_note(other, addr, secret, epk)
    got = decrypt_note(ct, secret)
    assert got == other
    assert commit_note(got) != commit_note(claimed)


class TestChallenge:
    def setup_method(self):
        self.rng = random.Random(77)
        self.addr = random_address(self.rng)
        self.directory = SharedSecretDirectory(rng_bytes(self.rng, 32))
        self.epk = self.directory.new_ephemeral(self.rng)
        self.secret = self.directory.secret_for(self.epk, self.addr)
        self.note = make_note(self.addr, value=50)
        self.cm = commit_note(self.note)

    def honest_ct(self):
        return encrypt_note(self.note, self.addr, self.secret, self.epk)

    def wrong_note_ct(self):
        return encrypt_note(make_note(self.addr, value=51), self.addr, self.secret, self.epk)

    def corrupted_ct(self):
        ct = self.honest_ct()
        tampered = bytearray(ct.payload)
        tampered[3] ^= 0xFF
        return NoteCiphertext(bytes(tampered), self.epk)

    def forged_secret(self):
        return SharedSecret(b"\x0c" * 32)

    def verdict(self, ct, revealed):
        return verify_challenge(ct, revealed, self.cm, self.directory, self.addr)

    def test_honest_ct_honest_reveal(self):
        assert self.verdict(self.honest_ct(), self.secret) == CHALLENGE_REJECTED

    def test_wrong_note_honest_reveal(self):
        assert self.verdict(self.wrong_note_ct(), self.secret) == CHALLENGE_UPHELD

    def test_corrupted_ct_honest_reveal(self):
        assert self.verdict(self.corrupted_ct(), self.secret) == CHALLENGE_UPHELD

    def test_forged_secret_always_rejected(self):
        for ct in (self.honest_ct(), self.wrong_note_ct(), self.corrupted_ct()):
            assert self.verdict(ct, self.forged_secret()) == CHALLENGE_REJECTED

    def test_challenge_matches_vault_decrypt_outcome(self):
        # soundness: upheld with an honest reveal iff decrypt-and-compare fails
        for ct in (self.honest_ct(), self.wrong_note_ct(), self.corrupted_ct()):
            note = decrypt_note(ct, self.secret)
            vault_would_accept = note is not None and commit_note(note) == self.cm
            verdict = self.verdict(ct, self.secret)
            assert verdict == (CHALLENGE_REJECTED if vault_would_accept else CHALLENGE_UPHELD)


# --- oracles: the per-part framing, the per-byte XOR, the field-by-field
# encodings, the keystream loop and the HMAC object the fast paths replaced


def framed_digest(tag, *parts):
    h = hashlib.sha256()
    h.update(encode_bytes(tag))
    for part in parts:
        h.update(encode_bytes(part))
    return h.digest()


def generator_xor(data, stream):
    return bytes(a ^ b for a, b in zip(data, stream))


def fields_address(address):
    return encode_bytes(address.diversifier) + encode_bytes(address.pk_d)


def fields_note(note):
    return fields_address(note.address) + encode_int(note.value) + encode_bytes(note.rcm)


def loop_keystream(secret, epk, length):
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += digest(b"stream", secret.secret, epk, encode_int(counter))
        counter += 1
    return bytes(out[:length])


def object_auth_tag(secret, epk, body):
    return hmac.new(secret.secret, encode_bytes(epk) + encode_bytes(body),
                    hashlib.sha256).digest()


def generator_encrypt(note, secret, epk):
    plaintext = fields_note(note)
    body = generator_xor(plaintext, loop_keystream(secret, epk, len(plaintext)))
    return NoteCiphertext(body + object_auth_tag(secret, epk, body), epk)


class TestFastPathsAgainstOracles:
    @pytest.mark.parametrize("lengths", [(), (0,), (32,), (255,), (256,), (300,),
                                         (0, 32, 255, 256, 300), (32, 32)])
    def test_digest_frames_like_encode_bytes(self, lengths):
        parts = [bytes([n % 251]) * n for n in lengths]
        assert digest(b"tag", *parts) == framed_digest(b"tag", *parts)
        assert digest(b"", *parts) == framed_digest(b"", *parts)

    @settings(max_examples=300)
    @given(st.one_of(st.just(b""), st.binary(min_size=1, max_size=32),
                     st.binary(min_size=256, max_size=300)),
           st.lists(st.one_of(st.integers(0, 300), st.sampled_from([255, 256])).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)), max_size=6))
    def test_digest_matches_framed_oracle(self, tag, parts):
        assert digest(tag, *parts) == framed_digest(tag, *parts)

    def test_tag_states_stay_at_the_framed_tag(self):
        # each call copies its tag's stored state; no call, the long-part
        # fallback included, may advance the stored one
        rng = random.Random(7)
        tags = [b"", b"t", b"tree-node", b"x" * 255, b"y" * 256, b"z" * 300]
        for _ in range(600):
            tag = rng.choice(tags)
            parts = [rng_bytes(rng, rng.choice([0, 1, 32, 255, 256, 300]))
                     for _ in range(rng.randrange(5))]
            assert digest(tag, *parts) == framed_digest(tag, *parts)
        assert set(tags) <= set(notes._TAG_STATES)
        for tag, state in notes._TAG_STATES.items():
            assert state.digest() == hashlib.sha256(encode_bytes(tag)).digest()

    def test_framing_keeps_part_boundaries(self):
        assert digest(b"t", b"ab", b"c") != digest(b"t", b"a", b"bc")
        assert digest(b"t", b"") != digest(b"t")

    @given(st.integers(0, 300).flatmap(lambda n: st.tuples(
        st.binary(min_size=n, max_size=n), st.binary(min_size=n, max_size=n))))
    def test_xor_matches_generator(self, pair):
        data, stream = pair
        assert _xor(data, stream) == generator_xor(data, stream)

    def test_xor_keeps_leading_zero_bytes(self):
        assert _xor(b"\x00\x05ab", b"\x00\x05cd") == b"\x00\x00\x02\x06"
        assert _xor(b"", b"") == b""

    @pytest.mark.parametrize("value", [0, 1, 10**8, 2**64 - 1])
    def test_ciphertext_bytes_match_oracle_and_round_trip(self, rng, addr, value):
        directory = SharedSecretDirectory(rng_bytes(rng, 32))
        note = Note(addr, value, rng_bytes(rng, 32))
        epk = directory.new_ephemeral(rng)
        secret = directory.secret_for(epk, addr)
        ct = encrypt_note(note, addr, secret, epk)
        assert ct == generator_encrypt(note, secret, epk)
        assert decrypt_note(ct, secret) == note
        body = ct.payload[:-32]
        assert _decode_note(generator_xor(body, _keystream(secret, epk, len(body)))) == note

    @given(st.binary(min_size=11, max_size=11), st.binary(min_size=32, max_size=32),
           st.integers(0, 2**64 - 1), st.binary(min_size=32, max_size=32))
    def test_encodings_match_their_fields(self, diversifier, pk_d, value, rcm):
        note = Note(Address(diversifier, pk_d), value, rcm)
        assert note.address.encode() == fields_address(note.address)
        assert note.encode() == fields_note(note)
        halved = replace(note, value=value // 2)  # replace builds the new note's encoding
        assert halved.encode() == fields_note(halved)

    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=40),
           st.integers(0, 200))
    def test_keystream_matches_loop(self, secret, epk, length):
        secret = SharedSecret(secret)
        assert _keystream(secret, epk, length) == loop_keystream(secret, epk, length)

    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=40), st.binary(max_size=300))
    def test_auth_tag_matches_hmac_object(self, secret, epk, body):
        secret = SharedSecret(secret)
        assert _auth_tag(secret, epk, body) == object_auth_tag(secret, epk, body)

    def test_encode_int_is_64_bit(self):
        assert encode_int(2**64 - 1) == b"\xff" * 8
        for value in (2**64, -1):
            with pytest.raises(NoteError):
                encode_int(value)


class TestDigestMemo:
    """`digest` is memoised; `digest.__wrapped__`, the function the memo
    calls on a miss, and `framed_digest` stay its oracles."""

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.sampled_from([b"", b"tree-node", b"t" * 300]),
                              st.lists(st.binary(max_size=300), max_size=4)),
                    min_size=1, max_size=8),
           st.lists(st.integers(0, 7), max_size=40))
    def test_memo_agrees_over_repeats_and_interleavings(self, calls, order):
        for i in [*order, *range(len(calls)), *order]:
            tag, parts = calls[i % len(calls)]
            want = framed_digest(tag, *parts)
            assert digest(tag, *parts) == want
            assert digest.__wrapped__(tag, *parts) == want

    def test_evicted_input_hashes_again(self):
        digest.cache_clear()
        size = notes.DIGEST_MEMO_SIZE
        assert digest.cache_parameters()["maxsize"] == size
        first = digest(b"evict", b"")
        for n in range(size):
            digest(b"evict", n.to_bytes(4, "big"))
        assert digest.cache_info()[1:] == (size + 1, size, size)  # misses, max, current
        assert digest(b"evict", b"") == first == framed_digest(b"evict", b"")
        assert digest.cache_info().misses == size + 2
        assert digest(b"evict", b"") == first
        assert digest.cache_info().hits == 1

    def test_memo_answers_a_growing_tree(self, addr):
        # a root per block and a path per leaf, to 2,000 leaves: the
        # working set is about one entry per live leaf, so 2048 entries keep
        # over 99% hits here, where 1536 keep 63% and 1024 keep 28%
        rng = random.Random(5)
        chain = ChainState(16)
        ct = NoteCiphertext(b"", b"")
        digest.cache_clear()
        for _ in range(250):
            outs = [Note(addr, 1, rng_bytes(rng, 32)) for _ in range(8)]
            tx = ShieldedTx((), tuple(OutputDescription(commit_note(n), ct, n) for n in outs), 0)
            assert chain.submit_shielded_tx(tx, allow_unbacked=True) == tx.txid()
            block = chain.mine_block().hash
            for out in tx.outputs:
                assert chain.merkle_path(out.cm, block).position < len(chain.pool.tree)
        assert len(chain.pool.tree) == 2000
        info = digest.cache_info()
        assert info.hits >= 0.9 * (info.hits + info.misses), info

    @pytest.mark.parametrize("parts", [(bytearray(b"ab"),), (b"ab", bytearray(32))])
    def test_parts_are_bytes(self, parts):
        assert framed_digest(b"t", *parts) == framed_digest(b"t", *map(bytes, parts))
        with pytest.raises(TypeError, match="unhashable"):
            digest(b"t", *parts)


class TestNoteFieldChecks:
    @pytest.mark.parametrize("diversifier, pk_d, message", [
        (b"\x00" * 10, b"\x00" * 32, "diversifier must be 11 bytes"),
        (b"\x00" * 11, b"\x00" * 31, "pk_d must be 32 bytes"),
    ], ids=["diversifier", "pk_d"])
    def test_address_lengths(self, diversifier, pk_d, message):
        with pytest.raises(NoteError, match=message):
            Address(diversifier, pk_d)

    def test_rcm_length(self, addr):
        with pytest.raises(NoteError, match="rcm must be 32 bytes"):
            Note(addr, 5, b"\x01" * 31)

    def test_negative_value(self, addr):
        with pytest.raises(NoteError, match=r"amounts are integers in \[0, 2\*\*64\), got -1"):
            Note(addr, -1, b"\x01" * 32)

    def test_value_past_64_bits_fails_at_construction(self, addr):
        with pytest.raises(NoteError, match=r"got 18446744073709551616"):
            Note(addr, 2**64, b"\x01" * 32)
