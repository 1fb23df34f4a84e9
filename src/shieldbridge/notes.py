"""Shielded note model and the simulated cryptographic primitives behind it.

Everything that touches a ledger is built from two primitives: a 256-bit
hash (SHA-256) and an authenticated stream cipher derived from it. Both are
stand-ins for the real circuit-friendly constructions; the properties the
rest of the simulator relies on are only collision resistance and ciphertext
authentication.

The canonical byte encodings defined here (fixed-width big-endian integers,
length-prefixed byte strings) are the single source of truth for every
digest input in the package, so commitments and transaction ids are
bit-reproducible across runs.

Every hash in the package goes through `digest`, which keeps one SHA-256
state per domain tag (the state after hashing the framed tag) and copies it
on each call, so a domain costs nothing per call; parts of 256 bytes or
more fall back to full `encode_bytes` framing. This module is the only one
that imports `hashlib` or `hmac`.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from hashlib import sha256
from typing import Optional

DIGEST_SIZE = 32
DIVERSIFIER_SIZE = 11
KEY_SIZE = 32
VALUE_WIDTH = 8  # 64-bit amounts in base units (1 ZEC = 10^8 base units)

ZERO32 = b"\x00" * 32


class NoteError(ValueError):
    pass


def encode_int(value: int) -> bytes:
    if not 0 <= value < 1 << 8 * VALUE_WIDTH:
        raise NoteError(f"amounts are integers in [0, 2**{8 * VALUE_WIDTH}), got {value}")
    return value.to_bytes(VALUE_WIDTH, "big")


def encode_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string (4-byte big-endian length)."""
    return len(data).to_bytes(4, "big") + data


_LENGTHS = [n.to_bytes(4, "big") for n in range(256)]  # encode_bytes's prefix of short parts
_TAG_STATES: dict = {}  # tag -> SHA-256 state after encode_bytes(tag), filled on first use


def digest(tag: bytes, *parts: bytes) -> bytes:
    """Domain-separated SHA-256 over the tag and parts, each framed as
    `encode_bytes` frames it.

    As Sapling's personalised hashes fix their domain in the initial state,
    the state after the framed tag is computed once per tag and kept in
    `_TAG_STATES`; a call copies it and feeds each part's length prefix from
    `_LENGTHS`, then the part. A part of 256 bytes or more has no entry
    there, so the call starts again from the tag's state and frames every
    part with `encode_bytes`. The hashed bytes are the same either way.
    Callers pass bytes literals as tags, which bounds the map."""
    try:
        h = _TAG_STATES[tag].copy()
    except KeyError:
        h = _TAG_STATES.setdefault(tag, sha256(encode_bytes(tag))).copy()
    try:
        for part in parts:
            h.update(_LENGTHS[len(part)])
            h.update(part)
    except IndexError:
        h = _TAG_STATES[tag].copy()
        for part in parts:
            h.update(encode_bytes(part))
    return h.digest()


@dataclass(frozen=True)
class Address:
    """Shielded payment address stand-in: an opaque (diversifier, pk_d) pair."""

    diversifier: bytes
    pk_d: bytes

    def __post_init__(self):
        if len(self.diversifier) != DIVERSIFIER_SIZE:
            raise NoteError("diversifier must be 11 bytes")
        if len(self.pk_d) != KEY_SIZE:
            raise NoteError("pk_d must be 32 bytes")

    def encode(self) -> bytes:
        return encode_bytes(self.diversifier) + encode_bytes(self.pk_d)


@dataclass(frozen=True)
class Note:
    """A spendable value record: who can spend it, how much, and the
    commitment trapdoor that hides it."""

    address: Address
    value: int
    rcm: bytes

    def __post_init__(self):
        if self.value < 0:
            raise NoteError("note value must be non-negative")
        if len(self.rcm) != KEY_SIZE:
            raise NoteError("rcm must be 32 bytes")

    def encode(self) -> bytes:
        return self.address.encode() + encode_int(self.value) + encode_bytes(self.rcm)


@dataclass(frozen=True)
class NoteCommitment:
    digest: bytes

    def hex(self) -> str:
        return self.digest.hex()


@dataclass(frozen=True)
class Nullifier:
    digest: bytes

    def hex(self) -> str:
        return self.digest.hex()


@dataclass(frozen=True)
class SharedSecret:
    secret: bytes


@dataclass(frozen=True)
class NoteCiphertext:
    """Authenticated ciphertext of a note; any bit flip fails authentication."""

    payload: bytes
    ephemeral_public: bytes


def commit_note(note: Note) -> NoteCommitment:
    """Binding commitment to the full note contents."""
    return NoteCommitment(digest(b"note-commitment", note.encode()))


def derive_rcm(nonce: bytes) -> bytes:
    """Deterministic trapdoor from a lock-permit nonce.

    Using the permit nonce as the sole source of commitment randomness ties
    one on-chain lock note to exactly one permit, which is what makes lock
    replays detectable.
    """
    return digest(b"rcm-from-nonce", nonce)


def derive_nullifier(note: Note, nullifier_key: bytes) -> Nullifier:
    """Nullifier for a note under a spending authority's nullifier key.

    Without the key the mapping from commitment to nullifier is infeasible
    to compute, so revealing the nullifier does not link back to the note.
    """
    return Nullifier(digest(b"nullifier", note.encode(), nullifier_key))


def random_address(rng) -> Address:
    return Address(rng_bytes(rng, DIVERSIFIER_SIZE), rng_bytes(rng, KEY_SIZE))


def rng_bytes(rng, n: int) -> bytes:
    """n deterministic bytes from a seeded random.Random."""
    return rng.getrandbits(8 * n).to_bytes(n, "big")


class SharedSecretDirectory:
    """Simulated key agreement.

    For a real shielded pool the shared secret of a ciphertext is fully
    determined by the ephemeral public key and the recipient address; the
    sender cannot pick an ephemeral key whose secret the recipient is unable
    to derive. This class reproduces exactly that determinism with a keyed
    hash. The directory's key never appears in any serialized public output,
    so observers cannot evaluate the map; protocol code hands the directory
    only to parties that could run the key agreement for real.
    """

    def __init__(self, sim_key: bytes):
        self._sim_key = sim_key

    def new_ephemeral(self, rng) -> bytes:
        return rng_bytes(rng, KEY_SIZE)

    def secret_for(self, ephemeral_public: bytes, recipient: Address) -> SharedSecret:
        return SharedSecret(
            digest(b"shared-secret", self._sim_key, ephemeral_public, recipient.encode())
        )


def _keystream(secret: SharedSecret, ephemeral_public: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += digest(b"stream", secret.secret, ephemeral_public, encode_int(counter))
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, stream: bytes) -> bytes:
    """`data` XOR an equally long keystream, as one integer operation."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        len(data), "big")


def _auth_tag(secret: SharedSecret, ephemeral_public: bytes, body: bytes) -> bytes:
    return hmac.new(secret.secret, encode_bytes(ephemeral_public) + encode_bytes(body),
                    sha256).digest()


def encrypt_note(note: Note, recipient: Address, secret: SharedSecret,
                 ephemeral_public: bytes) -> NoteCiphertext:
    """Symmetric authenticated encryption of a note to a recipient address."""
    plaintext = note.encode()
    body = _xor(plaintext, _keystream(secret, ephemeral_public, len(plaintext)))
    tag = _auth_tag(secret, ephemeral_public, body)
    return NoteCiphertext(payload=body + tag, ephemeral_public=ephemeral_public)


def decrypt_note(ct: NoteCiphertext, secret: SharedSecret) -> Optional[Note]:
    """Returns the note, or None when authentication or decoding fails.

    A None here is exactly the condition under which the recipient should
    challenge the request that published the ciphertext. A payload shorter
    than a tag leaves a tag too short to match.
    """
    body, tag = ct.payload[:-DIGEST_SIZE], ct.payload[-DIGEST_SIZE:]
    if not hmac.compare_digest(tag, _auth_tag(secret, ct.ephemeral_public, body)):
        return None
    plaintext = _xor(body, _keystream(secret, ct.ephemeral_public, len(body)))
    return _decode_note(plaintext)


def _decode_note(raw: bytes) -> Optional[Note]:
    """Inverse of Note.encode; None on any malformation. The encoding is
    95 bytes of fixed-width fields (length|diversifier 4+11, length|pk_d
    4+32, value 8, length|rcm 4+32), so a parse at fixed offsets that
    re-encodes to the same bytes accepts exactly the encodings of notes."""
    try:
        note = Note(Address(raw[4:15], raw[19:51]), int.from_bytes(raw[51:59], "big"),
                    raw[63:95])
    except NoteError:
        return None
    return note if note.encode() == raw else None


CHALLENGE_UPHELD = "challenge-upheld"
CHALLENGE_REJECTED = "challenge-rejected"


def verify_challenge(ct: NoteCiphertext, revealed: SharedSecret,
                     claimed_cm: NoteCommitment, directory: SharedSecretDirectory,
                     recipient: Address) -> str:
    """Public verdict on a ciphertext challenge given the revealed secret.

    The directory lookup plays the role of the correctness proof binding the
    revealed secret to the ciphertext's ephemeral key: a forged secret fails
    the binding and the challenge is rejected no matter what the ciphertext
    contains. With a correctly bound secret, the challenge is upheld exactly
    when the recipient's own decrypt-and-compare would have failed.
    """
    if revealed != directory.secret_for(ct.ephemeral_public, recipient):
        return CHALLENGE_REJECTED
    note = decrypt_note(ct, revealed)
    if note is None or commit_note(note) != claimed_cm:
        return CHALLENGE_UPHELD
    return CHALLENGE_REJECTED
