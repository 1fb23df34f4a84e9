import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shieldbridge
from shieldbridge import (
    issuing_chain,
    notes,
    oracle,
    protocol,
    relay,
    simcli,
    splitting,
    vault_registry,
    zcash_chain,
)

from shieldbridge.notes import (
    Note,
    NoteCommitment,
    NoteError,
    Nullifier,
    SharedSecretDirectory,
    commit_note,
    derive_nullifier,
    digest,
    encode_int,
    encrypt_note,
    random_address,
    rng_bytes,
)
from shieldbridge.zcash_chain import (
    BlockHeader,
    ChainError,
    ChainState,
    CommitmentTree,
    MerklePath,
    OutputDescription,
    Rejection,
    ShieldedTx,
    SpendDescription,
    SpendWitness,
    Wallet,
    build_transfer,
    fold_path,
)


@pytest.fixture
def rng():
    return random.Random(11)


@pytest.fixture
def directory(rng):
    return SharedSecretDirectory(rng_bytes(rng, 32))


def seed_chain(rng, directory, values=(10_000, 5_000)):
    """Chain with one funded wallet: genesis-adjacent block carries unbacked
    outputs, the way scenarios seed actors."""
    chain = ChainState(depth=8, fee=10)
    wallet = Wallet("alice", random_address(rng), rng_bytes(rng, 32))
    notes = [Note(wallet.address, v, rng_bytes(rng, 32)) for v in values]
    outputs = []
    for note in notes:
        epk = directory.new_ephemeral(rng)
        secret = directory.secret_for(epk, note.address)
        from shieldbridge.notes import encrypt_note
        outputs.append(OutputDescription(commit_note(note),
                                         encrypt_note(note, note.address, secret, epk),
                                         note))
    tx = ShieldedTx((), tuple(outputs), 0)
    assert chain.submit_shielded_tx(tx, allow_unbacked=True) == tx.txid()
    chain.mine_block()
    for note in notes:
        wallet.credit(note)
    return chain, wallet


class TestCommitmentTree:
    def test_paths_verify_and_bind_position(self, rng):
        tree = CommitmentTree(depth=6)
        cms = [NoteCommitment(rng_bytes(rng, 32)) for _ in range(9)]
        for cm in cms:
            tree.append(cm)
        root = tree.root()
        for i, cm in enumerate(cms):
            path = tree.path_at(i, len(cms))
            assert fold_path(cm.digest, path) == root
            # a different leaf fails against the same path
            other = cms[(i + 1) % len(cms)]
            assert fold_path(other.digest, path) != root

    def test_historical_roots(self, rng):
        tree = CommitmentTree(depth=6)
        roots = [tree.root_at(0)]
        for i in range(8):
            tree.append(NoteCommitment(rng_bytes(rng, 32)))
            roots.append(tree.root())
        # path anchored at size 5 verifies against the size-5 root,
        # not against earlier roots
        leaf = tree.leaves[3]
        path = tree.path_at(3, 5)
        assert fold_path(leaf, path) == roots[5]
        assert fold_path(leaf, path) != roots[3]

    def test_append_only_root_changes(self, rng):
        tree = CommitmentTree(depth=6)
        r0 = tree.root()
        tree.append(NoteCommitment(rng_bytes(rng, 32)))
        assert tree.root() != r0


class RecursiveTree(CommitmentTree):
    """The tree with the recursive `_node` the level-by-level one replaced:
    the oracle. It looks `digest` up on the module, as the tree must, so a
    rebound counter sees its calls."""

    def _node(self, level: int, start: int, size: int) -> bytes:
        if start >= size:
            return self._empties[level]
        if level == 0:
            return self.leaves[start]
        half = 1 << (level - 1)
        return zcash_chain.digest(b"tree-node",
                                  self._node(level - 1, start, size),
                                  self._node(level - 1, start + half, size))


MODULES = (shieldbridge, notes, zcash_chain, relay, oracle, vault_registry, issuing_chain,
           protocol, splitting, simcli)


@contextmanager
def counted_digests():
    """Rebind every module binding of `notes.digest` to a counter by domain
    tag, as the benchmark's tracer does."""
    tags = Counter()
    original = notes.digest

    def counted(tag, *parts):
        tags[tag] += 1
        return original(tag, *parts)

    bindings = [(module, name) for module in MODULES
                for name, value in vars(module).items() if value is original]
    for module, name in bindings:
        setattr(module, name, counted)
    try:
        yield tags
    finally:
        for module, name in bindings:
            setattr(module, name, original)


@contextmanager
def recorded_tree_nodes():
    """Record each tree-node digest call the tree module makes, in order,
    as ((left, right), node)."""
    calls = []
    original = zcash_chain.digest

    def recorded(tag, *parts):
        node = original(tag, *parts)
        if tag == b"tree-node":
            calls.append((parts, node))
        return node

    zcash_chain.digest = recorded
    try:
        yield calls
    finally:
        zcash_chain.digest = original


def call_counted(tags, method, *args):
    """(result or raised ChainError message, tree-node digests the call made)"""
    before = tags[b"tree-node"]
    try:
        result = method(*args)
    except ChainError as exc:
        result = str(exc)
    return result, tags[b"tree-node"] - before


TREE_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.binary(min_size=32, max_size=32)),
    st.tuples(st.sampled_from(["truncate", "root_at"]), st.integers(0, 70)),
    st.tuples(st.just("path_at"), st.integers(0, 70), st.integers(0, 70)),
), max_size=90)


class TestTreeAgainstRecursiveOracle:
    @settings(max_examples=150, deadline=None)
    @given(depth=st.integers(1, 6), ops=TREE_OPS)
    def test_same_roots_paths_and_node_digests(self, depth, ops):
        tree, oracle = CommitmentTree(depth), RecursiveTree(depth)
        with counted_digests() as tags:
            for op, *args in ops:
                n = len(oracle)
                if op == "append":
                    args = [NoteCommitment(args[0])]
                elif op in ("truncate", "root_at"):
                    args = [args[0] % (n + 1)]
                elif n:
                    size = 1 + args[1] % n
                    args = [args[0] % size, size]
                got = call_counted(tags, getattr(tree, op), *args)
                want = call_counted(tags, getattr(oracle, op), *args)
                assert got == want, (op, args)
                assert tree.leaves == oracle.leaves

    def test_counts_on_a_known_tree(self):
        # 5 leaves at depth 3: 3 + 2 + 1 node hashes for the root
        tree = CommitmentTree(3)
        for i in range(5):
            tree.append(NoteCommitment(bytes([i]) * 32))
        with counted_digests() as tags:
            root = tree.root()
        assert tags[b"tree-node"] == 6
        assert root == RecursiveTree._node(tree, 3, 0, 5)

    def test_benchmark_scale_in_the_same_calls_and_order(self):
        # bridge_load's tree: depth 16, 1,891 leaves, before and after a
        # truncation. Each root and path matches the oracle's value and
        # makes the oracle's tree-node calls; a root, one subtree, makes
        # them row by row, left to right: the oracle's, stably sorted by
        # level.
        rng = random.Random(27)
        leaves = [rng.randbytes(32) for _ in range(1891)]
        tree, oracle = CommitmentTree(16), RecursiveTree(16)
        for cm in leaves:
            tree.append(NoteCommitment(cm))
            oracle.append(NoteCommitment(cm))
        level = dict.fromkeys(leaves, 0) | {e: lv for lv, e in enumerate(tree._empties)}
        for sizes in ((1, 2, 1023, 1024, 1025, 1891), (1, 2, 1023, 1024, 1025, 1500)):
            for size in sizes:
                for op, args in [("root_at", (size,))] + [
                        ("path_at", (position, size))
                        for position in (0, size // 2, size - 1)]:
                    with recorded_tree_nodes() as got_calls:
                        got = getattr(tree, op)(*args)
                    with recorded_tree_nodes() as want_calls:
                        want = getattr(oracle, op)(*args)
                    assert got == want, (op, args)
                    assert Counter(got_calls) == Counter(want_calls), (op, args)
                    if op == "root_at":
                        for (left, _), node in want_calls:
                            level[node] = level[left] + 1
                        rows = sorted(want_calls, key=lambda call: level[call[0][0]])
                        assert got_calls == rows, args
            tree.truncate(1500)
            oracle.truncate(1500)

    def test_path_beyond_the_tree_rejected(self):
        tree = CommitmentTree(3)
        tree.append(NoteCommitment(b"\x01" * 32))
        with pytest.raises(ChainError, match="prefix larger than tree"):
            tree.path_at(0, 2)


def with_forged_nullifier(tx: ShieldedTx, rng) -> ShieldedTx:
    """tx with its first spend under a fresh nullifier, witness unchanged."""
    first = replace(tx.spends[0], nullifier=Nullifier(rng_bytes(rng, 32)))
    return replace(tx, spends=(first, *tx.spends[1:]))


def with_output_cm(tx: ShieldedTx, cm: NoteCommitment) -> ShieldedTx:
    """tx with its first output's commitment replaced, note unchanged."""
    return replace(tx, outputs=(replace(tx.outputs[0], cm=cm), *tx.outputs[1:]))


class TestTransactions:
    def test_spend_roundtrip(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        dest = random_address(rng)
        tx, notes = build_transfer(wallet, [(dest, 4_000, rng_bytes(rng, 32))],
                                   chain.fee, directory, rng)
        txid = chain.submit_shielded_tx(tx)
        assert isinstance(txid, str)
        chain.mine_block()
        assert chain.pool.knows_commitment(commit_note(notes[0]))

    def test_double_spend_rejected_after_confirmation(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        dest = random_address(rng)
        tx, _ = build_transfer(wallet, [(dest, 4_000, rng_bytes(rng, 32))],
                               chain.fee, directory, rng)
        assert chain.submit_shielded_tx(tx) == tx.txid()
        chain.mine_block()
        rej = chain.submit_shielded_tx(tx)
        assert isinstance(rej, Rejection) and rej.reason == "double-spend"

    def test_double_spend_rejected_in_mempool(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        dest = random_address(rng)
        tx, _ = build_transfer(wallet, [(dest, 4_000, rng_bytes(rng, 32))],
                               chain.fee, directory, rng)
        assert chain.submit_shielded_tx(tx) == tx.txid()
        rej = chain.submit_shielded_tx(tx)
        assert isinstance(rej, Rejection) and rej.reason == "double-spend"

    def test_imbalance_rejected(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        source = next(iter(wallet.unspent.values()))
        bloated = Note(wallet.address, source.value + 1, rng_bytes(rng, 32))
        from shieldbridge.notes import encrypt_note
        epk = directory.new_ephemeral(rng)
        secret = directory.secret_for(epk, wallet.address)
        tx = ShieldedTx(
            (SpendDescription(derive_nullifier(source, wallet.nullifier_key),
                              SpendWitness(source, wallet.nullifier_key)),),
            (OutputDescription(commit_note(bloated),
                               encrypt_note(bloated, wallet.address, secret, epk),
                               bloated),),
            0,
        )
        rej = chain.submit_shielded_tx(tx)
        assert isinstance(rej, Rejection) and rej.reason == "value-imbalance"

    def test_unknown_note_rejected(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        phantom = Note(wallet.address, 100, rng_bytes(rng, 32))
        tx = ShieldedTx(
            (SpendDescription(derive_nullifier(phantom, wallet.nullifier_key),
                              SpendWitness(phantom, wallet.nullifier_key)),),
            (),
            100,
        )
        rej = chain.submit_shielded_tx(tx)
        assert isinstance(rej, Rejection) and rej.reason == "unknown-note"

    def test_forged_nullifier_double_spend_rejected(self, rng, directory):
        # the confirmed tx again, its spend under a made-up nullifier: the
        # nullifier set cannot see this double spend, only the derivation can
        chain, wallet = seed_chain(rng, directory)
        tx, _ = build_transfer(wallet, [(random_address(rng), 4_000, rng_bytes(rng, 32))],
                               chain.fee, directory, rng)
        assert chain.submit_shielded_tx(tx) == tx.txid()
        chain.mine_block()
        forged = with_forged_nullifier(tx, rng)
        rej = chain.submit_shielded_tx(forged)
        assert isinstance(rej, Rejection) and rej.reason == "nullifier-mismatch"
        assert chain.mempool == []

    def test_output_commitment_must_open_its_note(self, rng, directory):
        # the output carries an honest note but commits to a larger one
        chain, wallet = seed_chain(rng, directory)
        tx, notes = build_transfer(wallet, [(random_address(rng), 4_000, rng_bytes(rng, 32))],
                                   chain.fee, directory, rng)
        inflated = replace(notes[0], value=notes[0].value + 1_000)
        rej = chain.submit_shielded_tx(with_output_cm(tx, commit_note(inflated)))
        assert isinstance(rej, Rejection) and rej.reason == "commitment-mismatch"
        assert chain.mempool == []

    def test_public_view_hides_values(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        dest = random_address(rng)
        tx, notes = build_transfer(wallet, [(dest, 4_000, rng_bytes(rng, 32))],
                                   chain.fee, directory, rng)
        view = tx.public_view()
        assert set(view) == {"txid", "nullifiers", "commitments", "fee"}
        assert "4000" not in str(view["nullifiers"]) + str(view["commitments"])


class TestMining:
    def test_empty_block_keeps_root(self, rng, directory):
        chain, _ = seed_chain(rng, directory)
        before = chain.tip.header.tree_root
        header = chain.mine_block()
        assert header.tree_root == before
        assert header.height == chain.height

    def test_outputs_extend_tree(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        count = len(chain.pool.tree)
        dest = random_address(rng)
        tx, _ = build_transfer(wallet, [(dest, 4_000, rng_bytes(rng, 32))],
                               chain.fee, directory, rng)
        chain.submit_shielded_tx(tx)
        chain.mine_block()
        assert len(chain.pool.tree) == count + 2  # payment + change

    def test_adversary_branch_growth(self, rng, directory):
        chain, _ = seed_chain(rng, directory)
        for _ in range(3):
            chain.mine_block()
        fork_from = chain.main[-3]
        tip = fork_from
        heights = []
        for _ in range(4):
            tip = chain.mine_block(parent_hash=tip, txs=[]).hash
            heights.append(chain.blocks[tip].header.height)
        assert heights == [chain.blocks[fork_from].header.height + i for i in range(1, 5)]
        assert chain.main[-1] != tip  # main unchanged until a reorg


def header_hash_oracle(header):
    """The per-access encoding the cached `_parts` replaced: the oracle."""
    return digest(b"block-header", encode_int(header.height), header.parent,
                  header.tree_root, encode_int(header.work), encode_int(header.nonce))


U64 = st.integers(0, 2**64 - 1)
HEADERS = st.builds(BlockHeader, U64, st.binary(max_size=40), st.binary(max_size=40),
                    U64, U64)


class TestHeaderEncoding:
    @settings(max_examples=200, deadline=None)
    @given(header=HEADERS)
    def test_hash_matches_per_access_encoding(self, header):
        assert header.hash == header_hash_oracle(header)

    @settings(max_examples=100, deadline=None)
    @given(header=HEADERS, other=HEADERS)
    def test_replacing_any_field_changes_the_hash(self, header, other):
        for f in fields(BlockHeader):
            if not f.init:
                continue
            value = getattr(other, f.name)
            changed = replace(header, **{f.name: value})
            assert changed.hash == header_hash_oracle(changed)
            assert (changed.hash == header.hash) == (value == getattr(header, f.name))

    def test_equal_headers_compare_equal(self):
        a = BlockHeader(3, b"p" * 32, b"r" * 32, 1, nonce=7)
        b = BlockHeader(3, b"p" * 32, b"r" * 32, 1, nonce=7)
        assert a == b and hash(a) == hash(b) and a.hash == b.hash
        assert a != replace(a, nonce=8)

    def test_parts_stay_out_of_repr(self):
        header = BlockHeader(3, b"p", b"r", 1)
        assert repr(header) == "BlockHeader(height=3, parent=b'p', tree_root=b'r', work=1, nonce=0)"

    @pytest.mark.parametrize("field_name", ["height", "work", "nonce"])
    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_out_of_range_field_raises_at_construction(self, field_name, value):
        good = {"height": 1, "parent": b"p", "tree_root": b"r", "work": 1, "nonce": 0}
        with pytest.raises(NoteError, match="amounts are integers"):
            BlockHeader(**{**good, field_name: value})

    def test_every_access_digests(self):
        # the pinned header_hashes_per_block counts each access, so `hash`
        # digests the cached parts anew every time
        header = BlockHeader(3, b"p" * 32, b"r" * 32, 1)
        with counted_digests() as tags:
            assert header.hash == header.hash
        assert tags[b"block-header"] == 2


class TestReorg:
    def build_fork(self, rng, directory, side_len):
        chain, wallet = seed_chain(rng, directory)
        dest = random_address(rng)
        tx, notes = build_transfer(wallet, [(dest, 4_000, rng_bytes(rng, 32))],
                                   chain.fee, directory, rng)
        chain.submit_shielded_tx(tx)
        chain.mine_block()  # tx confirmed at depth 0
        fork_from = chain.main[-2]
        tip = fork_from
        for _ in range(side_len):
            tip = chain.mine_block(parent_hash=tip, txs=[]).hash
        return chain, tip, tx

    def test_heavier_branch_wins_and_orphans_txs(self, rng, directory):
        chain, tip, tx = self.build_fork(rng, directory, side_len=2)
        report = chain.reorg_to(tip)
        assert report.new_tip == tip
        assert tx.txid() in report.orphaned_txids
        # orphaned tx is back in the mempool and still valid
        assert any(t.txid() == tx.txid() for t in chain.mempool)

    def test_equal_work_rejected(self, rng, directory):
        chain, tip, _ = self.build_fork(rng, directory, side_len=1)
        rej = chain.reorg_to(tip)
        assert isinstance(rej, Rejection) and rej.reason == "insufficient-work"

    def test_replay_matches_incremental_state(self, rng, directory):
        chain, tip, _ = self.build_fork(rng, directory, side_len=2)
        chain.reorg_to(tip)
        chain.mine_block()  # re-mine the orphaned tx on the new main chain
        root, size, nfs = chain.replay_from_genesis()
        assert root == chain.pool.tree.root()
        assert size == len(chain.pool.tree)
        assert nfs == chain.pool.nullifiers
        assert root == chain.tip.header.tree_root

    def test_listeners_see_applied_side_blocks_in_order(self, rng, directory):
        chain, tip, _ = self.build_fork(rng, directory, side_len=3)
        seen = []
        chain.on_block(lambda block: seen.append(block.header.hash))
        report = chain.reorg_to(tip)
        assert seen == chain.main[report.fork_height + 1:]
        assert len(seen) == 3 and seen[-1] == tip

    def test_orphaning_later_copy_keeps_earlier_position(self, rng, directory):
        # one note N mined in B1, an empty B2, N again in B3; a reorg that
        # orphans only B3 must leave N indexed at its B1 position
        chain = ChainState(depth=8, fee=10)
        tx = output_only_tx(rng, directory)
        cm = tx.outputs[0].cm
        b1 = chain.mine_block(txs=[tx])
        b2 = chain.mine_block()
        chain.mine_block(txs=[tx])
        side = chain.mine_block(parent_hash=b2.hash, txs=[])
        side = chain.mine_block(parent_hash=side.hash, txs=[])
        assert chain.reorg_to(side.hash).fork_height == b2.height
        path = chain.merkle_path(cm, b1.hash)
        assert isinstance(path, MerklePath) and path.position == 0
        assert fold_path(cm.digest, path) == b1.tree_root
        assert chain.pool.leaf_index == {cm.digest: 0}

    def test_every_header_root_matches_replay(self, rng, directory):
        # block-by-block independent replay: each accepted header commits to
        # exactly the tree state after its own transactions
        from shieldbridge.zcash_chain import ShieldedPool
        chain, tip, _ = self.build_fork(rng, directory, side_len=2)
        chain.reorg_to(tip)
        chain.mine_block()
        scratch = ShieldedPool(chain.pool.tree.depth)
        for bh in chain.main:
            block = chain.blocks[bh]
            for tx in block.txs:
                scratch.apply_tx(tx)
            assert scratch.tree.root() == block.header.tree_root, block.header.height

    def test_reorg_drops_a_queued_spend_the_new_branch_made(self, rng, directory):
        # T is queued while a side branch spends the same note in T'; after
        # the reorg only T' may stay on the main chain
        chain, wallet = seed_chain(rng, directory, values=(100,))
        funding = chain.main[-1]
        chain.mine_block()
        dest = random_address(rng)
        t, _ = build_transfer(wallet, [(dest, 50, rng_bytes(rng, 32))], chain.fee,
                              directory, rng)
        t_prime, _ = build_transfer(wallet, [(dest, 60, rng_bytes(rng, 32))], chain.fee,
                                    directory, rng)
        assert chain.submit_shielded_tx(t) == t.txid()
        tip = chain.mine_block(parent_hash=funding, txs=[t_prime]).hash
        tip = chain.mine_block(parent_hash=tip, txs=[]).hash
        chain.reorg_to(tip)
        chain.mine_block()
        mined = [tx.txid() for bh in chain.main for tx in chain.blocks[bh].txs]
        assert t_prime.txid() in mined and t.txid() not in mined

    def reorg_under_a_queued_spend(self, rng, directory, side_pays_bob):
        """X pays Bob note N and is mined; Bob queues Y spending N; a 2-block
        side branch from X's parent spends X's source again, in X itself
        (`side_pays_bob`) or in X', which pays someone else. Either way X
        stays out of the mempool; only X' leaves N out of the tree."""
        chain, alice = seed_chain(rng, directory, values=(100,))
        funding = chain.main[-1]
        bob = Wallet("bob", random_address(rng), rng_bytes(rng, 32))
        x, (n, _) = build_transfer(alice, [(bob.address, 50, rng_bytes(rng, 32))],
                                   chain.fee, directory, rng)
        x_prime, _ = build_transfer(alice, [(random_address(rng), 60, rng_bytes(rng, 32))],
                                    chain.fee, directory, rng)
        assert chain.submit_shielded_tx(x) == x.txid()
        chain.mine_block()
        bob.credit(n)
        y, _ = build_transfer(bob, [(random_address(rng), 20, rng_bytes(rng, 32))],
                              chain.fee, directory, rng)
        assert chain.submit_shielded_tx(y) == y.txid()
        tip = chain.mine_block(parent_hash=funding, txs=[x if side_pays_bob else x_prime]).hash
        tip = chain.mine_block(parent_hash=tip, txs=[]).hash
        chain.reorg_to(tip)
        assert [tx.txid() for tx in chain.mempool if tx.txid() == x.txid()] == []
        chain.mine_block()
        mined = [tx.txid() for bh in chain.main for tx in chain.blocks[bh].txs]
        return chain, n, y.txid() in mined

    def test_reorg_drops_a_queued_spend_of_a_note_it_erased(self, rng, directory):
        chain, n, y_mined = self.reorg_under_a_queued_spend(rng, directory, False)
        assert commit_note(n).digest not in chain.pool.leaf_index
        assert not y_mined

    def test_reorg_keeps_a_queued_spend_of_a_note_the_branch_mined_again(self, rng,
                                                                         directory):
        chain, n, y_mined = self.reorg_under_a_queued_spend(rng, directory, True)
        assert commit_note(n).digest in chain.pool.leaf_index
        assert y_mined

    def test_reorg_requeues_a_spend_of_a_requeued_output(self, rng, directory):
        # X pays Bob note N and Y spends N, each in its own block; an empty
        # 3-block branch from X's parent orphans both. Y is valid once X is
        # requeued ahead of it, so both go back, in order, and are mined
        chain, alice = seed_chain(rng, directory, values=(100,))
        funding = chain.main[-1]
        bob = Wallet("bob", random_address(rng), rng_bytes(rng, 32))
        x, (n, _) = build_transfer(alice, [(bob.address, 50, rng_bytes(rng, 32))],
                                   chain.fee, directory, rng)
        assert chain.submit_shielded_tx(x) == x.txid()
        chain.mine_block()
        bob.credit(n)
        y, _ = build_transfer(bob, [(random_address(rng), 20, rng_bytes(rng, 32))],
                              chain.fee, directory, rng)
        assert chain.submit_shielded_tx(y) == y.txid()
        chain.mine_block()
        tip = funding
        for _ in range(3):
            tip = chain.mine_block(parent_hash=tip, txs=[]).hash
        report = chain.reorg_to(tip)
        assert report.orphaned_txids == (x.txid(), y.txid())
        assert [tx.txid() for tx in chain.mempool] == [x.txid(), y.txid()]
        chain.mine_block()
        assert [tx.txid() for tx in chain.tip.txs] == [x.txid(), y.txid()]
        assert y.spends[0].nullifier.digest in chain.pool.nullifiers
        root, size, nullifiers = chain.replay_from_genesis()
        assert (root, size, nullifiers) == (chain.pool.tree.root(), len(chain.pool.tree),
                                            chain.pool.nullifiers)

    def test_branch_that_spends_a_main_nullifier_again_is_refused(self, rng, directory):
        # the side branch forks after the spend, so T' reuses T's nullifier
        # on its own branch; the reorg must change nothing
        chain, wallet = seed_chain(rng, directory, values=(100,))
        dest = random_address(rng)
        t, _ = build_transfer(wallet, [(dest, 50, rng_bytes(rng, 32))], chain.fee,
                              directory, rng)
        t_prime, _ = build_transfer(wallet, [(dest, 60, rng_bytes(rng, 32))], chain.fee,
                                    directory, rng)
        assert chain.submit_shielded_tx(t) == t.txid()
        chain.mine_block()
        tip = chain.main[-1]
        chain.mine_block()
        chain.mine_block()
        for body in ([t_prime], [], []):
            tip = chain.mine_block(parent_hash=tip, txs=body).hash
        queued = output_only_tx(rng, directory)
        chain.submit_shielded_tx(queued, allow_unbacked=True)
        main, size = list(chain.main), len(chain.pool.tree)
        nullifiers = set(chain.pool.nullifiers)
        seen = []
        chain.on_block(seen.append)
        assert chain.reorg_to(tip) == Rejection("invalid-branch")
        assert (chain.main, len(chain.pool.tree), chain.pool.nullifiers) == (
            main, size, nullifiers)
        assert chain.mempool == [queued] and seen == []

    @pytest.mark.parametrize("body", ["negative-fee", "spent-nullifier", "twice-in-body"])
    def test_main_tip_body_that_breaks_the_ledger_is_refused(self, rng, directory, body):
        chain, wallet = seed_chain(rng, directory, values=(100, 200))
        dest = random_address(rng)
        t, _ = build_transfer(wallet, [(dest, 50, rng_bytes(rng, 32))], chain.fee,
                              directory, rng)
        if body == "negative-fee":
            txs = [replace(t, fee=-10**9)]
        elif body == "spent-nullifier":
            chain.mine_block(txs=[t])
            txs = [t]
        else:
            txs = [t, t]
        main, nullifiers = list(chain.main), set(chain.pool.nullifiers)
        with pytest.raises(ChainError):
            chain.mine_block(txs=txs)
        assert (chain.main, chain.pool.nullifiers) == (main, nullifiers)

    def test_no_duplicate_nullifier_on_any_branch(self, rng, directory):
        chain, tip, _ = self.build_fork(rng, directory, side_len=2)
        chain.reorg_to(tip)
        chain.mine_block()
        seen = set()
        for bh in chain.main:
            for nf in chain.blocks[bh].new_nullifiers:
                assert nf not in seen
                seen.add(nf)


def branch_root_from_genesis(chain, tip_hash):
    """Oracle for a block's tree root: the outputs of every block from
    genesis to `tip_hash`, in a fresh tree."""
    hashes = [tip_hash]
    while chain.blocks[hashes[-1]].header.height > 0:
        hashes.append(chain.blocks[hashes[-1]].header.parent)
    tree = CommitmentTree(chain.pool.tree.depth)
    for bh in reversed(hashes):
        for tx in chain.blocks[bh].txs:
            for out in tx.outputs:
                tree.append(out.cm)
    return tree.root()


def output_only_tx(rng, directory):
    """An unbacked one-output body for a side block."""
    note = Note(random_address(rng), rng.randrange(1, 1_000), rng_bytes(rng, 32))
    epk = directory.new_ephemeral(rng)
    ct = encrypt_note(note, note.address, directory.secret_for(epk, note.address), epk)
    return ShieldedTx((), (OutputDescription(commit_note(note), ct, note),), 0)


def repeated_output_tx(chain, rng):
    """A side body repeating one output of an earlier main-chain block, or
    None while the main chain has no outputs."""
    outputs = [out for bh in chain.main for tx in chain.blocks[bh].txs for out in tx.outputs]
    if not outputs:
        return None
    return ShieldedTx((), (outputs[rng.randrange(len(outputs))],), 0)


class TestRandomizedChurn:
    def test_replay_invariant_over_random_fork_walks(self, directory):
        self.walk(directory, repeat_outputs=False)

    def test_replay_invariant_with_repeated_commitments(self, directory):
        # side bodies sometimes repeat a main-chain output, so a reorg can
        # put a second copy of a commitment into the tree or orphan one
        self.walk(directory, repeat_outputs=True)

    def walk(self, directory, repeat_outputs):
        # random interleaving of spends, side-branch mining (some side
        # blocks with a body) and reorg attempts: every side header's root
        # matches a from-genesis walk, the commitment index always matches
        # the tree's leaves, the incrementally maintained state always
        # equals a from-genesis replay, and accepted reorgs never duplicate
        # nullifiers
        for seed in range(20):
            rng = random.Random(seed)
            chain, wallet = seed_chain(rng, directory, values=(50_000,))
            side_tips = []
            change: dict[bytes, Note] = {}  # cm -> change note awaiting its block
            for _ in range(40):
                move = rng.randrange(4)
                if move == 0 and wallet.balance() > 1_000:
                    dest = random_address(rng)
                    tx, notes = build_transfer(
                        wallet, [(dest, rng.randrange(100, 900), rng_bytes(rng, 32))],
                        chain.fee, directory, rng)
                    if chain.submit_shielded_tx(tx) == tx.txid():
                        wallet.mark_spent([s.witness.note for s in tx.spends])
                        if len(notes) > 1:
                            change[commit_note(notes[-1]).digest] = notes[-1]
                elif move == 1:
                    header = chain.mine_block()
                    for out_tx in chain.blocks[header.hash].txs:
                        for out in out_tx.outputs:
                            if out.cm.digest in change:
                                wallet.credit(change.pop(out.cm.digest))
                elif move == 2:
                    fork_depth = rng.randrange(1, min(4, chain.height + 1))
                    parent = side_tips[-1] if side_tips and rng.random() < 0.5 \
                        else chain.main[-1 - fork_depth]
                    txs = [output_only_tx(rng, directory)] if rng.random() < 0.5 else []
                    if repeat_outputs and txs and rng.random() < 0.5:
                        txs = [repeated_output_tx(chain, rng) or txs[0]]
                    header = chain.mine_block(parent_hash=parent, txs=txs)
                    assert header.tree_root == branch_root_from_genesis(
                        chain, header.hash), seed
                    side_tips.append(header.hash)
                elif move == 3 and side_tips:
                    chain.reorg_to(side_tips[rng.randrange(len(side_tips))])
                # first position wins for a repeated commitment
                rebuilt = {}
                for i, cm in enumerate(chain.pool.tree.leaves):
                    rebuilt.setdefault(cm, i)
                assert chain.pool.leaf_index == rebuilt, seed
            root, size, nfs = chain.replay_from_genesis()
            assert root == chain.pool.tree.root() == chain.tip.header.tree_root, seed
            assert size == len(chain.pool.tree), seed
            assert nfs == chain.pool.nullifiers, seed
            seen = set()
            for bh in chain.main:
                for nf in chain.blocks[bh].new_nullifiers:
                    assert nf not in seen, seed
                    seen.add(nf)


class TestMerklePathOp:
    def test_confirmed_output_has_verifying_path(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        dest = random_address(rng)
        tx, notes = build_transfer(wallet, [(dest, 4_000, rng_bytes(rng, 32))],
                                   chain.fee, directory, rng)
        chain.submit_shielded_tx(tx)
        header = chain.mine_block()
        cm = commit_note(notes[0])
        path = chain.merkle_path(cm, header.hash)
        assert isinstance(path, MerklePath)
        assert fold_path(cm.digest, path) == header.tree_root

    def test_never_included_not_found(self, rng, directory):
        chain, _ = seed_chain(rng, directory)
        ghost = NoteCommitment(rng_bytes(rng, 32))
        rej = chain.merkle_path(ghost, chain.main[-1])
        assert isinstance(rej, Rejection) and rej.reason == "not-found"

    def test_cited_block_anchors_path(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        dest = random_address(rng)
        tx, notes = build_transfer(wallet, [(dest, 4_000, rng_bytes(rng, 32))],
                                   chain.fee, directory, rng)
        chain.submit_shielded_tx(tx)
        inclusion_header = chain.mine_block()
        pre_inclusion = chain.blocks[inclusion_header.parent].header
        tx2, _ = build_transfer(wallet, [(dest, 100, rng_bytes(rng, 32))],
                                chain.fee, directory, rng)
        chain.submit_shielded_tx(tx2)
        later_header = chain.mine_block()  # tree has grown since
        cm = commit_note(notes[0])
        path = chain.merkle_path(cm, inclusion_header.hash)
        assert fold_path(cm.digest, path) == inclusion_header.tree_root
        assert fold_path(cm.digest, path) != pre_inclusion.tree_root
        # the same leaf anchored at the later block also verifies there
        later_path = chain.merkle_path(cm, later_header.hash)
        assert fold_path(cm.digest, later_path) == later_header.tree_root


def spend_of(wallet, note):
    return SpendDescription(derive_nullifier(note, wallet.nullifier_key),
                            SpendWitness(note, wallet.nullifier_key))


def output_of(note, directory, rng):
    epk = directory.new_ephemeral(rng)
    ct = encrypt_note(note, note.address, directory.secret_for(epk, note.address), epk)
    return OutputDescription(commit_note(note), ct, note)


class TestChainGuards:
    def test_full_tree(self):
        tree = CommitmentTree(1)
        tree.append(NoteCommitment(b"\x01" * 32))
        tree.append(NoteCommitment(b"\x02" * 32))
        with pytest.raises(ChainError, match="commitment tree full"):
            tree.append(NoteCommitment(b"\x03" * 32))
        assert len(tree) == 2

    def test_prefix_past_the_tree(self):
        tree = CommitmentTree(3)
        tree.append(NoteCommitment(b"\x01" * 32))
        with pytest.raises(ChainError, match="prefix larger than tree"):
            tree.root_at(2)
        with pytest.raises(ChainError, match="leaf not present"):
            tree.path_at(1, 1)

    def test_mine_on_an_unknown_parent(self, rng):
        chain = ChainState(depth=4)
        with pytest.raises(ChainError, match="unknown parent"):
            chain.mine_block(parent_hash=rng_bytes(rng, 32))
        assert len(chain.blocks) == 1

    def test_reorg_to_an_unknown_branch(self, rng):
        chain = ChainState(depth=4)
        assert chain.reorg_to(rng_bytes(rng, 32)) == Rejection("unknown-branch")

    def test_path_into_an_orphaned_block(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        funding = chain.main[1]
        tip = chain.main[0]
        for _ in range(3):
            tip = chain.mine_block(parent_hash=tip, txs=[]).hash
        chain.reorg_to(tip)
        cm = commit_note(next(iter(wallet.unspent.values())))
        assert chain.merkle_path(cm, funding) == Rejection("block-not-on-main")

    def test_path_for_a_commitment_mined_after_the_cited_block(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        cited = chain.main[-1]
        tx, notes = build_transfer(wallet, [(random_address(rng), 4_000, rng_bytes(rng, 32))],
                                   chain.fee, directory, rng)
        chain.submit_shielded_tx(tx)
        chain.mine_block()
        assert chain.merkle_path(commit_note(notes[0]), cited) == Rejection("not-found")

    def test_one_tx_spending_a_note_twice(self, rng, directory):
        chain, wallet = seed_chain(rng, directory, values=(10_000,))
        note = next(iter(wallet.unspent.values()))
        twice = Note(wallet.address, 2 * note.value - chain.fee, rng_bytes(rng, 32))
        tx = ShieldedTx((spend_of(wallet, note),) * 2,
                        (output_of(twice, directory, rng),), chain.fee)
        assert chain.submit_shielded_tx(tx) == Rejection("double-spend")

    def test_value_from_nothing_needs_the_flag(self, rng, directory):
        chain = ChainState(depth=4, fee=0)
        note = Note(random_address(rng), 100, rng_bytes(rng, 32))
        tx = ShieldedTx((), (output_of(note, directory, rng),), 0)
        assert chain.submit_shielded_tx(tx) == Rejection("value-imbalance")
        assert chain.submit_shielded_tx(tx, allow_unbacked=True) == tx.txid()

    def test_flag_creates_no_value_alongside_spends(self, rng, directory):
        chain, wallet = seed_chain(rng, directory, values=(10_000,))
        note = next(iter(wallet.unspent.values()))
        bloated = Note(wallet.address, note.value + 1, rng_bytes(rng, 32))
        tx = ShieldedTx((spend_of(wallet, note),), (output_of(bloated, directory, rng),), 0)
        rej = chain.submit_shielded_tx(tx, allow_unbacked=True)
        assert rej == Rejection("value-imbalance")

    def test_flag_still_needs_known_notes(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        phantom = Note(wallet.address, 100, rng_bytes(rng, 32))
        tx = ShieldedTx((spend_of(wallet, phantom),), (), 100)
        rej = chain.submit_shielded_tx(tx, allow_unbacked=True)
        assert rej == Rejection("unknown-note")

    def test_side_block_without_a_body_leaves_the_mempool(self, rng, directory):
        chain, wallet = seed_chain(rng, directory)
        tx, _ = build_transfer(wallet, [(random_address(rng), 4_000, rng_bytes(rng, 32))],
                               chain.fee, directory, rng)
        chain.submit_shielded_tx(tx)
        side = chain.mine_block(parent_hash=chain.main[-2])
        assert chain.blocks[side.hash].txs == []
        assert chain.mempool == [tx]


def honest_load(pairs):
    """An engine with `pairs` honest vault/user pairs, each user issuing 50
    then redeeming 20 against its own vault, and a function that runs it for
    44 ticks."""
    params = vault_registry.RegistryParams(v_max=100, f=Fraction(2, 100),
                                           sigma_std=Fraction(3, 2), i_w=5,
                                           poc_validity=100, pob_period=100)
    engine = protocol.Engine(protocol.ProtocolConfig(
        params, relay_k=2, delta_mint=8, delta_confirm_issue=2, delta_confirm_redeem=8,
        zc_fee=1, tree_depth=6), 7)
    engine.oracle.set_rate(0, Fraction(2, 1))
    bots = []
    for i in range(1, pairs + 1):
        engine.add_actor(f"V{i}", zec_notes=(500,), i_balance=344)
        engine.add_actor(f"U{i}", zec_notes=(400,), i_balance=50)
        user = simcli.ActorSpec(f"U{i}", "user", vault=f"V{i}", amount=50, at=1 + i,
                                amount2=20, at2=13 + i)
        bots += [simcli.VaultBot(simcli.ActorSpec(f"V{i}", "vault")),
                 simcli.IssueBot(user), simcli.RedeemBot(user)]
    engine.start()
    for i in range(1, pairs + 1):
        engine.register_vault(f"V{i}", 294)
        engine.submit_poc(f"V{i}")
    return engine, lambda: engine.run_until(44, lambda eng: [bot.step(eng) for bot in bots])


class TestCountContract:
    """The digests of the request path's note calls, pinned by tag: a count
    that drifts fails here, not only in the benchmark's recorded counts."""

    def test_digests_per_note_call(self, rng, directory):
        wallet = Wallet("alice", random_address(rng), rng_bytes(rng, 32))
        note = Note(wallet.address, 5_000, rng_bytes(rng, 32))
        with counted_digests() as sealed:
            ct = directory.seal(note, wallet.address, rng)
        secret = directory.secret_for(ct.ephemeral_public, wallet.address)
        with counted_digests() as decrypted:
            assert notes.decrypt_note(ct, secret) == note
        with counted_digests() as committed:
            commit_note(note)
        # a 95-byte plaintext takes three 32-byte keystream blocks
        assert sealed == {b"shared-secret": 1, b"stream": 3}
        assert decrypted == {b"stream": 3}
        assert committed == {b"note-commitment": 1}

    # the request path's tags; the tree and header counts wait for the
    # incremental tree and the one-hash header to settle
    @pytest.mark.parametrize("pairs, note_tags", [
        (2, {b"note-commitment": 90, b"stream": 84, b"shared-secret": 28,
             b"nullifier": 12, b"rcm-from-nonce": 4, b"txid": 4}),
        (4, {b"note-commitment": 180, b"stream": 168, b"shared-secret": 56,
             b"nullifier": 24, b"rcm-from-nonce": 8, b"txid": 8}),
    ])
    def test_honest_load_observes_only_expected_outputs(self, pairs, note_tags,
                                                        monkeypatch):
        # the scan's credits are the `Wallet.credit` calls made while a
        # block is scanned; each must name a (wallet, note) pair `_expect` took
        expected, credited, scanning = [], [], []
        Engine = protocol.Engine
        expect, scan, credit = Engine._expect, Engine._scan_block, Wallet.credit

        def recorded_expect(engine, wallet, note):
            expected.append((wallet, note))
            expect(engine, wallet, note)

        def recorded_scan(engine, block):
            scanning.append(block)
            scan(engine, block)
            scanning.pop()

        def recorded_credit(wallet, note):
            if scanning:
                credited.append((wallet, note))
            credit(wallet, note)

        monkeypatch.setattr(Engine, "_expect", recorded_expect)
        monkeypatch.setattr(Engine, "_scan_block", recorded_scan)
        monkeypatch.setattr(Wallet, "credit", recorded_credit)
        engine, run = honest_load(pairs)
        with counted_digests() as tags:
            run()
        assert all(request.close_reason == "confirmed" for request in engine.requests.values())
        assert len(engine.requests) == 2 * pairs
        mined = Counter(out.cm.digest for block_hash in engine.zcash.main
                        for tx in engine.zcash.blocks[block_hash].txs for out in tx.outputs)
        # each lock and release pays change, and the release note is expected
        assert len(credited) == 3 * pairs
        assert all(pair in expected for pair in credited)
        observed = Counter(commit_note(note).digest for _, note in credited)
        assert all(n <= mined[cm] for cm, n in observed.items())
        assert not engine._expecting
        assert {tag: tags[tag] for tag in note_tags} == note_tags
