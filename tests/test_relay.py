import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldbridge.notes import (
    Note,
    NoteCommitment,
    SharedSecretDirectory,
    commit_note,
    digest,
    encrypt_note,
    random_address,
    rng_bytes,
)
from shieldbridge.relay import ACCEPTED, VERIFIED, Relay
from shieldbridge.zcash_chain import (
    BlockHeader,
    ChainState,
    CommitmentTree,
    MerklePath,
    OutputDescription,
    Rejection,
    ShieldedTx,
    fold_path,
)


@pytest.fixture
def rng():
    return random.Random(21)


def relayed_chain(k=4, depth=8):
    chain = ChainState(depth=depth, fee=0)
    relay = Relay(chain.tip.header, finality_depth=k, tree_depth=depth)
    return chain, relay


def feed_main(chain, relay, n):
    for _ in range(n):
        header = chain.mine_block()
        assert relay.submit_header(header) == ACCEPTED


class TestHeaderAcceptance:
    def test_child_of_tip_advances(self):
        chain, relay = relayed_chain()
        header = chain.mine_block()
        assert relay.submit_header(header) == ACCEPTED
        assert relay.best_tip == header.hash

    def test_unknown_parent_rejected_not_stored(self, rng):
        _, relay = relayed_chain()
        orphan = BlockHeader(5, rng_bytes(rng, 32), rng_bytes(rng, 32), 1)
        rej = relay.submit_header(orphan)
        assert isinstance(rej, Rejection) and rej.reason == "unknown-parent"
        assert orphan.hash not in relay.headers

    def test_bad_height_rejected(self):
        chain, relay = relayed_chain()
        good = chain.mine_block()
        relay.submit_header(good)
        skipper = BlockHeader(good.height + 2, good.hash, good.tree_root, 1, nonce=9)
        assert isinstance(relay.submit_header(skipper), Rejection)

    def test_resubmission_accepted_without_state_change(self):
        chain, relay = relayed_chain(k=2)
        feed_main(chain, relay, 4)
        side = chain.mine_block(parent_hash=chain.main[2], txs=[])
        assert relay.submit_header(side) == ACCEPTED

        def state():
            return (dict(relay.headers), dict(relay.cum_work), relay.best_tip,
                    dict(relay.finalized), replace(relay.metrics))

        before = state()
        for bh in (chain.main[1], chain.main[-1], side.hash):
            assert relay.submit_header(chain.blocks[bh].header) == ACCEPTED
        assert state() == before

    def test_competing_branch_overtakes(self):
        chain, relay = relayed_chain()
        feed_main(chain, relay, 3)
        fork_from = chain.main[2]
        tip = fork_from
        side = []
        for _ in range(3):
            tip = chain.mine_block(parent_hash=tip, txs=[]).hash
            side.append(chain.blocks[tip].header)
        for header in side[:1]:
            relay.submit_header(header)
        assert relay.best_tip != side[0].hash  # lighter than main
        for header in side[1:]:
            relay.submit_header(header)
        assert relay.best_tip == side[-1].hash  # heavier now
        assert relay.metrics.tip_switches >= 1

    def test_inflated_work_fork_rejected(self):
        # work is 1 per block on the chain, so a header declaring more is
        # invalid: 7 forged heavy headers from genesis must not revert 20
        # honest blocks or flip finality
        chain, relay = relayed_chain(k=6)
        feed_main(chain, relay, 20)
        honest_tip, honest_h14 = relay.best_tip, chain.main[14]
        assert relay.is_final(honest_h14)
        parent = relay.headers[chain.main[0]]  # genesis
        results = []
        for i in range(7):
            forged = BlockHeader(parent.height + 1, parent.hash, parent.tree_root, 10**6,
                                 nonce=5000 + i)
            results.append(relay.submit_header(forged))
            parent = forged
        assert results[0] == Rejection("invalid-header")
        assert all(isinstance(r, Rejection) for r in results)
        assert relay.best_tip == honest_tip
        assert relay.metrics.finality_flips == 0
        assert relay.is_final(honest_h14)


class TestFinality:
    def test_depth_boundaries(self):
        chain, relay = relayed_chain(k=4)
        first = chain.mine_block()
        relay.submit_header(first)
        feed_main(chain, relay, 3)  # depth of `first` is now exactly k-1
        assert relay.depth_of(first.hash) == 3
        assert not relay.is_final(first.hash)
        feed_main(chain, relay, 1)  # depth k
        assert relay.is_final(first.hash)
        feed_main(chain, relay, 1)  # depth k+1
        assert relay.is_final(first.hash)

    def test_unknown_block_not_final(self, rng):
        _, relay = relayed_chain()
        assert not relay.is_final(rng_bytes(rng, 32))

    def test_unknown_block_has_no_depth(self, rng):
        chain, relay = relayed_chain()
        feed_main(chain, relay, 3)
        assert relay.depth_of(rng_bytes(rng, 32)) == -1
        assert relay.depth_of(chain.main[0]) == 3

    def test_abandoned_branch_never_final(self):
        chain, relay = relayed_chain(k=2)
        feed_main(chain, relay, 2)
        fork_from = chain.main[1]
        side_tip = fork_from
        side = []
        for _ in range(8):
            side_tip = chain.mine_block(parent_hash=side_tip, txs=[]).hash
            side.append(chain.blocks[side_tip].header)
        for header in side:
            relay.submit_header(header)
        # side branch overtook; old main block at height 2 is deep but not final
        old_main = chain.main[2]
        assert relay.depth_of(old_main) >= relay.k
        assert not relay.is_final(old_main)
        # the side branch block at the same height is the final one
        assert relay.is_final(side[0].hash)

    def test_finality_flip_detected_when_eclipsed(self):
        # relay fed only the attacker branch after honest headers stop
        chain, relay = relayed_chain(k=2)
        feed_main(chain, relay, 4)
        finalized_h2 = chain.main[2]
        assert relay.is_final(finalized_h2)
        fork_from = chain.main[1]
        tip = fork_from
        for _ in range(10):
            header = chain.mine_block(parent_hash=tip, txs=[])
            relay.submit_header(header)
            tip = header.hash
        assert relay.metrics.finality_flips >= 1
        assert not relay.is_final(finalized_h2)


class TestNoteInclusion:
    def make_chain_with_note(self, rng, k):
        chain, relay = relayed_chain(k=k)
        directory = SharedSecretDirectory(rng_bytes(rng, 32))
        addr = random_address(rng)
        note = Note(addr, 777, rng_bytes(rng, 32))
        epk = directory.new_ephemeral(rng)
        ct = encrypt_note(note, addr, directory.secret_for(epk, addr), epk)
        tx = ShieldedTx((), (OutputDescription(commit_note(note), ct, note),), 0)
        chain.submit_shielded_tx(tx, allow_unbacked=True)
        inclusion = chain.mine_block()
        relay.submit_header(inclusion)
        return chain, relay, commit_note(note), inclusion

    def test_verified_at_depth_k(self, rng):
        chain, relay, cm, inclusion = self.make_chain_with_note(rng, k=3)
        feed_main(chain, relay, 3)
        path = chain.merkle_path(cm, inclusion.hash)
        assert relay.verify_note_inclusion(cm, path, inclusion.hash) == VERIFIED

    def test_rejected_below_depth_k(self, rng):
        chain, relay, cm, inclusion = self.make_chain_with_note(rng, k=3)
        feed_main(chain, relay, 2)
        path = chain.merkle_path(cm, inclusion.hash)
        rej = relay.verify_note_inclusion(cm, path, inclusion.hash)
        assert isinstance(rej, Rejection) and rej.reason == "not-final"

    def test_rejected_for_wrong_commitment(self, rng):
        chain, relay, cm, inclusion = self.make_chain_with_note(rng, k=3)
        feed_main(chain, relay, 3)
        path = chain.merkle_path(cm, inclusion.hash)
        other = NoteCommitment(rng_bytes(rng, 32))
        rej = relay.verify_note_inclusion(other, path, inclusion.hash)
        assert isinstance(rej, Rejection) and rej.reason == "bad-path"

    def test_rejected_for_internal_node(self, rng):
        # a path one sibling short folds the parent of leaves 0 and 1 up to
        # the block's root; that node is no leaf, so the proof is bad
        chain, relay = relayed_chain(k=2, depth=4)
        directory = SharedSecretDirectory(rng_bytes(rng, 32))
        addr = random_address(rng)
        outputs = []
        for value in (1, 2):
            note = Note(addr, value, rng_bytes(rng, 32))
            epk = directory.new_ephemeral(rng)
            ct = encrypt_note(note, addr, directory.secret_for(epk, addr), epk)
            outputs.append(OutputDescription(commit_note(note), ct, note))
        chain.submit_shielded_tx(ShieldedTx((), tuple(outputs), 0), allow_unbacked=True)
        block = chain.mine_block()
        relay.submit_header(block)
        feed_main(chain, relay, 2)
        leaf0, leaf1 = chain.pool.tree.leaves
        node = NoteCommitment(digest(b"tree-node", leaf0, leaf1))
        full = chain.pool.tree.path_at(0, 2)
        short = MerklePath(0, full.siblings[1:])
        assert fold_path(node.digest, short) == block.tree_root
        rej = relay.verify_note_inclusion(node, short, block.hash)
        assert isinstance(rej, Rejection) and rej.reason == "bad-path"
        assert relay.verify_note_inclusion(NoteCommitment(leaf0), full, block.hash) == VERIFIED


class TestDeepReorgAgainstHonestRelay:
    def test_prefix_unchanged_when_attacker_branch_unrelayed(self):
        # the chain itself reorgs deeper than k, but the relay only ever saw
        # honest headers from the original main chain: its finalized prefix
        # is untouched
        chain, relay = relayed_chain(k=2)
        feed_main(chain, relay, 6)
        finalized = dict(relay.finalized)
        assert finalized  # something is final
        fork_from = chain.main[1]
        tip = fork_from
        for _ in range(8):
            tip = chain.mine_block(parent_hash=tip, txs=[]).hash
        assert chain.reorg_to(tip).new_tip == tip  # depth-5 reorg on chain
        assert relay.finalized == finalized
        assert relay.metrics.finality_flips == 0

    def test_flip_is_flagged_when_attacker_branch_is_relayed(self):
        chain, relay = relayed_chain(k=2)
        feed_main(chain, relay, 6)
        fork_from = chain.main[1]
        tip = fork_from
        side = []
        for _ in range(8):
            tip = chain.mine_block(parent_hash=tip, txs=[]).hash
            side.append(chain.blocks[tip].header)
        for header in side:
            relay.submit_header(header)
        assert relay.metrics.finality_flips >= 1  # detected, never silent


class TestEclipseProofForgery:
    def test_attacker_branch_proof_verifies_under_relay_but_not_on_chain(self, rng):
        """With honest relayers muted the relay happily finalizes an
        attacker branch and verifies an inclusion proof for a commitment
        that the true chain never contained."""
        chain, relay = relayed_chain(k=2)
        feed_main(chain, relay, 1)
        fake_cm = NoteCommitment(rng_bytes(rng, 32))
        tree = CommitmentTree(depth=chain.pool.tree.depth)
        tree.append(fake_cm)
        forged_root = tree.root()
        parent = relay.headers[relay.best_tip]
        forged = BlockHeader(parent.height + 1, parent.hash, forged_root, 1, nonce=999)
        assert relay.submit_header(forged) == ACCEPTED
        tip = forged
        for i in range(3):
            tip = BlockHeader(tip.height + 1, tip.hash, forged_root, 1, nonce=1000 + i)
            relay.submit_header(tip)
        path = tree.path_at(0, 1)
        assert relay.verify_note_inclusion(fake_cm, path, forged.hash) == VERIFIED
        # ground truth: the commitment is not in the real chain
        assert not chain.pool.knows_commitment(fake_cm)


def ancestry_final(relay):
    """Oracle for is_final: walk the parents down from the best tip; a block
    is final iff the walk meets it at depth >= k."""
    tip_height = relay.headers[relay.best_tip].height
    final, cursor = set(), relay.best_tip
    while cursor in relay.headers:
        header = relay.headers[cursor]
        if tip_height - header.height >= relay.k:
            final.add(cursor)
        cursor = header.parent
    return final


class TestFinalityAgainstAncestryOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4))
    def test_forks_and_eclipses(self, rng, k):
        """An honest chain whose relayers are muted and unmuted at random, a
        private attacker branch released whole or in scrambled order, random
        side forks and resubmissions: after every step each stored header is
        final exactly when the oracle says so."""
        genesis = BlockHeader(0, b"\x00" * 32, b"\x00" * 32, 1)
        relay = Relay(genesis, finality_depth=k, tree_depth=8)
        nonces = iter(range(1, 10**6))

        def child(parent):
            return BlockHeader(parent.height + 1, parent.hash, b"\x00" * 32, 1,
                               nonce=next(nonces))

        honest, backlog, private, muted = [genesis], [], [], False
        tip_height = 0
        for _ in range(80):
            action = rng.choice(["mine", "mine", "mine", "attack", "attack", "release",
                                 "mute", "fork", "resubmit"])
            if action == "mine":
                honest.append(child(honest[-1]))
                backlog.append(honest[-1])
            elif action == "attack":
                if not private or rng.random() < 0.2:  # a fresh fork below the honest tip
                    private = [rng.choice(honest[-2 * k - 2:])]
                private.append(child(private[-1]))
            elif action == "release":
                released = private[1:]
                if rng.random() < 0.5:
                    rng.shuffle(released)  # out of order: some are unknown-parent at first
                for header in released:
                    relay.submit_header(header)
            elif action == "mute":
                muted = not muted
            elif action == "fork":
                relay.submit_header(child(relay.headers[rng.choice(list(relay.headers))]))
            else:
                stored = relay.headers[rng.choice(list(relay.headers))]
                assert relay.submit_header(stored) == ACCEPTED
            if not muted:
                for header in backlog:
                    relay.submit_header(header)
                backlog = []
            # is_final's single lookup rests on these two facts
            tip = relay.headers[relay.best_tip]
            assert tip.height >= tip_height
            tip_height = tip.height
            assert all(height <= tip.height - k for height in relay.finalized)
            final = ancestry_final(relay)
            for block_hash in relay.headers:
                assert relay.is_final(block_hash) == (block_hash in final)
            assert not relay.is_final(child(tip).hash)  # never submitted

    @pytest.mark.parametrize("k", [3, 24, 40])
    def test_checkpoint_above_genesis(self, k):
        """A light client's checkpoint at height 30: nothing below it is
        known, and it and its descendants become final at depth k."""
        checkpoint = BlockHeader(30, digest(b"test-parent"), digest(b"test-root"), 1)
        relay = Relay(checkpoint, finality_depth=k, tree_depth=8)
        assert relay.finalized == {}
        tip = checkpoint
        for _ in range(50):
            tip = BlockHeader(tip.height + 1, tip.hash, tip.tree_root, 1)
            assert relay.submit_header(tip) == ACCEPTED
            final = ancestry_final(relay)
            for block_hash in relay.headers:
                assert relay.is_final(block_hash) == (block_hash in final)
            assert relay.is_final(checkpoint.hash) == (tip.height >= 30 + k)
        assert relay.metrics.finality_flips == 0
