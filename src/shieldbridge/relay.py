"""Issuing-chain-resident view of the Zcash chain.

The relay stores block headers submitted by relayers, tracks the heaviest
tip, and treats a block as final once it sits at depth k under that tip.
Like the chain it follows, it counts work 1 per block, so a header that
declares any other work is invalid and the heaviest tip is the longest.
Inclusion proofs for note commitments are only ever verified against final
blocks. The relay deliberately has no notion of the nullifier set.

Because the relay believes whatever headers it is fed, a muted set of
honest relayers (an eclipsed relay) can be driven onto an attacker branch;
the finality log below is what lets a simulation detect and flag exactly
that condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .notes import NoteCommitment
from .zcash_chain import BlockHeader, MerklePath, Rejection, fold_path

DEFAULT_FINALITY_DEPTH = 24

ACCEPTED = "accepted"
VERIFIED = "verified"


@dataclass
class RelayMetrics:
    tip_switches: int = 0
    finality_flips: int = 0


class Relay:
    """Header store with depth-k finality signalling.

    Initialized from a trusted checkpoint header (normally the simulated
    chain's genesis), like a light client.
    """

    def __init__(self, checkpoint: BlockHeader, finality_depth: int = DEFAULT_FINALITY_DEPTH):
        self.k = finality_depth
        self.headers: dict[bytes, BlockHeader] = {checkpoint.hash: checkpoint}
        self.cum_work: dict[bytes, int] = {checkpoint.hash: checkpoint.work}
        self.best_tip: bytes = checkpoint.hash
        self.finalized: dict[int, bytes] = {}
        self.metrics = RelayMetrics()
        self._advance_finality()

    # -- header acceptance --

    def submit_header(self, header: BlockHeader):
        if header.hash in self.headers:
            return ACCEPTED  # idempotent resubmission
        parent = self.headers.get(header.parent)
        if parent is None:
            return Rejection("unknown-parent")
        if header.height != parent.height + 1 or header.work != 1:
            return Rejection("invalid-header")
        self.headers[header.hash] = header
        self.cum_work[header.hash] = self.cum_work[header.parent] + header.work
        if self.cum_work[header.hash] > self.cum_work[self.best_tip]:
            if header.parent != self.best_tip:
                self.metrics.tip_switches += 1
            self.best_tip = header.hash
            self._advance_finality()
        return ACCEPTED

    def _advance_finality(self) -> None:
        """Record the ancestors of the new tip that cleared depth k; flag a
        finality flip whenever an already-final height changes hash.

        Walks downward from the newly finalized height and stops at the
        first height whose recorded hash already matches, since ancestor
        chains coincide from there on. Amortized O(k) per tip change."""
        tip = self.headers[self.best_tip]
        final_max = tip.height - self.k
        if final_max < 0:
            return
        cursor = tip
        while cursor.height > final_max:
            cursor = self.headers[cursor.parent]
        while True:
            previous = self.finalized.get(cursor.height)
            if previous == cursor.hash:
                break
            if previous is not None:
                self.metrics.finality_flips += 1
            self.finalized[cursor.height] = cursor.hash
            if cursor.parent not in self.headers:
                break
            cursor = self.headers[cursor.parent]

    # -- finality queries --

    def depth_of(self, block_hash: bytes) -> int:
        header = self.headers.get(block_hash)
        if header is None:
            return -1
        return self.headers[self.best_tip].height - header.height

    def is_final(self, block_hash: bytes) -> bool:
        """True iff the block is an ancestor of the best tip at depth >= k.

        The finalized log holds exactly the best tip's ancestors at depths
        >= k, so the ancestry test is a single lookup."""
        header = self.headers.get(block_hash)
        if header is None:
            return False
        if self.headers[self.best_tip].height - header.height < self.k:
            return False
        return self.finalized.get(header.height) == block_hash

    # -- note inclusion --

    def verify_note_inclusion(self, cm: NoteCommitment, path: MerklePath,
                              block_hash: bytes):
        if not self.is_final(block_hash):
            return Rejection("not-final")
        if fold_path(cm.digest, path) != self.headers[block_hash].tree_root:
            return Rejection("bad-path")
        return VERIFIED
