"""Simulated Zcash-side ledger.

Blocks carry shielded transactions; every output's note commitment goes
into an append-only Merkle tree whose root is committed in the header, and
every spend reveals a nullifier that may appear at most once per branch.
Mining is discrete (work 1 per block, longest chain wins) and adversarial
side branches plus reorgs are first-class so relay-poisoning scenarios can
be scripted.

Transactions are (statement, witness) pairs: the witness (source notes,
nullifier keys, values) is consumed by the validator, while the public view
contains only nullifiers, commitments, ciphertexts and the fee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import repeat
from typing import Callable, Optional

from .notes import (
    Address,
    Note,
    NoteCiphertext,
    NoteCommitment,
    Nullifier,
    commit_note,
    derive_nullifier,
    digest,
    encode_int,
    rng_bytes,
    ZERO32,
)

DEFAULT_TREE_DEPTH = 16
DEFAULT_FEE = 1000  # 0.00001 ZEC in base units


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class Rejection:
    reason: str

    def __bool__(self):
        return False


# --- commitment tree ----------------------------------------------------------


@cache
def empty_roots(depth: int) -> list[bytes]:
    """Roots of the empty subtrees of height 0..depth, computed on first use."""
    roots = [digest(b"empty-leaf")]
    for level in range(depth):
        roots.append(digest(b"tree-node", roots[level], roots[level]))
    return roots


@dataclass(frozen=True)
class MerklePath:
    position: int
    siblings: tuple[bytes, ...]


def fold_path(leaf: bytes, path: MerklePath) -> bytes:
    """Recompute the root implied by a leaf and its sibling path."""
    node = leaf
    pos = path.position
    for sibling in path.siblings:
        if pos & 1:
            node = digest(b"tree-node", sibling, node)
        else:
            node = digest(b"tree-node", node, sibling)
        pos >>= 1
    return node


class CommitmentTree:
    """Append-only Merkle tree over note commitments.

    Roots and paths can be computed for any historical prefix of the leaf
    sequence, which is what anchors inclusion proofs to the block that the
    prover cites.
    """

    def __init__(self, depth: int = DEFAULT_TREE_DEPTH):
        self.depth = depth
        self.leaves: list[bytes] = []
        self._empties = empty_roots(depth)
        self._root_cache: dict[int, bytes] = {}

    def __len__(self):
        return len(self.leaves)

    def append(self, cm: NoteCommitment) -> int:
        if len(self.leaves) >= 2**self.depth:
            raise ChainError("commitment tree full")
        self.leaves.append(cm.digest)
        return len(self.leaves) - 1

    def truncate(self, size: int) -> None:
        del self.leaves[size:]
        self._root_cache = {n: r for n, r in self._root_cache.items() if n <= size}

    def _node(self, level: int, start: int, size: int) -> bytes:
        """Root of the subtree of height `level` starting at leaf `start`,
        considering only the first `size` leaves.

        Hashed bottom-up, one row per level: a row of odd length is padded
        with the empty subtree of its level before pairing, so level `lv`
        hashes ceil(n / 2**lv) nodes for the subtree's n present leaves, and
        a subtree with no present leaf is the empty one of its height. Once
        a row is one node, it is hashed with each level's empty subtree up
        to `level`.

        Invariant: the calls are the recursive definition's nodes (the
        tests' `RecursiveTree`), with the same arguments, made row by row
        and left to right within a row. The `digest` memo's hit rate
        depends on that order, so a faster loop must keep both the calls
        and their order. `digest` is read off the module for every row and
        every single-node step, so a counter bound in its place sees each
        node."""
        row = self.leaves[start:min(size, start + (1 << level))]
        if not row:
            return self._empties[level]
        lv = 0
        while len(row) > 1:
            if len(row) & 1:
                row.append(self._empties[lv])
            pairs = iter(row)
            row = list(map(digest, repeat(b"tree-node"), pairs, pairs))
            lv += 1
        node = row[0]
        for empty in self._empties[lv:level]:
            node = digest(b"tree-node", node, empty)
        return node

    def root_at(self, size: int) -> bytes:
        if size > len(self.leaves):
            raise ChainError("prefix larger than tree")
        if size not in self._root_cache:
            self._root_cache[size] = self._node(self.depth, 0, size)
        return self._root_cache[size]

    def root(self) -> bytes:
        return self.root_at(len(self.leaves))

    def path_at(self, position: int, size: int) -> MerklePath:
        """Sibling path for a leaf within the tree state after `size` leaves."""
        if size > len(self.leaves):
            raise ChainError("prefix larger than tree")
        if position >= size:
            raise ChainError("leaf not present in the cited tree state")
        siblings = []
        index = position
        for level in range(self.depth):
            sibling_start = (index ^ 1) << level
            siblings.append(self._node(level, sibling_start, size))
            index >>= 1
        return MerklePath(position, tuple(siblings))


# --- transactions -------------------------------------------------------------


@dataclass(frozen=True)
class SpendWitness:
    note: Note
    nullifier_key: bytes


@dataclass(frozen=True)
class SpendDescription:
    nullifier: Nullifier
    witness: SpendWitness


@dataclass(frozen=True)
class OutputDescription:
    cm: NoteCommitment
    ciphertext: NoteCiphertext
    note_witness: Note


@dataclass(frozen=True)
class ShieldedTx:
    spends: tuple[SpendDescription, ...]
    outputs: tuple[OutputDescription, ...]
    fee: int

    def balances(self) -> bool:
        """Spent value equals created value plus the fee."""
        return sum(s.witness.note.value for s in self.spends) == (
            sum(o.note_witness.value for o in self.outputs) + self.fee)

    def txid(self) -> str:
        parts = [s.nullifier.digest for s in self.spends]
        parts += [o.cm.digest for o in self.outputs]
        parts.append(encode_int(self.fee))
        return digest(b"txid", *parts).hex()

    def public_view(self) -> dict:
        """Observer-visible statement: no values, no witnesses."""
        return {
            "txid": self.txid(),
            "nullifiers": [s.nullifier.hex() for s in self.spends],
            "commitments": [o.cm.hex() for o in self.outputs],
            "fee": self.fee,
        }


class ShieldedPool:
    """Validation state shared by any shielded value pool: the commitment
    tree plus the nullifier set, with per-application deltas for rollback.

    `leaf_index` maps each commitment to its first position in the tree.
    Any occurrence inside a cited prefix gives a valid path, and with the
    first one kept a truncation can only drop entries, never uncover an
    older one."""

    def __init__(self, depth: int = DEFAULT_TREE_DEPTH):
        self.tree = CommitmentTree(depth)
        self.leaf_index: dict[bytes, int] = {}
        self.nullifiers: set[bytes] = set()

    def append(self, cm: NoteCommitment) -> None:
        self.leaf_index.setdefault(cm.digest, self.tree.append(cm))

    def knows_commitment(self, cm: NoteCommitment) -> bool:
        return cm.digest in self.leaf_index

    def validate_tx(self, tx: ShieldedTx, extra_nullifiers: set[bytes] = frozenset(),
                    allow_unbacked: bool = False,
                    extra_commitments: set[bytes] = frozenset()) -> Optional[Rejection]:
        """None when tx may join a block on this pool. `extra_nullifiers`
        are spent and `extra_commitments` exist beside the pool's: the
        spends and outputs of txs queued ahead of this one."""
        seen = set()
        for spend in tx.spends:
            expected = derive_nullifier(spend.witness.note, spend.witness.nullifier_key)
            if expected != spend.nullifier:
                return Rejection("nullifier-mismatch")
            nf = spend.nullifier.digest
            if nf in seen or nf in self.nullifiers or nf in extra_nullifiers:
                return Rejection("double-spend")
            seen.add(nf)
            cm = commit_note(spend.witness.note).digest
            if cm not in self.leaf_index and cm not in extra_commitments:
                return Rejection("unknown-note")
        for out in tx.outputs:
            if commit_note(out.note_witness) != out.cm:
                return Rejection("commitment-mismatch")
        if not tx.balances():
            if not (allow_unbacked and not tx.spends):
                return Rejection("value-imbalance")
        return None

    def apply_tx(self, tx: ShieldedTx) -> None:
        for spend in tx.spends:
            self.nullifiers.add(spend.nullifier.digest)
        for out in tx.outputs:
            self.append(out.cm)

    def unapply_leaves(self, size: int, removed_nullifiers: set[bytes]) -> None:
        for cm in self.tree.leaves[size:]:
            if self.leaf_index.get(cm, -1) >= size:
                del self.leaf_index[cm]
        self.tree.truncate(size)
        self.nullifiers -= removed_nullifiers


# --- blocks and chain ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """A Zcash block header as the relay stores it.

    The digest's input (height, work and nonce through `encode_int`, with
    the parent and tree root) is built once, at construction, into
    `_parts`, so relaying a header never re-encodes it; an out-of-range
    field raises `NoteError` at construction. `hash` still calls `digest`
    on every access, and the memo answers the repeats."""

    height: int
    parent: bytes
    tree_root: bytes
    work: int
    nonce: int = 0  # miner entropy; keeps equal-content blocks distinct
    _parts: tuple[bytes, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_parts", (
            encode_int(self.height), self.parent, self.tree_root,
            encode_int(self.work), encode_int(self.nonce)))

    @property
    def hash(self) -> bytes:
        return digest(b"block-header", *self._parts)


@dataclass(slots=True)
class Block:
    header: BlockHeader
    txs: list[ShieldedTx]
    leaf_count: int  # tree size after this block, on its own branch

    @property
    def new_nullifiers(self) -> set[bytes]:
        return {s.nullifier.digest for tx in self.txs for s in tx.spends}

    @property
    def cum_work(self) -> int:  # work 1 per block; read by perfbench's chain_reorg
        return self.header.height + 1


@dataclass(frozen=True)
class ReorgReport:
    new_tip: bytes
    fork_height: int
    orphaned_txids: tuple[str, ...]


class ChainState:
    """One simulated proof-of-work chain of shielded blocks.

    There is a single main chain whose pool state (tree, nullifiers) is
    materialized; side branches store blocks only and get materialized on
    reorg. Genesis outputs may create value from nothing, which is how
    scenarios seed wallets.
    """

    def __init__(self, depth: int = DEFAULT_TREE_DEPTH, fee: int = DEFAULT_FEE):
        self.fee = fee
        self.pool = ShieldedPool(depth)
        self.blocks: dict[bytes, Block] = {}
        self.main: list[bytes] = []
        self.mempool: list[ShieldedTx] = []
        self._listeners: list[Callable[[Block], None]] = []
        genesis_header = BlockHeader(0, ZERO32, self.pool.tree.root(), 1)
        genesis = Block(genesis_header, [], 0)
        self.blocks[genesis_header.hash] = genesis
        self.main.append(genesis_header.hash)

    # -- queries --

    @property
    def tip(self) -> Block:
        return self.blocks[self.main[-1]]

    @property
    def height(self) -> int:
        return self.tip.header.height

    def on_block(self, callback: Callable[[Block], None]) -> None:
        self._listeners.append(callback)

    def main_work(self) -> int:  # read by perfbench's chain_reorg
        return self.tip.cum_work

    def block_on_main(self, block_hash: bytes) -> bool:
        block = self.blocks.get(block_hash)
        if block is None:
            return False
        h = block.header.height
        return h < len(self.main) and self.main[h] == block_hash

    def side_branch(self, tip_hash: bytes) -> tuple[int, list[bytes]]:
        """(fork height, the branch's off-main block hashes oldest first)
        for the branch ending at `tip_hash`."""
        side = []
        cursor = tip_hash
        while not self.block_on_main(cursor):
            side.append(cursor)
            cursor = self.blocks[cursor].header.parent
        side.reverse()
        return self.blocks[cursor].header.height, side

    # -- transactions --

    def submit_shielded_tx(self, tx: ShieldedTx, allow_unbacked: bool = False):
        """Queue a transaction for the next honest block; nullifiers are
        reserved immediately so a conflicting spend cannot enter the pool."""
        queued = {s.nullifier.digest for q in self.mempool for s in q.spends}
        rej = self.pool.validate_tx(tx, queued, allow_unbacked)
        if rej is not None:
            return rej
        self.mempool.append(tx)
        return tx.txid()

    # -- mining --

    def mine_block(self, parent_hash: Optional[bytes] = None,
                   txs: Optional[list[ShieldedTx]] = None) -> BlockHeader:
        """Append one block. On the main tip the mempool is drained, or an
        explicit body that breaks the ledger (see _invalid_body) raises
        ChainError; on a side branch the caller supplies the (possibly
        empty) body, and reorg_to checks it."""
        parent_hash = parent_hash if parent_hash is not None else self.main[-1]
        if parent_hash not in self.blocks:
            raise ChainError("unknown parent")
        parent = self.blocks[parent_hash]
        on_main_tip = parent_hash == self.main[-1]

        if on_main_tip and txs is None:
            txs = self.mempool
            self.mempool = []
        elif on_main_tip and self._invalid_body(txs, self.pool.nullifiers):
            raise ChainError("block body reuses a nullifier or does not balance")
        txs = txs or []

        if on_main_tip:
            for tx in txs:
                self.pool.apply_tx(tx)
            leaf_count = len(self.pool.tree)
            root = self.pool.tree.root_at(leaf_count)
        elif not txs:
            # empty side block: tree state is exactly the parent's
            leaf_count = parent.leaf_count
            root = parent.header.tree_root
        else:
            # side branch with a body: materialize the branch's leaves
            branch_leaves = self._branch_leaves(parent_hash)
            for tx in txs:
                branch_leaves.extend(out.cm.digest for out in tx.outputs)
            leaf_count = len(branch_leaves)
            root = self._root_of(branch_leaves)

        # one block per mine_block, so the block count numbers the mines
        header = BlockHeader(parent.header.height + 1, parent_hash, root, 1,
                             nonce=len(self.blocks))
        block = Block(header, list(txs), leaf_count)
        self.blocks[header.hash] = block
        if on_main_tip:
            self.main.append(header.hash)
            for listener in self._listeners:
                listener(block)
        return header

    @staticmethod
    def _invalid_body(txs: list[ShieldedTx], spent: set[bytes]) -> bool:
        """True when a body would break its branch's ledger: a tx spends a
        nullifier in `spent` (the branch's spends before the body) or one
        spent earlier in the body, or a tx with spends does not balance.
        Output-only txs may create value: they are the model's coinbase.
        It reads stored digests and values only, so it hashes nothing."""
        seen = set()
        for tx in txs:
            if tx.spends and not tx.balances():
                return True
            for spend in tx.spends:
                nf = spend.nullifier.digest
                if nf in spent or nf in seen:
                    return True
                seen.add(nf)
        return False

    def _root_of(self, leaves: list[bytes]) -> bytes:
        scratch = CommitmentTree(self.pool.tree.depth)
        scratch.leaves = list(leaves)
        return scratch.root()

    def _branch_leaves(self, tip_hash: bytes) -> list[bytes]:
        """The branch's leaves: the main tree's up to the fork, then the side's."""
        fork_height, side = self.side_branch(tip_hash)
        fork_block = self.blocks[self.main[fork_height]]
        leaves = self.pool.tree.leaves[:fork_block.leaf_count]
        for bh in side:
            for tx in self.blocks[bh].txs:
                leaves.extend(out.cm.digest for out in tx.outputs)
        return leaves

    # -- reorg --

    def reorg_to(self, branch_tip: bytes):
        """Switch the main chain to a strictly heavier branch whose side
        blocks keep the ledger (see _invalid_body); an invalid branch is
        refused before any state changes."""
        if branch_tip not in self.blocks:
            return Rejection("unknown-branch")
        branch = self.blocks[branch_tip]
        if branch.header.height <= self.height:
            return Rejection("insufficient-work")
        fork_height, side = self.side_branch(branch_tip)

        orphaned = []
        removed_nfs: set[bytes] = set()
        for bh in self.main[fork_height + 1:]:
            block = self.blocks[bh]
            orphaned.extend(block.txs)
            removed_nfs |= block.new_nullifiers
        side_txs = [tx for bh in side for tx in self.blocks[bh].txs]
        if self._invalid_body(side_txs, self.pool.nullifiers - removed_nfs):
            return Rejection("invalid-branch")
        fork_block = self.blocks[self.main[fork_height]]
        self.pool.unapply_leaves(fork_block.leaf_count, removed_nfs)

        del self.main[fork_height + 1:]
        for bh in side:
            block = self.blocks[bh]
            for tx in block.txs:
                self.pool.apply_tx(tx)
            block.leaf_count = len(self.pool.tree)
            self.main.append(bh)
            for listener in self._listeners:
                listener(block)

        # transactions unique to the abandoned branch go back to the mempool,
        # each valid on the new pool after the ones requeued before it (so a
        # spend of a requeued tx's output stays); a queued tx loses its place
        # once the new branch spent its note, or once its note came from an
        # orphaned tx that stays out (a lost note)
        requeued, lost = [], set()
        queued_nfs, queued_cms = set(), set()
        for tx in orphaned:
            if self.pool.validate_tx(tx, queued_nfs, extra_commitments=queued_cms) is None:
                requeued.append(tx)
                queued_nfs.update(s.nullifier.digest for s in tx.spends)
                queued_cms.update(out.cm.digest for out in tx.outputs)
            else:
                lost.update(out.note_witness for out in tx.outputs
                            if out.cm.digest not in self.pool.leaf_index)
        spent = self.pool.nullifiers
        self.mempool = requeued + [
            tx for tx in self.mempool
            if not any(s.nullifier.digest in spent or s.witness.note in lost for s in tx.spends)]
        return ReorgReport(branch_tip, fork_height, tuple(tx.txid() for tx in orphaned))

    # -- inclusion proofs --

    def merkle_path(self, cm: NoteCommitment, block_hash: bytes):
        """Path from a commitment to the cited main-chain block's root."""
        if not self.block_on_main(block_hash):
            return Rejection("block-not-on-main")
        size = self.blocks[block_hash].leaf_count
        position = self.pool.leaf_index.get(cm.digest)
        if position is None or position >= size:
            return Rejection("not-found")
        return self.pool.tree.path_at(position, size)

    def replay_from_genesis(self) -> tuple[bytes, int, set[bytes]]:
        """Full independent replay of the main chain; used as a test oracle
        against the incrementally maintained state."""
        scratch = ShieldedPool(self.pool.tree.depth)
        for bh in self.main:
            for tx in self.blocks[bh].txs:
                scratch.apply_tx(tx)
        return scratch.tree.root(), len(scratch.tree), set(scratch.nullifiers)


# --- wallets -------------------------------------------------------------------


class Wallet:
    """Witness-side note tracking for one actor on one shielded pool.

    Given its pool's `leaf_index`, a wallet selects only the notes whose
    commitment the pool holds now, so a note whose tx a reorg orphaned
    waits until it is mined again."""

    def __init__(self, owner: str, address: Address, nullifier_key: bytes,
                 leaf_index: Optional[dict[bytes, int]] = None):
        self.owner = owner
        self.address = address
        self.nullifier_key = nullifier_key
        self.unspent: dict[bytes, Note] = {}  # keyed by commitment digest
        self.leaf_index = leaf_index

    def credit(self, note: Note) -> None:
        self.unspent[commit_note(note).digest] = note

    def balance(self) -> int:
        return sum(n.value for n in self.unspent.values())

    def select_notes(self, amount: int) -> list[Note]:
        picked, total = [], 0
        mined = [note for cm, note in self.unspent.items()
                 if self.leaf_index is None or cm in self.leaf_index]
        for note in sorted(mined, key=lambda n: (-n.value, n.rcm)):
            if total >= amount:
                break
            picked.append(note)
            total += note.value
        if total < amount:
            raise ChainError(f"{self.owner}: insufficient funds ({total} < {amount})")
        return picked

    def mark_spent(self, notes: list[Note]) -> None:
        for note in notes:
            self.unspent.pop(commit_note(note).digest, None)


def build_transfer(wallet: Wallet, payments: list[tuple[Address, int, bytes]],
                   fee: int, directory, rng) -> tuple[ShieldedTx, list[Note]]:
    """Spend from a wallet to a list of (address, value, rcm) outputs, with
    change back to the wallet. Returns the tx and the created notes in
    payment order (change note last when present)."""
    total_out = sum(v for _, v, _ in payments) + fee
    sources = wallet.select_notes(total_out)
    spends = tuple(
        SpendDescription(derive_nullifier(n, wallet.nullifier_key),
                         SpendWitness(n, wallet.nullifier_key))
        for n in sources
    )
    notes = [Note(addr, value, rcm) for addr, value, rcm in payments]
    change = sum(n.value for n in sources) - total_out
    if change > 0:
        notes.append(Note(wallet.address, change, rng_bytes(rng, 32)))
    outputs = tuple(OutputDescription(commit_note(note),
                                      directory.seal(note, note.address, rng), note)
                    for note in notes)
    return ShieldedTx(spends, outputs, fee), notes
