"""Simulated issuing chain: the wrapped-ZEC shielded pool, Mint and Burn
transfers with their simulated zero-knowledge statements, and the
transparent ledger for the native currency i.

Mint and Burn transfers are (statement, witness) pairs. The validator
consumes the witness (note plaintexts, amounts); the public record of a
transfer contains only commitments, ciphertexts, nullifiers and references,
never an amount. Mint and burn transactions stay pending until the
counterparty confirms, times out, or successfully challenges; exactly one
terminal transition happens per pending transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .notes import Note, NoteCiphertext, NoteCommitment, commit_note, derive_rcm, digest
from .zcash_chain import MerklePath, Rejection, ShieldedPool, ShieldedTx


class LedgerError(ValueError):
    pass


def post_fee_amount(amount: int, fee: Fraction) -> int:
    """Amount remaining after the protocol fee, rounded down.

    Flooring ensures a mint never creates more than the locked value backs
    and a release never exceeds what the burn paid for.
    """
    scaled = (1 - fee) * amount
    return scaled.numerator // scaled.denominator


# --- transparent i ledger -------------------------------------------------------

LIQUIDATION_POOL = "liquidation.pool"  # no scenario actor: actor names have no dot


class TransparentLedger:
    """All accounting of the native currency i in one place: free balances,
    locked vault collateral and per-request warranty locks. Liquidated
    collateral goes to the `LIQUIDATION_POOL` account. The total is
    invariant across every operation except initial deposits."""

    def __init__(self):
        self.balances: dict[str, int] = {}
        self.collateral: dict[str, int] = {}
        self.warranties: dict[str, tuple[str, int]] = {}

    def deposit(self, account: str, amount: int) -> None:
        if amount < 0:
            raise LedgerError("negative deposit")
        self.balances[account] = self.balances.get(account, 0) + amount

    def balance(self, account: str) -> int:
        return self.balances.get(account, 0)

    def total(self) -> int:
        return (sum(self.balances.values()) + sum(self.collateral.values())
                + sum(a for _, a in self.warranties.values()))

    def _debit(self, account: str, amount: int) -> Optional[Rejection]:
        if self.balances.get(account, 0) < amount:
            return Rejection("insufficient-i")
        self.balances[account] -= amount
        return None

    def lock_collateral(self, vault: str, amount: int) -> Optional[Rejection]:
        rej = self._debit(vault, amount)
        if rej is not None:
            return rej
        self.collateral[vault] = self.collateral.get(vault, 0) + amount
        return None

    def collateral_of(self, vault: str) -> int:
        return self.collateral.get(vault, 0)

    def lock_warranty(self, request_id: str, owner: str, amount: int) -> Optional[Rejection]:
        if request_id in self.warranties:
            raise LedgerError(f"warranty already locked for {request_id}")
        rej = self._debit(owner, amount)
        if rej is not None:
            return rej
        self.warranties[request_id] = (owner, amount)
        return None

    def _take_warranty(self, request_id: str) -> tuple[str, int]:
        if request_id not in self.warranties:
            raise LedgerError(f"no warranty locked for {request_id}")
        return self.warranties.pop(request_id)

    def return_warranty(self, request_id: str) -> None:
        owner, amount = self._take_warranty(request_id)
        self.deposit(owner, amount)

    def forfeit_warranty(self, request_id: str, recipient: str) -> int:
        """The locked warranty goes to the counterparty (requester misbehaved)."""
        _, amount = self._take_warranty(request_id)
        self.deposit(recipient, amount)
        return amount

    def slash_collateral(self, vault: str, amount: int, recipient: str) -> int:
        """Deduct up to `amount` from the vault's collateral in favour of a
        counterparty (protocol-timeout compensation) or of the liquidation
        pool."""
        held = self.collateral.get(vault, 0)
        taken = min(held, amount)
        self.collateral[vault] = held - taken
        self.deposit(recipient, taken)
        return taken


# --- transfer statements --------------------------------------------------------


@dataclass(frozen=True)
class MintStatement:
    """Public claims of a mint: the lock note exists on the backing chain in
    a final block, its trapdoor was derived from the permit nonce, the
    minted value is the locked value less the fee, and the locked value
    respects the per-request cap. Amounts themselves stay private."""

    lock_cm: NoteCommitment
    wzec_cm: NoteCommitment
    permit_id: str
    inclusion_block: bytes
    inclusion_path: MerklePath

    def public_view(self) -> dict:
        return {
            "kind": "mint",
            "lock_cm": self.lock_cm.hex(),
            "wzec_cm": self.wzec_cm.hex(),
            "permit": self.permit_id,
            "block": self.inclusion_block.hex(),
        }


@dataclass(frozen=True)
class MintWitness:
    lock_note: Note
    wzec_note: Note
    permit_nonce: bytes


@dataclass(frozen=True)
class MintTransfer:
    statement: MintStatement
    witness: MintWitness


@dataclass(frozen=True)
class BurnStatement:
    """Public claims of a burn: the escrowed amount equals the spent value,
    the desired release note has the published commitment, and the release
    value is the burned value less the fee, within the cap. The note
    ciphertext transmits the release note's plaintext to the vault."""

    release_cm: NoteCommitment
    ciphertext: NoteCiphertext

    def public_view(self, spend_tx: ShieldedTx) -> dict:
        # nullifiers and change commitments are public; the escrowed value
        # (spent minus change) is part of the witness and must not appear
        return {
            "kind": "burn",
            "release_cm": self.release_cm.hex(),
            "ciphertext": self.ciphertext.payload.hex(),
            "nullifiers": [s.nullifier.hex() for s in spend_tx.spends],
            "change_cms": [o.cm.hex() for o in spend_tx.outputs],
        }


@dataclass(frozen=True)
class BurnWitness:
    release_note: Note
    burn_amount: int
    spend_tx: ShieldedTx  # spends redeemer wZEC; fee field carries the escrow


@dataclass(frozen=True)
class BurnTransfer:
    statement: BurnStatement
    witness: BurnWitness


PENDING, CONFIRMED, VOIDED = "pending", "confirmed", "voided"


@dataclass
class PendingTx:
    txid: str
    kind: str  # "mint" | "burn"
    status: str
    transfer: Union[MintTransfer, BurnTransfer]
    escrow: int = 0  # wZEC held back while a burn is pending


# --- the chain -------------------------------------------------------------------


class IssuingChain:
    """wZEC pool plus verification and lifecycle of Mint/Burn transfers.

    Needs the relay to verify lock-note inclusion, the protocol fee, and
    the per-request cap. Pending transactions are finalized by the protocol
    layer, exactly once each. Transactions apply immediately in submission
    order; there is no issuing-chain mempool.
    """

    def __init__(self, relay, fee: Fraction, v_max: int, tree_depth: int = 16):
        self.relay = relay
        self.fee = Fraction(fee)
        self.v_max = v_max
        self.pool = ShieldedPool(tree_depth)
        self.i_ledger = TransparentLedger()
        self.pending: dict[str, PendingTx] = {}
        self.used_lock_cms: set[bytes] = set()
        self.used_permit_nonces: set[bytes] = set()
        self.minted_total = 0
        self.burned_total = 0
        self.public_log: list[dict] = []
        self._live_notes: dict[bytes, Note] = {}  # witness store: unspent wZEC

    # -- supply --

    @property
    def supply(self) -> int:
        """Circulating wZEC: confirmed mints minus confirmed burns."""
        return self.minted_total - self.burned_total

    def pool_value(self) -> int:
        """Independent accounting of the same quantity: live note values plus
        pending burn escrow. Tests assert it always equals `supply`."""
        live = sum(note.value for note in self._live_notes.values())
        escrow = sum(p.escrow for p in self.pending.values() if p.status == PENDING)
        return live + escrow

    def _credit_note(self, note: Note) -> None:
        cm = commit_note(note)
        self.pool.append(cm)
        self._live_notes[cm.digest] = note

    def _apply_pool_tx(self, tx: ShieldedTx) -> None:
        self.pool.apply_tx(tx)
        for spend in tx.spends:
            self._live_notes.pop(commit_note(spend.witness.note).digest, None)
        for out in tx.outputs:
            self._live_notes[out.cm.digest] = out.note_witness

    # -- mint --

    def submit_mint_tx(self, transfer: MintTransfer, permit_nonce: bytes):
        st, wit = transfer.statement, transfer.witness
        if st.lock_cm.digest in self.used_lock_cms:
            return Rejection("lock-cm-replayed")
        if permit_nonce in self.used_permit_nonces:
            return Rejection("permit-nonce-replayed")
        if wit.permit_nonce != permit_nonce:
            return Rejection("statement-failed:nonce-mismatch")
        if commit_note(wit.lock_note) != st.lock_cm:
            return Rejection("statement-failed:lock-note")
        if wit.lock_note.rcm != derive_rcm(permit_nonce):
            return Rejection("statement-failed:rcm-not-derived")
        if wit.lock_note.value > self.v_max:
            return Rejection("statement-failed:v-max")
        if commit_note(wit.wzec_note) != st.wzec_cm:
            return Rejection("statement-failed:wzec-note")
        if wit.wzec_note.value != post_fee_amount(wit.lock_note.value, self.fee):
            return Rejection("statement-failed:value-relation")
        verdict = self.relay.verify_note_inclusion(st.lock_cm, st.inclusion_path,
                                                   st.inclusion_block)
        if isinstance(verdict, Rejection):
            return Rejection(f"inclusion:{verdict.reason}")

        self.used_lock_cms.add(st.lock_cm.digest)
        self.used_permit_nonces.add(permit_nonce)
        txid = f"I-mint-{len(self.pending) + 1}"
        tx = PendingTx(txid, "mint", PENDING, transfer)
        self.pending[txid] = tx
        self.public_log.append({"txid": txid, **st.public_view(), "status": PENDING})
        return tx

    # -- burn --

    def submit_burn_tx(self, transfer: BurnTransfer):
        st, wit = transfer.statement, transfer.witness
        if wit.burn_amount > self.v_max:
            return Rejection("statement-failed:v-max")
        if commit_note(wit.release_note) != st.release_cm:
            return Rejection("statement-failed:release-note")
        if wit.release_note.value != post_fee_amount(wit.burn_amount, self.fee):
            return Rejection("statement-failed:value-relation")
        if wit.spend_tx.fee != wit.burn_amount:
            return Rejection("statement-failed:escrow-balance")
        rej = self.pool.validate_tx(wit.spend_tx, set())
        if rej is not None:
            return Rejection(f"insufficient-wzec:{rej.reason}")
        self._apply_pool_tx(wit.spend_tx)

        txid = f"I-burn-{len(self.pending) + 1}"
        tx = PendingTx(txid, "burn", PENDING, transfer, escrow=wit.burn_amount)
        self.pending[txid] = tx
        self.public_log.append({"txid": txid, **st.public_view(wit.spend_tx),
                                "status": PENDING})
        return tx

    # -- lifecycle --

    def finalize_tx(self, txid: str, outcome: str) -> Optional[Note]:
        """Terminal transition of a pending tx. Returns the note credited to
        the pool, if any (the minted note, or a burn-void refund)."""
        tx = self.pending.get(txid)
        if tx is None or tx.status != PENDING:
            raise LedgerError(f"finalize on non-pending tx {txid}")
        if outcome not in (CONFIRMED, VOIDED):
            raise LedgerError(f"bad outcome {outcome}")
        transfer = tx.transfer
        credited: Optional[Note] = None
        if tx.kind == "mint":
            if outcome == CONFIRMED:
                credited = transfer.witness.wzec_note
                self._credit_note(credited)
                self.minted_total += credited.value
        else:
            if outcome == CONFIRMED:
                self.burned_total += tx.escrow
            else:
                credited = self._refund_note(txid, transfer)
                self._credit_note(credited)
        tx.status = outcome
        self.public_log.append({"txid": txid, "status": outcome})
        return credited

    @staticmethod
    def _refund_note(txid: str, transfer: BurnTransfer) -> Note:
        """Escrow returned on a voided burn: a fresh note of the escrowed
        value back to the owner of the first spent note."""
        owner_address = transfer.witness.spend_tx.spends[0].witness.note.address
        return Note(owner_address, transfer.witness.burn_amount,
                    digest(b"burn-refund", txid.encode()))

    # -- ordinary pool transfers --

    def wzec_transfer(self, tx: ShieldedTx):
        """Plain shielded movement inside the wZEC pool; supply unchanged."""
        if tx.fee != 0:
            return Rejection("nonzero-fee")
        rej = self.pool.validate_tx(tx, set())
        if rej is not None:
            return rej
        self._apply_pool_tx(tx)
        self.public_log.append(tx.public_view())
        return tx.txid()
