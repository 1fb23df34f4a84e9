"""Issue and Redeem state machines over the two simulated ledgers.

The engine owns every component (backing chain, relay, issuing chain,
oracle, vault registry) plus the actors' wallets, and exposes exactly the
protocol operations. A run has two records: `Engine.trace`, one row per
operation,

    tick, actor, op, request_id, state_before, state_after, outcome

which is the conformance contract for trace-grammar tests, and
`Engine.events`, one tuple per slash, upheld challenge, relay violation and
liquidation. The counts in `metrics.csv` and the events `tick()` returns
are read off these two. The honest relayers are a backing-chain listener
that forwards every block the main chain takes, a reorg's side blocks
included, until an eclipse mutes them. Deadline enforcement happens once
per tick, after actors had their chance to move: a missed mint deadline
forfeits the issuer's warranty, a silent vault has its pending mint
auto-confirmed (and pays the warranty from collateral), and a silent vault
on a redeem has the burn voided against it.

`LIFECYCLE` is the single source of the request state machine: one row per
request operation, actor ops and timeouts alike. The op guards, the close
of a request, the per-tick deadline pass and `conformance_errors` all read
it. Every closing row runs the same close step: free the vault slot, settle
the pending mint or burn, apply a confirm's effects, and charge the row's
`fault` party (the wronged-party rule). Actors query the engine through
`block_of` (the main-chain block that mined a commitment) and
`vault_note` (what a request's vault decrypts), and read per-request
state (lock note, transfer, deadlines) off `RequestRecord`.

Determinism contract: identical (config, seed) yields identical traces,
byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from random import Random
from typing import Optional, Union

from .issuing_chain import (
    CONFIRMED,
    PENDING,
    VOIDED,
    BurnStatement,
    BurnTransfer,
    BurnWitness,
    IssuingChain,
    MintStatement,
    MintTransfer,
    MintWitness,
    post_fee_amount,
)
from .notes import (
    CHALLENGE_UPHELD,
    Note,
    NoteCommitment,
    NoteError,
    SharedSecret,
    SharedSecretDirectory,
    commit_note,
    decrypt_note,
    derive_rcm,
    random_address,
    rng_bytes,
    verify_challenge,
)
from .oracle import RateFeed
from .relay import Relay
from .vault_registry import RegistryParams, VaultRegistry
from .zcash_chain import (
    ChainError,
    ChainState,
    OutputDescription,
    Rejection,
    ShieldedTx,
    Wallet,
    build_transfer,
)

# request states
ISSUE_START = "IssueStart"
AWAITING_MINT = "AwaitingMint"
AWAIT_ISSUE_CONFIRM = "AwaitIssueConfirm"
ISSUE_CHALLENGED = "IssueChallenged"
ISSUE_SUCCESS = "IssueSuccess"
REDEEM_START = "RedeemStart"
AWAIT_REDEEM_CONFIRM = "AwaitRedeemConfirm"
REDEEM_CHALLENGED = "RedeemChallenged"
REDEEM_SUCCESS = "RedeemSuccess"

OK = "ok"
SYSTEM = "system"  # the acting party of a timeout


class ProtocolError(RuntimeError):
    """Internal inconsistency: a protocol bug, not an actor mistake."""


# --- request lifecycle -----------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    op: str
    kind: str                        # "issue" | "redeem"
    party: str                       # RequestRecord field naming the actor, or SYSTEM
    before: str
    after: str
    deadline: Optional[str] = None   # RequestRecord field: actors act by it, timeouts fire after
    closes: Optional[str] = None     # close reason of an op that ends the request
    once: Optional[tuple[str, str]] = None  # (earlier op that rules this one out, reason)
    fault: Optional[str] = None      # the party a close makes pay: "requester" | "vault"


# Read as a grammar per request: a mint is confirmed, challenged or
# auto-confirmed on timeout, never more than one of them; a burn is
# challenged, confirmed, or voided on timeout. The wronged party is paid: a
# requester at fault forfeits the warranty to the vault, a vault at fault
# pays i_w of collateral to the requester. A confirm without a preceding
# release is legal exactly when an identical note commitment is already
# provably on chain, which is the documented proof-reuse carve-out for
# redeemers who repeat note values.
LIFECYCLE = {t.op: t for t in (
    Transition("requestLock", "issue", "requester", ISSUE_START, AWAITING_MINT),
    Transition("lock", "issue", "requester", AWAITING_MINT, AWAITING_MINT,
               once=("lock", "permit-used")),
    Transition("mint", "issue", "requester", AWAITING_MINT, AWAIT_ISSUE_CONFIRM,
               "deadline_mint"),
    Transition("confirmIssue", "issue", "vault_id", AWAIT_ISSUE_CONFIRM, ISSUE_SUCCESS,
               "deadline_confirm", "confirmed"),
    Transition("challengeIssue", "issue", "vault_id", AWAIT_ISSUE_CONFIRM,
               ISSUE_CHALLENGED, "deadline_confirm", "challenged", fault="requester"),
    Transition("mintTimeout", "issue", SYSTEM, AWAITING_MINT, AWAITING_MINT,
               "deadline_mint", "mint-timeout", fault="requester"),
    Transition("confirmIssueTimeout", "issue", SYSTEM, AWAIT_ISSUE_CONFIRM, ISSUE_SUCCESS,
               "deadline_confirm", "confirmed", fault="vault"),
    Transition("burn", "redeem", "requester", REDEEM_START, AWAIT_REDEEM_CONFIRM),
    Transition("release", "redeem", "vault_id", AWAIT_REDEEM_CONFIRM, AWAIT_REDEEM_CONFIRM,
               "deadline_confirm", once=("release", "already-released")),
    Transition("confirmRedeem", "redeem", "vault_id", AWAIT_REDEEM_CONFIRM, REDEEM_SUCCESS,
               "deadline_confirm", "confirmed"),
    Transition("challengeRedeem", "redeem", "vault_id", AWAIT_REDEEM_CONFIRM,
               REDEEM_CHALLENGED, "deadline_confirm", "challenged",
               once=("release", "already-released"), fault="requester"),
    Transition("confirmRedeemTimeout", "redeem", SYSTEM, AWAIT_REDEEM_CONFIRM,
               AWAIT_REDEEM_CONFIRM, "deadline_confirm", "redeem-timeout", fault="vault"),
)}
START = {"issue": ISSUE_START, "redeem": REDEEM_START}
TIMEOUTS = {(t.kind, t.before): t for t in LIFECYCLE.values() if t.party == SYSTEM}


def _event_name(op: str) -> str:
    """An op's event and a timeout's slash reason: mintTimeout -> mint-timeout."""
    return re.sub(r"([A-Z])", r"-\1", op).lower()


@dataclass
class ProtocolConfig:
    params: RegistryParams
    relay_k: int = 24
    delta_mint: int = 24
    delta_confirm_issue: int = 6
    delta_confirm_redeem: int = 24
    zc_fee: int = 1000
    tree_depth: int = 16

    def __post_init__(self):
        for name, low in (("relay_k", 1), ("delta_mint", 1), ("delta_confirm_issue", 1),
                          ("delta_confirm_redeem", 1), ("zc_fee", 0), ("tree_depth", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


@dataclass
class RequestRecord:
    request_id: str
    kind: str  # "issue" | "redeem"
    state: str
    requester: str
    vault_id: str
    permit_id: Optional[str] = None  # issue: the lock permit and its nonce,
    nonce: Optional[bytes] = None    # from which the lock trapdoor derives
    lock_note: Optional[Note] = None  # the note this request's lock paid the vault
    lock_cm: Optional[bytes] = None   # and its commitment's digest
    release_paid: Optional[tuple[bytes, int]] = None  # (cm digest, value) the release paid
    transfer: Optional[Union[MintTransfer, BurnTransfer]] = None  # the mint or the burn
    deadline_mint: Optional[int] = None
    deadline_confirm: Optional[int] = None
    pending_txid: Optional[str] = None
    close_reason: Optional[str] = None
    done: set = field(default_factory=set)  # ops performed, for the once-only rules

    @property
    def terminal(self) -> bool:
        return self.close_reason is not None

    @property
    def released(self) -> bool:
        return "release" in self.done


@dataclass
class ActorAccount:
    zcash: Wallet
    wzec: Wallet


class Engine:
    def __init__(self, config: ProtocolConfig, seed: int):
        self.config = config
        self.rng = Random(seed)
        self.directory = SharedSecretDirectory(rng_bytes(self.rng, 32))
        self.zcash = ChainState(depth=config.tree_depth, fee=config.zc_fee)
        self.relay = Relay(self.zcash.tip.header, finality_depth=config.relay_k,
                           tree_depth=config.tree_depth)
        self.oracle = RateFeed()
        self.issuing = IssuingChain(self.relay, config.params.f, config.params.v_max,
                                    tree_depth=config.tree_depth)
        self.registry = VaultRegistry(config.params, self.issuing.i_ledger, self.oracle)
        self.now = 0
        self.relayer_muted = False
        self.actors: dict[str, ActorAccount] = {}
        self.requests: dict[str, RequestRecord] = {}
        self.trace: list[tuple] = []
        self.events: list[tuple] = []  # (tick, kind, *details)
        self.supply_series: list[tuple[int, int]] = []
        self._counter = {"request": 0, "permit": 0}
        self._genesis_values: list[tuple[str, int]] = []
        self._started = False
        self._cm_block: dict[bytes, bytes] = {}      # mined cm -> block hash
        # cm -> the (wallet, note) pairs a party made for itself, filled by
        # `_expect`; `_scan_block` pops one entry per output and credits them
        self._expecting: dict[bytes, list[tuple[Wallet, Note]]] = {}
        self.zcash.on_block(self._scan_block)
        self.zcash.on_block(self._relay_block)

    # -- setup -----------------------------------------------------------------

    def add_actor(self, name: str, zec_notes: tuple[int, ...] = (),
                  i_balance: int = 0) -> ActorAccount:
        if self._started:
            raise ProtocolError("actors must be added before start()")
        if name in self.actors:
            raise ProtocolError(f"actor {name!r} added twice")
        account = ActorAccount(
            zcash=Wallet(name, random_address(self.rng), rng_bytes(self.rng, 32),
                         self.zcash.pool.leaf_index),
            wzec=Wallet(name, random_address(self.rng), rng_bytes(self.rng, 32),
                        self.issuing.pool.leaf_index),
        )
        self.actors[name] = account
        for value in zec_notes:
            self._genesis_values.append((name, value))
        if i_balance:
            self.issuing.i_ledger.deposit(name, i_balance)
        return account

    def start(self) -> None:
        """Mine the funding block that seeds actor wallets; the relayer
        listener forwards it like any other main-chain block."""
        if self._started:
            raise ProtocolError("already started")
        self._started = True
        if self._genesis_values:
            outputs = []
            for owner, value in self._genesis_values:
                wallet = self.actors[owner].zcash
                note = Note(wallet.address, value, rng_bytes(self.rng, 32))
                ct = self.directory.seal(note, wallet.address, self.rng)
                outputs.append(OutputDescription(commit_note(note), ct, note))
                wallet.credit(note)
            tx = ShieldedTx((), tuple(outputs), 0)
            result = self.zcash.submit_shielded_tx(tx, allow_unbacked=True)
            if isinstance(result, Rejection):
                raise ProtocolError(f"seed tx rejected: {result.reason}")
            self.zcash.mine_block()

    # -- clock -------------------------------------------------------------------

    def tick(self, actor_phase=None) -> list[tuple]:
        """Advance one tick: mine a block (the relayer listener forwards it),
        let actors move, then fire every due deadline exactly once. Returns the
        rows the timeouts and liquidations traced, as (tick, event, request id or vault)."""
        self.now += 1
        self.zcash.mine_block()
        if actor_phase is not None:
            actor_phase(self)
        start = len(self.trace)
        self._enforce_deadlines()
        for vault_id in self.registry.vaults:
            event = self.registry.check_liquidation(vault_id, self.now)
            if event is not None:
                self._event("liquidation", vault_id, event.seized)
                self._trace(vault_id, "liquidation", "", "", "", OK)
        self.supply_series.append((self.now, self.issuing.supply))
        return [(tick, _event_name(op), request_id or actor)
                for tick, actor, op, request_id, *_ in self.trace[start:]]

    def run_until(self, tick: int, actor_phase=None) -> None:
        while self.now < tick:
            self.tick(actor_phase)

    # -- trace -------------------------------------------------------------------

    def _trace(self, actor: str, op: str, request_id: str, before: str,
               after: str, outcome: str) -> None:
        self.trace.append((self.now, actor, op, request_id, before, after, outcome))

    def trace_rows(self) -> list[tuple]:
        return list(self.trace)

    def _event(self, kind: str, *details) -> None:
        self.events.append((self.now, kind) + details)

    def _reject(self, actor, op, request_id, state, reason) -> Rejection:
        self._trace(actor, op, request_id, state, state, f"rejected:{reason}")
        return Rejection(reason)

    # -- lifecycle ---------------------------------------------------------------

    def _guard(self, op: str, actor: str, request_id: str):
        """The request `op` may act on, or the traced rejection. In order: the
        actor is the op's party on a request of its kind, the request is in
        the op's from-state, the once-only rule holds, the deadline holds."""
        step = LIFECYCLE[op]
        request = self.requests.get(request_id)
        if (request is None or request.kind != step.kind
                or getattr(request, step.party) != actor):
            return self._reject(actor, op, request_id or "", "", "no-such-request")
        if request.terminal or request.state != step.before:
            return self._reject(actor, op, request_id, request.state, "bad-state")
        if step.once is not None and step.once[0] in request.done:
            return self._reject(actor, op, request_id, request.state, step.once[1])
        if step.deadline is not None and self.now > getattr(request, step.deadline):
            return self._reject(actor, op, request_id, request.state, "deadline-passed")
        return request

    def _advance(self, request: RequestRecord, op: str, actor: str) -> None:
        """Take `op`'s row: the new state, for a closing row the close and
        its effects, then the trace row."""
        step = LIFECYCLE[op]
        request.state = step.after
        request.done.add(op)
        if step.closes is not None:
            request.close_reason = step.closes
            self._close(request, step)
        self._trace(actor, op, request.request_id, step.before, step.after, OK)

    def _close(self, request: RequestRecord, step: Transition) -> None:
        """The one close of a request, whichever row ends it: free the vault
        slot, settle the pending mint or burn, apply a confirm's effects,
        and make the party at fault pay."""
        setattr(self.registry.vaults[request.vault_id], f"active_{request.kind}", None)
        confirmed = step.closes == "confirmed"
        vault = self.actors[request.vault_id]  # a registered vault is an actor
        if request.pending_txid is not None:
            # the minted note on a confirmed mint, the refund on a voided burn
            credited = self.issuing.finalize_tx(request.pending_txid,
                                                CONFIRMED if confirmed else VOIDED)
            if credited is not None:
                self.actors[request.requester].wzec.credit(credited)
        if confirmed and request.kind == "issue":
            lock_note = request.transfer.witness.lock_note
            self.registry.note_issue_completed(request.vault_id, lock_note.value)
            if self.vault_note(request) is not None:
                vault.zcash.credit(lock_note)
        elif confirmed:
            self.registry.note_redeem_completed(request.vault_id,
                                                request.transfer.witness.burn_amount)
        elif request.pending_txid is not None and request.lock_note is not None:
            vault.zcash.credit(request.lock_note)  # a voided mint's issuer loses the lock
        ledger = self.issuing.i_ledger
        reason = (_event_name(step.op) if step.party == SYSTEM
                  else f"{request.kind}-challenge")
        if step.fault == "requester":
            forfeited = ledger.forfeit_warranty(request.request_id, request.vault_id)
            self._event("slash", request.requester, request.vault_id, forfeited, reason)
        else:
            ledger.return_warranty(request.request_id)
        if step.fault == "vault":
            taken = ledger.slash_collateral(request.vault_id, self.config.params.i_w,
                                            request.requester)
            self._event("slash", request.vault_id, request.requester, taken, reason)

    def _reserve(self, op: str, requester: str, vault_id: str):
        """A fresh request id with the requester's warranty locked, if the
        vault's slot for `op`'s kind is free; else the traced rejection."""
        step = LIFECYCLE[op]
        if getattr(self.registry.vaults[vault_id], f"active_{step.kind}") is not None:
            return self._reject(requester, op, "", step.before, "vault-busy")
        request_id = self._next_id("request", "R")
        rej = self.issuing.i_ledger.lock_warranty(request_id, requester,
                                                  self.config.params.i_w)
        if rej is not None:
            return self._reject(requester, op, "", step.before, rej.reason)
        return request_id

    def _open(self, op: str, request: RequestRecord) -> RequestRecord:
        """Record a reserved request in its vault's slot and take `op`."""
        self.requests[request.request_id] = request
        setattr(self.registry.vaults[request.vault_id], f"active_{request.kind}",
                request.request_id)
        self._advance(request, op, request.requester)
        return request

    def _pay(self, payer: str, op: str, request: RequestRecord, output: tuple):
        """Pay one (address, value, rcm) output on the backing chain from the
        payer's wallet, change back to it: the txid, or the traced rejection.
        The traced reason is fixed, never the error's message, which holds
        the payer's note total and the amount."""
        wallet = self.actors[payer].zcash
        try:
            tx, notes = build_transfer(wallet, [output], self.zcash.fee, self.directory,
                                       self.rng)
        except ChainError:  # the wallet's notes do not cover the amount and fee
            return self._reject(payer, op, request.request_id, request.state,
                                "insufficient-funds")
        except NoteError:
            return self._reject(payer, op, request.request_id, request.state, "bad-amount")
        result = self.zcash.submit_shielded_tx(tx)
        if isinstance(result, Rejection):
            return self._reject(payer, op, request.request_id, request.state, result.reason)
        wallet.mark_spent([s.witness.note for s in tx.spends])
        if len(notes) > 1:
            self._expect(wallet, notes[-1])  # change
        return result

    def _expect(self, wallet: Wallet, note: Note) -> None:
        """Credit a note a party made for itself once its commitment is mined."""
        self._expecting.setdefault(commit_note(note).digest, []).append((wallet, note))

    # -- queries -----------------------------------------------------------------

    def block_of(self, cm_digest: bytes) -> Optional[bytes]:
        """Hash of the main-chain block that mined a commitment, if any: a
        block a reorg orphaned answers None until the requeued tx is mined
        again."""
        block_hash = self._cm_block.get(cm_digest)
        return block_hash if self.zcash.block_on_main(block_hash) else None

    def zec_totals(self) -> tuple[int, int]:
        """(ZEC locked, ZEC released) as the main chain holds them now: the
        values of the distinct lock and release commitments that requests
        paid and that are in the main chain's tree. A payment a reorg
        orphaned counts again once it is mined again."""
        mined = self.zcash.pool.leaf_index
        locks = {request.lock_cm: request.lock_note.value
                 for request in self.requests.values() if request.lock_cm in mined}
        releases = dict(request.release_paid for request in self.requests.values()
                        if request.release_paid and request.release_paid[0] in mined)
        return sum(locks.values()), sum(releases.values())

    def vault_note(self, request: RequestRecord) -> Optional[Note]:
        """The note the request's vault decrypts from its transfer's
        ciphertext, or None unless it opens the claimed commitment."""
        ct = request.transfer.statement.ciphertext
        vault_addr = self.registry.vaults[request.vault_id].zcash_address
        note = decrypt_note(ct, self.directory.secret_for(ct.ephemeral_public, vault_addr))
        if note is None or commit_note(note) != self._claimed_cm(request):
            return None
        return note

    @staticmethod
    def _claimed_cm(request: RequestRecord) -> NoteCommitment:
        """The commitment a request's ciphertext must open: the mint's lock
        note for an issue, the release note for a redeem."""
        statement = request.transfer.statement
        return statement.lock_cm if request.kind == "issue" else statement.release_cm

    # -- vault ops -----------------------------------------------------------------

    def register_vault(self, vault_id: str, collateral: int):
        account = self.actors.get(vault_id)
        if account is None:
            return self._reject(vault_id, "registerVault", "", "", "unknown-actor")
        result = self.registry.register_vault(vault_id, collateral, account.zcash.address)
        if isinstance(result, Rejection):
            return self._reject(vault_id, "registerVault", "", "", result.reason)
        self._trace(vault_id, "registerVault", "", "", "VaultRegistered", OK)
        return result

    def submit_poc(self, vault_id: str):
        return self._statement("submitPOC", vault_id, self.registry.submit_poc,
                               self._issue_state)

    def submit_pob(self, vault_id: str):
        return self._statement("submitPOB", vault_id, self.registry.submit_pob,
                               self._issue_state)

    def submit_poi(self, vault_id: str):
        return self._statement("submitPOI", vault_id, self.registry.submit_poi,
                               self._redeem_state)

    def _statement(self, op: str, vault_id: str, submit, state):
        """A vault statement checked by the registry, traced with the vault's
        `state` before and after."""
        before = state(vault_id)
        result = submit(vault_id, self.now)
        if isinstance(result, Rejection):
            return self._reject(vault_id, op, "", before, result.reason)
        self._trace(vault_id, op, "", before, state(vault_id), OK)
        return result

    def _issue_state(self, vault_id: str) -> str:
        record = self.registry.vaults.get(vault_id)
        return record.issue_state if record else ""

    def _redeem_state(self, vault_id: str) -> str:
        return "RedeemStart" if self.registry.redeem_available(vault_id) else "NotRedeeming"

    # -- issue ---------------------------------------------------------------------

    def request_lock(self, issuer: str, vault_id: str):
        """Commit step: warranty locked, permit granted, mint clock started."""
        if not self.registry.issue_available(vault_id, self.now):
            return self._reject(issuer, "requestLock", "", ISSUE_START, "vault-unavailable")
        request_id = self._reserve("requestLock", issuer, vault_id)
        if isinstance(request_id, Rejection):
            return request_id
        return self._open("requestLock", RequestRecord(
            request_id, "issue", ISSUE_START, issuer, vault_id,
            permit_id=self._next_id("permit", "P"), nonce=rng_bytes(self.rng, 32),
            deadline_mint=self.now + self.config.delta_mint))

    def do_lock(self, issuer: str, request_id: str, amount: int,
                tamper_random_rcm: bool = False):
        """Shielded lock on the backing chain, trapdoor derived from the
        permit nonce (unless deliberately tampered)."""
        request = self._guard("lock", issuer, request_id)
        if isinstance(request, Rejection):
            return request
        rcm = rng_bytes(self.rng, 32) if tamper_random_rcm else derive_rcm(request.nonce)
        vault_addr = self.registry.vaults[request.vault_id].zcash_address
        result = self._pay(issuer, "lock", request, (vault_addr, amount, rcm))
        if isinstance(result, Rejection):
            return result
        request.lock_note = Note(vault_addr, amount, rcm)
        request.lock_cm = commit_note(request.lock_note).digest
        self._advance(request, "lock", issuer)
        return result

    def build_mint(self, request_id: str, wrong_relation: bool = False,
                   lock_note_override: Optional[Note] = None) -> MintTransfer:
        """Honest mint transfer for a locked request, its lock note sealed to
        the request's vault as C^V (tamper knobs for byzantine issuers)."""
        request = self.requests[request_id]
        lock_note = lock_note_override or request.lock_note
        if lock_note is None:
            raise ProtocolError(f"no lock recorded for {request_id}")
        lock_cm = commit_note(lock_note)
        block_hash = self.block_of(lock_cm.digest)
        if block_hash is None:
            raise ProtocolError("lock not mined yet")
        path = self.zcash.merkle_path(lock_cm, block_hash)  # a main-chain block has a path
        value = post_fee_amount(lock_note.value, self.config.params.f)
        if wrong_relation:
            value += 1
        issuer_wallet = self.actors[request.requester].wzec
        wzec_note = Note(issuer_wallet.address, value, rng_bytes(self.rng, 32))
        vault_addr = self.registry.vaults[request.vault_id].zcash_address
        statement = MintStatement(lock_cm, commit_note(wzec_note), request.permit_id, block_hash,
                                  path, self.directory.seal(lock_note, vault_addr, self.rng))
        return MintTransfer(statement, MintWitness(lock_note, wzec_note, request.nonce))

    def do_mint(self, issuer: str, request_id: str, transfer: MintTransfer):
        request = self._guard("mint", issuer, request_id)
        if isinstance(request, Rejection):
            return request
        result = self.issuing.submit_mint_tx(transfer, request.nonce)
        if isinstance(result, Rejection):
            reason = result.reason
            if "replayed" in reason:
                reason = f"replay:{reason}"
            return self._reject(issuer, "mint", request_id, request.state, reason)
        self._check_true_chain(transfer.statement.lock_cm.digest,
                               transfer.statement.inclusion_block, request_id)
        request.deadline_confirm = self.now + self.config.delta_confirm_issue
        request.pending_txid = result.txid
        request.transfer = transfer
        self._advance(request, "mint", issuer)
        return result

    def _check_true_chain(self, cm_digest: bytes, block_hash: bytes, detail: str) -> None:
        """Ground truth behind a proof the relay accepted: one the true chain
        contradicts (a relay fooled by withheld headers) is a detected
        safety violation, not a silent success."""
        if not (self.zcash.block_on_main(block_hash)
                and cm_digest in self.zcash.pool.leaf_index):
            self._event("relay-violation", detail)

    def confirm_issue(self, vault_id: str, request_id: str):
        request = self._guard("confirmIssue", vault_id, request_id)
        if isinstance(request, Rejection):
            return request
        self._advance(request, "confirmIssue", vault_id)
        return OK

    def challenge_issue(self, vault_id: str, request_id: str,
                        revealed: Optional[SharedSecret] = None):
        return self._challenge("challengeIssue", vault_id, request_id, revealed)

    def _challenge(self, op: str, vault_id: str, request_id: str,
                   revealed: Optional[SharedSecret]):
        """The vault shows its transfer's ciphertext does not open the
        claimed commitment. Upheld, the pending mint or burn is voided and
        the requester forfeits the warranty to the vault."""
        request = self._guard(op, vault_id, request_id)
        if isinstance(request, Rejection):
            return request
        vault_addr = self.registry.vaults[vault_id].zcash_address
        ciphertext = request.transfer.statement.ciphertext
        if revealed is None:
            revealed = self.directory.secret_for(ciphertext.ephemeral_public, vault_addr)
        verdict = verify_challenge(ciphertext, revealed, self._claimed_cm(request),
                                   self.directory, vault_addr)
        if verdict != CHALLENGE_UPHELD:
            return self._reject(vault_id, op, request_id, request.state,
                                "challenge-not-upheld")
        self._advance(request, op, vault_id)
        self._event("challenge", request_id, "upheld")
        return OK

    # -- redeem --------------------------------------------------------------------

    def build_burn(self, redeemer: str, vault_id: str, amount: int,
                   reuse_note: Optional[Note] = None) -> tuple[BurnTransfer, Note]:
        """Honest burn transfer: fresh release note to the redeemer's own
        backing-chain address, encrypted to the vault. `reuse_note` reuses an
        earlier release note's values (the documented replay carve-out)."""
        account = self.actors[redeemer]
        if reuse_note is not None:
            release_note = reuse_note
        else:
            release_note = Note(account.zcash.address,
                                post_fee_amount(amount, self.config.params.f),
                                rng_bytes(self.rng, 32))
        spend_tx, notes = build_transfer(account.wzec, [], amount, self.directory,
                                         self.rng)
        ct = self.directory.seal(release_note, self.registry.vaults[vault_id].zcash_address,
                                 self.rng)
        statement = BurnStatement(commit_note(release_note), ct)
        return BurnTransfer(statement, BurnWitness(release_note, amount, spend_tx)), release_note

    def do_burn(self, redeemer: str, vault_id: str, transfer: BurnTransfer):
        if vault_id not in self.registry.vaults:
            return self._reject(redeemer, "burn", "", REDEEM_START, "unknown-vault")
        if not self.registry.redeem_available(vault_id):
            return self._reject(redeemer, "burn", "", REDEEM_START, "vault-exempt")
        request_id = self._reserve("burn", redeemer, vault_id)
        if isinstance(request_id, Rejection):
            return request_id
        result = self.issuing.submit_burn_tx(transfer)
        if isinstance(result, Rejection):
            self.issuing.i_ledger.return_warranty(request_id)
            return self._reject(redeemer, "burn", "", REDEEM_START, result.reason)
        wallet = self.actors[redeemer].wzec
        wallet.mark_spent([s.witness.note for s in transfer.witness.spend_tx.spends])
        for out in transfer.witness.spend_tx.outputs:
            wallet.credit(out.note_witness)  # change is immediately live
        self._expect(self.actors[redeemer].zcash, transfer.witness.release_note)
        return self._open("burn", RequestRecord(
            request_id, "redeem", REDEEM_START, redeemer, vault_id, transfer=transfer,
            deadline_confirm=self.now + self.config.delta_confirm_redeem,
            pending_txid=result.txid))

    def do_release(self, vault_id: str, request_id: str,
                   note_override: Optional[Note] = None):
        """Vault creates the redeemer-specified note on the backing chain."""
        request = self._guard("release", vault_id, request_id)
        if isinstance(request, Rejection):
            return request
        note = note_override or self.vault_note(request)
        if note is None:
            return self._reject(vault_id, "release", request_id, request.state,
                                "cannot-decrypt")
        result = self._pay(vault_id, "release", request, (note.address, note.value, note.rcm))
        if isinstance(result, Rejection):
            return result
        request.release_paid = (commit_note(note).digest, note.value)
        self._advance(request, "release", vault_id)
        return result

    def confirm_redeem(self, vault_id: str, request_id: str,
                       proof: Optional[tuple] = None):
        """Inclusion proof of the release note confirms the burn."""
        request = self._guard("confirmRedeem", vault_id, request_id)
        if isinstance(request, Rejection):
            return request
        release_cm = request.transfer.statement.release_cm
        if proof is None:
            block_hash = self.block_of(release_cm.digest)
            if block_hash is None:
                return self._reject(vault_id, "confirmRedeem", request_id,
                                    request.state, "release-not-mined")
            proof = (self.zcash.merkle_path(release_cm, block_hash), block_hash)
        path, block_hash = proof
        verdict = self.relay.verify_note_inclusion(release_cm, path, block_hash)
        if isinstance(verdict, Rejection):
            return self._reject(vault_id, "confirmRedeem", request_id, request.state,
                                verdict.reason)
        self._check_true_chain(release_cm.digest, block_hash, request_id)
        self._advance(request, "confirmRedeem", vault_id)
        return OK

    def challenge_redeem(self, vault_id: str, request_id: str,
                         revealed: Optional[SharedSecret] = None):
        return self._challenge("challengeRedeem", vault_id, request_id, revealed)

    # -- deadlines -------------------------------------------------------------------

    def _enforce_deadlines(self) -> None:
        """Fire the timeout row of every open request past its deadline, in
        request-creation order. The open requests are exactly the ones in
        the vault slots; creation order is the `R<n>` counter, not string
        order ("R10" < "R9")."""
        open_ids = [request_id for vault in self.registry.vaults.values()
                    for request_id in (vault.active_issue, vault.active_redeem)
                    if request_id is not None]
        for request_id in sorted(open_ids, key=lambda request_id: int(request_id[1:])):
            request = self.requests[request_id]
            step = TIMEOUTS[request.kind, request.state]  # every open state has one
            if self.now > getattr(request, step.deadline):
                self._advance(request, step.op, SYSTEM)

    # -- scanning and metrics ----------------------------------------------------------

    def _scan_block(self, block) -> None:
        for tx in block.txs:
            for out in tx.outputs:
                cm = out.cm.digest
                self._cm_block[cm] = block.header.hash
                for wallet, note in self._expecting.pop(cm, ()):
                    wallet.credit(note)

    def _relay_block(self, block) -> None:
        """The honest relayers: forward each main-chain block unless muted."""
        if not self.relayer_muted:
            self.relay.submit_header(block.header)

    def check_inclusion_claim(self, cm, path, block_hash: bytes):
        """Adversary-facing surface: the relay's verdict on an inclusion
        proof (`VERIFIED` or the `Rejection`). A proof the relay accepts
        that the true chain contradicts is flagged as a safety violation."""
        verdict = self.relay.verify_note_inclusion(cm, path, block_hash)
        if not isinstance(verdict, Rejection):
            self._check_true_chain(cm.digest, block_hash, "inclusion-forgery")
        return verdict

    # -- helpers -------------------------------------------------------------------------

    def _next_id(self, kind: str, prefix: str) -> str:
        self._counter[kind] += 1
        return f"{prefix}{self._counter[kind]}"

    def total_i(self) -> int:
        return self.issuing.i_ledger.total()


# --- trace conformance -----------------------------------------------------------


def ops_by_request(trace_rows: list[tuple]) -> dict[str, list[str]]:
    """Successful request operations grouped per request, in trace order."""
    grouped: dict[str, list[str]] = {}
    for _tick, _actor, op, request_id, _before, _after, outcome in trace_rows:
        if outcome == OK and op in LIFECYCLE and request_id:
            grouped.setdefault(request_id, []).append(op)
    return grouped


def sequence_ok(kind: str, ops: list[str]) -> bool:
    """Whether `ops` walk LIFECYCLE rows of `kind` from its start state to a
    close, each from the state the last one left, keeping every once-only
    rule. The two kinds share no state, so a row of the other kind never
    starts from the state the walk is in."""
    state, closed, done = START[kind], False, set()
    for op in ops:
        step = LIFECYCLE.get(op)
        if (closed or step is None or step.before != state
                or (step.once is not None and step.once[0] in done)):
            return False
        state, closed = step.after, step.closes is not None
        done.add(op)
    return closed


def conformance_errors(engine: Engine) -> list[str]:
    """Check a finished engine run against the lifecycle table plus the
    exactly-one-terminal rule for every pending transaction."""
    errors = []
    grouped = ops_by_request(engine.trace_rows())
    for request_id, request in engine.requests.items():
        ops = grouped.get(request_id, [])
        if not request.terminal:
            errors.append(f"{request_id}: not terminal at end of run ({','.join(ops)})")
        elif not sequence_ok(request.kind, ops):
            errors.append(f"{request_id}: sequence [{','.join(ops)}] violates the grammar")
    for txid, pending in engine.issuing.pending.items():
        if pending.status == PENDING:
            errors.append(f"{txid}: pending tx never reached a terminal state")
    return errors
