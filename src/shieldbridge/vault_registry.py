"""Registered vaults: public collateral, private ZEC obligations, the
capacity/balance/insolvency statements, liquidation and warranty slashing.

A vault's collateral in i is public; the ZEC it owes (its obligations) is
witness-side only: it is the replay of the vault's private request history,
which no public-trace serialization can reach. The registry itself plays
the role of the statement verifier: honest vaults submit their true
obligations and the registry checks them against that history, the way a
zero-knowledge proof over the full request history would.

Collateral comparisons are exact: rates are rationals and every inequality
is evaluated by cross-multiplication, never in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .issuing_chain import LIQUIDATION_POOL, TransparentLedger
from .notes import Address
from .oracle import RateFeed
from .zcash_chain import Rejection

VAULT_REGISTERED = "VaultRegistered"
ISSUE_START = "IssueStart"
NOT_ISSUING = "NotIssuing"


@dataclass(frozen=True)
class RegistryParams:
    v_max: int                      # cap per lock/burn, ZEC base units
    f: Fraction                     # protocol fee rate, 0 <= f < 1
    sigma_std: Fraction             # standard collateralisation rate, >= 1
    i_w: int                        # warranty collateral, i base units
    poc_validity: int = 100         # ticks a capacity statement stays fresh
    pob_period: int = 100           # ticks between required balance statements
    liq_margin: Fraction = Fraction(1, 10)  # rate move that arms liquidation

    def __post_init__(self):
        if not 0 <= self.f < 1:
            raise ValueError("fee must satisfy 0 <= f < 1")
        if self.sigma_std < 1:
            raise ValueError("sigma_std must be >= 1")
        for name in ("v_max", "i_w", "poc_validity", "pob_period", "liq_margin"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def capacity_threshold(self, rate: Fraction) -> Fraction:
        """Free collateral required to accept new issues at the given rate:
        v_max * (1 - f) * sigma_std * rate."""
        return self.v_max * (1 - self.f) * self.sigma_std * rate


@dataclass
class VaultRecord:
    """Public registry entry for one vault."""

    vault_id: str
    zcash_address: Address
    issue_state: str = VAULT_REGISTERED
    redeem_exempt: bool = False
    poc_expiry: int = -1
    last_statement_tick: int = 0
    last_statement_rate: Optional[Fraction] = None
    active_issue: Optional[str] = None
    active_redeem: Optional[str] = None

    def public_view(self) -> dict:
        return {
            "vault": self.vault_id,
            "issue_state": self.issue_state,
            "redeem_exempt": self.redeem_exempt,
            "poc_expiry": self.poc_expiry,
        }


@dataclass(frozen=True)
class LiquidationEvent:
    vault_id: str
    seized: int
    deficit: Fraction


def _replay(history: list[tuple[str, int]]) -> int:
    """Obligations a request history implies: issues minus everything else."""
    return sum(amount if op == "issue" else -amount for op, amount in history)


class VaultRegistry:
    def __init__(self, params: RegistryParams, ledger: TransparentLedger,
                 oracle: RateFeed):
        self.params = params
        self.ledger = ledger
        self.oracle = oracle
        self.vaults: dict[str, VaultRecord] = {}
        self._history: dict[str, list[tuple[str, int]]] = {}
        self.accepted_poc_log: list[dict] = []   # simulator-side audit trail

    # -- registration --

    def register_vault(self, vault_id: str, collateral: int, address: Address):
        if collateral <= 0:
            return Rejection("zero-collateral")
        if vault_id in self.vaults:
            return Rejection("already-registered")
        rej = self.ledger.lock_collateral(vault_id, collateral)
        if rej is not None:
            return rej
        self.vaults[vault_id] = VaultRecord(vault_id, address)
        self._history[vault_id] = []
        return vault_id

    # -- witness-side bookkeeping (driven by the protocol layer) --

    def witness_obligations(self, vault_id: str) -> int:
        return _replay(self._history[vault_id])

    def note_issue_completed(self, vault_id: str, zec_locked: int) -> None:
        self._history[vault_id].append(("issue", zec_locked))
        # completing an issue invalidates any standing insolvency statement
        self.vaults[vault_id].redeem_exempt = False

    def note_redeem_completed(self, vault_id: str, wzec_burned: int) -> None:
        self._history[vault_id].append(("redeem", wzec_burned))

    def history_witness(self, vault_id: str) -> list[tuple[str, int]]:
        return list(self._history[vault_id])

    # -- statements --

    def submit_poc(self, vault_id: str, now: int,
                   claimed_obligations: Optional[int] = None):
        """Proof of capacity: free collateral covers a worst-case request.

        Free collateral is what is left after the current obligations are
        backed at the standard rate; a fresh vault reduces to the plain
        collateral inequality.
        """
        if vault_id not in self.vaults:
            return Rejection("unknown-vault")
        record = self.vaults[vault_id]
        true_obligations = _replay(self._history[vault_id])
        if claimed_obligations is None:
            claimed_obligations = true_obligations
        if claimed_obligations != true_obligations:
            return Rejection("inconsistent-witness")
        rate = self.oracle.get_rate(now)
        free = (self.ledger.collateral_of(vault_id)
                - claimed_obligations * self.params.sigma_std * rate)
        threshold = self.params.capacity_threshold(rate)
        if free < threshold:
            return Rejection("capacity-shortfall")
        record.issue_state = ISSUE_START
        record.poc_expiry = now + self.params.poc_validity
        record.last_statement_tick = now
        record.last_statement_rate = rate
        self.accepted_poc_log.append({
            "vault": vault_id, "tick": now,
            "collateral": self.ledger.collateral_of(vault_id),
            "obligations": claimed_obligations, "rate": rate,
        })
        return "accepted"

    def submit_pob(self, vault_id: str, now: int,
                   witness_history: Optional[list[tuple[str, int]]] = None):
        """Proof of balance: obligations are backed at the standard rate,
        shown against a replay of the full request history."""
        if vault_id not in self.vaults:
            return Rejection("unknown-vault")
        record = self.vaults[vault_id]
        obligations = _replay(self._history[vault_id])
        if witness_history is not None and _replay(witness_history) != obligations:
            return Rejection("inconsistent-witness")
        rate = self.oracle.get_rate(now)
        backed = obligations * self.params.sigma_std * rate
        if self.ledger.collateral_of(vault_id) < backed:
            return Rejection("undercollateralized")
        record.issue_state = NOT_ISSUING
        record.last_statement_tick = now
        record.last_statement_rate = rate
        return "accepted"

    def submit_poi(self, vault_id: str, now: int):
        """Proof of insolvency: obligations strictly below the per-request
        cap exempt the vault from redeem selection."""
        if vault_id not in self.vaults:
            return Rejection("unknown-vault")
        if _replay(self._history[vault_id]) >= self.params.v_max:
            return Rejection("not-insolvent")
        self.vaults[vault_id].redeem_exempt = True
        return "accepted"

    # -- availability --

    def issue_available(self, vault_id: str, now: int) -> bool:
        record = self.vaults.get(vault_id)
        return (record is not None and record.issue_state == ISSUE_START
                and now <= record.poc_expiry)

    def redeem_available(self, vault_id: str) -> bool:
        """Vaults serve redeems by default; only a standing insolvency
        statement exempts them."""
        record = self.vaults.get(vault_id)
        return record is not None and not record.redeem_exempt

    # -- liquidation --

    def check_liquidation(self, vault_id: str, now: int) -> Optional[LiquidationEvent]:
        """Partial liquidation when the balance statement is stale and the
        rate has moved past the margin.

        The seizure converts collateral into an obligations cut at the
        current rate, sized so the standard ratio is restored exactly:
        seizing s = deficit / (sigma - 1) and cutting obligations by s/rate
        leaves collateral' = obligations' * sigma * rate.
        """
        record = self.vaults[vault_id]
        params = self.params
        if now - record.last_statement_tick <= params.pob_period:
            return None
        rate = self.oracle.get_rate(now)
        last_rate = record.last_statement_rate
        if last_rate is None:
            return None
        # the move |rate - last_rate| / last_rate < liq_margin, decided by
        # integer cross-multiplication: with rate = a/b, last_rate = c/d and
        # liq_margin = p/q it is |a·d - c·b|·q < p·b·c (rates are positive)
        a, b = rate.numerator, rate.denominator
        c, d = last_rate.numerator, last_rate.denominator
        margin = params.liq_margin
        if abs(a * d - c * b) * margin.denominator < margin.numerator * b * c:
            return None
        obligations = _replay(self._history[vault_id])
        collateral = self.ledger.collateral_of(vault_id)
        deficit = obligations * params.sigma_std * rate - collateral
        if deficit <= 0:
            return None
        if params.sigma_std == 1:
            seize_target = collateral
        else:
            seize_target = -((-deficit) // (params.sigma_std - 1))  # exact ceil
            seize_target = int(seize_target)
        seized = self.ledger.slash_collateral(vault_id, seize_target, LIQUIDATION_POOL)
        cut = min(obligations, -((-Fraction(seized)) // rate))  # never below zero
        self._history[vault_id].append(("liquidation", cut))
        record.last_statement_tick = now
        record.last_statement_rate = rate
        return LiquidationEvent(vault_id, seized, Fraction(deficit))

    # -- public serialization --

    def public_view(self) -> list[dict]:
        """Observer-visible registry state; obligations never appear."""
        return [self.vaults[v].public_view() | {"collateral": self.ledger.collateral_of(v)}
                for v in sorted(self.vaults)]
