import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldbridge.issuing_chain import LIQUIDATION_POOL, TransparentLedger
from shieldbridge.notes import random_address
from shieldbridge.oracle import RateFeed
from shieldbridge.vault_registry import (
    ISSUE_START,
    NOT_ISSUING,
    VAULT_REGISTERED,
    RegistryParams,
    VaultRegistry,
    Rejection,
)

# the worked boundary: v_max=100, f=2/100, sigma=3/2, xr=2 gives
# threshold 100 * 0.98 * 1.5 * 2 = 294 exactly
PARAMS = RegistryParams(v_max=100, f=Fraction(2, 100), sigma_std=Fraction(3, 2), i_w=5)


@pytest.fixture
def setup():
    rng = random.Random(3)
    ledger = TransparentLedger()
    oracle = RateFeed()
    oracle.set_rate(0, Fraction(2, 1))
    registry = VaultRegistry(PARAMS, ledger, oracle)
    addr = random_address(rng)
    return ledger, oracle, registry, addr


def register(ledger, registry, addr, collateral=294, vault="V1"):
    ledger.deposit(vault, collateral)
    assert registry.register_vault(vault, collateral, addr) == vault
    return vault


class TestRegistration:
    def test_positive_collateral_accepted(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr)
        assert registry.vaults[vault].issue_state == VAULT_REGISTERED
        assert ledger.collateral_of(vault) == 294
        assert ledger.balance(vault) == 0

    def test_zero_collateral_rejected(self, setup):
        _, _, registry, addr = setup
        assert isinstance(registry.register_vault("V1", 0, addr), Rejection)

    def test_distinct_vault_ids(self, setup):
        ledger, _, registry, addr = setup
        register(ledger, registry, addr, vault="V1")
        register(ledger, registry, addr, vault="V2")
        assert set(registry.vaults) == {"V1", "V2"}


class TestProofOfCapacity:
    def test_boundary_accepted(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=294)
        assert registry.submit_poc(vault, now=0) == "accepted"
        rec = registry.vaults[vault]
        assert rec.issue_state == ISSUE_START
        assert rec.last_statement_rate == Fraction(2)
        assert registry.issue_available(vault, now=0)

    def test_one_below_boundary_rejected(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=293)
        rej = registry.submit_poc(vault, now=0)
        assert isinstance(rej, Rejection) and rej.reason == "capacity-shortfall"
        assert registry.vaults[vault].issue_state == VAULT_REGISTERED

    def test_existing_obligations_consume_capacity(self, setup):
        # obligations 50 at sigma*xr = 3 leave free 294 - 150 = 144 < 294
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=294)
        registry.note_issue_completed(vault, 50)
        rej = registry.submit_poc(vault, now=0)
        assert isinstance(rej, Rejection) and rej.reason == "capacity-shortfall"

    def test_lying_witness_rejected(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=294)
        registry.note_issue_completed(vault, 50)
        rej = registry.submit_poc(vault, now=0, claimed_obligations=0)
        assert isinstance(rej, Rejection) and rej.reason == "inconsistent-witness"

    def test_poc_expiry_gates_availability(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=294)
        registry.submit_poc(vault, now=0)
        assert registry.issue_available(vault, now=PARAMS.poc_validity)
        assert not registry.issue_available(vault, now=PARAMS.poc_validity + 1)


class TestProofOfBalance:
    def test_boundary(self, setup):
        # obligations 49at sigma*xr = 3 need exactly 147
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=147)
        registry.note_issue_completed(vault, 49)
        assert registry.submit_pob(vault, now=1) == "accepted"
        assert registry.vaults[vault].issue_state == NOT_ISSUING

    def test_one_below_boundary_rejected(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=146)
        registry.note_issue_completed(vault, 49)
        rej = registry.submit_pob(vault, now=1)
        assert isinstance(rej, Rejection) and rej.reason == "undercollateralized"

    def test_omitting_history_entry_rejected(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=294)
        registry.note_issue_completed(vault, 20)
        registry.note_issue_completed(vault, 30)
        tampered = registry.history_witness(vault)[:-1]
        rej = registry.submit_pob(vault, now=1, witness_history=tampered)
        assert isinstance(rej, Rejection) and rej.reason == "inconsistent-witness"


class TestProofOfInsolvency:
    def test_zero_obligations_accepted(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr)
        assert registry.submit_poi(vault, now=0) == "accepted"
        assert not registry.redeem_available(vault)

    def test_at_cap_rejected_strictly(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr)
        registry.note_issue_completed(vault, PARAMS.v_max)
        rej = registry.submit_poi(vault, now=0)
        assert isinstance(rej, Rejection) and rej.reason == "not-insolvent"

    def test_issue_clears_exemption(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr)
        registry.submit_poi(vault, now=0)
        assert not registry.redeem_available(vault)
        registry.note_issue_completed(vault, 10)
        assert registry.redeem_available(vault)

    def test_default_available_for_redeem(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr)
        assert registry.redeem_available(vault)


class TestLiquidation:
    def arm(self, setup, collateral=150, obligations=49):
        ledger, oracle, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=collateral)
        registry.note_issue_completed(vault, obligations)
        assert registry.submit_pob(vault, now=0) == "accepted"
        return ledger, oracle, registry, vault

    def test_fresh_statement_no_liquidation(self, setup):
        ledger, oracle, registry, vault = self.arm(setup)
        oracle.set_rate(1, Fraction(3, 1))
        assert registry.check_liquidation(vault, now=PARAMS.pob_period) is None

    def test_stale_statement_unmoved_rate_no_liquidation(self, setup):
        ledger, oracle, registry, vault = self.arm(setup)
        assert registry.check_liquidation(vault, now=PARAMS.pob_period + 1) is None

    def test_stale_statement_rate_jump_liquidates_and_restores_ratio(self, setup):
        ledger, oracle, registry, vault = self.arm(setup)
        oracle.set_rate(50, Fraction(3, 1))  # +50% move
        event = registry.check_liquidation(vault, now=PARAMS.pob_period + 1)
        assert event is not None and event.seized > 0
        # deficit was 49 * 1.5 * 3 - 150 = 70.5
        assert event.deficit == Fraction(141, 2)
        rate = oracle.get_rate(PARAMS.pob_period + 1)
        backed = registry.witness_obligations(vault) * PARAMS.sigma_std * rate
        assert ledger.collateral_of(vault) >= backed  # ratio restored
        assert ledger.balance(LIQUIDATION_POOL) == event.seized
        assert ledger.total() == 150  # i conserved

    def test_clamped_cut_keeps_history_consistent(self, setup):
        # obligations 2 at rate 1 need exactly 3; at 7/5 the vault is short
        # 6/5, so 3 is seized, worth ceil(3 / (7/5)) = 3 > 2 obligations
        ledger, oracle, _, addr = setup
        params = RegistryParams(v_max=100, f=Fraction(2, 100), sigma_std=Fraction(3, 2),
                                i_w=5, pob_period=10)
        oracle.set_rate(0, Fraction(1))
        oracle.set_rate(20, Fraction(7, 5))
        registry = VaultRegistry(params, ledger, oracle)
        vault = register(ledger, registry, addr, collateral=3)
        registry.note_issue_completed(vault, 2)
        assert registry.submit_pob(vault, now=0) == "accepted"
        event = registry.check_liquidation(vault, now=20)
        assert event is not None and event.seized == 3
        assert registry.submit_pob(vault, now=21) == "accepted"
        assert registry.witness_obligations(vault) == 0
        assert registry.history_witness(vault)[-1] == ("liquidation", 2)

    def test_small_rate_move_below_margin_no_liquidation(self, setup):
        ledger, oracle, registry, vault = self.arm(setup)
        oracle.set_rate(50, Fraction(2, 1) * (1 + Fraction(5, 100)))  # +5% < margin
        assert registry.check_liquidation(vault, now=PARAMS.pob_period + 1) is None


def fraction_moved_past(rate, last_rate, margin):
    """Oracle: the rate move as `check_liquidation` computed it with Fractions."""
    return abs(rate - last_rate) / last_rate >= margin


RATES = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))
MARGINS = st.builds(Fraction, st.integers(0, 300), st.integers(1, 100))


class TestLiquidationArmingAgainstFractionOracle:
    @settings(max_examples=300, deadline=None)
    @given(last_rate=RATES, rate=RATES, margin=MARGINS, boundary=st.sampled_from([0, 1, -1]))
    def test_arms_exactly_when_the_fraction_move_reaches_the_margin(
            self, last_rate, rate, margin, boundary):
        if boundary:  # a move of exactly the margin, up or down
            rate = last_rate * (1 + boundary * margin)
            if rate <= 0:
                rate = last_rate * (1 + margin)
        params = RegistryParams(v_max=100, f=Fraction(2, 100), sigma_std=Fraction(3, 2),
                                i_w=5, liq_margin=margin)
        ledger, oracle = TransparentLedger(), RateFeed()
        oracle.set_rate(0, rate)
        registry = VaultRegistry(params, ledger, oracle)
        vault = register(ledger, registry, random_address(random.Random(1)), collateral=1)
        # obligations so large that every armed check finds a deficit
        registry.note_issue_completed(vault, 10**7)
        registry.vaults[vault].last_statement_rate = last_rate
        event = registry.check_liquidation(vault, now=params.pob_period + 1)
        assert (event is not None) == fraction_moved_past(rate, last_rate, margin)


class TestObserverHygiene:
    def test_public_view_never_contains_obligations(self, setup):
        ledger, _, registry, addr = setup
        vault = register(ledger, registry, addr, collateral=294)
        registry.note_issue_completed(vault, 4242424242)
        view = str(registry.public_view())
        assert "4242424242" not in view
        assert "obligation" not in view
