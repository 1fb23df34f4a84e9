import random
from dataclasses import replace
from fractions import Fraction

import pytest

from shieldbridge.issuing_chain import (
    CONFIRMED,
    PENDING,
    VOIDED,
    BurnStatement,
    BurnTransfer,
    BurnWitness,
    IssuingChain,
    LedgerError,
    MintStatement,
    MintTransfer,
    MintWitness,
    post_fee_amount,
)
from shieldbridge.notes import (
    Note,
    SharedSecretDirectory,
    commit_note,
    derive_rcm,
    encrypt_note,
    random_address,
    rng_bytes,
)
from shieldbridge.relay import Relay
from shieldbridge.zcash_chain import (
    ChainState,
    OutputDescription,
    Rejection,
    ShieldedTx,
    Wallet,
    build_transfer,
)

FEE = Fraction(2, 100)
V_MAX = 10_000_000_000  # 100 ZEC in base units


def test_post_fee_floor():
    assert post_fee_amount(50, FEE) == 49
    assert post_fee_amount(49, FEE) == 48  # floor(48.02) at unit scale
    assert post_fee_amount(4_900_000_000, FEE) == 4_802_000_000
    assert post_fee_amount(5_000_000_000, FEE) == 4_900_000_000


class Harness:
    """Zcash chain + relay with one finalized lock note, and the issuing
    chain wired to that relay."""

    def __init__(self, k=3, lock_value=5_000_000_000):
        self.rng = random.Random(17)
        self.directory = SharedSecretDirectory(rng_bytes(self.rng, 32))
        self.zcash = ChainState(depth=8, fee=1000)
        self.relay = Relay(self.zcash.tip.header, finality_depth=k)
        self.vault_addr = random_address(self.rng)
        self.permit_nonce = rng_bytes(self.rng, 32)
        self.lock_note = Note(self.vault_addr, lock_value, derive_rcm(self.permit_nonce))
        epk = self.directory.new_ephemeral(self.rng)
        ct = encrypt_note(self.lock_note, self.vault_addr,
                          self.directory.secret_for(epk, self.vault_addr), epk)
        tx = ShieldedTx((), (OutputDescription(commit_note(self.lock_note), ct,
                                               self.lock_note),), 0)
        self.zcash.submit_shielded_tx(tx, allow_unbacked=True)
        self.inclusion = self.zcash.mine_block()
        self.relay.submit_header(self.inclusion)
        for _ in range(k):
            self.relay.submit_header(self.zcash.mine_block())
        self.chain = IssuingChain(self.relay, FEE, V_MAX, tree_depth=8)

    def mint_transfer(self, wzec_value=None, lock_note=None, nonce=None):
        lock_note = lock_note or self.lock_note
        nonce = nonce or self.permit_nonce
        if wzec_value is None:
            wzec_value = post_fee_amount(lock_note.value, FEE)
        issuer_addr = random_address(self.rng)
        wzec_note = Note(issuer_addr, wzec_value, rng_bytes(self.rng, 32))
        lock_cm = commit_note(lock_note)
        path = self.zcash.merkle_path(commit_note(self.lock_note), self.inclusion.hash)
        statement = MintStatement(lock_cm, commit_note(wzec_note), "P1",
                                  self.inclusion.hash, path)
        return MintTransfer(statement, MintWitness(lock_note, wzec_note, nonce))


@pytest.fixture
def harness():
    return Harness()


class TestMint:
    def test_valid_mint_goes_pending(self, harness):
        transfer = harness.mint_transfer()  # 50 ZEC lock -> 49 wZEC
        assert transfer.witness.wzec_note.value == 4_900_000_000
        tx = harness.chain.submit_mint_tx(transfer, permit_nonce=harness.permit_nonce)
        assert tx.status == PENDING
        assert harness.chain.supply == 0  # nothing in supply until confirmed

    def test_wrong_value_relation_rejected(self, harness):
        transfer = harness.mint_transfer(wzec_value=5_000_000_000)
        rej = harness.chain.submit_mint_tx(transfer, harness.permit_nonce)
        assert isinstance(rej, Rejection)
        assert rej.reason == "statement-failed:value-relation"

    def test_v_max_exceeded_rejected(self):
        h = Harness(lock_value=V_MAX + 1)
        transfer = h.mint_transfer()
        rej = h.chain.submit_mint_tx(transfer, h.permit_nonce)
        assert isinstance(rej, Rejection) and rej.reason == "statement-failed:v-max"

    def test_v_max_boundary_accepted(self):
        h = Harness(lock_value=V_MAX)
        tx = h.chain.submit_mint_tx(h.mint_transfer(), h.permit_nonce)
        assert tx.status == PENDING

    def test_non_derived_rcm_rejected(self, harness):
        # lock note exists but its trapdoor is random, not permit-derived
        bad_note = Note(harness.vault_addr, 100, rng_bytes(harness.rng, 32))
        transfer = harness.mint_transfer(lock_note=bad_note)
        rej = harness.chain.submit_mint_tx(transfer, harness.permit_nonce)
        assert isinstance(rej, Rejection)
        assert rej.reason in ("statement-failed:rcm-not-derived",
                              "statement-failed:lock-note")

    def test_replayed_lock_cm_rejected(self, harness):
        t1 = harness.mint_transfer()
        harness.chain.submit_mint_tx(t1, harness.permit_nonce)
        rej = harness.chain.submit_mint_tx(t1, harness.permit_nonce)
        assert isinstance(rej, Rejection) and rej.reason == "lock-cm-replayed"

    def test_unfinal_inclusion_rejected(self):
        # same setup, but the relay requires more confirmations than it saw
        h = Harness(k=3)
        starved_relay = Relay(h.zcash.blocks[h.zcash.main[0]].header, finality_depth=8)
        for bh in h.zcash.main[1:]:
            starved_relay.submit_header(h.zcash.blocks[bh].header)
        issuing = IssuingChain(starved_relay, FEE, V_MAX, tree_depth=8)
        rej = issuing.submit_mint_tx(h.mint_transfer(), h.permit_nonce)
        assert isinstance(rej, Rejection) and rej.reason == "inclusion:not-final"


class TestLifecycle:
    def test_confirm_mint_enters_supply(self, harness):
        tx = harness.chain.submit_mint_tx(harness.mint_transfer(), harness.permit_nonce)
        harness.chain.finalize_tx(tx.txid, CONFIRMED)
        assert harness.chain.supply == 4_900_000_000
        assert harness.chain.pool_value() == harness.chain.supply

    def test_void_mint_mints_nothing(self, harness):
        tx = harness.chain.submit_mint_tx(harness.mint_transfer(), harness.permit_nonce)
        harness.chain.finalize_tx(tx.txid, VOIDED)
        assert harness.chain.supply == 0
        assert harness.chain.pool_value() == 0

    def test_double_finalize_is_internal_error(self, harness):
        tx = harness.chain.submit_mint_tx(harness.mint_transfer(), harness.permit_nonce)
        harness.chain.finalize_tx(tx.txid, CONFIRMED)
        with pytest.raises(LedgerError):
            harness.chain.finalize_tx(tx.txid, VOIDED)


def minted_harness():
    """Harness with 49 wZEC confirmed into a redeemer wallet."""
    h = Harness(lock_value=5_000_000_000)
    transfer = h.mint_transfer()
    tx = h.chain.submit_mint_tx(transfer, h.permit_nonce)
    h.chain.finalize_tx(tx.txid, CONFIRMED)
    wzec_note = transfer.witness.wzec_note
    wallet = Wallet("dave", wzec_note.address, rng_bytes(h.rng, 32))
    wallet.credit(wzec_note)
    h.wzec_wallet = wallet
    return h


def make_burn(h, burn_amount, release_value=None, spend_fee=None):
    release_value = (post_fee_amount(burn_amount, FEE)
                     if release_value is None else release_value)
    release_note = Note(random_address(h.rng), release_value, rng_bytes(h.rng, 32))
    spend_tx, _ = build_transfer(h.wzec_wallet, [],
                                 burn_amount if spend_fee is None else spend_fee,
                                 h.directory, h.rng)
    epk = h.directory.new_ephemeral(h.rng)
    ct = encrypt_note(release_note, h.vault_addr,
                      h.directory.secret_for(epk, h.vault_addr), epk)
    statement = BurnStatement(commit_note(release_note), ct)
    return BurnTransfer(statement, BurnWitness(release_note, burn_amount, spend_tx))


class TestBurn:
    def test_valid_burn_escrows(self):
        h = minted_harness()
        transfer = make_burn(h, 4_900_000_000)
        assert transfer.witness.release_note.value == 4_802_000_000
        tx = h.chain.submit_burn_tx(transfer)
        assert tx.status == PENDING and tx.escrow == 4_900_000_000
        assert h.chain.supply == 4_900_000_000  # unchanged while pending
        assert h.chain.pool_value() == h.chain.supply

    def test_burn_more_than_balance_rejected(self):
        h = minted_harness()
        from shieldbridge.zcash_chain import ChainError
        with pytest.raises(ChainError):
            make_burn(h, 5_000_000_000)  # wallet cannot fund the spend

    def test_wrong_release_value_rejected(self):
        h = minted_harness()
        transfer = make_burn(h, 4_900_000_000, release_value=4_900_000_000)
        rej = h.chain.submit_burn_tx(transfer)
        assert isinstance(rej, Rejection)
        assert rej.reason == "statement-failed:value-relation"

    def test_confirm_burn_shrinks_supply(self):
        h = minted_harness()
        tx = h.chain.submit_burn_tx(make_burn(h, 4_900_000_000))
        h.chain.finalize_tx(tx.txid, CONFIRMED)
        assert h.chain.supply == 0
        assert h.chain.pool_value() == 0

    def test_void_burn_returns_escrow(self):
        h = minted_harness()
        tx = h.chain.submit_burn_tx(make_burn(h, 4_900_000_000))
        refund = h.chain.finalize_tx(tx.txid, VOIDED)
        assert h.chain.supply == 4_900_000_000
        assert h.chain.pool_value() == h.chain.supply
        assert refund is not None and refund.value == 4_900_000_000

    def test_escrow_unspendable_while_pending(self):
        # the burn consumed the wallet's note: any further spend of it,
        # burn or transfer, hits the nullifier set
        h = minted_harness()
        tx = h.chain.submit_burn_tx(make_burn(h, 4_900_000_000))
        assert tx.status == PENDING
        retry = make_burn(h, 4_900_000_000)
        rej = h.chain.submit_burn_tx(retry)
        assert isinstance(rej, Rejection)
        assert rej.reason == "insufficient-wzec:double-spend"


class TestWzecTransfer:
    def test_split_into_three_notes(self):
        h = minted_harness()
        dest = h.wzec_wallet.address
        tx, notes = build_transfer(
            h.wzec_wallet,
            [(dest, 3_200_000_000, rng_bytes(h.rng, 32)),
             (dest, 1_600_000_000, rng_bytes(h.rng, 32)),
             (dest, 100_000_000, rng_bytes(h.rng, 32))],
            0, h.directory, h.rng)
        assert h.chain.wzec_transfer(tx) == tx.txid()
        assert h.chain.supply == 4_900_000_000  # unchanged
        assert h.chain.pool_value() == h.chain.supply
        assert len(notes) == 3  # 3.2 + 1.6 + 0.1 = 4.9: no change note

    def test_double_spend_rejected(self):
        h = minted_harness()
        source = list(h.wzec_wallet.unspent.values())[0]
        tx, _ = build_transfer(h.wzec_wallet, [(h.wzec_wallet.address, source.value,
                                                rng_bytes(h.rng, 32))],
                               0, h.directory, h.rng)
        assert h.chain.wzec_transfer(tx) == tx.txid()
        rej = h.chain.wzec_transfer(tx)
        assert isinstance(rej, Rejection) and rej.reason == "double-spend"


def replace_witness(transfer, **fields):
    return replace(transfer, witness=replace(transfer.witness, **fields))


def stray_note(h, value=100):
    return Note(random_address(h.rng), value, rng_bytes(h.rng, 32))


# (harness, one field of an honest transfer broken and submitted, reason)
BROKEN_TRANSFERS = [
    pytest.param(minted_harness, lambda h: h.chain.submit_mint_tx(
        h.mint_transfer(lock_note=Note(h.vault_addr, 100, derive_rcm(h.permit_nonce))),
        h.permit_nonce), "permit-nonce-replayed", id="mint-permit-replayed"),
    pytest.param(Harness, lambda h: h.chain.submit_mint_tx(
        replace_witness(h.mint_transfer(), permit_nonce=rng_bytes(h.rng, 32)),
        h.permit_nonce), "statement-failed:nonce-mismatch", id="mint-nonce"),
    pytest.param(Harness, lambda h: h.chain.submit_mint_tx(
        replace_witness(h.mint_transfer(), lock_note=stray_note(h)), h.permit_nonce),
        "statement-failed:lock-note", id="mint-lock-note"),
    pytest.param(Harness, lambda h: h.chain.submit_mint_tx(
        replace_witness(h.mint_transfer(), wzec_note=stray_note(h)), h.permit_nonce),
        "statement-failed:wzec-note", id="mint-wzec-note"),
    pytest.param(minted_harness, lambda h: h.chain.submit_burn_tx(
        replace_witness(make_burn(h, 4_900_000_000), burn_amount=V_MAX + 1)),
        "statement-failed:v-max", id="burn-v-max"),
    pytest.param(minted_harness, lambda h: h.chain.submit_burn_tx(
        replace_witness(make_burn(h, 4_900_000_000),
                        release_note=stray_note(h, 4_802_000_000))),
        "statement-failed:release-note", id="burn-release-note"),
    pytest.param(minted_harness, lambda h: h.chain.submit_burn_tx(
        make_burn(h, 4_900_000_000, spend_fee=4_800_000_000)),
        "statement-failed:escrow-balance", id="burn-escrow"),
    pytest.param(minted_harness, lambda h: h.chain.wzec_transfer(build_transfer(
        h.wzec_wallet, [(h.wzec_wallet.address, 100, rng_bytes(h.rng, 32))], 1,
        h.directory, h.rng)[0]), "nonzero-fee", id="transfer-fee"),
]


@pytest.mark.parametrize("make_harness, submit, reason", BROKEN_TRANSFERS)
def test_broken_statement_rejected_without_effect(make_harness, submit, reason):
    h = make_harness()

    def state():
        return (h.chain.supply, h.chain.pool_value(),
                {txid: p.status for txid, p in h.chain.pending.items()})

    before = state()
    rej = submit(h)
    assert isinstance(rej, Rejection) and rej.reason == reason
    assert state() == before


class TestObserverView:
    def test_public_log_hides_amounts(self):
        h = minted_harness()
        h.chain.submit_burn_tx(make_burn(h, 4_900_000_000))
        log = str(h.chain.public_log)
        for secret_value in ("5000000000", "4900000000", "4802000000"):
            assert secret_value not in log
