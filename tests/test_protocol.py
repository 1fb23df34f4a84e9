import copy
import itertools
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from shieldbridge.notes import Note, NoteCommitment, SharedSecret, commit_note, digest
from shieldbridge.protocol import (
    AWAIT_ISSUE_CONFIRM,
    AWAIT_REDEEM_CONFIRM,
    AWAITING_MINT,
    ISSUE_CHALLENGED,
    ISSUE_SUCCESS,
    OK,
    REDEEM_CHALLENGED,
    REDEEM_SUCCESS,
    LIFECYCLE,
    SYSTEM,
    TIMEOUTS,
    Engine,
    ProtocolConfig,
    ProtocolError,
    conformance_errors,
    ops_by_request,
    sequence_ok,
)
from shieldbridge.simcli import ActorSpec, VaultBot, collect_metrics, corrupt_ciphertext
from shieldbridge.vault_registry import RegistryParams
from shieldbridge.zcash_chain import (
    BlockHeader,
    CommitmentTree,
    MerklePath,
    OutputDescription,
    Rejection,
    ShieldedTx,
)

LOCK = 5_000_000_000          # 50 ZEC
MINTED = 4_900_000_000        # floor(lock * 0.98)
RELEASED = 4_802_000_000      # floor(minted * 0.98)
COLLATERAL = 29_400_000_000   # capacity boundary at v_max=100 ZEC, xr=2


def make_engine(k=3, seed=7, pairs=1, tree_depth=8, **overrides):
    """An engine with vaults V1.. and users A1.., one pair per index."""
    params = RegistryParams(v_max=10_000_000_000, f=Fraction(2, 100),
                            sigma_std=Fraction(3, 2), i_w=5)
    config = ProtocolConfig(params, relay_k=k, delta_mint=24,
                            delta_confirm_issue=6, delta_confirm_redeem=24,
                            tree_depth=tree_depth, **overrides)
    engine = Engine(config, seed)
    engine.oracle.set_rate(0, Fraction(2, 1))
    for i in range(1, pairs + 1):
        engine.add_actor(f"V{i}", zec_notes=(20_000_000_000,), i_balance=COLLATERAL + 100)
        engine.add_actor(f"A{i}", zec_notes=(10_000_000_000,), i_balance=100)
    engine.start()
    for i in range(1, pairs + 1):
        assert engine.register_vault(f"V{i}", COLLATERAL) == f"V{i}"
        assert engine.submit_poc(f"V{i}") == "accepted"
    return engine


def run_issue(engine, issuer="A1", vault="V1", amount=LOCK, confirm=True,
              edit=None, mint_kwargs=None):
    request = engine.request_lock(issuer, vault)
    assert not isinstance(request, Rejection)
    assert engine.do_lock(issuer, request.request_id, amount)
    for _ in range(engine.config.relay_k + 1):
        engine.tick()
    transfer = engine.build_mint(request.request_id, **(mint_kwargs or {}))
    if edit is not None:
        transfer = edit(transfer)
    result = engine.do_mint(issuer, request.request_id, transfer)
    if confirm and not isinstance(result, Rejection):
        assert engine.confirm_issue(vault, request.request_id) == OK
    return request


def sealing(engine, transfer, note):
    """`transfer` with its ciphertext replaced by one of `note`, sealed to
    the vault of the transfer's request (V1)."""
    ct = engine.directory.seal(note, engine.registry.vaults["V1"].zcash_address, engine.rng)
    return replace(transfer, statement=replace(transfer.statement, ciphertext=ct))


class TestIssueHappyPath:
    def test_full_flow(self):
        engine = make_engine()
        request = run_issue(engine)
        assert request.state == ISSUE_SUCCESS
        assert engine.issuing.supply == MINTED
        assert engine.registry.witness_obligations("V1") == LOCK
        assert engine.actors["A1"].wzec.balance() == MINTED
        # warranty came back, nothing slashed
        assert engine.issuing.i_ledger.balance("A1") == 100
        assert collect_metrics(engine)["slash_count"] == 0
        # the vault can spend the locked note
        assert engine.actors["V1"].zcash.balance() == 20_000_000_000 + LOCK
        assert conformance_errors(engine) == []

    def test_i_conserved(self):
        engine = make_engine()
        total_before = engine.total_i()
        run_issue(engine)
        assert engine.total_i() == total_before

    def test_supply_law_every_tick(self):
        engine = make_engine()
        run_issue(engine)
        for _ in range(3):
            engine.tick()
        assert engine.issuing.pool_value() == engine.issuing.supply

    def test_zero_value_issue_allowed(self):
        # zero pieces from the splitting strategy become zero-value locks
        engine = make_engine()
        request = run_issue(engine, amount=0)
        assert request.state == ISSUE_SUCCESS
        assert engine.issuing.supply == MINTED * 0

    def test_trace_grammar(self):
        engine = make_engine()
        request = run_issue(engine)
        assert ops_by_request(engine.trace_rows())[request.request_id] == [
            "requestLock", "lock", "mint", "confirmIssue"]


class TestIssueRejections:
    def test_vault_without_poc_unavailable(self):
        engine = make_engine()
        engine.add_actor  # no-op; V2 never registered
        rej = engine.request_lock("A1", "V2")
        assert isinstance(rej, Rejection) and rej.reason == "vault-unavailable"

    def test_one_concurrent_issue_per_vault(self):
        engine = make_engine()
        first = engine.request_lock("A1", "V1")
        assert not isinstance(first, Rejection)
        second = engine.request_lock("A1", "V1")
        assert isinstance(second, Rejection) and second.reason == "vault-busy"

    def test_warranty_shortfall_rejected(self):
        engine = make_engine()
        engine.issuing.i_ledger.balances["A1"] = 0
        rej = engine.request_lock("A1", "V1")
        assert isinstance(rej, Rejection) and rej.reason == "insufficient-i"

    def test_mint_before_finality_rejected(self):
        engine = make_engine(k=6)
        request = engine.request_lock("A1", "V1")
        engine.do_lock("A1", request.request_id, LOCK)
        engine.tick()  # mined but far from final
        transfer = engine.build_mint(request.request_id)
        rej = engine.do_mint("A1", request.request_id, transfer)
        assert isinstance(rej, Rejection) and rej.reason == "inclusion:not-final"

    def test_random_rcm_lock_fails_mint_statement(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        engine.do_lock("A1", request.request_id, LOCK, tamper_random_rcm=True)
        for _ in range(engine.config.relay_k + 1):
            engine.tick()
        transfer = engine.build_mint(request.request_id)
        rej = engine.do_mint("A1", request.request_id, transfer)
        assert isinstance(rej, Rejection)
        assert rej.reason == "statement-failed:rcm-not-derived"

    def test_second_lock_rejected(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        assert not isinstance(engine.do_lock("A1", request.request_id, LOCK), Rejection)
        rej = engine.do_lock("A1", request.request_id, LOCK)
        assert isinstance(rej, Rejection) and rej.reason == "permit-used"

    def test_wrong_relation_rejected(self):
        engine = make_engine()
        request = run_issue(engine, confirm=False, mint_kwargs={"wrong_relation": True})
        assert request.state == AWAITING_MINT  # mint never succeeded

    def test_replayed_lock_cm_rejected(self):
        engine = make_engine()
        done = run_issue(engine)
        engine.submit_poc("V1")  # make the vault available again
        second = engine.request_lock("A1", "V1")
        old_transfer = done.transfer
        transfer = engine.build_mint(second.request_id,
                                     lock_note_override=old_transfer.witness.lock_note)
        rej = engine.do_mint("A1", second.request_id, transfer)
        assert isinstance(rej, Rejection) and "lock-cm-replayed" in rej.reason
        assert collect_metrics(engine)["replay_rejections"] == 1


class TestTransferFailures:
    """Wallet and note errors while building a backing-chain transfer are
    actor rejections; anything else is a bug and must propagate."""

    def test_insufficient_funds_lock_rejected(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        rej = engine.do_lock("A1", request.request_id, 20_000_000_000)
        assert rej == Rejection("insufficient-funds")
        assert engine.trace_rows()[-1] == (engine.now, "A1", "lock", request.request_id,
                                           AWAITING_MINT, AWAITING_MINT,
                                           "rejected:insufficient-funds")
        # the permit is still unused: a funded lock goes through
        assert not isinstance(engine.do_lock("A1", request.request_id, LOCK), Rejection)

    @pytest.mark.parametrize("amount, reason", [(20_000_000_000, "insufficient-funds"),
                                                (-123_457, "bad-amount")])
    def test_failed_lock_traces_no_amount(self, amount, reason):
        # the wallet's message holds the payer's note total (10^10) and the
        # amount plus fee; the public trace gets only the fixed reason
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        assert engine.do_lock("A1", request.request_id, amount) == Rejection(reason)
        row = ",".join(map(str, engine.trace_rows()[-1]))
        assert row.endswith(f"rejected:{reason}")
        for secret in (10_000_000_000, amount, amount + engine.zcash.fee, abs(amount)):
            assert str(secret) not in row

    def test_lock_past_64_bits_is_a_bad_amount(self):
        # two mined notes of 2**63 cover 2**64 plus the fee, so the payment
        # note itself, which fails at construction, is what refuses the lock
        engine = make_engine()
        wallet = engine.actors["A1"].zcash
        big = [Note(wallet.address, 2**63, rcm) for rcm in (b"\x01" * 32, b"\x02" * 32)]
        coinbase = ShieldedTx((), tuple(
            OutputDescription(commit_note(n), engine.directory.seal(n, n.address, engine.rng), n)
            for n in big), 0)
        engine.zcash.mine_block(txs=[coinbase])
        for note in big:
            wallet.credit(note)
        unspent = dict(wallet.unspent)
        request = engine.request_lock("A1", "V1")
        assert engine.do_lock("A1", request.request_id, 2**64) == Rejection("bad-amount")
        assert engine.trace_rows()[-1][-1] == "rejected:bad-amount"
        assert wallet.unspent == unspent

    def test_internal_error_in_lock_propagates(self, monkeypatch):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")

        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr("shieldbridge.protocol.build_transfer", broken)
        rows = len(engine.trace_rows())
        with pytest.raises(RuntimeError, match="bug"):
            engine.do_lock("A1", request.request_id, LOCK)
        assert len(engine.trace_rows()) == rows

    def test_internal_error_in_release_propagates(self, monkeypatch):
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", MINTED)
        request = engine.do_burn("A1", "V1", transfer)

        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr("shieldbridge.protocol.build_transfer", broken)
        with pytest.raises(RuntimeError, match="bug"):
            engine.do_release("V1", request.request_id)


class TestIssueTimeouts:
    def test_mint_deadline_slashes_issuer(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        assert engine.issuing.i_ledger.balance("A1") == 95  # i_w locked
        engine.run_until(engine.config.delta_mint + 2)
        assert request.terminal and request.close_reason == "mint-timeout"
        assert engine.issuing.i_ledger.balance("A1") == 95
        assert engine.issuing.i_ledger.balance("V1") == 105  # holder of i_w now
        assert collect_metrics(engine)["slash_count"] == 1
        assert conformance_errors(engine) == []

    def test_tick_reports_timeout(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        events = []
        while not request.terminal:
            events += engine.tick()
        assert events == [(engine.now, "mint-timeout", request.request_id)]

    def test_tick_reports_liquidation(self):
        engine = make_engine()
        run_issue(engine)
        engine.oracle.set_rate(engine.now + 1, Fraction(4, 1))  # collateral now short
        events = []
        for _ in range(engine.config.params.pob_period + 2):  # the statement goes stale
            events += engine.tick()
        (tick, kind, vault_id, _seized), = engine.events
        assert (kind, vault_id) == ("liquidation", "V1")
        assert events == [(tick, "liquidation", "V1")]

    def test_silent_vault_auto_confirm_and_slash(self):
        engine = make_engine()
        request = run_issue(engine, confirm=False)
        assert request.state == AWAIT_ISSUE_CONFIRM
        engine.run_until(request.deadline_confirm + 1)
        assert request.state == ISSUE_SUCCESS  # mint auto-confirmed
        assert engine.issuing.supply == MINTED
        # vault paid i_w from collateral to the issuer
        assert engine.issuing.i_ledger.balance("A1") == 105
        assert engine.issuing.i_ledger.collateral_of("V1") == COLLATERAL - 5
        assert conformance_errors(engine) == []

    def test_confirm_after_deadline_rejected_before_timeout_fires(self):
        engine = make_engine()
        request = run_issue(engine, confirm=False)
        engine.now = request.deadline_confirm + 1  # actor phase of that tick
        rej = engine.confirm_issue("V1", request.request_id)
        assert isinstance(rej, Rejection) and rej.reason == "deadline-passed"


class TestIssueChallenge:
    def test_corrupted_ciphertext_challenged(self):
        engine = make_engine()
        request = run_issue(engine, confirm=False, edit=corrupt_ciphertext)
        assert engine.challenge_issue("V1", request.request_id) == OK
        assert request.state == ISSUE_CHALLENGED
        assert engine.issuing.supply == 0  # mint voided
        assert engine.issuing.i_ledger.balance("A1") == 95  # warranty lost
        assert engine.issuing.i_ledger.balance("V1") == 105
        assert collect_metrics(engine)["challenge_upheld"] == 1
        assert conformance_errors(engine) == []

    def test_wrong_note_ciphertext_challenged(self):
        # the ciphertext encrypts a note other than the lock the mint proves
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        engine.do_lock("A1", request.request_id, LOCK)
        for _ in range(engine.config.relay_k + 1):
            engine.tick()
        transfer = engine.build_mint(request.request_id)
        lock_note = transfer.witness.lock_note
        wrong = replace(lock_note, value=lock_note.value + 1)
        assert not isinstance(engine.do_mint("A1", request.request_id,
                                             sealing(engine, transfer, wrong)), Rejection)
        assert engine.challenge_issue("V1", request.request_id) == OK
        assert request.state == ISSUE_CHALLENGED

    def test_honest_vault_challenges_a_ciphertext_of_another_note(self):
        # the ciphertext authenticates under the vault's key, so it decrypts,
        # but to a note whose commitment is not the mint's lock commitment
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        engine.do_lock("A1", request.request_id, LOCK)
        for _ in range(engine.config.relay_k + 1):
            engine.tick()
        transfer = engine.build_mint(request.request_id)
        lock_note = transfer.witness.lock_note
        other = replace(lock_note, rcm=digest(b"test-other-rcm", lock_note.rcm))
        engine.do_mint("A1", request.request_id, sealing(engine, transfer, other))
        assert request.state == AWAIT_ISSUE_CONFIRM
        assert engine.vault_note(request) is None
        VaultBot(ActorSpec("V1", "vault")).step(engine)
        assert request.state == ISSUE_CHALLENGED
        assert collect_metrics(engine)["challenge_upheld"] == 1
        assert engine.issuing.supply == 0

    def test_honest_ciphertext_challenge_rejected(self):
        engine = make_engine()
        request = run_issue(engine, confirm=False)
        rej = engine.challenge_issue("V1", request.request_id)
        assert isinstance(rej, Rejection) and rej.reason == "challenge-not-upheld"
        assert request.state == AWAIT_ISSUE_CONFIRM  # vault must still act
        assert collect_metrics(engine)["challenge_rejected"] == 1

    def test_forged_secret_challenge_rejected(self):
        engine = make_engine()
        request = run_issue(engine, confirm=False, edit=corrupt_ciphertext)
        rej = engine.challenge_issue("V1", request.request_id,
                                     revealed=SharedSecret(b"\x05" * 32))
        assert isinstance(rej, Rejection) and rej.reason == "challenge-not-upheld"

    def test_challenge_after_terminal_rejected(self):
        engine = make_engine()
        request = run_issue(engine)  # confirmed
        rej = engine.challenge_issue("V1", request.request_id)
        assert isinstance(rej, Rejection) and rej.reason == "bad-state"

    def test_challenge_after_deadline_rejected(self):
        engine = make_engine()
        request = run_issue(engine, confirm=False, edit=corrupt_ciphertext)
        engine.now = request.deadline_confirm + 1
        rej = engine.challenge_issue("V1", request.request_id)
        assert isinstance(rej, Rejection) and rej.reason == "deadline-passed"


def engine_with_supply(seed=7):
    engine = make_engine(seed=seed)
    run_issue(engine)
    return engine


def run_redeem(engine, redeemer="A1", vault="V1", amount=MINTED, release=True,
               confirm=True, burn_kwargs=None):
    transfer, release_note = engine.build_burn(redeemer, vault, amount,
                                               **(burn_kwargs or {}))
    request = engine.do_burn(redeemer, vault, transfer)
    if isinstance(request, Rejection):
        return request
    if release:
        assert engine.do_release(vault, request.request_id)
        for _ in range(engine.config.relay_k + 1):
            engine.tick()
    if confirm:
        assert engine.confirm_redeem(vault, request.request_id) == OK
    return request


class TestRedeemHappyPath:
    def test_full_flow(self):
        engine = engine_with_supply()
        total_before = engine.total_i()
        redeemer_zec_before = engine.actors["A1"].zcash.balance()
        request = run_redeem(engine)
        assert request.state == REDEEM_SUCCESS
        assert engine.issuing.supply == 0
        # obligations fell by more than the ZEC released: the implicit fee
        assert engine.registry.witness_obligations("V1") == LOCK - MINTED
        assert engine.actors["A1"].zcash.balance() == redeemer_zec_before + RELEASED
        assert engine.total_i() == total_before
        assert engine.zec_totals()[1] == RELEASED
        assert conformance_errors(engine) == []

    def test_burn_at_poi_exempt_vault_rejected(self):
        engine = engine_with_supply()
        # vault must first clear its obligations below v_max? they are: 50 < 100 ZEC
        assert engine.submit_poi("V1") == "accepted"
        rej = run_redeem(engine, release=False, confirm=False)
        assert isinstance(rej, Rejection) and rej.reason == "vault-exempt"

    def test_one_concurrent_redeem_per_vault(self):
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", 1_000_000)
        first = engine.do_burn("A1", "V1", transfer)
        assert not isinstance(first, Rejection)
        transfer2, _ = engine.build_burn("A1", "V1", 1_000_000)
        second = engine.do_burn("A1", "V1", transfer2)
        assert isinstance(second, Rejection) and second.reason == "vault-busy"


class TestRedeemFailures:
    def test_silent_vault_voids_burn_and_slashes(self):
        engine = engine_with_supply()
        wzec_before = engine.actors["A1"].wzec.balance()
        request = run_redeem(engine, release=False, confirm=False)
        engine.run_until(request.deadline_confirm + 1)
        assert request.terminal and request.close_reason == "redeem-timeout"
        assert engine.issuing.supply == MINTED  # nothing burned
        assert engine.actors["A1"].wzec.balance() == wzec_before  # escrow refunded
        assert engine.issuing.i_ledger.balance("A1") == 105  # slashed vault i_w
        assert conformance_errors(engine) == []

    def test_wrong_note_release_cannot_confirm(self):
        engine = engine_with_supply()
        transfer, release_note = engine.build_burn("A1", "V1", MINTED)
        request = engine.do_burn("A1", "V1", transfer)
        from shieldbridge.notes import Note
        wrong = Note(release_note.address, release_note.value - 1, release_note.rcm)
        assert engine.do_release("V1", request.request_id, note_override=wrong)
        for _ in range(engine.config.relay_k + 1):
            engine.tick()
        rej = engine.confirm_redeem("V1", request.request_id)
        assert isinstance(rej, Rejection) and rej.reason == "release-not-mined"
        # the burn eventually voids against the vault
        engine.run_until(request.deadline_confirm + 1)
        assert request.close_reason == "redeem-timeout"

    def test_corrupt_ciphertext_redeem_challenged(self):
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", MINTED)
        request = engine.do_burn("A1", "V1", corrupt_ciphertext(transfer))
        assert engine.challenge_redeem("V1", request.request_id) == OK
        assert request.state == REDEEM_CHALLENGED
        assert engine.issuing.supply == MINTED  # burn voided, wZEC refunded
        assert engine.issuing.i_ledger.balance("V1") == 105  # redeemer's i_w
        assert conformance_errors(engine) == []

    def test_challenge_after_release_rejected(self):
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", MINTED)
        request = engine.do_burn("A1", "V1", transfer)
        assert engine.do_release("V1", request.request_id)
        rej = engine.challenge_redeem("V1", request.request_id)
        assert isinstance(rej, Rejection) and rej.reason == "already-released"

    def test_release_by_other_vault_rejected(self):
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", MINTED)
        request = engine.do_burn("A1", "V1", transfer)
        rej = engine.do_release("A1", request.request_id)
        assert isinstance(rej, Rejection) and rej.reason == "no-such-request"
        assert engine.trace_rows()[-1] == (engine.now, "A1", "release", request.request_id,
                                           "", "", "rejected:no-such-request")

    def test_release_without_burn_rejected(self):
        engine = engine_with_supply()
        rows = len(engine.trace_rows())
        rej = engine.do_release("V1", "R999")
        assert isinstance(rej, Rejection) and rej.reason == "no-such-request"
        assert engine.trace_rows()[rows:] == [
            (engine.now, "V1", "release", "R999", "", "", "rejected:no-such-request")]

    def test_confirm_below_finality_rejected(self):
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", MINTED)
        request = engine.do_burn("A1", "V1", transfer)
        engine.do_release("V1", request.request_id)
        engine.tick()  # mined, not final
        rej = engine.confirm_redeem("V1", request.request_id)
        assert isinstance(rej, Rejection) and rej.reason == "not-final"


class TestReplayProtection:
    def test_release_proof_replay_rejected_for_fresh_burn(self):
        # vault tries to confirm a new burn with the old release's proof:
        # the new request's commitment differs, so the proof cannot verify
        engine = engine_with_supply()
        first = run_redeem(engine, amount=2_000_000_000)
        old_cm = first.transfer.statement.release_cm
        old_block = engine.block_of(old_cm.digest)
        old_path = engine.zcash.merkle_path(old_cm, old_block)

        transfer, _ = engine.build_burn("A1", "V1", 1_000_000_000)
        second = engine.do_burn("A1", "V1", transfer)
        rej = engine.confirm_redeem("V1", second.request_id,
                                    proof=(old_path, old_block))
        assert isinstance(rej, Rejection) and rej.reason == "bad-path"

    def test_identical_note_values_allow_replay(self):
        # the documented carve-out: a redeemer who reuses the same note
        # values hands the vault a second confirmation for free
        engine = engine_with_supply()
        amount = 2_000_000_000
        transfer, release_note = engine.build_burn("A1", "V1", amount)
        first = engine.do_burn("A1", "V1", transfer)
        assert engine.do_release("V1", first.request_id)
        for _ in range(engine.config.relay_k + 1):
            engine.tick()
        assert engine.confirm_redeem("V1", first.request_id) == OK

        transfer2, _ = engine.build_burn("A1", "V1", amount, reuse_note=release_note)
        second = engine.do_burn("A1", "V1", transfer2)
        released_before = engine.zec_totals()[1]
        # vault confirms without releasing again: same cm, old proof suffices
        assert engine.confirm_redeem("V1", second.request_id) == OK
        assert engine.zec_totals()[1] == released_before
        assert second.state == REDEEM_SUCCESS

    def test_release_reaches_its_redeemer_when_another_expects_it_too(self):
        # A2 burns with A1's release note values, so both wallets expect one
        # commitment: the scan still credits A1 when V1 releases it
        engine = make_engine(pairs=2)
        run_issue(engine, "A1", "V1")
        run_issue(engine, "A2", "V2")
        transfer, release_note = engine.build_burn("A1", "V1", 2_000_000_000)
        first = engine.do_burn("A1", "V1", transfer)
        transfer2, _ = engine.build_burn("A2", "V2", 2_000_000_000, reuse_note=release_note)
        assert not isinstance(engine.do_burn("A2", "V2", transfer2), Rejection)
        assert engine.do_release("V1", first.request_id)
        engine.tick()
        assert commit_note(release_note).digest in engine.actors["A1"].zcash.unspent


class TestEclipsedConfirm:
    def test_forged_release_proof_flagged(self):
        # an eclipsed relay finalizes a forged branch whose root commits the
        # burn's release note: the relay accepts the proof, but the true
        # chain never mined the release, so the confirm is a relay violation
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", MINTED)
        request = engine.do_burn("A1", "V1", transfer)
        engine.relayer_muted = True
        tree = CommitmentTree(depth=engine.zcash.pool.tree.depth)
        tree.append(request.transfer.statement.release_cm)
        parent = engine.relay.headers[engine.relay.best_tip]
        forged = tip = BlockHeader(parent.height + 1, parent.hash, tree.root(), 1,
                                   nonce=10**6)
        engine.relay.submit_header(forged)
        for _ in range(engine.config.relay_k):
            tip = BlockHeader(tip.height + 1, tip.hash, tip.tree_root, 1,
                              nonce=10**6 + tip.height)
            engine.relay.submit_header(tip)
        assert engine.relay.is_final(forged.hash)
        assert engine.confirm_redeem("V1", request.request_id,
                                     proof=(tree.path_at(0, 1), forged.hash)) == OK
        assert request.state == REDEEM_SUCCESS
        assert engine.zec_totals()[1] == 0
        assert collect_metrics(engine)["relay_violations"] == 1
        assert engine.events[-1] == (engine.now, "relay-violation", request.request_id)


# The hand-written trace grammars the lifecycle table replaced, kept as the
# oracle for the table-derived check.
ISSUE_SEQUENCE = re.compile(
    r"^requestLock(,lock)?"
    r",(mint,(confirmIssue|challengeIssue|confirmIssueTimeout)|mintTimeout)$"
)
REDEEM_SEQUENCE = re.compile(
    r"^burn,(challengeRedeem|(release,)?(confirmRedeem|confirmRedeemTimeout))$"
)


def accepts(kind, ops):
    return sequence_ok(kind, ops.split(","))


class TestInclusionClaim:
    def test_internal_node_rejected_without_violation(self):
        # the funding block of a depth-4 chain holds leaves 0 and 1; a path
        # one sibling short proves their parent node, which is no note, so
        # an honest relay rejects it and no relay violation is recorded
        engine = make_engine(tree_depth=4)
        funding = engine.zcash.main[1]
        for _ in range(engine.config.relay_k):
            engine.tick()
        assert engine.relay.is_final(funding)
        leaf0, leaf1 = engine.zcash.pool.tree.leaves
        node = NoteCommitment(digest(b"tree-node", leaf0, leaf1))
        short = MerklePath(0, engine.zcash.pool.tree.path_at(0, 2).siblings[1:])
        verdict = engine.check_inclusion_claim(node, short, funding)
        assert isinstance(verdict, Rejection) and verdict.reason == "bad-path"
        assert all(event[1] != "relay-violation" for event in engine.events)


class TestGrammarChecker:
    """The conformance checker itself must catch bad traces, or the
    randomized episodes would pass vacuously."""

    def test_rejects_double_confirm(self):
        assert accepts("issue", "requestLock,lock,mint,confirmIssue")
        assert not accepts("issue", "requestLock,lock,mint,confirmIssue,confirmIssue")
        assert not accepts("issue", "requestLock,lock,mint,confirmIssue,challengeIssue")

    def test_rejects_mint_without_request(self):
        assert not accepts("issue", "lock,mint,confirmIssue")
        assert not accepts("issue", "mint,confirmIssue")

    def test_rejects_release_after_challenge(self):
        assert accepts("redeem", "burn,release,confirmRedeem")
        assert accepts("redeem", "burn,confirmRedeem")  # proof reuse
        assert not accepts("redeem", "burn,challengeRedeem,release")
        assert not accepts("redeem", "burn,release,confirmRedeem,confirmRedeem")

    def test_table_matches_grammar_oracle(self):
        # every sequence of up to 5 request ops, for both request kinds
        assert len(LIFECYCLE) == 12
        oracles = {"issue": ISSUE_SEQUENCE, "redeem": REDEEM_SEQUENCE}
        accepted = {"issue": 0, "redeem": 0}
        for length in range(6):
            for ops in itertools.product(sorted(LIFECYCLE), repeat=length):
                text = ",".join(ops)
                for kind, oracle in oracles.items():
                    expected = oracle.fullmatch(text) is not None
                    assert sequence_ok(kind, list(ops)) == expected, (kind, text)
                    accepted[kind] += expected
        assert accepted == {"issue": 8, "redeem": 5}

    def test_flags_non_terminal_requests(self):
        engine = make_engine()
        engine.request_lock("A1", "V1")  # request left open
        errors = conformance_errors(engine)
        assert errors and "not terminal" in errors[0]

    def test_flags_a_second_close(self):
        engine = make_engine()
        request = run_issue(engine)
        assert conformance_errors(engine) == []
        engine.trace.append((engine.now, "V1", "confirmIssue", request.request_id,
                             AWAIT_ISSUE_CONFIRM, ISSUE_SUCCESS, OK))
        errors = conformance_errors(engine)
        assert len(errors) == 1 and "violates the grammar" in errors[0]
        assert errors[0].startswith(f"{request.request_id}: ")

    def test_flags_forever_pending_tx(self):
        engine = make_engine()
        request = run_issue(engine, confirm=False)
        errors = conformance_errors(engine)
        assert any("pending" in e for e in errors)
        assert any(request.request_id in e for e in errors)


class TestStateMachineModelCheck:
    """From every reachable request state, only the listed operations
    succeed; every other operation is rejected without side effects."""

    def snapshot(self, engine):
        ledger = engine.issuing.i_ledger
        return (
            engine.issuing.supply,
            dict(ledger.balances),
            dict(ledger.collateral),
            dict(ledger.warranties),
            {r: (q.state, q.terminal) for r, q in engine.requests.items()},
            {v: engine.registry.history_witness(v) for v in engine.registry.vaults},
        )

    def try_all_ops(self, engine, request_id, allowed):
        ops = {
            "requestLock": lambda: engine.request_lock("A1", "V1"),
            "lock": lambda: engine.do_lock("A1", request_id, 1_000),
            "confirmIssue": lambda: engine.confirm_issue("V1", request_id),
            "challengeIssue": lambda: engine.challenge_issue("V1", request_id),
            "confirmRedeem": lambda: engine.confirm_redeem("V1", request_id),
            "challengeRedeem": lambda: engine.challenge_redeem("V1", request_id),
        }
        for name, op in ops.items():
            if name in allowed:
                continue
            before = self.snapshot(engine)
            result = op()
            assert isinstance(result, Rejection), (name, result)
            assert self.snapshot(engine) == before, f"{name} had side effects"

    def test_awaiting_mint_rejects_confirms(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        assert request.state == AWAITING_MINT
        # second requestLock is legal protocol-wise but vault-busy here
        self.try_all_ops(engine, request.request_id, allowed={"lock"})

    def test_await_issue_confirm_rejects_lock_and_redeem_ops(self):
        engine = make_engine()
        request = run_issue(engine, confirm=False)
        assert request.state == AWAIT_ISSUE_CONFIRM
        self.try_all_ops(engine, request.request_id,
                         allowed={"confirmIssue", "challengeIssue"})

    def test_terminal_states_reject_everything(self):
        engine = make_engine()
        request = run_issue(engine)
        assert request.terminal
        engine.submit_poc("V1")
        self.try_all_ops(engine, request.request_id, allowed={"requestLock"})

    def test_await_redeem_confirm_rejects_issue_ops(self):
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", 1_000_000)
        request = engine.do_burn("A1", "V1", transfer)
        assert request.state == AWAIT_REDEEM_CONFIRM
        engine.submit_poc("V1")
        self.try_all_ops(engine, request.request_id,
                         allowed={"confirmRedeem", "challengeRedeem", "requestLock"})



# (engine method, trace op, arguments after the actor and request id)
GUARDED_OPS = [("do_lock", "lock", (LOCK,)), ("do_mint", "mint", (None,)),
               ("confirm_issue", "confirmIssue", ()),
               ("challenge_issue", "challengeIssue", ()), ("do_release", "release", ()),
               ("confirm_redeem", "confirmRedeem", ()),
               ("challenge_redeem", "challengeRedeem", ())]


class TestRequestGuard:
    """Every op on an existing request passes the one guard: an unknown id,
    the wrong party or a request of the other kind gets one traced
    `no-such-request` row and changes no request."""

    @pytest.mark.parametrize("case", ["unknown-id", "wrong-party", "wrong-kind"])
    @pytest.mark.parametrize("method, op, args", GUARDED_OPS,
                             ids=[method for method, _, _ in GUARDED_OPS])
    def test_rejected_by_the_guard(self, method, op, args, case):
        engine = engine_with_supply()
        engine.submit_poc("V1")
        issue = engine.request_lock("A1", "V1")
        transfer, _ = engine.build_burn("A1", "V1", 1_000_000)
        redeem = engine.do_burn("A1", "V1", transfer)
        step = LIFECYCLE[op]
        party, other = ("A1", "V1") if step.party == "requester" else ("V1", "A1")
        own, foreign = (issue, redeem) if step.kind == "issue" else (redeem, issue)
        actor, request_id = {"unknown-id": (party, "R999"),
                             "wrong-party": (other, own.request_id),
                             "wrong-kind": (party, foreign.request_id)}[case]
        requests = copy.deepcopy(engine.requests)
        rows = len(engine.trace_rows())
        result = getattr(engine, method)(actor, request_id, *args)
        assert result == Rejection("no-such-request")
        assert engine.trace_rows()[rows:] == [
            (engine.now, actor, op, request_id, "", "", "rejected:no-such-request")]
        assert engine.requests == requests


class TestStatementsFromNonVaults:
    @pytest.mark.parametrize("method, op", [("submit_poc", "submitPOC"),
                                            ("submit_pob", "submitPOB"),
                                            ("submit_poi", "submitPOI")])
    @pytest.mark.parametrize("name", ["A1", "X9"], ids=["user", "unknown-actor"])
    def test_traced_as_unknown_vault(self, method, op, name):
        # a statement from a name the registry does not hold is a traced
        # rejection, never a KeyError
        engine = make_engine()
        vaults = dict(engine.registry.vaults)
        rej = getattr(engine, method)(name)
        assert isinstance(rej, Rejection) and rej.reason == "unknown-vault"
        assert engine.trace[-1][1:3] == (name, op)
        assert engine.trace[-1][-1] == "rejected:unknown-vault"
        assert engine.registry.vaults == vaults


class TestSetup:
    def test_actor_added_twice_is_internal_error(self):
        params = RegistryParams(v_max=100, f=Fraction(2, 100), sigma_std=Fraction(3, 2),
                                i_w=5)
        engine = Engine(ProtocolConfig(params), 1)
        account = engine.add_actor("A", zec_notes=(100,), i_balance=10)
        with pytest.raises(ProtocolError, match="actor 'A' added twice"):
            engine.add_actor("A", zec_notes=(100,), i_balance=10)
        engine.start()
        assert engine.actors["A"] is account
        assert account.zcash.balance() == 100
        assert engine.issuing.i_ledger.balance("A") == 10

    def test_add_actor_after_start_is_internal_error(self):
        engine = make_engine()
        with pytest.raises(ProtocolError, match="before start"):
            engine.add_actor("A9")
        assert "A9" not in engine.actors

    def test_second_start_is_internal_error(self):
        engine = make_engine()
        height = engine.zcash.height
        with pytest.raises(ProtocolError, match="already started"):
            engine.start()
        assert engine.zcash.height == height


def full_scan_deadlines(engine):
    """The full request scan `_enforce_deadlines` replaced: the oracle."""
    for request in engine.requests.values():
        step = TIMEOUTS.get((request.kind, request.state))
        if (step is None or request.terminal
                or engine.now <= getattr(request, step.deadline)):
            continue
        engine._advance(request, step.op, SYSTEM)


def engine_with_due_requests(pairs=5):
    """`pairs` vaults, each with an unminted issue and an unreleased redeem
    open at once and due on the same tick (delta_mint = delta_confirm_redeem).
    The issues are opened in reverse vault order and the redeems after them
    in vault order, so creation order (R6..R15) is neither the vault slots'
    order nor string order."""
    engine = make_engine(pairs=pairs)
    names = [(f"V{i}", f"A{i}") for i in range(1, pairs + 1)]
    locks = [engine.request_lock(user, vault) for vault, user in names]
    for (vault, user), request in zip(names, locks):
        assert engine.do_lock(user, request.request_id, LOCK)
    for _ in range(engine.config.relay_k + 1):
        engine.tick()
    for (vault, user), request in zip(names, locks):
        transfer = engine.build_mint(request.request_id)
        assert engine.do_mint(user, request.request_id, transfer)
        assert engine.confirm_issue(vault, request.request_id) == OK
    due = [engine.request_lock(user, vault) for vault, user in reversed(names)]
    for vault, user in names:
        transfer, _ = engine.build_burn(user, vault, 1_000_000_000)
        due.append(engine.do_burn(user, vault, transfer))
    assert not any(isinstance(request, Rejection) for request in due)
    return engine, due


class TestDeadlineOrder:
    def test_due_together_fire_in_creation_order(self):
        engine, due = engine_with_due_requests()
        oracle, _ = engine_with_due_requests()
        oracle._enforce_deadlines = lambda: full_scan_deadlines(oracle)
        ids = [request.request_id for request in due]
        assert ids == [f"R{n}" for n in range(6, 16)]
        assert len({request.deadline_mint or request.deadline_confirm
                    for request in due}) == 1
        fired = []
        while not all(request.terminal for request in due):
            rows = engine.tick()
            assert rows == oracle.tick()
            fired += rows
        tick = engine.now
        assert fired == [(tick, "mint-timeout" if request.kind == "issue"
                          else "confirm-redeem-timeout", request.request_id)
                         for request in due]
        assert engine.trace == oracle.trace and engine.events == oracle.events


def unregistered_engine():
    """An engine with vault actor V1 (i = COLLATERAL) and user A1, started,
    with no vault registered yet."""
    params = RegistryParams(v_max=10_000_000_000, f=Fraction(2, 100),
                            sigma_std=Fraction(3, 2), i_w=5)
    engine = Engine(ProtocolConfig(params, relay_k=3, tree_depth=8), 7)
    engine.oracle.set_rate(0, Fraction(2, 1))
    engine.add_actor("V1", zec_notes=(20_000_000_000,), i_balance=COLLATERAL)
    engine.add_actor("A1", zec_notes=(10_000_000_000,), i_balance=100)
    engine.start()
    return engine


def last_row(engine):
    return engine.trace_rows()[-1]


def orphan_block(engine, block_hash):
    """Reorg the backing chain (not the relay) onto a longer side branch
    that forks just below `block_hash`."""
    chain = engine.zcash
    tip = chain.blocks[block_hash].header.parent
    for _ in range(chain.height - chain.blocks[block_hash].header.height + 2):
        tip = chain.mine_block(parent_hash=tip, txs=[]).hash
    assert not isinstance(chain.reorg_to(tip), Rejection)
    assert not chain.block_on_main(block_hash)


class TestRegistration:
    """A refused registration is one traced rejection and records no vault."""

    @pytest.mark.parametrize("name, collateral, reason", [
        ("X9", COLLATERAL, "unknown-actor"),
        ("V1", COLLATERAL + 1, "insufficient-i"),
        ("V1", 0, "zero-collateral"),
    ], ids=["unknown-actor", "collateral-above-i", "zero-collateral"])
    def test_refused(self, name, collateral, reason):
        engine = unregistered_engine()
        ledger = engine.issuing.i_ledger
        total = engine.total_i()
        rej = engine.register_vault(name, collateral)
        assert rej == Rejection(reason)
        assert last_row(engine) == (engine.now, name, "registerVault", "", "", "",
                                    f"rejected:{reason}")
        assert engine.registry.vaults == {}
        assert ledger.collateral == {} and ledger.balance("V1") == COLLATERAL
        assert engine.total_i() == total

    def test_second_registration_refused(self):
        engine = unregistered_engine()
        assert engine.register_vault("V1", COLLATERAL // 2) == "V1"
        record = engine.registry.vaults["V1"]
        rej = engine.register_vault("V1", COLLATERAL // 2)
        assert rej == Rejection("already-registered")
        assert last_row(engine)[-1] == "rejected:already-registered"
        assert engine.registry.vaults == {"V1": record}
        assert engine.issuing.i_ledger.collateral_of("V1") == COLLATERAL // 2


class TestRequestOpsAgainstBadInput:
    def test_burn_to_a_name_that_is_no_vault(self):
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", 1_000_000)
        rej = engine.do_burn("A1", "X9", transfer)
        assert rej == Rejection("unknown-vault")
        assert last_row(engine)[-1] == "rejected:unknown-vault"

    def test_request_id_none_is_traced_as_empty(self):
        engine = make_engine()
        assert engine.confirm_issue("V1", None) == Rejection("no-such-request")
        assert last_row(engine) == (engine.now, "V1", "confirmIssue", "", "", "",
                                    "rejected:no-such-request")

    def test_lock_after_mint_timeout_is_bad_state(self):
        # a mint-timeout close leaves the state at AwaitingMint: only the
        # close itself keeps the lock from paying
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        engine.run_until(request.deadline_mint + 1)
        assert request.close_reason == "mint-timeout"
        balance = engine.actors["A1"].zcash.balance()
        rej = engine.do_lock("A1", request.request_id, LOCK)
        assert rej == Rejection("bad-state")
        assert request.lock_note is None and engine.zcash.mempool == []
        assert engine.actors["A1"].zcash.balance() == balance

    def test_lock_from_a_note_not_on_chain(self):
        # a wallet note the chain never mined is never selected: a lock only
        # it could cover is short of funds, and the mined note pays a lock
        # it covers
        engine = make_engine()
        wallet = engine.actors["A1"].zcash
        ghost = Note(wallet.address, 50_000_000_000, b"\x01" * 32)
        wallet.credit(ghost)
        request = engine.request_lock("A1", "V1")
        rej = engine.do_lock("A1", request.request_id, 20_000_000_000)
        assert rej == Rejection("insufficient-funds")
        assert last_row(engine) == (engine.now, "A1", "lock", request.request_id,
                                    AWAITING_MINT, AWAITING_MINT, "rejected:insufficient-funds")
        assert request.lock_note is None and "lock" not in request.done
        assert engine.zcash.mempool == []
        assert not isinstance(engine.do_lock("A1", request.request_id, LOCK), Rejection)
        [tx] = engine.zcash.mempool
        assert [s.witness.note.value for s in tx.spends] == [10_000_000_000]
        assert ghost in wallet.unspent.values()

    def test_release_of_a_ciphertext_that_does_not_decrypt(self):
        engine = engine_with_supply()
        transfer, _ = engine.build_burn("A1", "V1", MINTED)
        request = engine.do_burn("A1", "V1", corrupt_ciphertext(transfer))
        rej = engine.do_release("V1", request.request_id)
        assert rej == Rejection("cannot-decrypt")
        assert last_row(engine)[-1] == "rejected:cannot-decrypt"
        assert not request.released

    def test_release_by_a_vault_short_of_zec(self):
        engine = engine_with_supply()
        request = run_redeem(engine, release=False, confirm=False)
        engine.actors["V1"].zcash.unspent.clear()  # the vault spent its ZEC elsewhere
        rej = engine.do_release("V1", request.request_id)
        assert rej == Rejection("insufficient-funds")
        assert last_row(engine)[-1] == "rejected:insufficient-funds"
        assert not request.released and engine.zcash.mempool == []


class TestBuildMintPreconditions:
    """`build_mint` is an honest issuer's builder: asked too early, or after
    the lock's block left the main chain, it is a caller's error."""

    def test_before_the_lock(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        with pytest.raises(ProtocolError, match="no lock recorded"):
            engine.build_mint(request.request_id)

    def test_before_the_lock_is_mined(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        engine.do_lock("A1", request.request_id, LOCK)
        with pytest.raises(ProtocolError, match="lock not mined yet"):
            engine.build_mint(request.request_id)

    def test_after_a_reorg_orphans_the_lock(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        engine.do_lock("A1", request.request_id, LOCK)
        for _ in range(engine.config.relay_k + 1):
            engine.tick()
        lock_cm = commit_note(request.lock_note).digest
        orphan_block(engine, engine.block_of(lock_cm))
        assert engine.block_of(lock_cm) is None  # the lock is back in the mempool
        with pytest.raises(ProtocolError, match="lock not mined yet"):
            engine.build_mint(request.request_id)

    def test_an_orphaned_lock_backs_nothing_until_mined_again(self):
        engine = make_engine()
        request = engine.request_lock("A1", "V1")
        engine.do_lock("A1", request.request_id, LOCK)
        engine.tick()
        assert engine.zec_totals() == (LOCK, 0)
        orphan_block(engine, engine.block_of(request.lock_cm))
        assert engine.zec_totals() == (0, 0)  # the lock is back in the mempool
        engine.tick()
        assert engine.zec_totals() == (LOCK, 0)

    def test_confirm_redeem_after_a_reorg_orphans_the_release(self):
        engine = engine_with_supply()
        request = run_redeem(engine, confirm=False)
        release_block = engine.block_of(request.transfer.statement.release_cm.digest)
        assert engine.relay.is_final(release_block)
        assert engine.zec_totals()[1] == RELEASED
        orphan_block(engine, release_block)
        assert engine.zec_totals()[1] == 0  # the release is back in the mempool
        rej = engine.confirm_redeem("V1", request.request_id)
        assert rej == Rejection("release-not-mined")
        assert last_row(engine)[-1] == "rejected:release-not-mined"
        assert request.state == AWAIT_REDEEM_CONFIRM


class TestWalletFollowsReorgs:
    def test_change_of_an_orphaned_payment_waits_for_its_block(self):
        # A1's lock pays its change back to A1; a reorg orphans the block
        # that mined it, and the lock waits in the mempool. Nothing A1 holds
        # is on the chain until the next tick mines the lock again, so a
        # second lock is short of funds, never an unknown note, and the same
        # lock is paid after that tick
        engine = make_engine(pairs=2)
        first = engine.request_lock("A1", "V1")
        assert not isinstance(engine.do_lock("A1", first.request_id, LOCK), Rejection)
        engine.tick()
        orphan_block(engine, engine.block_of(first.lock_cm))
        assert engine.block_of(first.lock_cm) is None and len(engine.zcash.mempool) == 1
        second = engine.request_lock("A1", "V2")
        amount = 1_000_000_000
        assert engine.do_lock("A1", second.request_id, amount) == Rejection("insufficient-funds")
        assert last_row(engine)[-1] == "rejected:insufficient-funds"
        engine.tick()
        assert engine.block_of(first.lock_cm) is not None
        assert not isinstance(engine.do_lock("A1", second.request_id, amount), Rejection)
        assert last_row(engine)[-1] == OK
        # each engine wallet reads its own pool's index
        account = engine.actors["A1"]
        assert account.zcash.leaf_index is engine.zcash.pool.leaf_index
        assert account.wzec.leaf_index is engine.issuing.pool.leaf_index


class TestRelayFollowsReorgs:
    def test_relay_takes_the_new_branch_and_a_later_lock_mints(self):
        # the honest relayers forward each block a reorg applies, so the
        # relay follows the new branch and a lock mined on it turns final
        engine = make_engine()
        engine.run_until(2)
        orphan_block(engine, engine.zcash.tip.header.hash)
        engine.run_until(7)
        assert engine.relay.best_tip == engine.zcash.tip.header.hash
        request = run_issue(engine)
        assert engine.relay.is_final(request.transfer.statement.inclusion_block)
        assert request.state == ISSUE_SUCCESS
        assert engine.issuing.supply == MINTED


class TestCloseEffects:
    def test_auto_confirmed_mint_the_vault_cannot_open_pays_it_nothing(self):
        # the lock note goes to the vault's wallet only when the vault can
        # read it; a silent vault's auto-confirm of a garbled ciphertext
        # still mints, but the vault learns no spendable note
        engine = make_engine()
        request = run_issue(engine, confirm=False, edit=corrupt_ciphertext)
        engine.run_until(request.deadline_confirm + 1)
        assert request.close_reason == "confirmed"
        lock_cm = commit_note(request.lock_note).digest
        assert lock_cm not in engine.actors["V1"].zcash.unspent
        assert engine.actors["V1"].zcash.balance() == 20_000_000_000

    def test_forged_branch_recommitting_a_true_commitment_is_a_violation(self):
        # the forged block commits a leaf the true chain holds too; the
        # proof is still into a block the true chain never mined
        engine = make_engine(tree_depth=4)
        leaf = NoteCommitment(engine.zcash.pool.tree.leaves[0])
        engine.relayer_muted = True
        tree = CommitmentTree(depth=4)
        tree.append(leaf)
        parent = engine.relay.headers[engine.relay.best_tip]
        forged = tip = BlockHeader(parent.height + 1, parent.hash, tree.root(), 1,
                                   nonce=10**6)
        for _ in range(engine.config.relay_k + 1):
            engine.relay.submit_header(tip)
            tip = BlockHeader(tip.height + 1, tip.hash, tip.tree_root, 1,
                              nonce=10**6 + tip.height)
        assert engine.relay.is_final(forged.hash)
        verdict = engine.check_inclusion_claim(leaf, tree.path_at(0, 1), forged.hash)
        assert not isinstance(verdict, Rejection)
        assert engine.events[-1] == (engine.now, "relay-violation", "inclusion-forgery")


class TestSequenceOk:
    def test_kinds_share_no_state(self):
        # sequence_ok rejects a row of the other kind by its from-state alone
        states = {kind: {state for step in LIFECYCLE.values() if step.kind == kind
                         for state in (step.before, step.after)}
                  for kind in ("issue", "redeem")}
        assert states["issue"] & states["redeem"] == set()

    def test_op_of_the_other_kind(self):
        assert not sequence_ok("issue", ["requestLock", "burn"])
        assert not sequence_ok("redeem", ["requestLock"])
        assert not sequence_ok("redeem", ["burn", "confirmIssue"])

    def test_unknown_op(self):
        assert not sequence_ok("issue", ["requestLock", "bogus"])
        assert not sequence_ok("redeem", ["bogus"])
