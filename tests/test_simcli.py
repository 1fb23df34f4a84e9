import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb, isclose, sqrt
from pathlib import Path
from types import SimpleNamespace

import pytest

import shieldbridge
from shieldbridge import simcli, splitting
from shieldbridge.notes import commit_note
from shieldbridge.protocol import Engine, ProtocolConfig, ProtocolError, conformance_errors
from shieldbridge.simcli import (
    ActorSpec,
    ConfigError,
    IssueBot,
    RedeemBot,
    VaultBot,
    bundled_scenario_names,
    collect_metrics,
    load_bundled_scenario,
    load_scenario,
    main,
    metrics_to_csv,
    parse_config,
    run_privacy_analysis,
    run_relay_safety,
    run_scenario,
    trace_to_csv,
)
from shieldbridge.splitting import (
    ATTRIBUTED_TAGS,
    SplitConfig,
    check_bounds,
    posterior_ratio,
    prior_pmf,
)
from shieldbridge.vault_registry import RegistryParams
from shieldbridge.zcash_chain import Rejection


class TestConfigParser:
    def test_basic_entries(self):
        entries = parse_config("a.b = 1\n# comment\nc = 2/3  # trailing\n")
        assert entries == {"a.b": "1", "c": "2/3"}

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("a = 1\n\nbroken line\n")

    def test_duplicate_key_reports_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("a = 1\na = 2\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="params.v_max"):
            load_scenario("seed = 1\nticks = 5\n")

    def test_bad_rational(self):
        text = load_bundled_scenario("issue_happy").replace(
            "params.f = 2/100", "params.f = two%")
        with pytest.raises(ConfigError, match="params.f"):
            load_scenario(text)

    def test_misspelled_key_rejected(self):
        text = load_bundled_scenario("issue_happy").replace(
            "params.v_max", "params.vmax")
        with pytest.raises(ConfigError, match="unrecognized key 'params.vmax'"):
            load_scenario(text)

    def test_misspelled_actor_field_rejected(self):
        text = load_bundled_scenario("issue_happy") + "actor.A1.ammount = 3\n"
        with pytest.raises(ConfigError, match="actor.A1.ammount"):
            load_scenario(text)

    def test_actor_keys_without_role_rejected(self):
        text = load_bundled_scenario("issue_happy") + "actor.A9.zec = 3\n"
        with pytest.raises(ConfigError, match="actor.A9.zec: actor 'A9' has no actor.A9.role"):
            load_scenario(text)

    @pytest.mark.parametrize("old, new, message", [
        ("actor.A1.role = issuer", "actor.A1.role = isuer",
         "actor.A1.role: unknown role 'isuer'"),
        ("actor.V1.strategy = honest", "actor.V1.strategy = silnt",
         "actor.V1.strategy: role 'vault' has no strategy 'silnt'"),
        ("actor.A1.strategy = honest", "actor.A1.strategy = double_redeem",
         "actor.A1.strategy: role 'issuer' has no strategy 'double_redeem'"),
        ("actor.A1.vault = V1", "actor.A1.vault = V9",
         "actor.A1.vault: 'V9' names no vault actor"),
        ("relay.k = 6", "relay.k = 6\nzcash.block_interval = 1",
         "unrecognized key 'zcash.block_interval'"),
        ("params.f = 2/100", "params.f = 1", "fee must satisfy 0 <= f < 1"),
        ("params.sigma_std = 3/2", "params.sigma_std = 1/2", "sigma_std must be >= 1"),
        ("oracle.rate.0 = 2/1", "oracle.rate.0 = 0",
         "oracle.rate.0: rate must be positive, got 0"),
        ("relay.k = 6", "relay.k = 6\nzcash.tree_depth = 0", "tree_depth must be >= 1"),
        ("relay.k = 6", "relay.k = 6\nzcash.fee = -1", "zc_fee must be >= 0"),
        ("params.i_w = 5", "params.i_w = -1", "i_w must be >= 0"),
        ("params.i_w = 5", "params.i_w = 5\nparams.liq_margin = -1/10",
         "liq_margin must be >= 0"),
        ("actor.A1.zec = 10000000000", "actor.A1.zec = -1",
         "actor.A1.zec must be >= 0"),
        ("actor.A1.zec = 10000000000", "actor.A1.zec = 18446744073709551616",
         "actor.A1.zec must be < 2**64"),
        ("actor.A1.i = 100", "actor.A1.i = -1", "actor.A1.i must be >= 0"),
        ("oracle.rate.0 = 2/1", "oracle.rate.5 = 2/1", "missing oracle.rate.0"),
        ("oracle.rate.0 = 2/1", "oracle.rate.0 = 2/1\noracle.rate.30 = 3/1\noracle.rate.030 = 7/1",
         "oracle.rate.030: the tick must be ASCII digits without leading zeros"),
        ("oracle.rate.0 = 2/1", "oracle.rate.0 = 2/1\noracle.rate.\u00b2 = 1/1",
         "oracle.rate.\u00b2: the tick must be ASCII digits without leading zeros"),
        ("relay.k = 6", "relay.k = -1", "relay_k must be >= 1"),
        ("relay.k = 6", "relay.k = 6\nprotocol.delta_mint = 0", "delta_mint must be >= 1"),
        ("ticks = 30", "ticks = -1", "ticks must be >= 0"),
        ("relay.k = 6", "relay.k = 6\nrelay.mute_honest_at = -1",
         "relay.mute_honest_at must be >= 0"),
        ("actor.V1.collateral = 29400000000", "actor.V1.collateral = 99400000000",
         "actor.V1.collateral: 99400000000 exceeds actor.V1.i = 29400000100"),
    ], ids=["unknown-role", "unknown-vault-strategy", "redeem-strategy-for-issuer",
            "unknown-vault", "block-interval-key", "fee-out-of-range",
            "sigma-below-one", "oracle-rate-nonpositive", "tree-depth-zero",
            "zcash-fee-negative", "warranty-negative", "liq-margin-negative",
            "actor-zec-negative", "actor-zec-above-64-bits", "actor-i-negative",
            "oracle-no-tick-0-rate", "oracle-tick-leading-zero", "oracle-tick-not-ascii",
            "relay-k-negative", "delta-mint-zero", "ticks-negative",
            "mute-honest-at-negative", "vault-collateral-above-i"])
    def test_inconsistent_actor_or_key_rejected(self, old, new, message):
        text = load_bundled_scenario("issue_happy")
        assert old in text
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_scenario(text.replace(old, new))

    @pytest.mark.parametrize("strategy", ["no_lock", "double_redeem"])
    def test_user_takes_issue_and_redeem_strategies(self, strategy):
        # a user plays an IssueBot and a RedeemBot, so either half's
        # strategies are valid
        text = load_bundled_scenario("redeem_happy").replace(
            "actor.A1.strategy = honest", f"actor.A1.strategy = {strategy}")
        cfg = load_scenario(text)
        assert [(a.name, a.role, a.strategy) for a in cfg.actors] == [
            ("V1", "vault", "honest"), ("A1", "user", strategy)]

    def test_actors_keep_role_line_order(self):
        # actor order decides which engine RNG draws give each actor its
        # addresses, so it follows the role lines, not each actor's first key
        text = load_bundled_scenario("issue_happy")
        moved = "actor.A1.amount = 5000000000\n"
        shuffled = moved + text.replace(moved, "")
        cfg = load_scenario(shuffled)
        assert [a.name for a in cfg.actors] == ["V1", "A1"]
        assert cfg == load_scenario(text)


class TestBundledScenarios:
    def test_all_listed(self):
        names = bundled_scenario_names()
        assert "issue_happy" in names and "relay_eclipse" in names
        assert len(names) >= 12

    @pytest.mark.parametrize("name", [
        "issue_happy", "redeem_happy", "issue_mint_timeout", "issue_challenge",
        "issue_vault_silent", "redeem_vault_silent", "redeem_challenge",
        "vault_wrong_note", "replay_lock", "replay_release",
        "replay_release_carveout", "relay_eclipse", "oracle_spike",
        "oracle_crash",
    ])
    def test_scenario_assertions_pass(self, name):
        result = run_scenario(load_scenario(load_bundled_scenario(name)))
        assert result.ok, result.failures

    def test_i_conservation_across_all_scenarios(self):
        for name in bundled_scenario_names():
            result = run_scenario(load_scenario(load_bundled_scenario(name)))
            metrics = result.metrics
            # every unit of i is in a balance, collateral, warranty or the
            # liquidation pool; nothing leaks
            start_total = sum(
                spec.i for spec in
                load_scenario(load_bundled_scenario(name)).actors)
            assert metrics["total_i"] == start_total, name

    def test_no_value_creation_or_deficit_covered(self):
        # honest scenarios: finalized locks minus releases back the supply;
        # byzantine ones: any deficit is covered by the vault's remaining
        # collateral plus transfers, valued at the oracle rate
        for name in bundled_scenario_names():
            cfg = load_scenario(load_bundled_scenario(name))
            result = run_scenario(cfg)
            deficit = result.metrics["backing_deficit"]
            if deficit == 0:
                continue
            rate = dict(cfg.oracle_script)[max(t for t, _ in cfg.oracle_script)]
            cover = (result.metrics["liquidation_pool"]
                     + sum(v for k, v in result.metrics.items()
                           if k.startswith("collateral.")))
            assert deficit * rate <= cover, name

    def test_determinism_byte_identical(self):
        for name in ("issue_happy", "relay_eclipse", "replay_release"):
            cfg = load_scenario(load_bundled_scenario(name))
            a = run_scenario(cfg)
            b = run_scenario(cfg)
            assert a.trace_csv == b.trace_csv
            assert a.metrics_csv == b.metrics_csv

    def test_determinism_across_processes(self, tmp_path):
        # string hashing differs per process; no output may depend on it
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from shieldbridge.simcli import (bundled_scenario_names,\n"
            "    load_bundled_scenario, load_scenario, run_scenario)\n"
            "for name in bundled_scenario_names():\n"
            "    result = run_scenario(load_scenario(load_bundled_scenario(name)))\n"
            "    out = Path(sys.argv[1]) / name\n"
            "    out.mkdir(parents=True)\n"
            "    (out / 'trace.csv').write_text(result.trace_csv)\n"
            "    (out / 'metrics.csv').write_text(result.metrics_csv)\n"
        )
        src = str(Path(shieldbridge.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH")) if p))
            out = tmp_path / hash_seed
            subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                           check=True, timeout=120)
            outputs.append({f.relative_to(out): f.read_bytes()
                            for f in sorted(out.rglob("*.csv"))})
        assert len(outputs[0]) == 2 * len(bundled_scenario_names())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_digests_match_recorded(self):
        # the byte-identical contract: each scenario's trace.csv and
        # metrics.csv hash to the values recorded with the benchmark
        golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
        recorded = json.loads(golden.read_text())["scenarios"]
        assert sorted(recorded) == sorted(bundled_scenario_names())
        for name in bundled_scenario_names():
            result = run_scenario(load_scenario(load_bundled_scenario(name)))
            got = {"trace": hashlib.sha256(result.trace_csv.encode()).hexdigest(),
                   "metrics": hashlib.sha256(result.metrics_csv.encode()).hexdigest()}
            assert got == recorded[name], name

    def test_eclipse_claim_not_verified_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(Engine, "check_inclusion_claim",
                            lambda self, cm, path, block_hash: Rejection("bad-path"))
        cfg = load_scenario(load_bundled_scenario("relay_eclipse"))
        with pytest.raises(ProtocolError, match="rejected:bad-path"):
            run_scenario(cfg)

    def test_metrics_collected_once_per_run(self, monkeypatch):
        # the expects and metrics.csv read the same dict
        calls = []

        def counting(engine):
            calls.append(engine)
            return collect_metrics(engine)

        monkeypatch.setattr(simcli, "collect_metrics", counting)
        result = run_scenario(load_scenario(load_bundled_scenario("redeem_happy")))
        assert result.ok, result.failures
        assert len(calls) == 1

    def test_different_seed_changes_ids_not_outcomes(self):
        cfg = load_scenario(load_bundled_scenario("issue_happy"))
        a = run_scenario(cfg, seed=1)
        b = run_scenario(cfg, seed=2)
        assert a.ok and b.ok
        assert a.trace_csv == b.trace_csv  # same schedule, same ops


def strategy_run(vault: str, issuer: str, redeemer: str) -> str:
    """One short run in the shape of criterion 6's episodes: a vault bot, and
    an IssueBot and a RedeemBot on one actor; the redeemer's second round, if
    its strategy has one, uses at2/amount2. Returns the SHA-256 of
    trace.csv + metrics.csv."""
    params = RegistryParams(v_max=100, f=Fraction(2, 100), sigma_std=Fraction(3, 2),
                            i_w=5, poc_validity=100, pob_period=100)
    engine = Engine(ProtocolConfig(params, relay_k=2, delta_mint=8, delta_confirm_issue=2,
                                   delta_confirm_redeem=8, zc_fee=1, tree_depth=6), 7)
    engine.oracle.set_rate(0, Fraction(2, 1))
    engine.add_actor("V1", zec_notes=(500,), i_balance=344)
    engine.add_actor("A1", zec_notes=(400,), i_balance=50)
    bots = [VaultBot(ActorSpec("V1", "vault", vault)),
            IssueBot(ActorSpec("A1", "issuer", issuer, vault="V1", amount=50, at=2)),
            RedeemBot(ActorSpec("A1", "redeemer", redeemer, vault="V1", amount=20,
                                at=14, amount2=10, at2=26))]
    engine.start()
    engine.register_vault("V1", 294)
    engine.submit_poc("V1")

    def phase(eng):
        for bot in bots:
            bot.step(eng)

    engine.run_until(44, phase)
    return hashlib.sha256((trace_to_csv(engine.trace_rows())
                           + metrics_to_csv(engine)).encode()).hexdigest()


class TestStrategyDigests:
    # strategies no bundled scenario plays; the digests pin each bot's
    # behaviour byte for byte
    @pytest.mark.parametrize("vault, issuer, redeemer, digest", [
        ("honest", "no_mint", "honest",
         "cb8fd4f3412905500b1b606c79fb96d23baf11cb32b3d93610ff4a1b545cec14"),
        ("honest", "random_rcm", "honest",
         "e456b22c8ef7632bbb030acd34c9e58a6578b42159c1e3c5597bdb03694fa714"),
        ("honest", "wrong_relation", "honest",
         "8885e41911398242d63f13d417a9db0bfdc1f4a0e05b5dd66316f73265d467af"),
        ("spurious_challenge", "honest", "honest",
         "7bbede2f408b507c64768176b149c511874810983e558e1d92626db56c3f5e6a"),
        ("honest", "honest", "double_redeem",
         "9512b1bb049b5adaeb95f361099f9fa85b6e543e1a6c514c0a177ec6d33a2257"),
        ("honest", "honest", "reuse_release",
         "f3a6b5128304f52a7e3345a7b0bf9c7797fecfc93e4bc1754bec1c001c1b0b2c"),
    ], ids=["issuer-no_mint", "issuer-random_rcm", "issuer-wrong_relation",
            "vault-spurious_challenge", "redeemer-double_redeem",
            "redeemer-reuse_release"])
    def test_run_digest_matches_recorded(self, vault, issuer, redeemer, digest):
        assert strategy_run(vault, issuer, redeemer) == digest


class TestObserverHygiene:
    # witness-side values used by the bundled scenarios: lock amounts,
    # minted/released amounts, obligations
    WITNESS_DECIMALS = ("5000000000", "4900000000", "4802000000", "1960000000",
                        "2000000000")

    def test_traces_never_contain_witness_values(self):
        for name in bundled_scenario_names():
            result = run_scenario(load_scenario(load_bundled_scenario(name)))
            for value in self.WITNESS_DECIMALS:
                assert value not in result.trace_csv, (name, value)

    def test_issuing_public_log_clean(self):
        # the on-chain public record of mints, burns and transfers carries
        # commitments and ciphertexts, never amounts or obligations
        cfg = load_scenario(load_bundled_scenario("redeem_happy"))
        result = run_scenario(cfg)
        log = str(result.engine.issuing.public_log)
        for value in self.WITNESS_DECIMALS:
            assert value not in log
        registry_view = str(result.engine.registry.public_view())
        for value in self.WITNESS_DECIMALS:
            assert value not in registry_view


class TestPrivacyAnalysis:
    def test_end_to_end_each_vault_sees_one_piece(self):
        analysis = run_privacy_analysis(10, 8, seed=3, total=600)
        views = analysis["vault_views"]
        assert len(views) == 8
        assert sorted(views.values(), reverse=True) == sorted(
            analysis["pieces"], reverse=True)
        assert sorted(views.values(), reverse=True) == [256, 128, 64, 64, 32, 32, 0, 0]
        assert analysis["withheld"] == 24
        assert analysis["report"].all_pass

    def test_trace_hides_total_and_pieces(self):
        analysis = run_privacy_analysis(10, 8, seed=3, total=600)
        lines = analysis["trace_csv"].splitlines()[1:]
        fields = {field for line in lines for field in line.split(",")}
        for hidden in ("600", "256", "128", "64", "32", "24"):
            assert hidden not in fields

    def test_vault_inference_matches_posterior_ratio(self):
        # a vault that saw piece v reproduces exactly the posterior the
        # analysis module predicts: prior * ratio, normalized already
        from shieldbridge.splitting import posterior_pmf
        analysis = run_privacy_analysis(10, 8, seed=3, total=600)
        cfg: SplitConfig = analysis["cfg"]
        t = analysis["total"]
        for vault, piece in analysis["vault_views"].items():
            pmf = posterior_pmf(piece, cfg)
            assert sum(pmf.values()) == 1
            assert pmf[t] == prior_pmf(cfg.h, t) * posterior_ratio(t, piece, cfg)
            assert pmf[t] > 0  # the true total is always plausible

    def test_rejected_mint_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(Engine, "do_mint",
                            lambda self, *args: Rejection("statement-failed"))
        with pytest.raises(ProtocolError, match=r"not confirmed: R1 \(stalled\)"):
            run_privacy_analysis(7, 4, seed=9, total=5)

    def test_run_walks_the_grammar(self):
        analysis = run_privacy_analysis(10, 8, seed=3, total=600)
        engine = analysis["engine"]
        assert conformance_errors(engine) == []
        assert len(engine.requests) == 8
        assert all(request.close_reason == "confirmed"
                   for request in engine.requests.values())

    def test_desk_scale_refusal(self):
        with pytest.raises(ConfigError, match="desk-scale"):
            run_privacy_analysis(17, 4)


def reorg_depth_law(alpha: float, restart_behind: int) -> list[float]:
    """Pr[a round of run_relay_safety's race publishes at depth d], as
    law[d - 1]; the rest of the mass is the rounds that give up.

    A round opens with the adversary's first block, one below the public
    tip, so the deficit D (public blocks above the fork less the
    adversary's) starts at 0. Each later block is the adversary's with
    chance alpha (D - 1) or honest (D + 1, one more block to revert). The
    round publishes when D reaches -1, at depth 1 + its honest blocks, and
    gives up once D exceeds restart_behind. at[D] is the chance of deficit
    D just after the round's b-th honest block; from there the adversary
    mines j more blocks with chance alpha^j, so with
    tail[x] = sum over D >= x of at[D] * alpha^(D - x) the round publishes
    at depth b + 1 with chance alpha * tail[0], and the next honest block
    lands at D' with chance (1 - alpha) * tail[D' - 1]."""
    at = [1.0] + [0.0] * restart_behind
    law = []
    while sum(at) > 1e-13:
        tail = [0.0] * (restart_behind + 2)
        for x in range(restart_behind, -1, -1):
            tail[x] = at[x] + alpha * tail[x + 1]
        law.append(alpha * tail[0])
        at = [0.0] + [(1 - alpha) * tail[x - 1] for x in range(1, restart_behind + 1)]
    return law


class TestRelaySafetyHarness:
    def test_depth_law_is_the_catalan_law_below_the_barrier(self):
        # a round publishing after b honest blocks never trails by more than
        # b, so for b <= restart_behind the barrier cannot bite: Catalan(b)
        # paths of alpha^(b+1) * (1 - alpha)^b each. In all, a round
        # publishes with the gambler's-ruin chance of reaching -1 from 0
        # before restart_behind + 1
        for alpha, behind in ((0.33, 72), (0.45, 12)):
            law = reorg_depth_law(alpha, behind)
            for b in range(behind + 1):
                catalan = comb(2 * b, b) // (b + 1)
                assert isclose(law[b], catalan * alpha**(b + 1) * (1 - alpha)**b,
                               rel_tol=1e-9)
            r = alpha / (1 - alpha)
            assert isclose(sum(law), 1 - (1 - r) / (1 - r**(behind + 2)), rel_tol=1e-9)

    def test_reorg_depths_follow_the_exact_law(self):
        # criterion 8's 20 runs against the exact law, conditioned on a
        # publish: bins whose expected count is below 5 are pooled, the
        # rest of the tail into the last bin, and each bin holds at 3 sigma
        depths = Counter()
        for seed in range(200, 220):
            depths.update(run_relay_safety(n_blocks=10_000, alpha=0.33, k=24, seed=seed,
                                           restart_behind=72)["reorg_depths"])
        law = reorg_depth_law(0.33, 72)
        n, published = sum(depths.values()), sum(law)
        bins = []  # (chance, observed count)
        chance = observed = 0
        for depth, p in enumerate(law, start=1):
            chance += p / published
            observed += depths[depth]
            if n * chance >= 5:
                bins.append((chance, observed))
                chance = observed = 0
        observed += sum(count for depth, count in depths.items() if depth > len(law))
        last_chance, last_observed = bins.pop()
        bins.append((last_chance + chance, last_observed + observed))
        assert sum(count for _, count in bins) == n and len(bins) >= 8
        for p, count in bins:
            assert abs(count - n * p) <= 3 * sqrt(n * p * (1 - p)), (p, count)

    def test_small_run_no_flips(self):
        stats = run_relay_safety(n_blocks=800, alpha=0.30, k=24, seed=5)
        assert stats["finality_flips"] == 0
        assert stats["adversary_blocks"] > 0

    def test_adversary_share_tracks_alpha(self):
        stats = run_relay_safety(n_blocks=5_000, alpha=0.33, k=24, seed=1)
        assert abs(stats["adversary_blocks"] / 5_000 - 0.33) < 0.03

    def test_adversary_does_cause_shallow_reorgs(self):
        # the safety claim is not vacuous: with a tiny finality depth the
        # very same adversary dynamics do flip finality
        stats = run_relay_safety(n_blocks=2_000, alpha=0.45, k=1, seed=2,
                                 restart_behind=50)
        assert stats["finality_flips"] > 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_flips_are_the_final_heights_each_reorg_reverts(self, k):
        # a depth-d reorg orphans heights above its fork; the final ones
        # among them, d - k once d > k, each flip once
        for seed in range(3):
            stats = run_relay_safety(n_blocks=3_000, alpha=0.4, k=k, seed=seed)
            depths = stats["reorg_depths"]
            assert len(depths) == stats["reorgs"] > 0
            assert stats["finality_flips"] == sum(max(0, d - k) for d in depths)


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        assert main(["run", "--scenario", "issue_happy",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "metrics.csv").exists()

    def test_run_scenario_file_path(self, tmp_path):
        text = load_bundled_scenario("issue_happy")
        f = tmp_path / "custom.cfg"
        f.write_text(text)
        assert main(["run", "--scenario", str(f)]) == 0

    def test_run_failing_expectation_nonzero_exit(self, tmp_path):
        text = load_bundled_scenario("issue_happy").replace(
            "expect.final_supply = 4900000000", "expect.final_supply = 1")
        f = tmp_path / "bad.cfg"
        f.write_text(text)
        assert main(["run", "--scenario", str(f)]) == 1

    def test_check_bounds_exit(self):
        assert main(["check-bounds", "--h", "7", "--k", "4"]) == 0

    @pytest.mark.parametrize("h, k", [(17, 4), (20, 8)])
    def test_check_bounds_beyond_desk_scale(self, h, k, capsys):
        # the per-claim summary and the verdict, as at desk scale: one line
        # per claim plus the overall line, and no per-total output (h <= 20
        # here, so a mutant that walks every total fails a test_splitting
        # case instead of hanging; h = 51 and 64 are checked there)
        report = check_bounds(SplitConfig(h, k))
        assert main(["check-bounds", "--h", str(h), "--k", str(k)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(report.tally()) + 1
        assert lines[-1] == "overall: pass (alternate-reading rows excluded)"
        assert [line.split()[0] for line in lines if "FAIL" in line] == [
            "anonymity_floor[info]", "lemma2_ii[idx=m]"]

    @pytest.mark.parametrize("h, k", [(9, 2), (10, 8)])
    def test_check_bounds_summary_matches_expanded_rows(self, h, k, capsys):
        # the summary as it was built from every expanded row, claim by claim
        report = check_bounds(SplitConfig(h, k))
        by_claim = {}
        for row in report.rows:
            by_claim.setdefault(row.claim, []).append(row)
        lines = []
        for claim in sorted(by_claim):
            failed = [r for r in by_claim[claim] if not r.passed]
            status = "pass" if not failed else f"FAIL ({len(failed)}/{len(by_claim[claim])})"
            lines.append(f"{claim:32s} {status}")
        lines.append("overall: pass (alternate-reading rows excluded)")
        assert main(["check-bounds", "--h", str(h), "--k", str(k)]) == 0
        assert capsys.readouterr().out.splitlines() == lines
        assert any("FAIL" in line for line in lines)

    def test_privacy_summary_matches_expanded_rows(self, capsys):
        rows = list(check_bounds(SplitConfig(9, 2)).rows)
        failed = [r for r in rows if not r.passed]
        unattributed = [r for r in failed if not any(tag in r.claim for tag in ATTRIBUTED_TAGS)]
        assert main(["privacy", "--h", "9", "--k", "2", "--t", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"bound checks: {len(rows)} rows, {len(failed)} failures, "
            f"{len(unattributed)} outside documented readings")

    def test_privacy_outputs(self, tmp_path):
        assert main(["privacy", "--h", "7", "--k", "4", "--t", "5",
                     "--seed", "9", "--out", str(tmp_path)]) == 0
        for name in ("bounds_report.csv", "distribution.csv", "trace.csv",
                     "vault_views.csv"):
            assert (tmp_path / name).exists()
        header = (tmp_path / "bounds_report.csv").read_text().splitlines()[0]
        assert header == "claim,param_j,param_t,lhs,rhs,pass"
        dist_header = (tmp_path / "distribution.csv").read_text().splitlines()[0]
        assert dist_header == "t,j,expectation_num,expectation_den"
        # the streamed files hold the same bytes as the text the *_csv functions join
        analysis = run_privacy_analysis(7, 4, seed=9, total=5)
        expected = {
            "bounds_report.csv": simcli.bounds_report_csv(analysis["report"]),
            "distribution.csv": simcli.distribution_csv(analysis["cfg"]),
            "trace.csv": analysis["trace_csv"],
            "vault_views.csv": simcli.vault_views_csv(analysis["vault_views"]),
        }
        for name, text in expected.items():
            assert (tmp_path / name).read_bytes() == text.encode()

    def test_csv_lines_are_streamed(self, monkeypatch):
        # the large CSVs come as lazy pieces of whole lines, each one block's
        # lines for at most CSV_CHUNK values, that the *_csv text functions
        # join: no caller has to hold the whole text, and the piece size does
        # not change the bytes
        cfg = SplitConfig(7, 4)
        texts = (simcli.bounds_report_csv(check_bounds(cfg)), simcli.distribution_csv(cfg))
        monkeypatch.setattr(simcli, "CSV_CHUNK", 3)
        for lines, text in zip((simcli.bounds_report_lines(check_bounds(cfg)),
                                simcli.distribution_lines(cfg)), texts):
            assert iter(lines) is lines
            lines = list(lines)
            assert all(line.endswith("\n") for line in lines)
            assert max(line.count("\n") for line in lines) <= 3 * (cfg.m + 2)
            assert "".join(lines) == text

    def test_unknown_bundled_scenario(self, capsys):
        assert main(["run", "--scenario", "does_not_exist"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: no bundled scenario 'does_not_exist'")

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        # a config error is not a failed expectation (exit 1): status 2, one
        # line on stderr, no traceback
        text = load_bundled_scenario("issue_happy").replace(
            "actor.V1.strategy = honest", "actor.V1.strategy = silnt")
        f = tmp_path / "bad.cfg"
        f.write_text(text)
        assert main(["run", "--scenario", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: actor.V1.strategy: role 'vault' "
                              "has no strategy 'silnt'")
        assert err.count("\n") == 1

    def test_actor_named_system_exits_2(self, tmp_path, capsys):
        # `system` is the actor of the engine's timeout rows, so an actor of
        # that name would make trace.csv ambiguous
        text = load_bundled_scenario("issue_happy").replace("A1", "system")
        with pytest.raises(ConfigError, match=r"^actor\.system\.role: 'system' is the actor"):
            load_scenario(text)
        f = tmp_path / "bad.cfg"
        f.write_text(text)
        assert main(["run", "--scenario", str(f)]) == 2
        assert capsys.readouterr().err.startswith("config error: actor.system.role: ")

    def test_out_of_range_param_exits_2(self, tmp_path, capsys):
        # a value the parameter dataclass rejects is a config error too
        text = load_bundled_scenario("issue_happy").replace("params.f = 2/100",
                                                            "params.f = 1")
        f = tmp_path / "bad.cfg"
        f.write_text(text)
        assert main(["run", "--scenario", str(f)]) == 2
        assert capsys.readouterr().err == "config error: fee must satisfy 0 <= f < 1\n"

    def test_out_of_range_protocol_value_exits_2(self, tmp_path, capsys):
        # a tree too shallow for any note failed inside the run with a
        # traceback and exit 1; the config rejects it first
        text = load_bundled_scenario("issue_happy") + "zcash.tree_depth = 0\n"
        f = tmp_path / "bad.cfg"
        f.write_text(text)
        assert main(["run", "--scenario", str(f)]) == 2
        assert capsys.readouterr().err == "config error: tree_depth must be >= 1\n"

    @pytest.mark.parametrize("argv, message", [
        (["check-bounds", "--h", "8", "--k", "3"], "k must be a power of two >= 2"),
        # check-bounds walks runs of totals, so it goes up to a note value's
        # 64 bits, and refuses a config with more runs than the limit
        (["check-bounds", "--h", "65", "--k", "4"],
         "h = 65 exceeds the note value width of 64 bits; use h <= 64"),
        # 2**20000 has too many digits to format, so this raised ValueError
        (["check-bounds", "--h", "20000", "--k", "2"],
         "h = 20000 exceeds the note value width of 64 bits; use h <= 64"),
        (["check-bounds", "--h", "20", "--k", "32"],
         "more than 65536 runs of totals: refuse exhaustive check"),
        (["check-bounds", "--h", "-1", "--k", "2"], "h must be positive"),
        (["privacy", "--h", "8", "--k", "3"], "k must be a power of two >= 2"),
        (["privacy", "--h", "8", "--k", "4", "--t", "300"], "total 300 outside [1, 255]"),
        (["privacy", "--h", "8", "--k", "4", "--t", "0"], "total 0 outside [1, 255]"),
        (["privacy", "--h", "20000", "--k", "2"],
         "h = 20000 exceeds the desk-scale limit 2^16 = 65536; use h <= 16"),
    ], ids=["check-bounds-k3", "check-bounds-h65", "check-bounds-h20000", "check-bounds-h20-k32",
            "check-bounds-h-1",
            "privacy-k3",
            "privacy-t300", "privacy-t0", "privacy-h20000"])
    def test_bad_split_params_exit_2(self, argv, message, capsys, monkeypatch):
        # bad splitting parameters are a config error, not a failed bound
        # check (exit 1), found before any group of totals is enumerated
        def no_groups(cfg):
            raise AssertionError(f"a refused config reached the check: {cfg}")

        monkeypatch.setattr(splitting, "_groups", no_groups)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert err.count("\n") == 1


class TestScenarioKeys:
    @pytest.mark.parametrize("line, message", [
        ("= 5", "line 32: empty key or value"),
        ("seed =", "line 32: empty key or value"),
        ("expect = 1", "unrecognized key 'expect'"),
        ("oracle.foo.1 = 1", "unrecognized key 'oracle.foo.1'"),
        ("bogus.rate.5 = 1", "unrecognized key 'bogus.rate.5'"),
        ("oracle.rate.abc = 1",
         "oracle.rate.abc: the tick must be ASCII digits without leading zeros"),
        ("actor.A1.bogus = 1", "unrecognized key 'actor.A1.bogus'"),
        ("bogus.A1.zec = 1", "unrecognized key 'bogus.A1.zec'"),
    ], ids=["no-key", "no-value", "bare-expect", "oracle-not-rate", "rate-not-oracle",
            "rate-tick-not-digits", "actor-field", "actor-not-section"])
    def test_bad_key_exits_2(self, line, message, tmp_path, capsys):
        text = load_bundled_scenario("issue_happy")
        assert text.count("\n") == 31
        f = tmp_path / "bad.cfg"
        f.write_text(text + line + "\n")
        assert main(["run", "--scenario", str(f)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_expectation_on_an_unknown_metric_fails(self, tmp_path, capsys):
        f = tmp_path / "typo.cfg"
        f.write_text(load_bundled_scenario("issue_happy") + "expect.final_suply = 1\n")
        assert main(["run", "--scenario", str(f)]) == 1
        assert "FAIL expect.final_suply: no such metric\n" in capsys.readouterr().out

    def test_collateral_of_a_non_vault_exits_2(self, tmp_path, capsys):
        # only a vault locks collateral, so the key on any other actor is a
        # misplaced line, refused even at 0
        f = tmp_path / "misplaced.cfg"
        for value in (500, 0):
            f.write_text(load_bundled_scenario("issue_happy") + f"actor.A1.collateral = {value}\n")
            assert main(["run", "--scenario", str(f)]) == 2
            assert capsys.readouterr().err == (
                "config error: actor.A1.collateral: only a vault locks collateral; "
                "'A1' has role 'issuer'\n")


def bot_run(bots, ticks, zec=400, **protocol):
    """The engine of `strategy_run` (V1 registered with 294 and stated, A1
    with `zec`), its protocol fields overridden, after `ticks` ticks of
    `bots`."""
    params = RegistryParams(v_max=100, f=Fraction(2, 100), sigma_std=Fraction(3, 2),
                            i_w=5, poc_validity=100, pob_period=100)
    protocol = {"relay_k": 2, "delta_mint": 8, "delta_confirm_issue": 2,
                "delta_confirm_redeem": 8, "zc_fee": 1, "tree_depth": 6, **protocol}
    engine = Engine(ProtocolConfig(params, **protocol), 7)
    engine.oracle.set_rate(0, Fraction(2, 1))
    engine.add_actor("V1", zec_notes=(500,), i_balance=344)
    engine.add_actor("A1", zec_notes=(zec,) if zec else (), i_balance=50)
    engine.start()
    engine.register_vault("V1", 294)
    engine.submit_poc("V1")
    engine.run_until(ticks, lambda eng: [bot.step(eng) for bot in bots])
    return engine


def issuer_run(strategy="honest", ticks=40, **setup):
    """An honest vault and one IssueBot: the bot and the engine."""
    bot = IssueBot(ActorSpec("A1", "issuer", strategy, vault="V1", amount=50, at=2))
    return bot, bot_run([VaultBot(ActorSpec("V1", "vault")), bot], ticks, **setup)


def ok_ops(engine, actor):
    return [op for _, who, op, *_, outcome in engine.trace_rows()
            if who == actor and outcome == "ok"]


class TestBotEdges:
    @pytest.mark.parametrize("kwargs", [{"zec": 0}, {"relay_k": 10, "delta_mint": 5}],
                             ids=["lock-refused", "lock-final-after-deadline"])
    def test_issuer_whose_request_closes_before_a_mint(self, kwargs):
        bot, engine = issuer_run(**kwargs)
        assert bot.phase == "done"
        assert engine.requests[bot.request_id].close_reason == "mint-timeout"
        assert all(op != "mint" for _, _, op, *_ in engine.trace_rows())
        assert conformance_errors(engine) == []

    def test_replay_lock_replays_once(self):
        bot, engine = issuer_run(strategy="replay_lock", ticks=120)
        assert ok_ops(engine, "A1") == ["requestLock", "lock", "mint", "requestLock"]
        assert [row[-1] for row in engine.trace_rows() if row[2] == "mint"] == [
            "ok", "rejected:replay:lock-cm-replayed"]
        assert bot.phase == "stalled" and len(engine.requests) == 2

    def test_stale_proof_vault_keeps_only_a_confirmed_proof(self):
        # delta_confirm_redeem = k + 1: the release turns final on the tick
        # after the deadline, so every confirm is refused as too late and
        # the vault holds no proof to replay; it releases for each burn
        engine = bot_run([VaultBot(ActorSpec("V1", "vault", "stale_proof")),
                          IssueBot(ActorSpec("A1", "issuer", vault="V1", amount=50, at=2)),
                          RedeemBot(ActorSpec("A1", "redeemer", "double_redeem", vault="V1",
                                              amount=20, at=14, amount2=10, at2=26))],
                         44, delta_confirm_redeem=3)
        rows = [(op, outcome) for _, actor, op, *_, outcome in engine.trace_rows()
                if actor == "V1" and op in ("release", "confirmRedeem")]
        assert rows == [("release", "ok"), ("confirmRedeem", "rejected:deadline-passed")] * 2

    def test_issuer_waits_out_a_reorg_that_orphans_its_final_lock(self):
        # the lock's block turns final on the relay, then the backing chain
        # reorgs it away before the issuer's step, and the relay follows.
        # The issuer must wait for the requeued lock to be mined and final
        # again, then mint from the new block.
        orphaned = []

        def reorg_once(engine):
            request = engine.requests.get("R1")
            lock_cm = request and request.lock_note and commit_note(request.lock_note).digest
            block = lock_cm and engine.block_of(lock_cm)
            if not orphaned and block is not None and engine.relay.is_final(block):
                chain = engine.zcash
                tip = chain.blocks[block].header.parent
                for _ in range(chain.height - chain.blocks[block].header.height + 2):
                    tip = chain.mine_block(parent_hash=tip, txs=[]).hash
                assert not isinstance(chain.reorg_to(tip), Rejection)
                orphaned.append(block)

        bot = IssueBot(ActorSpec("A1", "issuer", vault="V1", amount=50, at=2))
        adversary = SimpleNamespace(step=reorg_once)
        engine = bot_run([VaultBot(ActorSpec("V1", "vault")), adversary, bot], 30,
                         delta_mint=20)
        request = engine.requests[bot.request_id]
        assert orphaned and request.close_reason == "confirmed" and bot.phase == "done"
        mint_block = request.transfer.statement.inclusion_block
        assert mint_block != orphaned[0] and engine.zcash.block_on_main(mint_block)
        assert ok_ops(engine, "A1") == ["requestLock", "lock", "mint"]
        assert conformance_errors(engine) == []

    def test_vault_whose_registration_is_refused(self):
        text = load_bundled_scenario("issue_happy").replace(
            "actor.V1.collateral = 29400000000", "actor.V1.collateral = 0")
        result = run_scenario(load_scenario(text))
        assert result.engine.registry.vaults == {}
        assert result.engine.trace_rows()[0][1:] == (
            "V1", "registerVault", "", "", "", "rejected:zero-collateral")
        assert result.metrics["final_supply"] == 0

    @pytest.mark.parametrize("at2, amount2, second_tick, amounts", [
        (40, 10, 40, [20, 10]), (0, 0, None, [20, 20])], ids=["at2-amount2", "unset"])
    def test_double_redeem_second_round(self, at2, amount2, second_tick, amounts):
        # the second round burns amount2 at at2, or `amount` again as soon
        # as the first round has closed
        engine = bot_run([VaultBot(ActorSpec("V1", "vault")),
                          IssueBot(ActorSpec("A1", "issuer", vault="V1", amount=50, at=2)),
                          RedeemBot(ActorSpec("A1", "redeemer", "double_redeem", vault="V1",
                                              amount=20, at=14, amount2=amount2, at2=at2))],
                         60)
        burns = [(request.transfer.witness.burn_amount, request.request_id)
                 for request in engine.requests.values() if request.kind == "redeem"]
        assert [amount for amount, _ in burns] == amounts
        ticks = {request_id: [tick for tick, _, _, rid, *_ in engine.trace_rows()
                              if rid == request_id] for _, request_id in burns}
        first, second = ticks.values()
        assert second[0] == (second_tick or first[-1] + 1)
