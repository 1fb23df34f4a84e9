import hashlib
import random
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldbridge import splitting
from shieldbridge.splitting import (
    ATTRIBUTED_TAGS,
    DESK_SCALE_LIMIT,
    BoundsReport,
    ClaimRow,
    PieceDistribution,
    SplitConfig,
    SplittingError,
    UndefinedRatioError,
    _branch,
    _branch_distribution,
    _groups,
    _ones_in_range,
    check_bounds,
    check_lemma1,
    draw_bound,
    exact_conditional_expectation,
    marginal_expectation,
    pieces_for_draw,
    posterior_pmf,
    posterior_ratio,
    prior_pmf,
    sample_prior,
    split,
)

CFG74 = SplitConfig(7, 4)
CFG84 = SplitConfig(8, 4)
CFG108 = SplitConfig(10, 8)


class TestConfig:
    def test_m(self):
        assert CFG74.m == 6
        assert CFG84.m == 7
        assert CFG108.m == 8

    def test_k_power_of_two(self):
        with pytest.raises(SplittingError):
            SplitConfig(8, 3)

    @pytest.mark.parametrize("k", [1, 0])
    def test_k_at_least_two(self, k):
        # 1 and 0 pass the power-of-two test (k & (k - 1) == 0)
        with pytest.raises(SplittingError, match="k must be a power of two >= 2"):
            SplitConfig(8, k)

    @pytest.mark.parametrize("h", [0, -1, -10**400], ids=["0", "-1", "-10**400"])
    def test_h_must_be_positive(self, h):
        # the m check refuses these too, but -10**400 overflows in 2**h first
        with pytest.raises(SplittingError, match="h must be positive"):
            SplitConfig(h, 2)

    def test_granularity_constraint(self):
        with pytest.raises(SplittingError):
            SplitConfig(2, 4)  # m = 1 < k/2

    @pytest.mark.parametrize("h, k", [(3.0, 2), (3, 2.0), (True, 2), (3, True), ("3", 2)])
    def test_h_and_k_must_be_integers(self, h, k):
        # 3.0 would build m = 3.0 and t_max = 7.0 and compare (and hash) equal
        # to SplitConfig(3, 2), which keys the conditional cache
        with pytest.raises(SplittingError, match="integers"):
            SplitConfig(h, k)


class TestPrior:
    def test_pmf_values(self):
        # t=1 sits alone in the N=0 band; t=5 is one of 4 values in N=2
        assert prior_pmf(10, 1) == Fraction(1, 10)
        assert prior_pmf(10, 5) == Fraction(1, 40)

    def test_pmf_by_enumeration_of_sampler_outcomes(self):
        # independent oracle: enumerate every (n, a) sampler outcome
        h = 6
        weight = {}
        for n in range(h):
            for a in range(2**n):
                t = 2**n + a
                weight[t] = weight.get(t, Fraction(0)) + Fraction(1, h) * Fraction(1, 2**n)
        for t in range(1, 2**h):
            assert prior_pmf(h, t) == weight[t]

    def test_normalization(self):
        for h in (1, 4, 10):
            assert sum(prior_pmf(h, t) for t in range(1, 2**h)) == 1

    def test_out_of_range(self):
        with pytest.raises(SplittingError):
            prior_pmf(10, 0)
        with pytest.raises(SplittingError):
            prior_pmf(10, 2**10)

    @pytest.mark.parametrize("h, t", [(True, 1), (2.0, 1), (4, 3.0), (4, True)])
    def test_non_integer_arguments(self, h, t):
        # True passed as h = 1; a float h or t raised TypeError or AttributeError
        with pytest.raises(SplittingError, match="must be an integer"):
            prior_pmf(h, t)

    def test_sampler_h1_always_one(self):
        rng = random.Random(5)
        assert all(sample_prior(1, rng) == 1 for _ in range(50))

    def test_sampler_determinism(self):
        a = [sample_prior(8, random.Random(99)) for _ in range(100)]
        b = [sample_prior(8, random.Random(99)) for _ in range(100)]
        assert a == b

    def test_sampler_band_frequencies(self):
        # h=4: each of the 4 octaves carries mass 1/4
        rng = random.Random(2024)
        n = 100_000
        top_band = sum(1 for _ in range(n) if 8 <= sample_prior(4, rng) <= 15)
        assert abs(top_band / n - 0.25) < 0.005

    def test_sampler_chi_square_against_pmf(self):
        h, n = 4, 1_000_000
        rng = random.Random(31337)
        counts = [0] * 2**h
        for _ in range(n):
            counts[sample_prior(h, rng)] += 1
        stat = sum(
            (counts[t] - n * prior_pmf(h, t)) ** 2 / (n * prior_pmf(h, t))
            for t in range(1, 2**h)
        )
        # df = 14; critical value at alpha = 0.001
        assert stat < 36.12


class TestSplitProcedure:
    def test_t1_forced(self):
        for i in range(draw_bound(1, CFG74) + 1):
            r = pieces_for_draw(1, CFG74, i)
            assert sorted(r.pieces, reverse=True) == [1, 0, 0, 0]
            assert r.withheld == 0

    def test_t5_hand_executed(self):
        # e=2, one token withheld, draw i=1 puts 2 in each part
        r = pieces_for_draw(5, CFG74, 1)
        assert r.withheld == 1
        assert sorted(r.pieces, reverse=True) == [2, 2, 0, 0]

    def test_t600_hand_executed(self):
        # d=1, c=3, e=32; i=3 gives parts 96 = 64+32 and 224 = 128+64+32
        r = pieces_for_draw(600, CFG108, 3)
        assert r.withheld == 24
        assert sorted(r.pieces, reverse=True) == [256, 128, 64, 64, 32, 32, 0, 0]

    def test_split_uses_single_draw(self):
        rng1, rng2 = random.Random(7), random.Random(7)
        for t in (1, 5, 17, 300, 600, 1023):
            assert split(t, CFG108, rng1) == split(t, CFG108, rng2)

    @pytest.mark.parametrize("cfg", [CFG74, CFG84, CFG108])
    def test_structural_laws_exhaustive(self, cfg):
        # every total, every draw: piece count, piece form, conservation
        for t in range(1, cfg.t_max + 1):
            for i in range(draw_bound(t, cfg) + 1):
                r = pieces_for_draw(t, cfg, i)
                assert len(r.pieces) == cfg.k
                nonzero = [p for p in r.pieces if p]
                assert len(nonzero) <= cfg.k
                for p in nonzero:
                    assert p & (p - 1) == 0 and p <= 2**cfg.m
                assert sum(r.pieces) + r.withheld == t
                assert 0 <= r.withheld
        # withheld < e is implied by withheld = t mod e; spot-check via draw 0
        assert pieces_for_draw(5, CFG74, 0).withheld < 2

    def test_out_of_range_total(self):
        with pytest.raises(SplittingError):
            pieces_for_draw(0, CFG74, 0)
        with pytest.raises(SplittingError):
            pieces_for_draw(2**7, CFG74, 0)
        # at desk scale and beyond it, every entry point refuses the total
        # before it looks up its branch: t = -1 would read the last run's
        # table entry
        for cfg in (SplitConfig(14, 8), SplitConfig(17, 4)):
            for t in (0, -1, cfg.t_max + 1):
                with pytest.raises(SplittingError, match=f"total {t} outside"):
                    split(t, cfg, random.Random(0))
                with pytest.raises(SplittingError, match=f"total {t} outside"):
                    draw_bound(t, cfg)
                with pytest.raises(SplittingError, match=f"total {t} outside"):
                    pieces_for_draw(t, cfg, 0)

    @pytest.mark.parametrize("t", [1, 5, 600, 1023])
    def test_out_of_range_draw(self, t):
        for i in (-1, draw_bound(t, CFG108) + 1):
            with pytest.raises(SplittingError, match=f"draw {i} outside"):
                pieces_for_draw(t, CFG108, i)

    def test_beyond_desk_scale_builds_no_branch_table(self, monkeypatch):
        # (17, 4) is just beyond desk scale, so a branch table built there
        # by mistake would hold 2^17 entries, not hang the run at 2^51
        monkeypatch.setattr(splitting, "_BRANCHES", {})
        cfg = SplitConfig(17, 4)
        m = cfg.m
        for t in (1, 2**m - 1, 2**m, 2**m + 12345, cfg.t_max):
            d, e, q, i_max = _branch(t, cfg)
            assert draw_bound(t, cfg) == i_max
            assert pieces_for_draw(t, cfg, i_max // 2) == splitting._assemble(
                t, cfg, d, e, q, i_max, i_max // 2)
            assert split(t, cfg, random.Random(t)) == pieces_for_draw(
                t, cfg, random.Random(t).randrange(i_max + 1))
        assert splitting._BRANCHES == {}

    @pytest.mark.parametrize("hk", [(7, 4), (14, 8)], ids=["h7-k4", "h14-k8"])
    def test_split_is_pieces_for_its_draw(self, hk):
        # split's one uniform draw on [0, draw_bound], then pieces_for_draw
        cfg = SplitConfig(*hk)
        for t in range(1, cfg.t_max + 1):
            assert split(t, cfg, random.Random(t)) == pieces_for_draw(
                t, cfg, random.Random(t).randrange(draw_bound(t, cfg) + 1))

    def test_desk_scale_split_reads_the_branch_table(self, monkeypatch):
        # the table is filled with one _branch call per run; after that no
        # desk-scale split calls _branch
        calls = []
        original = splitting._branch

        def counted(t, cfg):
            calls.append(t)
            return original(t, cfg)

        monkeypatch.setattr(splitting, "_branch", counted)
        monkeypatch.setattr(splitting, "_BRANCHES", {})
        cfg = SplitConfig(14, 8)
        rng = random.Random(3)
        split(1, cfg, rng)
        table = splitting._BRANCHES[14, 8]
        assert len(calls) == len({id(branch) for branch in table[1:]}) == 111
        calls.clear()
        for t in range(1, cfg.t_max + 1):
            split(t, cfg, rng)
        assert calls == []
        assert splitting._BRANCHES[14, 8] is table

    @pytest.mark.parametrize("cfg", [SplitConfig(51, 8), SplitConfig(51, 16),
                                     SplitConfig(64, 16)],
                             ids=lambda cfg: f"h{cfg.h}-k{cfg.k}")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_k_pieces_sum_to_total_beyond_desk_scale(self, cfg, data):
        # a total of any bit length, with its first, last, a random and the
        # all-ones draw (the most pieces in part one): exactly k pieces, and
        # pieces plus withheld give t
        n = data.draw(st.integers(0, cfg.h - 1))
        t = data.draw(st.integers(2**n, 2**(n + 1) - 1))
        bound = draw_bound(t, cfg)
        all_ones = (1 << bound.bit_length() - 1) - 1 if bound else 0
        for i in (0, bound, data.draw(st.integers(0, bound)), all_ones):
            r = pieces_for_draw(t, cfg, i)
            assert len(r.pieces) == cfg.k
            assert sum(r.pieces) + r.withheld == t

    @pytest.mark.parametrize("t, i", [(5, True), (5, 1.0), (True, 0), (5.0, 0)])
    def test_non_integer_total_or_draw(self, t, i):
        # a True draw returned a split; a float one raised AttributeError
        with pytest.raises(SplittingError, match="must be an integer"):
            pieces_for_draw(t, SplitConfig(4, 2), i)
        if i == 0:
            with pytest.raises(SplittingError, match="must be an integer"):
                draw_bound(t, SplitConfig(4, 2))
            # a True total gave the split of 1; a float one raised
            # AttributeError
            with pytest.raises(SplittingError, match="must be an integer"):
                split(t, SplitConfig(4, 2), random.Random(0))


class TestExactDistributions:
    def test_t1_forced_distribution(self):
        d = exact_conditional_expectation(1, CFG108)
        assert d.at_value(1) == 1
        assert d.at_value(0) == CFG108.k - 1

    def test_distribution_refuses_wrong_length(self):
        with pytest.raises(SplittingError, match="m \\+ 2 entries"):
            PieceDistribution(CFG108, (Fraction(0),) * (CFG108.m + 1))

    @pytest.mark.parametrize("value", [3, -1, 2**CFG108.m * 2])
    def test_index_of_refuses_non_pieces(self, value):
        with pytest.raises(SplittingError, match="not a power of two <= 2\\^m"):
            PieceDistribution.index_of(value, CFG108)

    def test_row_sums_equal_k(self):
        for t in range(1, CFG108.t_max + 1):
            assert sum(exact_conditional_expectation(t, CFG108).values) == CFG108.k

    @pytest.mark.parametrize("cfg", [CFG74, CFG84, CFG108, SplitConfig(12, 16)],
                             ids=lambda cfg: f"h{cfg.h}-k{cfg.k}")
    def test_matches_brute_force_average(self, cfg):
        # independent oracle: average piece counts over all draws directly
        for t in range(1, cfg.t_max + 1):
            i_max = draw_bound(t, cfg)
            sums = [0] * (cfg.m + 2)
            for i in range(i_max + 1):
                for p in pieces_for_draw(t, cfg, i).pieces:
                    sums[PieceDistribution.index_of(p, cfg)] += 1
            expected = [Fraction(s, i_max + 1) for s in sums]
            assert list(exact_conditional_expectation(t, cfg).values) == expected

    def test_marginal_sums_to_k(self):
        assert sum(marginal_expectation(CFG84).values) == CFG84.k

    def test_marginal_lower_bounds_at_10_8(self):
        marg = marginal_expectation(CFG108).values
        assert marg[0] >= Fraction(CFG108.k, 8)
        for j in range(1, CFG108.m - CFG108.k // 2 + 1):
            assert marg[j] >= Fraction(CFG108.k, 4 * CFG108.h)

    def test_monte_carlo_agreement_small(self):
        # sampling oracle: frequency of each piece size over draws from split()
        cfg, t, n = CFG74, 5, 20_000
        rng = random.Random(4242)
        counts = [0] * (cfg.m + 2)
        for _ in range(n):
            for p in split(t, cfg, rng).pieces:
                counts[PieceDistribution.index_of(p, cfg)] += 1
        exact = exact_conditional_expectation(t, cfg).values
        for j in range(cfg.m + 2):
            assert abs(counts[j] / n - float(exact[j])) < 0.05


@pytest.mark.parametrize("query, args", [
    (exact_conditional_expectation, (True,)),  # returned t = 1's distribution
    (exact_conditional_expectation, (2.0,)),  # raised AttributeError
    (posterior_ratio, (True, 1)),  # returned 4
    (posterior_ratio, (1, True)),  # returned 4
    (posterior_ratio, (1, 1.0)),  # raised TypeError
    (PieceDistribution.index_of, (2.0,)),  # raised TypeError
    (PieceDistribution.index_of, (True,)),  # returned 1
], ids=["conditional-bool", "conditional-float", "ratio-bool-total", "ratio-bool-piece",
        "ratio-float-piece", "index-float", "index-bool"])
def test_exact_queries_refuse_non_integers(query, args):
    with pytest.raises(SplittingError, match="must be an integer"):
        query(*args, SplitConfig(4, 2))


class TestPosterior:
    def test_piece_cannot_exceed_total(self):
        assert posterior_ratio(5, 8, CFG108) == 0

    def test_zero_piece_bound(self):
        for t in range(1, CFG108.t_max + 1):
            assert posterior_ratio(t, 0, CFG108) <= 8

    def test_undefined_ratio(self):
        # a max-size piece can never occur at h=k config edge? use a piece
        # value that genuinely never occurs: none exist for these configs,
        # so force the error through a zero marginal via tiny config
        cfg = SplitConfig(3, 2)
        marg = marginal_expectation(cfg).values
        zero_idx = [j for j, v in enumerate(marg) if v == 0]
        if zero_idx:
            v = PieceDistribution.size_of(zero_idx[0])
            with pytest.raises(UndefinedRatioError):
                posterior_ratio(1, v, cfg)
        else:
            pytest.skip("every piece size occurs under this config")

    def test_bayes_consistency(self):
        # posterior sums to exactly 1 for every piece value that occurs
        cfg = CFG84
        marg = marginal_expectation(cfg).values
        for j in range(cfg.m + 2):
            if marg[j] == 0:
                continue
            v = PieceDistribution.size_of(j)
            assert sum(posterior_pmf(v, cfg).values()) == 1


class TestLemma1:
    def test_spec_point_c2_a1(self):
        report = check_lemma1(2, 1)
        rows = {(r.claim, r.param_j): r for r in report.rows}
        # Pr[Y_0 = 1] = 3/6 = 1/2 sits inside [1/4, 3/4]
        assert rows[("lemma1_i_upper", 0)].lhs == Fraction(1, 2)
        # bit c+1 = 3 is never set
        assert rows[("lemma1_ii", 3)].lhs == 0
        assert report.all_pass

    def test_top_bit_below_quarter_at_a0(self):
        # the reason clause (i) stops at bit c-1: top-bit probability 1/5
        n = 2**2 + 0 + 1
        assert Fraction(_ones_in_range(n, 2), n) == Fraction(1, 5)

    def test_closed_form_matches_enumeration(self):
        for c in range(1, 7):
            for a in range(2**c):
                n = 2**c + a + 1
                for j in range(c + 2):
                    brute = sum(1 for i in range(n) if (i >> j) & 1)
                    assert brute == _ones_in_range(n, j)

    @pytest.mark.parametrize("c, a", [(True, 0), (2.0, 0), (2, 1.0), (2, False)])
    def test_non_integer_parameters(self, c, a):
        # True gave rows whose param_j is True; 2.0 raised TypeError
        with pytest.raises(SplittingError, match="must be an integer"):
            check_lemma1(c, a)

    @pytest.mark.parametrize("c, a", [(-1, 0), (-3, 0), (2, 4), (2, -1)])
    def test_out_of_range_parameters(self, c, a):
        with pytest.raises(SplittingError):
            check_lemma1(c, a)

    def test_exhaustive_small(self):
        for c in range(1, 9):
            for a in range(2**c):
                assert check_lemma1(c, a).all_pass, (c, a)


class TestCheckBounds:
    @pytest.mark.parametrize("cfg", [CFG84, CFG108])
    def test_full_pass(self, cfg):
        report = check_bounds(cfg)
        assert report.all_pass
        # alternate readings are present and the known ones fail as documented
        claims = {r.claim for r in report.rows}
        assert "lemma2_ii[idx=m]" in claims
        assert "theorem_piece[literal]" in claims
        assert any(r.claim == "lemma2_ii[idx=m]" and not r.passed for r in report.rows)

    def test_anonymity_floor_rows(self):
        report = check_bounds(CFG108)
        floors = [r for r in report.rows if r.claim == "anonymity_floor"]
        assert len(floors) == CFG108.m  # pieces 2^0 .. 2^(m-1)
        assert all(r.passed for r in floors)
        # at least log2 k = 3 candidate scales for every in-range piece
        assert all(r.rhs >= 3 for r in floors)

    def test_desk_scale_refusal(self):
        with pytest.raises(SplittingError):
            check_bounds(SplitConfig(17, 4))

    @pytest.mark.parametrize("h, k, report_sha, distribution_sha", [
        (8, 4, "647313793fa2231669d67873bed3abf8c5939b01eed68e0cf0b51cd3e83aa116",
         "5e7b51eb0e997b8114e2eed15236e30155d088d1aa48799bd16d608e4a13c973"),
        (10, 8, "cbdcd12cf9405bb0254459acc96ff5d890fc099ccfa9ab8a97fb1ef858361074",
         "27953a7843896c34fc22a3ffc1ed685aecf760bdab9883722f60a3bb89aa0659"),
        (12, 16, "2908bdcea69b141ed10f8c05cd737de5598fae29be46ebd0b6efdd513191d6d6",
         "a95a35bd0b83875d325ced42b7fbfe830154d937d49ca7dbb3921bbbf05ada91"),
        # recorded from the report that kept one ClaimRow per claim and total
        (14, 8, "9560968b44bbd90ef6c3506bdc6c4b0a316af04711187a9ba494eac9e4308523",
         "782653c6344b8461d541e898f0d29149cab374529a53831b73a94ef2b452c3fb"),
    ], ids=["h8-k4", "h10-k8", "h12-k16", "h14-k8"])
    def test_report_bytes_match_recorded(self, h, k, report_sha, distribution_sha):
        # recorded from the enumeration-based distributions: every row, its
        # order and its text are pinned, not just the pass/fail verdicts
        from shieldbridge.simcli import bounds_report_csv, distribution_csv
        cfg = SplitConfig(h, k)
        report = bounds_report_csv(check_bounds(cfg))
        assert hashlib.sha256(report.encode()).hexdigest() == report_sha
        distribution = distribution_csv(cfg)
        assert hashlib.sha256(distribution.encode()).hexdigest() == distribution_sha


class TestBoundsReport:
    @staticmethod
    def small_report():
        # a hand-made report: two added rows around one block of decided rows
        # that stands for totals 4, 5 and 6, one failing row attributed, one not
        report = BoundsReport()
        report.add("a", 1, "", Fraction(1), Fraction(2))
        decided = (ClaimRow("b", 0, None, Fraction(3), Fraction(2), False),
                   ClaimRow("c[info]", 2, None, Fraction(5), Fraction(1), False),
                   ClaimRow("d", 3, None, Fraction(0), Fraction(1), True))
        report.repeat(decided, range(4, 7))
        report.add("e", 0, None, Fraction(2), Fraction(2))
        expected = [ClaimRow("a", 1, "", Fraction(1), Fraction(2), True),
                    *(row._replace(param_t=t) for t in (4, 5, 6) for row in decided),
                    ClaimRow("e", 0, None, Fraction(2), Fraction(2), True)]
        return report, expected

    def test_rows_view_expands_the_blocks(self):
        report, expected = self.small_report()
        rows = report.rows
        assert isinstance(rows, Sequence) and not hasattr(rows, "append")
        assert len(rows) == len(expected) == 11
        assert list(rows) == list(rows) == expected
        assert [rows[i] for i in range(-11, 11)] == expected + expected
        assert rows[2:9:3] == expected[2:9:3]
        for index in (11, -12):
            with pytest.raises(IndexError):
                rows[index]

    def test_failure_queries_and_tally(self):
        report, expected = self.small_report()
        assert report.failures() == [r for r in expected if not r.passed]
        assert report.unattributed_failures() == [r for r in expected if r.claim == "b"]
        assert not report.all_pass
        assert report.tally() == {"a": [1, 0], "b": [3, 3], "c[info]": [3, 3],
                                  "d": [3, 0], "e": [1, 0]}
        empty = BoundsReport()
        assert empty.all_pass and len(empty.rows) == 0 and list(empty.rows) == []


# --- Fraction oracle ------------------------------------------------------------
# check_bounds and marginal_expectation as they were before their verdicts
# became integer cross-multiplications, the marginal an integer sum per
# denominator and both a pass over distinct conditionals: every sum, ratio and
# verdict here is Fraction arithmetic, once per total. The bodies are kept as
# written then; only the names differ, the cache on the marginal is dropped,
# the report is a list of one row per claim and total whose add compares
# lhs <= rhs as Fractions, and the conditionals come from
# per_total_conditional, so no cache is shared with the code under test.


def per_total_conditional(t: int, cfg: SplitConfig) -> PieceDistribution:
    """E[X_j | T=t] from the bit-count closed form, rebuilt for every total.

    Draw i gives d pieces of 2^m plus the set bits of i*e and (i_max - i)*e;
    both i and i_max - i run over [0, i_max], so bit b gives a piece 2^b * e
    in 2 * _ones_in_range(n, b) draws. The rest are 0."""
    cfg.check_total(t)
    d, e, _, i_max = _branch(t, cfg)
    n = i_max + 1
    counts = [0] * (cfg.m + 2)
    counts[cfg.m + 1] = d * n
    for b in range(i_max.bit_length()):
        counts[b + e.bit_length()] += 2 * _ones_in_range(n, b)
    counts[0] = cfg.k * n - sum(counts)
    return PieceDistribution(cfg, tuple(Fraction(c, n) for c in counts))


class FractionReport:
    """The report as a plain list of rows, one per claim and total, with the
    failure queries as list scans and verdicts compared as Fractions."""

    def __init__(self):
        self.rows = []

    def add(self, claim, param_j, param_t, lhs, rhs):
        self.rows.append(ClaimRow(claim, param_j, param_t, lhs, rhs, lhs <= rhs))

    def failures(self):
        return [r for r in self.rows if not r.passed]

    def unattributed_failures(self):
        return [r for r in self.failures()
                if not any(tag in r.claim for tag in ATTRIBUTED_TAGS)]

    @property
    def all_pass(self):
        return not self.unattributed_failures()


def fraction_marginal_expectation(cfg: SplitConfig) -> PieceDistribution:
    """E[X_j] under the prior: sum over totals of prior * conditional."""
    totals = [Fraction(0)] * (cfg.m + 2)
    for t in range(1, cfg.t_max + 1):
        p = prior_pmf(cfg.h, t)
        cond = per_total_conditional(t, cfg).values
        for j in range(cfg.m + 2):
            totals[j] += p * cond[j]
    return PieceDistribution(cfg, tuple(totals))


def fraction_check_bounds(cfg: SplitConfig) -> FractionReport:
    if 2**cfg.h > DESK_SCALE_LIMIT:
        raise SplittingError(f"2^h > {DESK_SCALE_LIMIT}: refuse exhaustive check")
    report = FractionReport()
    m, k, h, lg = cfg.m, cfg.k, cfg.h, cfg.log2k

    conds = {t: per_total_conditional(t, cfg) for t in range(1, cfg.t_max + 1)}
    marg = fraction_marginal_expectation(cfg).values

    # conditional upper bounds
    for t, dist in conds.items():
        for j in range(1, m - k // 2 + 1):
            report.add("lemma2_i", j, t, dist.values[j], Fraction(3, 2))
        cap = Fraction(t // 2**m)
        report.add("lemma2_ii[idx=m+1]", m + 1, t, dist.values[m + 1], cap)
        report.add("lemma2_ii[idx=m]", m, t, dist.values[m], cap)
        report.add("lemma2_iii", 0, t, dist.values[0], Fraction(k))

    # marginal lower bounds (lhs is the bound, rhs the computed marginal)
    for j in range(1, m - k // 2 + 1):
        report.add("lemma3_i", j, "", Fraction(k, 4 * h), marg[j])
    for j in range(m - k // 2 + 1, m + 1):
        report.add("lemma3_ii", j, "", Fraction(max(m + 1 - j, lg), 2 * h), marg[j])
    report.add("lemma3_iii", m + 1, "", Fraction(3 * (k - 2 * lg), 4 * h), marg[m + 1])
    report.add("lemma3_iv", 0, "", Fraction(k, 8), marg[0])

    # posterior-ratio upper bounds
    case_one_rhs = [Fraction(3 * h) / min(Fraction(k, 2), Fraction(max(m + 1 - j, lg)))
                    for j in range(m + 2)]
    for t, dist in conds.items():
        ratio0 = dist.values[0] / marg[0]
        report.add("theorem_zero", 0, t, ratio0, Fraction(8))
        for p in range(0, m + 1):
            idx = p + 1
            if marg[idx] == 0 or dist.values[idx] == 0:
                continue
            ratio = dist.values[idx] / marg[idx]
            if p == m and t >= 2 ** (m + 1):
                rhs = Fraction(4 * h * (t // 2**m), 3 * (k - 2 * lg))
                report.add("theorem_top", p, t, ratio, rhs)
                continue
            # primary convention: the bound's j is the piece-size index
            report.add("theorem_piece", p, t, ratio, case_one_rhs[idx])
            # alternate: j read literally off "piece value = 2^(j+1)"
            if p >= 1:
                report.add("theorem_piece[literal]", p, t, ratio, case_one_rhs[p - 1])

    # anonymity floor: scales consistent with one observed piece
    for p in range(0, m + 1):
        idx = p + 1
        scales = {
            (t.bit_length() - 1)
            for t, dist in conds.items()
            if dist.values[idx] > 0
        }
        claim = "anonymity_floor" if p < m else "anonymity_floor[info]"
        report.add(claim, p, "", Fraction(lg), Fraction(len(scales)))
    return report


def assert_matches_fraction_oracle(cfg: SplitConfig) -> None:
    marg = marginal_expectation(cfg).values
    assert marg == fraction_marginal_expectation(cfg).values
    assert all(type(x) is Fraction for x in marg)
    report = check_bounds(cfg)
    oracle = fraction_check_bounds(cfg)
    expected = oracle.rows
    assert len(report.rows) == len(expected)
    for row, want in zip(report.rows, expected, strict=True):
        # ClaimRow equality compares all six fields; Fraction == is by value
        assert row == want
        assert type(row.lhs) is Fraction and type(row.rhs) is Fraction
        assert type(row.passed) is bool
    # the view expands the blocks again on every read
    assert list(report.rows) == expected
    assert report.failures() == oracle.failures()
    assert report.unattributed_failures() == oracle.unattributed_failures()
    assert report.all_pass is oracle.all_pass


# every valid (h, k) with h <= 9: k = 16 needs h >= 11
SMALL_CONFIGS = [(h, k) for h in range(1, 10) for k in (2, 4, 8)
                 if h + 1 - (k.bit_length() - 1) >= max(1, k // 2)]


class TestFractionOracle:
    @pytest.mark.parametrize("cfg", [CFG74, CFG84, CFG108, SplitConfig(12, 8),
                                     SplitConfig(12, 16)],
                             ids=lambda cfg: f"h{cfg.h}-k{cfg.k}")
    def test_integer_verdicts_match_fraction_oracle(self, cfg):
        assert_matches_fraction_oracle(cfg)

    # the search space is finite: hypothesis stops once all 20 are drawn
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SMALL_CONFIGS))
    def test_every_small_config_matches_fraction_oracle(self, hk):
        assert_matches_fraction_oracle(SplitConfig(*hk))


class TestConditionalPerBranch:
    # exact_conditional_expectation is memoised per branch (d, e, i_max): it
    # must equal the per-total closed form, and the closed form itself must
    # give every total of one branch the same distribution
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SMALL_CONFIGS).flatmap(
        lambda hk: st.tuples(st.just(SplitConfig(*hk)), st.integers(1, 2**hk[0] - 1))))
    def test_memo_matches_per_total_oracle(self, cfg_t):
        cfg, t = cfg_t
        dist = exact_conditional_expectation(t, cfg)
        assert dist == per_total_conditional(t, cfg)

        def branch_of(u):
            d, e, _, i_max = _branch(u, cfg)
            return d, e, i_max

        branch = [u for u in range(1, cfg.t_max + 1) if branch_of(u) == branch_of(t)]
        for u in branch:
            assert per_total_conditional(u, cfg) == dist
            assert exact_conditional_expectation(u, cfg) is dist


class TestConditionalTable:
    # at desk scale exact_conditional_expectation reads a per-(h, k) table
    # filled one branch at a time; each entry must be the per-branch memo
    @pytest.mark.parametrize("hk", SMALL_CONFIGS + [(12, 8), (12, 16), (14, 8)],
                             ids=lambda hk: f"h{hk[0]}-k{hk[1]}")
    def test_every_entry_is_its_branch_memo(self, hk):
        cfg = SplitConfig(*hk)
        for t in range(1, cfg.t_max + 1):
            d, e, _, i_max = _branch(t, cfg)
            assert exact_conditional_expectation(t, cfg) is _branch_distribution(cfg, d, e, i_max)
        table = splitting._CONDITIONALS[hk]
        assert len(table) == cfg.t_max + 1

    @pytest.mark.parametrize("hk", SMALL_CONFIGS + [(14, 8)],
                             ids=lambda hk: f"h{hk[0]}-k{hk[1]}")
    def test_every_branch_entry_is_its_branch(self, hk, monkeypatch):
        # the per-(h, k) branch table that split, draw_bound and
        # pieces_for_draw read, against _branch as the oracle; each run of
        # totals shares one tuple
        monkeypatch.setattr(splitting, "_BRANCHES", {})
        cfg = SplitConfig(*hk)
        draw_bound(1, cfg)
        table = splitting._BRANCHES[hk]
        assert len(table) == cfg.t_max + 1
        for t in range(1, cfg.t_max + 1):
            assert table[t] == _branch(t, cfg)
        assert len({id(branch) for branch in table[1:]}) == len(list(splitting._runs(cfg)))

    @pytest.mark.parametrize("hk", SMALL_CONFIGS + [(12, 16), (14, 8)],
                             ids=lambda hk: f"h{hk[0]}-k{hk[1]}")
    def test_groups_are_the_runs(self, hk):
        # _groups opens a group whenever the conditional object changes, so
        # it must find one group per run, in order: adjacent runs never
        # share a conditional, and a run never crosses a t >> m block
        cfg = SplitConfig(*hk)
        groups = _groups(cfg)
        runs = list(splitting._runs(cfg))
        assert len(groups) == len(runs)
        first = 1
        for (dist, start, count), (d, e, _, i_max) in zip(groups, runs):
            assert (start, count) == (first, e)
            assert dist is _branch_distribution(cfg, d, e, i_max)
            assert start >> cfg.m == (start + count - 1) >> cfg.m
            first += e
        assert first == cfg.t_max + 1

    def test_a_second_config_reuses_the_table(self):
        first = exact_conditional_expectation(5, SplitConfig(11, 4))
        table = splitting._CONDITIONALS[11, 4]
        assert exact_conditional_expectation(5, SplitConfig(11, 4)) is first
        assert splitting._CONDITIONALS[11, 4] is table

    @pytest.mark.parametrize("hk", [(17, 4), (40, 8)], ids=["h17-k4", "h40-k8"])
    def test_beyond_desk_scale_builds_no_table(self, hk):
        cfg = SplitConfig(*hk)
        m = cfg.m
        for t in (1, 2**m - 1, 2**m, 2**m + 12345, cfg.t_max):
            assert exact_conditional_expectation(t, cfg) == per_total_conditional(t, cfg)
        assert hk not in splitting._CONDITIONALS


def test_check_bounds_calls_each_conditional_twice_per_total(monkeypatch):
    # perfbench pins exact_conditional_expectation.calls (32,766 at (14, 8)),
    # counted by rebinding the module function as its tracer does; the
    # marginal's cache and the conditional tables start empty, as in the
    # fresh interpreter perfbench runs
    cfg = SplitConfig(10, 8)
    calls = []
    original = splitting.exact_conditional_expectation

    def counted(t, cfg):
        calls.append(t)
        return original(t, cfg)

    monkeypatch.setattr(splitting, "exact_conditional_expectation", counted)
    monkeypatch.setattr(splitting, "_CONDITIONALS", {})
    marginal_expectation.cache_clear()
    report = check_bounds(cfg)
    assert len(calls) == 2 * cfg.t_max
    assert len(report.rows) == 16_350
    # one block per group for each of the two per-group parts, carrying the
    # group's range of totals; every other block is one added row: m + 2
    # marginal lower bounds and m + 1 anonymity floors
    groups = _groups(cfg)
    group_blocks = [totals for _, totals in report.blocks if type(totals) is range]
    added = [(rows, totals) for rows, totals in report.blocks if type(totals) is not range]
    assert len(group_blocks) == 2 * len(groups)
    assert len(added) == 2 * cfg.m + 3
    assert all(len(rows) == len(totals) == 1 and totals[0] == rows[0].param_t
               for rows, totals in added)
    # each part's ranges tile [1, t_max] in order, one per group
    for part in (group_blocks[:len(groups)], group_blocks[len(groups):]):
        assert [t for totals in part for t in totals] == list(range(1, cfg.t_max + 1))
        assert [(totals.start, len(totals)) for totals in part] == [
            (first, count) for _, first, count in groups]
