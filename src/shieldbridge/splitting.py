"""Amount-splitting privacy strategy and its exact inference analysis.

A transfer total t in [1, 2^h - 1] is split into k pieces, each zero or a
power of two no larger than 2^m where m = h + 1 - log2(k), so that a
custodian observing one piece learns very little about the total. This
module implements:

  * the scale-independent prior over totals,
  * the randomized splitting procedure (single uniform draw i),
  * exact conditional and marginal piece-size distributions over every
    total, the conditionals counted from the draw's bits (Lemma 1's bit
    counts) with rational arithmetic; the tests enumerate every draw as
    the oracle; a conditional depends on the total only through its
    branch, so it is computed once per branch, and at desk scale each
    total's conditional is read from a per-(h, k) table indexed by total,
  * posterior ratios Pr[T=t | piece=v] / Pr[T=t], and
  * exhaustive desk-scale verifiers for the distributional bounds the
    strategy is designed to satisfy, reported claim by claim and total by
    total, each claim decided once per distinct conditional; the report
    stores each decided group's rows once, with the totals that repeat
    them, and expands them into per-total rows on read.

All probabilities are exact fractions, and every verdict is an integer
cross-multiplication of them; no bound check depends on rounding.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

DESK_SCALE_LIMIT = 2**16  # exhaustive checks refuse larger supports
_ZERO = Fraction(0)  # every zero expectation shares this one value


class SplittingError(ValueError):
    pass


class UndefinedRatioError(SplittingError):
    """Raised when conditioning on a piece value that never occurs."""


@dataclass(frozen=True)
class SplitConfig:
    """Parameters of the splitting strategy.

    h bounds the total (t in [1, 2^h - 1]); k is the number of pieces and
    must be a power of two >= 2. Pieces range over {0} U {2^j : j <= m}
    with m = h + 1 - log2 k. We require m >= k/2, which keeps the piece
    granularity integral in every branch of the procedure (the gap region
    [2^m, 2^(m+1)-1] runs with d = 0 and needs 2^(m - k/2) >= 1).
    """

    h: int
    k: int
    # derived once; the sampler sits in hot loops
    log2k: int = field(init=False, compare=False)
    m: int = field(init=False, compare=False)
    t_max: int = field(init=False, compare=False)

    def __post_init__(self):
        if not all(type(x) is int for x in (self.h, self.k)):  # a bool is refused too
            raise SplittingError(f"h and k must be integers, got {self.h!r} and {self.k!r}")
        if self.k < 2 or self.k & (self.k - 1):
            raise SplittingError("k must be a power of two >= 2")
        if self.h < 1:
            raise SplittingError("h must be positive")
        object.__setattr__(self, "log2k", self.k.bit_length() - 1)
        object.__setattr__(self, "m", self.h + 1 - self.log2k)
        object.__setattr__(self, "t_max", 2**self.h - 1)
        if self.m < 1 or self.m < self.k // 2:
            raise SplittingError(
                f"h + 1 - log2(k) = {self.m} too small for k = {self.k}; need >= k/2"
            )

    def check_total(self, t: int) -> None:
        if not 1 <= t <= self.t_max:
            raise SplittingError(f"total {t} outside [1, {self.t_max}]")


def _require_ints(**values) -> None:
    """Refuse a non-int argument (a bool included) as the SplittingError it is."""
    for name, x in values.items():
        if type(x) is not int:
            raise SplittingError(f"{name} must be an integer, got {x!r}")


class SplitResult(NamedTuple):
    """The k piece values (zeros included) and the untransferred remainder."""

    pieces: tuple[int, ...]
    withheld: int


# --- prior ------------------------------------------------------------------


def prior_pmf(h: int, t: int) -> Fraction:
    """Pr[T = t] under the scale-independent prior on [1, 2^h - 1].

    The total is sampled as 2^N + A with N uniform on [0, h-1] and A uniform
    on [0, 2^N - 1]: every order of magnitude carries the same mass, and
    within one order all values are equally likely.
    """
    _require_ints(h=h, t=t)
    if not 1 <= t <= 2**h - 1:
        raise SplittingError(f"total {t} outside [1, {2**h - 1}]")
    n = t.bit_length() - 1
    return Fraction(1, h * 2**n)


def sample_prior(h: int, rng) -> int:
    n = rng.randrange(h)
    return 2**n + rng.randrange(2**n)


# --- splitting procedure ------------------------------------------------------


def _branch(t: int, cfg: SplitConfig) -> tuple[int, int, int, int]:
    """(d, e, q, i_max) for the branch handling total t.

    Small totals (t < 2^m) are split into two parts on a granularity e that
    coarsens with the total's magnitude; large totals first peel off d whole
    pieces of size 2^m. Totals in [2^m, 2^(m+1)-1] run through the large
    branch with d = 0, which is continuous with both neighbours.
    """
    m = cfg.m
    if t <= 2**m - 1:
        d = 0
        g = t.bit_length() - cfg.k // 2  # floor(log2 t) + 1 - k/2
        e = 2**g if g > 0 else 1
    else:
        d = max(0, t // 2**m - 1)
        c = (cfg.k - d) // 2
        e = 2 ** (m - c)
    q = t // e
    i_max = q - d * (2**m) // e
    return d, e, q, i_max


def draw_bound(t: int, cfg: SplitConfig) -> int:
    """Largest value of the procedure's single uniform draw i for total t."""
    _require_ints(t=t)
    cfg.check_total(t)
    return _branch(t, cfg)[3]


@functools.lru_cache(maxsize=DESK_SCALE_LIMIT)
def _binary_pieces(x: int) -> tuple[int, ...]:
    return tuple(1 << b for b in range(x.bit_length()) if x >> b & 1)


def _assemble(t: int, cfg: SplitConfig, d: int, e: int, q: int, i_max: int,
              i: int) -> SplitResult:
    if not 0 <= i <= i_max:
        raise SplittingError(f"draw {i} outside [0, {i_max}]")
    remaining = e * q - d * (1 << cfg.m)
    part_one = i * e
    pieces = (((1 << cfg.m),) * d + _binary_pieces(part_one)
              + _binary_pieces(remaining - part_one))
    if len(pieces) > cfg.k:
        raise SplittingError(f"procedure produced {len(pieces)} > k pieces for t={t}")
    return SplitResult(pieces + (0,) * (cfg.k - len(pieces)), t - e * q)


def pieces_for_draw(t: int, cfg: SplitConfig, i: int) -> SplitResult:
    """Deterministic outcome of the procedure for a fixed draw i."""
    _require_ints(t=t, i=i)
    cfg.check_total(t)
    d, e, q, i_max = _branch(t, cfg)
    return _assemble(t, cfg, d, e, q, i_max, i)


def split(t: int, cfg: SplitConfig, rng) -> SplitResult:
    """Randomized split of t into k pieces, each 0 or a power of two <= 2^m."""
    cfg.check_total(t)
    d, e, q, i_max = _branch(t, cfg)
    return _assemble(t, cfg, d, e, q, i_max, rng.randrange(i_max + 1))


# --- exact distributions ------------------------------------------------------


@dataclass(frozen=True)
class PieceDistribution:
    """Exact expectations (or probabilities) indexed by piece size.

    Index 0 is the zero piece; index j >= 1 is piece size 2^(j-1), up to
    index m+1 for the maximal size 2^m.
    """

    cfg: SplitConfig
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.cfg.m + 2:
            raise SplittingError("distribution must have m + 2 entries")

    @staticmethod
    def index_of(value: int, cfg: SplitConfig) -> int:
        _require_ints(value=value)
        if value == 0:
            return 0
        if value & (value - 1) or value > 2**cfg.m:
            raise SplittingError(f"piece value {value} is not a power of two <= 2^m")
        return value.bit_length()

    @staticmethod
    def size_of(index: int) -> int:
        return 0 if index == 0 else 2 ** (index - 1)

    def at_value(self, value: int) -> Fraction:
        return self.values[self.index_of(value, self.cfg)]


# (h, k) -> each total's conditional, index 0 unused; keyed by the ints because
# SplitConfig's generated __hash__ is a Python call on every lookup
_CONDITIONALS: dict[tuple[int, int], list[PieceDistribution]] = {}


def exact_conditional_expectation(t: int, cfg: SplitConfig) -> PieceDistribution:
    """E[X_j | T=t] for every piece-size index j, exact over the n = i_max + 1
    equiprobable draws i. It depends on t only through t's branch
    (d, e, i_max), so every total of one branch gets the same object.

    At desk scale (t_max < DESK_SCALE_LIMIT) it is read from a per-(h, k)
    table indexed by total, built on first use; beyond it, where a table
    would need 2^h entries, the branch is derived for each call."""
    if type(t) is not int:  # inline, not _require_ints: check_bounds calls this per total
        raise SplittingError(f"t must be an integer, got {t!r}")
    cfg.check_total(t)
    if cfg.t_max >= DESK_SCALE_LIMIT:
        d, e, _, i_max = _branch(t, cfg)
        return _branch_distribution(cfg, d, e, i_max)
    table = _CONDITIONALS.get((cfg.h, cfg.k))
    if table is None:
        table = _CONDITIONALS[cfg.h, cfg.k] = _conditional_table(cfg)
    return table[t]


def _conditional_table(cfg: SplitConfig) -> list[PieceDistribution]:
    """Each total's _branch_distribution, filled one branch at a time: a
    branch's q = t // e, so it covers the e consecutive totals of one
    e-aligned block, which lies inside one bit length below 2^m and inside
    one t >> m block above it; e divides every bit length's and every such
    block's first total, so each run starts a block."""
    table = [None]
    while len(table) <= cfg.t_max:
        d, e, _, i_max = _branch(len(table), cfg)
        table += [_branch_distribution(cfg, d, e, i_max)] * e
    return table


@functools.lru_cache(maxsize=DESK_SCALE_LIMIT)
def _branch_distribution(cfg: SplitConfig, d: int, e: int, i_max: int) -> PieceDistribution:
    """Draw i gives d pieces of 2^m plus the set bits of i*e and (i_max - i)*e;
    both i and i_max - i run over [0, i_max], so bit b gives a piece 2^b * e
    in 2 * _ones_in_range(n, b) draws. The rest are 0."""
    n = i_max + 1
    counts = [0] * (cfg.m + 2)
    counts[cfg.m + 1] = d * n
    for b in range(i_max.bit_length()):
        counts[b + e.bit_length()] += 2 * _ones_in_range(n, b)
    counts[0] = cfg.k * n - sum(counts)
    return PieceDistribution(cfg, tuple([Fraction(c, n) if c else _ZERO for c in counts]))


@functools.cache
def marginal_expectation(cfg: SplitConfig) -> PieceDistribution:
    """E[X_j] under the prior: sum over totals of prior * conditional.

    Total t has prior 1/(h * 2^N), N = floor(log2 t), so conditional c/n adds
    the integer c over n * 2^N: one Fraction per such denominator, then / h.
    Each (conditional, N) pair adds c once, times the totals that share it."""
    shares = {}  # (id of the shared conditional, N) -> [conditional, totals]
    for t in range(1, cfg.t_max + 1):
        dist = exact_conditional_expectation(t, cfg)
        shares.setdefault((id(dist), t.bit_length() - 1), [dist, 0])[1] += 1
    sums = [{} for _ in range(cfg.m + 2)]  # per index: n * 2^N -> sum of c
    for (_, scale), (dist, count) in shares.items():
        for by_den, x in zip(sums, dist.values):
            if c := x.numerator:
                den = x.denominator << scale
                by_den[den] = by_den.get(den, 0) + c * count
    return PieceDistribution(cfg, tuple(
        sum((Fraction(c, den) for den, c in by_den.items()), _ZERO) / cfg.h
        for by_den in sums))


def posterior_ratio(t: int, v: int, cfg: SplitConfig) -> Fraction:
    """Pr[T=t | V=v] / Pr[T=t] for one observed piece value v.

    Equals E[X_j|T=t] / E[X_j] with j the index of v; zero when the piece
    never occurs together with total t.
    """
    _require_ints(t=t, v=v)
    cfg.check_total(t)
    j = PieceDistribution.index_of(v, cfg)
    marg = marginal_expectation(cfg).values[j]
    if marg == 0:
        raise UndefinedRatioError(f"piece value {v} never occurs under h={cfg.h} k={cfg.k}")
    return exact_conditional_expectation(t, cfg).values[j] / marg


def posterior_pmf(v: int, cfg: SplitConfig) -> dict[int, Fraction]:
    """Exact posterior over totals given one observed piece value."""
    return {
        t: prior_pmf(cfg.h, t) * posterior_ratio(t, v, cfg)
        for t in range(1, cfg.t_max + 1)
    }


# --- bound verification -------------------------------------------------------


class ClaimRow(NamedTuple):
    """One verified claim: lhs against rhs, with its parameters."""

    claim: str
    param_j: object
    param_t: object
    lhs: Fraction
    rhs: Fraction
    passed: bool


# Claims carrying these tags are allowed to fail: each one is the alternate
# reading of a documented ambiguity (index convention) or an informational
# row outside the guarantee's range (gap/top piece).
ATTRIBUTED_TAGS = ("[idx=m]", "[literal]", "[info]")


class BoundsReport:
    """Verified claims, stored as blocks and expanded into rows on read.

    A block is a tuple of decided rows plus the total it repeats for; a
    total of None means the rows stand as written. check_bounds repeats one
    group's decided rows for every total of the group, so the rows are kept
    once per decided group, not once per total. rows is a read-only view of
    the expanded rows; the failure queries decide once per distinct tuple of
    decided rows and expand only the failing ones.
    """

    def __init__(self):
        self.blocks: list[tuple[tuple[ClaimRow, ...], object]] = []
        self._count = 0

    def add(self, claim, param_j, param_t, lhs, rhs):
        """Record the claim lhs <= rhs, decided by cross-multiplication."""
        passed = lhs.numerator * rhs.denominator <= rhs.numerator * lhs.denominator
        self.repeat((ClaimRow(claim, param_j, param_t, lhs, rhs, passed),), None)

    def repeat(self, rows: tuple[ClaimRow, ...], t) -> None:
        """Record decided rows for total t: each stands with param_t = t
        (t None: as written). The tuple is stored, not copied."""
        self.blocks.append((rows, t))
        self._count += len(rows)

    def repeat_per_total(self, rows_by_total: list[tuple[ClaimRow, ...]]) -> None:
        """Record rows_by_total[t - 1] for each total t = 1, 2, ..., as that
        many repeat calls would, with one extend and one count update."""
        self.blocks.extend(zip(rows_by_total, range(1, len(rows_by_total) + 1)))
        self._count += sum(map(len, rows_by_total))

    @property
    def rows(self) -> "ReportRows":
        return ReportRows(self)

    def _expand(self, keep=None):
        """The rows in order; keep, if given, filters each distinct tuple once."""
        kept = {}  # id of a stored tuple -> its rows that keep holds for
        for rows, t in self.blocks:
            if keep is not None:
                if (selected := kept.get(id(rows))) is None:
                    selected = kept[id(rows)] = tuple(filter(keep, rows))
                rows = selected
            if t is None:
                yield from rows
            else:
                for claim, j, _, lhs, rhs, passed in rows:
                    yield ClaimRow(claim, j, t, lhs, rhs, passed)

    def failures(self) -> list[ClaimRow]:
        return list(self._expand(lambda r: not r.passed))

    def unattributed_failures(self) -> list[ClaimRow]:
        return list(self._expand(
            lambda r: not r.passed and not any(tag in r.claim for tag in ATTRIBUTED_TAGS)))

    @property
    def all_pass(self) -> bool:
        """True when every claim holds, ignoring only the documented
        alternate-reading and informational rows."""
        return not self.unattributed_failures()

    def tally(self) -> dict[str, list[int]]:
        """claim -> [rows, failures], counted once per distinct tuple."""
        uses = {}  # id of a stored tuple -> [the tuple, blocks holding it]
        for rows, _ in self.blocks:
            uses.setdefault(id(rows), [rows, 0])[1] += 1
        counts = {}
        for rows, n in uses.values():
            for row in rows:
                count = counts.setdefault(row.claim, [0, 0])
                count[0] += n
                count[1] += 0 if row.passed else n
        return counts


class ReportRows(Sequence):
    """Read-only view of a report's rows: the length is a running count, and
    every read expands the rows from the blocks."""

    def __init__(self, report: BoundsReport):
        self._report = report

    def __len__(self) -> int:
        return self._report._count

    def __iter__(self):
        return self._report._expand()

    def __getitem__(self, index):  # expands every row: iterate instead
        return list(self)[index]


def _ones_in_range(count: int, bit: int) -> int:
    """How many x in [0, count) have the given bit set. Exact closed form."""
    period = 1 << (bit + 1)
    half = 1 << bit
    return (count // period) * half + max(0, (count % period) - half)


def _ratio(x: Fraction, y: Fraction) -> Fraction:
    """x / y, cross-multiplied into one Fraction without Fraction division."""
    return Fraction(x.numerator * y.denominator, x.denominator * y.numerator)


def check_lemma1(c: int, a: int) -> BoundsReport:
    """Bit statistics of a uniform draw i on [0, 2^c + a], 0 <= a < 2^c.

    Verified clauses (every probability an exact fraction):
      (i)   bits 0..c-1 each land in [1/4, 3/4];
      (ii)  bits c and c+1 are set with probability at most 1/2
            (bit c is the draw's top bit; bit c+1 is never set);
      (iii) the expected number of set bits lies in [c/4, (3c+2)/4].

    The cycling-bit bound (i) does not extend to bit c: for small a the top
    bit's probability drops below 1/4 (e.g. 1/5 at c=2, a=0), which is why
    the top bits get the one-sided clause (ii).
    """
    _require_ints(c=c, a=a)
    if c < 0 or not 0 <= a < 2**c:
        raise SplittingError("require c >= 0 and 0 <= a < 2^c")
    n = 2**c + a + 1
    report = BoundsReport()
    for j in range(c):
        p = Fraction(_ones_in_range(n, j), n)
        report.add("lemma1_i_lower", j, a, Fraction(1, 4), p)
        report.add("lemma1_i_upper", j, a, p, Fraction(3, 4))
    for j in (c, c + 1):
        p = Fraction(_ones_in_range(n, j), n)
        report.add("lemma1_ii", j, a, p, Fraction(1, 2))
    expected_ones = sum(Fraction(_ones_in_range(n, j), n) for j in range(c + 2))
    report.add("lemma1_iii_lower", c, a, Fraction(c, 4), expected_ones)
    report.add("lemma1_iii_upper", c, a, expected_ones, Fraction(3 * c + 2, 4))
    return report


def check_bounds(cfg: SplitConfig) -> BoundsReport:
    """Exhaustive desk-scale verification of the strategy's guarantees.

    Covers the conditional upper bounds, the marginal lower bounds, the
    three posterior-ratio upper bounds, and the anonymity floor. Ambiguous
    clauses are reported under both readings: rows tagged [idx=m] and
    [literal] carry the alternate index conventions, rows tagged [info] sit
    outside the guarantee's range. Failures are reported, never raised.

    A total's rows depend on t only through the conditional its branch
    shares and t >> m (the lemma2_ii cap, and theorem_top once
    t >= 2^(m+1)), so each claim is decided once per distinct pair, and
    the report stores each pair's decided rows once and repeats them for
    every total of the pair: at (14, 8), 32,766 blocks that share 222
    tuples of decided rows stand for 327,650 rows.
    """
    if 2**cfg.h > DESK_SCALE_LIMIT:
        raise SplittingError(f"2^h > {DESK_SCALE_LIMIT}: refuse exhaustive check")
    report = BoundsReport()
    m, k, h, lg = cfg.m, cfg.k, cfg.h, cfg.log2k

    # (id of the shared conditional, t >> m) per total; each such group keeps
    # its conditional and the magnitudes of its totals
    keys, groups = [], {}
    for t in range(1, cfg.t_max + 1):
        dist = exact_conditional_expectation(t, cfg)
        keys.append(key := (id(dist), t >> m))
        groups.setdefault(key, (dist, set()))[1].add(t.bit_length() - 1)
    marg = marginal_expectation(cfg).values
    three_halves, k_bound, eight = Fraction(3, 2), Fraction(k), Fraction(8)
    caps = [Fraction(top) for top in range((cfg.t_max >> m) + 1)]
    case_one_rhs = [Fraction(3 * h) / min(Fraction(k, 2), Fraction(max(m + 1 - j, lg)))
                    for j in range(m + 2)]

    # per group: the conditional upper bounds, then the posterior-ratio ones
    decided = {}
    for (dist_id, top), (dist, _) in groups.items():
        bounds, ratios = BoundsReport(), BoundsReport()
        for j in range(1, m - k // 2 + 1):
            bounds.add("lemma2_i", j, None, dist.values[j], three_halves)
        bounds.add("lemma2_ii[idx=m+1]", m + 1, None, dist.values[m + 1], caps[top])
        bounds.add("lemma2_ii[idx=m]", m, None, dist.values[m], caps[top])
        bounds.add("lemma2_iii", 0, None, dist.values[0], k_bound)
        ratios.add("theorem_zero", 0, None, _ratio(dist.values[0], marg[0]), eight)
        for p in range(0, m + 1):
            idx = p + 1
            if marg[idx].numerator == 0 or dist.values[idx].numerator == 0:
                continue
            ratio = _ratio(dist.values[idx], marg[idx])
            if p == m and top >= 2:  # t >= 2^(m+1)
                rhs = Fraction(4 * h * top, 3 * (k - 2 * lg))
                ratios.add("theorem_top", p, None, ratio, rhs)
                continue
            # primary convention: the bound's j is the piece-size index
            ratios.add("theorem_piece", p, None, ratio, case_one_rhs[idx])
            # alternate: j read literally off "piece value = 2^(j+1)"
            if p >= 1:
                ratios.add("theorem_piece[literal]", p, None, ratio, case_one_rhs[p - 1])
        decided[dist_id, top] = tuple(bounds.rows), tuple(ratios.rows)

    def per_total(part):  # each total repeats its group's decided rows, in order
        report.repeat_per_total([decided[key][part] for key in keys])

    per_total(0)
    # marginal lower bounds (lhs is the bound, rhs the computed marginal)
    for j in range(1, m - k // 2 + 1):
        report.add("lemma3_i", j, "", Fraction(k, 4 * h), marg[j])
    for j in range(m - k // 2 + 1, m + 1):
        report.add("lemma3_ii", j, "", Fraction(max(m + 1 - j, lg), 2 * h), marg[j])
    report.add("lemma3_iii", m + 1, "", Fraction(3 * (k - 2 * lg), 4 * h), marg[m + 1])
    report.add("lemma3_iv", 0, "", Fraction(k, 8), marg[0])
    per_total(1)

    # anonymity floor: scales consistent with one observed piece
    for p in range(0, m + 1):
        idx = p + 1
        scales = set().union(*(magnitudes for dist, magnitudes in groups.values()
                               if dist.values[idx].numerator > 0))
        claim = "anonymity_floor" if p < m else "anonymity_floor[info]"
        report.add(claim, p, "", Fraction(lg), Fraction(len(scales)))
    return report
