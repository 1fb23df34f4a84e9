"""Amount-splitting privacy strategy and its exact inference analysis.

A transfer total t in [1, 2^h - 1] is split into k pieces, each zero or a
power of two no larger than 2^m where m = h + 1 - log2(k), so that a
custodian observing one piece learns very little about the total. This
module implements:

  * the scale-independent prior over totals,
  * the randomized splitting procedure (single uniform draw i); totals
    fall into runs, each the e consecutive totals of one branch
    (d, e, q, i_max), and at desk scale split(), draw_bound() and
    pieces_for_draw() read each total's branch from a per-(h, k) table
    indexed by total, filled one run at a time,
  * exact conditional and marginal piece-size distributions over every
    total, the conditionals counted from the draw's bits (Lemma 1's bit
    counts) with rational arithmetic; the tests enumerate every draw as
    the oracle; a conditional depends on the total only through its
    branch, so it is computed once per branch, and at desk scale each
    total's conditional is read from a second such table, filled by the
    same run walk,
  * posterior ratios Pr[T=t | piece=v] / Pr[T=t], and
  * exhaustive verifiers for the distributional bounds the strategy is
    designed to satisfy, reported claim by claim and total by total. The
    totals fall into groups, each one run of totals, which shares one
    conditional and lies inside one t >> m block: at desk scale they are
    streamed in order from one pass over the totals' conditionals, and
    beyond it read off the run walk, so a check costs per run, not per
    total, up to h = 64. Each claim is decided once per group, and the
    report stores one block per group (its decided rows and the range of
    totals they stand for), expanding them into per-total rows on read.

All probabilities are exact fractions, and every verdict is an integer
cross-multiplication of them; no bound check depends on rounding.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, islice, repeat
from typing import NamedTuple

DESK_SCALE_LIMIT = 2**16  # per-total tables stop below it; check_bounds refuses more runs
_ZERO = Fraction(0)  # every zero expectation shares this one value
_THREE_HALVES, _EIGHT = Fraction(3, 2), Fraction(8)  # lemma2_i's and theorem_zero's bounds


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

    At desk scale (t_max < DESK_SCALE_LIMIT) the first
    exact_conditional_expectation call points _conditionals at the shared
    per-(h, k) table of each total's conditional, building the table if no
    equal config has; construction never builds it. Beyond desk scale it
    stays None.
    """

    h: int
    k: int
    # derived once; the sampler sits in hot loops
    log2k: int = field(init=False, compare=False)
    m: int = field(init=False, compare=False)
    t_max: int = field(init=False, compare=False)
    # the desk-scale _CONDITIONALS table, set by the first
    # exact_conditional_expectation call: a plain attribute, so a per-total
    # read is one load and one index (a cached_property defeats 3.11's
    # attribute specialisation)
    _conditionals: list | None = field(default=None, init=False, compare=False, repr=False)

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
        if self.m < self.k // 2:
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
        d = t // 2**m - 1
        c = (cfg.k - d) // 2
        e = 2 ** (m - c)
    q = t // e
    i_max = q - d * (2**m) // e
    return d, e, q, i_max


# (h, k) -> each total's _branch tuple, index 0 unused; one tuple per run
_BRANCHES: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}


def _branch_at(t: int, cfg: SplitConfig) -> tuple[int, int, int, int]:
    """_branch(t, cfg) for a total check_total accepted. At desk scale it is
    read from a per-(h, k) table indexed by total, built on first use;
    beyond it, as for the conditionals, it is derived for each call."""
    if cfg.t_max >= DESK_SCALE_LIMIT:
        return _branch(t, cfg)
    table = _BRANCHES.get((cfg.h, cfg.k))
    if table is None:
        table = [None]
        for branch in _runs(cfg):
            table += [branch] * branch[1]
        _BRANCHES[cfg.h, cfg.k] = table
    return table[t]


def _runs(cfg: SplitConfig):
    """Each branch's (d, e, q, i_max), in order of totals. A branch's
    q = t // e, so it covers the e consecutive totals of one e-aligned
    block, which lies inside one bit length below 2^m and inside one t >> m
    block above it; e divides every bit length's and every such block's
    first total, so each run starts a block and the runs tile [1, t_max]."""
    t = 1
    while t <= cfg.t_max:
        branch = _branch(t, cfg)
        yield branch
        t += branch[1]


def draw_bound(t: int, cfg: SplitConfig) -> int:
    """Largest value of the procedure's single uniform draw i for total t."""
    _require_ints(t=t)
    cfg.check_total(t)
    return _branch_at(t, cfg)[3]


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
    return SplitResult(pieces + (0,) * (cfg.k - len(pieces)), t - e * q)


def pieces_for_draw(t: int, cfg: SplitConfig, i: int) -> SplitResult:
    """Deterministic outcome of the procedure for a fixed draw i."""
    _require_ints(t=t, i=i)
    cfg.check_total(t)
    d, e, q, i_max = _branch_at(t, cfg)
    return _assemble(t, cfg, d, e, q, i_max, i)


def split(t: int, cfg: SplitConfig, rng) -> SplitResult:
    """Randomized split of t into k pieces, each 0 or a power of two <= 2^m."""
    if type(t) is not int:  # inline, not _require_ints: it runs once per draw
        raise SplittingError(f"t must be an integer, got {t!r}")
    cfg.check_total(t)
    d, e, q, i_max = _branch_at(t, cfg)
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
        if value & (value - 1) or value > 2**cfg.m:
            raise SplittingError(f"piece value {value} is not a power of two <= 2^m")
        return value.bit_length()

    @staticmethod
    def size_of(index: int) -> int:
        return 0 if index == 0 else 2 ** (index - 1)

    def at_value(self, value: int) -> Fraction:
        return self.values[self.index_of(value, self.cfg)]


# (h, k) -> each total's conditional, index 0 unused; each config reads its
# table through SplitConfig._conditionals, so this is looked up once per config
_CONDITIONALS: dict[tuple[int, int], list[PieceDistribution]] = {}


def exact_conditional_expectation(t: int, cfg: SplitConfig) -> PieceDistribution:
    """E[X_j | T=t] for every piece-size index j, exact over the n = i_max + 1
    equiprobable draws i. It depends on t only through t's branch
    (d, e, i_max), so every total of one branch gets the same object.

    At desk scale (t_max < DESK_SCALE_LIMIT) it is read from the per-(h, k)
    table indexed by total, through the reference cfg._conditionals: the
    first call on a config sets it, building the table if no equal config
    has, and every later call is one attribute load and one index. Beyond
    desk scale, where a table would need 2^h entries, the branch is derived
    for each call."""
    if type(t) is not int:  # inline, not _require_ints: check_bounds calls this per total
        raise SplittingError(f"t must be an integer, got {t!r}")
    if not 1 <= t <= cfg.t_max:  # inlined per total; check_total words the error
        cfg.check_total(t)
    try:
        return cfg._conditionals[t]
    except TypeError:  # None: this config's first call, or beyond desk scale
        pass
    if cfg.t_max >= DESK_SCALE_LIMIT:
        d, e, _, i_max = _branch(t, cfg)
        return _branch_distribution(cfg, d, e, i_max)
    table = _CONDITIONALS.get((cfg.h, cfg.k))
    if table is None:
        table = _CONDITIONALS[cfg.h, cfg.k] = _conditional_table(cfg)
    object.__setattr__(cfg, "_conditionals", table)
    return table[t]


def _conditional_table(cfg: SplitConfig) -> list[PieceDistribution]:
    """Each total's _branch_distribution, filled one run (see _run_groups) at a time."""
    table = [None]
    for dist, _, count in _run_groups(cfg):
        table += [dist] * count
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


def _groups(cfg: SplitConfig) -> list[list]:
    """[conditional, first total, count] for each run of totals (see _runs),
    in order of totals; each run lies inside one bit length and one t >> m
    block, and its totals are range(first, first + count).

    At desk scale it is streamed from one pass over the totals: a group
    opens whenever a total's conditional is not the previous total's
    object, and adjacent runs never share a conditional. It asks
    exact_conditional_expectation once per total and is not memoised:
    perfbench pins that function's calls at two per total for a cold
    check_bounds (this enumeration, then the marginal's), until a
    re-recorded count lets it enumerate runs instead. Beyond desk scale,
    where the totals are too many to walk, it is _run_groups."""
    if cfg.t_max >= DESK_SCALE_LIMIT:
        return _run_groups(cfg)
    groups, first = [], 1
    conditionals = map(exact_conditional_expectation, range(1, cfg.t_max + 1), repeat(cfg))
    for _, run in groupby(conditionals, id):
        run = list(run)
        groups.append([run[0], first, len(run)])
        first += len(run)
    return groups


def _run_groups(cfg: SplitConfig) -> list[list]:
    """_groups from the run walk: one _branch_distribution per run, and no
    per-total call, so its cost grows with the number of runs, not 2^h."""
    groups, first = [], 1
    for d, e, _, i_max in _runs(cfg):
        groups.append([_branch_distribution(cfg, d, e, i_max), first, e])
        first += e
    return groups


@functools.cache
def marginal_expectation(cfg: SplitConfig) -> PieceDistribution:
    """E[X_j] under the prior: sum over totals of prior * conditional.

    Total t has prior 1/(h * 2^N), N = floor(log2 t), so conditional c/n adds
    the integer c over n * 2^N: one Fraction per such denominator, then / h.
    Each group of totals (see _groups) adds c once, times its count."""
    sums = [{} for _ in range(cfg.m + 2)]  # per index: n * 2^N -> sum of c
    for dist, first, count in _groups(cfg):
        scale = first.bit_length() - 1
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


def decide(claim, param_j, param_t, lhs: Fraction, rhs: Fraction) -> ClaimRow:
    """The claim lhs <= rhs as a row, decided by cross-multiplication."""
    return ClaimRow(claim, param_j, param_t, lhs, rhs,
                    lhs.numerator * rhs.denominator <= rhs.numerator * lhs.denominator)


# Claims carrying these tags are allowed to fail: each one is the alternate
# reading of a documented ambiguity (index convention) or an informational
# row outside the guarantee's range (gap/top piece).
ATTRIBUTED_TAGS = ("[idx=m]", "[literal]", "[info]")


class BoundsReport:
    """Verified claims, stored as blocks and expanded into rows on read.

    A block is a tuple of decided rows plus the param_t values they stand
    for: check_bounds stores one block per group of totals, carrying the
    group's range of totals, and add stores its one row with (param_t,).
    Reading a block yields each of its rows once per value, in order, with
    that value as param_t. rows is a read-only view of the expanded rows;
    the failure queries filter each block's rows once and expand only the
    failing ones.
    """

    def __init__(self):
        self.blocks: list[tuple[tuple[ClaimRow, ...], Sequence]] = []

    def add(self, claim, param_j, param_t, lhs, rhs):
        """Record the claim lhs <= rhs (see decide)."""
        self.repeat((decide(claim, param_j, param_t, lhs, rhs),), (param_t,))

    def repeat(self, rows: tuple[ClaimRow, ...], totals: Sequence) -> None:
        """Record decided rows once for each param_t in totals."""
        self.blocks.append((rows, totals))

    @property
    def rows(self) -> "ReportRows":
        return ReportRows(self)

    def _expand(self, keep=None):
        """The rows in order; keep, if given, filters each block's rows once,
        and a block with no row kept is skipped without reading its totals
        (beyond desk scale a block can stand for 2^50 totals)."""
        for rows, totals in self.blocks:
            selected = rows if keep is None else tuple(filter(keep, rows))
            if not selected:
                continue
            for t in totals:
                for claim, j, _, lhs, rhs, passed in selected:
                    yield ClaimRow(claim, j, t, lhs, rhs, passed)

    def failures(self) -> list[ClaimRow]:
        return list(self._expand(lambda r: not r.passed))

    def unattributed_failures(self) -> list[ClaimRow]:
        return list(self._expand(_unattributed))

    @property
    def all_pass(self) -> bool:
        """True when every claim holds, ignoring only the documented
        alternate-reading and informational rows; decided once per block."""
        return not any(_unattributed(row) for rows, _ in self.blocks for row in rows)

    def tally(self) -> dict[str, list[int]]:
        """claim -> [rows, failures], counted once per block."""
        counts = {}
        for rows, totals in self.blocks:
            size = _size(totals)
            for row in rows:
                count = counts.setdefault(row.claim, [0, 0])
                count[0] += size
                count[1] += 0 if row.passed else size
        return counts


def _unattributed(row: ClaimRow) -> bool:
    """A failed row that carries none of the ATTRIBUTED_TAGS."""
    return not row.passed and not any(tag in row.claim for tag in ATTRIBUTED_TAGS)


def _size(totals: Sequence) -> int:
    """len(totals), also for a range past sys.maxsize, which len() refuses:
    at (64, 2) one run holds the 2^63 totals of [2^63, 2^64)."""
    return totals.stop - totals.start if type(totals) is range else len(totals)


class ReportRows(Sequence):
    """Read-only view of a report's rows: every read expands the rows from
    the blocks."""

    def __init__(self, report: BoundsReport):
        self._report = report

    def __len__(self) -> int:
        return sum(len(rows) * _size(totals) for rows, totals in self._report.blocks)

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


def _run_claims(cfg: SplitConfig, marg: tuple[Fraction, ...], case_one_rhs: list[Fraction],
                dist: PieceDistribution, top: int) -> tuple[tuple, tuple]:
    """The decided claims of one run of totals, which share the conditional
    dist and t >> m = top: its conditional upper bounds, then its
    posterior-ratio upper bounds, each row with param_t None. marg is the
    marginal's values and case_one_rhs theorem_piece's bound per index."""
    m, k, h, lg = cfg.m, cfg.k, cfg.h, cfg.log2k
    bounds = [decide("lemma2_i", j, None, dist.values[j], _THREE_HALVES)
              for j in range(1, m - k // 2 + 1)]
    bounds += (decide("lemma2_ii[idx=m+1]", m + 1, None, dist.values[m + 1], Fraction(top)),
               decide("lemma2_ii[idx=m]", m, None, dist.values[m], Fraction(top)),
               decide("lemma2_iii", 0, None, dist.values[0], Fraction(k)))
    ratios = [decide("theorem_zero", 0, None, _ratio(dist.values[0], marg[0]), _EIGHT)]
    for p in range(0, m + 1):
        idx = p + 1
        if dist.values[idx].numerator == 0:  # also covers every zero marginal
            continue
        ratio = _ratio(dist.values[idx], marg[idx])
        if p == m and top >= 2:  # t >= 2^(m+1)
            rhs = Fraction(4 * h * top, 3 * (k - 2 * lg))
            ratios.append(decide("theorem_top", p, None, ratio, rhs))
            continue
        # primary convention: the bound's j is the piece-size index
        ratios.append(decide("theorem_piece", p, None, ratio, case_one_rhs[idx]))
        # alternate: j read literally off "piece value = 2^(j+1)"
        if p >= 1:
            ratios.append(decide("theorem_piece[literal]", p, None, ratio,
                                 case_one_rhs[p - 1]))
    return tuple(bounds), tuple(ratios)


def check_bounds(cfg: SplitConfig) -> BoundsReport:
    """Exhaustive verification of the strategy's guarantees, for every
    total of a config with at most DESK_SCALE_LIMIT runs of totals.

    Covers the conditional upper bounds, the marginal lower bounds, the
    three posterior-ratio upper bounds, and the anonymity floor. Ambiguous
    clauses are reported under both readings: rows tagged [idx=m] and
    [literal] carry the alternate index conventions, rows tagged [info] sit
    outside the guarantee's range. Failures are reported, never raised.

    A total's rows depend on t only through its conditional and t >> m (the
    lemma2_ii cap, and theorem_top once t >= 2^(m+1)), and each group (see
    _groups) is one run of totals sharing both. So _run_claims decides each
    claim once per group, and the report stores each group's decided rows
    once with the group's range of totals: at (14, 8), two blocks for each
    of the 111 groups and 27 added rows stand for 327,650 rows. The runs
    grow about linearly in h (407 at (51, 8), 7,743 at (64, 16)), so the
    check reaches ZEC's 2^51 supply; the refusal counts runs, not totals.
    """
    if next(islice(_runs(cfg), DESK_SCALE_LIMIT, None), None) is not None:
        raise SplittingError(f"more than {DESK_SCALE_LIMIT} runs of totals: "
                             f"refuse exhaustive check")
    report = BoundsReport()
    m, k, h, lg = cfg.m, cfg.k, cfg.h, cfg.log2k
    groups = _groups(cfg)
    marg = marginal_expectation(cfg).values
    case_one_rhs = [Fraction(3 * h) / min(Fraction(k, 2), Fraction(max(m + 1 - j, lg)))
                    for j in range(m + 2)]

    # per group: the conditional upper bounds, then the posterior-ratio ones
    decided = [(*_run_claims(cfg, marg, case_one_rhs, dist, first >> m),
                range(first, first + count)) for dist, first, count in groups]
    for rows, _, totals in decided:
        report.repeat(rows, totals)
    # marginal lower bounds (lhs is the bound, rhs the computed marginal)
    for j in range(1, m - k // 2 + 1):
        report.add("lemma3_i", j, "", Fraction(k, 4 * h), marg[j])
    for j in range(m - k // 2 + 1, m + 1):
        report.add("lemma3_ii", j, "", Fraction(max(m + 1 - j, lg), 2 * h), marg[j])
    report.add("lemma3_iii", m + 1, "", Fraction(3 * (k - 2 * lg), 4 * h), marg[m + 1])
    report.add("lemma3_iv", 0, "", Fraction(k, 8), marg[0])
    for _, rows, totals in decided:
        report.repeat(rows, totals)

    # anonymity floor: scales consistent with one observed piece
    for p in range(0, m + 1):
        idx = p + 1
        scales = {first.bit_length() - 1 for dist, first, _ in groups
                  if dist.values[idx].numerator > 0}
        claim = "anonymity_floor" if p < m else "anonymity_floor[info]"
        report.add(claim, p, "", Fraction(lg), Fraction(len(scales)))
    return report
