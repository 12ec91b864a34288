"""Random-graph experiments around the growth-constant bounds.

Evaluates the closed-form lower/upper bound expressions for sparse random
graphs (None outside their validity range), runs the random-construction
sampler behind the lower bound, searches for large independent set pairs,
and provides the exact triple-sum kernel of the near-critical upper bound.
"With high probability" statements are operationalised as fixed-seed
Monte-Carlo estimates with Wilson intervals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .graphs import Graph
from .iterate import _bisect

_WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z2 = _WILSON_Z ** 2
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = _WILSON_Z * math.sqrt(
        phat * (1 - phat) / trials + z2 / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class BoundReport:
    """Exact and asymptotic growth-constant bounds at expected degree d.

    ``lower_valid`` needs d > 4 (real stretch parameter); ``upper_valid``
    needs d >= 9 so twice the flatness parameter 2*ln(d)/d stays within the
    entropy domain.  Each exact expression is None where it is not valid,
    and each asymptotic form is None where it overflows (d below about
    1e-302 for the upper, 2.8e-309 for the lower).
    The exact upper expression exceeds 2 for moderate d;
    ``upper_exact_below_two`` flags when it is informative.  ``pair_margin``
    shares the upper range and ``giant_fraction`` needs d > 1; each is None
    outside it.
    """

    d: float
    lower_exact: float | None
    lower_asymptotic: float | None
    upper_exact: float | None
    upper_asymptotic: float | None
    lower_valid: bool
    upper_valid: bool
    upper_exact_below_two: bool
    pair_margin: float | None
    giant_fraction: float | None


def stretch_parameter(d: float) -> float:
    """c = (1/d) * sqrt(1 - 4/d), the low-range overshoot of the sampler."""
    if not d > 4:
        raise ValueError("stretch needs d > 4")
    return math.sqrt(1.0 - 4.0 / d) / d


def flatness_parameter(d: float) -> float:
    """2 ln(d) / d, the set-size scale of the independent-pair argument."""
    return 2.0 * math.log(d) / d


def _finite_or_none(x: float) -> float | None:
    return x if x < math.inf else None


def bound_report(d: float) -> BoundReport:
    """Evaluate both displayed bound expressions and their asymptotic forms."""
    if not 0 < d < math.inf:
        raise ValueError("d must be positive and finite")
    lower_valid = d > 4
    lower_exact = upper_exact = None
    if lower_valid:
        c = stretch_parameter(d)
        lower_exact = ((1.0 + c)
                       * (1.0 - c) ** (5.0 * math.exp(-d / 4.0))
                       * math.sqrt(1.0 - 1.0 / (d - 1.0)))

    a = flatness_parameter(d)
    upper_valid = d >= 9
    if upper_valid:
        upper_exact = (2.0 ** math.exp(-d / 4.0)
                       * math.exp(d * a * a / (1.0 - math.exp(-d / 4.0))))

    return BoundReport(
        d=d,
        lower_exact=lower_exact,
        lower_asymptotic=_finite_or_none(1.0 + 1.0 / (2.0 * d)),
        upper_exact=upper_exact,
        upper_asymptotic=_finite_or_none(1.0 + 4.0 * math.log(d) ** 2 / d),
        lower_valid=lower_valid,
        upper_valid=upper_valid,
        upper_exact_below_two=bool(upper_valid and upper_exact < 2.0),
        pair_margin=independent_pair_margin(d) if upper_valid else None,
        giant_fraction=giant_fraction_or_none(d),
    )


def independent_pair_margin(d: float) -> float:
    """d*a^2 - 2a ln2 - H(2a) ln2 with a = 2 ln(d)/d, the margin showing two
    disjoint alpha*n vertex sets almost surely touch.

    A positive margin means the first-moment bound on edge-free set pairs
    vanishes.  Requires d >= 9, where 2a <= 4 ln(9)/9 < 0.98 keeps H(2a) real.
    """
    if not 9 <= d < math.inf:
        raise ValueError("margin needs finite d >= 9 (entropy domain)")
    a = flatness_parameter(d)
    h2 = -2 * a * math.log2(2 * a) - (1 - 2 * a) * math.log2(1 - 2 * a)
    return d * a * a - 2 * a * math.log(2) - h2 * math.log(2)


def giant_fraction_prediction(d: float) -> float:
    """Limiting giant-component fraction: the root y in (0, 1] of
    1 - y = e^(-d y).

    f(y) = 1 - y - e^(-d y) is concave with f(0) = 0, f'(0) = d - 1 > 0 and
    f(1) = -e^(-d) < 0, so for d > 1 it has one root in (0, 1], which
    ``iterate._bisect`` brackets to adjacent doubles on [0, 1] (f(1)
    rounding to 0 means y rounds to 1).  The root's relative condition
    number is about 1/(d - 1), which bounds the accuracy near d = 1.
    """
    if not d > 1:
        raise ValueError("giant component needs d > 1")
    return _bisect(lambda y: -math.expm1(-d * y) - y, 0.0, 1.0)


def giant_fraction_or_none(d: float) -> float | None:
    """``giant_fraction_prediction(d)`` in its domain d > 1, else None."""
    return giant_fraction_prediction(d) if d > 1 else None


def poisson_tail_bound(d: float, x: float) -> float:
    """Tail bound Pr(X >= d + x) <= exp(-x^2 / (2(x + d))) for Poisson(d)."""
    if not d > 0:
        raise ValueError("d must be positive")
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    return math.exp(-x * x / (2.0 * (x + d)))


@dataclass(frozen=True)
class LllConfig:
    """Recipe for the random-construction sampler at bound h and degree d.

    Vertices of sampled degree below ceil(2d) draw uniformly from the low
    range {0..floor((1+c)h)}; the rest draw from the high range
    {ceil(ch)..h}, whose values are within h of every admissible value, so
    their edges can never fail.
    """

    h: int
    d: float

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("h must be nonnegative")
        if not 4 < self.d < math.inf:
            raise ValueError("d must be finite and exceed 4 for a real "
                             "stretch parameter")

    @property
    def stretch(self) -> float:
        return stretch_parameter(self.d)

    @property
    def degree_threshold(self) -> int:
        return math.ceil(2 * self.d)

    @property
    def low_range(self) -> tuple[int, int]:
        return 0, math.floor((1.0 + self.stretch) * self.h)

    @property
    def high_range(self) -> tuple[int, int]:
        return math.ceil(self.stretch * self.h), self.h


@dataclass(frozen=True)
class MonteCarloResult:
    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    edge_failure_rate: float  # failing edges per edge per trial
    seed: int


def _uniform_cuts(width: float, ks: np.ndarray) -> np.ndarray:
    """For each integer k >= 0 in ``ks``, the least double c with
    fl(c * width) >= k.

    fl(u * width) never decreases as u grows, so for every double u,
    floor(fl(u * width)) >= k holds exactly when u >= c.  The walk starts
    from fl(k / width), which is within a few doubles of c.
    """
    c = ks / width
    while True:
        down = np.nextafter(c, -np.inf)
        step = down * width >= ks
        if not step.any():
            break
        c = np.where(step, down, c)
    while True:
        step = c * width < ks
        if not step.any():
            break
        c = np.where(step, np.nextafter(c, np.inf), c)
    return c


def lll_sampler(graph: Graph, cfg: LllConfig, trials: int,
                seed: int) -> MonteCarloResult:
    """Estimate how often the random construction lands on a valid function.

    Per trial, every vertex draws one value from its range; success means
    every edge satisfies |f(u) - f(v)| <= h.  All trials read one stream,
    ``default_rng(seed)``: trial t takes its uniforms t*n .. t*n + n - 1,
    one per vertex in vertex order, so the result is a pure function of
    (graph, cfg, trials, seed) and the raw stream does not depend on the
    graph.  Each uniform is one 64-bit draw, so trial t alone is
    reproduced by ``rng.bit_generator.advance(t * n)`` on a fresh
    ``default_rng(seed)``.

    Each failing edge is counted once, from its lower endpoint u: since
    f(v) - f(u) > h and no value exceeds the top of the low range, f(u) is
    at most ``thr`` = low_range[1] - h - 1.  High-range vertices are never
    that endpoint, because every high value is at least
    low_range[1] - h > thr, and never the upper one either, because no
    high value exceeds h.  So the neighbour table keeps low-low edges only;
    its rows are padded with a sentinel vertex that fails no edge.

    A low vertex with uniform u takes f = floor(fl(u * w)) over the w
    values of its range (which starts at 0), and that never decreases as u
    grows.  So f >= k holds exactly when u >= c_k, the least double with
    fl(c_k * w) >= k (``_uniform_cuts``), and a trial decides in uniform
    space: the vertices with u below their cut (c_{thr+1} when low, 0 when
    high) are the lower endpoints, each gets its f, and its neighbour v
    fails the edge when u_v >= c_{f+h+1}.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n = graph.n
    e = graph.edge_array
    low = np.bincount(e.ravel(), minlength=n) < cfg.degree_threshold
    _, lo_b = cfg.low_range  # the low range starts at 0
    width = float(lo_b + 1)
    # cuts[k] = c_k for every value k of the low range; thr + 1 >= 0
    cuts = _uniform_cuts(width, np.arange(lo_b + 1))
    thr = lo_b - cfg.h - 1
    cut = np.where(low, cuts[thr + 1], 0.0)
    top = cuts[cfg.h + 1:]  # top[f] = c_{f+h+1} for f in 0..thr

    # One row per vertex listing its low neighbours, filled for low
    # vertices only; empty slots hold the sentinel vertex n.
    src = np.concatenate((e[:, 0], e[:, 1]))
    dst = np.concatenate((e[:, 1], e[:, 0]))
    keep = low[src] & low[dst]
    order = np.argsort(src[keep], kind="stable")
    src, dst = src[keep][order], dst[keep][order]
    row_len = np.bincount(src, minlength=n)
    slot = np.arange(src.size) - (np.cumsum(row_len) - row_len)[src]
    pad = np.full((n, row_len.max()), n, dtype=np.int64)
    pad[src, slot] = dst

    buf = np.zeros(n + 1)  # buf[n] is the sentinel's uniform, 0 < top
    u = buf[:n]
    bottom = np.empty(n, dtype=bool)
    successes = 0
    failing_edges = 0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        rng.random(out=u)
        np.less(u, cut, out=bottom)
        b = bottom.nonzero()[0]
        f_b = (u.take(b) * width).astype(np.intp)  # floor, as u >= 0
        nbad = int(np.count_nonzero(
            buf.take(pad.take(b, axis=0)) >= top.take(f_b)[:, None]))
        failing_edges += nbad
        successes += nbad == 0
    lo_ci, hi_ci = wilson_interval(successes, trials)
    rate = failing_edges / (trials * len(e)) if len(e) else 0.0
    return MonteCarloResult(trials, successes, successes / trials,
                            lo_ci, hi_ci, rate, seed)


@dataclass(frozen=True)
class PairSearchResult:
    found: bool
    set_a: tuple[int, ...] | None
    set_b: tuple[int, ...] | None
    definitive: bool


def independent_pair_search(graph: Graph, size: int,
                            seed: int = 0) -> PairSearchResult:
    """Look for two disjoint size-``size`` vertex sets with no crossing edge.

    When 2*size == n the two sets cover every vertex, so each component
    lies wholly in one of them: the search is a subset sum over component
    sizes and definitive at any n.  Otherwise one loop takes B from the
    non-neighbours of each candidate A: every size-``size`` set for n <= 20,
    which is definitive ("not found" means no such pair exists), else 200
    random sets from ``default_rng(seed)``, inconclusive on failure.
    """
    if size < 1:
        raise ValueError("size must be positive")
    n = graph.n
    exhaustive = n <= 20
    if 2 * size > n:
        return PairSearchResult(False, None, None, True)
    if 2 * size == n:
        return _cover_split(graph, size)

    nbr_mask = [0] * n
    for u, v in graph.edge_array.tolist():
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    full = (1 << n) - 1

    def complement_pick(a_set: tuple[int, ...]) -> tuple[int, ...] | None:
        closed = 0
        for v in a_set:
            closed |= nbr_mask[v] | (1 << v)
        free = full & ~closed
        if free.bit_count() < size:
            return None
        picked = []
        while len(picked) < size:
            b = free & -free
            picked.append(b.bit_length() - 1)
            free ^= b
        return tuple(picked)

    rng = np.random.default_rng(seed)
    candidates = combinations(range(n), size) if exhaustive else (
        tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        for _ in range(200))
    for a_set in candidates:
        b_set = complement_pick(a_set)
        if b_set is not None:
            return PairSearchResult(True, a_set, b_set, exhaustive)
    return PairSearchResult(False, None, None, exhaustive)


def _cover_split(graph: Graph, size: int) -> PairSearchResult:
    """Definitive search when the two sets cover V: a union of components
    with ``size`` vertices is A, the rest is B.

    The subset sum runs on Python-int bitsets (bit t set iff some choice of
    components holds t vertices).  The q components of one size enter as
    0/1 items of 1, 2, 4, ... of them, so the work grows with the number of
    distinct sizes, not of components.
    """
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for part in graph.parts:
        by_size.setdefault(len(part), []).append(part)
    items = []   # (component size, how many of them)
    for s, group in by_size.items():
        left, k = len(group), 1
        while left:
            items.append((s, min(k, left)))
            left -= items[-1][1]
            k *= 2
    mask = (1 << size + 1) - 1
    reach = [1]  # reach[i]: the sums the first i items make
    for s, k in items:
        reach.append((reach[-1] | reach[-1] << s * k) & mask)
    if not reach[-1] >> size & 1:
        return PairSearchResult(False, None, None, True)
    taken = dict.fromkeys(by_size, 0)
    t = size
    for i in reversed(range(len(items))):
        if not reach[i] >> t & 1:   # t needs item i
            s, k = items[i]
            taken[s] += k
            t -= s * k
    chosen = {v for s, k in taken.items() for part in by_size[s][:k]
              for v in part}
    set_a = tuple(sorted(chosen))
    set_b = tuple(v for v in range(graph.n) if v not in chosen)
    return PairSearchResult(True, set_a, set_b, True)


def triple_sum_success(h: int) -> Fraction:
    """Exact Pr(|X1 + X2 + X3| <= 2h) for independent uniforms on {-h..h}:
    p(h) = 1 - h(h+1)(h+2) / (3(2h+1)^3), with p(0) = 1.

    The sum passes 2h only in a corner of the cube: with x_i = h - X_i >= 0,
    X1 + X2 + X3 > 2h reads x1 + x2 + x3 <= h - 1, so the failing lattice
    points per sign are the tetrahedral number C(h+2, 3), approaching the
    corner-tetrahedra volume 1/24 of the cube as h grows.  For h >= 1 the
    failing count exceeds the limiting corner volume, since 8h(h+1)(h+2) >
    (2h+1)^3, so p(h) stays strictly below 23/24 and rises strictly toward
    it; only the step from h = 0 to h = 1 goes down, and the gap
    |p(h) - 23/24| shrinks strictly for every h >= 0.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    return 1 - Fraction(h * (h + 1) * (h + 2), 3 * (2 * h + 1) ** 3)


def epsilon_upper_bound(eps: float) -> float:
    """Growth-constant bound 2 - 2^(-18) eps^5 for degree 1 + eps graphs."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    return 2.0 - 2.0 ** -18 * eps ** 5
