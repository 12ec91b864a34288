"""Random-graph experiments around the growth-constant bounds.

Evaluates the closed-form lower/upper bound expressions for sparse random
graphs, runs the random-construction sampler behind the lower bound, searches
for large independent set pairs, and provides the exact triple-sum kernel of
the near-critical upper bound.  "With high probability" statements are
operationalised as fixed-seed Monte-Carlo estimates with Wilson intervals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .graphs import Graph

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
    entropy domain.  The exact upper expression exceeds 2 for moderate d;
    ``upper_exact_below_two`` flags when it is informative.
    """

    d: float
    lower_exact: float
    lower_asymptotic: float
    upper_exact: float
    upper_asymptotic: float
    lower_valid: bool
    upper_valid: bool
    upper_exact_below_two: bool


def stretch_parameter(d: float) -> float:
    """c = (1/d) * sqrt(1 - 4/d), the low-range overshoot of the sampler."""
    if d <= 4:
        raise ValueError("stretch needs d > 4")
    return math.sqrt(1.0 - 4.0 / d) / d


def flatness_parameter(d: float) -> float:
    """2 ln(d) / d, the set-size scale of the independent-pair argument."""
    return 2.0 * math.log(d) / d


def bound_report(d: float) -> BoundReport:
    """Evaluate both displayed bound expressions and their asymptotic forms."""
    if d <= 0:
        raise ValueError("d must be positive")
    lower_valid = d > 4
    if lower_valid:
        c = stretch_parameter(d)
        lower_exact = ((1.0 + c)
                       * (1.0 - c) ** (5.0 * math.exp(-d / 4.0))
                       * math.sqrt(1.0 - 1.0 / (d - 1.0)))
    else:
        lower_exact = math.nan
    lower_asymptotic = 1.0 + 1.0 / (2.0 * d)

    a = flatness_parameter(d)
    upper_valid = d >= 9
    if upper_valid:
        upper_exact = (2.0 ** math.exp(-d / 4.0)
                       * math.exp(d * a * a / (1.0 - math.exp(-d / 4.0))))
    else:
        upper_exact = math.nan
    upper_asymptotic = 1.0 + 4.0 * math.log(d) ** 2 / d

    return BoundReport(
        d=d,
        lower_exact=lower_exact,
        lower_asymptotic=lower_asymptotic,
        upper_exact=upper_exact,
        upper_asymptotic=upper_asymptotic,
        lower_valid=lower_valid,
        upper_valid=upper_valid,
        upper_exact_below_two=bool(upper_valid and upper_exact < 2.0),
    )


@dataclass(frozen=True)
class MarginReport:
    """Positivity margin of d*a^2 - 2a ln2 - H(2a) ln2 with a = 2 ln(d)/d."""

    d: float
    margin: float
    chain_value: float  # intermediate bound 4 ln(d)/d * ln(e d / (2 ln d))


def independent_pair_margin(d: float) -> MarginReport:
    """Margin showing two disjoint alpha*n vertex sets almost surely touch.

    Positive margin means the first-moment bound on edge-free set pairs
    vanishes.  Requires d >= 9 so that 2a <= 1 keeps the entropy defined.
    """
    if d < 9:
        raise ValueError("margin needs d >= 9 (entropy domain)")
    a = flatness_parameter(d)
    h2 = -2 * a * math.log2(2 * a) - (1 - 2 * a) * math.log2(1 - 2 * a) \
        if 2 * a < 1 else 0.0
    margin = d * a * a - 2 * a * math.log(2) - h2 * math.log(2)
    chain = (4.0 * math.log(d) / d) * math.log(math.e * d / (2.0 * math.log(d)))
    return MarginReport(d=d, margin=margin, chain_value=chain)


def giant_fraction_prediction(d: float, tol: float = 1e-13,
                              max_iter: int = 10**6) -> float:
    """Limiting giant-component fraction 1 - x/d with x = d e^(x-d).

    The fixed point is the small solution of x e^(-x) = d e^(-d) (the
    Lambert-W form); damped iteration from x0 = d e^(-d) converges because
    the map is increasing with derivative x* < 1 at the fixed point.
    """
    if d <= 1:
        raise ValueError("giant component needs d > 1")
    x = d * math.exp(-d)
    for _ in range(max_iter):
        nxt = 0.5 * (x + d * math.exp(x - d))
        if abs(nxt - x) <= tol * max(1.0, abs(nxt)):
            x = nxt
            break
        x = nxt
    return 1.0 - x / d


def poisson_tail_bound(d: float, x: float) -> float:
    """Tail bound Pr(X >= d + x) <= exp(-x^2 / (2(x + d))) for Poisson(d)."""
    if d <= 0:
        raise ValueError("d must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1.0
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
        if self.d <= 4:
            raise ValueError("d must exceed 4 for a real stretch parameter")

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
    seed: int
    edge_failure_rate: float  # failing edges per edge per trial


def lll_sampler(graph: Graph, cfg: LllConfig, trials: int,
                seed: int) -> MonteCarloResult:
    """Estimate how often the random construction lands on a valid function.

    Per trial, every vertex draws one value from its range; success means
    every edge satisfies |f(u) - f(v)| <= h.  Trials use derived seeds
    (seed, trial), so the aggregate is deterministic and scheduling-free,
    and the raw uniform stream does not depend on the graph.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    degrees = np.array(graph.degrees())
    low = degrees < cfg.degree_threshold
    lo_a, lo_b = cfg.low_range
    hi_a, hi_b = cfg.high_range
    base = np.where(low, lo_a, hi_a)
    width = np.where(low, lo_b - lo_a + 1, hi_b - hi_a + 1)
    edges = np.array(sorted(graph.edges), dtype=np.int64).reshape(-1, 2)

    successes = 0
    failing_edges = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        f = base + np.floor(rng.random(graph.n) * width).astype(np.int64)
        if edges.size:
            bad = np.abs(f[edges[:, 0]] - f[edges[:, 1]]) > cfg.h
            nbad = int(bad.sum())
        else:
            nbad = 0
        failing_edges += nbad
        successes += nbad == 0
    lo_ci, hi_ci = wilson_interval(successes, trials)
    rate = failing_edges / (trials * len(edges)) if len(edges) else 0.0
    return MonteCarloResult(trials, successes, successes / trials,
                            lo_ci, hi_ci, seed, rate)


@dataclass(frozen=True)
class PairSearchResult:
    found: bool
    set_a: tuple[int, ...] | None
    set_b: tuple[int, ...] | None
    definitive: bool


def independent_pair_search(graph: Graph, size: int,
                            exhaustive: bool | None = None,
                            attempts: int = 200,
                            seed: int = 0) -> PairSearchResult:
    """Look for two disjoint size-``size`` vertex sets with no crossing edge.

    Exhaustive mode (default for n <= 20) is definitive: "not found" means
    no such pair exists.  When 2*size == n the two sets cover every vertex,
    so each component lies wholly in one of them and the search is a subset
    sum over component sizes; otherwise it scans candidate sets A and takes
    B from the non-neighbours of A.  The heuristic mode samples random A
    sets and is inconclusive on failure.
    """
    if size < 1:
        raise ValueError("size must be positive")
    n = graph.n
    if exhaustive is None:
        exhaustive = n <= 20
    if 2 * size > n:
        return PairSearchResult(False, None, None, True)
    if exhaustive and n > 20:
        raise ValueError("exhaustive search capped at n = 20")
    if exhaustive and 2 * size == n:
        return _cover_split(graph, size)

    nbr_mask = [0] * n
    for u, v in graph.edges:
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

    if exhaustive:
        for a_set in combinations(range(n), size):
            b_set = complement_pick(a_set)
            if b_set is not None:
                return PairSearchResult(True, a_set, b_set, True)
        return PairSearchResult(False, None, None, True)

    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        a_set = tuple(int(v) for v in rng.choice(n, size=size, replace=False))
        b_set = complement_pick(a_set)
        if b_set is not None:
            return PairSearchResult(True, tuple(sorted(a_set)), b_set, False)
    return PairSearchResult(False, None, None, False)


def _cover_split(graph: Graph, size: int) -> PairSearchResult:
    """Definitive search when the two sets cover V: a union of components
    with ``size`` vertices is A, the rest is B."""
    parts = graph.components().parts
    # reached[t] = (component, previous sum) that first reached sum t; the
    # key snapshot per component keeps each one used at most once
    reached: dict[int, tuple[int, int] | None] = {0: None}
    for c, part in enumerate(parts):
        for t in list(reached):
            u = t + len(part)
            if u <= size and u not in reached:
                reached[u] = (c, t)
    if size not in reached:
        return PairSearchResult(False, None, None, True)
    chosen = []
    t = size
    while reached[t] is not None:
        c, t = reached[t]
        chosen.extend(parts[c])
    set_a = tuple(sorted(chosen))
    set_b = tuple(sorted(set(range(graph.n)) - set(chosen)))
    return PairSearchResult(True, set_a, set_b, True)


def triple_sum_success(h: int) -> Fraction:
    """Exact Pr(|X1 + X2 + X3| <= 2h) for independent uniforms on {-h..h}.

    Counted by summing the two-fold convolution against the admissible window
    of the third variable; the count of failing lattice points per sign is
    the tetrahedral number C(h+2, 3), approaching the corner-tetrahedra
    volume 1/24 of the cube as h grows.

    Closed form: p(h) = 1 - h(h+1)(h+2) / (3(2h+1)^3), with p(0) = 1.
    For h >= 1 the failing count exceeds the limiting corner volume, since
    8h(h+1)(h+2) > (2h+1)^3, so p(h) stays strictly below 23/24 and rises
    strictly toward it; only the step from h = 0 to h = 1 goes down, and
    the gap |p(h) - 23/24| shrinks strictly for every h >= 0.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h == 0:
        return Fraction(1)
    span = 2 * h + 1
    good = 0
    for s in range(-2 * h, 2 * h + 1):
        pairs = span - abs(s) if abs(s) <= 2 * h else 0
        lo = max(-h, -2 * h - s)
        hi = min(h, 2 * h - s)
        good += pairs * max(0, hi - lo + 1)
    return Fraction(good, span ** 3)


def epsilon_upper_bound(eps: float) -> float:
    """Growth-constant bound 2 - 2^(-18) eps^5 for degree 1 + eps graphs."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    return 2.0 - 2.0 ** -18 * eps ** 5
