"""Exact enumeration of h-Lipschitz functions and Ehrhart-polynomial fitting.

An h-Lipschitz function assigns an integer to every vertex, differs by at
most h across each edge, and sends the root of every component to 0.  Counts
are exact Python integers; polynomial fits use exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ResourceLimitError
from .graphs import Graph

DEFAULT_BUDGET = 10**9


@dataclass(frozen=True)
class PinSpec:
    """Vertices forced to given values (the component root must be pinned to 0)."""

    vertices: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.values):
            raise ValueError("vertices and values must have equal length")
        if not self.vertices:
            raise ValueError("pin set must be nonempty")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("repeated pinned vertex")

    def negated(self) -> "PinSpec":
        return PinSpec(self.vertices, tuple(-w for w in self.values))


def _bfs_order(graph: Graph, root: int) -> list[int]:
    order = [root]
    seen = {root}
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for w in graph.adjacency[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _search_component(graph: Graph, order: list[int], pin_value: dict[int, int],
                      h: int) -> tuple[int, int]:
    """Count completions over one component by depth-first assignment.

    Vertices are visited in BFS order from the root; each vertex ranges over
    the intersection of [f(u)-h, f(u)+h] over already-assigned neighbours u.
    A vertex none of whose neighbours come later cannot influence the rest of
    the search, so its interval length multiplies instead of branching.
    Returns (count, node expansions); the work is bounded a priori by the
    caller's guard, so the search itself never aborts.
    """
    pos = {v: i for i, v in enumerate(order)}
    length = len(order)
    earlier: list[tuple[int, ...]] = []
    has_later: list[bool] = []
    pins: list[int | None] = []
    for i, v in enumerate(order):
        nb = [pos[w] for w in graph.adjacency[v]]
        earlier.append(tuple(j for j in nb if j < i))
        has_later.append(any(j > i for j in nb))
        pins.append(pin_value.get(v))
    values = [0] * length
    expansions = 0

    def rec(i: int) -> int:
        nonlocal expansions
        lo, hi = -(1 << 62), 1 << 62
        for j in earlier[i]:
            vj = values[j]
            if vj - h > lo:
                lo = vj - h
            if vj + h < hi:
                hi = vj + h
        pin = pins[i]
        if pin is not None:
            if pin < lo or pin > hi:
                return 0
            expansions += 1
            values[i] = pin
            return rec(i + 1) if i + 1 < length else 1
        if lo > hi:
            return 0
        expansions += 1
        nxt = i + 1
        if not has_later[i]:
            width = hi - lo + 1
            return width if nxt == length else width * rec(nxt)
        total = 0
        for val in range(lo, hi + 1):
            values[i] = val
            total += rec(nxt)
        return total

    if length == 1:
        # lone root, pinned to its value
        return (1 if pins[0] in (None, 0) else 0), 0
    count = rec(0)
    return count, expansions


def _guard(graph: Graph, h: int, n_pinned_nonroot: int, budget: int) -> None:
    """A-priori work bound: reject when (2h+1)^free exceeds the budget.

    Every free vertex ranges over at most 2h+1 values, so the guard bounds
    the search tree before any work happens; a run that starts always
    finishes.  Deterministic, unlike a wall-clock limit.
    """
    free = graph.n - graph.component_count - n_pinned_nonroot
    if (2 * h + 1) ** max(free, 0) > budget:
        raise ResourceLimitError(
            f"(2h+1)^free = (2*{h}+1)^{free} exceeds budget {budget}")


def count_with_stats(graph: Graph, h: int, budget: int = DEFAULT_BUDGET,
                     pin: PinSpec | None = None) -> tuple[int, int]:
    """Exact count plus the number of search-tree node expansions used."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    pin_value: dict[int, int] = {}
    if pin is not None:
        pin_value = dict(zip(pin.vertices, pin.values))
        for v in pin.vertices:
            if not (0 <= v < graph.n):
                raise ValueError(f"pinned vertex {v} out of range")
        touched = {graph.component_of[v] for v in pin.vertices}
        for c in touched:
            r = graph.root_of_component(c)
            if r not in pin_value:
                raise ValueError(f"pin set must contain the root {r} of its component")
            if pin_value[r] != 0:
                raise ValueError("the root pin must be 0")
    for r in graph.roots:
        pin_value.setdefault(r, 0)

    if h == 0:
        # only translates of the zero function survive, one per component
        return (1 if all(w == 0 for w in pin_value.values()) else 0), 0

    if pin is not None and _pin_infeasible_by_distance(graph, pin_value, h):
        return 0, 0

    _guard(graph, h, len(pin_value) - graph.component_count, budget)
    total = 1
    expansions = 0
    for part in graph.components().parts:
        root = next(r for r in graph.roots if r in part)
        order = _bfs_order(graph, root)
        c, e = _search_component(graph, order, pin_value, h)
        total *= c
        expansions += e
        if total == 0:
            break
    return total, expansions


def _pin_infeasible_by_distance(graph: Graph, pin_value: dict[int, int], h: int) -> bool:
    """Screen |w(v)| > h * dist(root, v), which forces an empty count."""
    for c, part in enumerate(graph.components().parts):
        pinned_here = [v for v in part if v in pin_value]
        if len(pinned_here) <= 1:
            continue
        root = graph.root_of_component(c)
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in graph.adjacency[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        for v in pinned_here:
            if abs(pin_value[v]) > h * dist[v]:
                return True
    return False


def count_bruteforce(graph: Graph, h: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact |{h-Lipschitz functions on graph}| by pruned depth-first search."""
    return count_with_stats(graph, h, budget)[0]


def count_closed_form(kind: str, n: int, h: int) -> int:
    """Closed-form counts: (2h+1)^(n-1) for any tree, (h+1)^n - h^n for K_n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if h < 0:
        raise ValueError("h must be nonnegative")
    if kind == "tree":
        return (2 * h + 1) ** (n - 1)
    if kind == "complete":
        return (h + 1) ** n - h ** n
    raise ValueError(f"unknown closed form {kind!r}")


def count_pinned(graph: Graph, h: int, pin: PinSpec,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Exact count of h-Lipschitz functions agreeing with the pinned values.

    An infeasible pin simply counts zero functions; it is not an error.
    """
    return count_with_stats(graph, h, budget, pin=pin)[0]


@dataclass(frozen=True)
class EhrhartPoly:
    """Interpolated counting polynomial with exact rational coefficients.

    ``coeffs[i]`` multiplies h^i; the degree is n - k and the leading
    coefficient L determines the growth constant c = L^(1/(n-k)).
    """

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    @property
    def c_estimate(self) -> float:
        if self.degree == 0:
            raise ValueError("growth constant needs degree >= 1")
        return float(self.leading) ** (1.0 / self.degree)

    def evaluate(self, h: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * h + c
        return acc


def ehrhart_fit(graph: Graph, counts: Sequence[tuple[int, int]]) -> EhrhartPoly:
    """Interpolate exact counts at n-k+1 distinct h values.

    The counting function is a degree-(n-k) polynomial, so the interpolant is
    exact; its value at any further h equals the true count.
    """
    nfree = graph.n - graph.component_count
    if len(counts) != nfree + 1:
        raise ValueError(f"need exactly {nfree + 1} nodes, got {len(counts)}")
    hs = [int(h) for h, _ in counts]
    if len(set(hs)) != len(hs):
        raise ValueError("interpolation nodes must be distinct")

    # Newton's divided differences in exact arithmetic, then expansion.
    ys = [Fraction(c) for _, c in counts]
    coef = list(ys)
    for level in range(1, len(hs)):
        for i in range(len(hs) - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (hs[i] - hs[i - level])
    poly = [Fraction(0)] * len(hs)
    acc = [Fraction(1)]  # running product (h - h_0)...(h - h_{level-1})
    for level, c in enumerate(coef):
        for i, a in enumerate(acc):
            poly[i] += c * a
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] -= a * hs[level]
            nxt[i + 1] += a
        acc = nxt

    fit = EhrhartPoly(tuple(poly))
    if nfree >= 1:
        lead = fit.leading
        if lead < 1 or lead > Fraction(2) ** nfree:
            raise ValueError(
                f"leading coefficient {lead} outside [1, 2^{nfree}]; counts look wrong")
    return fit


def ehrhart_nodes(graph: Graph) -> list[int]:
    """Smallest exact node set h = 0..n-k."""
    return list(range(graph.n - graph.component_count + 1))


def counts_for_fit(graph: Graph, budget: int = DEFAULT_BUDGET,
                   hs: Iterable[int] | None = None) -> list[tuple[int, int]]:
    """Brute-force counts at the interpolation nodes."""
    if hs is None:
        hs = ehrhart_nodes(graph)
    return [(h, count_bruteforce(graph, h, budget)) for h in hs]


def c_empirical(graph: Graph, h_list: Sequence[int],
                budget: int = DEFAULT_BUDGET):
    """Growth-constant estimate from exact counts.

    With n - k + 1 values of h this interpolates the counting polynomial and
    returns the exact-leading-coefficient root as a float; otherwise it
    returns the finite-h sequence (1/h) count^(1/(n-k)).
    """
    nfree = graph.n - graph.component_count
    if nfree == 0:
        raise ValueError("graph with no free vertices has no growth constant")
    hs = list(h_list)
    if len(set(hs)) != len(hs):
        raise ValueError("h values must be distinct")
    counts = counts_for_fit(graph, budget, hs)
    if len(hs) == nfree + 1:
        return ehrhart_fit(graph, counts).c_estimate
    return [c ** (1.0 / nfree) / h for h, c in counts if h > 0]


def c_from_ehrhart(graph: Graph, budget: int = DEFAULT_BUDGET) -> float:
    """Convenience: fitted growth constant at the smallest exact nodes."""
    return c_empirical(graph, ehrhart_nodes(graph), budget)
