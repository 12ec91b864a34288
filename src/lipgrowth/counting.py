"""Exact counting of h-Lipschitz functions and Ehrhart-polynomial fitting.

An h-Lipschitz function assigns an integer to every vertex, differs by at
most h across each edge, and sends the root of every component, its
smallest vertex, to 0.  ``count`` gives their number as an exact Python
integer by bucket elimination: ``_plan`` emits the steps, ``_eliminate``
runs them.  ``reciprocal_fit`` runs one plan at every h it counts and
interpolates the counting polynomial in ints; its ``c_estimate`` is c(G).

Each edge is a window 1[|f(u) - f(v)| <= h].  Summing out a variable held
only by such windows needs no product: over f(v) in [lo, hi] they give the
length of [lo, hi] & [max_j x_j - h, min_j x_j + h], the identity the strip
operators' window sums rest on, here with a constant table.  Band matrices
are built only inside the ``np.einsum`` steps that also take a table.
"""
from __future__ import annotations

import functools
import heapq
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, ResourceLimitError
from .graphs import Graph

_LABELS = string.ascii_letters  # einsum's subscript alphabet: 52 axes per step
_INT64_MAX = int(np.iinfo(np.int64).max)


def _domains(graph: Graph, h: int) -> list[tuple[int, int]]:
    """Interval [-h*d, h*d] of values each vertex can take, with d its BFS
    distance from its component's root.

    Every h-Lipschitz f has |f(v)| <= h * d, since f(root) = 0.  The bounds
    are themselves h-Lipschitz (d changes by at most 1 across an edge), so
    every edge constraint at a vertex whose interval is one value already
    holds: such vertices, the roots among them, are constants.
    """
    dist = [-1] * graph.n
    frontier = list(graph.roots)
    for r in frontier:
        dist[r] = 0
    while frontier:
        nxt = []
        for u in frontier:
            for x in graph.adjacency[u]:
                if dist[x] < 0:
                    dist[x] = dist[u] + 1
                    nxt.append(x)
        frontier = nxt
    return [(-h * d, h * d) for d in dist]


def _plan(graph: Graph, domains: list[tuple[int, int]],
          budget: int) -> tuple[list[tuple], int]:
    """Bucket elimination steps over the variables of ``domains`` (vertices
    of more than one value), checked against ``budget`` before any work.

    Greedy min-degree order: eliminating v pops its neighbours (its scope)
    and makes them a clique.  Ties go to the fewest table cells, then to the
    lowest vertex index, so the order is deterministic.  A step is (v, scope,
    band, inputs, spec): band is v's graph neighbours in its scope, inputs
    the earlier steps whose tables hold v, and spec, for a step with inputs
    (else None), the subscripts of its ``np.einsum`` over those tables and
    its band matrices, built here once for every h the plan runs at.  Scope
    and band run in reverse elimination order, latest first, so v is the
    last axis of every table a step takes, and the step's own table has its
    scope's axes.  Returns the
    steps and the cells they evaluate: prod(size over scope + v), the einsum
    loop extents, for a step with inputs, and the output cells, prod(size
    over scope), for one without.
    """
    size = {v: b - a + 1 for v, (a, b) in enumerate(domains) if b > a}
    nbrs = {v: {w for w in graph.adjacency[v] if w in size} for v in size}

    def key(u: int) -> tuple[int, int, int]:
        return len(nbrs[u]), math.prod(size[w] for w in nbrs[u]), u

    # a heap of keys, re-pushed when a neighbour set changes; stale entries
    # are skipped, so each pop is the current minimum
    heap = [key(u) for u in nbrs]
    heapq.heapify(heap)
    steps: list[tuple] = []
    touched: set[int] = set()
    work = 0
    # the edge factors are tables too
    largest = max((size[v] * size[w] for v in nbrs for w in nbrs[v]), default=1)
    while heap:
        k = heapq.heappop(heap)
        v = k[2]
        if v not in nbrs or k != key(v):
            continue
        scope = nbrs.pop(v)
        cells = k[1]
        largest = max(largest, cells)
        if largest > budget or len(scope) >= len(_LABELS):
            raise ResourceLimitError(
                f"elimination needs a table of {largest} cells (budget "
                f"{budget}), {len(scope)} axes at vertex {v}")
        work += cells * size[v] if v in touched else cells
        touched |= scope
        for w in scope:
            nbrs[w] |= scope
            nbrs[w] -= {v, w}
            heapq.heappush(heap, key(w))
        steps.append((v, scope, []))
    index = {s[0]: k for k, s in enumerate(steps)}
    for k, (v, scope, inputs) in enumerate(steps):
        scope = sorted(scope, key=index.get, reverse=True)
        if scope:  # taken by the first of its scope eliminated, its last axis
            steps[index[scope[-1]]][2].append(k)
        band = [w for w in scope if w in graph.adjacency[v]]
        spec = None
        if inputs:  # complete: every step taking a table comes before k
            label = dict(zip(scope + [v], _LABELS))
            subs = [steps[i][1] for i in inputs] + [(w, v) for w in band]
            spec = (",".join("".join(label[u] for u in s) for s in subs)
                    + "->" + "".join(label[u] for u in scope))
        steps[k] = (v, scope, band, inputs, spec)
    return steps, work


def _band_sum(partners: list[np.ndarray], lo: int, hi: int,
              h: int) -> np.ndarray:
    """The int64 table of a bucket of band factors only: over y in [lo, hi],
    prod_j 1[|y - x_j| <= h] sums to the length of [lo, hi] & [max_j x_j - h,
    min_j x_j + h], or 0, with partner j's values x_j along axis j.

    With c the last partner's values, a = min(hi - h, the others' min) and
    b = max(lo + h, the others' max), the length is min(a, c) - max(b, c)
    + 2h + 1 = min(a - b, a - c, c - b, 0) + 2h + 1.  a and b span the other
    axes only, and the rest is formed in place in the table, so no other
    array of its size exists.
    """
    *rest, c = [x.reshape([-1 if j == i else 1 for j in range(len(partners))])
                for i, x in enumerate(partners)]
    a = functools.reduce(np.minimum, rest, hi - h)
    b = functools.reduce(np.maximum, rest, lo + h)
    table = a - c
    np.minimum(table, np.minimum(a - b, 0), out=table)
    table += b  # min(t, c - b) = min(t + b, c) - b
    np.minimum(table, c, out=table)
    table -= b - (2 * h + 1)
    np.maximum(table, 0, out=table)
    return table


def _eliminate(steps: list[tuple], domains: list[tuple[int, int]],
               h: int) -> int:
    """The count over ``domains`` by ``_plan``'s ``steps``, as
    ``count_with_stats`` describes; a one-value domain is an axis of one."""
    values = [np.arange(a, b + 1, dtype=np.int64) for a, b in domains]

    # Exactness: a table made by eliminating the set S holds, per assignment
    # of its scope, the number of Lipschitz assignments of S.  Every
    # connected piece of S touches a vertex that is fixed in that entry (a
    # scope variable or a constant), so walking each piece outward from it
    # gives each x in S at most min(2h+1, size[x]) choices.  Each table
    # carries that product as its bound; entries, and the partial sums einsum
    # forms on the way to them, stay below it.  A step runs in int64 while
    # its bound fits, otherwise on object arrays of Python ints.
    tables: dict[int, tuple[np.ndarray, int]] = {}
    total = 1
    for k, (v, scope, band, inputs, spec) in enumerate(steps):
        taken = [tables.pop(i) for i in inputs]  # freed once used
        bound = min(2 * h + 1, len(values[v])) * math.prod(b for _, b in taken)
        if not taken:
            table = (_band_sum([values[w] for w in band], *domains[v], h)
                     if band else len(values[v]))
        else:
            dtype = np.int64 if bound <= _INT64_MAX else object
            table = np.einsum(
                spec, *(t.astype(dtype, copy=False) for t, _ in taken),
                *((np.abs(np.subtract.outer(values[w], values[v])) <= h)
                  .astype(dtype) for w in band), optimize=False)
        if scope:
            tables[k] = (table, bound)
        else:
            total *= int(table)
    return total


def count_with_stats(graph: Graph, h: int,
                     budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Exact count by bucket elimination, plus the table cells evaluated.

    The count is a #CSP: each vertex with more than one admissible value
    (see ``_domains``) is a variable, and each edge between two variables is
    a band-indicator factor 1[|f(u) - f(v)| <= h].  ``_plan`` emits the
    steps that sum the variables out one at a time in min-degree order
    (Dechter, Bucket elimination, AI 1999), and ``_eliminate`` runs them.
    A step that takes no table is summed in closed form: its band factors'
    window intersection length (``_band_sum``, the identity behind the
    strip operators' window sums).  Every other step is one fused
    ``np.einsum`` over the tables it takes and its band matrices, so the
    product that still includes its variable is never built, and band
    matrices exist only inside such a step.  Work is polynomial in h for
    graphs of bounded width.  Planning raises ``ResourceLimitError`` at a
    table over ``budget`` cells, before any table exists; the second value
    is the cells the steps evaluate (see ``_plan``).  The budget counts
    cells, not bytes: a table past int64 holds one Python int per cell.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    domains = _domains(graph, h)
    steps, work = _plan(graph, domains, budget)
    return _eliminate(steps, domains, h), work


def count(graph: Graph, h: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact count of h-Lipschitz functions.

    The engine is ``count_with_stats``; the pruned depth-first search it
    replaced is the test oracle ``dfs_count`` in ``tests/helpers.py``.
    """
    return count_with_stats(graph, h, budget)[0]


def count_closed_form(graph: Graph, h: int) -> int:
    """Exact count as a product over components: (2h+1)^(s-1) for a tree of
    s vertices, (h+1)^s - h^s for K_s (K_1 and K_2 are both, and the two
    agree on them).  Any other component raises ValueError."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    total = 1
    for part in graph.parts:
        s = len(part)
        e = sum(len(graph.adjacency[v]) for v in part) // 2
        if e == s - 1:
            total *= (2 * h + 1) ** (s - 1)
        elif e == s * (s - 1) // 2:
            total *= (h + 1) ** s - h ** s
        else:
            raise ValueError("closed forms need trees or complete graphs, "
                             f"not a component of {s} vertices and {e} edges")
    return total


def _root(x: int | Fraction, k: int) -> float:
    """x^(1/k) for a positive int or Fraction x: float(x) ** (1/k) wherever
    float(x) is finite, else y^(1/k) 2^q for x = y 2^(kq) with y in float
    range, the power of two exact.  Only for k > 1000 can y pass 2^1000;
    then its own 2^r is rooted apart."""
    try:
        return float(x) ** (1.0 / k)
    except OverflowError:
        x = Fraction(x)
    q, r = divmod(x.numerator.bit_length() - x.denominator.bit_length(), k)
    if r < 1000:
        return math.ldexp(float(x / 2 ** (k * q)) ** (1.0 / k), q)
    y = float(x / 2 ** (k * q + r))
    return math.ldexp(y ** (1.0 / k) * 2.0 ** (r / k), q)


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
        return _root(self.leading, self.degree)

    def evaluate(self, h: int) -> Fraction:
        """Horner's rule in ints, on numerators over the lcm denominator."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * h + c.numerator * (den // c.denominator)
        return Fraction(acc, den)


def ehrhart_fit(graph: Graph, counts: Sequence[tuple[int, int]]) -> EhrhartPoly:
    """Interpolate exact counts at n-k+1 distinct h values.

    The counting function is a degree-(n-k) polynomial, so the interpolant is
    exact; its value at any further h equals the true count.  Lagrange's
    form runs in ints: node i's basis polynomial N(h) / (h - h_i), N(h) =
    prod_j (h - h_j), is one synthetic division, scaled by y_i L / w_i over
    the common denominator L = lcm of w_i = prod_{j != i} (h_i - h_j).
    """
    nfree = graph.n - graph.component_count
    if len(counts) != nfree + 1:
        raise ValueError(f"need exactly {nfree + 1} nodes, got {len(counts)}")
    hs = [int(h) for h, _ in counts]
    if len(set(hs)) != len(hs):
        raise ValueError("interpolation nodes must be distinct")

    node = [1]  # N(h), low degree first
    for x in hs:
        node = [a - x * b for a, b in zip([0] + node, node + [0])]
    ws = [math.prod(x - z for z in hs if z != x) for x in hs]
    den = math.lcm(*ws)
    num = [0] * len(hs)
    for x, w, (_, y) in zip(hs, ws, counts):
        scale = y * (den // w)
        acc = 0  # N(h) / (h - x), high degree first
        for k in range(len(hs) - 1, -1, -1):
            acc = node[k + 1] + x * acc
            num[k] += scale * acc

    if nfree >= 1 and not den <= num[-1] <= den << nfree:
        raise ValueError(
            f"leading coefficient {Fraction(num[-1], den)} outside "
            f"[1, 2^{nfree}]; counts look wrong")
    return EhrhartPoly(tuple(Fraction(c, den) for c in num))


def reciprocal_fit(graph: Graph, budget: int = DEFAULT_BUDGET
                   ) -> tuple[EhrhartPoly, list[tuple[int, int]]]:
    """The counting polynomial from exact counts at h = 0..d//2 + 1 only.

    With d = n - k, the Lipschitz polytope of each component is the polar of
    its reflexive symmetric edge polytope (Matsui, Higashitani, Nagazawa,
    Ohsugi & Hibi, J. Algebraic Combin. 34, 2011), hence reflexive itself,
    and Ehrhart-Macdonald reciprocity reads L(-1-h) = (-1)^d L(h); the
    product over components keeps it.  ``ehrhart_fit`` interpolates the
    counts at h = 0..d//2 and the reflections of the first ceil(d/2) of
    them.  Every known value left over, the count at d//2 + 1 and for even d
    one more reflection, is checked against the fit, so the fit checks
    itself: a mismatch raises ValueError.  One plan of elimination steps,
    made at the top node h = d//2 + 1, serves every count, so a fit over
    the budget fails before any table is built.  The variables and the
    steps' scopes are the same at every h >= 1, and each domain [-hr, hr],
    r a BFS distance, grows with h, so no table at a lower h has more cells
    than at the top.  At h = 0 the zero function is the only one.
    Returns the fit and the counted pairs.
    """
    d = graph.n - graph.component_count
    half = d // 2
    steps, _ = _plan(graph, _domains(graph, half + 1), budget)
    counted = [(0, 1)] + [(h, _eliminate(steps, _domains(graph, h), h))
                          for h in range(1, half + 2)]
    sign = -1 if d % 2 else 1
    mirrored = [(-1 - h, sign * c) for h, c in counted[:half + 1]]
    fit = ehrhart_fit(graph, counted[:half + 1] + mirrored[:d - half])
    for h, c in counted[half + 1:] + mirrored[d - half:]:
        if fit.evaluate(h) != c:
            raise ValueError(f"count {c} at h = {h} is off the fitted "
                             f"polynomial, which gives {fit.evaluate(h)}")
    return fit, counted
