"""Shared test utilities: random trees, edge additions and relabellings,
degrees, exact counts at every node of a full Ehrhart fit, tiny-graph
isomorphism, operator inspection tools (state indexing,
free-strip weights from difference vectors, pinned-strip states), and the
reference implementations the library is tested against: breadth-first
component labels, the pruned depth-first count and the pinned counts it is
checked against, each strip operator's dense matrix straight from its rule
and that matrix on even vectors, the warm start interpolated over every
state, the last window's reads from every state's site, the listwise limb
join, the stepwise strip DP, Newton's
interpolation in Fractions, a one-skip-at-a-time Erdos-Renyi walk, the
exhaustive independent-pair scan and the every-edge random-construction
sampler."""
import functools
import math
from collections import deque
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from typing import Sequence

import numpy as np

from lipgrowth.counting import count
from lipgrowth.errors import ResourceLimitError
from lipgrowth.graphs import Graph
from lipgrowth.randomlab import LllConfig, MonteCarloResult, wilson_interval
from lipgrowth.strips import (FreeStripOperator, PinnedStripOperator, _fold,
                              _unfold)


def random_tree(n: int, rng: np.random.Generator) -> Graph:
    """Uniform random labelled tree from a random Prufer sequence."""
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            import bisect
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return Graph.from_edges(n, edges)


def with_edge(graph: Graph, u: int, v: int) -> Graph:
    """The graph plus the edge (u, v)."""
    return Graph.from_edges(graph.n, [*graph.edge_array.tolist(), (u, v)])


def relabel(graph: Graph, perm: Sequence[int]) -> Graph:
    """The graph with every vertex v renamed perm[v]."""
    return Graph.from_edges(graph.n, [(perm[u], perm[v])
                                      for u, v in graph.edge_array.tolist()])


def degrees(graph: Graph) -> list[int]:
    """The degree of each vertex, in vertex order."""
    return np.bincount(graph.edge_array.ravel(), minlength=graph.n).tolist()


def full_counts(graph: Graph) -> list[tuple[int, int]]:
    """Exact counts at h = 0..n-k, the nodes of a full ``ehrhart_fit``."""
    return [(h, count(graph, h))
            for h in range(graph.n - graph.component_count + 1)]


def newton_fit(counts: Sequence[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Coefficients, low degree first, of the polynomial through the
    (h, count) pairs: Newton's divided differences in Fractions, then
    expansion of the Newton form."""
    hs = [h for h, _ in counts]
    coef = [Fraction(c) for _, c in counts]
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
    return tuple(poly)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exhaustive isomorphism test; only for very small graphs."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    if sorted(degrees(g1)) != sorted(degrees(g2)):
        return False
    e2 = g2.edges
    for perm in permutations(range(g1.n)):
        ok = True
        for u, v in g1.edges:
            a, b = perm[u], perm[v]
            if ((a, b) if a < b else (b, a)) not in e2:
                ok = False
                break
        if ok:
            return True
    return False


def bfs_component_labels(n: int, edges) -> list[int]:
    """Component label per vertex by breadth-first search from each unlabelled
    vertex in ascending order, so labels are ordered by smallest member."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    label = [-1] * n
    k = 0
    for s in range(n):
        if label[s] >= 0:
            continue
        label[s] = k
        queue = deque([s])
        while queue:
            for w in adj[queue.popleft()]:
                if label[w] < 0:
                    label[w] = k
                    queue.append(w)
        k += 1
    return label


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


def dfs_count(graph: Graph, h: int, pin: dict[int, int] | None = None) -> int:
    """Reference count of h-Lipschitz functions by pruned depth-first search.

    Independent of ``lipgrowth.counting``'s variable elimination: it walks
    every partial assignment in BFS order from each root, so it is only
    practical for small graphs.  ``pin`` maps vertices to the values they
    are forced to; each component's root is pinned to 0 unless ``pin``
    names it.  An infeasible pin set counts 0.
    """
    pin_value = dict(pin or {})
    for r in graph.roots:
        pin_value.setdefault(r, 0)
    _guard(graph, h, len(pin_value) - graph.component_count, 10**9)
    total = 1
    for part in graph.parts:
        total *= _search_component(graph, _bfs_order(graph, part[0]),
                                   pin_value, h)[0]
    return total


def top_row_pinned_2x3(h: int) -> dict[tuple[int, int], int]:
    """Counts on the 2x3 grid whose top row is pinned to (0, w1, w2), for
    every (w1, w2) with |w1| <= h and |w2 - w1| <= h: the free-strip(3) row
    sum (W 1) at the state (w1, w2 - w1), since the top row is one column
    and the bottom row the next.  Every other pin counts 0."""
    sums = weight_matrix(3, h).sum(axis=1).tolist()
    return {(d1, d1 + d2): sums[state_index((d1, d2), h)]
            for d1 in range(-h, h + 1) for d2 in range(-h, h + 1)}


def end_pinned_path4(h: int) -> dict[int, int]:
    """Counts on the 4-vertex path whose far end is pinned to w, for every
    |w| <= 3h: the three steps each lie in [-h, h] and sum to w, so the
    count is the three-fold convolution of ones(2h + 1) at w.  Every other
    pin counts 0."""
    ones = np.ones(2 * h + 1, dtype=np.int64)
    conv = np.convolve(np.convolve(ones, ones), ones)
    return {i - 3 * h: int(c) for i, c in enumerate(conv.tolist())}


def state_index(diffs: Sequence[int], h: int) -> int:
    """Mixed-radix index of a difference vector, each entry in [-h, h]."""
    idx = 0
    base = 2 * h + 1
    for d in diffs:
        if abs(d) > h:
            raise ValueError(f"difference {d} outside [-{h}, {h}]")
        idx = idx * base + (d + h)
    return idx


def index_state(idx: int, m: int, h: int) -> tuple[int, ...]:
    """Difference vector of the m-row state with mixed-radix index idx."""
    base = 2 * h + 1
    out = []
    for _ in range(m - 1):
        out.append(idx % base - h)
        idx //= base
    return tuple(reversed(out))


def free_strip_weight(h: int, u_diffs: Sequence[int],
                      v_diffs: Sequence[int]) -> int:
    """Free-strip transfer weight max(0, 2h+1 - spread(P(V) - P(U))), with P
    the prefix sums (0, d1, d1+d2, ...) of each difference vector."""
    delta = [b - a for a, b in zip(accumulate(u_diffs, initial=0),
                                   accumulate(v_diffs, initial=0))]
    return max(0, 2 * h + 1 - (max(delta) - min(delta)))


def pinned_states(op: PinnedStripOperator) -> list[tuple[int, ...]]:
    """Pinned-strip states (y_1..y_m) in the operator's order: the prefix
    sums of the m-step difference vectors, listed in C order."""
    return [tuple(accumulate(d))
            for d in product(range(-op.h, op.h + 1), repeat=op.m)]


def prefix_sites(m: int, h: int, pinned: bool) -> list[int]:
    """Flat box site of every strip state, in state order: the state's box
    coordinates, each offset by its axis's half-extent, flattened row-major
    with the first coordinate leading.

    A free m-row strip has m - 1 difference steps, and its box holds their
    prefix sums P_m, ..., P_2, each in [-(k-1)h, (k-1)h] padded by h.  A
    pinned strip has m steps, whose prefix sums are its rows y_1..y_m.  Up
    to two rows its box holds y_m, ..., y_1, each y_k in [-kh, kh].  From
    three rows it holds c = y_m - y_(m-1), the top row's offset from the
    row below, in [-2h, 2h], then y_(m-1), ..., y_1."""
    sites = []
    for diffs in product(range(-h, h + 1), repeat=m if pinned else m - 1):
        ys = list(accumulate(diffs))
        # (coordinate, half-extent) per box axis, leading first
        coords = [(y, k * h + (0 if pinned else h))
                  for k, y in enumerate(ys, 1)][::-1]
        if pinned and m > 2:
            coords[0] = (ys[-1] - ys[-2], 2 * h)
        site = 0
        for y, r in coords:
            site = site * (2 * r + 1) + y + r
        sites.append(site)
    return sites


@functools.lru_cache(maxsize=None)
def weight_matrix(m: int, h: int) -> np.ndarray:
    """Free-strip(m) W in int64 (read-only), entry by entry from the weight
    rule max(0, 2h+1 - spread(P(V) - P(U))) of ``free_strip_weight``: row V,
    column U, both in state order."""
    diffs = list(product(range(-h, h + 1), repeat=m - 1))
    prefix = np.array([list(accumulate(d, initial=0)) for d in diffs])
    delta = prefix[:, None, :] - prefix[None, :, :]
    W = np.maximum(0, 2 * h + 1 - (delta.max(axis=2) - delta.min(axis=2)))
    W.flags.writeable = False
    return W


def pinned_transition_matrix(m: int, h: int) -> tuple[list, np.ndarray]:
    """Pinned-strip states and 0/1 matrix straight from the transition rule.

    States are (y_1..y_m) with |y_1| <= h and |y_(i+1) - y_i| <= h, listed
    lexicographically; z follows y iff |z_i - y_i| <= h for every row i.
    """
    states = [y for y in product(range(-m * h, m * h + 1), repeat=m)
              if abs(y[0]) <= h
              and all(abs(y[i + 1] - y[i]) <= h for i in range(m - 1))]
    ys = np.array(states)
    matrix = np.ones((len(states),) * 2, dtype=bool)
    for row in ys.T:
        matrix &= np.abs(row[:, None] - row[None, :]) <= h
    return states, matrix.astype(float)


def oracle_matrix(op: FreeStripOperator) -> np.ndarray:
    """The operator's matrix in int64, straight from its rule and in its
    state order: ``weight_matrix`` for free kinds (tent too), the
    transition rule for pinned ones (band too)."""
    if not op.pinned:
        return weight_matrix(op.m, op.h)
    states, matrix = pinned_transition_matrix(op.m, op.h)
    index = {y: i for i, y in enumerate(states)}
    perm = [index[y] for y in pinned_states(op)]
    return matrix[np.ix_(perm, perm)].astype(np.int64)


def fold_matrix(W: np.ndarray) -> np.ndarray:
    """W on even vectors (x reversed = x), for a W that commutes with
    reversing the state order: the half x half matrix F, half = (dim + 1)/2,
    with F x[:half] = (W x)[:half].  An even x holds x[j] at state j and at
    its mirror dim - 1 - j, so column j of F adds those two columns of W;
    the centre state, the last of the half, is its own mirror."""
    W = np.asarray(W)
    half = (len(W) + 1) // 2
    F = W[:half, :half].copy()
    F[:, :-1] += W[:half, ::-1][:, :half - 1]
    return F


def full_prolong(op: FreeStripOperator, x: np.ndarray, h: int) -> np.ndarray:
    """``op.prolong(x, h)`` over every state: the unfolded source vector
    interpolated onto all of ``op``'s states, axis by axis (linear in the
    midpoint coordinates, clamped at the ends), then folded."""
    axes = len(op._shape)
    if not axes or h == 0:
        return _fold(np.ones(op.dim))
    den = 2 * op.h + 1
    num = np.arange(-op.h, op.h + 1) * (2 * h + 1) + h * den
    num = np.clip(num, 0, 2 * h * den)
    lo = num // den
    hi = np.minimum(lo + 1, 2 * h)
    w = (num - lo * den) / den
    y = np.reshape(_unfold(x), (2 * h + 1,) * axes)
    for axis in range(axes):
        a = y.take(lo, axis)
        wk = w.reshape((den,) + (1,) * (axes - 1 - axis))
        y = a + wk * (y.take(hi, axis) - a)
    return _fold(y.ravel())


def last_window_reads(op: FreeStripOperator) -> tuple[np.ndarray, ...]:
    """The cells (hi, lo) of the last window's running sum that give W x at
    each representative, and where lo is read (has_lo), from every state's
    site (``prefix_sites``): the representative is scattered to the one of
    its site and the mirror site not past the centre, at coordinate j of n
    along the last window's stride (1 for a pinned strip's last box axis;
    the sum of the strides for a free strip's diagonal), and the window
    there is run[min(j + h, n - 1)] - run[j - h - 1], the second term only
    where j > h."""
    h, size = op.h, op._size
    sites = np.array(prefix_sites(op.m, h, op.pinned), dtype=np.int64)
    rep = np.minimum(sites, size - 1 - sites)[:op.half]
    if op.pinned:
        stride, n = 1, op._shape[-1]
    else:
        stride = max(sum(math.prod(op._shape[k + 1:])
                         for k in range(len(op._shape))), 1)
        n = -(-size // stride)
    j = rep // stride % n
    has_lo = j > h
    return (rep + (np.minimum(j + h, n - 1) - j) * stride,
            np.where(has_lo, rep - (h + 1) * stride, 0), has_lo)


def join_limbs_listwise(x: np.ndarray, bits: int) -> list[int]:
    """``strips._join_limbs`` one element at a time: Horner's rule on lists
    of Python ints, row by row from the most significant limb."""
    vals = x[-1].tolist()
    for row in x[-2::-1]:
        vals = [(v << bits) + r for v, r in zip(vals, row.tolist())]
    return vals


def to_limbs(xs: Sequence[int], bits: int) -> np.ndarray:
    """Nonnegative ints as ``bits``-bit int64 limbs, least significant first."""
    n = max(-(-int(max(xs)).bit_length() // bits), 1)
    return np.array([[v >> bits * k & (1 << bits) - 1 for v in xs]
                     for k in range(n)], dtype=np.int64)


def strip_count_stepwise(m: int, n: int, h: int) -> int:
    """Reference strip count 1^T W^(max(m, n) - 1) 1, one dense product per
    column in Python ints over free-strip(min(m, n)) states."""
    W = weight_matrix(min(m, n), h).astype(object)
    xs = np.ones(len(W), dtype=object)
    for _ in range(max(m, n) - 1):
        xs = W.dot(xs)
    return int(sum(xs))


def er_reference_edges(n: int, d: float, seed: int) -> set[tuple[int, int]]:
    """Edges of ``sample_er(n, d, seed)`` by a pure-Python geometric walk.

    Pairs (i, j), i < j, are ordered lexicographically; starting before the
    first, each ``default_rng(seed).geometric(d/n)`` draw, taken one at a
    time, advances to the next present pair until the walk passes the end.
    Row i holds the n - 1 - i pairs (i, i+1) .. (i, n-1); the walk steps
    from row to row, so it never lists the n(n-1)/2 pairs.
    """
    p = d / n
    if p == 0:
        return set()
    rng = np.random.default_rng(seed)
    edges = set()
    pos = -1
    i, row_start = 0, 0  # pairs before row i
    while True:
        pos += int(rng.geometric(p))
        while i < n - 1 and pos >= row_start + n - 1 - i:
            row_start += n - 1 - i
            i += 1
        if i == n - 1:
            return edges
        edges.add((i, i + 1 + pos - row_start))


def pair_scan(graph: Graph, size: int) -> tuple[int, ...] | None:
    """Exhaustive independent-pair oracle: the first set A (in combinations
    order) whose non-neighbours hold ``size`` vertices, or None."""
    n = graph.n
    if 2 * size > n:
        return None
    closed_nbhd = [{v} for v in range(n)]
    for u, v in graph.edges:
        closed_nbhd[u].add(v)
        closed_nbhd[v].add(u)
    for a_set in combinations(range(n), size):
        closed = set().union(*(closed_nbhd[v] for v in a_set))
        if n - len(closed) >= size:
            return a_set
    return None


def lll_trial_failures(graph: Graph, cfg: LllConfig,
                       uniforms: np.ndarray) -> int:
    """Failing edges of one ``lll_sampler`` trial whose vertex i takes
    ``uniforms[i]``; checks both endpoints of every edge, with degrees from
    ``graph.adjacency``."""
    degrees = np.array([len(a) for a in graph.adjacency])
    low = degrees < cfg.degree_threshold
    lo_a, lo_b = cfg.low_range
    hi_a, hi_b = cfg.high_range
    base = np.where(low, lo_a, hi_a)
    width = np.where(low, lo_b - lo_a + 1, hi_b - hi_a + 1)
    edges = np.array(sorted(graph.edges), dtype=np.int64).reshape(-1, 2)
    f = base + np.floor(uniforms * width).astype(np.int64)
    return int(np.sum(np.abs(f[edges[:, 0]] - f[edges[:, 1]]) > cfg.h))


def lll_reference(graph: Graph, cfg: LllConfig, trials: int,
                  seed: int) -> MonteCarloResult:
    """Reference for ``lll_sampler``: one ``default_rng(seed)`` stream, and
    trial t checks every edge under the next ``random(n)`` uniforms."""
    rng = np.random.default_rng(seed)
    successes = 0
    failing_edges = 0
    for _ in range(trials):
        nbad = lll_trial_failures(graph, cfg, rng.random(graph.n))
        failing_edges += nbad
        successes += nbad == 0
    lo_ci, hi_ci = wilson_interval(successes, trials)
    n_edges = len(graph.edges)
    rate = failing_edges / (trials * n_edges) if n_edges else 0.0
    return MonteCarloResult(trials, successes, successes / trials,
                            lo_ci, hi_ci, rate, seed)
