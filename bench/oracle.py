"""Reference values computed without any lipgrowth code.

Every function here re-derives a quantity the benchmark checks from its
mathematical definition, by a different algorithm than the package uses:

- counts of h-Lipschitz functions by a vertex-at-a-time frontier DP with a
  translation quotient (the package uses depth-first search and
  column-transfer DP);
- cycle and complete-graph counts by closed forms;
- free-strip eigenvalues from a dense transfer matrix and LAPACK;
- pinned-strip eigenvalues as a Collatz-Wielandt bracket around power
  iteration on an independently built operator;
- the closed-form constants and the random-graph bound expressions.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque

import numpy as np

# Constants as this repository states them (README, acceptance criteria 4-6).
BETA = 1.0 / math.atan(0.75)
REF_ZETA = 1.4895
REF_PSI = 1.553
REF_ALPHA_SQRT2 = 1.6438
REF_GRID_LOWER = 1.3685


def alpha() -> float:
    """Largest root of tan(1/x) = x, by Newton's method on g(t) = tan t - 1/t.

    With t = 1/x the root is the unique solution of t tan t = 1 in (0, pi/2).
    """
    t = 0.86
    for _ in range(60):
        g = t * math.tan(t) - 1.0
        dg = math.tan(t) + t / math.cos(t) ** 2
        step = g / dg
        t -= step
        if abs(step) < 1e-16:
            break
    return 1.0 / t


def giant_fraction(d: float) -> float:
    """1 - x/d where x < 1 solves x e^-x = d e^-d (Newton from x = 0)."""
    target = d * math.exp(-d)
    x = 0.0
    for _ in range(200):
        f = x * math.exp(-x) - target
        df = (1.0 - x) * math.exp(-x)
        step = f / df
        x -= step
        if abs(step) < 1e-15:
            break
    return 1.0 - x / d


def wilson(successes: int, trials: int) -> tuple[float, float]:
    z = 1.959963984540054
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def bound_row(d: float) -> dict:
    """The bound expressions of the random-graph report, from their formulas."""
    row = {"lower_asymptotic": 1 + 1 / (2 * d),
           "upper_asymptotic": 1 + 4 * math.log(d) ** 2 / d,
           "lower_valid": d > 4, "upper_valid": d >= 9}
    if d > 4:
        c = math.sqrt(1 - 4 / d) / d
        row["lower_exact"] = ((1 + c) * (1 - c) ** (5 * math.exp(-d / 4))
                              * math.sqrt(1 - 1 / (d - 1)))
    if d >= 9:
        a = 2 * math.log(d) / d
        q = math.exp(-d / 4)
        row["upper_exact"] = 2 ** q * math.exp(d * a * a / (1 - q))
        h2 = -2 * a * math.log2(2 * a) - (1 - 2 * a) * math.log2(1 - 2 * a)
        row["pair_margin"] = d * a * a - 2 * a * math.log(2) - h2 * math.log(2)
    if d > 1:
        row["giant_fraction"] = giant_fraction(d)
    return row


def grid_edges(m: int, n: int) -> list[tuple[int, int]]:
    """Edges of the m x n grid, vertex (r, c) numbered r*n + c."""
    out = []
    for r in range(m):
        for c in range(n):
            if c + 1 < n:
                out.append((r * n + c, r * n + c + 1))
            if r + 1 < m:
                out.append((r * n + c, (r + 1) * n + c))
    return out


def grid_order(m: int, n: int) -> list[int]:
    """Scan along the long side, one short line at a time (frontier = min(m, n))."""
    if m <= n:
        return [r * n + c for c in range(n) for r in range(m)]
    return [r * n + c for r in range(m) for c in range(n)]


def _bfs_order(n: int, adj: list[set[int]]) -> list[int]:
    seen, order = set(), []
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


def count_lipschitz(n: int, edges, h: int, order: list[int] | None = None) -> int:
    """Number of integer functions with |f(u) - f(v)| <= h on edges, one root
    per component pinned to 0.

    Vertices are added one at a time; the state is the tuple of values on the
    frontier (added vertices with a neighbour still to come), shifted so its
    first entry is 0, since completions depend only on differences.  Every
    vertex but the first of its component must have an earlier neighbour.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if order is None:
        order = _bfs_order(n, adj)
    pos = {v: i for i, v in enumerate(order)}
    last = [max((pos[w] for w in adj[v]), default=-1) for v in range(n)]
    total = 1
    states: dict[tuple, int] = {}
    frontier: list[int] = []
    for i, v in enumerate(order):
        earlier = [frontier.index(w) for w in adj[v] if pos[w] < i]
        if not earlier:
            # first vertex of a new component: close the previous one
            if frontier:
                raise ValueError("order leaves a vertex with no earlier neighbour")
            total *= sum(states.values()) if states else 1
            states = {(0,): 1} if last[v] > i else {(): 1}
            frontier = [v] if last[v] > i else []
            continue
        keep = [k for k, w in enumerate(frontier) if last[w] > i]
        add_v = last[v] > i
        nxt: dict[tuple, int] = defaultdict(int)
        for state, ways in states.items():
            lo = max(state[k] for k in earlier) - h
            hi = min(state[k] for k in earlier) + h
            if lo > hi:
                continue
            base = [state[k] for k in keep]
            if not add_v:
                key = tuple(x - base[0] for x in base) if base else ()
                nxt[key] += ways * (hi - lo + 1)
                continue
            for val in range(lo, hi + 1):
                full = base + [val]
                key = tuple(x - full[0] for x in full)
                nxt[key] += ways
        states = nxt
        frontier = [frontier[k] for k in keep] + ([v] if add_v else [])
    return total * sum(states.values())


def count_grid(m: int, n: int, h: int) -> int:
    return count_lipschitz(m * n, grid_edges(m, n), h, grid_order(m, n))


def count_cycle(n: int, h: int) -> int:
    """Step sequences (d_1..d_n) in [-h, h]^n summing to 0."""
    poly = [1]
    step = [1] * (2 * h + 1)
    for _ in range(n):
        poly = [sum(poly[j] * step[k - j] for j in range(max(0, k - 2 * h),
                                                         min(k, len(poly) - 1) + 1))
                for k in range(len(poly) + 2 * h)]
    return poly[n * h]


def count_complete(n: int, h: int) -> int:
    """Functions on K_n with values in a window of width h containing 0."""
    return (h + 1) ** n - h ** n


def free_strip_top(m: int, h: int) -> float:
    """Top eigenvalue of the dense m-row free-strip transfer matrix.

    States are the (m-1)-tuples of within-column differences; the weight
    between two columns counts the integer shifts t with every row within h.
    """
    states = np.array(list(itertools.product(range(-h, h + 1), repeat=m - 1)),
                      dtype=np.int64).reshape(-1, m - 1)
    pref = np.concatenate([np.zeros((len(states), 1), np.int64),
                           np.cumsum(states, axis=1)], axis=1)
    lo = np.full((len(states), len(states)), -10 ** 9, np.int64)
    hi = np.full((len(states), len(states)), 10 ** 9, np.int64)
    for i in range(m):
        d = pref[None, :, i] - pref[:, None, i]   # shift needed for row i
        np.maximum(lo, d - h, out=lo)
        np.minimum(hi, d + h, out=hi)
    w = np.maximum(hi - lo + 1, 0).astype(float)
    return float(np.linalg.eigvalsh(w)[-1])


def pinned_strip_bracket(m: int, h: int, iterations: int) -> tuple[float, float]:
    """Collatz-Wielandt bracket on the top eigenvalue of the pinned strip.

    States are columns (y_1..y_m) under an all-zero row with consecutive
    entries within h; a column may follow another when every row moves by at
    most h.  For any positive vector x, min (Ax)/x <= lambda <= max (Ax)/x.
    """
    axes = [np.arange(-(i + 1) * h, (i + 1) * h + 1) for i in range(m)]
    grids = np.meshgrid(*axes, indexing="ij")
    valid = np.abs(grids[0]) <= h
    for i in range(m - 1):
        valid &= np.abs(grids[i + 1] - grids[i]) <= h

    def apply(x):
        y = x
        for ax in range(m):
            pad = [(0, 0)] * m
            pad[ax] = (h + 1, h)
            c = np.cumsum(np.pad(y, pad), axis=ax)
            size = y.shape[ax]
            y = (np.take(c, np.arange(2 * h + 1, 2 * h + 1 + size), axis=ax)
                 - np.take(c, np.arange(size), axis=ax))
        return y * valid

    x = valid.astype(float)
    for _ in range(iterations):
        x = apply(x)
        x /= x.max()
    ratio = apply(x)[valid] / x[valid]
    return float(ratio.min()), float(ratio.max())


def extrapolate(pairs: list[tuple[float, float]]) -> float:
    """Constant term of the least-squares quadratic in 1/h."""
    z = np.array([1.0 / h for h, _ in pairs])
    v = np.array([val for _, val in pairs])
    a = np.vander(z, 3, increasing=True)
    return float(np.linalg.lstsq(a, v, rcond=None)[0][0])
