"""Undirected simple graphs whose components are rooted at their smallest
vertex.

Vertices are 0..n-1.  Graphs are immutable after construction; generators and
the Erdos-Renyi sampler are pure functions of their arguments, so equal seeds
give equal graphs.  A graph stores its edges as one read-only int64 (E, 2)
array with u < v in each row and rows in strictly increasing lexicographic
order; validation, component labels and component parts are whole-array
numpy operations on it.  Only the ``edges`` set and the sorted
``adjacency`` lists, each built on first use, are Python-level.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

# Most geometric skips drawn per block.  Each block is sized from the
# expected number of edges still to come, so one block usually ends the
# walk; the generator consumes its stream one skip at a time, so the block
# size only affects batching, never the graph.
_SKIP_BLOCK = 1 << 16


def _component_labels(n: int,
                      edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component label per vertex from an (E, 2) edge array, ordered by
    smallest member, and each component's smallest member in label order.

    Each round hooks every root under the smallest root it shares an edge
    with, when that root is smaller, then pointer-jumps every vertex to its
    root (Shiloach & Vishkin, "An O(log n) parallel connectivity
    algorithm", J. Algorithms 3, 1982), until every edge joins two vertices
    with the same root.  A root only
    ever hooks under a smaller index, so the forest stays acyclic and each
    final root is its component's smallest member; ranking the roots gives
    the labels.
    """
    parent = np.arange(n)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        pu, pv = parent[u], parent[v]
        lo, hi = np.minimum(pu, pv), np.maximum(pu, pv)
        if (lo == hi).all():
            break
        np.minimum.at(parent, hi, lo)
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
    is_root = parent == np.arange(n)
    return (np.cumsum(is_root) - 1)[parent], np.flatnonzero(is_root)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph; the root of each component is its smallest
    vertex.

    ``edge_array`` is an int64 (E, 2) array with u < v in every row and the
    rows in strictly increasing lexicographic order, so a graph has one
    stored form; the constructor keeps a read-only copy.  Graphs compare and
    hash by identity.
    """

    n: int
    edge_array: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        e = np.array(self.edge_array, dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edge array must have shape (E, 2), not {e.shape}")
        e.flags.writeable = False
        object.__setattr__(self, "edge_array", e)
        u, v = e[:, 0], e[:, 1]
        bad = ~((0 <= u) & (u < v) & (v < self.n))
        if bad.any():
            u, v = e[bad.argmax()].tolist()
            raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
        du, dv = np.diff(u), np.diff(v)
        unordered = (du < 0) | ((du == 0) & (dv <= 0))
        if unordered.any():
            i = int(unordered.argmax())
            (a, b), (c, d) = e[i:i + 2].tolist()
            raise ValueError(f"edge ({c}, {d}) does not follow ({a}, {b}): "
                             "rows must be sorted without repeats")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from edges in any order and orientation, repeats
        allowed; the constructor rejects self-loops and ids outside 0..n-1."""
        norm = {(u, v) if u < v else (v, u) for u, v in edges}
        arr = np.array(sorted(norm), dtype=np.int64).reshape(-1, 2)
        return cls(n, arr)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set as (u, v) tuples, u < v."""
        return frozenset(map(tuple, self.edge_array.tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edge_array.tolist():
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _labelling(self) -> tuple[np.ndarray, np.ndarray]:
        return _component_labels(self.n, self.edge_array)

    @property
    def roots(self) -> tuple[int, ...]:
        """Each component's smallest vertex, in label order."""
        return tuple(self._labelling[1].tolist())

    @property
    def component_count(self) -> int:
        return len(self._labelling[1])

    @property
    def giant_size(self) -> int:
        """Vertices in the largest component."""
        return int(np.bincount(self._labelling[0]).max())

    @cached_property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        """The vertices of each component, ascending, in label order."""
        labels = self._labelling[0]
        order = np.argsort(labels, kind="stable").tolist()
        ends = np.cumsum(np.bincount(labels)).tolist()
        return tuple(tuple(order[a:b]) for a, b in zip([0, *ends], ends))


def make_grid(m: int, n: int) -> Graph:
    """Grid graph with m rows and n columns; vertex (r, c) is r*n + c."""
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be at least 1")
    edges = []
    for r in range(m):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges.append((v, v + 1))
            if r + 1 < m:
                edges.append((v, v + n))
    return Graph.from_edges(m * n, edges)


def make_family(kind: str, n: int) -> Graph:
    """Named graph (path | cycle | complete | star) on vertices 0..n-1."""
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    else:
        raise ValueError(f"unknown family {kind!r}")
    return Graph.from_edges(n, edges)


def _pairs_from_linear(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the lexicographic linear index of pairs (i, j), i < j."""
    # F(i) = number of pairs whose first vertex is < i.
    def first_count(i):
        return i * (2 * n - i - 1) // 2

    tt = t.astype(np.float64)
    disc = (2 * n - 1) ** 2 - 8.0 * tt
    i = np.floor((2 * n - 1 - np.sqrt(disc)) / 2).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    # float sqrt can be off by one either way
    i = np.where(first_count(i + 1) <= t, i + 1, i)
    i = np.where(first_count(i) > t, i - 1, i)
    j = t - first_count(i) + i + 1
    return i, j


def er_pairs(n: int) -> int:
    """The n(n-1)/2 vertex pairs ``sample_er`` draws from, for an n it can
    index: ValueError unless n >= 1 and n(n-1) < 2^63."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n * (n - 1) >= 2 ** 63:  # the index past the last pair can reach it
        raise ValueError(f"n = {n} has too many pairs to index in int64")
    return n * (n - 1) // 2


def sample_er(n: int, d: float, seed: int) -> Graph:
    """Erdos-Renyi graph: each pair present independently with probability d/n.

    Pairs are ordered lexicographically and the gap from one present pair to
    the next is a Geometric(d/n) skip (Batagelj & Brandes, "Efficient
    generation of large random networks", Phys. Rev. E 71, 036113, 2005), so
    the work is linear in the edges drawn, not in n(n-1)/2.  Increasing pair
    indices are lexicographically increasing pairs (i, j) with i < j, so
    they go to ``Graph`` as its edge array, without ``Graph.from_edges``'s
    per-edge normalisation.  The result is a pure function of (n, d, seed).
    """
    total = er_pairs(n)
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n so the edge probability is in [0, 1]")
    p = d / n
    rng = np.random.default_rng(seed)
    found = [np.empty(0, dtype=np.int64)]
    last = -1  # linear index of the latest present pair
    while p > 0 and last < total - 1:
        # the edges still to come, four standard deviations over, plus the
        # skip that passes the end
        left = (total - 1 - last) * p
        size = min(_SKIP_BLOCK, math.ceil(left + 4 * math.sqrt(left)) + 1)
        skips = rng.geometric(p, size=size)
        # At tiny p a skip saturates at 2**63 - 1.  A skip of total + 1
        # already passes the end from any start, so clipping there changes no
        # edge, and every partial sum up to the first one past the end is
        # exact; later ones may wrap, and are never read.
        np.minimum(skips, total + 1, out=skips)
        index = last + np.cumsum(skips)
        inside = index < total
        stop = index.size if inside.all() else int(inside.argmin())
        found.append(index[:stop])
        if stop < index.size:
            break
        last = int(index[-1])
    i, j = _pairs_from_linear(np.concatenate(found), n)
    return Graph(n, np.stack((i, j), axis=1))


def to_edgelist_str(graph: Graph) -> str:
    """Plain-text format: first line "n k", then one sorted "u v" line per edge."""
    lines = [f"{graph.n} {graph.component_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edge_array.tolist())
    return "\n".join(lines) + "\n"


def from_edgelist_str(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("first line must be 'n k'")
    n, k = (int(x) for x in rows[0])
    edges = set()
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"bad edge line {' '.join(row)!r}")
        u, v = int(row[0]), int(row[1])
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise ValueError(f"duplicate edge {e}")
        edges.add(e)
    # the edges are already normalised and distinct: no from_edges pass
    g = Graph(n, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))
    if g.component_count != k:
        raise ValueError(f"file claims {k} components, graph has {g.component_count}")
    return g


def read_edgelist(path) -> Graph:
    with open(path) as fh:
        return from_edgelist_str(fh.read())


def graph_hash(graph: Graph) -> str:
    """Stable content hash of the canonical edge-list text."""
    return hashlib.sha256(to_edgelist_str(graph).encode()).hexdigest()[:16]
