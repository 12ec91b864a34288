import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (bfs_component_labels, degrees, er_reference_edges,
                     is_isomorphic)
from lipgrowth import graphs
from lipgrowth.graphs import (Graph, from_edgelist_str, graph_hash,
                              make_family, make_grid, read_edgelist, sample_er,
                              to_edgelist_str)


def small_graphs():
    return st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.sampled_from([(i, j) for i in range(n)
                             for j in range(i + 1, n)]),
            unique=True).map(lambda e: Graph.from_edges(n, e)))


def test_make_grid_examples():
    p = make_grid(1, 3)
    assert p.n == 3 and p.edges == make_family("path", 3).edges

    c = make_grid(2, 2)
    assert c.n == 4 and len(c.edges) == 4
    assert is_isomorphic(c, make_family("cycle", 4))

    g = make_grid(2, 5)
    assert g.n == 10 and len(g.edges) == 2 * 4 + 5

    assert g.roots == (0,)


def test_make_grid_rejects_zero_dims():
    with pytest.raises(ValueError):
        make_grid(0, 3)
    with pytest.raises(ValueError):
        make_grid(3, 0)


def test_grid_transpose_isomorphic():
    for m in range(1, 4):
        for n in range(1, 4):
            assert is_isomorphic(make_grid(m, n), make_grid(n, m))
    # larger sizes: degree-sequence and edge-count equality only
    for m, n in ((2, 5), (3, 4), (2, 6)):
        a, b = make_grid(m, n), make_grid(n, m)
        assert sorted(degrees(a)) == sorted(degrees(b))
        assert len(a.edges) == len(b.edges)


def test_make_family_examples():
    t = make_family("complete", 3)
    assert len(t.edges) == 3
    assert make_family("path", 2).edges == frozenset({(0, 1)})
    star = make_family("star", 4)
    assert degrees(star) == [3, 1, 1, 1]
    assert star.roots == (0,)
    with pytest.raises(ValueError):
        make_family("cycle", 2)
    with pytest.raises(ValueError):
        make_family("mobius", 5)


def test_sample_er_edge_cases():
    empty = sample_er(10, 0, 123)
    assert len(empty.edges) == 0
    assert empty.component_count == 10
    assert empty.edge_array.shape == (0, 2)
    assert empty.edge_array.dtype == np.int64

    full = sample_er(5, 5, 99)
    assert len(full.edges) == 10

    with pytest.raises(ValueError):
        sample_er(5, 6, 0)
    for d in (-1, math.nan, math.inf):
        with pytest.raises(ValueError):
            sample_er(5, d, 0)
    with pytest.raises(ValueError):
        sample_er(0, 0, 0)
    # n(n-1)/2 pairs past int64 indexing are refused before any array
    # exists, at any degree
    for d in (0, 1, 1e-300):
        with pytest.raises(ValueError, match="int64"):
            sample_er(10 ** 20, d, 0)

    for seed in (0, 1, 2):
        # no pairs at all
        assert sample_er(1, 0.5, seed).edges == frozenset()
        # p = 1: every pair, one skip of 1 per pair
        assert sample_er(2, 2, seed).edges == frozenset({(0, 1)})
        assert len(sample_er(50, 50, seed).edges) == 50 * 49 // 2
        # p = 0: no geometric draw is possible, so no walk happens
        assert sample_er(50, 0, seed).edges == frozenset()
        # p = 1e-305: every skip saturates near 2**63; the walk must end
        # after the first one, neither landing on the last pair nor wrapping
        # around to negative pair indices
        tiny = sample_er(10**5, 1e-300, seed)
        assert tiny.edges == frozenset() and tiny.component_count == 10**5


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("n, d, seed", [(2, 2, 0), (9, 9, 4), (30, 0.5, 3),
                                        (60, 3.0, 1), (120, 40.0, 5),
                                        (5000, 6.0, 7)])
def test_sample_er_matches_reference_walk(monkeypatch, block, n, d, seed):
    # small blocks make the first block of skips fall short of n(n-1)/2, so
    # the walk continues across blocks
    if block is not None:
        monkeypatch.setattr(graphs, "_SKIP_BLOCK", block)
    g = sample_er(n, d, seed)
    assert g.component_count >= 1 and len(degrees(g)) == n
    # the sampled pairs reach the graph as its array, never as a set
    assert "edges" not in vars(g)
    reference = er_reference_edges(n, d, seed)
    assert g.edge_array.tolist() == [list(e) for e in sorted(reference)]
    assert not g.edge_array.flags.writeable
    assert g.edges == reference
    # any order and orientation, repeats included, gives the same array
    mixed = [*reference, *((v, u) for u, v in reference)]
    np.random.default_rng(seed).shuffle(mixed)
    assert np.array_equal(Graph.from_edges(n, mixed).edge_array, g.edge_array)


def test_sample_er_saturated_skip_after_an_edge(monkeypatch):
    # At p near 1e-18 a skip can saturate at 2**63 - 1 right after a present
    # pair; unclipped, the int64 partial sum would wrap to a negative index
    class Stream:
        def __init__(self, seed):
            self.skips = iter([2] + [2**63 - 1] * 10)

        def geometric(self, p, size=None):
            if size is None:
                return next(self.skips)
            return np.array([next(self.skips) for _ in range(size)])

    monkeypatch.setattr(np.random, "default_rng", Stream)
    assert sample_er(5, 1e-9, 0).edges == er_reference_edges(5, 1e-9, 0) \
        == {(0, 2)}


def test_sample_er_deterministic_in_seed():
    a = sample_er(300, 3.0, 17)
    b = sample_er(300, 3.0, 17)
    c = sample_er(300, 3.0, 18)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_sample_er_mean_degree():
    # E[mean degree] = (n-1) d/n; compare the average over seeds at 3 sigma
    n, d, reps = 1000, 2.0, 20
    expect = (n - 1) * d / n
    pair_var = (d / n) * (1 - d / n) * (n * (n - 1) / 2)
    sigma_one = 2 * np.sqrt(pair_var) / n
    avg = np.mean([2 * len(sample_er(n, d, s).edges) / n for s in range(reps)])
    assert abs(avg - expect) <= 3 * sigma_one / np.sqrt(reps)


def test_components_examples():
    k4 = make_family("complete", 4)
    assert k4.parts == ((0, 1, 2, 3),) and k4.giant_size == 4

    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert two.parts == ((0, 1), (2, 3)) and two.giant_size == 2
    assert two.roots == (0, 2)

    er = sample_er(1000, 2, 7)
    frac = er.giant_size / er.n
    assert abs(frac - 0.7968) <= 0.05
    from lipgrowth.randomlab import giant_fraction_prediction
    assert abs(frac - giant_fraction_prediction(2)) <= 0.05


def test_components_cover_all_vertices():
    g = sample_er(50, 1.5, 3)
    seen = sorted(v for part in g.parts for v in part)
    assert seen == list(range(50))
    assert len(g.parts) == g.component_count == len(g.roots)


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_handshake_identity(g):
    assert sum(degrees(g)) == 2 * len(g.edges)


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_roots_one_per_component(g):
    assert [part[0] for part in g.parts] == list(g.roots)
    assert len(g.roots) == g.component_count


def assert_components_match_oracle(g, labels):
    """Count, roots, parts, giant size and degrees of ``g`` against the
    breadth-first ``labels`` and the adjacency lists."""
    k = max(labels) + 1
    assert g.component_count == k
    firsts = {}
    parts = [[] for _ in range(k)]
    for v, c in enumerate(labels):
        firsts.setdefault(c, v)
        parts[c].append(v)
    assert g.roots == tuple(firsts[c] for c in range(k))
    assert g.parts == tuple(tuple(p) for p in parts)
    assert g.giant_size == max(len(p) for p in parts)
    assert degrees(g) == [len(a) for a in g.adjacency]


@pytest.mark.parametrize("order", ["identity", "zigzag", "random"])
def test_long_path_components_match_bfs_oracle(order):
    # A path on 10^5 vertices visited in the given vertex order.  Reversing
    # the order gives the same edge set as the identity, so the zigzag
    # 0, n-1, 1, n-2, ... stands in for it: each root's smallest neighbour
    # is then far away along the path.
    n = 10**5
    if order == "identity":
        seq = np.arange(n)
    elif order == "zigzag":
        seq = np.empty(n, dtype=np.int64)
        seq[0::2] = np.arange((n + 1) // 2)
        seq[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    else:
        seq = np.random.default_rng(5).permutation(n)
    g = Graph.from_edges(n, zip(seq[:-1].tolist(), seq[1:].tolist()))
    assert_components_match_oracle(g, bfs_component_labels(n, g.edges))
    assert g.roots == (0,) and g.component_count == 1


@pytest.mark.parametrize("edges, n", [
    ([(i, 10**5 - 1) for i in range(10**5 - 1)], 10**5),  # star, hub last
    ([(500, 1001)], 1002),  # 10^3 isolated vertices plus one edge
])
def test_star_and_isolated_components_match_bfs_oracle(edges, n):
    g = Graph.from_edges(n, edges)
    assert_components_match_oracle(g, bfs_component_labels(n, g.edges))


def test_graph_validation_messages():
    def rows(*edges):
        return np.array(edges, dtype=np.int64).reshape(-1, 2)

    with pytest.raises(ValueError, match="at least one vertex"):
        Graph(0, rows())
    # the first bad row is named, as listed
    with pytest.raises(ValueError, match=r"bad edge \(2, 1\) for n=3"):
        Graph(3, rows((0, 1), (2, 1), (1, 3)))
    with pytest.raises(ValueError, match=r"bad edge \(1, 3\) for n=3"):
        Graph(3, rows((0, 1), (1, 3), (2, 1)))
    with pytest.raises(ValueError, match=r"bad edge \(-1, 2\) for n=3"):
        Graph(3, rows((-1, 2)))
    with pytest.raises(ValueError, match=r"bad edge \(2, 2\) for n=3"):
        Graph(3, rows((2, 2)))
    # rows must increase strictly: no unsorted and no repeated row
    with pytest.raises(ValueError, match=r"edge \(0, 2\) does not follow \(1, 2\)"):
        Graph(3, rows((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) does not follow \(0, 2\)"):
        Graph(3, rows((0, 2), (0, 1)))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) does not follow \(0, 1\)"):
        Graph(3, rows((0, 1), (0, 1)))
    with pytest.raises(ValueError, match=r"shape \(E, 2\)"):
        Graph(3, np.array([0, 1]))
    given_rows = rows((0, 1), (1, 2))
    g = Graph(3, given_rows)
    given_rows[0, 0] = 2  # the graph keeps its own copy
    assert g.edges == {(0, 1), (1, 2)}
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 1  # shared by the graph, so read-only


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_component_labels_and_roots_match_bfs_oracle(g):
    assert_components_match_oracle(g, bfs_component_labels(g.n, g.edges))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])
    # the constructor's range check rejects a self-loop too
    with pytest.raises(ValueError, match=r"^bad edge \(1, 1\) for n=3$"):
        Graph.from_edges(3, [(1, 1)])


def test_edgelist_round_trip(tmp_path):
    for g in (make_grid(3, 4), sample_er(30, 2.0, 5),
              Graph.from_edges(1, [])):
        text = to_edgelist_str(g)
        back = from_edgelist_str(text)
        assert back.n == g.n and back.edges == g.edges and back.roots == g.roots
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert read_edgelist(path).edges == g.edges


def test_edgelist_reader_rejections():
    with pytest.raises(ValueError):
        from_edgelist_str("2 1\n0 1\n0 1\n")     # duplicate
    with pytest.raises(ValueError):
        from_edgelist_str("2 1\n0 5\n")          # out of range
    with pytest.raises(ValueError):
        from_edgelist_str("2 1\n1 1\n")          # self-loop
    with pytest.raises(ValueError):
        from_edgelist_str("2 2\n0 1\n")          # wrong component count
    with pytest.raises(ValueError):
        from_edgelist_str("")


def test_edgelist_duplicate_in_either_orientation():
    # a repeated edge is caught by its normalised form, whichever way round
    # either line writes it
    for text in ("3 1\n1 2\n1 2\n", "3 1\n1 2\n2 1\n", "3 1\n2 1\n1 2\n"):
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
            from_edgelist_str(text)


def test_graph_hash_stable_and_distinct():
    a = make_grid(2, 3)
    assert graph_hash(a) == graph_hash(make_grid(2, 3))
    assert graph_hash(a) != graph_hash(make_grid(3, 2))
