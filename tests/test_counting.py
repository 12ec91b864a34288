import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (dfs_count, end_pinned_path4, full_counts, newton_fit,
                     relabel, top_row_pinned_2x3, with_edge)
from lipgrowth.counting import (_LABELS, EhrhartPoly, _domains, _eliminate,
                                _plan, _root, count, count_closed_form,
                                count_with_stats, ehrhart_fit, reciprocal_fit)
from lipgrowth.errors import DEFAULT_BUDGET, ResourceLimitError
from lipgrowth.graphs import Graph, make_family, make_grid, sample_er
from lipgrowth.strips import strip_count_exact


def small_connected():
    def build(data):
        n, extra = data
        base = [(i, i + 1) for i in range(n - 1)]
        return Graph.from_edges(n, base + extra)
    return st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.sampled_from([(i, j) for i in range(n)
                                      for j in range(i + 2, n)] or [(0, 1)]),
                     unique=True))).map(build)


def test_bruteforce_examples():
    assert count(make_family("path", 2), 1) == 3
    assert count(make_family("complete", 3), 2) == 19
    assert count(make_family("cycle", 4), 1) == 19
    for g in (make_family("path", 4), make_grid(2, 3), make_family("star", 6)):
        assert count(g, 0) == 1


def test_bruteforce_c4_against_direct_enumeration():
    # independent oracle: fix f(v1)=0, loop over the other three values;
    # the vertex opposite the root can reach +-2h
    h = 1
    direct = 0
    for f2 in range(-h, h + 1):
        for f3 in range(-2 * h, 2 * h + 1):
            for f4 in range(-h, h + 1):
                if (abs(f2 - f3) <= h and abs(f3 - f4) <= h
                        and abs(f4) <= h and abs(f2) <= h):
                    direct += 1
    assert direct == 19
    assert count(make_family("cycle", 4), 1) == direct


def test_bruteforce_matches_closed_forms():
    for n in range(1, 6):
        for h in range(4):
            for kind in ("path", "complete"):
                g = make_family(kind, n)
                assert count(g, h) == count_closed_form(g, h)
    for n in range(2, 6):
        for h in range(4):
            g = make_family("star", n)
            assert count(g, h) == count_closed_form(g, h)


def test_closed_form_examples():
    assert count_closed_form(make_family("path", 4), 3) == 343
    # K_2 is a tree and complete: both factors give 2h + 1
    assert count_closed_form(make_family("complete", 2), 5) == 11
    assert count_closed_form(make_family("complete", 4), 1) == 15
    with pytest.raises(ValueError, match="4 vertices and 4 edges"):
        count_closed_form(make_family("cycle", 4), 1)


def test_closed_form_matches_elimination():
    # seeded ER(12, 1) graphs are mostly forests, now and then with a
    # triangle; each whose components are all trees or complete graphs gets
    # the elimination's count from its closed form
    closed = 0
    for seed in range(200):
        g = sample_er(12, 1, seed)
        try:
            value = count_closed_form(g, 2)
        except ValueError:
            continue
        closed += 1
        assert value == count(g, 2), seed
    assert closed >= 150
    # K4, K3, a star and an isolated vertex
    g = Graph.from_edges(12, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                              (4, 5), (4, 6), (5, 6), (7, 8), (7, 9), (7, 10)])
    for h in range(4):
        assert count_closed_form(g, h) == count(g, h), h


def test_budget_guard():
    g = make_grid(4, 4)
    with pytest.raises(ResourceLimitError):
        count(g, 3, budget=1000)
    # an allowed run reports its expansions
    c, e = count_with_stats(make_grid(2, 2), 1)
    assert c == 19 and e > 0


def test_fit_budget_checked_before_counting(monkeypatch):
    # the 4x5 fit counts h = 0..10, and h = 10 needs a table far past the
    # budget, so the fit is rejected before any node, h = 0 included, runs
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    with pytest.raises(ResourceLimitError):
        reciprocal_fit(make_grid(4, 5))
    assert calls == []
    # a fit within the budget counts h = 0..d//2 + 1
    assert reciprocal_fit(make_grid(2, 2))[1] == full_counts(make_grid(2, 2))[:3]
    assert calls


@st.composite
def small_graphs(draw):
    """Graphs on <= 8 vertices, often disconnected."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) \
        if pairs else []
    return Graph.from_edges(n, edges)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.integers(0, 3))
def test_elimination_matches_dfs_oracle(g, h):
    assert count_with_stats(g, h)[0] == dfs_count(g, h)


def test_int64_to_object_boundary(monkeypatch):
    expected = {n: strip_count_exact(2, n, 1) for n in (20, 21)}
    dtypes = []
    einsum = np.einsum

    def spy(spec, *operands, **kwargs):
        dtypes.extend(a.dtype for a in operands)
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    # 2x20 at h=1 has 39 variables: every table is bounded by 3^39 <= int64
    # max < 3^40, so all steps run in int64
    assert count(make_grid(2, 20), 1) == expected[20]
    assert set(dtypes) == {np.dtype(np.int64)}
    dtypes.clear()
    # 2x21 has 41: the first steps still fit int64, the ones whose eliminated
    # set passes 39 vertices run on Python ints
    assert count(make_grid(2, 21), 1) == expected[21]
    assert set(dtypes) == {np.dtype(np.int64), np.dtype(object)}


def _clique(vs):
    return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]


# Each graph's first eliminated vertex has a bucket of 3 or more band
# factors only.  In the first three its partners sit at BFS distances 1 and
# 2 from the root, so their domains [-h d, h d] differ in width and offset;
# in two-hubs two vertices at distance 1 each have partners at distance 2.
BAND_ONLY_GRAPHS = {
    "root-two-K6": Graph.from_edges(
        7, [(0, 1), (0, 2)] + _clique([1, 2, 3, 4, 5, 6])),
    "root-one-K5": Graph.from_edges(6, [(0, 1)] + _clique([1, 2, 3, 4, 5])),
    "wheel": Graph.from_edges(
        7, [(0, 1), (0, 2), (0, 3)] + _clique([1, 2, 3, 4])
        + [(4, 5), (4, 6), (5, 6), (1, 5), (2, 6), (3, 5), (3, 6)]),
    "two-hubs": Graph.from_edges(
        8, [(0, 1), (0, 2)] + _clique([1, 3, 4, 5]) + _clique([2, 5, 6, 7])
        + [(3, 6), (4, 7)]),
}


@pytest.mark.parametrize("h", [0, 1, 2, 5])
@pytest.mark.parametrize("name", sorted(BAND_ONLY_GRAPHS))
def test_band_only_steps_match_dfs_oracle(name, h):
    g = BAND_ONLY_GRAPHS[name]
    assert len({d for d, _ in _domains(g, 1)}) == 3   # distances 0, 1 and 2
    assert count_with_stats(g, h)[0] == dfs_count(g, h)


def test_band_only_k7_matches_closed_form():
    # K7 at h = 9: the first bucket sums 19 values over a 19^5 table
    k7 = make_family("complete", 7)
    assert count_with_stats(k7, 9)[0] == count_closed_form(k7, 9) == 10**7 - 9**7


def test_band_only_step_counts_output_cells():
    # K7 at h = 4: the band-only first step evaluates its 9^5 output cells,
    # each later step its einsum loop, 9^5, 9^4, ..., 9 (counting the first
    # step's loop of 9^6 too would give 597,870)
    assert count_with_stats(make_family("complete", 7), 4)[1] == \
        2 * 9**5 + 9**4 + 9**3 + 9**2 + 9 == 125_478


def test_band_matrices_only_in_table_steps(monkeypatch):
    # K7 at h = 4 has six variables: the first is summed in closed form, and
    # each of the five einsum calls takes the table the step before made (a
    # band matrix holds only 0 and 1)
    calls = []
    einsum = np.einsum

    def spy(spec, *operands, **kwargs):
        calls.append((spec, [int(np.max(a)) for a in operands]))
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    k7 = make_family("complete", 7)
    assert count(k7, 4) == count_closed_form(k7, 4)
    assert len(calls) == 5
    assert all(max(peaks) > 1 for _, peaks in calls), calls


@st.composite
def dense_graphs(draw):
    """Graphs on <= 8 vertices with at least half of all pairs as edges."""
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    missing = draw(st.lists(st.sampled_from(pairs), unique=True,
                            max_size=len(pairs) // 2))
    return Graph.from_edges(n, [p for p in pairs if p not in missing])


@settings(max_examples=60, deadline=None)
@given(dense_graphs(), st.integers(0, 3))
def test_dense_elimination_matches_dfs_oracle(g, h):
    assert count_with_stats(g, h)[0] == dfs_count(g, h)


def test_pins_are_not_table_axes():
    # K7 at h=4: six variables of 9 values; eliminating the first leaves a
    # 9^5 table over the other five, and the pinned root adds no axis
    k7 = make_family("complete", 7)
    c, _ = count_with_stats(k7, 4, budget=9**5)
    assert c == count_closed_form(k7, 4)
    with pytest.raises(ResourceLimitError):
        count_with_stats(k7, 4, budget=9**5 - 1)


def test_disconnected_counts_multiply():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert count(g, 1) == 9
    assert count(g, 2) == 25


def test_pinned_examples():
    p3 = make_family("path", 3)
    assert dfs_count(p3, 2, {2: 0}) == 5
    assert dfs_count(p3, 2, {2: 1}) == 4
    assert dfs_count(p3, 2, {2: 5}) == 0


def test_pinned_infeasible_edge_inside_t_returns_zero():
    p2 = make_family("path", 2)
    assert dfs_count(p2, 1, {1: 5}) == 0


def test_pinned_oracle_matches_strip_and_convolution():
    # the 2x3 grid with its top row pinned is one free-strip(3) step from a
    # fixed column, and the path with its far end pinned is a sum of three
    # steps in [-h, h]; pins past those ranges count 0
    grid, path = make_grid(2, 3), make_family("path", 4)
    for h in range(5):
        rows = top_row_pinned_2x3(h)
        for w1 in range(-2 * h - 1, 2 * h + 2):
            for w2 in range(-2 * h - 1, 2 * h + 2):
                assert dfs_count(grid, h, {1: w1, 2: w2}) == \
                    rows.get((w1, w2), 0), (h, w1, w2)
        ends = end_pinned_path4(h)
        for w in range(-3 * h - 1, 3 * h + 2):
            assert dfs_count(path, h, {3: w}) == ends.get(w, 0), (h, w)


def test_pinned_negation_symmetry():
    g = make_grid(2, 3)
    rng = np.random.default_rng(11)
    for _ in range(25):
        w1 = int(rng.integers(-4, 5))
        w2 = int(rng.integers(-4, 5))
        assert dfs_count(g, 2, {2: w1, 4: w2}) == \
            dfs_count(g, 2, {2: -w1, 4: -w2})


def test_pinned_unpinned_consistency():
    # summing the pinned counts over one vertex's full range recovers the total
    g = make_family("cycle", 5)
    h = 2
    total = sum(dfs_count(g, h, {2: w}) for w in range(-2 * h, 2 * h + 1))
    assert total == count(g, h)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(0, 3), st.data())
def test_root_invariance(g, h, data):
    # renaming the vertices moves each component's root, its smallest
    # vertex, to another vertex; the count stays the same
    perm = data.draw(st.permutations(range(g.n)))
    assert count(relabel(g, perm), h) == count(g, h)


@settings(max_examples=40, deadline=None)
@given(small_connected(), st.integers(0, 3))
def test_count_bounds_sandwich(g, h):
    nfree = g.n - g.component_count
    c = count(g, h)
    assert (h + 1) ** nfree <= c <= (2 * h + 1) ** nfree


@settings(max_examples=30, deadline=None)
@given(small_connected(), st.integers(1, 3), st.data())
def test_edge_monotonicity(g, h, data):
    missing = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
               if (i, j) not in g.edges]
    if not missing:
        return
    e = data.draw(st.sampled_from(missing))
    before = count(g, h)
    after = count(with_edge(g, *e), h)
    assert after <= before


def test_ehrhart_examples():
    p3 = make_family("path", 3)
    fit = ehrhart_fit(p3, [(0, 1), (1, 9), (2, 25)])
    assert fit.coeffs == (Fraction(1), Fraction(4), Fraction(4))
    assert fit.c_estimate == pytest.approx(2.0, abs=1e-12)

    k3 = make_family("complete", 3)
    fit = ehrhart_fit(k3, [(0, 1), (1, 7), (2, 19)])
    assert fit.coeffs == (Fraction(1), Fraction(3), Fraction(3))
    assert fit.c_estimate == pytest.approx(3 ** 0.5, abs=1e-12)

    c4 = make_family("cycle", 4)
    fit = ehrhart_fit(c4, full_counts(c4))
    assert 1 <= fit.leading <= 2 ** 3
    assert fit.evaluate(4) == count(c4, 4)


def test_ehrhart_validation():
    p3 = make_family("path", 3)
    with pytest.raises(ValueError):
        ehrhart_fit(p3, [(0, 1), (0, 1), (2, 25)])   # duplicate nodes
    with pytest.raises(ValueError):
        ehrhart_fit(p3, [(0, 1), (1, 9)])            # wrong node count
    with pytest.raises(ValueError):
        ehrhart_fit(p3, [(0, 5), (1, 6), (2, 7)])    # counts violate growth bounds
    # the leading coefficient's range [1, 2^(n-k)] is closed: (h+1)^2 and
    # (2h+1)^2 pass, (h+1)(h+2)/2 and 1 + 4h + 5h^2 do not
    assert ehrhart_fit(p3, [(0, 1), (1, 4), (2, 9)]).leading == 1
    assert ehrhart_fit(p3, [(0, 1), (1, 9), (2, 25)]).leading == 4
    for counts in ([(0, 1), (1, 3), (2, 6)], [(0, 1), (1, 10), (2, 29)]):
        with pytest.raises(ValueError, match="leading coefficient"):
            ehrhart_fit(p3, counts)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ehrhart_fit_matches_newton(data):
    # distinct nodes, negative and not contiguous; counts of up to 2^200
    # and past, either arbitrary or the values sum_k b_k C(h, k) of an
    # integer-valued polynomial whose leading coefficient b_d / d! lies in
    # [1, 2^d], the range ehrhart_fit accepts
    d = data.draw(st.integers(0, 9))
    hs = data.draw(st.lists(st.integers(-60, 60), min_size=d + 1,
                            max_size=d + 1, unique=True))
    big = st.integers(-2 ** 200, 2 ** 200)
    if data.draw(st.booleans()):
        b = data.draw(st.lists(big, min_size=d, max_size=d))
        b.append(data.draw(st.integers(math.factorial(d),
                                       math.factorial(d) << d)))
        ys = [sum(bk * math.prod(range(h - k + 1, h + 1)) // math.factorial(k)
                  for k, bk in enumerate(b)) for h in hs]
    else:
        ys = data.draw(st.lists(big, min_size=d + 1, max_size=d + 1))
    counts = list(zip(hs, ys))
    path = make_family("path", d + 1)
    expected = newton_fit(counts)
    if d and not 1 <= expected[-1] <= 2 ** d:
        with pytest.raises(ValueError):
            ehrhart_fit(path, counts)
        return
    fit = ehrhart_fit(path, counts)
    assert fit.coeffs == expected
    assert all(type(c) is Fraction for c in fit.coeffs)
    assert [fit.evaluate(h) for h in hs] == ys


def test_ehrhart_polynomiality_holdout():
    for g in (make_family("cycle", 5), make_grid(2, 3)):
        fit = ehrhart_fit(g, full_counts(g))
        held_out = g.n - g.component_count + 1
        assert fit.evaluate(held_out) == count(g, held_out)


def test_ehrhart_evaluate_matches_nodes():
    g = make_grid(2, 2)
    counts = full_counts(g)
    fit = ehrhart_fit(g, counts)
    for h, c in counts:
        assert fit.evaluate(h) == c


def test_ehrhart_disconnected_degree():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])   # n=5, k=3 -> degree 2
    fit = ehrhart_fit(g, full_counts(g))
    assert fit.degree == 2
    assert fit.coeffs == (Fraction(1), Fraction(4), Fraction(4))


def _assert_reciprocal_fit_matches_full_fit(g):
    fit, counted = reciprocal_fit(g)
    d = g.n - g.component_count
    assert fit == ehrhart_fit(g, full_counts(g))
    assert [h for h, _ in counted] == list(range(d // 2 + 2))
    assert all(fit.evaluate(h) == c for h, c in counted)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([(i, j) for i in range(n)
                              for j in range(i + 1, n)] or [None]),
             unique=True, max_size=12))))
def test_reciprocal_fit_matches_full_fit(case):
    # often disconnected, with isolated vertices; d = 0 when edgeless
    n, edges = case
    _assert_reciprocal_fit_matches_full_fit(
        Graph.from_edges(n, [e for e in edges if e is not None]))


def test_reciprocal_fit_examples():
    for g in (make_grid(2, 3), make_grid(3, 3), make_family("cycle", 7),
              make_family("complete", 5),
              Graph.from_edges(1, []), Graph.from_edges(3, []),   # d = 0
              Graph.from_edges(3, [(0, 2)])):                     # d = 1
        _assert_reciprocal_fit_matches_full_fit(g)


def test_reciprocal_fit_checks_itself(monkeypatch):
    # one count off by one at the top counted node is caught, for odd d
    # (2x3, d = 5), even d (C7, d = 6) and d = 0; the fit counts through
    # _eliminate, running the steps planned once at the top node
    from lipgrowth import counting
    exact = counting._eliminate
    for g in (make_grid(2, 3), make_family("cycle", 7), Graph.from_edges(2, [])):
        top = (g.n - g.component_count) // 2 + 1
        monkeypatch.setattr(counting, "_eliminate",
                            lambda steps, domains, h:
                            exact(steps, domains, h) + (h == top))
        with pytest.raises(ValueError):
            reciprocal_fit(g)
        monkeypatch.setattr(counting, "_eliminate", exact)
        reciprocal_fit(g)


def test_reciprocal_fit_plans_once(monkeypatch):
    # one plan of elimination steps per fit, made at the top node, whatever
    # the number of counted nodes; a count plans at its own h
    from lipgrowth import counting
    calls = []
    plan = counting._plan

    def spy(graph, domains, budget):
        calls.append(max(b - a + 1 for a, b in domains))
        return plan(graph, domains, budget)

    def widest(g, h):
        return max(b - a + 1 for a, b in _domains(g, h))

    monkeypatch.setattr(counting, "_plan", spy)
    for g in (make_grid(2, 3), make_grid(3, 3), make_family("cycle", 7),
              Graph.from_edges(3, [])):
        calls.clear()
        reciprocal_fit(g)
        assert calls == [widest(g, (g.n - g.component_count) // 2 + 1)]
    calls.clear()
    assert count(make_grid(2, 3), 2) == 1459
    assert calls == [widest(make_grid(2, 3), 2)]


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_steps_planned_at_three_count_every_lower_h(g):
    # the steps planned at h = 3 count h = 0..3 as count_with_stats does,
    # each step's variable the last axis of every table it takes; a step
    # with inputs carries its einsum subscripts: one operand per table taken
    # and band matrix, each ending in v's label, summed out to the scope's
    steps, _ = _plan(g, _domains(g, 3), DEFAULT_BUDGET)
    for v, scope, band, inputs, spec in steps:
        assert set(band) <= set(scope)
        assert all(steps[i][1][-1] == v for i in inputs)
        if not inputs:
            assert spec is None
            continue
        operands, out = spec.split("->")
        operands = operands.split(",")
        assert len(operands) == len(inputs) + len(band)
        assert {o[-1] for o in operands} == {_LABELS[len(scope)]}
        assert out == _LABELS[:len(scope)]
    for h in range(4):
        assert _eliminate(steps, _domains(g, h), h) == count_with_stats(g, h)[0]


@pytest.mark.parametrize("g, h, count_, cells", [
    (make_grid(3, 4), 2, 5305715, 56991),
    (make_grid(2, 5), 3, 8591707, 31629),
    (make_family("cycle", 10), 2, 856945, 1425),
    (make_family("complete", 7), 4, 61741, 125478),
    (make_grid(4, 4), 5, 138190481342321, 8855445),
    (make_grid(3, 5), 4, 1097335135053, 3479470),
    (make_family("star", 6), 3, 16807, 5),
    (sample_er(16, 3, 1), 3, 43946797923, 190364),
])
def test_node_expansions_pinned(g, h, count_, cells):
    # the cells the plan evaluates, as reported in count's node_expansions
    assert count_with_stats(g, h) == (count_, cells)


def test_reciprocal_fit_checks_budget_before_counting(monkeypatch):
    # 4x5 counts h = 0..10, and h = 10 exceeds the default budget; 3x3
    # counts h = 0..5, whose largest tables have 825 cells at h = 4 and
    # 1271 at h = 5, so a budget of 1000 stops it at the extra node
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    with pytest.raises(ResourceLimitError):
        reciprocal_fit(make_grid(4, 5))
    with pytest.raises(ResourceLimitError):
        reciprocal_fit(make_grid(3, 3), budget=1000)
    assert calls == []
    assert reciprocal_fit(make_grid(3, 3), budget=1271)[0].degree == 8
    assert calls


def test_pinned_dominance_trend():
    """The all-zero pin dominates any pin, increasingly so as h grows."""
    schedule = (2, 4, 8, 16)

    # the count tables hold every pin with a nonzero count
    ratios = []
    for h in schedule:
        rows = top_row_pinned_2x3(h)
        ratios.append(rows[0, 0] / max(rows.values()))
    assert all(a <= b or abs(a - b) < 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.9

    ratios = []
    for h in schedule:
        ends = end_pinned_path4(h)
        ratios.append(ends[0] / max(ends.values()))
    assert all(a <= b or abs(a - b) < 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.9


def _growth(g, hs):
    """The finite-h growth sequence count^(1/(n-1)) / h of a connected g."""
    return [_root(count(g, h), g.n - 1) / h for h in hs]


def test_growth_roots_beyond_float_range():
    # counts and leading coefficients of 2^1024 and more overflow float(),
    # so the roots come from the exact values
    assert _growth(make_family("star", 1100), [1, 2]) == [3.0, 2.5]
    assert EhrhartPoly((Fraction(0),) * 1100
                       + (Fraction(2 ** 1100),)).c_estimate == 2.0
    # beyond 2^1000 above the nearest power 2^(kq), the rest is rooted apart
    assert _growth(make_family("star", 2100), [1, 2]) == \
        pytest.approx([3.0, 2.5], rel=1e-15)
    # within float range the root is float(x) ** (1/k), bit for bit
    assert _growth(make_family("star", 400), [1, 2]) == \
        [float(3 ** 399) ** (1 / 399), float(5 ** 399) ** (1 / 399) / 2]
    leading = Fraction(2 ** 1100 - 1, 2 ** 77 + 1)
    assert EhrhartPoly((Fraction(1), leading)).c_estimate == float(leading)


def test_ehrhart_poly_type():
    poly = EhrhartPoly((Fraction(1), Fraction(4), Fraction(4)))
    assert poly.degree == 2
    assert poly.leading == 4
    assert poly.evaluate(3) == 49
    with pytest.raises(ValueError):
        EhrhartPoly((Fraction(7),)).c_estimate
