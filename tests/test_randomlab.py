import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (full_counts, lll_reference, lll_trial_failures,
                     pair_scan, with_edge)
from lipgrowth.counting import _root, count, reciprocal_fit
from lipgrowth.graphs import Graph, make_family, sample_er
from lipgrowth.randomlab import (LllConfig, PairSearchResult, _uniform_cuts,
                                 bound_report,
                                 epsilon_upper_bound, flatness_parameter,
                                 giant_fraction_prediction,
                                 independent_pair_margin,
                                 independent_pair_search, lll_sampler,
                                 poisson_tail_bound, stretch_parameter,
                                 triple_sum_success, wilson_interval)


def mp_lower_exact(d):
    d = mpmath.mpf(d)
    c = mpmath.sqrt(1 - 4 / d) / d
    return ((1 + c) * (1 - c) ** (5 * mpmath.e ** (-d / 4))
            * mpmath.sqrt(1 - 1 / (d - 1)))


def mp_upper_exact(d):
    d = mpmath.mpf(d)
    a = 2 * mpmath.log(d) / d
    return 2 ** mpmath.e ** (-d / 4) * mpmath.e ** (d * a * a
                                                    / (1 - mpmath.e ** (-d / 4)))


def test_bound_report_d100():
    rep = bound_report(100)
    assert rep.lower_exact == pytest.approx(1.0047, abs=5e-4)
    assert rep.lower_asymptotic == pytest.approx(1.005, abs=1e-12)
    assert rep.upper_asymptotic == pytest.approx(1.8484, abs=1e-3)
    assert rep.lower_valid and rep.upper_valid


def test_bound_report_matches_high_precision():
    mpmath.mp.dps = 50
    for d in (5, 10, 100):
        rep = bound_report(d)
        assert abs(rep.lower_exact - float(mp_lower_exact(d))) <= 1e-10
        if d >= 9:
            assert abs(rep.upper_exact - float(mp_upper_exact(d))) <= 1e-10


def test_bound_report_domain_edges():
    rep = bound_report(5)
    # the displayed product is real just above d = 4 (it dips below 1 there;
    # the 1 + 1/(2d) form is only the large-d asymptote)
    assert math.isfinite(rep.lower_exact) and rep.lower_exact > 0
    assert rep.lower_valid and not rep.upper_valid
    assert rep.upper_exact is None

    rep4 = bound_report(4)
    assert not rep4.lower_valid and rep4.lower_exact is None
    # the pair margin shares the upper range; the giant fraction needs d > 1
    assert rep.pair_margin is None and rep.giant_fraction is not None
    assert bound_report(1).giant_fraction is None
    rep9 = bound_report(9)
    assert rep9.pair_margin == independent_pair_margin(9)
    assert rep9.giant_fraction == giant_fraction_prediction(9)
    for d in (0, math.nan, math.inf):
        with pytest.raises(ValueError):
            bound_report(d)
    for d in (4, math.nan):
        with pytest.raises(ValueError):
            stretch_parameter(d)
    for d in (8.9, math.nan, math.inf):
        with pytest.raises(ValueError):
            independent_pair_margin(d)
    for d, x in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            poisson_tail_bound(d, x)


def test_lower_exact_below_asymptote_with_slack():
    for d in (5, 10, 20, 50, 100):
        rep = bound_report(d)
        assert rep.lower_exact <= 1 + 1 / (2 * d) + 2 / d ** 2


def test_upper_exact_flagging():
    # the exact upper expression exceeds 2 at moderate d; flagged, not clamped
    rep = bound_report(100)
    assert rep.upper_exact > 2 and not rep.upper_exact_below_two
    rep = bound_report(5000)
    assert rep.upper_exact < 2 and rep.upper_exact_below_two


def test_pair_margin_examples():
    assert independent_pair_margin(10) == pytest.approx(1.21, abs=0.01)
    assert independent_pair_margin(9) > 0
    with pytest.raises(ValueError):
        independent_pair_margin(8.9)


def test_pair_margin_positive_on_log_grid():
    for d in np.geomspace(9, 1e6, 200):
        assert independent_pair_margin(float(d)) > 0


def test_giant_fraction_prediction():
    assert giant_fraction_prediction(2) == pytest.approx(0.7968, abs=1e-4)
    assert abs(giant_fraction_prediction(10) - 1) <= 1e-3
    with pytest.raises(ValueError):
        giant_fraction_prediction(1.0)


def mp_giant_fraction(d):
    """Root y of 1 - y = e^(-d y) by the principal Lambert-W branch; the
    precision covers the cancellation next to the branch point at d = 1."""
    with mpmath.workdps(100):
        dd = mpmath.mpf(d)
        return 1 + mpmath.lambertw(-dd * mpmath.exp(-dd)) / dd


@pytest.mark.parametrize("d", [1 + 10.0 ** -k for k in range(1, 13)]
                         + [1.5, 2.0, 5.0, 10.0, 100.0, 1000.0])
def test_giant_fraction_matches_lambert_w(d):
    # the root's relative condition number is about 1/(d - 1): a rounding
    # of d moves it by that many ulps
    y = giant_fraction_prediction(d)
    exact = mp_giant_fraction(d)
    assert abs(y - exact) / exact <= 1e-15 / (d - 1) + 1e-15


def test_giant_fraction_prediction_cap_and_domain():
    for d in (0.5, 1.0, math.nan):
        with pytest.raises(ValueError):
            giant_fraction_prediction(d)


def test_giant_fraction_two_formulations_agree():
    # survival form: rho = exp(d (rho - 1)), fraction = 1 - rho
    for d in (1.5, 2.0, 4.0):
        rho = 0.5
        for _ in range(10000):
            rho = math.exp(d * (rho - 1))
        assert giant_fraction_prediction(d) == pytest.approx(1 - rho, abs=1e-9)


def test_giant_fraction_empirical_light():
    pred = giant_fraction_prediction(2)
    fracs = [sample_er(5000, 2, s).giant_size / 5000
             for s in range(3)]
    assert abs(np.mean(fracs) - pred) <= 0.03


def test_poisson_tail_bound():
    assert poisson_tail_bound(7, 0) == 1.0
    assert poisson_tail_bound(4, 4) == pytest.approx(math.exp(-1))
    for d in (1, 4, 10):
        assert poisson_tail_bound(d, d) == pytest.approx(math.exp(-d / 4))
    with pytest.raises(ValueError):
        poisson_tail_bound(0, 1)
    with pytest.raises(ValueError):
        poisson_tail_bound(1, -1)


def test_poisson_tail_dominates_samples():
    # compare the bound against sampled binomial degree counts
    rng = np.random.default_rng(5)
    n, d = 4000, 4.0
    degs = rng.binomial(n - 1, d / n, size=20000)
    for x in (2, 4, 8):
        emp = np.mean(degs >= d + x)
        assert emp <= poisson_tail_bound(d, x) * 1.1 + 1e-3


def test_triple_sum_exact_values():
    assert triple_sum_success(0) == 1
    assert triple_sum_success(1) == Fraction(25, 27)
    # brute-force oracle for small h
    for h in range(1, 13):
        good = sum(1 for a in range(-h, h + 1) for b in range(-h, h + 1)
                   for c in range(-h, h + 1) if abs(a + b + c) <= 2 * h)
        assert triple_sum_success(h) == Fraction(good, (2 * h + 1) ** 3)
    # closed form: failures per sign are tetrahedral numbers
    for h in range(1, 60):
        assert triple_sum_success(h) == \
            1 - Fraction(h * (h + 1) * (h + 2), 3 * (2 * h + 1) ** 3)


def test_triple_sum_limit():
    assert abs(float(triple_sum_success(10**4)) - 23 / 24) <= 1e-3


def test_triple_sum_shape():
    """Exact shape of the sequence: 1 at h=0, then below 23/24 and rising.

    The failing corner count h(h+1)(h+2)/3 overshoots the limiting corner
    volume at every finite h >= 1, so the success probability sits below
    23/24 and increases back toward it; only the first step decreases.
    """
    vals = [triple_sum_success(h) for h in range(0, 101)]
    assert vals[0] == 1
    assert all(v < Fraction(23, 24) for v in vals[1:])
    assert all(a < b for a, b in zip(vals[1:], vals[2:]))
    # distance to the limit shrinks monotonically over the whole range
    gaps = [abs(v - Fraction(23, 24)) for v in vals]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_epsilon_upper_bound():
    assert epsilon_upper_bound(1.0) == 2 - 2 ** -18
    assert epsilon_upper_bound(0.5) == 2 - 2 ** -23
    assert 2 - 1e-12 <= epsilon_upper_bound(1e-3) <= 2
    with pytest.raises(ValueError):
        epsilon_upper_bound(0.0)
    with pytest.raises(ValueError):
        epsilon_upper_bound(1.5)


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo <= 0.5 <= hi
    lo, hi = wilson_interval(0, 20)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(20, 20)
    assert hi == 1.0 and lo < 1
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_lll_config():
    cfg = LllConfig(h=100, d=5.0)
    assert cfg.degree_threshold == 10
    assert cfg.low_range[0] == 0
    assert cfg.low_range[1] == math.floor((1 + cfg.stretch) * 100)
    assert cfg.high_range == (math.ceil(cfg.stretch * 100), 100)
    assert cfg.high_range[0] <= cfg.high_range[1]
    # every high value is within h of every admissible value
    for h, d in ((10, 4.5), (25, 5.0), (100, 12.0), (1000, 5.0)):
        c = LllConfig(h=h, d=d)
        assert c.low_range[1] >= c.low_range[0]
        assert c.high_range[1] >= c.high_range[0]
        assert c.low_range[1] - c.high_range[0] <= h
    for d in (4.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            LllConfig(h=10, d=d)
    with pytest.raises(ValueError):
        LllConfig(h=-1, d=5.0)


def test_lll_no_edges_always_succeeds():
    g = Graph.from_edges(5, [])
    res = lll_sampler(g, LllConfig(h=10, d=5), trials=40, seed=1)
    assert res.successes == 40 and res.estimate == 1.0
    assert res.ci_low <= res.estimate <= res.ci_high


def test_lll_single_edge_failure_rate():
    cfg = LllConfig(h=2000, d=5)
    g = Graph.from_edges(2, [(0, 1)])
    trials = 4000
    res = lll_sampler(g, cfg, trials=trials, seed=2)
    c = cfg.stretch
    pred = c * c / (1 + c) ** 2
    sigma = math.sqrt(pred * (1 - pred) / trials)
    assert abs(res.edge_failure_rate - pred) <= 3 * sigma


def test_lll_high_degree_edges_never_fail():
    # centre degree 10 >= ceil(2 * 4.5) = 9 puts it in the high range
    star = make_family("star", 11)
    res = lll_sampler(star, LllConfig(h=50, d=4.5), trials=300, seed=3)
    assert res.edge_failure_rate == 0.0
    assert res.successes == 300


def test_lll_monotone_under_added_edges():
    # degrees stay below the threshold, so shared seeds draw identical
    # functions and extra edges can only remove successes
    base = make_family("path", 8)
    cfg = LllConfig(h=30, d=5)
    added = with_edge(with_edge(base, 0, 7), 2, 5)
    r_base = lll_sampler(base, cfg, trials=400, seed=9)
    r_added = lll_sampler(added, cfg, trials=400, seed=9)
    assert r_added.successes <= r_base.successes


def test_lll_deterministic():
    g = sample_er(40, 5, 4)
    cfg = LllConfig(h=25, d=5)
    a = lll_sampler(g, cfg, trials=60, seed=11)
    b = lll_sampler(g, cfg, trials=60, seed=11)
    assert a == b


@st.composite
def lll_cases(draw):
    """Graph on up to 40 vertices (random edge set, or a star, complete
    graph or edgeless graph on a prefix with the rest isolated) plus a
    config with d in (4, 20] and h in 0..60."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["random", "star", "complete", "edgeless"]))
    if kind == "random" and n > 1:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs), max_size=150))
        graph = Graph.from_edges(n, edges)
    elif kind in ("star", "complete"):
        graph = Graph.from_edges(n, make_family(kind, k).edges)
    else:
        graph = Graph.from_edges(n, [])
    d = draw(st.floats(4, 20, exclude_min=True))
    cfg = LllConfig(h=draw(st.integers(0, 60)), d=d)
    return graph, cfg


@settings(max_examples=150, deadline=None)
@given(lll_cases(), st.integers(1, 40), st.integers(0, 3))
# Every vertex of K12 and the star's centre are low at d = 6 (degree 11 <
# 12) and fill a whole table row; with h = 60 an edge fails in about 0.4 %
# of trials, so these runs see several failures from every row.
@example(case=(make_family("star", 12), LllConfig(h=60, d=6.0)),
         trials=2000, seed=0)
@example(case=(make_family("complete", 12), LllConfig(h=60, d=6.0)),
         trials=500, seed=1)
def test_lll_sampler_matches_reference(case, trials, seed):
    graph, cfg = case
    assert lll_sampler(graph, cfg, trials, seed) == \
        lll_reference(graph, cfg, trials, seed)


def test_uniform_cuts_decide_the_floor_of_the_product():
    # the premise of lll_sampler's uniform-space trial: c_k is the least
    # double with fl(c_k * w) >= k, so at c_k and at both neighbouring
    # doubles, u >= c_k agrees with floor(fl(u * w)) >= k
    for width in (*range(1, 301), 1009, 10007, 123457, 1000003):
        ks = np.arange(1, width + 1)
        c = _uniform_cuts(float(width), ks)
        below, above = np.nextafter(c, 0), np.nextafter(c, np.inf)
        assert (below * width < ks).all() and (ks <= c * width).all(), width
        for u in (below, c, above):
            assert ((u >= c) == (np.floor(u * width) >= ks)).all(), width
        # k = 0 cuts at 0, below which no uniform lies
        assert _uniform_cuts(float(width), np.arange(1))[0] == 0.0


@pytest.mark.parametrize("seed", [7, 1601])
def test_lll_sampler_matches_reference_at_benchmark_shape(seed):
    # the benchmark's n, d and h, far past the property test's graphs
    graph = sample_er(5000, 6, seed)
    cfg = LllConfig(h=100, d=6)
    res = lll_sampler(graph, cfg, 20, seed)
    assert res == lll_reference(graph, cfg, 20, seed)
    assert res.edge_failure_rate > 0


def test_lll_trial_reads_its_own_slice_of_one_stream():
    # trial t alone: default_rng(seed) advanced past the t * n uniforms of
    # the trials before it
    graph = make_family("complete", 12)
    cfg = LllConfig(h=60, d=6.0)
    trials, seed = 500, 5
    failures = []
    for t in range(trials):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(t * graph.n)
        failures.append(lll_trial_failures(graph, cfg, rng.random(graph.n)))
    # the trials differ: some fail and some succeed
    assert 0 < failures.count(0) < trials
    res = lll_sampler(graph, cfg, trials, seed)
    assert res.successes == failures.count(0)
    assert res.edge_failure_rate == sum(failures) / (trials * len(graph.edges))


def test_pair_search_examples():
    empty = Graph.from_edges(4, [])
    res = independent_pair_search(empty, 2)
    assert res.found and res.definitive
    assert set(res.set_a).isdisjoint(res.set_b)

    k6 = make_family("complete", 6)
    res = independent_pair_search(k6, 2)
    assert not res.found and res.definitive


def test_pair_search_witness_has_no_crossing_edges():
    g = sample_er(16, 2.0, 8)
    res = independent_pair_search(g, 3)
    if res.found:
        for u in res.set_a:
            for v in res.set_b:
                e = (u, v) if u < v else (v, u)
                assert e not in g.edges


def test_pair_search_er_scarcity():
    # two sets of ceil(alpha n) vertices cannot even fit disjointly here,
    # so the observed frequency over seeds is exactly zero, definitively
    size = math.ceil(flatness_parameter(6) * 18)
    assert 2 * size > 18
    found = 0
    for s in range(100):
        res = independent_pair_search(sample_er(18, 6, s), size)
        assert res.definitive
        found += res.found
    assert found == 0


@st.composite
def half_size_cases(draw):
    """Graphs on an even number n <= 12 of vertices, sparse enough that
    their component sizes often, but not always, reach n/2."""
    n = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    return Graph.from_edges(n, edges), n // 2


@settings(max_examples=200, deadline=None)
@given(half_size_cases())
def test_cover_split_matches_scan_oracle(case):
    g, size = case
    res = independent_pair_search(g, size)
    assert res.definitive
    assert res.found == (pair_scan(g, size) is not None)
    if res.found:
        a, b = set(res.set_a), set(res.set_b)
        assert len(a) == len(b) == size and a.isdisjoint(b)
        assert not any((u in a and v in b) or (u in b and v in a)
                       for u, v in g.edges)


def test_pair_search_modes():
    big = Graph.from_edges(30, [])
    res = independent_pair_search(big, 5)          # n > 20: heuristic
    assert res.found and not res.definitive
    res = independent_pair_search(Graph.from_edges(20, []), 5)  # exhaustive
    assert res.found and res.definitive
    with pytest.raises(ValueError):
        independent_pair_search(big, 0)


def test_cover_split_is_definitive_above_20_vertices():
    # an 11-vertex path and 11 isolated vertices: A = the path, B = the rest
    g = Graph.from_edges(22, [(i, i + 1) for i in range(10)])
    res = independent_pair_search(g, 11)
    assert res == PairSearchResult(True, tuple(range(11)),
                                   tuple(range(11, 22)), True)
    # a 12-vertex path cannot lie in either half: definitively absent
    g = Graph.from_edges(22, [(i, i + 1) for i in range(11)])
    assert independent_pair_search(g, 11) == PairSearchResult(False, None,
                                                              None, True)
    # 300 three-paths, 150 edges and 600 isolated vertices: many
    # components of three sizes, and 900 of the 1,800 vertices in many ways
    edges = [e for t in range(300) for e in ((3 * t, 3 * t + 1),
                                             (3 * t + 1, 3 * t + 2))]
    edges += [(900 + 2 * k, 901 + 2 * k) for k in range(150)]
    g = Graph.from_edges(1800, edges)
    res = independent_pair_search(g, 900)
    a = set(res.set_a)
    assert res.found and res.definitive and len(a) == 900
    assert res.set_b == tuple(sorted(set(range(1800)) - a))
    assert not any((u in a) != (v in a) for u, v in g.edge_array.tolist())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=25))
def test_cover_split_matches_subset_sum_oracle(lengths):
    # disjoint paths of the drawn lengths, plus one isolated vertex when
    # that makes n even; repeated lengths exercise the grouping by size
    n = sum(lengths) + sum(lengths) % 2
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + i + 1) for i in range(k - 1)]
        start += k
    g = Graph.from_edges(n, edges)
    sums = {0}
    for part in g.parts:
        sums |= {t + len(part) for t in sums}
    res = independent_pair_search(g, n // 2)
    assert res.definitive and res.found == (n // 2 in sums)
    if res.found:
        a = set(res.set_a)
        assert len(a) == n // 2 and set(res.set_b) == set(range(n)) - a
        assert not any((u in a) != (v in a) for u, v in edges)


def test_c_empirical_star():
    from lipgrowth.counting import ehrhart_fit
    star = make_family("star", 5)
    assert reciprocal_fit(star)[0].c_estimate == pytest.approx(2.0, abs=1e-12)
    fit = ehrhart_fit(star, full_counts(star))
    assert fit.leading == 2 ** 4   # the growth constant is exactly 2


def test_c_empirical_complete():
    assert reciprocal_fit(make_family("complete", 4))[0].c_estimate == \
        pytest.approx(4 ** (1 / 3), abs=1e-12)


def test_c_empirical_er_in_growth_window():
    g = sample_er(9, 2, 10)
    c = reciprocal_fit(g)[0].c_estimate
    assert 1.0 <= c <= 2.0


def _growth(g, h):
    """The finite-h growth value count^(1/(n-1)) / h of a connected g."""
    return _root(count(g, h), g.n - 1) / h


def test_c_empirical_sequence_mode():
    g = make_family("cycle", 5)
    for h in (2, 4):
        assert (h + 1) / h <= _growth(g, h) <= (2 * h + 1) / h


def test_c_empirical_tree_dominates_supergraph():
    # a spanning tree has the maximal count at every h
    tree = make_family("path", 5)
    denser = with_edge(tree, 0, 4)
    for h in (1, 2, 3):
        assert _growth(tree, h) >= _growth(denser, h)
    assert reciprocal_fit(tree)[0].c_estimate == pytest.approx(2.0, abs=1e-12)
    assert reciprocal_fit(denser)[0].c_estimate <= 2.0
