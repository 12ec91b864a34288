"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; stated
runtime limits are asserted alongside the numerical targets.
"""
import math
import time
from fractions import Fraction

import mpmath
import numpy as np

from helpers import (dfs_count, end_pinned_path4, full_counts, oracle_matrix,
                     random_tree, relabel, top_row_pinned_2x3, with_edge)
from lipgrowth.cli import main as cli_main
from lipgrowth.continuum import nystrom_top, solve_alpha
from lipgrowth.counting import count, ehrhart_fit
from lipgrowth.graphs import make_family, make_grid, sample_er
from lipgrowth.randomlab import (bound_report, giant_fraction_prediction,
                                 independent_pair_margin, triple_sum_success)
from lipgrowth.strips import (BandOperator, FreeStripOperator,
                              PinnedStripOperator, extrapolate_limit,
                              strip_count_exact, top_eigenvalue)

BETA = 1.0 / math.atan(0.75)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_closed_form_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(20):
        n = int(rng.integers(1, 8))
        tree = random_tree(n, rng)
        for h in range(6):
            ok &= count(tree, h) == (2 * h + 1) ** (n - 1)
    for n in range(1, 6):
        kn = make_family("complete", n)
        for h in range(6):
            ok &= count(kn, h) == (h + 1) ** n - h ** n
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10
    report(1, ok, f"20 random trees (n<=7) and K_n (n<=5) at h<=5, {elapsed:.1f}s")
    assert ok


def test_criterion_2_ehrhart_prediction():
    fixtures = [
        make_family("path", 2),
        make_family("complete", 3),
        make_family("path", 4),
        make_family("star", 5),
        make_family("complete", 4),
        make_family("cycle", 5),
        make_grid(2, 3),
        make_family("cycle", 7),
        make_family("complete", 7),
        random_tree(7, np.random.default_rng(7)),
    ]
    ok = True
    for g in fixtures:
        assert g.component_count == 1 and g.n <= 7
        fit = ehrhart_fit(g, full_counts(g))
        held_out = g.n
        ok &= fit.evaluate(held_out) == count(g, held_out)
    report(2, ok, f"degree-(n-1) interpolant exact at h=n for "
                  f"{len(fixtures)} connected fixtures")
    assert ok


def test_criterion_3_strip_dp_vs_bruteforce():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for m in range(1, 13):
        for n in range(1, 13):
            if m * n > 12:
                continue
            g = make_grid(m, n)
            for h in range(3):
                ok &= strip_count_exact(m, n, h) == count(g, h)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    report(3, ok, f"{checked} (m, n, h) cases with m*n <= 12, h <= 2, "
                  f"exact equality, {elapsed:.1f}s")
    assert ok


def test_criterion_4_beta_reproduction():
    t0 = time.perf_counter()
    pairs = [(h, top_eigenvalue(BandOperator(h), 1e-12).normalized)
             for h in (50, 100, 200, 400)]
    extrap = extrapolate_limit(pairs).limit
    nystrom = nystrom_top("band-indicator", 2000)
    elapsed = time.perf_counter() - t0
    ok = abs(extrap - BETA) <= 2e-3 and abs(nystrom - BETA) <= 5e-4 \
        and elapsed < 30
    report(4, ok, f"band extrapolation {extrap:.6f} and Nystrom {nystrom:.6f} "
                  f"vs 1/arctan(3/4) = {BETA:.6f}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_alpha_sqrt2_reproduction():
    alpha = solve_alpha()
    residual = abs(math.tan(1 / alpha) - alpha)
    pairs = [(h, top_eigenvalue(FreeStripOperator(2, h), 1e-12).normalized)
             for h in (50, 100, 200, 400)]
    extrap = extrapolate_limit(pairs).limit
    tent = nystrom_top("tent", 2000)
    ok = (abs(extrap - 1.6438) <= 2e-3
          and abs(tent - 2 * alpha * alpha) <= 5e-4
          and residual <= 1e-9)
    report(5, ok, f"two-row extrapolation {extrap:.6f} vs 1.6438, "
                  f"tent eigenvalue {tent:.6f} vs 2*alpha^2, "
                  f"alpha residual {residual:.1e}")
    assert ok


def test_criterion_6_zeta_psi():
    t0 = time.perf_counter()
    zeta = nystrom_top("zeta", 64)
    psi = nystrom_top("psi", 32)
    pinned_pairs = [(h, top_eigenvalue(PinnedStripOperator(2, h),
                                       1e-12).normalized)
                    for h in (10, 15, 20)]
    free3_pairs = [(h, top_eigenvalue(FreeStripOperator(3, h),
                                      1e-12).normalized)
                   for h in (10, 15, 20)]
    zeta_strip = extrapolate_limit(pinned_pairs).limit
    psi_strip = extrapolate_limit(free3_pairs).limit
    lower, upper = psi ** 1.5 / math.sqrt(2), zeta
    elapsed = time.perf_counter() - t0
    ok = (abs(zeta - 1.4895) <= 0.02 and abs(psi - 1.553) <= 0.02
          and abs(zeta - zeta_strip) <= 0.02 and abs(psi - psi_strip) <= 0.02
          and abs(lower - 1.3685) <= 0.02 and abs(upper - 1.4895) <= 0.02
          and elapsed < 600)
    report(6, ok, f"zeta(64) = {zeta:.4f}, psi(32) = {psi:.4f}, strip "
                  f"cross-checks {zeta_strip:.4f}/{psi_strip:.4f}, bounds "
                  f"({lower:.4f}, {upper:.4f}), "
                  f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_rayleigh_lower_bound():
    # lam >= (1^T W 1) / dim for free-strip(2) at h = 200, and 1^T W 1 is
    # the exact count of the 2x2 strip
    bound = Fraction(strip_count_exact(2, 2, 200), 401)
    value = math.sqrt(float(bound)) / 200
    ok = value >= 1.351 - 0.01
    report(7, ok, f"certified two-row bound^(1/2)/h = {value:.4f} >= 1.341")
    assert ok


def test_criterion_8_random_graph_bounds():
    mpmath.mp.dps = 50
    ok = True
    for d in (5, 10, 100):
        rep = bound_report(d)
        dd = mpmath.mpf(d)
        c = mpmath.sqrt(1 - 4 / dd) / dd
        lower = ((1 + c) * (1 - c) ** (5 * mpmath.e ** (-dd / 4))
                 * mpmath.sqrt(1 - 1 / (dd - 1)))
        ok &= abs(rep.lower_exact - float(lower)) <= 1e-10
        if d >= 9:
            a = 2 * mpmath.log(dd) / dd
            upper = 2 ** mpmath.e ** (-dd / 4) * mpmath.e ** (
                dd * a * a / (1 - mpmath.e ** (-dd / 4)))
            ok &= abs(rep.upper_exact - float(upper)) <= 1e-10
    for d in np.geomspace(9, 1e6, 120):
        ok &= independent_pair_margin(float(d)) > 0
    worst = 0.0
    for d in (1.5, 2.0, 4.0):
        pred = giant_fraction_prediction(d)
        mean = np.mean([sample_er(20000, d, s).giant_size / 20000
                        for s in range(10)])
        worst = max(worst, abs(mean - pred))
        ok &= abs(mean - pred) <= 0.02
    report(8, ok, f"bound expressions to 1e-10, margins positive on [9, 1e6], "
                  f"giant prediction vs 10-seed simulation mean within 0.02 "
                  f"(worst {worst:.4f})")
    assert ok


def test_criterion_9_triple_sum_kernel():
    exact_ok = triple_sum_success(1) == Fraction(25, 27)
    limit_ok = abs(float(triple_sum_success(10**4)) - 23 / 24) <= 1e-3
    # Monotone approach to the limit, in exact arithmetic over h = 0..100.
    # Since p(0) = 1 > 23/24 > p(1) = 25/27, the sequence cannot be
    # monotone itself; it is 1 at h=0, then stays below 23/24 and rises
    # strictly, and its gap to 23/24 shrinks strictly at every step.
    limit = Fraction(23, 24)
    vals = [triple_sum_success(h) for h in range(101)]
    gaps = [abs(v - limit) for v in vals]
    monotone_ok = (vals[0] == 1
                   and all(v < limit for v in vals[1:])
                   and all(a < b for a, b in zip(vals[1:], vals[2:]))
                   and all(a > b for a, b in zip(gaps, gaps[1:])))
    ok = exact_ok and limit_ok and monotone_ok
    report(9, ok, "triple_sum_success(1) = 25/27, h=1e4 within 1e-3 of "
                  "23/24; 1 at h=0, then below 23/24 and strictly rising; "
                  "gap to 23/24 strictly shrinking over h = 0..100")
    assert exact_ok and limit_ok and monotone_ok


def _suite_root_invariance():
    # swapping vertices 0 and r makes the old vertex r the root
    for g in (make_family("path", 5), make_family("cycle", 5),
              make_grid(2, 3), make_family("complete", 4)):
        base = count(g, 2)
        for r in range(g.n):
            perm = list(range(g.n))
            perm[0], perm[r] = r, 0
            assert count(relabel(g, perm), 2) == base


def _suite_edge_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        tree = random_tree(n, rng)
        missing = [(i, j) for i in range(n) for j in range(i + 1, n)
                   if (i, j) not in tree.edges]
        if not missing:
            continue
        extra = missing[int(rng.integers(0, len(missing)))]
        h = int(rng.integers(1, 4))
        assert count(with_edge(tree, *extra), h) <= count(tree, h)


def _suite_negation_symmetry():
    g = make_grid(2, 3)
    for w1 in range(-3, 4):
        for w2 in range(-3, 4):
            assert dfs_count(g, 2, {2: w1, 4: w2}) == \
                dfs_count(g, 2, {2: -w1, 4: -w2})


def _suite_pinned_dominance():
    # 2x3 grid with its top row pinned, and the path with its far end pinned
    for table, zero in ((top_row_pinned_2x3, (0, 0)), (end_pinned_path4, 0)):
        ratios = []
        for h in (2, 4, 8, 16):
            counts = table(h)
            ratios.append(counts[zero] / max(counts.values()))
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] >= 0.9


def _suite_w_symmetry():
    # negating a difference vector reverses its mixed-radix index, so
    # W(-u, -v) = W(u, v) reads as W equal to itself reversed on both axes
    for m, h in ((2, 2), (3, 1), (3, 2)):
        W = oracle_matrix(FreeStripOperator(m, h))
        assert np.array_equal(W, W.T)
        assert np.array_equal(W, W[::-1, ::-1])


def _suite_run_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = cli_main(["strip", "--kind", "tent", "--h", "20", "40",
                         "--deterministic"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_criterion_10_property_suites(capsys):
    suites = [
        ("root invariance", _suite_root_invariance),
        ("edge monotonicity", _suite_edge_monotonicity),
        ("negation symmetry", _suite_negation_symmetry),
        ("pinned dominance", _suite_pinned_dominance),
        ("W symmetry", _suite_w_symmetry),
    ]
    timings = []
    for name, fn in suites:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        assert dt < 60, name
        timings.append(f"{name} {dt:.1f}s")
    t0 = time.perf_counter()
    _suite_run_determinism(capsys)
    dt = time.perf_counter() - t0
    assert dt < 60
    timings.append(f"run determinism {dt:.1f}s")
    report(10, True, "; ".join(timings))
