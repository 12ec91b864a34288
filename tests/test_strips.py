import dataclasses
import functools
import itertools
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (dense_matrix, free_strip_weight, index_state,
                     pinned_states, prefix_sites, state_index,
                     strip_count_stepwise)
from lipgrowth.counting import count
from lipgrowth.errors import ConvergenceError, ResourceLimitError
from lipgrowth.graphs import make_grid
from lipgrowth.strips import (BandOperator, FreeStripOperator,
                              PinnedStripOperator, TentOperator, _fold,
                              _unfold, extrapolate_limit, make_operator,
                              strip_count_exact, top_eigenvalue)

BETA = 1.0 / math.atan(0.75)
ALPHA_SQRT2 = 1.6437967


def test_state_index_round_trip():
    for m, h in ((2, 2), (3, 1), (4, 1)):
        dim = (2 * h + 1) ** (m - 1)
        for idx in range(dim):
            st = index_state(idx, m, h)
            assert state_index(st, h) == idx
            assert all(abs(d) <= h for d in st)
    with pytest.raises(ValueError):
        state_index((3,), 1)


def test_weight_examples():
    assert free_strip_weight(2, (1,), (-1,)) == 3
    assert free_strip_weight(1, (0, 0), (0, 0)) == 3
    assert free_strip_weight(1, (-1, -1), (1, 1)) == 0


def test_weight_matches_offset_enumeration():
    # derivation oracle: count offsets delta directly
    h = 1
    for u in itertools.product(range(-h, h + 1), repeat=2):
        for v in itertools.product(range(-h, h + 1), repeat=2):
            pu = (0, u[0], u[0] + u[1])
            pv = (0, v[0], v[0] + v[1])
            direct = sum(
                1 for delta in range(-2 * h, 2 * h + 1)
                if all(abs(delta + pv[i] - pu[i]) <= h for i in range(3)))
            assert free_strip_weight(h, u, v) == direct


def test_band_apply_examples():
    b = BandOperator(1)
    assert np.allclose(b.apply(np.ones(3)), [2, 3, 2])
    with pytest.raises(ValueError):
        b.apply(np.ones(4))


def test_tent_apply_matches_direct_matrix():
    for h in (1, 2, 5):
        op = TentOperator(h)
        dim = 2 * h + 1
        direct = np.array([[2 * h + 1 - abs(i - j) for j in range(dim)]
                           for i in range(dim)], dtype=float)
        x = np.arange(dim, dtype=float) + 0.5
        assert np.allclose(op.apply(x), direct @ x)


def test_free_strip2_equals_tent_entries():
    for h in (1, 2, 3):
        W = dense_matrix(FreeStripOperator(2, h))
        for u in range(-h, h + 1):
            for v in range(-h, h + 1):
                assert free_strip_weight(h, (u,), (v,)) == 2 * h + 1 - abs(u - v)
                assert W[v + h, u + h] == 2 * h + 1 - abs(u - v)


def test_pinned_strip1_equals_band():
    for h in (1, 2, 3):
        assert np.array_equal(dense_matrix(PinnedStripOperator(1, h)),
                              dense_matrix(BandOperator(h)))


def test_w_symmetry():
    for m in (2, 3):
        for h in (1, 2):
            states = list(itertools.product(range(-h, h + 1), repeat=m - 1))
            for u in states:
                for v in states:
                    w = free_strip_weight(h, u, v)
                    assert w == free_strip_weight(h, v, u)
                    neg_u = tuple(-d for d in u)
                    neg_v = tuple(-d for d in v)
                    assert w == free_strip_weight(h, neg_u, neg_v)


def test_strip_count_examples():
    assert strip_count_exact(2, 2, 1) == 19
    for n in (1, 2, 5, 9):
        for h in (0, 1, 3):
            assert strip_count_exact(1, n, h) == (2 * h + 1) ** (n - 1)
    assert strip_count_exact(3, 3, 1) == 1665
    assert strip_count_exact(3, 3, 1) == count(make_grid(3, 3), 1)


def test_strip_count_big_integers():
    # exceeds int64: the exact path must degrade gracefully to big ints
    val = strip_count_exact(1, 50, 3)
    assert val == 7 ** 49
    val = strip_count_exact(2, 40, 2)
    assert val == count_via_dense_int(2, 40, 2)


def test_free_strip_matrix_symmetric():
    # the premise of the meet-in-the-middle strip DP: W = W^T
    for m in range(1, 5):
        for h in range(4):
            W = dense_matrix(FreeStripOperator(m, h))
            assert np.array_equal(W, W.T), (m, h)


def test_strip_count_meets_stepwise_oracle():
    # both orientations, odd and even step counts max(m, n) - 1
    for m in range(1, 5):
        for n in range(1, 13):
            for h in range(4):
                expect = strip_count_stepwise(m, n, h)
                assert strip_count_exact(m, n, h) == expect, (m, n, h)
                assert strip_count_exact(n, m, h) == expect, (n, m, h)
    for m, n, h in ((3, 40, 10), (4, 10, 3)):
        assert strip_count_exact(m, n, h) == strip_count_stepwise(m, n, h)


def count_via_dense_int(m, n, h):
    # independent integer DP with an explicitly materialised weight matrix
    states = list(itertools.product(range(-h, h + 1), repeat=m - 1))
    W = [[free_strip_weight(h, u, v) for v in states] for u in states]
    vec = [1] * len(states)
    for _ in range(n - 1):
        vec = [sum(W[i][j] * vec[j] for j in range(len(states)))
               for i in range(len(states))]
    return sum(vec)


def test_strip_count_oracle_vs_bruteforce_small():
    for m, n in ((1, 5), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (2, 5)):
        for h in (0, 1):
            assert strip_count_exact(m, n, h) == \
                count(make_grid(m, n), h), (m, n, h)
    assert strip_count_exact(2, 4, 2) == count(make_grid(2, 4), 2)


def test_state_budget():
    with pytest.raises(ResourceLimitError):
        FreeStripOperator(4, 10, state_budget=1000)
    with pytest.raises(ResourceLimitError):
        strip_count_exact(5, 5, 3, state_budget=100)
    # the budget counts the padded prefix lattice, not the 25 states
    op = FreeStripOperator(3, 2)
    assert op.dim == 25 and op.cells >= 9 * 13
    with pytest.raises(ResourceLimitError):
        FreeStripOperator(3, 2, state_budget=op.cells - 1)
    assert FreeStripOperator(3, 2, state_budget=op.cells).cells == op.cells


def test_strip_count_transpose():
    for m, n, h in ((1, 4, 2), (2, 5, 1), (3, 4, 1), (2, 6, 2)):
        assert strip_count_exact(m, n, h) == strip_count_exact(n, m, h)
    # runs as a 2-row strip of 9 columns, not over 5^8 nine-row states
    assert strip_count_exact(9, 2, 2) == count_via_dense_int(2, 9, 2)
    assert strip_count_exact(6, 2, 2, state_budget=100) == \
        count_via_dense_int(2, 6, 2)


WEIGHT_ORACLE_CASES = [(1, h) for h in range(4)] + [(2, h) for h in range(4)] \
    + [(3, h) for h in range(3)] + [(4, h) for h in range(3)] \
    + [(5, h) for h in range(2)]


@functools.lru_cache(maxsize=None)
def weight_matrix(m, h):
    """Dense W built entry by entry from free_strip_weight (Python ints)."""
    states = list(itertools.product(range(-h, h + 1), repeat=m - 1))
    return tuple(tuple(free_strip_weight(h, u, v) for u in states)
                 for v in states)


def dense_int_product(W, xs):
    return [sum(w * x for w, x in zip(row, xs)) for row in W]


def test_apply_matches_weight_oracle():
    for m, h in WEIGHT_ORACLE_CASES:
        op = FreeStripOperator(m, h)
        W = weight_matrix(m, h)
        assert np.array_equal(dense_matrix(op), np.array(W, dtype=float)), (m, h)
        assert op.apply_exact([1] * op.dim) == \
            dense_int_product(W, [1] * op.dim), (m, h)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WEIGHT_ORACLE_CASES), st.data())
def test_apply_weight_oracle_property(case, data):
    m, h = case
    op = FreeStripOperator(m, h)
    W = weight_matrix(m, h)
    xs = data.draw(st.lists(st.integers(0, 2**70), min_size=op.dim,
                            max_size=op.dim))
    assert op.apply_exact(xs) == dense_int_product(W, xs)
    xf = np.array(data.draw(st.lists(st.floats(0, 1e6), min_size=op.dim,
                                     max_size=op.dim)))
    expect = np.array(W, dtype=float) @ xf
    # cumulative-sum differences err relative to the largest partial sum,
    # (2h+1)^(m-1) * sum(x), not to each output entry
    scale = (2 * h + 1) ** (m - 1) * xf.sum()
    assert np.max(np.abs(op.apply(xf) - expect)) <= 1e-12 * scale


def test_int64_guard_edge():
    # int64 is used up to sum|x| = _int64_cap, Python ints above it; the cap
    # divides by the largest weight, 2h+1, whatever the number of rows
    assert FreeStripOperator(1, 3)._int64_cap == np.iinfo(np.int64).max // 7
    op = FreeStripOperator(3, 1)
    W = weight_matrix(3, 1)
    cap = op._int64_cap
    assert cap == np.iinfo(np.int64).max // 3
    # int64 at the cap, Python ints above it, and back again: the operator
    # keeps one buffer pair per dtype
    for total in (cap, cap + 1, cap, cap + 1):
        xs = [total // op.dim] * op.dim
        xs[0] += total - sum(xs)
        assert sum(xs) == total
        y = op.apply_exact(xs)   # int64 at the cap, Python ints above it
        assert y == dense_int_product(W, xs)
        assert y == op._apply(np.array(xs, dtype=object)).tolist()
    # signed vectors with sum|x| at the cap of each kind: the int64 path
    # agrees with Python ints and raises no overflow warning
    rng = np.random.default_rng(0)
    for other in (FreeStripOperator(1, 3), FreeStripOperator(2, 2), op,
                  FreeStripOperator(4, 1), TentOperator(3), BandOperator(3),
                  PinnedStripOperator(2, 2)):
        top = other._int64_cap
        for _ in range(6):
            cuts = sorted(rng.integers(0, top, other.dim - 1).tolist())
            parts = map(operator.sub, [*cuts, top], [0, *cuts])
            signs = rng.choice([-1, 1], other.dim).tolist()
            xs = list(map(operator.mul, parts, signs))
            assert sum(map(abs, xs)) == top
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                y = other.apply_exact(xs)
            assert y == other._apply(np.array(xs, dtype=object)).tolist()
    # a strip DP whose totals cross the cap between two steps
    k = 1
    while strip_count_exact(3, k + 1, 1) <= cap:
        k += 1
    assert strip_count_exact(3, k, 1) <= cap < strip_count_exact(3, k + 1, 1)
    assert strip_count_exact(3, k + 2, 1) == count_via_dense_int(3, k + 2, 1)


def test_band_eigenvalue_h1():
    est = top_eigenvalue(BandOperator(1), tol=1e-12)
    assert est.eigenvalue == pytest.approx(1 + math.sqrt(2), abs=1e-9)
    # independent check: direct dense eigensolve
    dense = np.linalg.eigvalsh(dense_matrix(BandOperator(1)))
    assert est.eigenvalue == pytest.approx(dense.max(), abs=1e-9)
    assert est.residual <= 1e-12
    assert est.eigenvalue > 0


def test_tent_eigenvalue_h1():
    est = top_eigenvalue(TentOperator(1), tol=1e-12)
    assert est.eigenvalue == pytest.approx((7 + math.sqrt(33)) / 2, abs=1e-9)
    dense = np.linalg.eigvalsh(dense_matrix(TentOperator(1)))
    assert est.eigenvalue == pytest.approx(dense.max(), abs=1e-9)


def pinned_transition_matrix(m, h):
    """Pinned-strip states and 0/1 matrix straight from the transition rule.

    States are (y_1..y_m) with |y_1| <= h and |y_(i+1) - y_i| <= h, listed
    lexicographically; z follows y iff |z_i - y_i| <= h for every row i.
    """
    states = [y for y in itertools.product(range(-m * h, m * h + 1), repeat=m)
              if abs(y[0]) <= h
              and all(abs(y[i + 1] - y[i]) <= h for i in range(m - 1))]
    matrix = np.array([[float(all(abs(zi - yi) <= h for zi, yi in zip(z, y)))
                        for y in states] for z in states])
    return states, matrix


def test_pinned_strip_dense_matches_transition_rule():
    for m, h in ((1, 0), (1, 1), (1, 3), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2)):
        op = PinnedStripOperator(m, h)
        states, matrix = pinned_transition_matrix(m, h)
        order = pinned_states(op)
        assert sorted(order) == states, (m, h)
        assert len(states) == op.dim
        perm = [states.index(y) for y in order]
        assert np.array_equal(dense_matrix(op), matrix[np.ix_(perm, perm)]), (m, h)


def test_pinned_apply_exact_at_int64_cap():
    # pinned weights are 0 or 1, so the int64 cap is int64 max itself;
    # int64 runs at the cap and Python ints just above it
    for m, h in ((1, 1), (2, 1), (2, 2), (3, 1)):
        op = PinnedStripOperator(m, h)
        cap = op._int64_cap
        assert cap == np.iinfo(np.int64).max, (m, h)
        states, matrix = pinned_transition_matrix(m, h)
        perm = [states.index(y) for y in pinned_states(op)]
        W = matrix[np.ix_(perm, perm)].astype(int).tolist()
        for total in (cap, cap + 1, cap, cap + 1):
            xs = [total // op.dim + k for k in range(op.dim)]
            xs[0] += total - sum(xs)
            assert sum(xs) == total
            assert op.apply_exact(xs) == dense_int_product(W, xs), (m, h)
    # int64 arrays wrap modulo 2^64, so an int64 apply is exact whenever its
    # outputs fit, even when a running sum does not: here one reaches 2M.
    # A full vector runs as doubled even and odd parts, which would not fit,
    # so _apply takes this one in Python ints; test_fold_int64_wraps_exactly
    # runs the folded int64 path on such a vector
    big = int(np.iinfo(np.int64).max)
    xs = [big, big, -big, -big, big]
    assert max(itertools.accumulate(xs)) > big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = BandOperator(2)._apply(np.array(xs, dtype=np.int64)).tolist()
    assert y == [big, 0, big, 0, -big] == BandOperator(2).apply_exact(xs)


def test_pinned_strip_eigenvalue_matches_dense():
    for m, h in ((1, 2), (2, 1), (2, 2), (3, 1)):
        op = PinnedStripOperator(m, h)
        est = top_eigenvalue(op, tol=1e-12)
        dense = np.linalg.eigvalsh(pinned_transition_matrix(m, h)[1])
        assert est.eigenvalue == pytest.approx(dense.max(), rel=1e-9)


def test_free_strip3_eigenvalue_matches_dense():
    op = FreeStripOperator(3, 2)
    est = top_eigenvalue(op, tol=1e-12)
    dense = np.linalg.eigvalsh(dense_matrix(op))
    assert est.eigenvalue == pytest.approx(dense.max(), rel=1e-9)


def test_band_normalized_large_h():
    est = top_eigenvalue(BandOperator(400), tol=1e-12)
    assert abs(est.normalized - 1.554) <= 0.01


def test_tent_normalized_large_h():
    est = top_eigenvalue(FreeStripOperator(2, 200), tol=1e-12)
    assert abs(est.normalized - 1.6437) <= 0.01


def test_non_convergence_error():
    with pytest.raises(ConvergenceError) as err:
        top_eigenvalue(BandOperator(50), tol=1e-16, max_iter=2)
    assert err.value.iterations == 2


def test_prolong_premises():
    # the warm start of a solve on an h ladder: all-ones maps to all-ones
    # exactly, a positive vector to a positive one (so the start keeps its
    # overlap with the Perron vector), a same-h map is the identity, and the
    # length is the new state count
    rng = np.random.default_rng(5)
    for kind, m in (("band", 1), ("tent", 2), ("free-strip", 3),
                    ("free-strip", 4), ("pinned-strip", 2),
                    ("pinned-strip", 3)):
        for src, dst in ((1, 3), (3, 2), (2, 5), (4, 4)):
            old, new = make_operator(kind, src, m), make_operator(kind, dst, m)
            assert np.array_equal(new.prolong(old.ones(), src), new.ones())
            x = rng.random(old.dim) + 1e-3
            y = new.prolong(x, src)
            assert y.shape == (new.dim,), (kind, m, src, dst)
            assert np.all(y > 0), (kind, m, src, dst)
            assert np.array_equal(old.prolong(x, src), x), (kind, m, src)
    # no axis (one free row), or a one-point source grid: all-ones
    assert np.array_equal(FreeStripOperator(1, 4).prolong(np.full(1, 2.0), 2),
                          np.ones(1))
    assert np.array_equal(PinnedStripOperator(2, 3).prolong(np.full(1, 2.0), 0),
                          np.ones(49))


def test_prolong_interpolates_on_midpoint_coordinates():
    # a vector affine in the midpoint coordinates t = d/(h + 1/2) of its
    # difference steps (d_1, d_2), in C order, is reproduced where the new
    # grid lies inside the old one and held at the edge value beyond it
    def coords(h):
        return np.arange(-h, h + 1) / (h + 0.5)

    def affine(t1, t2):
        return 3 + t1 - 2 * t2

    for make in (functools.partial(PinnedStripOperator, 2),
                 functools.partial(FreeStripOperator, 3)):
        for src, dst in ((3, 5), (5, 2)):
            ts = coords(src)
            x = affine(ts[:, None], ts[None, :]).ravel()
            td = np.clip(coords(dst), ts[0], ts[-1])
            expect = affine(td[:, None], td[None, :]).ravel()
            y = make(dst).prolong(x, src)
            assert np.max(np.abs(y - expect)) <= 1e-12, (make, src, dst)


def test_warm_start_matches_cold_solve():
    # a solve started from the previous h's Perron vector converges to the
    # same eigenvalue in fewer iterations; the vector is carried, unit and
    # positive, but not compared.  A Krylov solve depends little on its
    # start: free-strip(4) at h 3 -> 4 takes as many steps warm as cold, so
    # it is held to <=, and the total over all kinds to <
    warm_total = cold_total = 0
    for kind, m, hs in (("band", 1, (50, 100)), ("free-strip", 4, (3, 4)),
                        ("pinned-strip", 3, (10, 15))):
        prev = top_eigenvalue(make_operator(kind, hs[0], m), 1e-12)
        assert np.all(prev.vector > 0)
        assert abs(np.linalg.norm(prev.vector) - 1) <= 1e-12
        op = make_operator(kind, hs[1], m)
        cold = top_eigenvalue(op, 1e-12)
        warm = top_eigenvalue(op, 1e-12, prev=prev)
        assert abs(warm.eigenvalue - cold.eigenvalue) <= 1e-12 * cold.eigenvalue
        if kind == "free-strip":
            assert warm.iterations <= cold.iterations, kind
        else:
            assert warm.iterations < cold.iterations, kind
        warm_total += warm.iterations
        cold_total += cold.iterations
    assert warm_total < cold_total
    assert cold == dataclasses.replace(cold, vector=None)
    assert "vector" not in repr(cold)


def test_extrapolate_band():
    pairs = [(h, top_eigenvalue(BandOperator(h), 1e-12).normalized)
             for h in (50, 100, 200)]
    fit = extrapolate_limit(pairs)
    assert abs(fit.limit - 1.5542) <= 0.002
    assert abs(fit.limit - BETA) <= 0.002
    assert fit.slope > 0   # first-order correction is reported for auditing


def test_extrapolate_tent():
    pairs = [(h, top_eigenvalue(TentOperator(h), 1e-12).normalized)
             for h in (50, 100, 200)]
    fit = extrapolate_limit(pairs)
    assert abs(fit.limit - 1.6438) <= 0.002


def test_extrapolate_pinned_two_rows():
    pairs = [(h, top_eigenvalue(PinnedStripOperator(2, h), 1e-12).normalized)
             for h in (10, 15, 20)]
    fit = extrapolate_limit(pairs)
    assert abs(fit.limit - 1.4895) <= 0.02


def test_extrapolate_three_rows():
    pairs = [(h, top_eigenvalue(FreeStripOperator(3, h), 1e-12).normalized)
             for h in (10, 15, 20)]
    fit = extrapolate_limit(pairs)
    assert abs(fit.limit - 1.553) <= 0.02


def test_extrapolate_validation():
    with pytest.raises(ValueError):
        extrapolate_limit([(10, 1.0), (20, 1.0)])
    with pytest.raises(ValueError):
        extrapolate_limit([(10, 1.0), (10, 1.0), (20, 1.0)])


def _rayleigh(m, h):
    """The certified bound lam >= (1^T W 1) / dim for free-strip(m), with
    1^T W 1 the exact count of the two-column strip."""
    return Fraction(strip_count_exact(m, 2, h), (2 * h + 1) ** (m - 1))


def test_rayleigh_examples():
    assert _rayleigh(2, 1) == Fraction(19, 3)
    bound = _rayleigh(2, 200)
    assert math.sqrt(float(bound)) / 200 >= 1.351 - 0.01


def test_rayleigh_below_top_eigenvalue():
    for m, h in ((2, 1), (2, 5), (3, 1), (3, 2)):
        bound = float(_rayleigh(m, h))
        lam = top_eigenvalue(FreeStripOperator(m, h), 1e-12).eigenvalue
        assert bound <= lam * (1 + 1e-9)


def test_rayleigh_numerator_is_two_column_count():
    # 1^T W 1, summed over the operator's states, counts the two-column strip
    for m, h in ((2, 1), (2, 2), (3, 1)):
        op = FreeStripOperator(m, h)
        assert _rayleigh(m, h) == Fraction(sum(op.apply_exact([1] * op.dim)),
                                           op.dim)


def test_growth_ratio_sandwich():
    for m, h in ((2, 1), (2, 2), (3, 1), (3, 2)):
        counts = [strip_count_exact(m, n, h) for n in range(1, 10)]
        ratios = [Fraction(counts[i + 1], counts[i]) for i in range(8)]
        est = top_eigenvalue(FreeStripOperator(m, h), 1e-12)
        dim = (2 * h + 1) ** (m - 1)
        lo = float(_rayleigh(m, h)) / dim
        hi = est.eigenvalue * (1 + 1e-9) * dim
        assert all(lo <= r <= hi for r in ratios)
        # ratios increase monotonically toward the eigenvalue
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert abs(float(ratios[-1]) - est.eigenvalue) < 1e-4 * est.eigenvalue


def test_normalized_estimates_range():
    # the [1, 2] growth window; the two-row kind needs h >= 3 before its
    # finite-h excess drops below 2 (normalized(h=2) = 2.07)
    for kind, m, hs in (("band", 1, (2, 4, 8)),
                        ("tent", 2, (3, 4, 8)),
                        ("free-strip", 3, (2, 4, 8)),
                        ("pinned-strip", 2, (2, 4, 8))):
        for h in hs:
            est = top_eigenvalue(make_operator(kind, h, m), 1e-12)
            assert 1.0 <= est.normalized <= 2.0, (kind, h, est.normalized)


def test_normalization_rules():
    assert BandOperator(4).normalized(8.0) == pytest.approx(2.0)
    assert TentOperator(4).normalized(64.0) == pytest.approx(2.0)
    assert FreeStripOperator(3, 2).normalized(216.0) == pytest.approx(3.0)
    assert PinnedStripOperator(2, 2).normalized(16.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        BandOperator(0).normalized(1.0)


def oracle_matrix(op):
    """The operator's matrix in Python ints, straight from its weight rule
    and in its state order: ``weight_matrix`` for free kinds (tent too),
    the transition rule for pinned ones (band too)."""
    if not op.pinned:
        return weight_matrix(op.m, op.h)
    states, matrix = pinned_transition_matrix(op.m, op.h)
    perm = [states.index(y) for y in pinned_states(op)]
    return tuple(map(tuple, matrix[np.ix_(perm, perm)].astype(int).tolist()))


WARM_CASES = [(kind, m, h) for h in range(4)
              for kind, ms in (("free-strip", (1, 2, 3, 4)),
                               ("pinned-strip", (1, 2, 3)),
                               ("band", (None,)), ("tent", (None,)))
              for m in ms]


@pytest.mark.parametrize("kind, m, h", WARM_CASES)
def test_sites_match_prefix_sum_reference(kind, m, h):
    op = make_operator(kind, h, m)
    assert op._sites.tolist() == prefix_sites(op.m, h, op.pinned)


@pytest.mark.parametrize("kind, m, h", WARM_CASES)
def test_warm_buffers_match_fresh_operator(kind, m, h):
    # one operator reuses its buffers across applies in float, int64 and
    # Python ints, in turn: each result equals a fresh operator's and the
    # weight rule's product
    op = make_operator(kind, h, m)
    W = oracle_matrix(op)
    rng = np.random.default_rng(10 * h + (m or 0))
    for step in range(7):
        ints = rng.integers(-9, 10, op.dim).tolist()
        fresh = make_operator(kind, h, m)
        if step % 3 == 0:
            # quarters: every sum is exact in float, in any order
            x = np.asarray(ints) / 4
            y = op.apply(x)
            assert np.array_equal(y, fresh.apply(x)), step
            assert y.tolist() == [v / 4 for v in dense_int_product(W, ints)]
        else:
            xs = ints if step % 3 == 1 else [2**70 + v for v in ints]
            assert (sum(map(abs, xs)) > op._int64_cap) == (step % 3 == 2)
            y = op.apply_exact(xs)
            assert y == fresh.apply_exact(xs) == dense_int_product(W, xs), step
    assert len(op._buffers) == (3 if op._shape else 0)


FOLD_CASES = [("band", None, 3), ("tent", None, 3), ("free-strip", 3, 3),
              ("free-strip", 4, 2), ("pinned-strip", 2, 3),
              ("pinned-strip", 3, 2)]


def fold_case_id(case):
    kind, m, h = case
    return f"{kind}-{m}-{h}"


def parity_vector(rng, dim, parity, high=10):
    """A random integer vector with x reversed = parity * x (0 at the
    centre state when odd)."""
    x = rng.integers(-high, high + 1, dim)
    return x + parity * x[::-1]


@pytest.mark.parametrize("case", FOLD_CASES, ids=fold_case_id)
def test_w_commutes_with_state_reversal(case):
    # the premise of the fold: negating a state reverses its index, and the
    # weight rule's W is unchanged by reversing both axes
    kind, m, h = case
    W = np.array(oracle_matrix(make_operator(kind, h, m)))
    assert np.array_equal(W, W[::-1, ::-1])


@pytest.mark.parametrize("case", FOLD_CASES, ids=fold_case_id)
def test_fold_apply_matches_full_apply(case):
    # on an even vector the folded lattice gives W x at the representatives,
    # and on an odd one the odd half does; in float, int64 and Python ints
    kind, m, h = case
    op = make_operator(kind, h, m)
    W = np.array(oracle_matrix(op), dtype=object)
    rng = np.random.default_rng(h + 10 * (m or 0))
    for parity in (1, -1):
        for _ in range(3):
            x = parity_vector(rng, op.dim, parity)
            y = W.dot(x.astype(object))
            half = x[:op.half]
            assert np.array_equal(y[::-1], parity * y)
            got = op._fold_apply(half.astype(np.int64), parity)
            assert got.dtype == np.int64 and got.tolist() == y[:op.half].tolist()
            big = half.astype(object) * 2**70
            assert op._fold_apply(big, parity).tolist() == \
                (y[:op.half] * 2**70).tolist()
            # quarters: every float sum is exact
            got = op._fold_apply(half / 4, parity)
            assert got.tolist() == [v / 4 for v in y[:op.half].tolist()]
            assert op.apply(x / 4).tolist() == [v / 4 for v in y.tolist()]
        # the folded forms of apply and apply_exact, on an even vector
        if parity == 1:
            assert op.apply_exact(half.tolist()) == y[:op.half].tolist()
            assert op.apply_exact((big * 2).tolist()) == \
                (y[:op.half] * 2**71).tolist()
            xf = x.astype(float)
            expect = _fold(y.astype(float))
            assert np.max(np.abs(op.apply(_fold(xf)) - expect)) <= \
                1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("case", FOLD_CASES, ids=fold_case_id)
def test_scaled_fold_is_symmetric_with_top_eigenvalue(case):
    # in sqrt(orbit) coordinates the folded operator is symmetric, and its
    # top eigenvalue is W's, which the folded solve finds
    kind, m, h = case
    op = make_operator(kind, h, m)
    F = np.column_stack([op.apply(e) for e in np.eye(op.half)])
    assert np.max(np.abs(F - F.T)) <= 1e-14 * np.max(np.abs(F))
    top = np.linalg.eigvalsh(np.array(oracle_matrix(op), dtype=float))[-1]
    assert abs(np.linalg.eigvalsh(F)[-1] - top) <= 1e-12 * top
    est = top_eigenvalue(op, 1e-12)
    assert est.vector.shape == (op.half,)
    assert abs(est.eigenvalue - top) <= 1e-12 * top
    # the folded Ritz vector unfolds to a unit, positive approximation of
    # the Perron vector of the full W (a Ritz vector converges only like
    # the square root of its Ritz value's tolerance)
    full = _unfold(est.vector)
    assert abs(np.linalg.norm(full) - 1) <= 1e-12 and np.all(full > 0)
    assert np.linalg.norm(dense_matrix(op) @ full - top * full) <= 1e-5 * top


def test_fold_round_trip():
    # _fold keeps the 2-norm of an even vector, and _unfold inverts it
    rng = np.random.default_rng(4)
    for dim in (1, 3, 25):
        x = rng.random(dim)
        x = x + x[::-1]
        z = _fold(x)
        assert z.shape == ((dim + 1) // 2,)
        assert abs(np.linalg.norm(z) - np.linalg.norm(x)) <= 1e-14 * np.linalg.norm(x)
        assert np.allclose(_unfold(z), x, rtol=1e-15, atol=0)


@pytest.mark.parametrize("case", FOLD_CASES, ids=fold_case_id)
def test_prolong_keeps_even_vectors_even(case):
    # the warm start's fold is safe: an even vector maps to an even one, and
    # a folded vector maps to the fold of the full map
    kind, m, h = case
    rng = np.random.default_rng(7)
    for src in (1, 2, 4):
        old = make_operator(kind, src, m)
        x = rng.random(old.dim) + 0.5
        x = x + x[::-1]
        y = make_operator(kind, h, m).prolong(x, src)
        assert np.allclose(y, y[::-1], rtol=1e-14, atol=0), (kind, src)
        z = make_operator(kind, h, m).prolong(_fold(x), src)
        assert z.shape == ((y.size + 1) // 2,)
        assert np.allclose(z, _fold(y), rtol=1e-14, atol=0), (kind, src)


def test_fold_int64_wraps_exactly():
    # the folded int64 path wraps modulo 2^64, so it is exact whenever its
    # outputs fit, even when a running sum does not: on band(3) the even
    # vector (M, M, -M, -M, -M, M, M) has running sum 2M at its second state
    big = int(np.iinfo(np.int64).max)
    op = BandOperator(3)
    xs = [big, big, -big, -big]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = op._fold_apply(np.array(xs, dtype=np.int64), 1).tolist()
    assert y == op._fold_apply(np.array(xs, dtype=object), 1).tolist() \
        == [0, -big, 0, big]
