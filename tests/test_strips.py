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

from helpers import (fold_matrix, free_strip_weight, full_prolong,
                     index_state, join_limbs_listwise, last_window_reads,
                     oracle_matrix, pinned_states, pinned_transition_matrix,
                     prefix_sites, state_index, strip_count_stepwise,
                     to_limbs, weight_matrix)
from lipgrowth.counting import count
from lipgrowth.errors import DEFAULT_BUDGET, ConvergenceError, ResourceLimitError
from lipgrowth.graphs import make_grid
from lipgrowth.strips import (BandOperator, FreeStripOperator,
                              PinnedStripOperator, TentOperator, _fold,
                              _join_limbs, _unfold, extrapolate_limit,
                              make_operator, strip_count_exact,
                              top_eigenvalue)

BETA = 1.0 / math.atan(0.75)
ALPHA_SQRT2 = 1.6437967


def even(v):
    """The even vector (x reversed = x) whose first (dim + 1)/2 entries,
    the orbit representatives, are v: a list (of Python ints, kept exact)
    for a list, an array for an array."""
    if isinstance(v, list):
        return v + v[-2::-1]
    return np.concatenate([v, v[-2::-1]])


def folded_exact(op):
    """The operator on even vectors in Python ints: column j is
    ``_limb_apply`` of the even indicator of representative j, so it equals
    ``fold_matrix`` of the operator's W."""
    return np.array([_join_limbs(op._limb_apply(e[None]), op._limb_bits)
                     for e in np.eye(op.half, dtype=np.int64)],
                    dtype=object).T


def limb_product(op, xs):
    """W x in Python ints from ``_limb_apply``, for an even x given by the
    nonnegative ints xs at the representatives."""
    bits = op._limb_bits
    return _join_limbs(op._limb_apply(to_limbs(xs, bits)), bits)


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
    # W 1 = (2, 3, 2), at the representatives (2, 3)
    b = BandOperator(1)
    assert limb_product(b, [1, 1]) == [2, 3]
    assert np.allclose(b.apply(_fold(np.ones(3))), _fold(np.array([2., 3, 2])))
    with pytest.raises(ValueError):
        b.apply(np.ones(4))


@pytest.mark.parametrize("kind, m, h", [("band", None, 1), ("tent", None, 2),
                                        ("free-strip", 3, 1),
                                        ("pinned-strip", 2, 1)])
def test_apply_takes_only_the_folded_form(kind, m, h):
    # a vector over all dim > 1 states is refused by the float apply, whose
    # message names the folded length, and by the limb apply
    op = make_operator(kind, h, m)
    assert op.dim > 1
    with pytest.raises(ValueError, match=f"half = {op.half}"):
        op.apply(np.ones(op.dim))
    with pytest.raises(ValueError):
        op._limb_apply(np.ones((1, op.dim), dtype=np.int64))


def test_tent_apply_matches_direct_matrix():
    for h in (1, 2, 5):
        op = TentOperator(h)
        dim = 2 * h + 1
        direct = np.array([[2 * h + 1 - abs(i - j) for j in range(dim)]
                           for i in range(dim)], dtype=float)
        x = np.abs(np.arange(dim) - h) + 0.5
        assert np.allclose(op.apply(_fold(x)), _fold(direct @ x))


def test_free_strip2_equals_tent_entries():
    for h in (1, 2, 3):
        tent = np.array([[2 * h + 1 - abs(u - v) for u in range(-h, h + 1)]
                         for v in range(-h, h + 1)])
        for u in range(-h, h + 1):
            for v in range(-h, h + 1):
                assert free_strip_weight(h, (u,), (v,)) == 2 * h + 1 - abs(u - v)
        assert np.array_equal(weight_matrix(2, h), tent)
        assert np.array_equal(folded_exact(FreeStripOperator(2, h)),
                              fold_matrix(tent))


def test_pinned_strip1_equals_band():
    for h in (1, 2, 3):
        band = np.array([[int(abs(i - j) <= h) for j in range(2 * h + 1)]
                         for i in range(2 * h + 1)])
        assert np.array_equal(folded_exact(PinnedStripOperator(1, h)),
                              fold_matrix(band))
        assert np.array_equal(folded_exact(BandOperator(h)), fold_matrix(band))


def test_w_symmetry():
    for m in (2, 3):
        for h in (1, 2):
            states = list(itertools.product(range(-h, h + 1), repeat=m - 1))
            W = weight_matrix(m, h)
            for j, u in enumerate(states):
                for i, v in enumerate(states):
                    w = free_strip_weight(h, u, v)
                    assert W[i, j] == w
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


def test_limb_dp_steps_match_exact_powers():
    # every step of the limb DP holds W^k 1 at the representatives as
    # limbs in [0, 2^B), least significant first, and appends a limb at
    # each carry out of the top, up to three limbs and more
    for m, h, steps in ((1, 3, 70), (2, 3, 45), (3, 2, 40), (4, 1, 60)):
        op = FreeStripOperator(m, h)
        F = fold_matrix(weight_matrix(m, h)).astype(object)
        bits = op._limb_bits
        x = np.ones((1, op.half), dtype=np.int64)
        want = np.ones(op.half, dtype=object)
        limbs = [1]
        for _ in range(steps):
            x = op._limb_apply(x)
            want = F.dot(want)
            assert x.dtype == np.int64
            assert x.min() >= 0 and x.max() >> bits == 0 and x[-1].any()
            assert _join_limbs(x, bits) == want.tolist(), (m, h)
            limbs.append(len(x))
        assert limbs[-1] >= 3 and set(np.diff(limbs)) == {0, 1}, (m, h)


def test_multi_limb_counts_match_dense_and_elimination():
    # counts of three limbs and more, the DP vectors going from one limb to
    # two and three on the way, against a dense Python-int DP and, on two
    # of them, bucket elimination
    for m, h, ns in ((2, 3, range(24, 46, 3)), (3, 2, (30, 41)),
                     (1, 3, (50, 51))):
        bits = FreeStripOperator(m, h)._limb_bits
        for n in ns:
            got = strip_count_exact(m, n, h)
            assert got == count_via_dense_int(m, n, h), (m, n, h)
            assert got.bit_length() > 2 * bits, (m, n, h)
    assert strip_count_exact(2, 24, 4) == count(make_grid(2, 24), 4)
    assert strip_count_exact(50, 1, 3) == count(make_grid(1, 50), 3)


def test_limb_dp_within_state_budget(monkeypatch):
    # the budget bounds the int64 buffers whatever the count's size, so a
    # budget one cell above them still gives the exact multi-limb count,
    # and no apply holds more than its two buffers of 8-byte cells
    op = FreeStripOperator(3, 4)
    held = []
    fold_apply = FreeStripOperator._fold_apply

    def recording(self, v):
        y = fold_apply(self, v)
        held.append(self._buffers.nbytes)
        return y

    monkeypatch.setattr(FreeStripOperator, "_fold_apply", recording)
    assert strip_count_exact(3, 40, 4, state_budget=op.buffer_cells + 1) \
        == count_via_dense_int(3, 40, 4)
    assert len(held) > 20 and set(held) == {16 * op.buffer_cells}
    with pytest.raises(ResourceLimitError):
        strip_count_exact(3, 40, 4, state_budget=op.buffer_cells - 1)


def test_exact_paths_keep_int64_buffers(monkeypatch):
    # a big-int strip DP leaves nothing but int64 in an operator's buffers
    seen = []
    fold_apply = FreeStripOperator._fold_apply

    def recording(self, v):
        y = fold_apply(self, v)
        seen.append((v.dtype, y.dtype, self._buffers.dtype))
        return y

    monkeypatch.setattr(FreeStripOperator, "_fold_apply", recording)
    assert strip_count_exact(3, 40, 10).bit_length() > 400
    assert set(seen) == {(np.dtype(np.int64),) * 3}


def test_strip_count_without_axes_or_spread():
    # one row has no lattice axis (W is the scalar 2h+1), and h = 0 leaves
    # one state: both are (2h+1)^(n-1) on every length, many limbs long
    for n in (2, 61, 200):
        for h in (1, 3, 50):
            expect = (2 * h + 1) ** (n - 1)
            assert strip_count_exact(1, n, h) == expect == \
                strip_count_exact(n, 1, h), (n, h)
        for m in (1, 2, 4):
            assert strip_count_exact(m, n, 0) == 1, (m, n)


def test_free_strip_matrix_symmetric():
    # the premise of the meet-in-the-middle strip DP: W = W^T, and the
    # operator is W on even vectors
    for m in range(1, 5):
        for h in range(4):
            W = weight_matrix(m, h)
            assert np.array_equal(W, W.T), (m, h)
            assert np.array_equal(folded_exact(FreeStripOperator(m, h)),
                                  fold_matrix(W)), (m, h)


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
    # the budget counts the cells of each of the two folded lattice
    # buffers, not the 25 states nor the 9 x 13 padded prefix lattice
    op = FreeStripOperator(3, 2)
    assert op.dim < op.buffer_cells < 9 * 13
    with pytest.raises(ResourceLimitError):
        FreeStripOperator(3, 2, state_budget=op.buffer_cells - 1)
    assert FreeStripOperator(3, 2, state_budget=op.buffer_cells) \
        .buffer_cells == op.buffer_cells
    # the top node of a 4x20 strip fit: its buffers fit the default budget,
    # though its padded lattice would not (constructed, never applied)
    op = FreeStripOperator(4, 40)
    assert op.buffer_cells == 7_799_001 < DEFAULT_BUDGET < op._size
    with pytest.raises(ResourceLimitError, match=f"{op.buffer_cells} cells"):
        FreeStripOperator(4, 40, state_budget=op.buffer_cells - 1)
    # with no axis there is no buffer
    assert FreeStripOperator(1, 10**6, state_budget=1).buffer_cells == 0


def test_pinned_shear_buffer_cells():
    # from three rows a pinned strip stores its top row as c = y_m - y_(m-1)
    # in [-2h, 2h], not y_m in [-mh, mh]: pinned-strip(3, 20) holds 203,360
    # cells per buffer, where the box of rows held 269,001, and
    # pinned-strip(4, 15), 13,078,156 cells on that box, fits the default
    # budget (constructed, never applied); two rows keep the box of rows,
    # whose leading axis is as long as c's
    assert PinnedStripOperator(3, 20).buffer_cells == 203_360
    op = PinnedStripOperator(4, 15)
    assert op.buffer_cells == 7_998_930 < DEFAULT_BUDGET
    with pytest.raises(ResourceLimitError, match="10296000 cells"):
        PinnedStripOperator(4, 16)
    op = PinnedStripOperator(2, 64)
    assert op._shape == (257, 129) and op.buffer_cells == 24_897


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


def exact_product(W, x):
    """W x in Python ints."""
    return np.asarray(W).astype(object).dot(np.asarray(x, dtype=object)).tolist()


def test_apply_matches_weight_oracle():
    for m, h in WEIGHT_ORACLE_CASES:
        op = FreeStripOperator(m, h)
        W = weight_matrix(m, h)
        assert np.array_equal(folded_exact(op), fold_matrix(W)), (m, h)
        assert limb_product(op, [1] * op.half) == \
            exact_product(W, [1] * op.dim)[:op.half], (m, h)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WEIGHT_ORACLE_CASES), st.data())
def test_apply_weight_oracle_property(case, data):
    m, h = case
    op = FreeStripOperator(m, h)
    W = weight_matrix(m, h)
    xs = data.draw(st.lists(st.integers(0, 2**70), min_size=op.half,
                            max_size=op.half))
    assert limb_product(op, xs) == exact_product(W, even(xs))[:op.half]
    xf = even(np.array(data.draw(st.lists(st.floats(0, 1e6),
                                          min_size=op.half,
                                          max_size=op.half))))
    assert_apply_matches_weights(op, W, xf)


def assert_apply_matches_weights(op, W, xf):
    """``apply`` on the even float vector ``xf`` agrees with W xf up to
    rounding.  Cumulative-sum differences err relative to the largest
    partial sum, (2h+1)^(m-1) * sum(x), not to each output entry; the bound
    is at least a few subnormal steps, since for a subnormal sum the
    relative one underflows to 0 while the sqrt(2) scaling still rounds."""
    scale = (2 * op.h + 1) ** (op.m - 1) * xf.sum()
    bound = max(1e-12 * scale, 4 * np.finfo(float).smallest_subnormal)
    assert np.max(np.abs(op.apply(_fold(xf)) - _fold(W @ xf))) <= bound


def test_apply_subnormal_draw():
    # a draw of the property test above: one subnormal state value, whose
    # apply is off by one subnormal step from the weight product
    W = weight_matrix(1, 1)
    assert_apply_matches_weights(FreeStripOperator(1, 1), W,
                                 np.array([2.2250738585e-313]))


def at_total(op, total):
    """Nonnegative representative values whose even vector has
    sum|x| = 2 sum(v) - v[-1] = total (the zero state, last, counts once)."""
    v = [total // op.dim] * op.half
    v[-1] += total - (2 * sum(v) - v[-1])
    return v


def int64_cap(op):
    """int64 max over the largest weight (2h+1, or 1 when pinned): the
    largest sum|x| at which every |(W x)_i| provably fits one int64."""
    return np.iinfo(np.int64).max // (1 if op.pinned else 2 * op.h + 1)


def assert_limb_width(op):
    """The limb width B is the largest for which the static row-sum bound,
    the largest weight times dim, keeps W x below 2^62 on limbs under 2^B;
    ``_limb_apply`` is exact at the int64 cap and one past it, on full
    limbs (2^B - 1), at 2^B and on three full limbs, and a fresh
    operator's one buffer pair is int64 after any of them."""
    bound = (1 if op.pinned else 2 * op.h + 1) * op.dim
    bits = op._limb_bits
    assert bound << bits < 2**62 <= bound << (bits + 1), (op.kind, bits)
    W = oracle_matrix(op)
    cap = int64_cap(op)
    for v in (at_total(op, cap), at_total(op, cap + 1),
              [2**bits - 1] * op.half, [2**bits] * op.half,
              [2**(3 * bits) - 1] * op.half):
        fresh = make_operator(op.kind, op.h, op.m)
        assert limb_product(fresh, v) == exact_product(W, even(v))[:op.half]
        assert fresh._buffers.dtype == np.int64, op.kind


def test_int64_guard_edge():
    # the limb width divides 2^62 by the largest weight, 2h+1, times dim
    assert FreeStripOperator(1, 3)._limb_bits == 62 - 3
    op = FreeStripOperator(3, 1)
    cap = int64_cap(op)
    assert cap == np.iinfo(np.int64).max // 3
    assert op._limb_bits == 62 - (3 * 9).bit_length()
    assert_limb_width(op)
    assert_limb_width(FreeStripOperator(4, 1))
    # at the cap, above it, and back again: the operator keeps its one
    # int64 buffer pair
    W = weight_matrix(3, 1)
    op._limb_apply(np.ones((1, op.half), dtype=np.int64))
    buffers = op._buffers
    for total in (cap, cap + 1, cap, cap + 1):
        v = at_total(op, total)
        assert limb_product(op, v) == exact_product(W, even(v))[:op.half]
        assert op._buffers is buffers
    # signed even vectors with sum|x| at the cap of each kind: the int64
    # lattice agrees with Python ints and raises no overflow warning
    rng = np.random.default_rng(0)
    for other in (FreeStripOperator(1, 3), FreeStripOperator(2, 2), op,
                  FreeStripOperator(4, 1), TentOperator(3), BandOperator(3),
                  PinnedStripOperator(2, 2)):
        top = int64_cap(other)
        F = fold_matrix(oracle_matrix(other))
        for _ in range(6):
            # sum|x| = 2 sum|v| - |v[-1]|: the zero state (the last) counts
            # once, so it takes top - 2 rest and the others split rest
            rest = int(rng.integers(0, top // 2 + 1)) if other.half > 1 else 0
            cuts = sorted(rng.integers(0, rest + 1,
                                       max(other.half - 2, 0)).tolist())
            parts = list(map(operator.sub, [*cuts, rest], [0, *cuts]))
            parts = parts[:other.half - 1] + [top - 2 * rest]
            signs = rng.choice([-1, 1], other.half).tolist()
            xs = list(map(operator.mul, parts, signs))
            assert 2 * sum(map(abs, xs)) - abs(xs[-1]) == top
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                y = other._fold_apply(np.array(xs, dtype=np.int64)).tolist()
            assert y == exact_product(F, xs)
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
    dense = np.linalg.eigvalsh(oracle_matrix(BandOperator(1)))
    assert est.eigenvalue == pytest.approx(dense.max(), abs=1e-9)
    assert est.residual <= 1e-12
    assert est.eigenvalue > 0


def test_tent_eigenvalue_h1():
    est = top_eigenvalue(TentOperator(1), tol=1e-12)
    assert est.eigenvalue == pytest.approx((7 + math.sqrt(33)) / 2, abs=1e-9)
    dense = np.linalg.eigvalsh(oracle_matrix(TentOperator(1)))
    assert est.eigenvalue == pytest.approx(dense.max(), abs=1e-9)


def test_pinned_strip_dense_matches_transition_rule():
    for m, h in ((1, 0), (1, 1), (1, 3), (2, 0), (2, 1), (2, 2), (3, 1),
                 (3, 2), (4, 1)):
        op = PinnedStripOperator(m, h)
        states = pinned_transition_matrix(m, h)[0]
        assert sorted(pinned_states(op)) == states, (m, h)
        assert len(states) == op.dim
        assert np.array_equal(folded_exact(op),
                              fold_matrix(oracle_matrix(op))), (m, h)


@pytest.mark.parametrize("m, h", [(m, h) for m in range(1, 5)
                                  for h in range(4)])
def test_pinned_applies_match_transition_rule(m, h):
    # float and int64-limb applies of pinned-strip(m) on even vectors are
    # fold_matrix of the transition rule's W: exact on integer vectors in
    # quarters (every float sum is exact) and on nonnegative limbs with
    # carries (_limb_apply)
    op = PinnedStripOperator(m, h)
    F = fold_matrix(oracle_matrix(op)).astype(object)
    rng = np.random.default_rng(10 * m + h)
    for _ in range(3):
        v = rng.integers(-10, 11, op.half)
        y = F.dot(v.astype(object)).tolist()
        assert op._fold_apply(v / 4).tolist() == [e / 4 for e in y]
        got = op.apply(_fold(even(v / 4)))
        expect = _fold(even(np.array(y, dtype=float) / 4))
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))
        limbs = rng.integers(0, 2**op._limb_bits, (3, op.half))
        joined = _join_limbs(limbs, op._limb_bits)
        assert _join_limbs(op._limb_apply(limbs), op._limb_bits) == \
            F.dot(np.array(joined, dtype=object)).tolist()


def test_join_limbs_matches_listwise_join():
    # whole-row Horner's rule on object arrays equals the element-by-element
    # join, over 1-7 limbs at widths on and off a multiple of 8
    rng = np.random.default_rng(12)
    for bits in (1, 7, 8, 13, 24, 37, 48, 61):
        for limbs in range(1, 8):
            x = rng.integers(0, 1 << bits, (limbs, 9), dtype=np.int64)
            x[:, 0] = 0
            x[:, 1] = (1 << bits) - 1
            got = _join_limbs(x, bits)
            assert got == join_limbs_listwise(x, bits), (bits, limbs)
            assert all(type(v) is int for v in got)
            assert got[1] == (1 << bits * limbs) - 1


def test_limb_apply_refuses_negative_limbs():
    # a negative limb's top carry is -1 forever, so it is refused before any
    # apply instead of appending rows without end
    op = BandOperator(1)
    applied = []
    op._fold_apply = applied.append
    with pytest.raises(ValueError, match="nonnegative"):
        op._limb_apply(np.array([[-1, 0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        op._limb_apply(np.array([[0, 1], [0, -1]]))
    assert applied == []


def test_pinned_limb_apply_at_int64_cap():
    # pinned weights are 0 or 1, so the int64 cap is int64 max itself and
    # the limb width leaves room for dim alone (an int64 run whose running
    # sums pass the cap: test_fold_int64_wraps_exactly); four rows run on
    # the sheared box
    for m, h in ((1, 1), (2, 1), (2, 2), (3, 1), (4, 1)):
        op = PinnedStripOperator(m, h)
        assert int64_cap(op) == np.iinfo(np.int64).max, (m, h)
        assert op._limb_bits == 62 - op.dim.bit_length(), (m, h)
        assert_limb_width(op)
    assert_limb_width(BandOperator(2))


def test_pinned_strip_eigenvalue_matches_dense():
    for m, h in ((1, 2), (2, 1), (2, 2), (3, 1)):
        op = PinnedStripOperator(m, h)
        est = top_eigenvalue(op, tol=1e-12)
        dense = np.linalg.eigvalsh(pinned_transition_matrix(m, h)[1])
        assert est.eigenvalue == pytest.approx(dense.max(), rel=1e-9)


def test_free_strip3_eigenvalue_matches_dense():
    op = FreeStripOperator(3, 2)
    est = top_eigenvalue(op, tol=1e-12)
    dense = np.linalg.eigvalsh(oracle_matrix(op))
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
    # the warm start of a solve on an h ladder, on folded vectors: all-ones
    # maps to all-ones exactly, a positive vector to a positive one (so the
    # start keeps its overlap with the Perron vector), a same-h map is the
    # identity on the unfolded vector, and the length is the new half; it
    # interpolates only the states of the folded half (d_1 <= 0), bit for
    # bit the fold of the interpolation over every state
    rng = np.random.default_rng(5)
    for kind, m in (("band", 1), ("tent", 2), ("free-strip", 3),
                    ("free-strip", 4), ("pinned-strip", 2),
                    ("pinned-strip", 3), ("pinned-strip", 4)):
        for src, dst in ((1, 3), (3, 2), (2, 5), (4, 4)):
            old, new = make_operator(kind, src, m), make_operator(kind, dst, m)
            assert np.array_equal(new.prolong(_fold(np.ones(old.dim)), src),
                                  _fold(np.ones(new.dim)))
            x = rng.random(old.half) + 1e-3
            y = new.prolong(x, src)
            assert y.shape == (new.half,), (kind, m, src, dst)
            assert np.all(y > 0), (kind, m, src, dst)
            assert np.array_equal(y, full_prolong(new, x, src)), \
                (kind, m, src, dst)
            assert np.array_equal(old.prolong(x, src), _fold(_unfold(x))), \
                (kind, m, src)
    # no axis (one free row), or a one-point source grid: the folded
    # all-ones cold start, half long
    assert np.array_equal(FreeStripOperator(1, 4).prolong(np.full(1, 2.0), 2),
                          np.ones(1))
    op = PinnedStripOperator(2, 3)
    y = op.prolong(np.full(1, 2.0), 0)
    assert y.shape == (op.half,) == (25,)
    assert np.array_equal(y, _fold(np.ones(op.dim)))


def test_prolong_interpolates_on_midpoint_coordinates():
    # a vector bilinear in the midpoint coordinates t = d/(h + 1/2) of its
    # difference steps (d_1, d_2), in C order, and even, is reproduced where
    # the new grid lies inside the old one and held at the edge value
    # beyond it
    def coords(h):
        return np.arange(-h, h + 1) / (h + 0.5)

    def bilinear(t1, t2):
        return 3 + t1 * t2

    for make in (functools.partial(PinnedStripOperator, 2),
                 functools.partial(FreeStripOperator, 3)):
        for src, dst in ((3, 5), (5, 2)):
            ts = coords(src)
            x = bilinear(ts[:, None], ts[None, :]).ravel()
            td = np.clip(coords(dst), ts[0], ts[-1])
            expect = bilinear(td[:, None], td[None, :]).ravel()
            y = make(dst).prolong(_fold(x), src)
            assert np.max(np.abs(y - _fold(expect))) <= 1e-12, (make, src, dst)


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
    # 1^T W 1 counts the two-column strip: summed over W's entries, and
    # over the operator's W 1 at the representatives, each but the zero
    # state (the last) standing for two states
    for m, h in ((2, 1), (2, 2), (3, 1)):
        op = FreeStripOperator(m, h)
        y = limb_product(op, [1] * op.half)
        assert _rayleigh(m, h) == Fraction(int(weight_matrix(m, h).sum()),
                                           op.dim)
        assert _rayleigh(m, h) == Fraction(2 * sum(y) - y[-1], op.dim)


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


WARM_CASES = [(kind, m, h) for h in range(4)
              for kind, ms in (("free-strip", (1, 2, 3, 4)),
                               ("pinned-strip", (1, 2, 3, 4)),
                               ("band", (None,)), ("tent", (None,)))
              for m in ms]


@pytest.mark.parametrize("kind, m, h", [
    (kind, m, h) for h in range(6)
    for kind, ms in (("free-strip", (1, 2, 3, 4, 5)),
                     ("pinned-strip", (1, 2, 3, 4)),
                     ("band", (None,)), ("tent", (None,)))
    for m in ms])
def test_sites_match_prefix_sum_reference(kind, m, h):
    # each representative scatters to its site or its mirror site, the one
    # not past the centre cell; sites built for the folded half only
    # (d_1 <= 0) give the last window's reads that every state's site gives
    op = make_operator(kind, h, m)
    sites = prefix_sites(op.m, h, op.pinned)[:op.half]
    assert op._rep.tolist() == [min(s, op._size - 1 - s) for s in sites]
    if op._shape:
        hi, lo, has_lo = last_window_reads(op)
        assert np.array_equal(op._hi, hi)
        assert np.array_equal(op._lo, lo)
        assert np.array_equal(op._has_lo, has_lo)


@pytest.mark.parametrize("kind, m, h", WARM_CASES)
def test_warm_buffers_match_fresh_operator(kind, m, h):
    # one operator runs applies in float, in signed int64 and on several
    # nonnegative limbs, in turn: each result equals a fresh operator's and
    # the weight rule's product, and its one buffer pair is float or int64,
    # as the last apply.  Its float pair starts full of NaN: a window
    # writes only up to the folded half and reflects what it reads past
    # it, so no apply reads a cell it has not written
    op = make_operator(kind, h, m)
    if op._shape:
        op._buffers = np.full((2, op.buffer_cells), np.nan)
    W = oracle_matrix(op)
    rng = np.random.default_rng(10 * h + (m or 0))
    for step in range(7):
        ints = rng.integers(-9, 10, op.half).tolist()
        fresh = make_operator(kind, h, m)
        if step % 3 == 0:
            x = even(np.array(ints)) / 4
            y = op.apply(_fold(x))
            assert np.array_equal(y, fresh.apply(_fold(x))), step
            assert np.allclose(y, _fold(W @ x), rtol=0,
                               atol=1e-13 * op.dim * np.abs(x).sum())
        else:
            xs = ints if step % 3 == 1 else [2**70 + v for v in ints]
            limbs = max(map(abs, xs)) >> op._limb_bits
            assert bool(limbs) == (step % 3 == 2)
            if step % 3 == 1:
                y = op._fold_apply(np.array(xs, dtype=np.int64)).tolist()
                z = fresh._fold_apply(np.array(xs, dtype=np.int64)).tolist()
            else:
                y, z = limb_product(op, xs), limb_product(fresh, xs)
            assert y == z, step
            assert y == exact_product(W, even(xs))[:op.half], step
        if op._shape:
            assert op._buffers.dtype == (float, np.int64, np.int64)[step % 3]
        else:
            assert op._buffers is None


FOLD_CASES = [("band", None, 3), ("tent", None, 3), ("free-strip", 3, 3),
              ("free-strip", 4, 2), ("pinned-strip", 2, 3),
              ("pinned-strip", 3, 2), ("pinned-strip", 3, 3),
              ("pinned-strip", 4, 2)]


def fold_case_id(case):
    kind, m, h = case
    return f"{kind}-{m}-{h}"


@pytest.mark.parametrize("case", FOLD_CASES, ids=fold_case_id)
def test_w_commutes_with_state_reversal(case):
    # the premise of the fold: negating a state reverses its index, and the
    # weight rule's W is unchanged by reversing both axes
    kind, m, h = case
    W = np.array(oracle_matrix(make_operator(kind, h, m)))
    assert np.array_equal(W, W[::-1, ::-1])


@pytest.mark.parametrize("case", FOLD_CASES, ids=fold_case_id)
def test_fold_apply_matches_full_apply(case):
    # on an even vector x the folded lattice gives W x at the
    # representatives, in float and int64, as fold_matrix states it; apply
    # takes and returns the sqrt(orbit)-scaled _fold
    kind, m, h = case
    op = make_operator(kind, h, m)
    W = oracle_matrix(op).astype(object)
    F = fold_matrix(W)
    rng = np.random.default_rng(h + 10 * (m or 0))
    for _ in range(3):
        half = rng.integers(-10, 11, op.half)
        x = even(half)
        y = W.dot(x.astype(object))
        assert np.array_equal(y[::-1], y)
        assert F.dot(half.astype(object)).tolist() == y[:op.half].tolist()
        got = op._fold_apply(half.astype(np.int64))
        assert got.dtype == np.int64 and got.tolist() == y[:op.half].tolist()
        # quarters: every float sum is exact
        got = op._fold_apply(half / 4)
        assert got.tolist() == [v / 4 for v in y[:op.half].tolist()]
        expect = _fold(y.astype(float))
        assert np.max(np.abs(op.apply(_fold(x.astype(float))) - expect)) <= \
            1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("case", FOLD_CASES, ids=fold_case_id)
def test_scaled_fold_is_symmetric_with_top_eigenvalue(case):
    # in sqrt(orbit) coordinates the folded operator is symmetric, and its
    # top eigenvalue is W's, which the folded solve finds
    kind, m, h = case
    op = make_operator(kind, h, m)
    F = np.column_stack([op.apply(e) for e in np.eye(op.half)])
    assert np.max(np.abs(F - F.T)) <= 1e-14 * np.max(np.abs(F))
    W = oracle_matrix(op)
    s = _fold(np.ones(op.dim))
    scaled = s[:, None] * fold_matrix(W) / s
    assert np.max(np.abs(F - scaled)) <= 1e-14 * np.max(np.abs(F))
    top = np.linalg.eigvalsh(W)[-1]
    assert abs(np.linalg.eigvalsh(F)[-1] - top) <= 1e-12 * top
    est = top_eigenvalue(op, 1e-12)
    assert est.vector.shape == (op.half,)
    assert abs(est.eigenvalue - top) <= 1e-12 * top
    # the folded Ritz vector unfolds to a unit, positive approximation of
    # the Perron vector of the full W (a Ritz vector converges only like
    # the square root of its Ritz value's tolerance)
    full = _unfold(est.vector)
    assert abs(np.linalg.norm(full) - 1) <= 1e-12 and np.all(full > 0)
    assert np.linalg.norm(W @ full - top * full) <= 1e-5 * top


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
    # the warm start's fold is safe: separable linear interpolation (np.interp
    # along each axis, in the midpoint coordinates t = d/(h + 1/2), held at
    # the edge values beyond the old grid) maps an even vector to an even
    # one, and prolong gives its fold
    kind, m, h = case
    new = make_operator(kind, h, m)
    axes = new.m - (not new.pinned)
    rng = np.random.default_rng(7)
    for src in (1, 2, 4):
        x = even(rng.random(make_operator(kind, src, m).half) + 0.5)
        ts = np.arange(-src, src + 1) / (src + 0.5)
        td = np.arange(-h, h + 1) / (h + 0.5)
        y = x.reshape((2 * src + 1,) * axes)
        for axis in range(axes):
            y = np.apply_along_axis(lambda r: np.interp(td, ts, r), axis, y)
        y = y.ravel()
        assert np.allclose(y, y[::-1], rtol=1e-14, atol=0), (kind, src)
        z = new.prolong(_fold(x), src)
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
        y = op._fold_apply(np.array(xs, dtype=np.int64)).tolist()
    assert y == [0, -big, 0, big]
