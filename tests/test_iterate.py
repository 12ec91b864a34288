"""The Lanczos eigen-solve, the one bisection, the in-place window sum
behind every strip ``apply`` (into a whole or a shorter out), and the
contract that no ``apply`` writes into the caller's vector."""
import math
import tracemalloc

import numpy as np
import pytest

from helpers import oracle_matrix, to_limbs
from lipgrowth.errors import ConvergenceError
from lipgrowth.iterate import _BASIS_CAP, _bisect, power_iteration
from lipgrowth.strips import (BandOperator, FreeStripOperator,
                              PinnedStripOperator, TentOperator,
                              _ROW_ADD_MIN, _fold, _unfold, _window_sum)


def op_id(op):
    return f"{op.kind}-{op.m}-{op.h}"


def ones(op):
    """The folded all-ones vector, the cold start of the strip solves."""
    return _fold(np.ones(op.dim))


DENSE_OPERATORS = [BandOperator(40), TentOperator(40),
                   FreeStripOperator(3, 10), FreeStripOperator(4, 3),
                   PinnedStripOperator(2, 15), PinnedStripOperator(3, 5)]


@pytest.mark.parametrize("op", DENSE_OPERATORS, ids=op_id)
def test_solve_matches_dense_eigvalsh(op):
    # at tol 1e-10 the Ritz value is the top eigenvalue to rounding; an
    # estimate one step behind misses this bound
    lam, vec, residual, iterations = power_iteration(op.apply, ones(op), 1e-10)
    top = np.linalg.eigvalsh(oracle_matrix(op))[-1]
    assert abs(lam - top) <= 1e-13 * top
    assert residual <= 1e-10
    assert 2 <= iterations <= 20


@pytest.mark.parametrize("op", [BandOperator(5), TentOperator(5),
                                FreeStripOperator(3, 4),
                                PinnedStripOperator(2, 3)], ids=op_id)
def test_solve_vector_is_unit_and_positive(op):
    # the premise of every warm start: the returned Ritz vector is a unit,
    # entrywise positive approximation of the Perron vector
    lam, vec, _, _ = power_iteration(op.apply, ones(op), 1e-10)
    assert abs(np.linalg.norm(vec) - 1) <= 1e-12
    assert np.all(vec > 0)
    assert np.linalg.norm(op.apply(vec) - lam * vec) <= 1e-4 * lam
    # a start of the other sign gives the same vector
    neg, flipped, _, _ = power_iteration(op.apply, -ones(op), 1e-10)
    assert neg == lam and np.array_equal(flipped, vec)


def test_solve_breakdown_returns_exact_eigenvalue():
    # BandOperator(1) on even vectors is two-dimensional: from folded
    # all-ones the second step spans the whole space and returns its top
    # eigenvalue, 1 + sqrt(2), with residual 0
    op = BandOperator(1)
    lam, vec, residual, iterations = power_iteration(op.apply, ones(op), 1e-12)
    assert (residual, iterations) == (0.0, 2)
    assert abs(lam - (1 + math.sqrt(2))) <= 1e-15 * lam
    assert np.allclose(_unfold(vec), [0.5, math.sqrt(0.5), 0.5], rtol=0,
                       atol=1e-15)
    # one state: the first step is already invariant
    assert power_iteration(lambda x: 3 * x, np.ones(1))[2:] == (0.0, 1)


def slow_spectrum(n=20000):
    """A diagonal operator's spectrum: the top eigenvalue 1 just above a
    dense cluster in [0, 0.99], and one isolated eigenvalue at -0.9, which
    converges long before the top does."""
    return np.concatenate([[1.0], 0.99 * np.linspace(1, 0, n - 2) ** 4,
                           [-0.9]])


def test_solve_restarts_within_basis_cap():
    # convergence needs several times _BASIS_CAP steps, so the basis fills
    # and restarts from its Ritz vector; the solve still finds the top
    # eigenpair, and never holds more than _BASIS_CAP vectors of length n
    # (plus a few temporaries)
    d = slow_spectrum()
    x0 = np.ones(d.size)
    tracemalloc.start()
    try:
        lam, vec, residual, iterations = power_iteration(lambda x: d * x, x0,
                                                         1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iterations > 2 * _BASIS_CAP
    assert abs(lam - 1) <= 1e-10
    assert residual <= 1e-12
    assert abs(vec[0]) >= 1 - 1e-8
    assert peak <= (_BASIS_CAP + 5) * d.size * 8


def test_solve_basis_stays_orthonormal():
    # the vectors applied before the first restart are the Lanczos basis;
    # once the isolated bottom eigenvalue converges, the three-term
    # recurrence alone would lose their orthogonality to it
    d = slow_spectrum()
    basis = []

    def apply_fn(x):
        if len(basis) < _BASIS_CAP:
            basis.append(x.copy())
        return d * x

    power_iteration(apply_fn, np.ones(d.size), 1e-12)
    q = np.array(basis)
    assert len(q) == _BASIS_CAP
    assert np.max(np.abs(q @ q.T - np.eye(_BASIS_CAP))) <= 1e-12


def test_solve_argument_checks_and_errors():
    op = BandOperator(10)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            power_iteration(op.apply, ones(op), tol)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        power_iteration(op.apply, ones(op), 1e-10, 0)
    with pytest.raises(ValueError, match="nonzero"):
        power_iteration(op.apply, np.zeros(op.half))
    # one apply makes one estimate, so there is no residual to report
    with pytest.raises(ConvergenceError,
                       match="no second estimate was made") as err:
        power_iteration(op.apply, ones(op), 1e-10, 1)
    assert (err.value.residual, err.value.iterations) == (None, 1)
    with pytest.raises(ConvergenceError, match="last residual") as err:
        power_iteration(op.apply, ones(op), 1e-16, 2)
    assert err.value.residual > 1e-16 and err.value.iterations == 2
    with pytest.raises(ConvergenceError, match="annihilated"):
        power_iteration(np.zeros_like, ones(op))


def test_bisect():
    # f(hi) >= 0 returns hi at once, which for a function positive
    # everywhere ends the search on [0, 1] at 1
    for f in (lambda y: 1.0 - y, lambda y: 2.0 - y, lambda y: 1.0):
        seen = []
        assert _bisect(lambda y: seen.append(y) or f(y), 0.0, 1.0) == 1.0
        assert seen == [1.0]
    # f(lo) = 0 and f < 0 above it: the bracket closes on lo
    assert _bisect(lambda y: -y, 0.0, 1.0) == 0.0
    # for f(y) = c - y the sign of f is exact, so bisection to adjacent
    # doubles ends with hi = c, where f is 0
    for c, lo, hi in ((0.1, 0.0, 1.0), (1 / 3, 0.0, 1.0), (0.7, 0.0, 1.0),
                      (2.0 ** -1000, 0.0, 1.0), (5e-324, 0.0, 1.0),
                      (math.nextafter(1.0, 0.0), 0.0, 1.0),
                      (1.2345, 1.0, 1.5)):
        assert _bisect(lambda y: c - y, lo, hi) == c, c


def naive_window(a, half, axis):
    """Sum over [j - half, j + half] along ``axis``, one index at a time."""
    n = a.shape[axis]
    moved = np.moveaxis(a, axis, 0)
    out = np.empty_like(moved)
    for j in range(n):
        acc = np.zeros_like(moved[0])
        for k in range(max(0, j - half), min(n, j + half + 1)):
            acc = acc + moved[k]
        out[j] = acc
    return np.moveaxis(out, 0, axis)


def cumsum_window(a, half, axis):
    """The same window as one cumulative sum over a zero-led copy and two
    gathers; the running sum must add in this order."""
    n = a.shape[axis]
    lead = list(a.shape)
    lead[axis] = 1
    c = np.cumsum(np.concatenate([np.zeros(lead, a.dtype), a], axis), axis)
    j = np.arange(n)
    return (np.take(c, np.minimum(j + half + 1, n), axis)
            - np.take(c, np.maximum(j - half, 0), axis))


# (shape, axis): the last axis and slabs under _ROW_ADD_MIN elements run
# np.cumsum (the first nine, n = 1 among them); a leading axis with larger
# slabs runs the row-add loop (the first axis, a middle one, and n = 1).
LAYOUTS = [((5, 4, 3), 0), ((5, 4, 3), 1), ((5, 4, 3), 2), ((7, 1), 0),
           ((6,), 0), ((1,), 0), ((1, 4), 0), ((4, 1, 3), 0), ((3, 1), 1),
           ((3, 40, 40), 0), ((20, 3, 30), 1), ((1, 600), 0)]


def test_layouts_cover_both_running_sum_branches():
    row_adds = [axis < len(shape) - 1
                and math.prod(shape) >= _ROW_ADD_MIN * shape[axis]
                for shape, axis in LAYOUTS]
    assert any(row_adds) and not all(row_adds)


def sample(shape, dtype, rng):
    ints = rng.integers(-50, 50, size=shape)
    if dtype is object:
        big = np.empty(shape, dtype=object)
        big.flat[:] = [int(v) * 2**70 + 1 for v in ints.flat]
        return big
    return ints.astype(dtype)


@pytest.mark.parametrize("dtype", [float, np.int64, object])
@pytest.mark.parametrize("shape, axis", LAYOUTS)
def test_window_sum_matches_naive(shape, axis, dtype):
    # an out with fewer rows along axis than src gets the window's first
    # rows, as a strip apply's windows across the centre write only up to
    # the folded half
    rng = np.random.default_rng(len(shape) * 10 + axis)
    n = shape[axis]
    for half in sorted({0, 1, 2, n - 1, n, n + 3}):
        for rows in sorted({1, half + 1, n - half, n} & set(range(1, n + 1))):
            a = sample(shape, dtype, rng)
            src = a.copy()
            short = list(shape)
            short[axis] = rows
            out = np.empty(short, dtype=a.dtype)
            _window_sum(src, half, axis, out)
            want = np.take(naive_window(a, half, axis), range(rows), axis)
            assert out.dtype == a.dtype
            assert np.array_equal(out, want), (half, rows)
            # contract: src now holds its whole running sum along axis
            assert np.array_equal(src, np.cumsum(a, axis=axis)), (half, rows)


@pytest.mark.parametrize("shape, axis", LAYOUTS)
def test_window_sum_float_bits_match_cumsum_difference(shape, axis):
    rng = np.random.default_rng(7)
    n = shape[axis]
    for half in (0, 1, n // 2, n + 1):
        a = rng.random(shape) * 1e3
        out = np.empty_like(a)
        _window_sum(a.copy(), half, axis, out)
        assert np.array_equal(out, cumsum_window(a, half, axis)), half
        assert np.allclose(out, naive_window(a, half, axis))


APPLY_OPERATORS = [PinnedStripOperator(1, 2), PinnedStripOperator(2, 2),
                   PinnedStripOperator(3, 1), BandOperator(3), TentOperator(3),
                   FreeStripOperator(1, 2), FreeStripOperator(3, 2),
                   FreeStripOperator(4, 1)]


@pytest.mark.parametrize("op", APPLY_OPERATORS, ids=lambda op: f"{op.kind}-{op.m}")
def test_apply_leaves_input_unchanged(op):
    # power_iteration takes dot(q, apply(q)) and keeps q in its basis: an
    # apply that wrote into q would corrupt every eigenvalue
    rng = np.random.default_rng(3)
    x = rng.random(op.half)
    before = x.copy()
    y = op.apply(x)
    assert np.array_equal(x, before)
    assert not np.shares_memory(x, y)
    # a second apply of the same vector gives the same answer
    assert np.array_equal(op.apply(x), y)
    # the operator reuses its buffers, but a result is the caller's: it
    # outlives the next apply, and writing into it changes no later one
    first = y.copy()
    other = op.apply(x[::-1].copy())
    assert np.array_equal(y, first)
    y[:] = np.nan
    other[:] = np.nan
    assert np.array_equal(op.apply(x), first)


@pytest.mark.parametrize("op", APPLY_OPERATORS, ids=lambda op: f"{op.kind}-{op.m}")
def test_apply_exact_leaves_input_unchanged(op):
    # the exact apply, _limb_apply, on one limb and on several
    for xs in ([1] * op.half, [2**70 + k for k in range(op.half)]):
        limbs = to_limbs(xs, op._limb_bits)
        before = limbs.copy()
        y = op._limb_apply(limbs)
        assert np.array_equal(limbs, before)
        assert not np.shares_memory(limbs, y)
        assert np.array_equal(op._limb_apply(limbs), y)
