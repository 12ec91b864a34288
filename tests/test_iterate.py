"""The in-place window sum behind every strip ``apply``, and the contract
that no ``apply`` writes into the caller's vector."""
import numpy as np
import pytest

from lipgrowth.iterate import _window_sum
from lipgrowth.strips import (BandOperator, FreeStripOperator,
                              PinnedStripOperator, TentOperator)


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


# (shape, axis): leading axes run the row-add loop, the last axis and
# single-element slabs run np.cumsum, plus n = 1 on either path.
LAYOUTS = [((5, 4, 3), 0), ((5, 4, 3), 1), ((5, 4, 3), 2), ((7, 1), 0),
           ((6,), 0), ((1,), 0), ((1, 4), 0), ((4, 1, 3), 0), ((3, 1), 1)]


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
    rng = np.random.default_rng(len(shape) * 10 + axis)
    n = shape[axis]
    for half in sorted({0, 1, 2, n - 1, n, n + 3}):
        a = sample(shape, dtype, rng)
        src = a.copy()
        out = np.empty_like(a)
        _window_sum(src, half, axis, out)
        assert out.dtype == a.dtype
        assert np.array_equal(out, naive_window(a, half, axis)), (half,)
        # contract: src now holds its running sum along axis
        assert np.array_equal(src, np.cumsum(a, axis=axis)), (half,)


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
    # power_iteration takes vdot(x, apply(x)): an apply that wrote into x
    # would corrupt every eigenvalue
    rng = np.random.default_rng(3)
    x = op.ones() * rng.random(op.ones().shape)
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
    for xs in ([1] * op.dim, [2**70 + k for k in range(op.dim)]):
        before = list(xs)
        y = op.apply_exact(xs)
        assert xs == before
        assert op.apply_exact(xs) == y
