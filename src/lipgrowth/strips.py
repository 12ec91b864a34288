"""Column-transfer operators for grid strips.

A column of an m-row strip is encoded, up to translation, by its vector of
m-1 consecutive within-column differences, each in [-h, h].  The transfer
weight between two columns counts the admissible integer offsets between
them, which turns exact strip counting into iterated operator application
and growth constants into top eigenvalues.

Operator kinds
  band            entries 1 iff |i-j| <= h; pinned-strip(1) under its own name
  tent            weights 2h+1-|i-j|; free-strip(2) under its own name
  free-strip(m)   m free rows, weight max(0, 2h+1 - spread of prefix offsets)
  pinned-strip(m) m free rows below an all-zero row, 0/1 transitions

Every apply is matrix-free: separable window sums (running-sum
differences) on an embedded lattice, O(cells) per apply.  Each window turns
one buffer into its running sum in place and writes the window into the
other, swapping the two after every window; an operator allocates its two
lattice-sized buffers on its first apply in a dtype and reuses them after.
The last window is never written out: its buffer becomes the running sum
along that axis, read as one difference at each state.  Every kind
scatters onto the lattice of prefix vectors,
since its weight depends only on the difference of two columns' prefix
vectors: a half-width-h box window on every axis, then, for free strips
(and tent), one more along the diagonal (1, ..., 1) for the column offset.
A pinned strip of m rows is the free strip of m+1 rows with its top row
fixed, so its states are the prefix vectors of m difference steps and it
needs no offset window.  One code path serves spectra (float) and exact
counts (int64 while a bound on every output fits, Python ints above), and the
state budget bounds the cells of the lattice before anything is allocated.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, ResourceLimitError
from .iterate import _running_sum, _window_sum, power_iteration


class FreeStripOperator:
    """Transfer over m free rows; states are within-column difference vectors.

    The weight between states U and V is the number of integer column offsets
    delta with |delta + P_i(V) - P_i(U)| <= h for every row i, where P is the
    prefix sum of differences (P_1 = 0); that equals
    max(0, 2h+1 - (max_i D_i - min_i D_i)) with D = P(V) - P(U).

    Since the weight depends on D only, ``apply`` works on the prefix
    lattice: x is scattered to the points P(U), whose axis i (prefix
    P_{i+2}) spans [-(i+1)h, (i+1)h] and is padded by h at both ends.  A
    window of half-width h along every axis sums x over the box
    |r_i - P_i(U)| <= h; one more half-width-h window along the diagonal
    (1, ..., 1) sums that box over the offsets |delta| <= h, and reading it at
    P(V) gives y(V).  The diagonal window runs down the columns of the flat
    lattice reshaped to rows of one diagonal step (the sum of the strides);
    the padding keeps every step taken from a state inside the lattice, so
    no window wraps.  Every window is a running-sum difference, so one
    apply costs O(cells), and the last one is taken only at the states:
    y(V) = R[hi] - R[lo] for the running sum R along the last window's
    axis.  ``state_budget`` bounds ``cells``, the size of that padded
    lattice, before anything is allocated; the two lattice buffers are
    kept, one pair per dtype, for the operator's lifetime.

    A ``pinned`` kind fixes the top row at 0: its m rows are the m
    difference steps below that row, so it runs on the m axes of the free
    (m+1)-row lattice, unpadded and without the diagonal window.
    """

    kind = "free-strip"
    pinned = False

    def __init__(self, m: int, h: int, state_budget: int = DEFAULT_BUDGET):
        if m < 1:
            raise ValueError("m must be at least 1")
        if h < 0:
            raise ValueError("h must be nonnegative")
        self.m = m
        self.h = h
        axes = m if self.pinned else m - 1
        pad = 0 if self.pinned else h
        self.dim = (2 * h + 1) ** axes
        self._shape = tuple(2 * ((i + 1) * h + pad) + 1 for i in range(axes))
        strides = [math.prod(self._shape[i + 1:]) for i in range(axes)]
        self._step = 1 if self.pinned else max(sum(strides), 1)
        self.cells = -(-math.prod(self._shape) // self._step) * self._step
        if self.cells > state_budget:
            raise ResourceLimitError(
                f"prefix lattice of {self.cells} cells exceeds budget {state_budget}")
        # A state's site is linear in its difference steps: from the site
        # of the all-zero state, step t moves prefix axes t.. by d_t, so it
        # adds d_t times their stride sum.  States run in C order over
        # (d_1, ..., d_axes), each in [-h, h].
        reach = np.cumsum(strides[::-1], dtype=np.int64)[::-1]
        steps = np.arange(-h, h + 1, dtype=np.int64)
        sites = np.int64(sum(((i + 1) * h + pad) * stride
                             for i, stride in enumerate(strides)))
        for t in range(axes):
            sites = np.add.outer(sites, steps * reach[t])
        self._sites = np.ravel(sites)
        # The last window (the last box axis when pinned, else the diagonal
        # as the leading axis of rows of one step) at coordinate j of n is
        # run[min(j + h, n - 1)] - run[j - h - 1], the second term only
        # where j > h; hi and lo index those two cells of the running sum.
        stride = 1 if self.pinned else self._step
        n = self._shape[-1] if self.pinned else self.cells // stride
        j = self._sites // stride % n
        self._hi = self._sites + (np.minimum(j + h, n - 1) - j) * stride
        self._has_lo = j > h
        self._lo = np.where(self._has_lo, self._sites - (h + 1) * stride, 0)
        self._buffers: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        # Every step of _apply is a copy, add, subtract or multiply, which
        # int64 arrays wrap modulo 2^64, so an int64 result is congruent to
        # W x and equals it whenever each |(W x)_i| fits, however large the
        # running sums grow on the way.  A weight is at most 2h+1 (1 when
        # pinned), so |(W x)_i| <= that times sum|x|: int64 is exact while
        # sum|x| <= cap.
        self._int64_cap = np.iinfo(np.int64).max // (1 if self.pinned
                                                     else 2 * h + 1)

    def ones(self) -> np.ndarray:
        return np.ones(self.dim)

    def prolong(self, x: np.ndarray, h: int) -> np.ndarray:
        """``x``, a vector over the states of this kind and m at ``h``,
        interpolated onto this operator's states (a warm start for the
        eigen-solve after a solve at ``h``).

        Each difference step d in [-h, h] sits at the midpoint coordinate
        t = d/(h + 1/2); the map is separable linear interpolation in t,
        clamped at the ends, one gather-and-blend per axis.  A blend
        a + w (b - a) keeps a constant vector exact and a positive one
        positive, and a same-h map is the identity.  With no axis, or from
        h = 0 (a one-point grid), it returns ``ones()``.
        """
        axes = len(self._shape)
        if not axes or h == 0:
            return self.ones()
        # step d here (t = 2d/den) sits at source step d (2h+1)/den, i.e.
        # source index num/den; integers keep a same-h map exact
        den = 2 * self.h + 1
        num = np.arange(-self.h, self.h + 1) * (2 * h + 1) + h * den
        num = np.clip(num, 0, 2 * h * den)
        lo = num // den
        hi = np.minimum(lo + 1, 2 * h)
        w = (num - lo * den) / den
        y = np.reshape(x, (2 * h + 1,) * axes)
        for axis in range(axes):
            a = y.take(lo, axis)
            shape = [1] * axes
            shape[axis] = den
            y = a + w.reshape(shape) * (y.take(hi, axis) - a)
        return y.ravel()

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """y = W x in the dtype of x: float, int64 or object (Python ints)."""
        if not self._shape:
            return x * (2 * self.h + 1)
        if x.dtype not in self._buffers:
            self._buffers[x.dtype] = (np.empty(self.cells, dtype=x.dtype),
                                      np.empty(self.cells, dtype=x.dtype))
        src, dst = self._buffers[x.dtype]
        size = math.prod(self._shape)
        # The box windows write only the first ``size`` cells of dst; the
        # diagonal window reads the whole buffer, so both tails start at 0.
        src.fill(0)
        if not self.pinned:
            dst[size:] = 0
        src[self._sites] = x
        for axis in range(len(self._shape) - self.pinned):
            _window_sum(src[:size].reshape(self._shape), self.h, axis,
                        dst[:size].reshape(self._shape))
            src, dst = dst, src
        if self.pinned:
            _running_sum(src[:size].reshape(self._shape), len(self._shape) - 1)
        else:
            _running_sum(src.reshape(-1, self._step), 0)
        # fancy indexing copies, so the result never aliases a buffer
        y = src[self._hi]
        np.subtract(y, src[self._lo], out=y, where=self._has_lo)
        return y

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}")
        return self._apply(np.asarray(x, dtype=float))

    def apply_exact(self, xs: Sequence[int]) -> list[int]:
        """Exact integer application: int64 while provably safe, else Python ints."""
        dtype = np.int64 if sum(map(abs, xs)) <= self._int64_cap else object
        return self._apply(np.array(xs, dtype=dtype)).tolist()

    def normalized(self, eigenvalue: float) -> float:
        """Per-vertex growth scale lam^(1/m)/h (band, with m = 1: lam/h)."""
        if self.h < 1:
            raise ValueError("normalization needs h >= 1")
        return eigenvalue ** (1.0 / self.m) / self.h


class TentOperator(FreeStripOperator):
    """Two-row transfer with entries 2h+1-|i-j| (free-strip(2) weights)."""

    kind = "tent"

    def __init__(self, h: int):
        super().__init__(2, h)


class PinnedStripOperator(FreeStripOperator):
    """m free rows below an all-zero row; transitions are coordinatewise boxes.

    States are absolute value vectors (y_1..y_m) with |y_1| <= h and
    |y_{i+1} - y_i| <= h, the prefix sums of m difference steps in the
    free (m+1)-row state order; a transition to (z_1..z_m) is allowed iff
    |z_i - y_i| <= h for all i: the box windows alone.
    """

    kind = "pinned-strip"
    pinned = True


class BandOperator(PinnedStripOperator):
    """Entries 1 iff |i-j| <= h on indices 0..2h: pinned-strip(1) by name."""

    kind = "band"

    def __init__(self, h: int):
        super().__init__(1, h)


def make_operator(kind: str, h: int, m: int | None = None,
                  state_budget: int = DEFAULT_BUDGET) -> FreeStripOperator:
    if kind in ("band", "tent"):
        rows = 1 if kind == "band" else 2
        if m not in (None, rows):
            raise ValueError(f"{kind} operator has m = {rows}, not {m}")
        return BandOperator(h) if kind == "band" else TentOperator(h)
    if kind == "free-strip":
        return FreeStripOperator(m if m is not None else 2, h, state_budget)
    if kind == "pinned-strip":
        return PinnedStripOperator(m if m is not None else 1, h, state_budget)
    raise ValueError(f"unknown operator kind {kind!r}")


@dataclass(frozen=True)
class SpectralEstimate:
    kind: str
    m: int
    h: int
    dim: int
    eigenvalue: float
    normalized: float
    residual: float
    iterations: int
    # the unit Ritz vector approximating the Perron vector, the warm start
    # of the next solve on a ladder; never serialised
    vector: np.ndarray = field(repr=False, compare=False)


def top_eigenvalue(op: FreeStripOperator, tol: float = 1e-10,
                   max_iter: int = 10**5,
                   start: np.ndarray | None = None) -> SpectralEstimate:
    """Dominant eigenvalue by a Lanczos solve (``power_iteration``) from
    ``start``, or from ``op.ones()`` when it is None.

    Converged when successive Ritz values, each the Rayleigh quotient of
    its Ritz vector, agree to a relative ``tol``; ``iterations`` counts
    applies.  A positive start (all-ones, or a Perron vector ``prolong``-ed
    from another h) has positive overlap with the Perron vector, and the
    returned ``vector`` is the unit Ritz vector with positive sum.
    """
    x0 = op.ones() if start is None else start
    lam, vec, residual, iters = power_iteration(op.apply, x0, tol, max_iter)
    return SpectralEstimate(op.kind, op.m, op.h, op.dim, lam,
                            op.normalized(lam), residual, iters, vec)


def strip_count_exact(m: int, n: int, h: int,
                      state_budget: int = DEFAULT_BUDGET) -> int:
    """Exact count of h-Lipschitz functions on the m-row, n-column grid.

    The m x n and n x m grids have the same count, so the DP runs over the
    shorter side: 1^T W^s 1 over free-strip(rows) states, rows = min(m, n)
    and s = max(m, n) - 1.  The first column, rooted at its top vertex,
    realises every difference vector exactly once, and each transfer weight
    counts the offsets of the next column.

    W is symmetric (a weight depends only on the spread of P(V) - P(U),
    which negation keeps), so the DP meets in the middle: with
    x = W^(s//2) 1 and y = W^(s - s//2) 1, the count is x . y.  That takes
    s - s//2 applies instead of s, and the ones skipped are those on the
    largest integers.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    if h < 0:
        raise ValueError("h must be nonnegative")
    op = FreeStripOperator(min(m, n), h, state_budget)
    steps = max(m, n) - 1
    x = [1] * op.dim
    for _ in range(steps // 2):
        x = op.apply_exact(x)
    y = op.apply_exact(x) if steps % 2 else x
    return sum(map(operator.mul, x, y))


@dataclass(frozen=True)
class ExtrapolationFit:
    """Limit of normalized(h) = limit + a/h (+ curvature/h^2) fitted in 1/h."""

    limit: float
    slope: float
    curvature: float


def extrapolate_limit(estimates: Sequence[tuple[float, float]]) -> ExtrapolationFit:
    """Richardson-style limit from (h, value) pairs: a user's h list
    (``strip``) or a mesh ladder of (N, v(N)) (``continuum.kernel_limit``).

    Fits a quadratic in 1/h (least squares when more than three points): a
    first-order error plus one correction term.  The fitted 1/h coefficient
    is reported so the model stays auditable; on a mesh ladder it is ~0.
    """
    if len(estimates) < 3:
        raise ValueError("need at least 3 points")
    hs = [float(h) for h, _ in estimates]
    if sorted(set(hs)) != hs:
        raise ValueError("h values must be distinct and increasing")
    z = 1.0 / np.asarray(hs)
    vals = np.asarray([v for _, v in estimates], dtype=float)
    coeffs = np.polynomial.polynomial.polyfit(z, vals, deg=2)
    return ExtrapolationFit(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))
