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

Every apply is matrix-free: separable window sums (running-sum differences)
on an embedded lattice, O(cells) per apply.  Each window turns one buffer
into its running sum in place and writes the window into the other,
swapping the two after every window; an operator keeps one buffer pair,
float or int64, reallocated only when the dtype changes.  A running sum is
one ``np.cumsum``, or a row add per index along an axis whose slabs are
large enough to pay for the calls.  The last window is never written out:
its buffer becomes the running sum along that axis, read as one difference
at each state.  A free strip (and tent) scatters onto the lattice of prefix
vectors, since its weight depends only on the difference of two columns'
prefix vectors: a half-width-h box window on every axis, then one more
along the diagonal (1, ..., 1) for the column offset.  A pinned strip of m
rows is the free strip of m+1 rows with its top row fixed: its states are
its rows, the prefix vectors of m difference steps, and a transition moves
every row by at most h, one box window per row and no offset window.  From
three rows it holds its top row as the offset from the row below, whose
axis is shorter, and runs that row's window along it and the next row's
along the diagonal that keeps the top row (a site-by-site transfer for the
top row: Enting, J. Phys. A 13, 3713, 1980).

Every kind is folded by its negation symmetry d -> -d, which W commutes
with, so the Perron vector and every W^k 1 are even: an operator runs on
the (dim + 1)/2 orbit representatives and the lattice up to its centre
slab (the block decomposition of a representation by a symmetry group:
Serre, Linear Representations of Finite Groups, 1977, section 2.6).  The
eigen-solve works in sqrt(orbit)-scaled coordinates, where the folded
operator is symmetric, and the strip DP on plain representative values.
One code path serves spectra (float) and exact counts (int64 limbs: a
count of any size is held as base-2^B digits, each run through the int64
lattice and carried at the representatives; Knuth, TAOCP vol. 2, section
4.3.1), and the state budget bounds the cells, and so the memory, of an
operator's lattice buffers before anything is allocated.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, ResourceLimitError
from .iterate import power_iteration


_SQRT2 = math.sqrt(2.0)


def _fold(x: np.ndarray) -> np.ndarray:
    """An even state vector on its orbit representatives under negation:
    the first (dim + 1)/2 states, the zero state last, each scaled by the
    square root of its orbit size (sqrt 2, or 1 for the zero state), so
    that dot products, and with them the Lanczos solve, are unchanged."""
    z = x[:(x.size + 1) // 2] * _SQRT2
    z[-1] = x[x.size // 2]
    return z


def _unfold(z: np.ndarray) -> np.ndarray:
    """The even state vector whose ``_fold`` is ``z``."""
    v = z / _SQRT2
    v[-1] = z[-1]
    return np.concatenate([v, v[-2::-1]])


def _folded_ones(half: int) -> np.ndarray:
    """``_fold`` of the all-ones vector on 2 half - 1 states, the cold
    start of the eigen-solve."""
    return _fold(np.ones(2 * half - 1))


# Elements per index along an axis, below which a running sum takes one
# ``np.cumsum`` instead of a Python-level row add per index: on smaller
# slabs the calls cost more than the arithmetic (along a leading axis,
# cumsum won by 3x at 123 elements, row adds by 1.7x at 1,000; along the
# last, cumsum by 5x at 65, row adds by 1.6x at 1,701 and 2x at 3,321).
_ROW_ADD_MIN = 512


def _running_sum(a: np.ndarray, axis: int) -> None:
    """Overwrite ``a`` with its running sum along ``axis``.

    Along an axis whose index slabs hold at least ``_ROW_ADD_MIN``
    elements this is one vectorised row add per index: ``np.cumsum`` would
    run a leading axis as its strided inner loop, and the last axis as one
    short inner loop per slab element.  On smaller slabs it is one
    ``np.cumsum``.  Both add in the same order, so results do not depend on
    which one runs.
    """
    n = a.shape[axis]
    if a.size < _ROW_ADD_MIN * n:
        np.cumsum(a, axis=axis, out=a)
    else:
        s = a.swapaxes(0, axis)
        for i in range(1, n):
            np.add(s[i - 1], s[i], out=s[i])


def _window_sum(src: np.ndarray, half: int, axis: int, out: np.ndarray) -> None:
    """Write into ``out`` the sum of ``src`` over [j - half, j + half] along
    ``axis``, zero outside.

    ``src`` is overwritten with its running sum along ``axis``
    (``_running_sum``); ``out`` has the shape and dtype of ``src`` and shares
    no memory with it.  The window is then two slice copies and one in-place
    subtraction, so the call allocates no full-size temporary.  The dtype is
    kept, so the float and int64 lattices of strip applies run the same
    code.  Every step is elementwise over the slabs of one index, so both
    arrays are viewed with ``axis`` swapped to the front, whatever order the
    other axes then take.
    """
    _running_sum(src, axis)
    n = src.shape[axis]
    s = src.swapaxes(0, axis)
    o = out.swapaxes(0, axis)
    # out[j] = run[min(j + half, n - 1)] - run[j - half - 1], the second
    # term only where j > half.
    if half < n:
        o[:n - half] = s[half:]
        o[n - half:] = s[n - 1]
        np.subtract(o[half + 1:], s[:n - half - 1], out=o[half + 1:])
    else:
        o[...] = s[n - 1]


class FreeStripOperator:
    """Transfer over m free rows; states are within-column difference vectors.

    The weight between states U and V is the number of integer column offsets
    delta with |delta + P_i(V) - P_i(U)| <= h for every row i, where P is the
    prefix sum of differences (P_1 = 0); that equals
    max(0, 2h+1 - (max_i D_i - min_i D_i)) with D = P(V) - P(U).

    Since the weight depends on D only, ``apply`` works on the prefix
    lattice: x is scattered to the points P(U), whose axis for the prefix
    P_{i+2} spans [-(i+1)h, (i+1)h] and is padded by h at both ends; the
    longest axis leads.  A window of half-width h along every axis sums x
    over the box |r_i - P_i(U)| <= h; one more half-width-h window along the
    diagonal (1, ..., 1) sums that box over the offsets |delta| <= h, and
    reading it at P(V) gives y(V).  The diagonal window runs down the
    columns of the flat lattice reshaped to rows of one diagonal step (the
    sum of the strides); the padding keeps every step taken from a state
    inside the lattice, so no window wraps.  Every window is a running-sum
    difference, so one apply costs O(cells), and the last one is taken only
    at the states: y(V) = R[hi] - R[lo] for the running sum R along the last
    window's axis.

    The lattice is folded.  Negating a state reverses both its index and its
    site, and W commutes with it, so W maps even vectors (x(-U) = x(U)) to
    even ones.  ``_fold_apply`` takes the values of such a vector at the
    orbit representatives, the first ``half`` = (dim + 1)/2 states, and
    keeps only the flat prefix of the lattice up to the end of the leading
    axis's centre slab.  Windows along the other axes run on it unchanged;
    a window whose reach crosses the centre (along the leading axis or a
    diagonal) reads a reflected copy of the cells below the centre appended
    after it, h of its rows past the last cell it must be right at: the end
    of the half, or the centre state for the offset's diagonal, which is
    read only at the states.  The two buffers that hold it, ``buffer_cells``
    each, are kept in the dtype of the last apply, float or int64.
    ``state_budget`` bounds ``buffer_cells`` before anything is allocated,
    so an operator holds 16 bytes per budget cell whatever the size of the
    integers it counts: exact applies run on int64 limbs, one limb to an
    apply.

    ``apply`` takes an even vector as ``_fold``'s sqrt(orbit)-scaled values
    at its ``half`` representatives (the eigen-solve's vectors) and returns
    W x in the same form; ``_limb_apply``, the one exact apply, takes a
    nonnegative one's plain values there as int64 limbs (the strip DP's).

    A ``pinned`` kind fixes a row above its m rows at 0.  Its states are
    the rows' values y_1..y_m, the prefix sums of m difference steps, and a
    transition is one box window per row, with no offset window.  Up to two
    rows the box holds y_m, ..., y_1, unpadded.  From three rows it is
    sheared: the top row is held as c = y_m - y_{m-1} on the box
    (c, y_{m-1}, ..., y_1), where c's axis is [-2h, 2h], 4h+1 cells to
    y_m's 2mh+1.  The top row's window runs along c, the leading axis;
    row m-1's runs along the diagonal (c + 1, y_{m-1} - 1), which keeps
    y_m, down the columns of the flat box reshaped to rows of one diagonal
    step.  A state has |c| <= h and no later window moves c, so the lower
    rows' windows run on those slabs alone, a contiguous range of the
    folded half (c in [-h, 0]).  The diagonal's rows are unpadded and wrap
    at the ends of y_{m-1}, but a wrapped read lands more than (2m-3)h
    along y_{m-1} from where it starts; a cell there holds a value only if
    its y_{m-2} is within h of its y_{m-1}, while the lower windows read
    from a state reach only y_{m-2} within 2h of the state's y_{m-1}, so
    for m >= 3 no wrapped value reaches a state.  At two rows one would
    (there is no y_{m-2}), and the sheared box would be no smaller, so two
    rows keep the box of rows.
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
        self.dim = (2 * h + 1) ** axes
        self.half = (self.dim + 1) // 2
        # box axis k holds the sum of difference steps a..b-1, padded by p;
        # a pinned strip of three or more rows stores its top row as c, its
        # offset from the row below, on the box (c, y_{m-1}, ..., y_1)
        sheared = self.pinned and m > 2
        if sheared:
            spans = [(m - 1, m, h)] + [(0, k, 0) for k in range(m - 1, 0, -1)]
        else:
            spans = [(0, axes - k, 0 if self.pinned else h)
                     for k in range(axes)]
        self._shape = tuple(2 * ((b - a) * h + p) + 1 for a, b, p in spans)
        self._size = math.prod(self._shape)
        strides = [math.prod(self._shape[k + 1:]) for k in range(axes)]
        self.buffer_cells = 0
        self._windows = []
        if axes:
            slab = strides[0]
            self._half_cells = half = (self._shape[0] // 2 + 1) * slab

            def across(length, end):
                # a window down the columns of rows of ``length`` cells,
                # across the centre: it reads h rows past the row of
                # ``end``, the last cell it must be right at
                rows = end // length + h + 1
                return 0, rows * length, (rows, length), 0

            # the leading axis's window, then the others on the half
            self._windows = [across(slab, half - 1)]
            start = 0
            if sheared:
                # the diagonal (c + 1, y_{m-1} - 1), which keeps the top
                # row, then the lower rows on the states' c in [-h, 0]
                self._windows.append(across(max(slab - strides[1], 1),
                                            half - 1))
                start = h * slab
            box = ((half - start) // slab,) + self._shape[1:]
            self._windows += [(start, half, box, k)
                              for k in range(1 + sheared, axes)]
            if self.pinned:
                stride, n = 1, self._shape[-1]
            else:
                # the column offset's window along the diagonal (1, ..., 1),
                # right at the states up to the centre
                stride = max(sum(strides), 1)
                n = -(-self._size // stride)
                self._windows.append(across(stride, self._size // 2))
            self.buffer_cells = max(w[1] for w in self._windows)
        if self.buffer_cells > state_budget:
            raise ResourceLimitError(
                f"folded lattice buffers of {self.buffer_cells} cells exceed "
                f"budget {state_budget}")
        self._buffers: np.ndarray | None = None
        # Every step of _fold_apply is a copy, add, subtract or multiply,
        # which int64 arrays wrap modulo 2^64, so an int64 result is
        # congruent to W x and equals it whenever each |(W x)_i| fits,
        # however large the running sums grow on the way.  A weight is at
        # most 2h+1 (1 when pinned), so a row of W sums to at most that
        # times dim: for |x| < 2^B on every state, with B this limb width,
        # |(W x)_i| < 2^62, and a carry added to it still fits in int64.
        self._limb_bits = 62 - (self.dim * (1 if self.pinned
                                            else 2 * h + 1)).bit_length()
        # A state's site is linear in its difference steps: from the centre
        # cell, the site of the all-zero state, step t moves every box axis
        # whose sum holds it by d_t, so it adds d_t times their stride sum.
        # States run in C order over (d_1, ..., d_axes), each in [-h, h].
        steps = np.arange(-h, h + 1, dtype=np.int64)
        sites = np.int64(self._size // 2)
        for t in range(axes):
            reach = sum(s for (a, b, _), s in zip(spans, strides)
                        if a <= t < b)
            sites = np.add.outer(sites, steps * reach)
        # A representative is scattered to whichever of its site and the
        # mirror site (size - 1 - site, its negation's) is not past the
        # centre cell.
        rep = np.ravel(sites)[:self.half]
        self._rep = np.minimum(rep, self._size - 1 - rep)
        if not axes:
            return
        # The last window at coordinate j of n along its stride is
        # run[min(j + h, n - 1)] - run[j - h - 1], the second term only
        # where j > h; hi and lo index those two cells of the running sum at
        # the representative sites.
        j = self._rep // stride % n
        self._hi = self._rep + (np.minimum(j + h, n - 1) - j) * stride
        self._has_lo = j > h
        self._lo = np.where(self._has_lo, self._rep - (h + 1) * stride, 0)

    def prolong(self, x: np.ndarray, h: int) -> np.ndarray:
        """``x``, the ``_fold`` of an even vector over the states of this kind
        and m at ``h``, interpolated onto this operator's states and folded
        (a warm start for the eigen-solve after a solve at ``h``).

        Each difference step d in [-h, h] sits at the midpoint coordinate
        t = d/(h + 1/2); the map is separable linear interpolation in t,
        clamped at the ends, one gather-and-blend per axis.  A blend
        a + w (b - a) keeps a constant vector exact and a positive one
        positive, and a same-h map is the identity.  Each axis's map
        commutes with negating t, so the unfolded vector stays even and is
        folded again.  With no axis, or from h = 0 (a one-point grid), it
        returns the folded all-ones vector, the cold start.
        """
        axes = len(self._shape)
        if not axes or h == 0:
            return _folded_ones(self.half)
        x = _unfold(x)
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
            wk = w.reshape((den,) + (1,) * (axes - 1 - axis))
            y = a + wk * (y.take(hi, axis) - a)
        return _fold(y.ravel())

    def _reflect(self, buf: np.ndarray, start: int, stop: int) -> None:
        """Fill ``buf[start:stop]``, past the centre cell, with the lattice's
        values there: those of the mirror cells below the centre, and 0 past
        the lattice's end."""
        end = min(stop, self._size)
        buf[start:end] = buf[self._size - end:self._size - start][::-1]
        buf[end:stop] = 0

    def _fold_apply(self, v: np.ndarray) -> np.ndarray:
        """W x at the representatives, in the dtype of v, for the even x
        whose representatives hold the values v."""
        if not self._windows:
            return v * (2 * self.h + 1)
        if self._buffers is None or self._buffers.dtype != v.dtype:
            self._buffers = None  # free the old pair before allocating
            self._buffers = np.zeros((2, self.buffer_cells), v.dtype)
        src, dst = self._buffers
        half = self._half_cells
        src[:half] = 0
        src[self._rep] = v
        # the centre slab holds both members of its orbits
        self._reflect(src, self._size // 2 + 1, half)
        for start, stop, shape, axis in self._windows[:-1]:
            self._reflect(src, half, stop)
            _window_sum(src[start:stop].reshape(shape), self.h, axis,
                        dst[start:stop].reshape(shape))
            src, dst = dst, src
        start, stop, shape, axis = self._windows[-1]
        self._reflect(src, half, stop)
        _running_sum(src[start:stop].reshape(shape), axis)
        # fancy indexing copies, so the result never aliases a buffer
        y = src[self._hi]
        np.subtract(y, src[self._lo], out=y, where=self._has_lo)
        return y

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Folded W x for the ``_fold`` of an even vector x, ``half`` long."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.half,):
            raise ValueError(f"expected the half = {self.half} folded "
                             f"values, got shape {x.shape}")
        # the representatives' plain values times sqrt 2: only the zero
        # state, whose orbit has one member, changes
        v = x.copy()
        v[-1] *= _SQRT2
        y = self._fold_apply(v)
        y[-1] /= _SQRT2
        return y

    def _limb_apply(self, x: np.ndarray) -> np.ndarray:
        """W x for a nonnegative x held as limbs: row k of ``x`` holds digit
        k, of ``_limb_bits`` bits, of the values at the representatives,
        least significant first.  Each limb runs through the int64 lattice,
        and the results are carried back into limbs, with a row appended for
        each carry out of the top."""
        bits = self._limb_bits
        mask = (1 << bits) - 1
        y = [self._fold_apply(limb) for limb in x]
        for k in range(len(y) - 1):
            y[k + 1] += y[k] >> bits
            y[k] &= mask
        while (carry := y[-1] >> bits).any():
            y[-1] &= mask
            y.append(carry)
        return np.array(y)

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
    |z_i - y_i| <= h for all i: one box window per row, the top row's on
    its offset from the row below from three rows on.
    """

    kind = "pinned-strip"
    pinned = True


class BandOperator(PinnedStripOperator):
    """Entries 1 iff |i-j| <= h on indices 0..2h: pinned-strip(1) by name."""

    kind = "band"

    def __init__(self, h: int):
        super().__init__(1, h)


def make_operator(kind: str, h: int, m: int | None = None) -> FreeStripOperator:
    if kind in ("band", "tent"):
        rows = 1 if kind == "band" else 2
        if m not in (None, rows):
            raise ValueError(f"{kind} operator has m = {rows}, not {m}")
        return BandOperator(h) if kind == "band" else TentOperator(h)
    if kind == "free-strip":
        return FreeStripOperator(m if m is not None else 2, h)
    if kind == "pinned-strip":
        return PinnedStripOperator(m if m is not None else 1, h)
    raise ValueError(f"unknown operator kind {kind!r}")


@dataclass(frozen=True)
class SpectralEstimate:
    kind: str
    m: int
    h: int
    eigenvalue: float
    normalized: float
    residual: float
    iterations: int
    # the unit Ritz vector approximating the Perron vector, folded to the
    # representatives (``_fold``), the warm start of the next solve on a
    # ladder; never serialised
    vector: np.ndarray = field(repr=False, compare=False)


def top_eigenvalue(op: FreeStripOperator, tol: float = 1e-10,
                   max_iter: int = 10**5,
                   prev: SpectralEstimate | None = None) -> SpectralEstimate:
    """Dominant eigenvalue by a Lanczos solve (``power_iteration``) from
    ``prev``'s Perron vector ``prolong``-ed to ``op``, or from the all-ones
    vector when ``prev`` is None.

    The solve runs on folded vectors (``_fold``), the ``half`` orbit
    representatives in sqrt(orbit)-scaled coordinates, where the folded
    operator is symmetric and has W's eigenvalues on even vectors.  Both
    starts are even, and Lanczos from an even start stays in the even
    subspace, which holds the Perron vector; so the Ritz values, and the
    number of applies, are those of the unfolded solve.

    Converged when successive Ritz values, each the Rayleigh quotient of
    its Ritz vector, agree to a relative ``tol``; ``iterations`` counts
    applies.  Either start is positive, so it has positive overlap with the
    Perron vector, and the returned ``vector`` is the folded unit Ritz
    vector with positive sum.
    """
    x0 = (_folded_ones(op.half) if prev is None
          else op.prolong(prev.vector, prev.h))
    lam, vec, residual, iters = power_iteration(op.apply, x0, tol, max_iter)
    return SpectralEstimate(op.kind, op.m, op.h, lam, op.normalized(lam),
                            residual, iters, vec)


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
    largest integers.  W also commutes with negation and 1 is even, so
    every W^k 1 is even: the DP runs on the ``half`` orbit representatives,
    and x . y weights each product by its orbit size, 2 for every
    representative but the zero state (the last).

    x and y are held as int64 limbs of ``_limb_bits`` bits, one row per
    limb (``_limb_apply``), so every apply runs on the int64 lattice
    however large the count; Python ints appear only for x . y.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    op = FreeStripOperator(min(m, n), h, state_budget)
    steps = max(m, n) - 1
    x = np.ones((1, op.half), dtype=np.int64)
    for _ in range(steps // 2):
        x = op._limb_apply(x)
    y = op._limb_apply(x) if steps % 2 else x
    x, y = _join_limbs(x, op._limb_bits), _join_limbs(y, op._limb_bits)
    return 2 * sum(map(operator.mul, x, y)) - x[-1] * y[-1]


def _join_limbs(x: np.ndarray, bits: int) -> list[int]:
    """The Python ints sum over k of 2^(bits k) x[k]: those whose limbs,
    least significant first, are the rows of ``x``."""
    vals = x[-1].tolist()
    for row in x[-2::-1]:
        vals = [(v << bits) + r for v, r in zip(vals, row.tolist())]
    return vals


@dataclass(frozen=True)
class ExtrapolationFit:
    """Limit of normalized(h) = limit + a/h (+ curvature/h^2) fitted in 1/h."""

    limit: float
    slope: float
    curvature: float


def extrapolate_limit(estimates: Sequence[tuple[float, float]]) -> ExtrapolationFit:
    """Richardson-style limit from (h, value) pairs: a user's h list
    (``strip``) or a mesh ladder of (N^2, v(N)) (``continuum.kernel_limit``).

    Fits a quadratic in 1/h (least squares when more than three points): a
    first-order error plus one correction term, both reported so the model
    stays auditable.
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
