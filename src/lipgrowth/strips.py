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

Every apply is matrix-free and O(cells): between its engine's own scatter
and gather, one loop runs window stages built once per dtype, each a
running sum (one ``np.cumsum``, or a row add per index along an axis whose
slabs are large enough to pay for the calls) read by slice steps as
differences of two of its cells.  A free strip (and tent) places the new
column one row at a time (the site-by-site transfer of the finite-lattice
method: Enting, J. Phys. A 13, 3713, 1980): one window stage per row, on
arrays indexed by the states' differences and one junction offset between
the old column and the new, about twice the states.  A middle row's window
runs along a read-only skew view of the previous stage, whose junction
axis carries 2h zero rows at both ends so that the view never leaves it.
A pinned strip of m rows is the free strip of m+1 rows with its top row
fixed: its states are its rows, the prefix vectors of m difference steps,
and a transition moves every row by at most h, one box window per row on
the box of rows.  From three rows it holds its top row as the offset from
the row below, whose axis is shorter, and runs that row's window along it
and the next row's along the diagonal that keeps the top row (the same
site-by-site idea for that row).

Every kind is folded by its negation symmetry d -> -d, which W commutes
with, so the Perron vector and every W^k 1 are even: an operator takes and
returns the (dim + 1)/2 orbit representatives, and a pinned strip runs its
box up to its centre slab (the block decomposition of a representation by
a symmetry group: Serre, Linear Representations of Finite Groups, 1977,
section 2.6).  The eigen-solve works in sqrt(orbit)-scaled coordinates,
where the folded operator is symmetric, and the strip DP on plain
representative values.  One code path serves spectra (float) and exact
counts (int64 limbs: a count of any size is held as base-2^B digits, each
run through the int64 arrays and carried at the representatives; Knuth,
TAOCP vol. 2, section 4.3.1), and the state budget bounds the cells, and
so the memory, of an operator's arrays before anything is allocated: all
of a free strip's stage arrays together (the skew views' zero padding
included), and each of a pinned strip's two box buffers.
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

# The most states or buffer cells an operator may have whatever its budget:
# numpy indexes an array's bytes by intp, and a state vector takes 8 bytes
# per state, a pinned strip's buffer pair 16 per cell.
_MAX_CELLS = np.iinfo(np.intp).max // 16


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


def _running_sum(a: np.ndarray, axis: int,
                 out: np.ndarray | None = None) -> None:
    """Write the running sum of ``a`` along ``axis`` into ``out``, an
    array of its shape and dtype that shares no memory with it, or over
    ``a`` itself when ``out`` is None.

    Along an axis whose index slabs hold at least ``_ROW_ADD_MIN``
    elements this is one vectorised row add per index: ``np.cumsum`` would
    run a leading axis as its strided inner loop, and the last axis as one
    short inner loop per slab element.  On smaller slabs it is one
    ``np.cumsum``.  Both add in the same order, so results do not depend on
    which one runs.
    """
    n = a.shape[axis]
    if a.size < _ROW_ADD_MIN * n:
        np.cumsum(a, axis=axis, out=a if out is None else out)
        return
    s = a.swapaxes(0, axis)
    o = s if out is None else out.swapaxes(0, axis)
    if out is not None:
        o[0] = s[0]
    for i in range(1, n):
        np.add(o[i - 1], s[i], out=o[i])


def _window_steps(run: np.ndarray, half: int, axis: int,
                  out: np.ndarray) -> list:
    """The steps (``_run_stages``) that write into ``out`` the sum over
    [j - half, j + half] along ``axis``, zero outside, of the array whose
    running sum along ``axis`` ``run`` holds.

    They are views, built once and run at every apply, and slices only:
    an indexed scalar would be a copy.  ``out`` has the dtype of ``run``,
    shares no memory with it and has its shape, or fewer indices along
    ``axis``: then it gets the window's leading ones only (a pinned apply's
    windows across the centre write only up to the folded half).  The
    window is then at most three steps, each a slice copy or subtraction
    into its own rows of ``out``, so it writes every cell once and
    allocates no temporary.  Every step is elementwise over the slabs of
    one index, so both arrays are viewed with ``axis`` swapped to the
    front, whatever order the other axes then take.
    """
    n = run.shape[axis]
    s = run.swapaxes(0, axis)
    o = out.swapaxes(0, axis)
    rows = o.shape[0]
    if half >= n:
        return [(o, s[n - 1:], None)]
    # out[j] = run[min(j + half, n - 1)] - run[j - half - 1], the second
    # term only where j > half: one step per run of rows j on which both
    # terms keep their form
    cuts = sorted({0, min(half + 1, rows), min(n - half, rows), rows})
    return [(o[a:b], s[a + half:b + half] if a < n - half else s[n - 1:],
             s[a - half - 1:b - half - 1] if a > half else None)
            for a, b in zip(cuts, cuts[1:])]


def _run_stages(stages: list) -> None:
    """Run the window stages (src, axis, out, steps) in order, every
    operator kind's apply: the running sum of src along axis into out, or
    over src when out is None (none when src is None), then each step
    (dst, a, b): dst = a when b is None, else dst = a - b; a may be a
    scalar."""
    for src, axis, out, steps in stages:
        if src is not None:
            _running_sum(src, axis, out)
        for dst, a, b in steps:
            if b is None:
                dst[...] = a
            else:
                np.subtract(a, b, dst)


def _cell_strides(shape: Sequence[int]) -> tuple[int, ...]:
    """The strides, in cells, of a C-contiguous array of ``shape``."""
    return tuple(math.prod(shape[k + 1:]) for k in range(len(shape)))


def _skew(a: np.ndarray, start: int, shape: tuple[int, ...],
          strides: Sequence[int]) -> np.ndarray:
    """A read-only view of the C-contiguous array ``a`` from its flat cell
    ``start``, of ``shape`` and ``strides`` counted in cells."""
    return np.lib.stride_tricks.as_strided(
        a.reshape(-1)[start:], shape, [s * a.itemsize for s in strides],
        writeable=False)


class FreeStripOperator:
    """Transfer over m free rows; states are within-column difference vectors.

    The weight between states U and V is the number of integer column offsets
    delta with |delta + P_i(V) - P_i(U)| <= h for every row i, where P is the
    prefix sum of differences (P_1 = 0); that equals
    max(0, 2h+1 - (max_i D_i - min_i D_i)) with D = P(V) - P(U).

    ``apply`` places the new column n beside the old one o a row at a time,
    each row within h of its old value, and sums x over the old states as
    it goes (site-by-site transfer).  With d the old state's differences
    and e the new one's, the stage of row k leaves an array over
    (e_1, ..., e_{k-1}, J_k, d_{k+1}, ..., d_{m-1}), where the junction
    J_k = o_{k+1} - n_k, in [-2h, 2h], links the two columns:

    - Row 1.  With o_1 = 0 and |n_1| <= h, a window along d_1 turns it into
      J_1 = d_1 - n_1: a running sum R along that axis, then
      F(J) = R(min(J + h, h)) - R(J - h - 1), two slice ops.
    - Rows k = 2, ..., m-1.  Placing n_k, with t = o_k - n_k in [-h, h],
      maps (J_{k-1}, d_k) to (e_{k-1}, J_k) = (J_{k-1} - t, d_k + t), which
      keeps s = J + d = e + J'.  So F_k(e, J') is the sum over |t| <= h of
      F_{k-1}(e + t, J' - t), a window along the anti-diagonal.  It is a
      running sum R along u of the read-only skew view
      G(s, u) = F_{k-1}(J = s + u - h, d = h - u), s in [-3h, 3h] and u in
      [0, 2h], whose strides are (s_J, s_J - s_d).  G reaches J in
      [-4h, 4h], so F_{k-1}'s junction axis carries 2h zero rows at each
      end, which no step writes.  The output is R(e + J', 2h - J') for
      J' >= 0 and R(e + J', 2h) - R(e + J', -J' - 1) for J' < 0: three
      strided views of R, one copy and one subtraction.
    - Row m.  A running sum along J_{m-1}, read at e_{m-1} in [-h, h] by
      two slices, sums the last row's offsets and gives y.  With one row
      there is no array, and W x is (2h+1) x.

    Every view is built once per operator and dtype, on one flat array:
    the unfolded input, which also takes the output, the m-1 stage outputs
    and one running-sum array that all skew stages share.  An apply is
    then the stages, m of them, run by ``_run_stages``, O(cells).

    The apply is folded.  Negating a state reverses its index, and W
    commutes with it, so W maps even vectors (x(-U) = x(U)) to even ones.
    ``_fold_apply`` takes the values of such a vector at the orbit
    representatives, the first ``half`` = (dim + 1)/2 states, unfolds them
    into the input (v, then v[-2::-1]), and keeps the first ``half`` of
    the output; the last stage runs only on the states' e_1 <= 0, which
    hold them.  The arrays are kept in the dtype of the last apply, float
    or int64.  ``state_budget`` bounds ``buffer_cells``, the cells of all
    of them together, before anything is allocated, so an operator holds 8
    bytes per budget cell whatever the size of the integers it counts:
    exact applies run on int64 limbs, one limb to an apply.

    ``apply`` takes an even vector as ``_fold``'s sqrt(orbit)-scaled values
    at its ``half`` representatives (the eigen-solve's vectors) and returns
    W x in the same form; ``_limb_apply``, the one exact apply, takes a
    nonnegative one's plain values there as int64 limbs (the strip DP's).
    """

    kind = "free-strip"
    pinned = False
    # what the state budget counts, as the ResourceLimitError names it
    _held = ("its window stage arrays (its input, one output per row but "
             "the last, with 2h zero rows at both ends of each junction axis "
             "that a skew view reads, and one running sum that the skew "
             "views share)")

    def __init__(self, m: int, h: int, state_budget: int = DEFAULT_BUDGET):
        if m < 1:
            raise ValueError("m must be at least 1")
        if h < 0:
            raise ValueError("h must be nonnegative")
        self.m = m
        self.h = h
        self._axes = m if self.pinned else m - 1
        self.dim = (2 * h + 1) ** self._axes
        self.half = (self.dim + 1) // 2
        # Every step of _fold_apply is a copy, add or subtract, which int64
        # arrays wrap modulo 2^64, so an int64 result is congruent to W x
        # and equals it whenever each |(W x)_i| fits, however large the
        # running sums grow on the way.  A weight is at most 2h+1 (1 when
        # pinned), so a row of W sums to at most that times dim: for
        # |x| < 2^B on every state, with B this limb width,
        # |(W x)_i| < 2^62, and a carry added to it still fits in int64.
        self._limb_bits = 62 - (self.dim * (1 if self.pinned
                                            else 2 * h + 1)).bit_length()
        self.buffer_cells = self._layout()
        if self.buffer_cells > state_budget:
            raise ResourceLimitError(
                f"{self.kind}({m}, {h}) needs {self.buffer_cells} cells for "
                f"{self._held}, over budget {state_budget}")
        cells = max(self.dim, self.buffer_cells)
        if cells > _MAX_CELLS:
            raise ResourceLimitError(
                f"{self.kind}({m}, {h}) needs {cells} cells, more than one "
                f"array can index, whatever the budget")
        self._buffers: np.ndarray | None = None

    def _layout(self) -> int:
        """The cells of the stage arrays, laid out but not allocated: the
        dim-cell input, F_k for k = 1, ..., m-1 with (2h+1)^(m-2) cells per
        junction row, 8h+1 rows while a skew stage reads it and 4h+1 on the
        last, and from three rows the (6h+1)(2h+1)^(m-2)-cell running sum
        of the skew stages."""
        m, h = self.m, self.h
        if m == 1:
            return 0
        self._junctions = [8 * h + 1] * (m - 2) + [4 * h + 1]
        run = 6 * h + 1 if m > 2 else 0
        return self.dim + (sum(self._junctions) + run) * (2 * h + 1) ** (m - 2)

    def _build(self, dtype: np.dtype) -> None:
        """Allocate the stage arrays in ``dtype``, zero, and build the views
        that every apply runs on (see the class docstring)."""
        m, h = self.m, self.h
        n = 2 * h + 1
        self._buffers = None  # free the old arrays before allocating
        cells = np.zeros(self.buffer_cells, dtype)
        x = cells[:self.dim].reshape((n,) * (m - 1))
        F, start = [], self.dim
        for k, rows in enumerate(self._junctions):
            shape = (n,) * k + (rows,) + (n,) * (m - 2 - k)
            F.append(cells[start:start + math.prod(shape)].reshape(shape))
            start += math.prod(shape)
        run = cells[start:]
        # row 1: d_1's running sum into J_1 <= 0, then J_1 > 0 from it
        pad = 2 * h if m > 2 else 0
        low = F[0][pad:pad + 2 * h + 1]
        self._stages = [(x, 0, low, [(F[0][pad + 2 * h + 1:pad + 4 * h + 1],
                                      low[2 * h:2 * h + 1], low[:2 * h])])]
        for k in range(1, m - 1):
            # row k + 1: from F[k - 1], with (J, d) on axes (k - 1, k), to
            # F[k], with (e, J') there
            src, dst = F[k - 1], F[k]
            lead, tail = (n,) * (k - 1), (n,) * (m - 2 - k)
            fs = _cell_strides(src.shape)
            sj, sd = fs[k - 1], fs[k]
            g = _skew(src, 2 * h * sd, lead + (6 * h + 1, n) + tail,
                      fs[:k - 1] + (sj, sj - sd) + fs[k + 1:])
            r = run.reshape(g.shape)
            rs = _cell_strides(r.shape)
            sa, su = rs[k - 1], rs[k]
            pad = 2 * h if k < m - 2 else 0
            cut = (slice(None),) * k
            pos = dst[cut + (slice(pad + 2 * h, pad + 4 * h + 1),)]
            neg = dst[cut + (slice(pad, pad + 2 * h),)]
            diag = rs[:k - 1] + (sa, sa - su) + rs[k + 1:]
            self._stages.append((g, k, r, [
                (pos, _skew(r, 2 * h * (sa + su), pos.shape, diag), None),
                (neg, _skew(r, 2 * h * su, neg.shape,
                            rs[:k - 1] + (sa, sa) + rs[k + 1:]),
                 _skew(r, max(2 * h - 1, 0) * su, neg.shape, diag))]))
        # row m on the states' e_1 <= 0 only, which hold the folded half,
        # into the input's cells
        last, y = (F[-1][:h + 1], x[:h + 1]) if m > 2 else (F[-1], x)
        self._stages.append((last, m - 2, None, [
            (y, last[..., 2 * h:], None),
            (y[..., 1:], y[..., 1:], last[..., :2 * h])]))
        self._buffers = cells

    def prolong(self, x: np.ndarray, h: int) -> np.ndarray:
        """``x``, the ``_fold`` of an even vector over the states of this kind
        and m at ``h``, interpolated onto this operator's states and folded
        (a warm start for the eigen-solve after a solve at ``h``).  Only the
        states of the folded half are interpolated: the leading axis onto
        its rows d_1 <= 0, the other axes on that block, whose first
        ``half`` states in C order are the representatives.

        Each difference step d in [-h, h] sits at the midpoint coordinate
        t = d/(h + 1/2); the map is separable linear interpolation in t,
        clamped at the ends, one gather-and-blend per axis.  A blend
        a + w (b - a) keeps a constant vector exact and a positive one
        positive, and a same-h map is the identity.  Each axis's map
        commutes with negating t, so the interpolated vector is even, and
        its values at the representatives are its fold.  With no axis, or
        from h = 0 (a one-point grid), it returns the folded all-ones
        vector, the cold start.
        """
        axes = self._axes
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
            # the leading axis only onto d_1 <= 0, the rows of the half
            rows = slice(None, self.h + 1 if axis == 0 else None)
            a = y.take(lo[rows], axis)
            wk = w[rows].reshape((-1,) + (1,) * (axes - 1 - axis))
            y = a + wk * (y.take(hi[rows], axis) - a)
        # _fold of the even vector whose first states y holds
        z = y.ravel()[:self.half] * _SQRT2
        z[-1] = y.flat[self.half - 1]
        return z

    def _fold_apply(self, v: np.ndarray) -> np.ndarray:
        """W x at the representatives, in the dtype of v, for the even x
        whose representatives hold the values v."""
        if self.m == 1:
            return v * (2 * self.h + 1)
        if self._buffers is None or self._buffers.dtype != v.dtype:
            self._build(v.dtype)
        self._buffers[:self.half] = v
        self._buffers[self.half:self.dim] = v[-2::-1]
        _run_stages(self._stages)
        return self._buffers[:self.half].copy()

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
        least significant first.  Each limb runs through the int64 arrays,
        and the results are carried back into limbs, with a row appended for
        each carry out of the top.  A negative limb, whose top carry would
        never reach 0, is a ValueError."""
        if (x < 0).any():
            raise ValueError("limbs must be nonnegative")
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
    |z_i - y_i| <= h for all i: one box window per row.

    ``apply`` scatters x to the states' sites on a box lattice, the longest
    axis leading.  Every window is a running-sum difference, so one apply
    costs O(cells).  Each window, the last too, is a stage of
    ``_run_stages``: it turns one of two buffers into its running sum in
    place and writes the window into the other, swapping the two after
    every window, and y is the last window's sum read at the states' sites.

    Up to two rows the box holds y_m, ..., y_1, unpadded.  From three rows
    it is sheared: the top row is held as c = y_m - y_{m-1} on the box
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

    The box is folded.  Negating a state reverses both its index and its
    site, so each representative is scattered to whichever of its site and
    the mirror site is not past the centre cell, and only the flat prefix
    of the box up to the end of the leading axis's centre slab is kept.
    Windows along the other axes run on it unchanged; a window whose reach
    crosses the centre (along the leading axis or the diagonal) reads a
    reflected copy of the cells below the centre appended after it, h of
    its rows past the last cell of the half, which the steps before it
    copy in.  Such a window writes only its rows up to the end of the half,
    all that the next window reads (and band's one window, all the states);
    its running sum still covers its whole reach.  The two buffers,
    ``buffer_cells`` each, are kept in the dtype of the last apply, with
    every window's stage built once for them; ``state_budget`` bounds
    ``buffer_cells`` before anything is allocated.
    """

    kind = "pinned-strip"
    pinned = True
    _held = "each of its two folded box buffers"

    def __init__(self, m: int, h: int, state_budget: int = DEFAULT_BUDGET):
        super().__init__(m, h, state_budget)
        # A state's site is linear in its difference steps: from the centre
        # cell, the site of the all-zero state, step t moves every box axis
        # whose sum holds it by d_t, so it adds d_t times their stride sum.
        # States run in C order over (d_1, ..., d_m), each in [-h, h], so
        # those with d_1 <= 0 hold the first half.
        steps = np.arange(-h, h + 1, dtype=np.int64)
        sites = np.int64(self._size // 2)
        strides = _cell_strides(self._shape)
        for t in range(m):
            reach = sum(s for (a, b), s in zip(self._spans, strides)
                        if a <= t < b)
            sites = np.add.outer(sites, (steps if t else steps[:h + 1])
                                 * reach)
        # A representative is scattered to whichever of its site and the
        # mirror site (size - 1 - site, its negation's) is not past the
        # centre cell.
        rep = np.ravel(sites)[:self.half]
        self._rep = np.minimum(rep, self._size - 1 - rep)

    def _layout(self) -> int:
        """Lay out the box and its windows; the cells of each buffer."""
        m, h = self.m, self.h
        # box axis k holds the sum of difference steps a..b-1, padded by p;
        # from three rows the top row is stored as c, its offset from the
        # row below, on the box (c, y_{m-1}, ..., y_1)
        sheared = m > 2
        if sheared:
            spans = [(m - 1, m, h)] + [(0, k, 0) for k in range(m - 1, 0, -1)]
        else:
            spans = [(0, m - k, 0) for k in range(m)]
        self._spans = [(a, b) for a, b, _ in spans]
        self._shape = tuple(2 * ((b - a) * h + p) + 1 for a, b, p in spans)
        self._size = math.prod(self._shape)
        strides = _cell_strides(self._shape)
        # a window (start, stop, end, shape, axis) reads src[start:stop]
        # viewed as ``shape`` and writes its window sum along ``axis`` into
        # dst[start:end], the leading rows of that view
        slab = strides[0]
        self._half_cells = half = (self._shape[0] // 2 + 1) * slab

        def across(length):
            # a window down the columns of rows of ``length`` cells, across
            # the centre: it reads h rows past the row of the half's last
            # cell, and writes only the rows up to the end of the half, all
            # that the next window reads (it reflects what lies past it)
            rows = (half - 1) // length + h + 1
            return (0, rows * length, -(-half // length) * length,
                    (rows, length), 0)

        # the leading axis's window, then the others on the half
        self._windows = [across(slab)]
        start = 0
        if sheared:
            # the diagonal (c + 1, y_{m-1} - 1), which keeps the top row,
            # then the lower rows on the states' c in [-h, 0]
            self._windows.append(across(max(slab - strides[1], 1)))
            start = h * slab
        box = ((half - start) // slab,) + self._shape[1:]
        self._windows += [(start, half, half, box, k)
                          for k in range(1 + sheared, m)]
        return max(w[1] for w in self._windows)

    def _build(self, dtype: np.dtype) -> None:
        """Allocate the two buffers in ``dtype`` and build every window's
        stage once: its running sum in place over its box, the steps of its
        window sum from one buffer into the other, then the copies of the
        cells past the half that the next window reads (the first window's
        make an entry stage, with no running sum, with the copies that
        complete the centre slab)."""
        self._buffers = None  # free the old pair before allocating
        pair = np.zeros((2, self.buffer_cells), dtype)
        size, half = self._size, self._half_cells

        def reflect(buf, start, stop):
            # the copies that give buf[start:stop], past the centre cell,
            # the box's values there: the mirror cells' below the centre,
            # and 0 past the box's end
            end = min(stop, size)
            steps = [(buf[start:end], buf[size - end:size - start][::-1],
                      None), (buf[end:stop], 0, None)]
            return [step for step in steps if step[0].size]

        # entry steps, with no running sum: the centre slab holds both
        # members of its orbits
        steps = reflect(pair[0], size // 2 + 1, half)
        self._stages = [(None, 0, None, steps)]
        for i, (start, stop, end, shape, axis) in enumerate(self._windows):
            src, dst = pair[i % 2], pair[1 - i % 2]
            box = src[start:stop].reshape(shape)
            # the cells past the half that this window reads, reflected in
            # at the end of the steps before it
            steps.extend(reflect(src, half, stop))
            steps = _window_steps(box, self.h, axis, dst[start:end]
                                  .reshape((-1,) + shape[1:]))
            self._stages.append((box, axis, None, steps))
        self._buffers = pair

    def _fold_apply(self, v: np.ndarray) -> np.ndarray:
        """W x at the representatives, in the dtype of v, for the even x
        whose representatives hold the values v."""
        if self._buffers is None or self._buffers.dtype != v.dtype:
            self._build(v.dtype)
        first = self._buffers[0]
        first[:self._half_cells] = 0
        first[self._rep] = v
        _run_stages(self._stages)
        # the last window's sum, read at the states; fancy indexing copies,
        # so the result never aliases a buffer
        return self._buffers[len(self._windows) % 2][self._rep]


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
    limb (``_limb_apply``), so every apply runs on the int64 stage arrays
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
    least significant first, are the rows of ``x``.  Horner's rule on whole
    rows: an object array of Python ints, shifted and added one limb at a
    time."""
    vals = x[-1].astype(object)
    for row in x[-2::-1]:
        vals <<= bits
        vals += row
    return vals.tolist()


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
