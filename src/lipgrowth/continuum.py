"""Nystrom discretizations of the limiting transfer kernels.

As h grows, the discrete transfer operators converge (after scaling by h) to
integral operators on [-1, 1] or [-1, 1]^2.  Their top eigenvalues come from
the Nystrom method on the midpoint mesh of n = 2h+1 nodes per axis,
x_i = (i - h) * 2/n.  Node differences are integer multiples of the cell
size 2/n, so a kernel window |x - t| <= 1 is the index window |i - j| <= h
and its edge falls midway between two nodes.  No node sits on an edge, so
no covered-fraction boundary patch is needed (at even n a node on the edge
is counted in full, an O(1/n) bias).  Each Nystrom matrix is thus a strip
operator at h times the cell measure (2/n)^m.  One table, ``_KERNELS``, gives
each kernel its operator at h, the root taken of the scaled eigenvalue, its
fewest mesh nodes per axis and its mesh ladder.  ``nystrom_top(kernel, n)``
solves any of them by one Lanczos solve (``iterate.power_iteration``, its
basis capped at ``_BASIS_CAP`` vectors) on the operator's ``apply`` from
all-ones, and ``kernel_limit(kernel)`` extrapolates it along the ladder,
carrying the Perron vector: each mesh starts from the previous mesh's unit
Ritz vector, interpolated onto its nodes (``prolong``), the
nested-iteration start of multigrid:

  kernel          K                                operator at h   m  root
  band-indicator  1[|x - t| <= 1]                  BandOperator    1  -
  tent            2 - |x - t|                      TentOperator    2  -
  zeta            1[|x-s| <= 1] 1[|x+y-s-t| <= 1]  PinnedStrip(2)  2  sqrt
  psi             the same, summed over offsets k  FreeStrip(3)    3  cbrt

band and tent need 8 nodes and use the ladder N = 251..2001; zeta and psi
need 16 and use N = 17..129.  Tent entries are (2 - |i-j| 2/n) 2/n =
(2/n)^2 (2h+1 - |i-j|).  zeta's state (x, y), a first-row value and a
within-column difference, is the pinned strip's pair of difference steps
below its zero row, whose prefix sums are the absolute values (x, x + y),
with m = 2; psi's state is the two within-column differences, with m = 3 for
the offset.  A mesh argument n runs on 2*(n // 2) + 1 nodes, so an even n
gains one node, and the operator's state budget bounds the mesh before
allocation.

With no node on an edge, ``nystrom_top``'s value (lambda^(1/m) / (h + 1/2),
squared for tent) has no first-order error in 1/N.  ``kernel_limit`` fits a
quadratic in 1/N to it on the three finest meshes of the ladder of four; the
fit's move from the three coarsest is its error estimate.  That one fit is
both the kernel constant and the strip limit it equals.

  alpha: largest solution of tan(1/x) = x; the tent-kernel eigenvalue is
         2*alpha^2 and the two-row strip grows like alpha*sqrt(2) per vertex.
  beta:  1/r where r is the smallest positive root of cos x + 2 sin x = 2
         (r = arctan(3/4) in closed form); the band-kernel eigenvalue.
  zeta:  sqrt of the top eigenvalue of the two-free-row operator below a
         pinned row; upper bound for the square-grid growth constant.
  psi:   cube root of the top eigenvalue of the offset-integrated three-row
         operator; psi^(3/2)/sqrt(2) lower-bounds the square-grid constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .strips import (BandOperator, FreeStripOperator, PinnedStripOperator,
                     SpectralEstimate, TentOperator, extrapolate_limit,
                     top_eigenvalue)

# kernel -> (operator at h, root of the scaled eigenvalue, fewest mesh
# nodes per axis, mesh ladder of kernel_limit)
_KERNELS = {
    "band-indicator": (BandOperator, None, 8, (251, 501, 1001, 2001)),
    "tent": (TentOperator, None, 8, (251, 501, 1001, 2001)),
    "zeta": (partial(PinnedStripOperator, 2), math.sqrt, 16,
             (17, 33, 65, 129)),
    "psi": (partial(FreeStripOperator, 3), lambda lam: lam ** (1.0 / 3.0),
            16, (17, 33, 65, 129)),
}


def nystrom_top(kernel: str, n: int) -> float:
    """The kernel's Nystrom value on 2*(n//2)+1 nodes per axis: a Lanczos
    solve (relative tolerance 1e-12) on its operator at h = n // 2,
    the eigenvalue scaled by the cell measure (2/(2h+1))^m, then rooted
    (square root for zeta, cube root for psi)."""
    return _nystrom(kernel, n)[0]


def _nystrom(kernel: str, n: int, prev: SpectralEstimate | None = None
             ) -> tuple[float, SpectralEstimate]:
    """``nystrom_top``'s value and its solve, started from ``prev``'s Perron
    vector prolonged to this mesh (from all-ones when ``prev`` is None)."""
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    make_op, root, min_nodes, _ = _KERNELS[kernel]
    if n < min_nodes:
        raise ValueError(f"mesh needs at least {min_nodes} nodes per axis")
    op = make_op(n // 2)
    start = None if prev is None else op.prolong(prev.vector, prev.h)
    est = top_eigenvalue(op, 1e-12, 10**5, start)
    lam = est.eigenvalue * (2.0 / (2 * op.h + 1)) ** op.m
    return (root(lam) if root else lam), est


def _bisect(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_alpha() -> float:
    """Largest solution of tan(1/x) = x, by bisection on [1.0, 1.5]."""
    return _bisect(lambda x: math.tan(1.0 / x) - x, 1.0, 1.5, tol=1e-12)


def solve_beta() -> float:
    """1 over the smallest positive root r of cos x + 2 sin x = 2.

    cos x + 2 sin x = sqrt(5) sin(x + atan(1/2)), and sin(atan 2) =
    2/sqrt(5), so the positive roots are x = atan 2 - atan(1/2) = atan(3/4)
    and x = pi - atan 2 - atan(1/2) = pi/2.  Hence r = atan(3/4), with
    cos r = 4/5 and sin r = 3/5.
    """
    return 1.0 / math.atan(0.75)


@dataclass(frozen=True)
class KernelLimit:
    """A kernel constant extrapolated N -> infinity on a mesh ladder."""

    value: float    # quadratic fit in 1/N to the three finest meshes
    error: float    # |value - the same fit to the three coarsest|
    slope: float    # the fit's 1/N coefficient, near 0 on midpoint meshes
    meshes: tuple[int, ...]
    iterations: tuple[int, ...]     # Lanczos applies per mesh, warm-started


def kernel_limit(kernel: str) -> KernelLimit:
    """The constant of "band-indicator" or "tent" (Nystrom eigenvalues beta
    and 2 alpha^2), "zeta" or "psi", from ``nystrom_top`` on its ladder;
    each mesh's solve starts from the previous mesh's Perron vector."""
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    ladder = _KERNELS[kernel][3]
    pairs, iterations, est = [], [], None
    for n in ladder:
        value, est = _nystrom(kernel, n, est)
        pairs.append((n, value))
        iterations.append(est.iterations)
    fine, coarse = extrapolate_limit(pairs[-3:]), extrapolate_limit(pairs[:3])
    return KernelLimit(fine.limit, abs(fine.limit - coarse.limit), fine.slope,
                       ladder, tuple(iterations))
