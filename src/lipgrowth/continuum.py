"""Nystrom discretizations of the limiting transfer kernels.

As h grows, the discrete transfer operators converge (after scaling by h) to
integral operators on [-1, 1] or [-1, 1]^2.  Their top eigenvalues come from
the Nystrom method on the midpoint mesh of n = 2h+1 nodes per axis,
x_i = (i - h) * 2/n.  Node differences are integer multiples of the cell
size 2/n, so a kernel window |x - t| <= 1 is the index window |i - j| <= h
and its edge falls midway between two nodes.  No node sits on an edge, so
no covered-fraction boundary patch is needed (at even n a node on the edge
is counted in full, an O(1/n) bias).  Each Nystrom matrix is thus a strip
operator at h times the cell measure (2/n)^m, solved by one power iteration
on that operator's ``apply``:

  band-indicator  1[|x - t| <= 1]                 BandOperator(h)     m = 1
  tent            2 - |x - t|                     TentOperator(h)     m = 2
  zeta            1[|x-s| <= 1] 1[|x+y-s-t| <= 1] PinnedStripOperator(2, h)
  psi             the same, summed over offsets k FreeStripOperator(3, h)

Tent entries are (2 - |i-j| 2/n) 2/n = (2/n)^2 (2h+1 - |i-j|).  zeta's state
(x, y), a first-row value and a within-column difference, is the pinned
strip's pair of difference steps below its zero row, whose prefix sums are
the absolute values (x, x + y), with m = 2; psi's state is the two
within-column differences, with m = 3 for the offset.  A mesh argument n
runs on 2*(n // 2) + 1 nodes, so an even n gains one node, and the
operator's state budget bounds the mesh before allocation.

With no node on an edge, a solver's value v(N) = lambda^(1/m) / (h + 1/2)
has no first-order error in 1/N.  ``kernel_limit`` fits a quadratic in 1/N
to v on the three finest meshes of a doubling ladder of four; the fit's move
from the three coarsest is its error estimate.  That one fit is both the
kernel constant and the strip limit it equals.

  alpha: largest solution of tan(1/x) = x; the tent-kernel eigenvalue is
         2*alpha^2 and the two-row strip grows like alpha*sqrt(2) per vertex.
  beta:  1/r where r is the smallest positive root of cos x + 2 sin x = 2
         (r = arctan(3/4)); the band-kernel eigenvalue.
  zeta:  sqrt of the top eigenvalue of the two-free-row operator below a
         pinned row; upper bound for the square-grid growth constant.
  psi:   cube root of the top eigenvalue of the offset-integrated three-row
         operator; psi^(3/2)/sqrt(2) lower-bounds the square-grid constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .iterate import power_iteration
from .strips import (BandOperator, FreeStripOperator, PinnedStripOperator,
                     TentOperator, extrapolate_limit)

_KERNELS = {"band-indicator": BandOperator, "tent": TentOperator}
_LADDERS = {"band-indicator": (251, 501, 1001, 2001),
            "tent": (251, 501, 1001, 2001),
            "zeta": (17, 33, 65, 129), "psi": (17, 33, 65, 129)}


@dataclass(frozen=True)
class Eigenpair:
    eigenvalue: float
    eigenfunction: np.ndarray  # values on mesh nodes, sup-norm 1


def _kernel_top(make_op: Callable[[int], FreeStripOperator], n: int,
                min_nodes: int):
    """Power iteration (relative tolerance 1e-12) on ``make_op(n // 2)``,
    the mesh of n nodes per axis; eigenvalue scaled by the cell measure."""
    if n < min_nodes:
        raise ValueError(f"mesh needs at least {min_nodes} nodes per axis")
    op = make_op(n // 2)
    lam, vec, _, _ = power_iteration(op.apply, op.ones(), 1e-12, 10**5)
    return lam * (2.0 / (2 * op.h + 1)) ** op.m, vec


def nystrom_top(kind: str, n: int) -> Eigenpair:
    """Top eigenpair of the discretized 1D kernel operator on 2*(n//2)+1 nodes."""
    if kind not in _KERNELS:
        raise ValueError(f"unknown kernel {kind!r}")
    lam, vec = _kernel_top(_KERNELS[kind], n, 8)
    return Eigenpair(lam, vec / np.max(np.abs(vec)))


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
    """1 over the smallest positive root of cos x + 2 sin x = 2.

    The root equals arctan(3/4): cos r = 4/5 and sin r = 3/5 satisfy the
    equation exactly, and the solver cross-checks that identity.
    """
    root = _bisect(lambda x: math.cos(x) + 2.0 * math.sin(x) - 2.0,
                   1e-6, math.pi / 2 - 1e-9, tol=1e-13)
    if abs(root - math.atan(0.75)) > 1e-9:
        raise ArithmeticError(f"root {root} does not match arctan(3/4)")
    return 1.0 / root


def solve_zeta(n: int) -> float:
    """sqrt of the top eigenvalue of the pinned two-row limit operator."""
    return math.sqrt(_kernel_top(partial(PinnedStripOperator, 2), n, 16)[0])


def solve_psi(n: int) -> float:
    """Cube root of the top eigenvalue of the offset-integrated operator."""
    return _kernel_top(partial(FreeStripOperator, 3), n, 16)[0] ** (1.0 / 3.0)


@dataclass(frozen=True)
class KernelLimit:
    """A kernel constant extrapolated N -> infinity on a mesh ladder."""

    value: float    # quadratic fit in 1/N to the three finest meshes
    error: float    # |value - the same fit to the three coarsest|
    slope: float    # the fit's 1/N coefficient, near 0 on midpoint meshes
    meshes: tuple[int, ...]


def kernel_limit(kernel: str) -> KernelLimit:
    """The constant of "band-indicator" or "tent" (Nystrom eigenvalues beta
    and 2 alpha^2), "zeta" or "psi", from its solver on its mesh ladder."""
    if kernel not in _LADDERS:
        raise ValueError(f"unknown kernel {kernel!r}")
    solve = {"zeta": solve_zeta, "psi": solve_psi}.get(
        kernel, lambda n: nystrom_top(kernel, n).eigenvalue)
    pairs = [(n, solve(n)) for n in _LADDERS[kernel]]
    fine, coarse = extrapolate_limit(pairs[-3:]), extrapolate_limit(pairs[:3])
    return KernelLimit(fine.limit, abs(fine.limit - coarse.limit), fine.slope,
                       _LADDERS[kernel])
