"""Quadrature discretizations of the limiting transfer kernels.

As h grows, the discrete transfer operators converge (after scaling by h) to
integral operators on [-1, 1] or [-1, 1]^2.  This module computes their top
eigenvalues with the Nystrom method on a uniform midpoint mesh, along with
the closed-form constants obtained by root finding:

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

import numpy as np

from .errors import ResourceLimitError
from .iterate import _window_sum, power_iteration

MAX_MESH = 4096


@dataclass(frozen=True)
class Mesh1D:
    """Uniform midpoint rule on [-1, 1]: positive weights summing to 2."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray


def midpoint_mesh(n: int) -> Mesh1D:
    if n < 8:
        raise ValueError("mesh needs at least 8 nodes")
    if n > MAX_MESH:
        raise ResourceLimitError(f"mesh size {n} exceeds cap {MAX_MESH}")
    step = 2.0 / n
    nodes = -1.0 + (np.arange(n) + 0.5) * step
    return Mesh1D(n, nodes, np.full(n, step))


def kernel_matrix(kind: str, mesh: Mesh1D) -> np.ndarray:
    """Quadrature matrix K(x_i, t_j) * w_j for a 1D kernel on [-1, 1]^2.

    band-indicator: K = 1 iff |x - t| <= 1.  Cells straddling the boundary
    enter with their covered fraction (half weight at an exact hit), which
    removes the dominant O(1/N) boundary error of the midpoint rule.
    tent: K = 2 - |x - t|, continuous, no boundary handling needed.
    """
    dist = np.abs(mesh.nodes[:, None] - mesh.nodes[None, :])
    step = 2.0 / mesh.n
    if kind == "band-indicator":
        coverage = np.clip((1.0 - dist) / step + 0.5, 0.0, 1.0)
        return coverage * mesh.weights[None, :]
    if kind == "tent":
        return (2.0 - dist) * mesh.weights[None, :]
    raise ValueError(f"unknown kernel {kind!r}")


@dataclass(frozen=True)
class Eigenpair:
    eigenvalue: float
    eigenfunction: np.ndarray  # values on mesh nodes, sup-norm 1
    residual: float
    iterations: int


def nystrom_top(kind: str, mesh: Mesh1D | int, tol: float = 1e-12,
                max_iter: int = 10**5) -> Eigenpair:
    """Top eigenpair of the discretized kernel operator by power iteration."""
    if isinstance(mesh, int):
        mesh = midpoint_mesh(mesh)
    K = kernel_matrix(kind, mesh)
    lam, vec, residual, iters = power_iteration(
        lambda x: K @ x, np.ones(mesh.n), tol, max_iter)
    vec = vec / np.max(np.abs(vec))
    if vec[mesh.n // 2] < 0:
        vec = -vec
    return Eigenpair(lam, vec, residual, iters)


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


def _shear_embed(b: np.ndarray) -> np.ndarray:
    """Relabel b(s, t) as B(u, w) with u = s-index i and w-index i + j.

    On the midpoint grid, s + t lives on a lattice with the same spacing, so
    the pair constraints |x - s| <= 1 and |x + y - s - t| <= 1 become an
    axis-aligned box in (u, w) coordinates.
    """
    n = b.shape[0]
    out = np.zeros((n, 2 * n - 1))
    rows = np.arange(n)[:, None]
    out[rows, rows + np.arange(n)[None, :]] = b
    return out


def _box_sum_table(B: np.ndarray) -> np.ndarray:
    """Inclusive 2D prefix sums with a zero border row/column."""
    S = np.zeros((B.shape[0] + 1, B.shape[1] + 1))
    S[1:, 1:] = np.cumsum(np.cumsum(B, axis=0), axis=1)
    return S


def _pinned_pair_apply(b: np.ndarray) -> np.ndarray:
    """One sweep of the operator behind zeta on an N x N midpoint grid.

    Output(x, y) integrates b over the cells whose centers satisfy
    |x - s| <= 1 and |x + y - s - t| <= 1; membership is evaluated at cell
    centers only.  In sheared coordinates both constraints are windows of
    half-width N//2 cells, so the sweep is two sliding sums plus a gather.
    """
    n = b.shape[0]
    half = n // 2
    B = _shear_embed(b)
    C = _window_sum(_window_sum(B, half, 0), half, 1)
    rows = np.arange(n)[:, None]
    area = (2.0 / n) ** 2
    return C[rows, rows + np.arange(n)[None, :]] * area


def solve_zeta(n: int, tol: float = 1e-12, max_iter: int = 10**5) -> float:
    """sqrt of the top eigenvalue of the pinned two-row limit operator."""
    if n < 16:
        raise ValueError("mesh needs at least 16 nodes per axis")
    if n > MAX_MESH:
        raise ResourceLimitError(f"mesh size {n} exceeds cap {MAX_MESH}")
    lam, _, _, _ = power_iteration(_pinned_pair_apply, np.ones((n, n)),
                                   tol, max_iter)
    return math.sqrt(lam)


def _offset_triple_apply(b: np.ndarray) -> np.ndarray:
    """One sweep of the operator behind psi.

    For each offset cell k the constraints |x - s - k| <= 1 and
    |x + y - s - t - k| <= 1 select, at cell centers, index windows of
    length exactly N (the half-integer shift leaves no boundary ties).  In
    sheared coordinates the window corner moves diagonally with k, so the
    k-sum collapses to window sums along the diagonals of the corner table.
    """
    n = b.shape[0]
    S = _box_sum_table(_shear_embed(b))

    # D[a, j] = sum of B over u in [a, a+n-1], w in [a+j, a+j+n-1]
    a = np.arange(-n + 1, n)[:, None]
    j = np.arange(n)[None, :]
    u1 = np.clip(a, 0, n)
    u2 = np.clip(a + n, 0, n)
    w1 = np.clip(a + j, 0, 2 * n - 1)
    w2 = np.clip(a + j + n, 0, 2 * n - 1)
    D = S[u2, w2] - S[u1, w2] - S[u2, w1] + S[u1, w1]

    P = np.vstack([np.zeros((1, n)), np.cumsum(D, axis=0)])
    # output(i, j) sums D[a, j] over a in [i-n+1, i]; row index shift n-1
    i = np.arange(n)
    out = P[i + n] - P[i]
    return out * (2.0 / n) ** 3


def solve_psi(n: int, tol: float = 1e-12, max_iter: int = 10**5) -> float:
    """Cube root of the top eigenvalue of the offset-integrated operator."""
    if n < 16:
        raise ValueError("mesh needs at least 16 nodes per axis")
    if n > MAX_MESH:
        raise ResourceLimitError(f"mesh size {n} exceeds cap {MAX_MESH}")
    lam, _, _, _ = power_iteration(_offset_triple_apply, np.ones((n, n)),
                                   tol, max_iter)
    return lam ** (1.0 / 3.0)


@dataclass(frozen=True)
class GridBounds:
    """Bounds on the limiting growth constant of large square grids."""

    lower_base: float       # alpha^2
    upper_base: float       # beta = 1/arctan(3/4)
    lower_improved: float   # psi^(3/2)/sqrt(2)
    upper_improved: float   # zeta
    provenance: tuple[tuple[str, str], ...]


def grid_bound_report(zeta_mesh: int = 64, psi_mesh: int = 32,
                      zeta: float | None = None,
                      psi: float | None = None) -> GridBounds:
    """Base and improved (lower, upper) bounds with provenance labels."""
    alpha = solve_alpha()
    beta = solve_beta()
    if zeta is None:
        zeta = solve_zeta(zeta_mesh)
    if psi is None:
        psi = solve_psi(psi_mesh)
    return GridBounds(
        lower_base=alpha ** 2,
        upper_base=beta,
        lower_improved=psi ** 1.5 / math.sqrt(2.0),
        upper_improved=zeta,
        provenance=(
            ("lower_base", "alpha^2, two-row Rayleigh argument"),
            ("upper_base", "1/arctan(3/4), one-row band kernel"),
            ("lower_improved", "psi^(3/2)/sqrt(2), three-row operator"),
            ("upper_improved", "zeta, pinned two-row operator"),
        ))
