"""The eigen-solve shared by the strip operators and the continuum solvers,
and the scalar root finder behind alpha and the giant fraction.

The eigen-solve is a Lanczos iteration with full reorthogonalization
(Lanczos 1950; Saad, Numerical Methods for Large Eigenvalue Problems, ch. 6):
one operator apply per step, the estimate the top eigenvalue of the small
tridiagonal matrix of the basis so far, and the stop when successive
estimates agree to a relative tolerance.  The basis grows on demand up to
``_BASIS_CAP`` vectors; a solve that fills it restarts from its Ritz vector,
so memory stays bounded at that many vectors of the solve's length: for a
strip operator that is its (dim + 1)/2 folded representatives, not its dim
states (``strips.top_eigenvalue``).  Every operator here is
symmetric, with its second eigenvalue 0.4-0.7 of its first, where this
takes far fewer applies than power iteration.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

# most basis vectors a Lanczos solve holds; a full basis restarts
_BASIS_CAP = 20


def power_iteration(apply_fn, x0: np.ndarray, tol: float = 1e-10,
                    max_iter: int = 10**5):
    """Dominant eigenpair of a symmetric nonnegative irreducible operator,
    by a Lanczos iteration that fully reorthogonalizes its basis.

    Returns (eigenvalue, vector, residual, iterations).  Step k applies the
    operator once, orthogonalizes the result against every basis vector and
    takes the top eigenvalue of the k x k tridiagonal T_k as its estimate: a
    Ritz value, the Rayleigh quotient of its Ritz vector, which never
    decreases with k.  The residual is the relative change of successive
    estimates; iteration stops once it drops to ``tol``, or at once, with
    residual 0, when the basis spans an invariant subspace.  The vector is
    the Ritz vector, with unit 2-norm and positive sum; ``iterations``, like
    ``max_iter``, counts applies.  The basis grows one vector per step up to
    ``_BASIS_CAP`` vectors; a full basis restarts from its Ritz vector.

    The name is older than the Lanczos body: callers, work counters and
    the benchmark's tracer all address the solver by it.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    q = np.asarray(x0, dtype=float)
    norm = float(np.linalg.norm(q))
    if norm == 0:
        raise ValueError("starting vector must be nonzero")
    q = q / norm
    basis = []
    # T_k is t[:k, :k], filled one row per step
    t = np.zeros((_BASIS_CAP, _BASIS_CAP))
    theta_prev = residual = None
    for it in range(1, max_iter + 1):
        basis.append(q)
        k = len(basis)
        w = apply_fn(q)
        t[k - 1, k - 1] = alpha = float(np.dot(q, w))
        # w -= (q_j . w) q_j over the whole basis, q_k again too: the
        # three-term recurrence and the reorthogonalization in one modified
        # Gram-Schmidt pass; the first step writes a new array, not into
        # the apply's result
        w = w - alpha * q
        for v in basis:
            w -= np.dot(v, w) * v
        beta = float(np.linalg.norm(w))
        theta = float(np.linalg.eigvalsh(t[:k, :k])[-1])
        if theta <= 0:
            raise ConvergenceError("operator annihilated the iterate",
                                   residual=None, iterations=it)
        # beta_k ~ 0: the basis spans an invariant subspace, theta is exact
        if beta <= 1e-12 * theta:
            return theta, _ritz_vector(basis, t[:k, :k]), 0.0, it
        if theta_prev is not None:
            residual = abs(theta - theta_prev) / theta
            if residual <= tol:
                return theta, _ritz_vector(basis, t[:k, :k]), residual, it
        theta_prev = theta
        if k == _BASIS_CAP:
            # a restart starts a new sequence of estimates: the first
            # repeats the old Ritz value and is compared with nothing
            q = _ritz_vector(basis, t)
            basis = []
            t[:] = 0
            theta_prev = None
        else:
            t[k, k - 1] = t[k - 1, k] = beta
            q = w / beta
    last = ("no second estimate was made" if residual is None
            else f"last residual {residual:.3g}")
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations ({last})",
        residual=residual, iterations=max_iter)


def _ritz_vector(basis, t: np.ndarray) -> np.ndarray:
    """The basis combination of the top eigenvector of T_k = ``t``: unit
    2-norm, sign chosen for a positive sum."""
    s = np.linalg.eigh(t)[1][:, -1]
    y = s[0] * basis[0]
    for c, v in zip(s[1:], basis[1:]):
        y += c * v
    y /= np.linalg.norm(y)
    return -y if y.sum() < 0 else y


def _bisect(f, lo: float, hi: float) -> float:
    """A root of ``f`` on [lo, hi], given f(lo) >= 0: hi when f(hi) >= 0,
    else halving while f(lo) >= 0 >= f(hi) until lo and hi are adjacent
    doubles (about 1100 halvings from [0, 1]), then whichever has the
    smaller |f|, so the error is the rounding of f alone."""
    if f(hi) >= 0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi if abs(f(hi)) <= abs(f(lo)) else lo
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
