"""Power iteration, shared by the strip operators and the continuum solvers,
and the window sum behind every strip ``apply``."""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError


def power_iteration(apply_fn, x0: np.ndarray, tol: float = 1e-10,
                    max_iter: int = 10**5):
    """Dominant eigenpair of a nonnegative irreducible operator.

    Returns (eigenvalue, vector, residual, iterations).  The residual is the
    relative change of successive Rayleigh quotients; iteration stops once it
    drops to ``tol``.  The returned vector has unit 2-norm.
    """
    x = np.asarray(x0, dtype=float)
    norm = float(np.sqrt(np.vdot(x, x).real))
    if norm == 0:
        raise ValueError("starting vector must be nonzero")
    x = x / norm
    lam_prev = None
    residual = None
    for it in range(1, max_iter + 1):
        y = apply_fn(x)
        lam = float(np.vdot(x, y).real)
        ynorm = float(np.sqrt(np.vdot(y, y).real))
        if ynorm == 0 or lam <= 0:
            raise ConvergenceError("operator annihilated the iterate",
                                   residual=None, iterations=it)
        x = y / ynorm
        if lam_prev is not None:
            residual = abs(lam - lam_prev) / abs(lam)
            if residual <= tol:
                return lam, x, residual, it
        lam_prev = lam
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations (last residual {residual})",
        residual=residual, iterations=max_iter)


def _window_sum(arr: np.ndarray, half: int, axis: int) -> np.ndarray:
    """Sum over the window [j - half, j + half] along ``axis``, zero outside.

    One cumulative sum and two gathers; the dtype of ``arr`` is kept, so
    float, int64 and object (Python int) arrays all run the same code.
    """
    n = arr.shape[axis]
    lead = list(arr.shape)
    lead[axis] = 1
    c = np.cumsum(np.concatenate([np.zeros(lead, arr.dtype), arr], axis), axis)
    j = np.arange(n)
    return (np.take(c, np.minimum(j + half + 1, n), axis)
            - np.take(c, np.maximum(j - half, 0), axis))
