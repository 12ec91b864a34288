"""Power iteration, shared by the strip operators and the continuum solvers,
and the window sum behind every strip ``apply``.

The window sum runs in place: it turns its source into a running sum along
one axis and writes the window into a second buffer, so an ``apply`` that
chains windows ping-pongs between two buffers that its operator keeps.
``_running_sum`` alone serves the last window, which an ``apply`` reads
only at its states.
"""
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
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
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


def _running_sum(a: np.ndarray, axis: int) -> None:
    """Overwrite ``a`` with its running sum along ``axis``.

    Along a leading axis this is one vectorised row add per index:
    ``np.cumsum`` would run that axis as its strided inner loop.  Along the
    last axis, or when each index holds a single element, it is
    ``np.cumsum`` itself.  Both add in the same order, so results do not
    depend on which one runs.
    """
    n = a.shape[axis]
    if axis == a.ndim - 1 or a.size == n:
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
    kept, so float, int64 and object (Python int) arrays all run the same
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
