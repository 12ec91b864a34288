import functools
import math

import numpy as np
import pytest

from helpers import dense_matrix
from lipgrowth.continuum import (kernel_limit, nystrom_top, solve_alpha,
                                 solve_beta)
from lipgrowth.errors import ResourceLimitError
from lipgrowth.iterate import power_iteration
from lipgrowth.strips import (BandOperator, FreeStripOperator,
                              PinnedStripOperator, TentOperator,
                              extrapolate_limit, top_eigenvalue)


def test_alpha():
    a = solve_alpha()
    assert abs(a - 1.16234) <= 1e-5
    assert abs(a * a - 1.351) <= 1e-3
    assert abs(math.tan(1 / a) - a) <= 1e-9


def test_beta():
    b = solve_beta()
    assert abs(b - 1.554) <= 1e-3
    root = 1.0 / b
    assert abs(root - 0.6435011) <= 1e-6
    assert abs(math.cos(root) + 2 * math.sin(root) - 2) <= 1e-9
    # identity: cos r = 4/5, sin r = 3/5
    assert abs(math.cos(root) - 0.8) <= 1e-9
    assert abs(math.sin(root) - 0.6) <= 1e-9


def test_mesh():
    # an even mesh size runs on one node more; the state budget is the cap
    assert nystrom_top("tent", 100) == nystrom_top("tent", 101)
    with pytest.raises(ValueError):
        nystrom_top("band-indicator", 4)
    with pytest.raises(ResourceLimitError):
        nystrom_top("band-indicator", 10**7)
    with pytest.raises(ValueError):
        nystrom_top("gauss", 100)


# kernel -> its operator at h and the root taken of its scaled eigenvalue,
# built by hand
KERNEL_OPERATORS = {
    "band-indicator": (BandOperator, None),
    "tent": (TentOperator, None),
    "zeta": (functools.partial(PinnedStripOperator, 2), math.sqrt),
    "psi": (functools.partial(FreeStripOperator, 3),
            lambda lam: lam ** (1.0 / 3.0)),
}


def test_kernel_table_matches_hand_built_solve():
    # each kernel is its operator at h = n // 2, solved by
    # ``power_iteration`` from all-ones, scaled by the cell measure (2/n)^m and rooted; the table
    # gives the same floats
    n, h = 17, 8
    for kernel, (make_op, root) in KERNEL_OPERATORS.items():
        op = make_op(h)
        lam = power_iteration(op.apply, op.ones(), 1e-12)[0] * (2.0 / n) ** op.m
        assert nystrom_top(kernel, n) == (root(lam) if root else lam), kernel


def test_kernel_ladders_warm_start():
    # kernel_limit starts each mesh from the previous mesh's Perron vector:
    # the first mesh runs the cold solve, the ladder takes fewer iterations
    # in total than cold solves, and the limit is the cold ladder's
    for kernel, (make_op, root) in KERNEL_OPERATORS.items():
        fit = kernel_limit(kernel)
        assert len(fit.iterations) == len(fit.meshes)
        cold = [top_eigenvalue(make_op(n // 2), 1e-12) for n in fit.meshes]
        assert fit.iterations[0] == cold[0].iterations, kernel
        assert sum(fit.iterations) < sum(e.iterations for e in cold), kernel
        values = []
        for n, est in zip(fit.meshes, cold):
            lam = est.eigenvalue * (2.0 / n) ** est.m
            values.append(root(lam) if root else lam)
        limit = extrapolate_limit(list(zip(fit.meshes, values))[-3:]).limit
        assert abs(fit.value - limit) <= 1e-13 * limit, kernel


def test_kernel_invariants():
    # on the midpoint mesh of n = 2h+1 nodes the Nystrom matrices K(x, t) *
    # step are the band and tent operators scaled by step^m
    for h in (4, 8, 16):
        n = 2 * h + 1
        step = 2.0 / n
        dist = np.abs(nodes_of(n)[:, None] - nodes_of(n)[None, :])
        band = (dist <= 1.0) * step
        tent = (2.0 - dist) * step
        assert np.max(np.abs(dense_matrix(BandOperator(h)) * step - band)) \
            <= 1e-12
        assert np.max(np.abs(dense_matrix(TentOperator(h)) * step ** 2
                             - tent)) <= 1e-12


def perron_pair(op):
    """The operator's top eigenvalue and its eigenvector scaled to sup-norm
    1, from the eigen-solve that ``nystrom_top`` runs."""
    lam, vec, _, _ = power_iteration(op.apply, op.ones(), 1e-12)
    return lam, vec / np.max(np.abs(vec))


def test_nystrom_band():
    band = nystrom_top("band-indicator", 2000)
    assert abs(band - solve_beta()) <= 5e-4
    # Perron eigenfunction on the same 2001 nodes: strictly positive, even,
    # and an eigenvector of the operator
    op = BandOperator(1000)
    lam, f = perron_pair(op)
    assert lam * (2.0 / 2001) == band
    assert np.all(f > 0)
    assert np.max(np.abs(f - f[::-1])) <= 1e-6
    assert np.max(np.abs(op.apply(f) - lam * f)) <= 1e-7 * lam


def test_nystrom_tent():
    alpha = solve_alpha()
    tent = nystrom_top("tent", 2000)
    assert abs(tent - 2 * alpha * alpha) <= 5e-4
    # closed-form relation lam = 2/gamma^2 with tan(gamma) = 1/gamma
    gamma = math.sqrt(2.0 / tent)
    assert abs(math.tan(gamma) - 1 / gamma) <= 1e-4
    # cosine-shaped on the same 2001 nodes: even, positive, maximal at the
    # centre
    lam, f = perron_pair(TentOperator(1000))
    assert lam * (2.0 / 2001) ** 2 == tent
    n = len(f)
    assert np.all(f > 0)
    assert np.max(np.abs(f - f[::-1])) <= 1e-6
    assert abs(int(np.argmax(f)) - n // 2) <= 1
    ref = np.cos(nodes_of(n) / alpha)
    assert np.max(np.abs(f - ref / ref.max())) <= 1e-3


def nodes_of(n):
    return -1.0 + (np.arange(n) + 0.5) * (2.0 / n)


def test_discrete_continuum_consistency():
    # strip operators at large h agree with the kernel eigenvalues to 1e-2
    beta_pairs = [(h, top_eigenvalue(BandOperator(h), 1e-12).normalized)
                  for h in (100, 200, 400)]
    band_limit = extrapolate_limit(beta_pairs).limit
    assert abs(band_limit - nystrom_top("band-indicator", 1000)) <= 1e-2

    tent_pairs = [(h, top_eigenvalue(FreeStripOperator(2, h), 1e-12).normalized)
                  for h in (100, 200, 400)]
    tent_limit = extrapolate_limit(tent_pairs).limit
    lam = nystrom_top("tent", 1000)
    assert abs(tent_limit - math.sqrt(lam)) <= 1e-2


def pinned_pair_apply(b):
    """The zeta quadrature on the pinned strip: b[u, v] holds first-row
    value u and difference v, which is the C order of the strip's states."""
    n = b.shape[0]
    op = PinnedStripOperator(2, n // 2)
    return op.apply(b.ravel()).reshape(n, n) * (2.0 / n) ** 2


def test_zeta_sweep_matches_naive_quadrature():
    n = 17
    step = 2.0 / n
    nodes = nodes_of(n)
    rng = np.random.default_rng(1)
    b = rng.random((n, n))
    naive = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for u in range(n):
                if abs(nodes[i] - nodes[u]) > 1:
                    continue
                for v in range(n):
                    if abs(nodes[i] + nodes[j] - nodes[u] - nodes[v]) <= 1:
                        acc += b[u, v]
            naive[i, j] = acc * step * step
    assert np.max(np.abs(pinned_pair_apply(b) - naive)) <= 1e-12


def test_psi_sweep_matches_naive_quadrature():
    n = 17
    step = 2.0 / n
    nodes = nodes_of(n)
    rng = np.random.default_rng(2)
    b = rng.random((n, n))
    naive = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                for u in range(n):
                    if abs(nodes[i] - nodes[u] - nodes[k]) > 1:
                        continue
                    for v in range(n):
                        if abs(nodes[i] + nodes[j] - nodes[u] - nodes[v]
                               - nodes[k]) <= 1:
                            acc += b[u, v]
            naive[i, j] = acc * step ** 3
    # the offset-integrated quadrature is free-strip(3) on difference states
    op = FreeStripOperator(3, n // 2)
    fast = op.apply(b.ravel()).reshape(n, n) * step ** 3
    assert np.max(np.abs(fast - naive)) <= 1e-12


def test_zeta_value_and_convergence():
    z32, z64, z128 = (nystrom_top("zeta", n) for n in (32, 64, 128))
    assert abs(z64 - 1.4895) <= 0.02
    # odd meshes put no node on a window edge, so successive differences
    # shrink faster than first order (by about a quarter)
    assert abs(z128 - z64) <= 0.55 * abs(z64 - z32)


def test_zeta_eigenfunction_posteriori_checks():
    # no symmetry is imposed by the solver; the converged Perron vector is
    # checked afterwards on every state: strictly positive and invariant
    # under full negation, which reverses the state order
    op = PinnedStripOperator(2, 24)
    _, vec, _, _ = power_iteration(op.apply, op.ones(), 1e-13)
    assert np.all(vec > 0)
    assert np.max(np.abs(vec - vec[::-1])) <= 1e-8


def test_zeta_cross_check_pinned_strip():
    pairs = [(h, top_eigenvalue(PinnedStripOperator(2, h), 1e-12).normalized)
             for h in (10, 15, 20)]
    limit = extrapolate_limit(pairs).limit
    assert abs(nystrom_top("zeta", 64) - limit) <= 0.02


def test_zeta_mesh_parity_bias():
    # an even mesh puts nodes on the window edge |x - s| = 1 and biased
    # zeta(64) to 1.5027; on 65 nodes it agrees with the reference and with
    # the pinned-strip extrapolation
    z64 = nystrom_top("zeta", 64)
    pairs = [(h, top_eigenvalue(PinnedStripOperator(2, h), 1e-12).normalized)
             for h in (10, 15, 20)]
    assert abs(z64 - 1.4895) <= 1e-3
    assert abs(z64 - extrapolate_limit(pairs).limit) <= 1e-3


def test_psi_value_and_bound():
    p32 = nystrom_top("psi", 32)
    assert abs(p32 - 1.553) <= 0.02
    assert abs(p32 ** 1.5 / math.sqrt(2) - 1.3685) <= 0.02


def test_psi_cross_check_free_strip():
    pairs = [(h, top_eigenvalue(FreeStripOperator(3, h), 1e-12).normalized)
             for h in (10, 15, 20)]
    limit = extrapolate_limit(pairs).limit
    assert abs(nystrom_top("psi", 32) - limit) <= 0.02


def test_kernel_limit():
    # band and tent land on their closed forms, inside the error estimate
    alpha = solve_alpha()
    for kernel, exact in (("band-indicator", 1 / math.atan(0.75)),
                          ("tent", 2 * alpha * alpha)):
        fit = kernel_limit(kernel)
        assert fit.meshes == (251, 501, 1001, 2001)
        assert abs(fit.value - exact) <= 1e-10
        assert abs(fit.value - exact) <= fit.error
        # a first-order error (lambda^(1/m)/h has one) would show as a 1/N
        # coefficient of order one; the midpoint meshes have none
        assert abs(fit.slope) <= 1e-5
    # zeta and psi have no closed form; v(N) falls toward the limit
    for kernel in ("zeta", "psi"):
        fit = kernel_limit(kernel)
        assert fit.meshes == (17, 33, 65, 129)
        assert fit.error <= 1e-6
        assert fit.value < nystrom_top(kernel, fit.meshes[-1])
        assert abs(fit.slope) <= 1e-5
    with pytest.raises(ValueError):
        kernel_limit("gauss")


def test_solver_preconditions():
    with pytest.raises(ValueError):
        nystrom_top("zeta", 8)
    with pytest.raises(ValueError):
        nystrom_top("psi", 8)
    with pytest.raises(ResourceLimitError):
        nystrom_top("psi", 8192)


def test_constants_in_growth_window():
    alpha = solve_alpha()
    for value in (alpha * math.sqrt(2), solve_beta(), alpha * alpha,
                  nystrom_top("zeta", 32), nystrom_top("psi", 16)):
        assert 1.0 <= value <= 2.0

