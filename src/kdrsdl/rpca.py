"""Matrix robust PCA by the inexact augmented Lagrangian method.

The baseline the tensor solver is compared against: rpca_slices splits
each frontal slice of a stack on its own.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _one_blas_thread, shrink, thin_svd


@dataclass
class RpcaResult:
    """Low-rank plus sparse split of a matrix, or of a stack slice by slice."""

    low_rank: np.ndarray
    sparse: np.ndarray
    iterations: int
    converged: bool


def svt(x, tau):
    """Singular value thresholding: shrink the spectrum of x by tau."""
    u, s, v = thin_svd(x)
    return (u * shrink(s, tau)) @ v.T


def default_lam(m, n):
    """The default sparsity weight 1/sqrt(max(m, n)) for an m x n matrix."""
    return 1.0 / np.sqrt(max(m, n))


def rpca_ialm(x, lam=None, epsilon=1e-7, max_iter=1000):
    """Split x into low-rank plus sparse via inexact ALM.

    Alternates singular-value thresholding of the low-rank part,
    shrinkage of the sparse part, and a dual ascent step with growing
    step size, until ||X - A - E||_F / ||X||_F falls below epsilon.
    lam defaults to 1/sqrt(max(m, n)). An x whose Frobenius norm
    overflows float64 raises ValueError.

    Step-size schedule: mu starts at 1.25 / sigma_1(X), grows by 1.5
    each pass, and is capped at 1e7 times its initial value.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    m, n = x.shape
    if lam is None:
        lam = default_lam(m, n)
    with np.errstate(over="ignore"):
        x_norm = np.linalg.norm(x)
    if np.isinf(x_norm):
        raise ValueError("the Frobenius norm of the input overflows float64; rescale the data")
    if x_norm == 0:
        return RpcaResult(np.zeros_like(x), np.zeros_like(x), 0, True)
    mu = 1.25 / np.linalg.norm(x, 2)
    mu_cap = mu * 1e7
    rho = 1.5
    low = np.zeros_like(x)
    sparse = np.zeros_like(x)
    dual = np.zeros_like(x)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        low = svt(x - sparse + dual / mu, 1.0 / mu)
        sparse = shrink(x - low + dual / mu, lam / mu)
        resid = x - low - sparse
        dual += mu * resid
        mu = min(mu_cap, rho * mu)
        if np.linalg.norm(resid) / x_norm <= epsilon:
            converged = True
            break
    return RpcaResult(low, sparse, it, converged)


def rpca_slices(x, lam=None, epsilon=1e-7, max_iter=1000):
    """Run rpca_ialm on every frontal slice of an (m, n, N) stack.

    The result holds the stacked low-rank and sparse parts, the most
    passes any slice took, and whether every slice converged.

    Like solve, the loop runs with numpy's bundled OpenBLAS library at
    one thread and restores the caller's count on return or error:
    slice-sized SVDs run faster unsplit, and the output bits do not
    depend on the caller's thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    low_rank = np.empty_like(x)
    sparse = np.empty_like(x)
    iterations = 0
    converged = True
    with _one_blas_thread():
        for i in range(x.shape[2]):
            result = rpca_ialm(x[:, :, i], lam=lam, epsilon=epsilon, max_iter=max_iter)
            low_rank[:, :, i] = result.low_rank
            sparse[:, :, i] = result.sparse
            iterations = max(iterations, result.iterations)
            converged = converged and result.converged
    return RpcaResult(low_rank, sparse, iterations, converged)
