"""Matrix robust PCA by the inexact augmented Lagrangian method.

The baseline the tensor solver is compared against: rpca_slices splits
each frontal slice of a stack on its own.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import _one_blas_thread, shrink
from .solver import SolverConfig


# the default stopping tolerance on the squared relative residual: the square
# of Lin, Chen and Ma's 1e-7 on the unsquared one, which it reproduces
EPSILON = 1e-14


@dataclass
class RpcaResult:
    """Low-rank plus sparse split of a matrix, or of a stack slice by slice."""

    low_rank: np.ndarray
    sparse: np.ndarray
    iterations: int
    converged: bool


def svt(x, tau):
    """Singular value thresholding: shrink the spectrum of x by tau.

    The spectrum comes from one symmetric eigendecomposition of the Gram
    matrix y'y of x's shorter side (y = x, or x' when x is wide):
    y'y = V diag(s^2) V', and for the columns with s > tau the result is
    ((y V) * (1 - tau / s)) V'. U is never formed, and the output does
    not depend on the signs eigh gives V. Rounding in the Gram perturbs
    the result by about eps * s_1^2 / tau. An x with a non-finite entry,
    or whose Frobenius norm squared overflows float64, raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    wide = x.shape[0] < x.shape[1]
    y = x.T if wide else x
    with np.errstate(over="ignore"):
        gram = y.T @ y
    if not np.isfinite(gram).all():
        raise ValueError("the input is non-finite or its squared norm overflows float64")
    d, v = np.linalg.eigh(gram)
    s = np.sqrt(np.maximum(d, 0.0))
    keep = s > tau
    v = v[:, keep]
    out = ((y @ v) * (1.0 - tau / s[keep])) @ v.T
    return out.T if wide else out


def rpca_ialm(x, lam=None, epsilon=EPSILON, max_iter=SolverConfig.max_iter):
    """Split the matrix x into low-rank plus sparse via inexact ALM.

    Alternates singular-value thresholding of the low-rank part,
    shrinkage of the sparse part, and a dual ascent step with growing
    step size, until SolverConfig.stops finds the squared relative
    residual ||X - A - E||_F^2 / ||X||_F^2 at most epsilon. lam, epsilon
    and max_iter are checked as for solve, and lam defaults to
    1/sqrt(max(m, n)): a bad value, a non-matrix or an empty x raises
    ValueError. An all-zero x splits into zeros in 0 passes. Any other x
    whose squared norm overflows or is subnormal raises ValueError.

    Step-size schedule: mu starts at 1.25 / sigma_1(X), grows by 1.5
    each pass, and is capped at 1e7 times its initial value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={x.ndim}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    cfg = SolverConfig(lam=lam, epsilon=epsilon, max_iter=max_iter).resolved(*x.shape)
    with np.errstate(over="ignore"):
        x_sq = np.linalg.norm(x) ** 2
    if np.isinf(x_sq):
        raise ValueError("the Frobenius norm of the input overflows float64; rescale the data")
    if not x.any():
        return RpcaResult(np.zeros_like(x), np.zeros_like(x), 0, True)
    if x_sq < np.finfo(np.float64).tiny:
        raise ValueError("the Frobenius norm of the input underflows float64; rescale the data")
    mu = 1.25 / np.linalg.norm(x, 2)
    mu_cap = mu * 1e7
    rho = 1.5
    sparse = np.zeros_like(x)
    dual = np.zeros_like(x)
    for it in range(1, cfg.max_iter + 1):
        low = svt(x - sparse + dual / mu, 1.0 / mu)
        sparse = shrink(x - low + dual / mu, cfg.lam / mu)
        resid = x - low - sparse
        dual += mu * resid
        mu = min(mu_cap, rho * mu)
        if cfg.stops(np.linalg.norm(resid) ** 2 / x_sq):
            return RpcaResult(low, sparse, it, True)
    return RpcaResult(low, sparse, it, False)


def _usable_cpus():
    # the CPUs this process may run on, where the platform can say
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rpca_slices(x, lam=None, epsilon=EPSILON, max_iter=SolverConfig.max_iter):
    """Run rpca_ialm on every frontal slice of an (m, n, N) stack.

    The result holds the stacked low-rank and sparse parts, the most
    passes any slice took, and whether every slice converged: each slice
    stops on its own, so the stack stops on its worst slice, as in solve.
    An x that is not 3-way or is empty raises ValueError, as in solve.

    The slices are independent, so min(usable CPUs, N) threads, the
    calling thread among them, take them in index order and write each
    result into its place in the stack; with one usable CPU no thread is
    started, and there is no option for it. Like solve, the slices run
    with numpy's bundled OpenBLAS library at one thread, restoring the
    caller's count on return or error: the slice-sized Gram products and
    eigendecompositions of svt run faster unsplit, and they release the
    GIL. The output is bit-identical to a serial loop over the slices,
    whatever the thread counts. Once a slice fails no further slice
    starts, and the error of the lowest-index failing slice is raised,
    the one a serial loop would raise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got ndim={x.ndim}")
    if x.size == 0:
        raise ValueError(f"tensor has an empty dimension: shape={x.shape}")
    low_rank = np.empty_like(x)
    sparse = np.empty_like(x)
    num_slices = x.shape[2]
    iterations = [0] * num_slices
    converged = [True] * num_slices
    errors = {}
    todo = iter(range(num_slices))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if errors else next(todo, None)
            if i is None:
                return
            try:
                result = rpca_ialm(x[:, :, i], lam=lam, epsilon=epsilon, max_iter=max_iter)
            except BaseException as exc:  # raised by the caller below
                with lock:
                    errors[i] = exc
                return
            low_rank[:, :, i] = result.low_rank
            sparse[:, :, i] = result.sparse
            iterations[i], converged[i] = result.iterations, result.converged

    with _one_blas_thread():
        workers = min(_usable_cpus(), num_slices)
        threads = [threading.Thread(target=work) for _ in range(workers - 1)]
        for thread in threads:
            thread.start()
        work()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return RpcaResult(low_rank, sparse, max(iterations), all(converged))
