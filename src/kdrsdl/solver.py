"""ADMM solver for the Kronecker-decomposable robust decomposition.

Given an observation tensor X of N frontal slices, recovers bases A
(m x r) and B (n x r), a core tensor R of r x r slices, and a sparse
outlier tensor E such that X ~= R x1 A x2 B + E. A split variable K with
the constraint K = R gives exact proximal steps for the core; dual
tensors track the reconstruction and split constraints with growing step
sizes mu and mu_k.

One pass updates, in order: the outliers E by shrinkage, the basis A,
the basis B (using the new A), every split slice K_i through a Stein
equation, the core R by shrinkage, then both duals and the step sizes.
Each step is an exact minimizer of the augmented Lagrangian in its own
block.

All tensors stay in the canonical layout of the tensor module, so each
contraction of a pass is one GEMM on a free reshape or one batched
matmul of small slices. A pass costs three low-rank rebuilds (outliers,
dual step, residual check) and two products with the weighted data
W = mu (X - E) + Lambda: one for the A target and the projection
W_i.T @ A that both the B target and the split update reuse. W is formed
once per pass, and elementwise updates reuse the buffers they read, so a
pass holds at most five data-sized tensors at once.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .linalg import _one_blas_thread, shrink, solve_gram_system, solve_stein, thin_svd
from .rpca import default_lam
from .tensor import as_tensor, reconstruct, slice_norms

TINY_DENOM = 1e-300
ZERO_NORM_WARNING = "zero-norm slices in the convergence denominators"


class SolverError(RuntimeError):
    """Numerical failure inside the iteration, with the partial trace."""

    def __init__(self, message, iteration, trace):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters.

    r and lam default to None and are resolved against the data: r
    becomes min(m, n) and lam becomes 1/sqrt(max(m, n)). alpha weights
    the core sparsity, eta scales the initial dual step sizes, rho > 1
    grows them each pass, and mu_cap_factor bounds them at
    mu_cap_factor times their initial values. Iteration stops when the
    worst-slice squared relative residuals of both constraints drop
    below epsilon, or at max_iter.
    """

    r: int | None = None
    lam: float | None = None
    alpha: float = 1e-2
    eta: float = 1.25
    rho: float = 1.2
    mu_cap_factor: float = 1e7
    epsilon: float = 1e-7
    max_iter: int = 1000

    def resolved(self, m, n):
        """Fill the data-dependent defaults for m x n slices and validate."""
        r = min(m, n) if self.r is None else self.r
        lam = default_lam(m, n) if self.lam is None else self.lam
        cfg = replace(self, r=r, lam=lam)
        if not 1 <= r <= min(m, n):
            raise ValueError(f"need 1 <= r <= min(m, n) = {min(m, n)}, got r={r}")
        if lam <= 0 or cfg.alpha <= 0 or cfg.eta <= 0:
            raise ValueError("lam, alpha and eta must be positive")
        if cfg.rho <= 1:
            raise ValueError(f"rho must exceed 1, got {cfg.rho}")
        if cfg.mu_cap_factor < 1:
            raise ValueError("mu_cap_factor must be at least 1")
        if cfg.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {cfg.epsilon}")
        if cfg.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {cfg.max_iter}")
        return cfg


@dataclass
class SolverState:
    """All iterates of one run: factors, duals, step sizes, pass count."""

    a: np.ndarray            # m x r basis
    b: np.ndarray            # n x r basis
    core: np.ndarray         # r x r x N sparse core R
    split: np.ndarray        # r x r x N split variable K
    outliers: np.ndarray     # m x n x N sparse outliers E
    dual_rec: np.ndarray     # m x n x N dual of the reconstruction constraint
    dual_split: np.ndarray   # r x r x N dual of the split constraint
    mu: float
    mu_k: float
    mu_cap: float
    mu_k_cap: float
    iteration: int = 0


@dataclass
class Factorization:
    """Result of a solve: factors, outliers and the convergence trace.

    trace has one row per pass with columns (err_rec, err_split, mu,
    mu_k), where the step sizes are those used during the pass.
    """

    a: np.ndarray
    b: np.ndarray
    core: np.ndarray
    outliers: np.ndarray
    trace: np.ndarray
    converged: bool
    iterations: int

    def low_rank(self):
        """The low-rank component, slices a @ R_i @ b.T."""
        return reconstruct(self.core, self.a, self.b)


def initialize(x, config):
    """Build the starting state from per-slice SVDs.

    Each slice contributes its leading r left/right singular vectors to
    running means for A and B, and its leading singular values to a
    diagonal core slice. Columns belonging to exactly-zero singular
    values are zeroed out. Initial step sizes are eta * N divided by the
    total slice norm of X (resp. of the core), capped at mu_cap_factor
    times that.
    """
    m, n, num = x.shape
    r = config.r
    a_sum = np.zeros((m, r))
    b_sum = np.zeros((n, r))
    core = np.zeros((r, r, num), order="F")
    for i in range(num):
        u, s, v = thin_svd(x[:, :, i])
        u_r = u[:, :r].copy()
        v_r = v[:, :r].copy()
        s_r = s[:r].copy()
        dead = s_r == 0.0
        if dead.any():
            u_r[:, dead] = 0.0
            v_r[:, dead] = 0.0
        a_sum += u_r
        b_sum += v_r
        core[:, :, i] = np.diag(s_r)
    x_total = slice_norms(x).sum()
    core_total = slice_norms(core).sum()
    mu = config.eta * num / x_total if x_total > 0 else config.eta
    mu_k = config.eta * num / core_total if core_total > 0 else config.eta
    return SolverState(
        a=a_sum / num,
        b=b_sum / num,
        core=core,
        split=core.copy(),
        outliers=np.zeros_like(x),
        dual_rec=np.zeros_like(x),
        dual_split=np.zeros_like(core),
        mu=mu,
        mu_k=mu_k,
        mu_cap=mu * config.mu_cap_factor,
        mu_k_cap=mu_k * config.mu_cap_factor,
    )


def _update_outliers(x, a, b, split, dual_rec, mu, lam):
    resid = reconstruct(split, a, b)
    np.subtract(x, resid, out=resid)
    resid += dual_rec / mu
    return shrink(resid, lam / mu)


def _weighted(x_fit, dual_rec, mu):
    # W = mu (X - E) + Lambda, the data of both basis targets and the split
    # update, computed in place in x_fit
    x_fit *= mu
    x_fit += dual_rec
    return x_fit


def _project(w, a):
    # slices W_i.T @ a as one (N*n x m) @ (m x r) GEMM, stacked (N, n, r)
    m, n, num = w.shape
    return (w.T.reshape(num * n, m) @ a).reshape(num, n, -1)


def _gram(stack, g):
    # sum_i S_i.T @ g @ S_i over a (N, p, r) stack, g symmetric, as one GEMM
    num, p, r = stack.shape
    return (g @ stack).reshape(num * p, r).T @ stack.reshape(num * p, r)


def _target_a(w, b, split):
    # sum_i W_i @ (b @ K_i.T) as one (m x N*n) @ (N*n x r) GEMM
    m, n, num = w.shape
    bk = b @ split.T                                     # slices b @ K_i.T
    return w.reshape(m, n * num, order="F") @ bk.reshape(num * n, -1)


def _target_b(wa, split):
    # sum_i (W_i.T @ a) @ K_i as one (n x N*r) @ (N*r x r) GEMM, wa = W.T a
    num, n, r = wa.shape
    k = split.transpose(2, 0, 1).reshape(num * r, -1)    # K_i stacked by rows
    return wa.transpose(1, 0, 2).reshape(n, num * r) @ k


def _basis_a(w, b, split, mu):
    # A (I + mu sum_i K_i b.T b K_i.T) = sum_i W_i b K_i.T
    gram = _gram(split.T, b.T @ b)
    return solve_gram_system(_target_a(w, b, split), np.eye(len(gram)) + mu * gram)


def _basis_b(wa, split, a, mu):
    # B (I + mu sum_i K_i.T a.T a K_i) = sum_i W_i.T a K_i
    gram = _gram(split.transpose(2, 0, 1), a.T @ a)
    return solve_gram_system(_target_b(wa, split), np.eye(len(gram)) + mu * gram)


def _split(wa, a, b, core, dual_split, mu, mu_k):
    inner = (b.T @ wa).T                                 # slices a.T @ W_i @ b
    rhs = (inner + dual_split) / mu_k + core
    return solve_stein(-(mu / mu_k) * (a.T @ a), b.T @ b, rhs)


def _update_core(split, dual_split, mu_k, alpha):
    return shrink(split - dual_split / mu_k, alpha / mu_k)


def iterate(state, x, config):
    """Run one full pass and return the advanced state.

    W = mu (X - E) + Lambda is formed once, and its projection W_i.T @ A
    feeds both the B update and the split update. Numerical failures in
    the basis or split updates are re-raised as SolverError carrying the
    pass number.
    """
    mu, mu_k = state.mu, state.mu_k
    try:
        e = _update_outliers(
            x, state.a, state.b, state.split, state.dual_rec, mu, config.lam
        )
        w = _weighted(x - e, state.dual_rec, mu)
        a = _basis_a(w, state.b, state.split, mu)
        wa = _project(w, a)
        del w  # freed before the dual step's rebuild, to bound the pass's memory
        b = _basis_b(wa, state.split, a, mu)
        k = _split(wa, a, b, state.core, state.dual_split, mu, mu_k)
        core = _update_core(k, state.dual_split, mu_k, config.alpha)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"iteration {state.iteration + 1}: {exc}", state.iteration + 1, None
        ) from exc
    # Lambda + mu (X - E - a K_i b.T), accumulated in the rebuilt tensor
    dual_rec = reconstruct(k, a, b)
    np.subtract(x, dual_rec, out=dual_rec)
    dual_rec -= e
    dual_rec *= mu
    dual_rec += state.dual_rec
    dual_split = state.dual_split + mu_k * (core - k)
    return SolverState(
        a=a,
        b=b,
        core=core,
        split=k,
        outliers=e,
        dual_rec=dual_rec,
        dual_split=dual_split,
        mu=min(state.mu_cap, config.rho * mu),
        mu_k=min(state.mu_k_cap, config.rho * mu_k),
        mu_cap=state.mu_cap,
        mu_k_cap=state.mu_k_cap,
        iteration=state.iteration + 1,
    )


def _residuals(state, x, x_sq):
    # (err_rec, err_split, whether a denominator is zero), given x_sq, the
    # squared slice norms of x
    resid = reconstruct(state.core, state.a, state.b)
    np.subtract(x, resid, out=resid)
    resid -= state.outliers
    resid_sq = slice_norms(resid) ** 2
    core_sq = slice_norms(state.core) ** 2
    gap_sq = slice_norms(state.core - state.split) ** 2
    err_rec = float(np.max(resid_sq / np.maximum(x_sq, TINY_DENOM)))
    err_split = float(np.max(gap_sq / np.maximum(core_sq, TINY_DENOM)))
    return err_rec, err_split, bool(np.any(x_sq == 0) or np.any(core_sq == 0))


def errors_of(state, x):
    """Worst-slice squared relative residuals (err_rec, err_split).

    err_rec measures X_i - a R_i b.T - E_i against ||X_i||_F^2 and
    err_split measures R_i - K_i against ||R_i||_F^2. Zero-norm slices
    are guarded with a 1e-300 denominator floor and reported through a
    warning.
    """
    err_rec, err_split, degenerate = _residuals(state, x, slice_norms(x) ** 2)
    if degenerate:
        warnings.warn(ZERO_NORM_WARNING, RuntimeWarning, stacklevel=2)
    return err_rec, err_split


def lagrangian(state, x, config):
    """Value of the augmented Lagrangian at the given state.

    Used to verify each pass step is an exact block minimizer; not
    needed by the iteration itself.
    """
    resid = x - reconstruct(state.split, state.a, state.b) - state.outliers
    gap = state.core - state.split
    return (
        config.alpha * np.abs(state.core).sum()
        + config.lam * np.abs(state.outliers).sum()
        + 0.5 * (np.sum(state.a**2) + np.sum(state.b**2))
        + np.vdot(state.dual_rec, resid)
        + np.vdot(state.dual_split, gap)
        + 0.5 * state.mu * np.sum(resid**2)
        + 0.5 * state.mu_k * np.sum(gap**2)
    )


def solve(x, config=None):
    """Decompose x into a low-rank part plus sparse outliers.

    Runs initialize followed by passes of iterate until the worst-slice
    squared relative residuals of both constraints drop below
    config.epsilon, or max_iter passes. Deterministic given (x, config).
    Non-convergence is reported through Factorization.converged, not an
    error; numerical failures raise SolverError with the partial trace
    attached.

    The whole solve runs with numpy's bundled OpenBLAS library at one
    thread, and the caller's thread count is restored on return or
    error. Its products are r-skinny and its systems r x r, which run
    faster unsplit, and the output bits do not depend on the caller's
    thread count.
    """
    with _one_blas_thread():
        x = as_tensor(x)
        cfg = (config if config is not None else SolverConfig()).resolved(
            x.shape[0], x.shape[1]
        )
        state = initialize(x, cfg)
        x_sq = slice_norms(x) ** 2
        trace = np.zeros((cfg.max_iter, 4))
        converged = False
        warned = False
        done = 0
        for t in range(cfg.max_iter):
            mu, mu_k = state.mu, state.mu_k
            try:
                state = iterate(state, x, cfg)
            except SolverError as exc:
                exc.trace = trace[:done].copy()
                raise
            err_rec, err_split, degenerate = _residuals(state, x, x_sq)
            if degenerate and not warned:
                warnings.warn(ZERO_NORM_WARNING, RuntimeWarning, stacklevel=2)
                warned = True
            trace[t] = (err_rec, err_split, mu, mu_k)
            done = t + 1
            if max(err_rec, err_split) <= cfg.epsilon:
                converged = True
                break
        return Factorization(
            a=state.a,
            b=state.b,
            core=state.core,
            outliers=state.outliers,
            trace=trace[:done].copy(),
            converged=converged,
            iterations=done,
        )
