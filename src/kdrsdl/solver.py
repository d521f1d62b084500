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
matmul of small slices. A pass costs two low-rank rebuilds (dual step and
residual check) and two products with the weighted data
W = mu (X - E) + Lambda: one for the A target and the projection
W_i.T @ A that both the B target and the split update reuse. The dual
step's D = X - a K b.T is carried into the next pass, whose E and W both
come from v = mu D + Lambda with no rebuild.

iterate runs in place: it overwrites E and Lambda, and every data-sized
intermediate lives in two scratch buffers kept on the state from pass to
pass. A solve therefore holds at most five data-sized arrays, X included
(X, E, Lambda and the two buffers), and no pass after the first
allocates one.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import _one_blas_thread, shrink, solve_gram_system, solve_stein, thin_svd
from .rpca import default_lam
from .tensor import as_tensor, reconstruct, slice_norms

TINY_DENOM = 1e-300
ZERO_NORM_WARNING = "zero-norm slices in the convergence denominators"
# step-size schedule: initial scale, growth per pass, cap over the initial value
ETA = 1.25
RHO = 1.2
MU_CAP_FACTOR = 1e7


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
    the core sparsity. Iteration stops when the worst-slice squared
    relative residuals of both constraints drop below epsilon, or at
    max_iter. The step-size schedule is fixed by the module constants:
    ETA scales the initial dual step sizes, RHO grows them each pass,
    and MU_CAP_FACTOR bounds them at that multiple of their initial
    values.
    """

    r: int | None = None
    lam: float | None = None
    alpha: float = 1e-2
    epsilon: float = 1e-7
    max_iter: int = 1000

    def resolved(self, m, n):
        """Fill the data-dependent defaults for m x n slices and validate."""
        r = min(m, n) if self.r is None else self.r
        lam = default_lam(m, n) if self.lam is None else self.lam
        cfg = replace(self, r=r, lam=lam)
        if not 1 <= r <= min(m, n):
            raise ValueError(f"need 1 <= r <= min(m, n) = {min(m, n)}, got r={r}")
        if lam <= 0 or cfg.alpha <= 0:
            raise ValueError("lam and alpha must be positive")
        if cfg.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {cfg.epsilon}")
        if cfg.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {cfg.max_iter}")
        return cfg


@dataclass
class _Scratch:
    # The two data-sized buffers a solve reuses on every pass. Between
    # passes d holds D = X - a K b.T for the state's factors and the x it
    # was computed from; free is overwritten by each pass and residual
    # check. warned records that the zero-norm warning has fired.
    x: np.ndarray
    d: np.ndarray
    free: np.ndarray
    warned: bool = False


@dataclass
class SolverState:
    """All iterates of one run: factors, duals, step sizes, pass count.

    scratch holds the buffers iterate reuses from pass to pass. It is not
    an argument of the constructor, and dataclasses.replace drops it, so a
    rebuilt state allocates fresh buffers on its next pass and never sees
    a stale D.
    """

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
    scratch: _Scratch | None = field(default=None, init=False, repr=False, compare=False)


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
    values are zeroed out. Initial step sizes are ETA * N divided by the
    total slice norm of X (resp. of the core), capped at MU_CAP_FACTOR
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
    mu = ETA * num / x_total if x_total > 0 else ETA
    mu_k = ETA * num / core_total if core_total > 0 else ETA
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
        mu_cap=mu * MU_CAP_FACTOR,
        mu_k_cap=mu_k * MU_CAP_FACTOR,
    )


def _outliers_and_data(x, d, dual_rec, mu, lam, e, free):
    # E = shrink(D + Lambda/mu, lam/mu) and W = mu (X - E) + Lambda, both
    # from v = mu D + Lambda: with c = clip(v, -lam, lam), E = (v - c) / mu
    # and W = mu (X - D) + c. E is written into e and W over d; free is
    # scratch. Returns (e, W).
    np.multiply(d, mu, out=free)
    free += dual_rec
    np.clip(free, -lam, lam, out=e)
    free -= e
    np.subtract(x, d, out=d)
    d *= mu
    d += e
    np.divide(free, mu, out=e)
    return e, d


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

    The pass runs in place: E and Lambda are overwritten in
    state.outliers and state.dual_rec, which the returned state shares,
    so the state passed in is consumed and must not be iterated again.
    Its two scratch buffers move to the returned state, allocated on the
    first pass, and carry D = X - a K b.T to the next pass, which must be
    given the same x.

    E and W = mu (X - E) + Lambda are computed together from D and
    Lambda, and the projection W_i.T @ A feeds both the B update and the
    split update. Numerical failures in the basis or split updates are
    re-raised as SolverError carrying the pass number.
    """
    work, state.scratch = state.scratch, None
    if work is None or work.x is not x:
        d = reconstruct(state.split, state.a, state.b, out=np.empty(x.shape, order="F"))
        np.subtract(x, d, out=d)
        work = _Scratch(x, d, np.empty_like(d))
    mu, mu_k = state.mu, state.mu_k
    try:
        e, w = _outliers_and_data(
            x, work.d, state.dual_rec, mu, config.lam, state.outliers, work.free
        )
        a = _basis_a(w, state.b, state.split, mu)
        wa = _project(w, a)
        b = _basis_b(wa, state.split, a, mu)
        k = _split(wa, a, b, state.core, state.dual_split, mu, mu_k)
        core = _update_core(k, state.dual_split, mu_k, config.alpha)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"iteration {state.iteration + 1}: {exc}", state.iteration + 1, None
        ) from exc
    # D = X - a K b.T for the next pass, then Lambda += mu (D - E) through W
    d = reconstruct(k, a, b, out=work.free)
    np.subtract(x, d, out=d)
    np.subtract(d, e, out=w)
    w *= mu
    state.dual_rec += w
    work.d, work.free = d, w
    advanced = SolverState(
        a=a,
        b=b,
        core=core,
        split=k,
        outliers=e,
        dual_rec=state.dual_rec,
        dual_split=state.dual_split + mu_k * (core - k),
        mu=min(state.mu_cap, RHO * mu),
        mu_k=min(state.mu_k_cap, RHO * mu_k),
        mu_cap=state.mu_cap,
        mu_k_cap=state.mu_k_cap,
        iteration=state.iteration + 1,
    )
    advanced.scratch = work
    return advanced


def errors_of(state, x, *, x_sq=None, scratch=None):
    """Worst-slice squared relative residuals (err_rec, err_split).

    err_rec measures X_i - a R_i b.T - E_i against ||X_i||_F^2 and
    err_split measures R_i - K_i against ||R_i||_F^2. Zero-norm slices
    are guarded with a 1e-300 denominator floor and reported through a
    warning.

    A caller checking every pass passes x_sq, the squared slice norms of
    x, and the state's scratch, whose free buffer then receives the
    residual; the warning fires once per scratch, so once per solve.
    """
    if x_sq is None:
        x_sq = slice_norms(x) ** 2
    resid = reconstruct(
        state.core, state.a, state.b, out=None if scratch is None else scratch.free
    )
    np.subtract(x, resid, out=resid)
    resid -= state.outliers
    resid_sq = slice_norms(resid) ** 2
    core_sq = slice_norms(state.core) ** 2
    gap_sq = slice_norms(state.core - state.split) ** 2
    err_rec = float(np.max(resid_sq / np.maximum(x_sq, TINY_DENOM)))
    err_split = float(np.max(gap_sq / np.maximum(core_sq, TINY_DENOM)))
    if (np.any(x_sq == 0) or np.any(core_sq == 0)) and (
        scratch is None or not scratch.warned
    ):
        # solve is the caller that passes its scratch; point at solve's caller
        level = 2 if scratch is None else 3
        warnings.warn(ZERO_NORM_WARNING, RuntimeWarning, stacklevel=level)
        if scratch is not None:
            scratch.warned = True
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
    attached. An x whose squared slice norms overflow float64 raises
    SolverError at iteration 1, before any pass.

    Each pass is one call of iterate, which advances the state in place,
    and one errors_of check, which reuses the state's scratch. A pass
    makes two low-rank rebuilds and, after the first, allocates no
    data-sized array; the solve holds at most five, x included.

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
        x_sq = slice_norms(x) ** 2
        if not np.isfinite(x_sq).all():
            raise SolverError(
                "iteration 1: the squared slice norms of the input overflow "
                "float64; rescale the data",
                1,
                np.zeros((0, 4)),
            )
        state = initialize(x, cfg)
        trace = np.zeros((cfg.max_iter, 4))
        converged = False
        done = 0
        for t in range(cfg.max_iter):
            mu, mu_k = state.mu, state.mu_k
            try:
                state = iterate(state, x, cfg)
            except SolverError as exc:
                exc.trace = trace[:done].copy()
                raise
            err_rec, err_split = errors_of(state, x, x_sq=x_sq, scratch=state.scratch)
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
