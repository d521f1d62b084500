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
matmul of small slices. A pass costs one low-rank rebuild (the dual
step's) and two products with the weighted data W = mu (X - E) + Lambda:
one for the A target and the projection W_i.T @ A that both the B target
and the split update reuse. The dual step's D = X - a K b.T is carried
into the next pass, whose E and W both come from v = mu D + Lambda with
no rebuild, and its residual P = D - E = X - a K b.T - E gives the
residual check in the r x r frame of the core, also with no rebuild.

The data-sized work of a pass is two sweeps over blocks of slices that
stay in cache: the first makes E and W, the second the rebuild, D, P,
the check's per-slice sums over P and the dual step Lambda += mu P. Each
slice's sums come from that slice alone, so they equal a rebuild's bit
for bit whatever the block size. The products with W between them run
on the whole stack, as the A target sums over every slice.
iterate advances one SolverState in place, overwriting E and Lambda,
with W over D and v and P in one block buffer. SolverState states what
its pass scratch carries between passes and when it is dropped.
"""

import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import _one_blas_thread, shrink, solve_gram_system, solve_stein, symmetric_eig
from .tensor import as_tensor, mode_product, reconstruct, slice_norms

TINY_DENOM = 1e-300
ZERO_NORM_WARNING = "zero-norm slices in the convergence denominators"
# step-size schedule: initial scale, growth per pass, cap over the initial value
ETA = 1.25
RHO = 1.2
MU_CAP_FACTOR = 1e7
# the start weighs basis column j by (lam_j / lam_1)^START_WEIGHT_POWER; in
# the sweep of ROADMAP.md's pooled-start item, 0.5 and 2.0 fail acceptance
# criterion 4 and 1.5 takes the fewest decompose-100 passes of the rest
START_WEIGHT_POWER = 1.5
# a pass sweeps the data in blocks of BLOCK_BYTES // (8 m n) slices (at
# least one): a block of each of the five operands of a sweep then stays
# in a 2 MB L2 cache, and 256 KB measured fastest of 128 KB to 1 MB
BLOCK_BYTES = 1 << 18


class SolverError(RuntimeError):
    """Numerical failure inside the iteration, with the partial trace."""

    def __init__(self, message, iteration, trace):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters, and the one check of them.

    r and lam default to None and are resolved against the data: r
    becomes min(m, n) and lam becomes 1/sqrt(max(m, n)). alpha weights
    the core sparsity. A solve stops at max_iter or once stops finds
    every worst-slice squared relative residual at most epsilon, as the
    RPCA baseline does with its default rpca.EPSILON. The step-size
    schedule is fixed by the module constants: ETA scales the initial
    dual step sizes, RHO grows them each pass, and MU_CAP_FACTOR bounds
    them at that multiple of their initial values. resolved raises
    ValueError naming the first bad parameter and its value, NaN and a
    non-integer r or max_iter included (Python and numpy integers are
    accepted), and the RPCA baseline resolves its lam, epsilon and
    max_iter through it too, so both methods accept the same values.
    """

    r: int | None = None
    lam: float | None = None
    alpha: float = 1e-2
    epsilon: float = 1e-7
    max_iter: int = 1000

    def resolved(self, m, n):
        """Fill the data-dependent defaults for m x n slices and validate."""
        if min(m, n) < 1:
            raise ValueError(f"slices must be at least 1 x 1, got {m} x {n}")
        r = min(m, n) if self.r is None else self.r
        lam = 1.0 / np.sqrt(max(m, n)) if self.lam is None else self.lam
        cfg = replace(self, r=r, lam=lam)
        for name in ("r", "max_iter"):
            if not isinstance(getattr(cfg, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(cfg, name)}")
        if not 1 <= r <= min(m, n):
            raise ValueError(f"need 1 <= r <= min(m, n) = {min(m, n)}, got r={r}")
        for name in ("lam", "alpha", "epsilon"):
            if not getattr(cfg, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(cfg, name)}")
        if not cfg.max_iter >= 1:
            raise ValueError(f"max_iter must be positive, got {cfg.max_iter}")
        return cfg

    def stops(self, *ratios):
        """Whether the worst of the squared relative residuals is at most epsilon."""
        return max(ratios) <= self.epsilon


@dataclass
class _Scratch:
    # the pass scratch; SolverState's docstring states what it holds
    x: np.ndarray
    x_sq: np.ndarray
    d: np.ndarray
    block: np.ndarray
    p_sq: np.ndarray
    cross: np.ndarray

    def blocks(self):
        # (slice range of each block, the block buffer cut to its length)
        num, step = self.x.shape[2], self.block.shape[2]
        for s in range(0, num, step):
            yield slice(s, s + step), self.block[..., : min(step, num - s)]


@dataclass
class SolverState:
    """All iterates of one run: factors, duals, step sizes, pass count.

    iterate advances a state in place and keeps on it, in scratch, the
    buffers every pass of a solve reuses, built by the first pass for one
    x: the data-sized d, a block of slices, x_sq the squared slice norms
    of x, and the r-sized p_sq and cross. Between passes d holds
    D = X - a K b.T for the state's factors, which the next pass, given
    the same x, starts from; p_sq and cross hold ||P_i||^2 and
    b.T P_i.T a for P = D - E = X - a K b.T - E, bit for bit the sums a
    rebuild of P gives, which errors_of reads in place of a data sweep.
    So a solve holds four data-sized arrays (X, E, Lambda and D), and no
    pass after the first allocates one. The scratch is valid while only iterate
    advances the state: it is not an argument of the constructor,
    dataclasses.replace drops it, and so does a pass that fails, as its
    d then holds W. An edited state never shows a stale D or P.
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


def _start_basis(gram, r):
    # the leading r eigenvectors q of a mode Gram, each with its largest-
    # magnitude entry nonnegative, and their weights (lam_j / lam_1)^p
    q, lam = symmetric_eig(gram)
    lam, q = lam[: -r - 1 : -1], q[:, : -r - 1 : -1]
    pivot = np.abs(q).argmax(axis=0)
    q = q * np.where(q[pivot, np.arange(r)] < 0, -1.0, 1.0)
    w = np.maximum(lam / lam[0], 0.0) ** START_WEIGHT_POWER if lam[0] > 0 else np.zeros(r)
    return q, w


def initialize(x, config):
    """Build the starting state from the two mode Gram matrices of x.

    A holds the leading r eigenvectors qa_j of sum_i X_i X_i.T, each with
    its largest-magnitude entry nonnegative, weighted by (lam_j /
    lam_1)^START_WEIGHT_POWER from their eigenvalues (0 where lam_j <= 0),
    and B likewise from sum_i X_i.T X_i; neither Gram copies x. The core
    and the split start diagonal, K_i[j, j] = qa_j.T X_i qb_j. Initial
    step sizes are ETA * N divided by the total slice norm of X (resp. of
    the core), capped at MU_CAP_FACTOR times that. An x whose squared norm
    overflows float64, or with a nonzero slice whose squared norm is below
    the smallest normal float64, raises SolverError at iteration 1, before
    any pass, as the RPCA baseline refuses such a matrix; all-zero slices
    are accepted.
    """
    x_norms = slice_norms(x)
    with np.errstate(over="ignore"):
        x_sq = x_norms ** 2
        overflows = not np.isfinite(np.sum(x_sq))
    underflows = x[:, :, x_sq < np.finfo(np.float64).tiny].any()
    if overflows or underflows:
        raise SolverError(
            "iteration 1: the squared slice norms of the input "
            f"{'overflow' if overflows else 'underflow'} float64; rescale the data",
            1,
            np.zeros((0, 4)),
        )
    m, n, num = x.shape
    r = config.r
    x1 = x.reshape(m, n * num, order="F")                # [X_1 ... X_N]
    gram_b = np.zeros((n, n))
    for xt in x.T:                                       # slices X_i.T
        gram_b += xt @ xt.T
    qa, wa = _start_basis(x1 @ x1.T, r)
    qb, wb = _start_basis(gram_b, r)
    core = np.zeros((r, r, num), order="F")
    diag = np.arange(r)
    core[diag, diag] = np.einsum("ikj,kj->ji", mode_product(x, qa.T, 1).T, qb)
    # the bases are C-ordered like those a pass returns, since a basis's
    # layout changes the rounding of the first pass
    a, b = np.ascontiguousarray(qa * wa), np.ascontiguousarray(qb * wb)
    x_total = x_norms.sum()
    core_total = slice_norms(core).sum()
    mu = ETA * num / x_total if x_total > 0 else ETA
    mu_k = ETA * num / core_total if core_total > 0 else ETA
    return SolverState(
        a=a,
        b=b,
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


def _residual_terms(p, a, b):
    # ||P_i||_F^2 and b.T @ P_i.T @ a for every slice of P, stacked (N, r, r),
    # each by one matmul on its own slice, so no sum depends on the block
    flat = p.T.reshape(p.shape[2], 1, -1)
    return (flat @ flat.transpose(0, 2, 1)).ravel(), b.T @ (p.T @ a)


def _gram(stack, g):
    # sum_i S_i.T @ g @ S_i over a (N, p, r) stack, g symmetric, as one GEMM
    num, p, r = stack.shape
    return (g @ stack).reshape(num * p, r).T @ stack.reshape(num * p, r)


def _target_a(w, b, split):
    # sum_i W_i @ (b @ K_i.T) as one (m x N*n) @ (N*n x r) GEMM
    m, n, num = w.shape
    bk = mode_product(split, b, 2).T                     # slices b @ K_i.T
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
    inner = mode_product(wa.T, b.T, 2)                   # slices a.T @ W_i @ b
    rhs = (inner + dual_split) / mu_k + core
    return solve_stein(-(mu / mu_k) * (a.T @ a), b.T @ b, rhs)


def _update_core(split, dual_split, mu_k, alpha):
    return shrink(split - dual_split / mu_k, alpha / mu_k)


def iterate(state, x, config):
    """Run one full pass that advances state in place, and return state.

    The pass assigns every iterate and the pass count on state, and
    overwrites E and Lambda in their arrays; dual_split gets a new array,
    as states made with replace share it. It builds, reuses and drops the
    scratch as SolverState states.

    E and W = mu (X - E) + Lambda are computed together from D and
    Lambda in one sweep over slice blocks, and the projection W_i.T @ A
    feeds both the B update and the split update. A second sweep rebuilds
    D block by block, forms P = D - E in the block buffer, keeps
    ||P_i||^2 and b.T P_i.T a for errors_of, and adds mu P to Lambda.
    Numerical failures in the basis or split updates are re-raised as
    SolverError carrying the pass number.
    """
    work = state.scratch
    if work is None or work.x is not x:
        d = reconstruct(state.split, state.a, state.b)
        np.subtract(x, d, out=d)
        (m, n, num), r = x.shape, len(state.split)
        step = min(num, max(1, BLOCK_BYTES // (8 * m * n)))
        work = state.scratch = _Scratch(
            x, slice_norms(x) ** 2, d, np.empty((m, n, step), order="F"),
            np.empty(num), np.empty((num, r, r)),
        )
    mu, mu_k = state.mu, state.mu_k
    e, d, dual_rec = state.outliers, work.d, state.dual_rec
    try:
        for j, v in work.blocks():
            _outliers_and_data(
                x[..., j], d[..., j], dual_rec[..., j], mu, config.lam, e[..., j], v
            )
        w = d  # the sweep wrote W over D
        a = _basis_a(w, state.b, state.split, mu)
        wa = mode_product(w, a.T, 1).T  # slices W_i.T @ a, stacked (N, n, r)
        b = _basis_b(wa, state.split, a, mu)
        k = _split(wa, a, b, state.core, state.dual_split, mu, mu_k)
        del wa  # freed before the rebuild below allocates its own intermediate
        core = _update_core(k, state.dual_split, mu_k, config.alpha)
    except np.linalg.LinAlgError as exc:
        state.scratch = None
        raise SolverError(
            f"iteration {state.iteration + 1}: {exc}", state.iteration + 1, None
        ) from exc
    # per block: D = X - a K b.T over W for the next pass, the residual
    # P = D - E and the sums over it that errors_of reads, then Lambda += mu P
    for j, p in work.blocks():
        dj = mode_product(mode_product(k[..., j], a, 1), b, 2, out=d[..., j])
        np.subtract(x[..., j], dj, out=dj)
        np.subtract(dj, e[..., j], out=p)
        work.p_sq[j], work.cross[j] = _residual_terms(p, a, b)
        p *= mu
        dual_rec[..., j] += p
    state.a, state.b, state.core, state.split = a, b, core, k
    state.dual_split = state.dual_split + mu_k * (core - k)
    state.mu, state.mu_k = min(state.mu_cap, RHO * mu), min(state.mu_k_cap, RHO * mu_k)
    state.iteration += 1
    return state


def errors_of(state, x):
    """Worst-slice squared relative residuals (err_rec, err_split).

    err_rec measures X_i - a R_i b.T - E_i against ||X_i||_F^2 and
    err_split measures R_i - K_i against ||R_i||_F^2. Zero-norm slices
    are guarded with a 1e-300 denominator floor, and a ratio that
    overflows past it reads as inf; the check never warns.

    The residual is never rebuilt. With P = X - a K b.T - E and
    Delta = K - R, slice i of it is P_i + a Delta_i b.T, so its squared
    norm is ||P_i||^2 + 2 <a.T P_i b, Delta_i> + <(a.T a) Delta_i (b.T b),
    Delta_i>, clamped at 0 against rounding: ||P_i||^2 and the r-skinny
    projection a.T P_i b, then r x r work.

    When the state's scratch (see SolverState) was built for this x, it
    checks the pass iterate just made from the sums the scratch holds and
    reads no data-sized array. Any other state or x has P built here, and
    the same sums of it give the scratch's values bit for bit.
    """
    a, b, work = state.a, state.b, state.scratch
    if work is not None and work.x is x:
        p_sq, cross, x_sq = work.p_sq, work.cross, work.x_sq
    else:
        p = x - reconstruct(state.split, a, b) - state.outliers
        (p_sq, cross), x_sq = _residual_terms(p, a, b), slice_norms(x) ** 2
    # each term is an inner product of transposed r x r slices, stacked
    # (N, r, r): Delta_i.T, (a.T P_i b).T and ((a.T a) Delta_i (b.T b)).T
    gap = state.split - state.core
    spread = (b.T @ b) @ gap.T @ (a.T @ a)
    resid_sq = np.maximum(
        p_sq
        + 2 * np.einsum("kij,kij->k", cross, gap.T)
        + np.einsum("kij,kij->k", spread, gap.T),
        0.0,
    )
    core_sq = slice_norms(state.core) ** 2
    gap_sq = slice_norms(gap) ** 2
    # a ratio past the float range over a floored denominator reads as inf
    with np.errstate(over="ignore"):
        err_rec = float(np.max(resid_sq / np.maximum(x_sq, TINY_DENOM)))
        err_split = float(np.max(gap_sq / np.maximum(core_sq, TINY_DENOM)))
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

    Runs initialize followed by passes of iterate until config.stops
    finds both constraints' worst-slice squared relative residuals at
    most epsilon, or max_iter passes. Deterministic given (x, config).
    Non-convergence is reported through Factorization.converged, not an
    error; numerical failures raise SolverError with the partial trace
    attached, as does an x whose squared slice norms overflow or
    underflow float64, which initialize rejects at iteration 1.

    Each pass is one call of iterate, which advances the solve's one
    state in place, and one errors_of check; SolverState states what the
    scratch they share holds. A pass makes one low-rank rebuild. After
    the first pass at which x or the core has a zero-norm slice, solve
    warns once, at its caller.

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
        rows = []
        converged = warned = False
        while not converged and state.iteration < cfg.max_iter:
            mu, mu_k = state.mu, state.mu_k
            try:
                iterate(state, x, cfg)
            except SolverError as exc:
                exc.trace = np.reshape(rows, (-1, 4))
                raise
            errors = errors_of(state, x)
            if not (warned or (state.scratch.x_sq.all() and slice_norms(state.core).all())):
                warnings.warn(ZERO_NORM_WARNING, RuntimeWarning, stacklevel=2)
                warned = True
            rows.append((*errors, mu, mu_k))
            converged = cfg.stops(*errors)
        return Factorization(
            a=state.a,
            b=state.b,
            core=state.core,
            outliers=state.outliers,
            trace=np.reshape(rows, (-1, 4)),
            converged=converged,
            iterations=state.iteration,
        )
