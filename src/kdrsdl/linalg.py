"""Linear-algebra kernels: shrinkage, Stein equation, SPD right-division.

Every r x r system of the decomposition algorithm has symmetric
coefficient matrices, so both solvers diagonalize them with one
symmetric eigendecomposition: the Stein equation reduces to an
elementwise divide in the rotated frame, and the Gram systems to a
divide by the eigenvalues. The general non-symmetric case is rejected
rather than silently mishandled.

The module also owns the BLAS thread pin that the solver and the
slice-wise RPCA baseline run under: the solver's products are r-skinny
and its Gram and Stein systems r x r, and the baseline's Gram products
and eigendecompositions are slice-sized, which OpenBLAS runs slower,
and with different bits, when it splits them across threads. The pin
manages the OpenBLAS library bundled with numpy.
"""

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

SYMMETRY_RTOL = 1e-12
STEIN_MARGIN = 1e-12

# (get, set) thread-count symbols of the 64-bit-integer OpenBLAS bundled
# with the numpy wheels: scipy-openblas (numpy >= 2), then openblas
# (numpy 1.x)
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)
# only libraries already loaded are touched; Windows has no such flag, and
# loading a DLL that is already loaded returns it
_NOLOAD = getattr(os, "RTLD_NOLOAD", 0)
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = []


def shrink(x, tau):
    """Elementwise soft threshold: sign(x) * max(|x| - tau, 0).

    Computed as x - clip(x, -tau, tau), in two sweeps. Every entry with
    |x| <= tau, -0.0 included, maps to +0.0, since x - x is +0.0. tau
    must be nonnegative.
    """
    if tau < 0:
        raise ValueError(f"shrinkage threshold must be nonnegative, got {tau}")
    x = np.asarray(x, dtype=np.float64)
    out = np.clip(x, -tau, tau, out=np.empty_like(x))
    return np.subtract(x, out, out=out)


def symmetric_eig(x):
    """Eigendecomposition Q diag(d) Q.T of a symmetric matrix.

    Returns (Q, d) with d nondecreasing and Q orthogonal. Raises
    ValueError if max|x - x.T| exceeds 1e-12 * max(1, max|x|).
    """
    asym = np.abs(x - x.T).max()
    if asym > SYMMETRY_RTOL * max(1.0, np.abs(x).max()):
        raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e})")
    d, q = np.linalg.eigh(x)
    return q, d


def solve_stein(a, b, c):
    """Solve the Stein equation X - a X b = c for symmetric a and b.

    Both factors are diagonalized, a = Qa diag(d) Qa.T and
    b = Qb diag(g) Qb.T, which turns the equation into the elementwise
    divide Xt_ij = Ct_ij / (1 - d_i g_j) in the rotated frame. This runs
    in O(r^3) time and O(r^2) space per right-hand side.

    c may be a stack of r x r matrices with shape (r, r, N), the
    canonical layout of the tensor module, or a single r x r matrix,
    which is solved as a stack of one; the result has c's shape. Raises
    numpy.linalg.LinAlgError when some |1 - d_i g_j| falls below 1e-12
    (the equation is singular or near-singular).
    """
    r = a.shape[0]
    if a.shape != (r, r) or b.shape != (r, r) or c.shape[:2] != (r, r):
        raise ValueError(
            f"shape mismatch: a {a.shape}, b {b.shape}, c {c.shape}"
        )
    qa, d = symmetric_eig(a)
    qb, g = symmetric_eig(b)
    denom = 1.0 - np.outer(d, g)
    margin = np.min(np.abs(denom))
    if margin < STEIN_MARGIN:
        raise np.linalg.LinAlgError(
            f"singular Stein equation: solvability margin {margin:.3e}"
        )
    # stack of right-hand sides along the last axis: c.T holds the C_i.T,
    # so the rotated C_i.T are qb.T @ C_i.T @ qa, one batched matmul each way
    ct = qb.T @ np.atleast_3d(c).T @ qa
    ct /= denom.T
    return (qb @ ct @ qa.T).T.reshape(c.shape)


def solve_gram_system(target, gram):
    """Right-divide by an SPD matrix: return M with M @ gram = target.

    gram = Q diag(d) Q.T is diagonalized with symmetric_eig, so
    M = (target @ Q / d) @ Q.T. Raises numpy.linalg.LinAlgError unless
    every eigenvalue is positive, which a non-finite gram also fails, and
    ValueError if gram is not symmetric.
    """
    q, d = symmetric_eig(gram)
    if not np.all(d > 0):
        raise np.linalg.LinAlgError(
            f"Gram matrix is not positive definite (smallest eigenvalue {d[0]:.3e})"
        )
    return (target @ q / d) @ q.T


@functools.cache
def _openblas_controls():
    # (get, set) pairs of the OpenBLAS bundled with numpy, if this process
    # has loaded it
    controls = []
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root + ".libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread.

    The library is looked up on first use. The outermost of nested or
    concurrent blocks saves the caller's thread count and the last one
    out restores it, on error too. Without a bundled OpenBLAS (MKL,
    Accelerate, a system BLAS) this does nothing.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = [(set_, get()) for get, set_ in _openblas_controls()]
            for set_, _ in _pin_saved:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for set_, count in _pin_saved:
                    set_(count)
