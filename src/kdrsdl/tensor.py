"""Dense 3-way tensors stored as numpy arrays of shape (m, n, N).

A tensor is a stack of N frontal slices of size m x n, indexed along the
last axis: slice i is ``t[:, :, i]``. All routines expect float64 data.

The canonical layout is Fortran order of this shape: row index fastest,
then column, then slice. It is the element order of the on-disk format,
so files are read and written without a copy, and it makes ``t.T`` a free
C-contiguous (N, n, m) stack of the transposed slices. Every product of
a stack with a basis, in the solver too (bar the residual check's sums,
taken slice by slice), is a mode_product on that stack: a mode-1 product
is one tall GEMM, as the transposed slices stack into one (N*n x m)
matrix, and a mode-2 product is one batched ``matmul``. Every routine
brings its tensor to the canonical layout first (a copy for any other
layout), so no result depends on the layout of its tensor.
"""

import numpy as np


def as_tensor(data):
    """Coerce array-like data to a float64 3-way tensor, validating it.

    The result is in the canonical (Fortran) layout; data already in it
    is returned as is, anything else costs exactly one copy. Raises
    ValueError if the input is not 3-dimensional, is empty, or contains
    NaN/Inf entries.
    """
    t = np.asarray(data, dtype=np.float64, order="F")
    if t.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got ndim={t.ndim}")
    if t.size == 0:
        raise ValueError(f"tensor has an empty dimension: shape={t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("tensor contains non-finite entries")
    return t


def mode_product(t, u, mode, out=None):
    """Multiply a tensor by a matrix along mode 1 or mode 2.

    Mode 1 maps each frontal slice X_i to u @ X_i; mode 2 maps X_i to
    X_i @ u.T. Hence ``mode_product(mode_product(t, a, 1), b, 2)`` has
    slices a @ X_i @ b.T.

    Parameters
    ----------
    t : ndarray, shape (m, n, N)
    u : ndarray, 2-d; u.shape[1] must equal m (mode 1) or n (mode 2)
    mode : 1 or 2
    out : ndarray, optional
        Fortran-contiguous float64 array of the result's shape to write
        the result into; it is returned.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    t = np.asarray(t, order="F")
    if u.ndim != 2 or u.shape[1] != t.shape[mode - 1]:
        raise ValueError(
            f"mode-{mode} product needs u.shape[1] == {t.shape[mode - 1]}, got {u.shape}"
        )
    m, n, num = t.shape
    shape = (u.shape[0], n, num) if mode == 1 else (m, u.shape[0], num)
    if out is None:
        out = np.empty(shape, order="F")
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.f_contiguous:
        raise ValueError(
            f"out must be a Fortran-contiguous float64 array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    if mode == 1:
        # slices u @ T_i: (T_i.T @ u.T) for all i is one (N*n x m) @ (m x p) GEMM
        np.matmul(t.T.reshape(num * n, m), u.T, out=out.T.reshape(num * n, -1))
    else:
        # slices T_i @ u.T: (u @ T_i.T) for all i as one batched matmul
        np.matmul(u, t.T, out=out.T)
    return out


def reconstruct(core, a, b):
    """Assemble the low-rank tensor with slices a @ R_i @ b.T.

    core has shape (r, r, N), a is m x r, b is n x r; the result is
    (m, n, N). It is the mode-1 product with a, then the mode-2 product
    with b: the small products a @ R_i as one GEMM, then one batched
    matmul with b.
    """
    return mode_product(mode_product(core, a, 1), b, 2)


def slice_norms(t):
    """Frobenius norm of every frontal slice, as a length-N vector."""
    t = np.asarray(t, order="F")
    return np.sqrt(np.einsum("ijk,ijk->k", t, t))
