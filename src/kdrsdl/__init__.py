"""Robust Kronecker-decomposable component analysis.

Decomposes a stack of matrices (a 3-way tensor) into a structured
low-rank part, factored through two shared bases and a sparse core, plus
elementwise sparse outliers. Ships the ADMM solver, a matrix robust-PCA
baseline, synthetic benchmark generation, evaluation metrics, and
bit-exact file formats.
"""

from .io import (
    load_bundle,
    read_image,
    read_image_stack,
    read_tensor,
    save_bundle,
    write_image,
    write_tensor,
)
from .linalg import shrink, solve_gram_system, solve_stein, symmetric_eig
from .metrics import psnr, relative_error, roc_auc
from .rpca import RpcaResult, rpca_ialm, rpca_slices, svt
from .solver import (
    Factorization,
    SolverConfig,
    SolverError,
    SolverState,
    errors_of,
    initialize,
    iterate,
    lagrangian,
    solve,
)
from .synthetic import GroundTruth, SyntheticSpec, density, generate
from .tensor import as_tensor, mode_product, reconstruct

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "GroundTruth",
    "RpcaResult",
    "SolverConfig",
    "SolverError",
    "SolverState",
    "SyntheticSpec",
    "as_tensor",
    "density",
    "errors_of",
    "generate",
    "initialize",
    "iterate",
    "lagrangian",
    "load_bundle",
    "mode_product",
    "psnr",
    "read_image",
    "read_image_stack",
    "read_tensor",
    "reconstruct",
    "relative_error",
    "roc_auc",
    "rpca_ialm",
    "rpca_slices",
    "save_bundle",
    "shrink",
    "solve",
    "solve_gram_system",
    "solve_stein",
    "svt",
    "symmetric_eig",
    "write_image",
    "write_tensor",
]
