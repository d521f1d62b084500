"""Seeded synthetic benchmark instances with retained ground truth.

Bases of exactly known rank are built as products of two standard-normal
factors, core slices are standard normal, and the corruption tensor has
entries 0 with probability p and +1/-1 with equal probability otherwise.
All draws come from one PCG64 stream, so an instance is fully determined
by its seed.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import reconstruct

PRNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class SyntheticSpec:
    """Instance shape: m x n slices, N of them, base ranks, corruption.

    r is the width of the generated bases (at least the base ranks); p
    is the probability that a corruption entry is zero.
    """

    m: int
    n: int
    num_slices: int
    rank_a: int
    rank_b: int
    r: int
    p: float
    seed: int = 0

    def validate(self):
        if min(self.m, self.n, self.num_slices, self.r) < 1:
            raise ValueError("dimensions must be positive")
        if not 1 <= self.rank_a <= min(self.m, self.r):
            raise ValueError(f"need 1 <= rank_a <= min(m, r), got {self.rank_a}")
        if not 1 <= self.rank_b <= min(self.n, self.r):
            raise ValueError(f"need 1 <= rank_b <= min(n, r), got {self.rank_b}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass
class GroundTruth:
    """The clean low-rank tensor, the corruption, and their generators."""

    low_rank: np.ndarray   # m x n x N
    outliers: np.ndarray   # m x n x N, entries in {-1, 0, +1}
    a: np.ndarray          # m x r, rank rank_a
    b: np.ndarray          # n x r, rank rank_b
    core: np.ndarray       # r x r x N


def generate(spec):
    """Draw an instance: returns (observations, GroundTruth).

    The basis A is A1 @ A2.T with A1 of shape (m, rank_a) and A2 of
    shape (r, rank_a), both standard normal, so rank(A) = rank_a almost
    surely; B is built the same way. Observations are the low-rank
    tensor plus the corruption.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    a = rng.standard_normal((spec.m, spec.rank_a)) @ rng.standard_normal(
        (spec.r, spec.rank_a)
    ).T
    b = rng.standard_normal((spec.n, spec.rank_b)) @ rng.standard_normal(
        (spec.r, spec.rank_b)
    ).T
    core = rng.standard_normal((spec.r, spec.r, spec.num_slices))
    low_rank = reconstruct(core, a, b)
    half = (1.0 - spec.p) / 2.0
    # drawn in C order, kept in the canonical layout like every other tensor
    outliers = np.asfortranarray(
        rng.choice([-1.0, 0.0, 1.0], p=[half, spec.p, half], size=low_rank.shape)
    )
    truth = GroundTruth(low_rank=low_rank, outliers=outliers, a=a, b=b, core=core)
    return low_rank + outliers, truth


def density(t):
    """Fraction of entries with nonzero magnitude."""
    return float(np.count_nonzero(np.abs(t) > 0)) / t.size
