"""Synthetic instance generation and the density measure."""

import numpy as np
import pytest

from kdrsdl import SyntheticSpec, density, generate, reconstruct
from kdrsdl.synthetic import PRNG_ALGORITHM


def test_no_corruption_when_p_is_one():
    spec = SyntheticSpec(m=10, n=8, num_slices=3, rank_a=2, rank_b=2, r=4, p=1.0, seed=0)
    x, truth = generate(spec)
    assert not truth.outliers.any()
    np.testing.assert_array_equal(x, truth.low_rank)


def test_full_corruption_when_p_is_zero():
    spec = SyntheticSpec(m=10, n=8, num_slices=3, rank_a=2, rank_b=2, r=4, p=0.0, seed=0)
    _, truth = generate(spec)
    assert density(truth.outliers) == 1.0


def test_corruption_density_matches_probability():
    spec = SyntheticSpec(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10, p=0.4, seed=0)
    _, truth = generate(spec)
    assert abs(density(truth.outliers) - 0.6) <= 0.015


def test_outlier_values_are_signs():
    spec = SyntheticSpec(m=12, n=9, num_slices=4, rank_a=3, rank_b=2, r=5, p=0.5, seed=1)
    _, truth = generate(spec)
    assert set(np.unique(truth.outliers)) <= {-1.0, 0.0, 1.0}
    # both signs occur at this size
    assert (truth.outliers == 1.0).any()
    assert (truth.outliers == -1.0).any()


def test_observations_are_low_rank_plus_outliers():
    spec = SyntheticSpec(m=12, n=9, num_slices=4, rank_a=3, rank_b=2, r=5, p=0.5, seed=2)
    x, truth = generate(spec)
    np.testing.assert_array_equal(x, truth.low_rank + truth.outliers)
    np.testing.assert_array_equal(truth.low_rank, reconstruct(truth.core, truth.a, truth.b))


def test_generated_bases_have_requested_rank():
    spec = SyntheticSpec(m=20, n=15, num_slices=2, rank_a=4, rank_b=3, r=8, p=1.0, seed=3)
    _, truth = generate(spec)
    sa = np.linalg.svd(truth.a, compute_uv=False)
    sb = np.linalg.svd(truth.b, compute_uv=False)
    assert sa[4] <= 1e-10 * sa[0]
    assert sb[3] <= 1e-10 * sb[0]
    assert sa[3] > 1e-6 * sa[0]
    assert sb[2] > 1e-6 * sb[0]


def test_same_seed_reproduces_bit_identical():
    spec = SyntheticSpec(m=9, n=7, num_slices=3, rank_a=2, rank_b=2, r=4, p=0.6, seed=7)
    x1, t1 = generate(spec)
    x2, t2 = generate(spec)
    assert x1.tobytes() == x2.tobytes()
    assert t1.outliers.tobytes() == t2.outliers.tobytes()
    assert t1.a.tobytes() == t2.a.tobytes()


def test_different_seeds_differ():
    spec = SyntheticSpec(m=9, n=7, num_slices=3, rank_a=2, rank_b=2, r=4, p=0.6, seed=7)
    other = SyntheticSpec(m=9, n=7, num_slices=3, rank_a=2, rank_b=2, r=4, p=0.6, seed=8)
    x1, _ = generate(spec)
    x2, _ = generate(other)
    assert x1.tobytes() != x2.tobytes()


def test_spec_validation():
    good = dict(m=8, n=6, num_slices=2, rank_a=2, rank_b=2, r=3, p=0.5)
    with pytest.raises(ValueError):
        generate(SyntheticSpec(**{**good, "m": 0}))
    with pytest.raises(ValueError):
        generate(SyntheticSpec(**{**good, "rank_a": 4}))
    with pytest.raises(ValueError):
        generate(SyntheticSpec(**{**good, "rank_b": 0}))
    with pytest.raises(ValueError):
        generate(SyntheticSpec(**{**good, "p": 1.5}))
    with pytest.raises(ValueError):
        generate(SyntheticSpec(**{**good, "p": -0.1}))


def test_density_examples():
    assert density(np.zeros((3, 4, 2))) == 0.0
    assert density(np.ones((3, 4, 2))) == 1.0
    t = np.zeros((4, 3, 2))
    flat = t.ravel()
    flat[:6] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    assert density(flat) == 0.25


def test_prng_algorithm_recorded():
    assert PRNG_ALGORITHM == "pcg64"
    assert type(np.random.default_rng(0).bit_generator).__name__.lower() == PRNG_ALGORITHM
