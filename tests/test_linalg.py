"""Shrinkage, Stein solver, SPD right-division, and decomposition kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdrsdl import shrink, solve_stein
from kdrsdl.linalg import solve_gram_system, symmetric_eig


def random_stein_problem(rng, r):
    """A random instance with the structure the solver sees in practice.

    The left factor is symmetric negative semidefinite, the right factor
    symmetric positive semidefinite, which keeps 1 - d_i g_j away from 0.
    """
    qa = rng.standard_normal((r, r))
    a = -(qa @ qa.T)
    qb = rng.standard_normal((r, r))
    b = qb @ qb.T
    c = rng.standard_normal((r, r))
    return a, b, c


def vectorized_stein_solution(a, b, c):
    # flatten X - a X b = C into (I - kron(b^T, a)) vec(X) = vec(C) with
    # column-major vec, and solve densely
    r = a.shape[0]
    system = np.eye(r * r) - np.kron(b.T, a)
    x = np.linalg.solve(system, c.ravel(order="F"))
    return x.reshape((r, r), order="F")


def test_shrink_direct_values():
    np.testing.assert_allclose(
        shrink(np.array([[1.2, -0.3]]), 0.5), np.array([[0.7, 0.0]]), atol=1e-15
    )


def test_shrink_zero_threshold_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(shrink(x, 0.0), x)


def test_shrink_boundary_maps_to_zero():
    out = shrink(np.array([[0.5]]), 0.5)
    assert out[0, 0] == 0.0


def test_shrink_maps_the_dead_zone_to_positive_zero():
    out = shrink(np.array([-0.0, 0.0, -0.5, 0.5, -0.3, 0.3]), 0.5)
    assert not out.any()
    assert not np.signbit(out).any()


@pytest.mark.parametrize("tau", [-1e-12, -1.0, np.nan])
def test_shrink_rejects_negative_threshold(tau):
    with pytest.raises(ValueError, match="must be nonnegative"):
        shrink(np.zeros((2, 2)), tau)


def test_shrink_is_nonexpansive():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 4))
        tau = float(rng.random())
        lhs = np.linalg.norm(shrink(x, tau) - shrink(y, tau))
        assert lhs <= np.linalg.norm(x - y) + 1e-15


def test_solve_stein_zero_left_factor():
    rng = np.random.default_rng(1)
    c = rng.standard_normal((3, 3))
    np.testing.assert_allclose(solve_stein(np.zeros((3, 3)), np.eye(3), c), c, atol=1e-12)


def test_solve_stein_scalar_structure():
    # X - (-I) X I = 2X = 2I, so X = I
    x = solve_stein(-np.eye(2), np.eye(2), 2 * np.eye(2))
    np.testing.assert_allclose(x, np.eye(2), atol=1e-12)


def test_solve_stein_matches_vectorization_oracle():
    rng = np.random.default_rng(2)
    a, b, c = random_stein_problem(rng, 4)
    x = solve_stein(a, b, c)
    expected = vectorized_stein_solution(a, b, c)
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-9)


def test_solve_stein_residual_sweep():
    """200 random admissible problems across the sizes the solver uses."""
    rng = np.random.default_rng(3)
    for trial in range(200):
        r = 2 + trial % 7
        a, b, c = random_stein_problem(rng, r)
        x = solve_stein(a, b, c)
        residual = np.linalg.norm(x - a @ x @ b - c)
        assert residual <= 1e-10 * max(1.0, np.linalg.norm(c))
        oracle = vectorized_stein_solution(a, b, c)
        assert np.max(np.abs(x - oracle)) <= 1e-9


def test_solve_stein_stacked_right_hand_side():
    rng = np.random.default_rng(4)
    a, b, _ = random_stein_problem(rng, 3)
    c = rng.standard_normal((3, 3, 4))
    x = solve_stein(a, b, c)
    assert x.shape == (3, 3, 4)
    for i in range(4):
        np.testing.assert_allclose(
            x[:, :, i], vectorized_stein_solution(a, b, c[:, :, i]), atol=1e-9
        )


def test_solve_stein_singular_margin():
    # eigenvalues 1 and 1 put 1 - d g exactly at zero
    with pytest.raises(np.linalg.LinAlgError):
        solve_stein(np.eye(2), np.eye(2), np.ones((2, 2)))


def test_solve_stein_rejects_asymmetric_factor():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        solve_stein(bad, np.eye(2), np.eye(2))


@pytest.mark.parametrize(
    "a, b, c",
    [
        (np.eye(2), np.eye(3), np.zeros((2, 2))),
        (np.eye(2), np.eye(2), np.zeros((3, 2, 4))),
        (np.ones((2, 3)), np.eye(2), np.zeros((2, 2))),
    ],
)
def test_solve_stein_rejects_shape_mismatch(a, b, c):
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_stein(a, b, c)


def test_solve_gram_system_identity_divisor():
    rng = np.random.default_rng(5)
    target = rng.standard_normal((3, 4))
    np.testing.assert_allclose(solve_gram_system(target, np.eye(4)), target, atol=1e-13)


def test_solve_gram_system_self_division():
    rng = np.random.default_rng(6)
    q = rng.standard_normal((4, 4))
    gram = np.eye(4) + q @ q.T
    np.testing.assert_allclose(solve_gram_system(gram, gram), np.eye(4), atol=1e-12)


def test_solve_gram_system_matches_explicit_inverse():
    rng = np.random.default_rng(7)
    target = rng.standard_normal((3, 5))
    q = rng.standard_normal((5, 5))
    gram = np.eye(5) + q @ q.T
    got = solve_gram_system(target, gram)
    np.testing.assert_allclose(got, target @ np.linalg.inv(gram), atol=1e-10)
    assert np.linalg.norm(got @ gram - target) <= 1e-10 * np.linalg.norm(target)


def test_solve_gram_system_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError):
        solve_gram_system(np.eye(2), np.diag([1.0, -1.0]))


def test_solve_gram_system_rejects_nan():
    # a numerical failure, not a usage error: LinAlgError, which the solver
    # turns into SolverError
    gram = np.eye(3)
    gram[1, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        solve_gram_system(np.eye(3), gram)


def test_symmetric_eig_identity():
    _, d = symmetric_eig(np.eye(3))
    np.testing.assert_allclose(d, np.ones(3), atol=1e-14)


def test_symmetric_eig_diagonal_sorted():
    _, d = symmetric_eig(np.diag([-2.0, 5.0]))
    np.testing.assert_allclose(d, [-2.0, 5.0], atol=1e-14)
    assert np.all(np.diff(d) >= 0)


def test_symmetric_eig_reconstruction():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((5, 5))
    x = x + x.T
    q, d = symmetric_eig(x)
    np.testing.assert_allclose(q @ np.diag(d) @ q.T, x, atol=1e-10)
    np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-10)


def test_symmetric_eig_rejects_asymmetric():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        symmetric_eig(bad)


def test_nuclear_frobenius_bound():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 8, size=2)
        a = rng.standard_normal((m, n))
        s = np.linalg.svd(a, compute_uv=False)
        assert s.sum() <= np.sqrt(min(m, n)) * np.linalg.norm(a) + 1e-10
