"""Tensor container, slice access, and mode products."""

import numpy as np
import pytest

from kdrsdl import as_tensor, mode_product, reconstruct


def test_as_tensor_accepts_3d():
    t = as_tensor(np.ones((2, 3, 4)))
    assert t.shape == (2, 3, 4)
    assert t.dtype == np.float64


def test_as_tensor_rejects_wrong_rank():
    with pytest.raises(ValueError):
        as_tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_tensor(np.ones((2, 3, 4, 5)))


def test_as_tensor_rejects_empty():
    with pytest.raises(ValueError):
        as_tensor(np.ones((2, 0, 4)))


def test_as_tensor_rejects_non_finite():
    bad = np.ones((2, 2, 2))
    bad[0, 1, 1] = np.nan
    with pytest.raises(ValueError):
        as_tensor(bad)
    bad[0, 1, 1] = np.inf
    with pytest.raises(ValueError):
        as_tensor(bad)


def test_mode_product_identity():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 3, 2))
    np.testing.assert_array_equal(mode_product(t, np.eye(4), 1), t)
    np.testing.assert_array_equal(mode_product(t, np.eye(3), 2), t)


def test_mode_product_zero_tensor():
    u = np.random.default_rng(1).standard_normal((5, 3))
    out = mode_product(np.zeros((4, 3, 2)), u, 2)
    assert out.shape == (4, 5, 2)
    assert not out.any()


def test_mode_product_against_triple_loop():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 3, 2))
    u = rng.standard_normal((2, 3))
    got = mode_product(t, u, 1)
    expected = np.zeros((2, 3, 2))
    for i in range(2):
        for a in range(2):
            for b in range(3):
                for k in range(3):
                    expected[a, b, i] += u[a, k] * t[k, b, i]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def test_mode_product_mode2_postmultiplies():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((4, 3, 2))
    u = rng.standard_normal((5, 3))
    got = mode_product(t, u, 2)
    for i in range(2):
        np.testing.assert_allclose(got[:, :, i], t[:, :, i] @ u.T, atol=1e-13)


def test_mode_product_dimension_mismatch():
    t = np.zeros((4, 3, 2))
    with pytest.raises(ValueError):
        mode_product(t, np.zeros((2, 5)), 1)
    with pytest.raises(ValueError):
        mode_product(t, np.zeros((2, 5)), 2)
    with pytest.raises(ValueError):
        mode_product(t, np.zeros(4), 1)


def test_mode_product_rejects_an_out_it_cannot_fill():
    t = np.ones((4, 3, 2))
    u = np.ones((5, 4))
    for out in (np.empty((5, 3, 2)), np.empty((5, 3, 3), order="F"),
                np.empty((5, 3, 2), dtype=np.float32, order="F")):
        with pytest.raises(ValueError, match="out must be"):
            mode_product(t, u, 1, out=out)


def test_mode_product_rejects_other_modes():
    with pytest.raises(ValueError):
        mode_product(np.zeros((2, 2, 2)), np.eye(2), 3)


def test_mode_products_commute():
    """Products along distinct modes can be applied in either order."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((5, 4, 3))
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((2, 4))
        first = mode_product(mode_product(t, a, 1), b, 2)
        second = mode_product(mode_product(t, b, 2), a, 1)
        scale = np.linalg.norm(first)
        assert np.linalg.norm(first - second) <= 1e-12 * scale


def test_reconstruct_identity_bases():
    rng = np.random.default_rng(4)
    core = rng.standard_normal((3, 3, 2))
    np.testing.assert_array_equal(reconstruct(core, np.eye(3), np.eye(3)), core)


def test_reconstruct_zero_core():
    out = reconstruct(np.zeros((2, 2, 3)), np.ones((4, 2)), np.ones((5, 2)))
    assert out.shape == (4, 5, 3)
    assert not out.any()


def test_reconstruct_matches_composition():
    rng = np.random.default_rng(5)
    core = rng.standard_normal((2, 2, 1))
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 2))
    np.testing.assert_array_equal(
        reconstruct(core, a, b), mode_product(mode_product(core, a, 1), b, 2)
    )


def test_reconstruct_slicewise_formula():
    rng = np.random.default_rng(6)
    core = rng.standard_normal((3, 3, 4))
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((5, 3))
    out = reconstruct(core, a, b)
    for i in range(4):
        np.testing.assert_allclose(out[:, :, i], a @ core[:, :, i] @ b.T, atol=1e-12)


def test_reconstruct_dimension_mismatch():
    with pytest.raises(ValueError):
        reconstruct(np.zeros((2, 3, 2)), np.ones((4, 3)), np.ones((5, 3)))
    with pytest.raises(ValueError, match="1 x 1 core slices"):
        reconstruct(np.zeros((2, 2, 3)), np.ones((4, 1)), np.ones((5, 1)))


def test_orthogonal_bases_preserve_core_norm():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        core = rng.standard_normal((4, 4, 3))
        qa, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        qb, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        out = reconstruct(core, qa, qb)
        scale = np.linalg.norm(core)
        assert abs(np.linalg.norm(out) - scale) <= 1e-12 * scale
