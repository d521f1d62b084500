"""Slice-major kernels of a solver pass against einsum references.

Each kernel is one GEMM on a reshaped stack or one batched matmul; the
references spell out the same sums index by index. Inputs come in either
memory order, since the kernels must accept any layout.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdrsdl import SolverConfig, mode_product, reconstruct, shrink, solve_stein
from kdrsdl.solver import (
    SolverState,
    _gram,
    _target_a,
    _target_b,
    _weighted_data,
    iterate,
)

RTOL = 1e-12

dims = st.integers(min_value=1, max_value=7)
shapes = settings(max_examples=60, deadline=None)


def draw(rng, shape, order):
    return np.asarray(rng.standard_normal(shape), order=order)


def assert_close(got, expected, *terms):
    # relative to the largest of the result and the terms it is computed from
    scale = max(1.0, *(float(np.abs(t).max()) for t in (expected, *terms)))
    np.testing.assert_allclose(got, expected, rtol=0, atol=RTOL * scale)


@shapes
@given(m=dims, n=dims, r=dims, num=dims, seed=st.integers(0, 2**32 - 1),
       order=st.sampled_from("CF"))
@example(m=1, n=1, r=1, num=1, seed=0, order="C")
@example(m=1, n=4, r=3, num=2, seed=1, order="F")
def test_rebuild_matches_einsum(m, n, r, num, seed, order):
    rng = np.random.default_rng(seed)
    core = draw(rng, (r, r, num), order)
    a, b = draw(rng, (m, r), order), draw(rng, (n, r), order)
    got = reconstruct(core, a, b)
    assert got.shape == (m, n, num)
    assert got.flags.f_contiguous
    assert_close(got, np.einsum("ia,abk,jb->ijk", a, core, b))
    # r = 1 is one broadcast multiply R_i (a b.T), r >= 2 the two mode products
    if r == 1:
        expected = np.outer(a[:, 0], b[:, 0])[:, :, None] * core[0, 0]
    else:
        expected = mode_product(mode_product(core, a, 1), b, 2)
    assert got.tobytes() == expected.tobytes()


@shapes
@given(m=dims, n=dims, r=dims, num=dims, seed=st.integers(0, 2**32 - 1),
       order=st.sampled_from("CF"))
@example(m=1, n=1, r=1, num=1, seed=0, order="F")
@example(m=1, n=5, r=1, num=3, seed=2, order="C")
def test_basis_targets_match_einsum(m, n, r, num, seed, order):
    rng = np.random.default_rng(seed)
    w = draw(rng, (m, n, num), order)
    a, b = draw(rng, (m, r), order), draw(rng, (n, r), order)
    split = draw(rng, (r, r, num), order)
    wa = mode_product(w, a.T, 1).T
    assert_close(wa, np.einsum("jki,jc->ikc", w, a))
    assert_close(_target_a(w, b, split), np.einsum("jki,kc,lci->jl", w, b, split))
    assert_close(_target_b(wa, split), np.einsum("jki,jc,cli->kl", w, a, split))


@shapes
@given(p=dims, r=dims, num=dims, seed=st.integers(0, 2**32 - 1),
       order=st.sampled_from("CF"))
@example(p=1, r=1, num=1, seed=0, order="C")
def test_gram_matches_einsum(p, r, num, seed, order):
    rng = np.random.default_rng(seed)
    stack = draw(rng, (num, p, r), order)
    root = rng.standard_normal((p, p))
    g = root @ root.T
    assert_close(_gram(stack, g), np.einsum("iap,ab,ibq->pq", stack, g, stack))


@shapes
@given(r=dims, num=dims, seed=st.integers(0, 2**32 - 1), order=st.sampled_from("CF"))
@example(r=1, num=1, seed=0, order="F")
def test_stein_stack_matches_einsum(r, num, seed, order):
    rng = np.random.default_rng(seed)
    qa_root, qb_root = rng.standard_normal((r, r)), rng.standard_normal((r, r))
    lhs, rhs = -(qa_root @ qa_root.T), qb_root @ qb_root.T
    c = draw(rng, (r, r, num), order)
    got = solve_stein(lhs, rhs, c)
    d, qa = np.linalg.eigh(lhs)
    g, qb = np.linalg.eigh(rhs)
    rotated = np.einsum("ba,bci,cd->adi", qa, c, qb) / (1.0 - np.outer(d, g))[:, :, None]
    assert got.shape == (r, r, num)
    assert_close(got, np.einsum("ab,bci,dc->adi", qa, rotated, qb))
    assert_close(got - np.einsum("ab,bci,cd->adi", lhs, got, rhs), c)


@shapes
@given(m=dims, n=dims, r=dims, num=dims, seed=st.integers(0, 2**32 - 1),
       mu=st.floats(1e-2, 1e2), mu_k=st.floats(1e-2, 1e2))
@example(m=1, n=1, r=1, num=1, seed=0, mu=1.0, mu_k=1.0)
@example(m=1, n=6, r=1, num=3, seed=3, mu=0.5, mu_k=2.0)
@example(m=5, n=4, r=3, num=1, seed=4, mu=20.0, mu_k=0.1)
def test_fused_pass_updates_match_reference_formulas(m, n, r, num, seed, mu, mu_k):
    # E = shrink(X - a K b.T + Lambda/mu, lam/mu), W = mu (X - E) + Lambda and
    # Lambda' = Lambda + mu (X - E - a K' b'.T), the last after a whole pass,
    # where the state carries v = mu (X - a K b.T) + Lambda, and the pass
    # leaves the next pass's W' = mu' L' + clip(v') in the scratch
    r = min(r, m, n)
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(r=r).resolved(m, n)
    x = draw(rng, (m, n, num), "F")
    a, b = rng.standard_normal((m, r)), rng.standard_normal((n, r))
    split = draw(rng, (r, r, num), "F")
    dual_rec = draw(rng, (m, n, num), "F")
    low_rank = np.einsum("ia,abk,jb->ijk", a, split, b)
    e_ref = shrink(x - low_rank + dual_rec / mu, cfg.lam / mu)
    w_ref = mu * (x - e_ref) + dual_rec

    v = np.asfortranarray(mu * (x - low_rank) + dual_rec)
    low = np.asfortranarray(low_rank)
    w = _weighted_data(low, v, mu, cfg.lam, np.empty_like(x))
    assert w is low
    assert_close(w, w_ref, mu * x, mu * e_ref, dual_rec)

    state = SolverState(
        a=a, b=b, core=draw(rng, (r, r, num), "F"), split=split, v=v,
        dual_split=draw(rng, (r, r, num), "F"), mu=mu, mu_k=mu_k,
        mu_cap=1e3, mu_k_cap=1e3,
    )
    assert_close(state.outliers(cfg.lam), e_ref, x - low_rank, dual_rec / mu)
    assert_close(state.dual_rec(x), dual_rec, mu * x, mu * low_rank, dual_rec)
    after = iterate(state, x, cfg)
    assert after is state and after.scratch is not None
    # the pass wrote L', then W' over it, into v's array and swapped it
    # with the scratch's
    assert after.scratch.w is v
    low_rank = np.einsum("ia,abk,jb->ijk", after.a, after.split, after.b)
    clipped = np.clip(after.v, -cfg.lam, cfg.lam)
    assert_close(after.scratch.w, after.mu * low_rank + clipped, after.mu * low_rank)
    assert_close(
        after.dual_rec(x),
        dual_rec + mu * (x - e_ref - low_rank),
        dual_rec, after.mu * x, mu * e_ref, after.mu * low_rank,
    )
