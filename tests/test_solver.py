"""Solver configuration, initialization, iteration, and convergence."""

import sys
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdrsdl
from kdrsdl import (
    SolverConfig,
    SyntheticSpec,
    generate,
    reconstruct,
    relative_error,
    rpca_slices,
    solve,
)
from kdrsdl import linalg, rpca, solver, tensor  # modules, for monkeypatching
from kdrsdl.linalg import _one_blas_thread, _openblas_controls, shrink
from kdrsdl.solver import (
    _Scratch,
    _basis_a,
    _basis_b,
    _residual_terms,
    _weighted_data,
    errors_of,
    initialize,
    iterate,
)
from kdrsdl.tensor import as_tensor, mode_product, slice_norms


def consistent_state(rng, m, n, num, r, config):
    """A state whose reconstruction matches x exactly, with zero duals."""
    a, _ = np.linalg.qr(rng.standard_normal((m, r)))
    b, _ = np.linalg.qr(rng.standard_normal((n, r)))
    core = rng.standard_normal((r, r, num))
    x = reconstruct(core, a, b)
    state = initialize(x, config)
    state = replace(state, a=a, b=b, core=core.copy(), split=core.copy(), v=np.zeros_like(x))
    return state, x


def test_config_defaults_resolution():
    cfg = SolverConfig().resolved(50, 40)
    assert cfg.r == 40
    assert cfg.lam == 1 / np.sqrt(50)
    assert cfg.alpha == 1e-2
    assert solver.ETA == 1.25
    assert solver.RHO == 1.2
    assert solver.MU_CAP_FACTOR == 1e7
    assert cfg.epsilon == 1e-7
    assert cfg.max_iter == 1000


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SolverConfig(r=41).resolved(50, 40)
    with pytest.raises(ValueError):
        SolverConfig(r=0).resolved(50, 40)
    with pytest.raises(ValueError):
        SolverConfig(lam=-0.1).resolved(50, 40)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0).resolved(50, 40)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=0).resolved(50, 40)
    # every comparison with NaN is False, so a NaN must fail each check
    for name in ("lam", "alpha", "epsilon"):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got nan$"):
            SolverConfig(**{name: np.nan}).resolved(50, 40)
    with pytest.raises(ValueError, match="^alpha must be positive, got -1.0$"):
        SolverConfig(alpha=-1.0).resolved(50, 40)
    for name in ("r", "max_iter"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
            SolverConfig(**{name: 2.5}).resolved(50, 40)


def test_solve_names_a_non_integer_parameter():
    x = np.random.default_rng(0).standard_normal((6, 5, 3))
    for name in ("r", "max_iter"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
            solve(x, SolverConfig(**{name: 2.5}))
    # numpy integers are integers
    result = solve(x, SolverConfig(r=np.int64(2), max_iter=np.int32(3)))
    assert result.a.shape == (6, 2)
    assert result.iterations == 3


def test_trace_grows_with_the_passes_not_with_max_iter():
    # a trace sized by max_iter up front cannot even be allocated at 2**62
    x, _ = generate(SyntheticSpec(12, 10, 4, 2, 2, 3, 0.7, 0))
    fac = solve(x, SolverConfig(r=3, max_iter=2**62))
    assert fac.converged
    assert fac.trace.shape == (fac.iterations, 4)
    assert fac.trace.tobytes() == solve(x, SolverConfig(r=3)).trace.tobytes()


@pytest.mark.parametrize("m, n", [(0, 40), (50, 0), (-1, 3)])
def test_config_names_empty_slices_before_the_core_size(m, n):
    for config in (SolverConfig(), SolverConfig(r=1)):
        with pytest.raises(ValueError, match=f"slices must be at least 1 x 1, got {m} x {n}"):
            config.resolved(m, n)


def test_initialize_dual_step_formula():
    # two slices with Frobenius norms 2 and 3: mu = 1.25 * 2 / 5 = 0.5
    x = np.zeros((3, 3, 2))
    x[0, 0, 0] = 2.0
    x[0, 0, 1] = 3.0
    cfg = SolverConfig(r=2).resolved(3, 3)
    state = initialize(x, cfg)
    assert state.mu == 0.5
    assert state.mu_cap == 0.5 * 1e7


def test_initialize_identical_diagonal_slices():
    # both mode Grams are 3 diag(sigma^2) padded with zeros, so the bases
    # are unit vectors weighted by (sigma_j^2 / sigma_1^2)^1.5 = (sigma_j / 4)^3
    sigma = np.array([4.0, 2.0, 1.0])
    x = np.zeros((5, 4, 3))
    for i in range(3):
        x[:3, :3, i] = np.diag(sigma)
    state = initialize(x, SolverConfig(r=3).resolved(5, 4))
    weights = np.diag((sigma / 4.0) ** 3)
    np.testing.assert_allclose(state.a, np.eye(5, 3) @ weights, atol=1e-12)
    np.testing.assert_allclose(state.b, np.eye(4, 3) @ weights, atol=1e-12)
    for i in range(3):
        np.testing.assert_allclose(state.core[:, :, i], np.diag(sigma), atol=1e-12)


def test_initialize_shapes_and_column_norms():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 6, 4))
    state = initialize(x, SolverConfig(r=3).resolved(8, 6))
    assert state.a.shape == (8, 3)
    assert state.b.shape == (6, 3)
    assert state.core.shape == (3, 3, 4)
    assert state.split.shape == (3, 3, 4)
    # each column is a unit vector times a weight in [0, 1], the first 1
    for basis in (state.a, state.b):
        norms = np.linalg.norm(basis, axis=0)
        assert abs(norms[0] - 1) <= 1e-12
        assert np.all(np.diff(norms) <= 1e-12) and np.all(norms >= 0)
    assert not state.dual_rec(x).any()
    assert not state.dual_split.any()


def test_initialize_starts_split_equal_to_core():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 5, 3))
    state = initialize(x, SolverConfig(r=2).resolved(6, 5))
    np.testing.assert_array_equal(state.core, state.split)


def leading_eigenvectors(gram, r):
    """Reference: eigenpairs of gram largest first, largest-magnitude entries nonnegative."""
    lam, q = np.linalg.eigh(gram)
    lam, q = lam[::-1][:r], q[:, ::-1][:, :r].copy()
    for j in range(r):
        if q[np.argmax(np.abs(q[:, j])), j] < 0:
            q[:, j] = -q[:, j]
    return lam, q


def initialize_slice_by_slice(x, config):
    """Reference start: mode Grams summed slice by slice, weights, a diagonal core."""
    m, n, num = x.shape
    r = config.r
    gram_a, gram_b = np.zeros((m, m)), np.zeros((n, n))
    for i in range(num):
        gram_a += x[:, :, i] @ x[:, :, i].T
        gram_b += x[:, :, i].T @ x[:, :, i]
    bases = []
    for gram in (gram_a, gram_b):
        lam, q = leading_eigenvectors(gram, r)
        w = np.zeros(r)
        if lam[0] > 0:
            w = np.maximum(lam / lam[0], 0.0) ** 1.5
        bases.append((q, w))
    (qa, wa), (qb, wb) = bases
    core = np.zeros((r, r, num))
    for i in range(num):
        for j in range(r):
            core[j, j, i] = qa[:, j] @ x[:, :, i] @ qb[:, j]
    return qa * wa, qb * wb, core


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "m, n, num, r",
    [(8, 6, 5, 3), (6, 8, 4, 6), (7, 7, 3, 7), (1, 5, 3, 1), (5, 4, 1, 4)],
)
def test_initialize_matches_slice_by_slice_reference(m, n, num, r, order):
    rng = np.random.default_rng(m * 100 + n * 10 + num)
    x = rng.standard_normal((m, n, num))
    x[:, :, 0] = 0.0                                     # a zero slice
    if num > 2:
        x[:, :, 1] = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    x = np.asarray(x, order=order)
    state = initialize(x, SolverConfig(r=r).resolved(m, n))
    a, b, core = initialize_slice_by_slice(x, SolverConfig(r=r).resolved(m, n))
    scale = max(1.0, np.abs(core).max())
    np.testing.assert_allclose(state.a, a, rtol=0, atol=1e-10)
    np.testing.assert_allclose(state.b, b, rtol=0, atol=1e-10)
    np.testing.assert_allclose(state.core, core, rtol=0, atol=1e-10 * scale)
    assert state.a.flags.c_contiguous and state.b.flags.c_contiguous
    assert state.core.flags.f_contiguous


def test_initialize_bases_are_the_sign_fixed_eigenvectors_of_the_mode_grams():
    x = np.random.default_rng(12).standard_normal((9, 7, 6))
    r = 5
    state = initialize(x, SolverConfig(r=r).resolved(9, 7))
    grams = (np.einsum("pji,qji->pq", x, x), np.einsum("jpi,jqi->pq", x, x))
    for basis, gram in zip((state.a, state.b), grams):
        lam, q = leading_eigenvectors(gram, r)
        w = np.linalg.norm(basis, axis=0)
        np.testing.assert_allclose(w, (lam / lam[0]) ** 1.5, rtol=1e-10)
        unit = basis / w
        np.testing.assert_allclose(unit, q, atol=1e-10)
        # the sign convention: each column's largest-magnitude entry is nonnegative
        assert np.all(unit[np.argmax(np.abs(unit), axis=0), np.arange(r)] >= 0)
        np.testing.assert_allclose(gram @ unit, unit * lam, atol=1e-10 * lam[0])


def test_initialize_core_is_diagonal_from_the_unweighted_eigenvectors():
    x = np.random.default_rng(13).standard_normal((6, 8, 4))
    r = 3
    state = initialize(x, SolverConfig(r=r).resolved(6, 8))
    qa = state.a / np.linalg.norm(state.a, axis=0)
    qb = state.b / np.linalg.norm(state.b, axis=0)
    off = ~np.eye(r, dtype=bool)
    for i in range(4):
        k = state.core[:, :, i]
        assert not k[off].any()
        np.testing.assert_allclose(np.diag(k), np.diag(qa.T @ x[:, :, i] @ qb), atol=1e-12)


def test_initialize_weighs_directions_past_the_rank_by_zero():
    # every slice lives in the first 2 rows and columns: both mode Grams
    # have exact zero eigenvalues past rank 2, so r = 4 leaves two
    # directions with weight exactly 0
    rng = np.random.default_rng(14)
    x = np.zeros((6, 5, 4))
    x[:2, :2] = rng.standard_normal((2, 2, 4))
    state = initialize(x, SolverConfig(r=4).resolved(6, 5))
    for basis in (state.a, state.b):
        w = np.linalg.norm(basis, axis=0)
        assert w[0] == pytest.approx(1.0, rel=1e-12) and w[1] > 0
        assert not w[2:].any()
    assert not state.core[2:, 2:].any()
    # in general position the Grams' eigenvalues past the rank are round-off
    # of either sign, and their weights (lam / lam_1)^1.5 vanish with them
    u, v = rng.standard_normal((6, 2)), rng.standard_normal((5, 2))
    x = np.einsum("pj,jki,qk->pqi", u, rng.standard_normal((2, 2, 4)), v)
    state = initialize(x, SolverConfig(r=4).resolved(6, 5))
    for basis in (state.a, state.b):
        assert np.all(np.linalg.norm(basis, axis=0)[2:] <= 1e-20)


def test_initialize_zero_input_gives_zero_bases_and_eta_steps():
    x = np.zeros((5, 4, 3))
    state = initialize(x, SolverConfig(r=3).resolved(5, 4))
    assert not state.a.any() and not state.b.any() and not state.core.any()
    assert state.mu == solver.ETA and state.mu_k == solver.ETA


def test_initialize_copies_no_data_sized_array():
    # beyond v, which the state holds, the start allocates only Gram-, r-
    # and slice-sized arrays: a copy of x would add x.nbytes
    x = np.asfortranarray(np.random.default_rng(15).standard_normal((40, 30, 50)))
    cfg = SolverConfig(r=5).resolved(40, 30)
    tracemalloc.start()
    try:
        state = initialize(x, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 + 0.5) * x.nbytes
    assert state.v.nbytes == x.nbytes


def separated_stack(seed, m, n, num):
    """Slices U diag(s_i) V.T whose mode Grams have eigenvalue gaps of 2x or more.

    Well-separated eigenvalues keep the eigenvectors stable to rounding,
    so two starts built from differently rounded Grams can be compared.
    """
    rng = np.random.default_rng(seed)
    k = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = 2.0 ** -np.arange(k)[:, None] * (1 + 0.1 * rng.uniform(-1, 1, (k, num)))
    return np.einsum("pj,ji,qj->pqi", u[:, :k], s, v[:, :k])


start_cases = given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    num=st.integers(1, 6),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)


def start_of(x, r):
    return initialize(as_tensor(x), SolverConfig(r=r).resolved(*x.shape[:2]))


@settings(max_examples=60, deadline=None)
@start_cases
def test_initialize_permuting_slices_permutes_only_the_core(m, n, num, data, seed):
    r = data.draw(st.integers(1, min(m, n)), label="r")
    x = separated_stack(seed, m, n, num)
    perm = np.random.default_rng(seed).permutation(num)
    start, permuted = start_of(x, r), start_of(x[:, :, perm], r)
    np.testing.assert_allclose(permuted.a, start.a, atol=1e-10)
    np.testing.assert_allclose(permuted.b, start.b, atol=1e-10)
    np.testing.assert_allclose(permuted.core, start.core[:, :, perm], atol=1e-10)


@settings(max_examples=60, deadline=None)
@start_cases
def test_initialize_transposing_every_slice_swaps_the_bases(m, n, num, data, seed):
    r = data.draw(st.integers(1, min(m, n)), label="r")
    x = separated_stack(seed, m, n, num)
    start, transposed = start_of(x, r), start_of(x.transpose(1, 0, 2), r)
    np.testing.assert_allclose(transposed.a, start.b, atol=1e-10)
    np.testing.assert_allclose(transposed.b, start.a, atol=1e-10)
    np.testing.assert_allclose(transposed.core, start.core, atol=1e-10)


@settings(max_examples=60, deadline=None)
@start_cases
def test_initialize_scaling_the_data_scales_only_the_core(m, n, num, data, seed):
    r = data.draw(st.integers(1, min(m, n)), label="r")
    c = data.draw(st.floats(1e-6, 1e6), label="c")
    x = separated_stack(seed, m, n, num)
    start, scaled = start_of(x, r), start_of(c * x, r)
    np.testing.assert_allclose(scaled.a, start.a, atol=1e-10)
    np.testing.assert_allclose(scaled.b, start.b, atol=1e-10)
    np.testing.assert_allclose(scaled.core, c * start.core, atol=1e-10 * c)


def test_iterate_fixed_point_of_consistent_state():
    """A consistent state with a huge outlier weight barely moves.

    The outliers stay exactly zero, the reconstruction error stays at
    round-off, and the duals accumulate only round-off level residuals
    (measured in the Lambda/mu scale the algorithm actually uses).
    """
    rng = np.random.default_rng(11)
    cfg = SolverConfig(r=3, lam=1e30, alpha=1e-300, epsilon=1e-15).resolved(10, 8)
    state, x = consistent_state(rng, 10, 8, 4, 3, cfg)
    state = replace(state, mu=1e12, mu_k=1e4, mu_cap=1e20, mu_k_cap=1e12)
    after = iterate(state, x, cfg)
    assert not after.outliers(cfg.lam).any()
    err_rec, err_split = errors_of(after, x, cfg)
    assert err_rec <= 1e-12
    assert err_split <= 1e-12
    assert np.linalg.norm(after.dual_rec(x)) / after.mu <= 1e-12 * np.linalg.norm(x)
    assert np.linalg.norm(after.dual_split) / after.mu_k <= 1e-12


def test_iterate_zero_tensor_collapses():
    x = np.zeros((5, 4, 3))
    cfg = SolverConfig(r=2).resolved(5, 4)
    state = initialize(x, cfg)
    for _ in range(3):
        state = iterate(state, x, cfg)
    assert np.linalg.norm(reconstruct(state.split, state.a, state.b)) <= 1e-10


def test_iterate_split_solves_stein_equation():
    """One pass leaves the split tensor satisfying its defining equation."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10, 10, 3))
    cfg = SolverConfig(r=4).resolved(10, 10)
    state = initialize(x, cfg)
    # replay the pass up to the split update to get its inputs
    low_rank = reconstruct(state.split, state.a, state.b)
    w = _weighted_data(low_rank, state.v, state.mu, cfg.lam, np.empty_like(x))
    x_fit, dual_rec = x - state.outliers(cfg.lam), state.dual_rec(x)
    a = _basis_a(w, state.b, state.split, state.mu)
    b = _basis_b(mode_product(w, a.T, 1).T, state.split, a, state.mu)
    # iterate writes over v's array, so it runs on a copy
    after = iterate(replace(state, v=state.v.copy()), x, cfg)
    lhs = -(state.mu / state.mu_k) * (a.T @ a)
    rhs = b.T @ b
    for i in range(3):
        c = (
            a.T @ (dual_rec[:, :, i] + state.mu * x_fit[:, :, i]) @ b
            + state.dual_split[:, :, i]
        ) / state.mu_k + state.core[:, :, i]
        k = after.split[:, :, i]
        residual = np.linalg.norm(k - lhs @ k @ rhs - c)
        assert residual <= 1e-9 * max(1.0, np.linalg.norm(c))
        system = np.eye(16) - np.kron(rhs.T, lhs)
        oracle = np.linalg.solve(system, c.ravel(order="F")).reshape((4, 4), order="F")
        assert np.max(np.abs(k - oracle)) <= 1e-9


def state_bits(state):
    fields = ("a", "b", "core", "split", "v", "dual_split")
    return [getattr(state, name).tobytes() for name in fields]


def test_carried_difference_matches_a_fresh_rebuild():
    """The W a pass carries equals the one a new state makes from a rebuild of L.

    replace drops the scratch, so the fresh chain rebuilds W every pass;
    the last pass gets a new x, for which the carried scratch must not be used.
    """
    spec = SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=4)
    x, _ = generate(spec)
    cfg = SolverConfig(r=3).resolved(12, 10)
    carried, fresh = initialize(x, cfg), initialize(x, cfg)
    for data in (x, x, x, 2 * x):
        carried = iterate(carried, data, cfg)
        fresh = replace(fresh)
        assert fresh.scratch is None
        fresh = iterate(fresh, data, cfg)
        assert state_bits(carried) == state_bits(fresh)


@pytest.mark.parametrize("name, factor", [("mu", 2.0), ("v", 1.5), ("a", 1.1)])
def test_a_field_assignment_drops_the_scratch(name, factor):
    """A field assigned on the state gives the pass of the same edit made by replace.

    A pass from the W the scratch holds for the old field would differ.
    Until its next pass the edited state has no scratch, so errors_of
    refuses it.
    """
    x, _ = generate(SyntheticSpec(12, 10, 4, 2, 2, 3, 0.7, 4))
    cfg = SolverConfig(r=3).resolved(12, 10)
    edited, reference = initialize(x, cfg), initialize(x, cfg)
    iterate(edited, x, cfg)
    iterate(reference, x, cfg)
    setattr(edited, name, factor * getattr(edited, name))
    with pytest.raises(ValueError, match="no scratch for this x and lam"):
        errors_of(edited, x, cfg)
    replaced = replace(reference, **{name: factor * getattr(reference, name)})
    iterate(edited, x, cfg)
    iterate(replaced, x, cfg)
    assert state_bits(edited) == state_bits(replaced)
    assert errors_of(edited, x, cfg) == errors_of(replaced, x, cfg)


def test_the_step_wise_api_is_not_exported():
    step_wise = ("SolverState", "errors_of", "initialize", "iterate")
    assert not set(step_wise) & set(kdrsdl.__all__)
    assert len(kdrsdl.__all__) == 27
    assert all(callable(getattr(solver, name)) for name in step_wise)


def test_a_new_lam_rebuilds_the_scratch():
    """The carried W holds clip(v, -lam, lam), so a pass under another lam makes it anew.

    The pass under the new lam, and the check after it, equal those of
    the same state with its scratch dropped, bit for bit.
    """
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=4))
    cfg = SolverConfig(r=3).resolved(12, 10)
    other = replace(cfg, lam=0.5 * cfg.lam)
    carried, fresh = initialize(x, cfg), initialize(x, cfg)
    for state in (carried, fresh):
        iterate(state, x, cfg)
        iterate(state, x, cfg)
    fresh = replace(fresh)
    carried, fresh = iterate(carried, x, other), iterate(fresh, x, other)
    assert state_bits(carried) == state_bits(fresh)
    assert errors_of(carried, x, other) == errors_of(fresh, x, other)
    assert carried.scratch.w.tobytes() == fresh.scratch.w.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_rank_one_rebuild_moves_only_the_last_bits(monkeypatch, seed):
    """At r = 1 the broadcast rebuild R_i (a b.T) stands in for the two mode products.

    A solve with every rebuild made by the mode products takes the same
    passes, and its outliers agree to rounding.
    """
    x, _ = generate(SyntheticSpec(30, 40, 24, 1, 1, 1, 0.7, seed))
    fit = solve(x, SolverConfig(r=1))

    def mode_product_rebuilder(a, b):
        return lambda core, out=None: mode_product(mode_product(core, a, 1), b, 2, out=out)

    monkeypatch.setattr(tensor, "rebuilder", mode_product_rebuilder)
    monkeypatch.setattr(solver, "rebuilder", mode_product_rebuilder)
    reference = solve(x, SolverConfig(r=1))
    assert fit.converged and fit.iterations == reference.iterations
    assert fit.outliers.tobytes() != reference.outliers.tobytes()
    gap = np.linalg.norm(fit.outliers - reference.outliers)
    assert gap <= 1e-12 * np.linalg.norm(reference.outliers)


def test_iterate_advances_one_state_in_place(monkeypatch):
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    cfg = SolverConfig(r=3).resolved(12, 10)
    state = initialize(x, cfg)
    monkeypatch.setattr(solver, "SolverState", None)  # a pass builds no state
    after = iterate(state, x, cfg)
    scratch = state.scratch
    assert after is state and state.iteration == 1 and scratch is not None
    for t in (2, 3):
        assert iterate(state, x, cfg) is state
        assert state.iteration == t and state.scratch is scratch


def test_failed_pass_drops_the_scratch(monkeypatch):
    """A failed pass drops the scratch, as SolverState states.

    The next pass then makes W anew from a rebuild of L, and the state
    goes on exactly as one that never failed.
    """
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    cfg = SolverConfig(r=3).resolved(12, 10)
    state, reference = initialize(x, cfg), initialize(x, cfg)
    for _ in range(2):
        iterate(state, x, cfg)
        iterate(reference, x, cfg)

    def failing_stein(*args):
        raise np.linalg.LinAlgError("numerical failure")

    monkeypatch.setattr(solver, "solve_stein", failing_stein)
    with pytest.raises(solver.SolverError) as info:
        iterate(state, x, cfg)
    assert info.value.iteration == 3
    assert state.scratch is None
    assert state.iteration == 2
    monkeypatch.undo()
    iterate(state, x, cfg)
    iterate(reference, x, cfg)
    assert state_bits(state) == state_bits(reference)


def fail_stein_at_pass_3(monkeypatch):
    """Make the third Stein solve of the next solve raise, as a failure at pass 3."""
    stein, calls = solver.solve_stein, []

    def stein_failing_at_pass_3(*args):
        calls.append(args)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("numerical failure")
        return stein(*args)

    monkeypatch.setattr(solver, "solve_stein", stein_failing_at_pass_3)


def test_solver_error_trace_holds_the_passes_before_the_failure(monkeypatch):
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    full = solve(x, SolverConfig(r=3))
    fail_stein_at_pass_3(monkeypatch)
    with pytest.raises(solver.SolverError) as info:
        solve(x, SolverConfig(r=3, max_iter=2**62))
    assert info.value.iteration == 3
    assert info.value.trace.shape == (2, 4)
    assert info.value.trace.tobytes() == full.trace[:2].tobytes()


def test_warm_pass_allocates_no_data_sized_array():
    spec = SyntheticSpec(m=40, n=40, num_slices=10, rank_a=2, rank_b=2, r=2, p=0.7, seed=0)
    x, _ = generate(spec)
    cfg = SolverConfig(r=2).resolved(40, 40)
    state = iterate(initialize(x, cfg), x, cfg)
    tracemalloc.start()
    try:
        state = iterate(state, x, cfg)
        errors_of(state, x, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * x.nbytes


def test_pass_frees_the_projection_before_the_rebuild(monkeypatch):
    """The (N, n, r) projection W_i.T @ A is dead when the dual step's rebuild writes L'.

    The projection is the pass's one mode-1 product of a data-sized
    tensor. This stack is one block, so the pass makes one rebuild.
    """
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    cfg = SolverConfig(r=3).resolved(12, 10)
    state = iterate(initialize(x, cfg), x, cfg)
    product, rebuilder = solver.mode_product, solver.rebuilder
    projections, alive = [], []

    def checking_mode_product(t, u, mode, out=None):
        result = product(t, u, mode, out=out)
        if mode == 1 and t.shape == x.shape:
            projections.append(weakref.ref(result))
        return result

    def checking_rebuilder(a, b):
        rebuild = rebuilder(a, b)

        def checking_rebuild(core, out=None):
            alive.append([ref() is not None for ref in projections])
            return rebuild(core, out=out)

        return checking_rebuild

    monkeypatch.setattr(solver, "mode_product", checking_mode_product)
    monkeypatch.setattr(solver, "rebuilder", checking_rebuilder)
    iterate(state, x, cfg)
    assert len(projections) == 1
    assert alive == [[False]]


def test_iterate_core_is_shrunk_split():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 7, 2))
    cfg = SolverConfig(r=3).resolved(8, 7)
    state = initialize(x, cfg)
    dual_split, mu_k = state.dual_split, state.mu_k
    after = iterate(state, x, cfg)
    expected = shrink(after.split - dual_split / mu_k, cfg.alpha / mu_k)
    np.testing.assert_allclose(after.core, expected, atol=1e-12)


def test_step_size_schedule_exact():
    """mu follows min(cap, mu0 * rho^t) exactly, as repeated products."""
    spec = SyntheticSpec(m=12, n=10, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=0)
    x, _ = generate(spec)
    cfg = SolverConfig(r=3, epsilon=1e-14, max_iter=120)
    fac = solve(x, cfg)
    resolved = cfg.resolved(12, 10)
    state = initialize(x, resolved)
    mu, cap = state.mu, state.mu_cap
    mu_k, cap_k = state.mu_k, state.mu_k_cap
    for row in fac.trace:
        assert row[2] == mu
        assert row[3] == mu_k
        mu = min(cap, solver.RHO * mu)
        mu_k = min(cap_k, solver.RHO * mu_k)
    assert fac.trace[-1, 2] <= cap


def test_solve_returns_the_e_step_its_last_check_measured():
    """The returned E is the final state's E-step, so err_rec is the returned triple's."""
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=1))
    fac = solve(x, SolverConfig(r=3, max_iter=6))
    cfg = SolverConfig(r=3, max_iter=6).resolved(12, 10)
    with _one_blas_thread():
        state = initialize(x, cfg)
        for _ in range(6):
            iterate(state, x, cfg)
    assert fac.outliers.tobytes() == state.outliers(cfg.lam).tobytes()
    resid = x - fac.low_rank() - fac.outliers
    assert abs(fac.trace[-1, 0] - np.max(slice_norms(resid) ** 2 / slice_norms(x) ** 2)) <= 1e-12


def test_solve_zero_tensor_trivial():
    with pytest.warns(RuntimeWarning):
        fac = solve(np.zeros((5, 4, 3)), SolverConfig())
    assert fac.converged
    assert fac.iterations == 1
    assert fac.trace.shape[0] == 1
    assert not fac.outliers.any()
    assert np.linalg.norm(fac.low_rank()) == 0.0


def test_solve_recovers_30_percent_corruption():
    """Moderate corruption at benchmark scale is recovered near-exactly."""
    spec = SyntheticSpec(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10, p=0.7, seed=0)
    x, truth = generate(spec)
    fac = solve(x, SolverConfig(r=10, alpha=1e-2, epsilon=1e-12))
    assert fac.converged
    assert relative_error(fac.low_rank(), truth.low_rank) <= 1e-5
    assert relative_error(fac.outliers, truth.outliers) <= 1e-5


def test_solve_deterministic():
    spec = SyntheticSpec(m=20, n=16, num_slices=4, rank_a=2, rank_b=2, r=4, p=0.7, seed=3)
    x, _ = generate(spec)
    cfg = SolverConfig(r=4)
    fac1 = solve(x, cfg)
    fac2 = solve(x.copy(), cfg)
    assert fac1.trace.tobytes() == fac2.trace.tobytes()
    assert fac1.a.tobytes() == fac2.a.tobytes()
    assert fac1.outliers.tobytes() == fac2.outliers.tobytes()


def test_solve_nonconvergence_reported_not_raised():
    spec = SyntheticSpec(m=16, n=14, num_slices=4, rank_a=2, rank_b=2, r=4, p=0.6, seed=1)
    x, _ = generate(spec)
    fac = solve(x, SolverConfig(r=4, epsilon=1e-16, max_iter=5))
    assert not fac.converged
    assert fac.iterations == 5
    assert fac.trace.shape == (5, 4)


def test_errors_of_exact_state():
    rng = np.random.default_rng(5)
    cfg = SolverConfig(r=2).resolved(6, 5)
    state, x = consistent_state(rng, 6, 5, 3, 2, cfg)
    err_rec, err_split = errors_of(rebuilt(state, x, cfg), x, cfg)
    assert err_rec <= 1e-12
    assert err_split == 0.0


def test_errors_of_split_equal_core():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((7, 6, 2))
    cfg = SolverConfig(r=3).resolved(7, 6)
    state = initialize(x, cfg)
    _, err_split = errors_of(rebuilt(state, x, cfg), x, cfg)
    assert err_split == 0.0


def test_errors_of_perturbation_identity():
    """Perturbing one slice of E moves err_rec by exactly its norm ratio."""
    rng = np.random.default_rng(7)
    cfg = SolverConfig(r=2).resolved(6, 5)
    state, x = consistent_state(rng, 6, 5, 3, 2, cfg)
    delta = 0.01 * rng.standard_normal((6, 5))
    outliers = np.zeros_like(x)
    outliers[:, :, 1] = delta
    state, exact = with_outliers(state, cfg, outliers)
    err_rec, _ = errors_of(rebuilt(state, x, exact), x, exact)
    expected = np.linalg.norm(delta) ** 2 / np.linalg.norm(x[:, :, 1]) ** 2
    assert abs(err_rec - expected) <= 1e-12 * expected


def test_errors_of_floors_zero_slices_without_warning():
    """Zero-norm slices of x and of the core divide by the 1e-300 floor, silently.

    On a zero x the start has zero bases and core, so the residual is -E
    and the split gap is K; squared norms of 1e-300 read as about 1.
    """
    x = np.zeros((4, 4, 2))
    cfg = SolverConfig(r=2).resolved(4, 4)
    state = initialize(x, cfg)
    outliers, split = np.zeros_like(x), state.split.copy()
    outliers[0, 0, 0] = split[0, 0, 1] = 1e-150
    state, exact = with_outliers(replace(state, split=split), cfg, outliers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err_rec, err_split = errors_of(rebuilt(state, x, exact), x, exact)
        assert err_rec == pytest.approx(1.0, rel=1e-12)
        assert err_split == pytest.approx(1.0, rel=1e-12)
        # and on the scratch's path, after a real pass
        x[0, 0, 1] = 1.0
        state = iterate(initialize(x, cfg), x, cfg)
        expected = errors_of(rebuilt(state, x, cfg), x, cfg)
        assert errors_of(state, x, cfg) == pytest.approx(expected, rel=1e-12)


def test_errors_of_reads_an_overflowing_ratio_as_inf():
    """A zero core slice under a large split gap gives err_split == inf, silently.

    Two passes on this 1 x 2 x 2 x shrink the second core slice to zero
    while K keeps a gap of about 2.5e4, so the floored ratio passes the
    float range.
    """
    x = np.random.default_rng(2602).standard_normal((1, 2, 2)) * 2.0**21
    cfg = SolverConfig(r=1).resolved(1, 2)
    state = initialize(x, cfg)
    for _ in range(2):
        iterate(state, x, cfg)
    assert slice_norms(state.core)[1] == 0.0
    assert slice_norms(state.split - state.core)[1] > 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err_rec, err_split = errors_of(state, x, cfg)
        assert err_split == np.inf
        assert abs(err_rec - direct_err_rec(state, x, cfg)) <= 1e-12
        err_rec, err_split = errors_of(rebuilt(state, x, cfg), x, cfg)
        assert err_split == np.inf
        assert abs(err_rec - direct_err_rec(state, x, cfg)) <= 1e-12


def with_outliers(state, cfg, outliers):
    """A state and config under which the state's E-step gives outliers, to rounding.

    E = shrink(v, lam) / mu, so at lam = 1e-300 v = mu E gives E.
    """
    return replace(state, v=state.mu * outliers), replace(cfg, lam=1e-300)


def rebuilt(state, x, cfg):
    """A copy of state whose scratch holds the sums over a rebuilt P, for errors_of.

    P = X - a K b.T - E for the state's E-step, the residual whose sums
    a pass keeps; the copy's scratch serves errors_of only, not a pass.
    """
    p = x - reconstruct(state.split, state.a, state.b) - state.outliers(cfg.lam)
    copy = replace(state)
    terms = _residual_terms(p, state.a, state.b)
    copy.scratch = _Scratch(x, cfg.lam, slice_norms(x) ** 2, None, None, *terms)
    return copy


def direct_err_rec(state, x, cfg):
    """err_rec from the residual X - a R b.T - E itself: the reference for errors_of."""
    resid = x - reconstruct(state.core, state.a, state.b) - state.outliers(cfg.lam)
    return float(np.max(slice_norms(resid) ** 2 / slice_norms(x) ** 2))


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    num=st.integers(1, 5),
    data=st.data(),
    k=st.integers(-40, 40),
    passes=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_errors_of_matches_the_direct_residual(m, n, num, data, k, passes, seed):
    """The r x r form of the check agrees with the rebuilt residual at any scale.

    After real passes the scratch holds the last pass's P and K != R, so
    every term of the formula is live; the same sums over a rebuilt P
    must agree too.
    """
    r = data.draw(st.integers(1, min(m, n)), label="r")
    x = np.random.default_rng(seed).standard_normal((m, n, num)) * 2.0**k
    cfg = SolverConfig(r=r).resolved(m, n)
    state = initialize(x, cfg)
    for _ in range(passes):
        iterate(state, x, cfg)
    expected = direct_err_rec(state, x, cfg)
    assert abs(errors_of(state, x, cfg)[0] - expected) <= 1e-12
    assert abs(errors_of(rebuilt(state, x, cfg), x, cfg)[0] - expected) <= 1e-12


def test_errors_of_reads_an_exact_zero_residual_as_zero():
    """A state with X = a R b.T + E exactly gives err_rec == 0.0.

    With K = R every term is zero. With K != R the terms cancel: here
    ||P||^2 = 3 is stored as sqrt(3)**2 < 3, so they sum to a negative
    round-off that the clamp must read as 0.
    """
    rng = np.random.default_rng(5)
    cfg = SolverConfig(r=2).resolved(6, 5)
    state, x = consistent_state(rng, 6, 5, 3, 2, cfg)
    assert errors_of(rebuilt(state, x, cfg), x, cfg)[0] == 0.0

    x = np.ones((3, 1, 1))
    cfg = SolverConfig(r=1).resolved(3, 1)
    state = initialize(x, cfg)
    ones = np.ones((1, 1, 1), order="F")
    state = replace(state, a=np.ones((3, 1)), b=np.ones((1, 1)), core=ones, split=2 * ones)
    assert direct_err_rec(state, x, cfg) == 0.0
    assert errors_of(rebuilt(state, x, cfg), x, cfg)[0] == 0.0


def test_errors_of_refuses_a_state_without_a_scratch_for_its_x_and_lam():
    """The scratch's sums over P are read only for the x and lam of its pass.

    Another x, another lam, a state made with replace and a state no pass
    has advanced raise ValueError, not a check of a stale P.
    """
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    cfg = SolverConfig(r=3).resolved(12, 10)
    state = initialize(x, cfg)
    for _ in range(3):
        iterate(state, x, cfg)
    errors_of(state, x, cfg)
    cases = [
        (state, x + 0.5, cfg),
        (state, x.copy(), cfg),
        (state, x, replace(cfg, lam=0.5 * cfg.lam)),
        (replace(state, v=state.v + 0.25), x, cfg),
        (initialize(x, cfg), x, cfg),
    ]
    for edited, data, config in cases:
        with pytest.raises(ValueError, match="no scratch for this x and lam"):
            errors_of(edited, data, config)


@pytest.mark.filterwarnings("ignore:zero-norm slices")
@pytest.mark.parametrize("m, n, num, r, bound", [(60, 80, 200, 1, 2.3), (100, 100, 50, 20, 3.0)])
def test_solve_holds_three_data_sized_arrays(m, n, num, r, bound):
    """Beyond x, a warm solve holds v, the buffer for L and W, and two blocks of slices.

    At 60 x 80 x 200 the stack is 34 blocks of 6 slices, and the peak
    reads 2.08x x.nbytes; at 100 x 100 x 50 with r = 20 the r-skinny
    projections add to it, and it reads 2.74x. Holding E and Lambda apart
    from v read 3.05x and 3.68x, and a further data-sized buffer for P
    4.02x at the first size.
    """
    spec = SyntheticSpec(m=m, n=n, num_slices=num, rank_a=min(r, 5), rank_b=min(r, 5), r=r,
                         p=0.7, seed=0)
    x, _ = generate(spec)
    solve(x, SolverConfig(r=r, max_iter=3))
    tracemalloc.start()
    try:
        solve(x, SolverConfig(r=r, max_iter=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * x.nbytes


def distinct_block_sizes(m, n, num):
    """BLOCK_BYTES values giving one slice, a non-divisor count, and the whole stack per block."""
    slice_bytes = 8 * m * n
    sizes = [1, slice_bytes * num]
    sizes += [slice_bytes * step for step in range(2, num) if num % step][:1]
    return sizes


def assert_solve_ignores_the_block_size(x, r, passes):
    """Solve x at every size distinct_block_sizes gives and compare every bit."""
    cfg = SolverConfig(r=r, epsilon=1e-300, max_iter=passes)
    results = []
    for size in distinct_block_sizes(*x.shape):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "BLOCK_BYTES", size)
            results.append(solve(x, cfg))
    first = results[0]
    for other in results[1:]:
        assert other.iterations == first.iterations == passes
        for name in ("a", "b", "core", "outliers", "trace"):
            assert getattr(other, name).tobytes() == getattr(first, name).tobytes()


@pytest.mark.filterwarnings("ignore:zero-norm slices")
@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 14),
    n=st.integers(1, 14),
    num=st.integers(1, 13),
    data=st.data(),
    passes=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_does_not_depend_on_the_block_size(m, n, num, data, passes, seed):
    """A solve, trace included, is bit-identical however many slices a block holds.

    The sweeps are elementwise, the rebuild's mode products compute each
    slice alone, and the check's sums over P take one matmul per slice,
    so nothing a solve returns depends on the number of slices one call
    covers; epsilon is out of reach, so every solve takes the same passes.
    """
    r = data.draw(st.integers(1, min(m, n)), label="r")
    x = np.random.default_rng(seed).standard_normal((m, n, num))
    assert_solve_ignores_the_block_size(x, r, passes)


@pytest.mark.parametrize(
    "m, n, num, r, passes", [(93, 104, 10, 23, 3), (91, 97, 13, 5, 4)]
)
def test_solve_does_not_depend_on_the_block_size_at_large_slices(m, n, num, r, passes):
    """Slices of more than 8192 entries, where a reduction over a block may chunk by position."""
    x = np.random.default_rng(0).standard_normal((m, n, num))
    assert_solve_ignores_the_block_size(x, r, passes)


@pytest.mark.parametrize("m, n, num, r", [(100, 100, 50, 20), (60, 80, 30, 1)])
def test_errors_of_reads_the_scratch_as_a_rebuild_would(m, n, num, r):
    """After every pass the scratch's sums give the bits of the same sums over a rebuilt P."""
    spec = SyntheticSpec(m=m, n=n, num_slices=num, rank_a=min(r, 5), rank_b=min(r, 5), r=r, p=0.7, seed=0)
    x, _ = generate(spec)
    cfg = SolverConfig(r=r).resolved(m, n)
    state = initialize(x, cfg)
    for _ in range(8):
        iterate(state, x, cfg)
        assert errors_of(state, x, cfg) == errors_of(rebuilt(state, x, cfg), x, cfg)


@pytest.mark.parametrize("r", [2, 20])
def test_residual_check_does_not_raise_the_warm_pass_peak(r):
    """The check's r-skinny projection of P stays under the pass's own peak."""
    spec = SyntheticSpec(m=40, n=40, num_slices=10, rank_a=2, rank_b=2, r=r, p=0.7, seed=0)
    x, _ = generate(spec)
    cfg = SolverConfig(r=r).resolved(40, 40)
    state = iterate(initialize(x, cfg), x, cfg)
    tracemalloc.start()
    try:
        iterate(state, x, cfg)
        _, pass_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        errors_of(state, x, cfg)
        _, check_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check_peak <= pass_peak


def test_solver_error_carries_iteration_and_trace():
    from kdrsdl.solver import SolverError

    err = SolverError("iteration 3: singular system", 3, np.zeros((2, 4)))
    assert isinstance(err, RuntimeError)
    assert err.iteration == 3
    assert err.trace.shape == (2, 4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_input_raises_solver_error_at_first_pass():
    # the slice norms of x overflow, so the step sizes are 0 and the first
    # Gram systems are not finite
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    with pytest.raises(solver.SolverError) as info:
        solve(x * 1e200, SolverConfig(r=3))
    assert info.value.iteration == 1
    assert info.value.trace.shape == (0, 4)


def test_overflowing_input_names_the_overflow_without_numpy_warnings():
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solver.SolverError, match=r"^iteration 1: .*norms .* overflow") as info:
            solve(x * 1e200, SolverConfig(r=3))
    assert info.value.iteration == 1
    assert info.value.trace.shape == (0, 4)


@pytest.mark.parametrize("c", [1e80, 1e150])
def test_large_accepted_input_solves_without_numpy_warnings(c):
    # the Gram matrices' entries pass 1e154 here, where a Frobenius norm of
    # them overflows; the symmetry check must not take one
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fac = solve(c * x, SolverConfig(r=3))
    assert fac.converged


def test_initialize_rejects_overflowing_input():
    # a hand-stepped solve meets the same check as solve: without it the
    # step sizes start at 0 and the first pass divides by them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solver.SolverError, match=r"^iteration 1: .*norms .* overflow") as info:
            initialize(np.full((4, 3, 2), 1e200), SolverConfig().resolved(4, 3))
        assert info.value.iteration == 1
        assert info.value.trace.shape == (0, 4)
        # each slice's squared norm is finite, but their sum, the trace of
        # the mode Grams, is not
        x = np.full((1, 1, 2), 1e154)
        assert np.isfinite(slice_norms(x) ** 2).all()
        with pytest.raises(solver.SolverError, match=r"^iteration 1: .*norms .* overflow"):
            initialize(x, SolverConfig().resolved(1, 1))


@pytest.mark.parametrize("c", [1e-160, 1e-200])
def test_underflowing_input_names_the_underflow_without_numpy_warnings(c):
    # the squared norms of these slices are subnormal (1e-160) or 0 (1e-200);
    # solved, they read as converged with an all-zero low-rank part
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solver.SolverError, match=r"^iteration 1: .*norms .* underflow") as info:
            solve(c * x, SolverConfig(r=3))
    assert info.value.iteration == 1
    assert info.value.trace.shape == (0, 4)


@pytest.mark.parametrize("c", [1e-160, 1e-200])
def test_initialize_rejects_underflowing_input(c):
    # a hand-stepped solve meets the same check as solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solver.SolverError, match=r"^iteration 1: .*norms .* underflow") as info:
            initialize(np.full((4, 3, 2), c), SolverConfig().resolved(4, 3))
        assert info.value.iteration == 1
        assert info.value.trace.shape == (0, 4)
        # the rule is per slice: the stack's total squared norm is normal
        x = np.ones((4, 3, 2))
        x[:, :, 1] = c
        with pytest.raises(solver.SolverError, match=r"^iteration 1: .*norms .* underflow"):
            initialize(x, SolverConfig().resolved(4, 3))


def test_an_all_zero_slice_is_not_an_underflow():
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    x[:, :, 2] = 0.0
    with pytest.warns(RuntimeWarning, match="zero-norm"):
        fac = solve(x, SolverConfig(r=3))
    assert fac.converged
    assert not fac.low_rank()[:, :, 2].any()
    assert not fac.outliers[:, :, 2].any()


def test_zero_slice_warning_fires_once_per_solve():
    spec = SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0)
    x, _ = generate(spec)
    x[:, :, 2] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fac = solve(x, SolverConfig(r=3, epsilon=1e-300, max_iter=25))
    assert fac.iterations == 25
    flagged = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(flagged) == 1
    assert "zero-norm" in str(flagged[0].message)


def test_zero_slice_warning_points_at_the_caller_of_solve():
    x = np.zeros((5, 4, 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(x, SolverConfig(r=2))
    assert [w.filename for w in caught] == [__file__]


def test_zero_core_slice_warning_fires_once_at_the_caller_of_solve(monkeypatch):
    """A core slice shrunk to zero warns once, though no data slice is zero."""
    spec = SyntheticSpec(m=12, n=10, num_slices=6, rank_a=1, rank_b=1, r=1, p=0.7, seed=4)
    _, truth = generate(spec)
    low_rank = truth.low_rank * (0.55 / np.sqrt(np.mean(truth.low_rank**2)))
    x = low_rank + truth.outliers
    assert slice_norms(x).all()
    cores = []

    def recording_iterate(state, *args):
        cores.append(slice_norms(iterate(state, *args).core))
        return state

    monkeypatch.setattr(solver, "iterate", recording_iterate)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(x, SolverConfig(r=1))
    assert not all(norms.all() for norms in cores)
    assert [w.filename for w in caught] == [__file__]
    assert "zero-norm" in str(caught[0].message)


def test_zero_slice_warning_fires_before_a_later_solver_error(monkeypatch):
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    x[:, :, 1] = 0.0
    fail_stein_at_pass_3(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(solver.SolverError) as info:
            solve(x, SolverConfig(r=3))
    assert info.value.iteration == 3
    assert [w.filename for w in caught] == [__file__]
    assert "zero-norm" in str(caught[0].message)


def layouts(t):
    """C-ordered, Fortran-ordered and strided copies of a tensor's values."""
    return [np.ascontiguousarray(t), np.asfortranarray(t),
            np.moveaxis(np.ascontiguousarray(np.moveaxis(t, 2, 0)), 0, 2)]


@pytest.mark.filterwarnings("ignore:zero-norm slices")
@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 40), num=st.integers(1, 6),
       rank=st.integers(1, 5), r=st.integers(1, 10), p=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(m=50, n=50, num=20, rank=5, r=10, p=10, seed=1)
@example(m=24, n=32, num=6, rank=1, r=1, p=3, seed=0)
def test_results_bit_identical_in_any_memory_layout(m, n, num, rank, r, p, seed):
    """solve, mode_product in either mode and reconstruct read every layout alike."""
    r = min(r, m, n)
    rank = min(rank, r)
    x, _ = generate(SyntheticSpec(m, n, num, rank, rank, r, p=0.7, seed=seed))
    rng = np.random.default_rng(seed)
    for mode, u in ((1, rng.standard_normal((p, m))), (2, rng.standard_normal((p, n)))):
        assert len({mode_product(t, u, mode).tobytes() for t in layouts(x)}) == 1
    core, a, b = (rng.standard_normal(shape) for shape in ((r, r, num), (m, r), (n, r)))
    assert len({reconstruct(t, a, b).tobytes() for t in layouts(core)}) == 1
    fits = [solve(t, SolverConfig(r=r, max_iter=60)) for t in layouts(x)]
    for fit in fits[1:]:
        assert fit.iterations == fits[0].iterations
        for name in ("a", "b", "core", "outliers", "trace"):
            assert getattr(fit, name).tobytes() == getattr(fits[0], name).tobytes()


@pytest.mark.parametrize("seed, passes", [(0, 33), (1, 33)])
def test_pass_counts_pinned(seed, passes):
    """Passes to the default tolerance; a layout or kernel change must not add any."""
    spec = SyntheticSpec(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10, p=0.7, seed=seed)
    x, _ = generate(spec)
    fac = solve(x, SolverConfig(r=10))
    assert fac.converged
    assert fac.iterations == passes


# cores shrunk to zero on outlier-dominated slices warn; the answer is the test
@pytest.mark.filterwarnings("ignore:zero-norm slices")
@pytest.mark.parametrize("seed", [1, 2])
def test_rank_one_solve_does_not_converge_to_a_wrong_answer(seed):
    """At rank 1 the start pools the slices' energy rather than averaging their vectors.

    A start that averages each slice's leading singular vectors can
    cancel them, when their signs split about evenly against the truth:
    it converged here to low-rank error 0.62 (seed 1) and 4.1e-3 (seed 2).
    """
    x, truth = generate(SyntheticSpec(60, 80, 200, 1, 1, 1, 0.7, seed))
    fac = solve(x, SolverConfig(r=1))
    assert fac.converged
    assert relative_error(fac.low_rank(), truth.low_rank) <= 1e-2


@pytest.mark.parametrize(
    "spec",
    [
        SyntheticSpec(m=30, n=25, num_slices=8, rank_a=3, rank_b=3, r=6, p=0.7, seed=0),
        SyntheticSpec(m=20, n=24, num_slices=10, rank_a=2, rank_b=3, r=5, p=0.8, seed=1),
        SyntheticSpec(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10, p=0.7, seed=2),
    ],
)
def test_permuting_slices_permutes_the_result(spec):
    """Slice order is arbitrary: it may change the rounding, not the answer."""
    x, _ = generate(spec)
    perm = np.random.default_rng(spec.seed).permutation(spec.num_slices)
    fac = solve(x, SolverConfig(r=spec.r))
    permuted = solve(x[:, :, perm], SolverConfig(r=spec.r))
    assert permuted.iterations == fac.iterations
    for got, expected in [
        (permuted.a, fac.a),
        (permuted.b, fac.b),
        (permuted.core, fac.core[:, :, perm]),
        (permuted.outliers, fac.outliers[:, :, perm]),
    ]:
        assert np.linalg.norm(got - expected) <= 1e-8 * np.linalg.norm(expected)


# The solve pins every bundled OpenBLAS to one thread and restores the
# caller's counts; these tests set the caller's counts through the same
# library handles the pin uses.
BLAS = _openblas_controls()
needs_openblas = pytest.mark.skipif(not BLAS, reason="no bundled OpenBLAS found")


def blas_threads():
    return [get() for get, _ in BLAS]


@pytest.fixture
def caller_threads():
    """Set the caller's thread count of every library; put it back after."""
    saved = blas_threads()

    def set_all(count):
        for _, set_ in BLAS:
            set_(count)

    yield set_all
    for (_, set_), count in zip(BLAS, saved):
        set_(count)


def bits(fac):
    return [x.tobytes() for x in (fac.a, fac.b, fac.core, fac.outliers, fac.trace)]


def rpca_bits(result):
    return [result.low_rank.tobytes(), result.sparse.tobytes(), result.iterations]


@needs_openblas
def test_solve_bits_do_not_depend_on_caller_blas_threads(caller_threads):
    # at this size OpenBLAS splits the solve's products differently on one
    # and two threads, so an unpinned solve changes its bits with the count;
    # rpca_slices runs under the same pin
    spec = SyntheticSpec(m=100, n=100, num_slices=10, rank_a=5, rank_b=5, r=20, p=0.7, seed=0)
    x, _ = generate(spec)
    runs = []
    for count in (1, 2):
        caller_threads(count)
        runs.append(bits(solve(x, SolverConfig(r=20, max_iter=3))))
        runs.append(rpca_bits(rpca_slices(x[:, :, :2], max_iter=5)))
        assert blas_threads() == [count] * len(BLAS)
    assert runs[0] == runs[2]
    assert runs[1] == runs[3]


@needs_openblas
def test_solve_restores_caller_blas_threads(caller_threads, monkeypatch):
    caller_threads(2)
    seen = []

    def failing_kernel(*args):
        seen.append(blas_threads())
        raise np.linalg.LinAlgError("numerical failure")

    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    solve(x, SolverConfig(r=3, max_iter=2))
    assert blas_threads() == [2] * len(BLAS)
    monkeypatch.setattr(solver, "solve_stein", failing_kernel)
    with pytest.raises(solver.SolverError):
        solve(x, SolverConfig(r=3))
    assert seen == [[1] * len(BLAS)]
    assert blas_threads() == [2] * len(BLAS)
    monkeypatch.undo()
    with _one_blas_thread():
        solve(x, SolverConfig(r=3, max_iter=2))
        assert blas_threads() == [1] * len(BLAS)
    assert blas_threads() == [2] * len(BLAS)
    # rpca_slices pins its slices the same way
    rpca_slices(x, max_iter=2)
    assert blas_threads() == [2] * len(BLAS)
    seen.clear()
    monkeypatch.setattr(rpca, "svt", failing_kernel)
    with pytest.raises(np.linalg.LinAlgError):
        rpca_slices(x[:, :, :1])
    assert seen == [[1] * len(BLAS)]
    assert blas_threads() == [2] * len(BLAS)
    # on a stack, each slice already running when the first fails reaches
    # the failing kernel, one per worker at most, and no further slice starts
    seen.clear()
    workers = min(rpca._usable_cpus(), x.shape[2])
    with pytest.raises(np.linalg.LinAlgError):
        rpca_slices(x)
    assert 1 <= len(seen) <= workers
    assert all(record == [1] * len(BLAS) for record in seen)
    assert blas_threads() == [2] * len(BLAS)


@needs_openblas
def test_concurrent_solves_share_one_pin(caller_threads, monkeypatch):
    # a lost update of the pin's depth would restore the counts while a
    # solve still runs, or never restore them
    caller_threads(2)
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    expected = bits(solve(x, SolverConfig(r=3, max_iter=5)))
    seen = []
    stein = solver.solve_stein

    def recording_stein(*args):
        seen.append(blas_threads())
        return stein(*args)

    monkeypatch.setattr(solver, "solve_stein", recording_stein)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(solve, x, SolverConfig(r=3, max_iter=5)) for _ in range(24)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(bits(fac) == expected for fac in results)
    assert len(seen) == 24 * 5
    assert all(counts == [1] * len(BLAS) for counts in seen)
    assert blas_threads() == [2] * len(BLAS)


@needs_openblas
def test_blas_pin_without_openblas_does_nothing(caller_threads, monkeypatch):
    caller_threads(2)
    monkeypatch.setattr(linalg, "_openblas_controls", lambda: [])
    with _one_blas_thread():
        assert blas_threads() == [2] * len(BLAS)
    assert blas_threads() == [2] * len(BLAS)
