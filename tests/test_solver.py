"""Solver configuration, initialization, iteration, and convergence."""

import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from kdrsdl import (
    SolverConfig,
    SyntheticSpec,
    errors_of,
    generate,
    initialize,
    iterate,
    reconstruct,
    relative_error,
    rpca_slices,
    solve,
)
from kdrsdl import linalg, rpca, solver  # modules, for monkeypatching
from kdrsdl.linalg import _one_blas_thread, _openblas_controls, shrink
from kdrsdl.solver import _basis_a, _basis_b, _outliers_and_data, _project
from kdrsdl.tensor import slice_norms


def consistent_state(rng, m, n, num, r, config):
    """A state whose reconstruction matches x exactly, with zero duals."""
    a, _ = np.linalg.qr(rng.standard_normal((m, r)))
    b, _ = np.linalg.qr(rng.standard_normal((n, r)))
    core = rng.standard_normal((r, r, num))
    x = reconstruct(core, a, b)
    state = initialize(x, config)
    state = replace(state, a=a, b=b, core=core.copy(), split=core.copy())
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
    sigma = np.array([4.0, 2.0, 1.0])
    x = np.zeros((5, 4, 3))
    for i in range(3):
        x[:3, :3, i] = np.diag(sigma)
    state = initialize(x, SolverConfig(r=3).resolved(5, 4))
    np.testing.assert_allclose(state.a.T @ state.a, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(state.b.T @ state.b, np.eye(3), atol=1e-12)
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
    # each column is a mean of unit vectors, so its norm cannot exceed 1
    assert np.all(np.linalg.norm(state.a, axis=0) <= 1 + 1e-10)
    assert np.all(np.linalg.norm(state.b, axis=0) <= 1 + 1e-10)
    assert not state.outliers.any()
    assert not state.dual_rec.any()
    assert not state.dual_split.any()


def test_initialize_starts_split_equal_to_core():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 5, 3))
    state = initialize(x, SolverConfig(r=2).resolved(6, 5))
    np.testing.assert_array_equal(state.core, state.split)


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
    assert not after.outliers.any()
    err_rec, err_split = errors_of(after, x)
    assert err_rec <= 1e-12
    assert err_split <= 1e-12
    assert np.linalg.norm(after.dual_rec) / after.mu <= 1e-12 * np.linalg.norm(x)
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
    d = x - reconstruct(state.split, state.a, state.b)
    e, w = _outliers_and_data(
        x, d, state.dual_rec, state.mu, cfg.lam, np.empty_like(x), np.empty_like(x)
    )
    x_fit = x - e
    a = _basis_a(w, state.b, state.split, state.mu)
    b = _basis_b(_project(w, a), state.split, a, state.mu)
    # iterate overwrites E and Lambda in place, so it runs on a copy
    after = iterate(
        replace(state, outliers=state.outliers.copy(), dual_rec=state.dual_rec.copy()), x, cfg
    )
    lhs = -(state.mu / state.mu_k) * (a.T @ a)
    rhs = b.T @ b
    for i in range(3):
        c = (
            a.T @ (state.dual_rec[:, :, i] + state.mu * x_fit[:, :, i]) @ b
            + state.dual_split[:, :, i]
        ) / state.mu_k + state.core[:, :, i]
        k = after.split[:, :, i]
        residual = np.linalg.norm(k - lhs @ k @ rhs - c)
        assert residual <= 1e-9 * max(1.0, np.linalg.norm(c))
        system = np.eye(16) - np.kron(rhs.T, lhs)
        oracle = np.linalg.solve(system, c.ravel(order="F")).reshape((4, 4), order="F")
        assert np.max(np.abs(k - oracle)) <= 1e-9


def state_bits(state):
    fields = ("a", "b", "core", "split", "outliers", "dual_rec", "dual_split")
    return [getattr(state, name).tobytes() for name in fields]


def test_carried_difference_matches_a_fresh_rebuild():
    """The D = X - a K b.T a pass carries equals the rebuild a new state starts from.

    replace drops the scratch, so the fresh chain rebuilds D every pass;
    the last pass gets a new x, for which the carried D must not be used.
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


def test_warm_pass_allocates_no_data_sized_array():
    spec = SyntheticSpec(m=40, n=40, num_slices=10, rank_a=2, rank_b=2, r=2, p=0.7, seed=0)
    x, _ = generate(spec)
    cfg = SolverConfig(r=2).resolved(40, 40)
    state = iterate(initialize(x, cfg), x, cfg)
    x_sq = slice_norms(x) ** 2
    tracemalloc.start()
    try:
        state = iterate(state, x, cfg)
        errors_of(state, x, x_sq=x_sq, scratch=state.scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * x.nbytes


def test_iterate_core_is_shrunk_split():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 7, 2))
    cfg = SolverConfig(r=3).resolved(8, 7)
    state = initialize(x, cfg)
    after = iterate(state, x, cfg)
    expected = shrink(after.split - state.dual_split / state.mu_k, cfg.alpha / state.mu_k)
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
    err_rec, err_split = errors_of(state, x)
    assert err_rec <= 1e-12
    assert err_split == 0.0


def test_errors_of_split_equal_core():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((7, 6, 2))
    cfg = SolverConfig(r=3).resolved(7, 6)
    state = initialize(x, cfg)
    _, err_split = errors_of(state, x)
    assert err_split == 0.0


def test_errors_of_perturbation_identity():
    """Perturbing one slice of E moves err_rec by exactly its norm ratio."""
    rng = np.random.default_rng(7)
    cfg = SolverConfig(r=2).resolved(6, 5)
    state, x = consistent_state(rng, 6, 5, 3, 2, cfg)
    delta = 0.01 * rng.standard_normal((6, 5))
    outliers = state.outliers.copy()
    outliers[:, :, 1] += delta
    err_rec, _ = errors_of(replace(state, outliers=outliers), x)
    expected = np.linalg.norm(delta) ** 2 / np.linalg.norm(x[:, :, 1]) ** 2
    assert abs(err_rec - expected) <= 1e-12 * expected


def test_errors_of_zero_slice_flagged():
    x = np.zeros((4, 4, 2))
    x[0, 0, 1] = 1.0
    cfg = SolverConfig(r=2).resolved(4, 4)
    with pytest.warns(RuntimeWarning):
        state = initialize(x, cfg)
        errors_of(state, x)


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


def test_solve_bit_identical_in_c_and_fortran_order():
    spec = SyntheticSpec(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10, p=0.7, seed=1)
    x, _ = generate(spec)
    c_order = solve(np.ascontiguousarray(x), SolverConfig(r=10))
    f_order = solve(np.asfortranarray(x), SolverConfig(r=10))
    assert c_order.iterations == f_order.iterations
    assert c_order.core.tobytes() == f_order.core.tobytes()
    assert c_order.trace.tobytes() == f_order.trace.tobytes()


@pytest.mark.parametrize("seed, passes", [(0, 35), (1, 33)])
def test_pass_counts_pinned(seed, passes):
    """Passes to the default tolerance; a layout or kernel change must not add any."""
    spec = SyntheticSpec(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10, p=0.7, seed=seed)
    x, _ = generate(spec)
    fac = solve(x, SolverConfig(r=10))
    assert fac.converged
    assert fac.iterations == passes


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
    # rpca_slices pins its slice loop the same way
    rpca_slices(x, max_iter=2)
    assert blas_threads() == [2] * len(BLAS)
    seen.clear()
    monkeypatch.setattr(rpca, "thin_svd", failing_kernel)
    with pytest.raises(np.linalg.LinAlgError):
        rpca_slices(x)
    assert seen == [[1] * len(BLAS)]
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
