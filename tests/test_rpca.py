"""Matrix robust PCA baseline, its slice-wise form, and singular value thresholding."""

import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdrsdl import (
    RpcaResult,
    SolverConfig,
    SyntheticSpec,
    generate,
    rpca,
    rpca_ialm,
    rpca_slices,
    shrink,
    solve,
    svt,
)
from kdrsdl.linalg import _one_blas_thread


def test_svt_zero_threshold_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    np.testing.assert_allclose(svt(x, 0.0), x, atol=1e-10)


def test_svt_above_spectrum_zeroes():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 5))
    top = np.linalg.norm(x, 2)
    assert np.linalg.norm(svt(x, top + 1.0)) == 0.0


def test_svt_diagonal_example():
    x = np.diag([3.0, 1.0])
    np.testing.assert_allclose(svt(x, 2.0), np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_rank_counts_surviving_values():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 6))
        s = np.linalg.svd(x, compute_uv=False)
        tau = s[2] * 1.0001
        out = svt(x, tau)
        assert np.linalg.matrix_rank(out, tol=1e-10) == int(np.sum(s > tau))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    kind=st.sampled_from(["full", "low_rank", "column_scaled"]),
    exponent=st.integers(-60, 60),
    u=st.floats(-8.0, 0.2),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=12, n=3, kind="low_rank", exponent=60, u=-8.0, seed=0)
@example(m=3, n=12, kind="column_scaled", exponent=-60, u=-8.0, seed=1)
@example(m=7, n=7, kind="full", exponent=0, u=0.2, seed=2)
def test_svt_matches_the_svd_reference(m, n, kind, exponent, u, seed):
    # the Gram's rounding moves each s^2 by about eps * s_1^2, which moves
    # the output by about eps * s_1^2 / tau
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    if kind == "low_rank":
        k = int(rng.integers(1, min(m, n) + 1))
        x = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    elif kind == "column_scaled":
        x *= 10.0 ** (-12.0 * rng.random(n))
    x *= 2.0**exponent
    left, s, right = np.linalg.svd(x, full_matrices=False)
    tau = s[0] * 10.0**u
    ref = (left * shrink(s, tau)) @ right
    out = svt(x, tau)
    assert out.shape == x.shape
    bound = 64 * np.finfo(np.float64).eps * s[0] ** 2 / tau * np.sqrt(min(m, n))
    assert np.linalg.norm(out - ref) <= bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_svt_rejects_a_non_finite_square_without_numpy_warnings(bad):
    x = np.ones((4, 3))
    x[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite or its squared norm overflows"):
            svt(x, 0.5)


@pytest.mark.parametrize("tau", [-1e-12, -1.0, np.nan])
def test_svt_rejects_a_negative_or_nan_threshold(tau):
    x = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be nonnegative"):
            svt(x, tau)


def test_rpca_clean_rank_one_stays_low_rank():
    rng = np.random.default_rng(2)
    x = np.outer(rng.standard_normal(30), rng.standard_normal(20))
    res = rpca_ialm(x)
    assert res.converged
    assert np.linalg.norm(res.sparse) <= 1e-7 * np.linalg.norm(x)
    assert np.linalg.norm(x - res.low_rank - res.sparse) <= 1e-6 * np.linalg.norm(x)


def test_rpca_isolated_spikes_land_in_sparse():
    # no background at all: the sparse part should carry the spikes
    x = np.zeros((8, 7))
    spikes = {(1, 2): 9.0, (5, 0): -7.0, (3, 6): 5.0}
    for (i, j), v in spikes.items():
        x[i, j] = v
    res = rpca_ialm(x)
    assert np.linalg.norm(res.low_rank) <= 0.15 * np.linalg.norm(x)
    flat = np.abs(res.sparse).ravel()
    top = set(np.argsort(flat)[-3:])
    assert top == {np.ravel_multi_index(ij, x.shape) for ij in spikes}
    for (i, j), v in spikes.items():
        assert np.sign(res.sparse[i, j]) == np.sign(v)


def test_rpca_zero_matrix_trivial():
    res = rpca_ialm(np.zeros((4, 5)))
    assert res.converged
    assert res.iterations == 0
    assert not res.low_rank.any()
    assert not res.sparse.any()


def test_rpca_rejects_non_finite():
    x = np.ones((3, 3))
    x[1, 1] = np.nan
    with pytest.raises(ValueError):
        rpca_ialm(x)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"max_iter": 0}, "max_iter must be positive, got 0"),
        ({"epsilon": 0.0}, "epsilon must be positive, got 0.0"),
        ({"epsilon": np.nan}, "epsilon must be positive, got nan"),
        ({"lam": -1.0}, "lam must be positive, got -1.0"),
        ({"lam": np.nan}, "lam must be positive, got nan"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": np.float64(3.0)}, "max_iter must be an integer, got 3.0"),
    ],
    ids=[
        "max-iter-0", "epsilon-0", "epsilon-nan", "lam-neg", "lam-nan",
        "max-iter-float", "max-iter-np-float",
    ],
)
def test_rpca_rejects_bad_parameters(params, message):
    # checked before the all-zero shortcut, so a zero x is rejected too
    for x in (np.ones((4, 3)), np.zeros((4, 3))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rpca_ialm(x, **params)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rpca_slices(np.ones((4, 3, 2)), **params)


def test_rpca_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="slices must be at least 1 x 1, got 0 x 3"):
        rpca_ialm(np.zeros((0, 3)))


def test_rpca_names_an_overflowing_norm_without_numpy_warnings():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 10, 2)) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for split, data in ((rpca_ialm, x[:, :, 0]), (rpca_slices, x)):
            with pytest.raises(ValueError, match="norm of the input overflows"):
                split(data, max_iter=50)


def test_rpca_names_an_underflowing_norm():
    # the squared norm of this x underflows to 0: it must not pass for the
    # all-zero matrix and report a converged split into zeros
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 15, 2)) * 1e-200
    for split, data in ((rpca_ialm, x[:, :, 0]), (rpca_slices, x)):
        with pytest.raises(ValueError, match="norm of the input underflows"):
            split(data)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e152])
def test_rpca_pass_count_does_not_depend_on_scale(scale):
    rng = np.random.default_rng(5)
    low = np.outer(rng.standard_normal(60), rng.standard_normal(40)) / 4
    support = rng.random((60, 40)) < 0.1
    x = np.where(support, rng.choice([-1.0, 1.0], size=(60, 40)), low)
    res = rpca_ialm(x * scale)
    assert res.converged
    assert res.iterations == 18
    err = np.linalg.norm(res.low_rank / scale - low) / np.linalg.norm(low)
    assert err <= 1e-4


def test_rpca_residual_meets_tolerance_at_convergence():
    rng = np.random.default_rng(3)
    low = np.outer(rng.standard_normal(25), rng.standard_normal(18))
    mask = rng.random((25, 18)) < 0.1
    x = low + mask * rng.standard_normal((25, 18)) * 5
    # epsilon bounds the squared ratio: 1e-12 is a residual of 1e-6 relative
    res = rpca_ialm(x, epsilon=1e-12)
    assert res.converged
    resid = np.linalg.norm(x - res.low_rank - res.sparse)
    assert resid**2 <= 1e-12 * np.linalg.norm(x) ** 2


def _run_loop(loop, x, epsilon, max_iter):
    # (converged, passes, q), where q is the squared relative residual the
    # last pass left: the worst slice's and constraint's for solve, and for
    # the baseline the ratio recomputed from its outputs on the first slice
    if loop == "solve":
        fac = solve(x, SolverConfig(r=3, epsilon=epsilon, max_iter=max_iter))
        return fac.converged, fac.iterations, max(fac.trace[-1, :2])
    x = x[:, :, 0]
    res = rpca_ialm(x, epsilon=epsilon, max_iter=max_iter)
    resid = x - res.low_rank - res.sparse
    return res.converged, res.iterations, np.linalg.norm(resid) ** 2 / np.linalg.norm(x) ** 2


@pytest.mark.parametrize("loop", ["solve", "rpca_ialm"])
def test_rpca_and_solve_stop_on_one_residual(loop):
    # both loops stop on the same quantity by the same test: after k passes
    # whose last left q, epsilon = q stops the loop at exactly pass k, and
    # the float just below q does not stop it within k passes
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    k = 9
    converged, passes, q = _run_loop(loop, x, 1e-300, k)
    assert (converged, passes) == (False, k)
    assert _run_loop(loop, x, q, 1000) == (True, k, q)
    assert _run_loop(loop, x, np.nextafter(q, 0), k) == (False, k, q)


@pytest.mark.parametrize(
    "split, shape, message",
    [
        (rpca_slices, (3, 4, 0), r"tensor has an empty dimension: shape=\(3, 4, 0\)"),
        (rpca_slices, (0, 4, 2), r"tensor has an empty dimension: shape=\(0, 4, 2\)"),
        (rpca_slices, (3, 4), "expected a 3-way tensor, got ndim=2"),
        (rpca_ialm, (3, 4, 2), "expected a matrix, got ndim=3"),
        (rpca_ialm, (5,), "expected a matrix, got ndim=1"),
    ],
    ids=["empty-stack", "empty-slices", "slices-of-a-matrix", "matrix-of-a-stack", "matrix-of-a-vector"],
)
def test_rpca_refuses_inputs_solve_refuses(split, shape, message):
    # the stacks solve refuses, the baseline refuses in as_tensor's words
    with pytest.raises(ValueError, match=f"^{message}$"):
        split(np.ones(shape))
    if split is rpca_slices:
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve(np.ones(shape))


def test_rpca_slices_refuses_a_non_finite_stack_before_any_slice(monkeypatch):
    started = []
    monkeypatch.setattr(rpca, "rpca_ialm", lambda data, **kwargs: started.append(data))
    x = np.ones((3, 4, 3))
    x[0, 0, 2] = np.nan
    with pytest.raises(ValueError, match="^tensor contains non-finite entries$"):
        rpca_slices(x)
    assert started == []


def test_rpca_reports_nonconvergence():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 10))
    res = rpca_ialm(x, epsilon=1e-12, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert isinstance(res, RpcaResult)


def test_rpca_corrupted_low_rank_recovery():
    rng = np.random.default_rng(5)
    low = np.outer(rng.standard_normal(60), rng.standard_normal(40)) / 4
    support = rng.random((60, 40)) < 0.1
    x = np.where(support, rng.choice([-1.0, 1.0], size=(60, 40)), low)
    res = rpca_ialm(x)
    assert res.converged
    err = np.linalg.norm(res.low_rank - low) / np.linalg.norm(low)
    assert err <= 1e-4


def test_rpca_slices_matches_each_slice():
    rng = np.random.default_rng(0)
    low = np.outer(rng.standard_normal(12), rng.standard_normal(10))
    spikes = (rng.random((12, 10)) < 0.05) * 5.0
    # spiked slice first: it hits the cap, the clean one converges below it
    x = np.stack([low + spikes, np.zeros((12, 10)), low], axis=2)
    res = rpca_slices(x, max_iter=32)
    per_slice = [rpca_ialm(x[:, :, i], max_iter=32) for i in range(3)]
    assert [r.iterations for r in per_slice] == [32, 0, 31]
    assert [r.converged for r in per_slice] == [False, True, True]
    for i, r in enumerate(per_slice):
        np.testing.assert_array_equal(res.low_rank[:, :, i], r.low_rank)
        np.testing.assert_array_equal(res.sparse[:, :, i], r.sparse)
    assert res.iterations == 32
    assert not res.converged


def test_rpca_accepts_numpy_integer_passes():
    x = np.random.default_rng(8).standard_normal((6, 5, 2))
    res = rpca_slices(x, max_iter=np.int32(3))
    assert res.iterations == 3
    assert rpca_ialm(x[:, :, 0], max_iter=np.int64(3)).iterations == 3


@pytest.mark.parametrize("cpus", [1, 2])
@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    num_slices=st.integers(1, 6),
    zero_slice=st.integers(0, 6),  # no zero slice when it is >= num_slices
    max_iter=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=8, n=8, num_slices=6, zero_slice=2, max_iter=40, seed=0)
def test_rpca_slices_equals_the_serial_loop(m, n, num_slices, zero_slice, max_iter, seed, cpus):
    # the slices run on min(cpus, N) threads; each slice's bits, its pass
    # count and its convergence flag are those of rpca_ialm run on it alone
    rng = np.random.default_rng(seed)
    low = rng.standard_normal((m, 2, num_slices)).transpose(2, 0, 1) @ rng.standard_normal((2, n))
    spikes = (rng.random((num_slices, m, n)) < 0.1) * 5.0
    x = np.moveaxis(low + spikes, 0, 2)
    if zero_slice < num_slices:
        x[:, :, zero_slice] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rpca, "_usable_cpus", lambda: cpus)
        res = rpca_slices(x, max_iter=max_iter)
    with _one_blas_thread():
        per_slice = [rpca_ialm(x[:, :, i], max_iter=max_iter) for i in range(num_slices)]
    assert res.low_rank.tobytes() == np.stack([r.low_rank for r in per_slice], axis=2).tobytes()
    assert res.sparse.tobytes() == np.stack([r.sparse for r in per_slice], axis=2).tobytes()
    assert res.iterations == max(r.iterations for r in per_slice)
    assert res.converged == all(r.converged for r in per_slice)


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 30),
    n=st.integers(1, 30),
    num_slices=st.integers(1, 4),
    max_iter=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=12, n=10, num_slices=3, max_iter=40, seed=0)
def test_rpca_results_bit_identical_in_any_memory_layout(m, n, num_slices, max_iter, seed):
    # C-ordered, Fortran-ordered and strided copies of one stack; their
    # slices are strided, Fortran-ordered and C-ordered matrices
    x = np.random.default_rng(seed).standard_normal((m, n, num_slices))
    copies = [np.ascontiguousarray(x), np.asfortranarray(x),
              np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 2, 0)), 0, 2)]

    def bits(split):
        return split.low_rank.tobytes(), split.sparse.tobytes(), split.iterations, split.converged

    assert len({bits(rpca_slices(t, max_iter=max_iter)) for t in copies}) == 1
    for i in range(num_slices):
        assert len({bits(rpca_ialm(t[:, :, i], max_iter=max_iter)) for t in copies}) == 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_rpca_slices_raises_the_first_failing_slice(cpus, monkeypatch):
    # slice 1 overflows and slice 2 underflows: a serial loop stops at
    # slice 1, and so must the threads, whichever slice fails first
    rng = np.random.default_rng(9)
    x = rng.standard_normal((12, 10, 3))
    x[:, :, 1] *= 1e200
    x[:, :, 2] *= 1e-200
    started = []
    ialm = rpca.rpca_ialm

    def recording_ialm(data, **kwargs):
        started.append(data[0, 0])
        return ialm(data, **kwargs)

    monkeypatch.setattr(rpca, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(rpca, "rpca_ialm", recording_ialm)
    with pytest.raises(ValueError, match="norm of the input overflows"):
        rpca_slices(x)
    if cpus == 1:
        # no slice starts after a failure
        assert started == [x[0, 0, 0], x[0, 0, 1]]


def test_rpca_slices_starts_no_slice_after_a_failure(monkeypatch):
    # slice 0 runs on until slice 1 has failed on the other worker; the
    # worker of slice 0 must then stop, as a serial loop would, and not
    # take slice 2
    failed = threading.Event()
    started = []
    ialm = rpca.rpca_ialm

    def scripted_ialm(data, **kwargs):
        i = int(data[0, 0])
        started.append(i)
        if i == 1:
            failed.set()
            raise np.linalg.LinAlgError("slice 1 fails")
        if i == 0:
            failed.wait(timeout=10)
            time.sleep(0.1)  # for the failing worker to record its error
        return ialm(data, **kwargs)

    monkeypatch.setattr(rpca, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rpca, "rpca_ialm", scripted_ialm)
    x = np.ones((3, 2, 4)) * np.arange(4.0)  # slice i holds i
    with pytest.raises(np.linalg.LinAlgError, match="slice 1 fails"):
        rpca_slices(x)
    assert sorted(started) == [0, 1]


def test_rpca_slices_hands_out_each_slice_once(monkeypatch):
    # more workers than cores and a short switch interval: a lost update
    # of the slice counter would run a slice twice or skip one
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 5, 24))
    with _one_blas_thread():
        expected = [rpca_ialm(x[:, :, i], max_iter=20) for i in range(24)]
    started = []
    ialm = rpca.rpca_ialm

    def recording_ialm(data, **kwargs):
        started.append(next(i for i in range(24) if np.array_equal(data, x[:, :, i])))
        return ialm(data, **kwargs)

    monkeypatch.setattr(rpca, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(rpca, "rpca_ialm", recording_ialm)
    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = rpca_slices(x, max_iter=20)
    finally:
        sys.setswitchinterval(interval)
    # every worker is joined before the call returns
    assert set(threading.enumerate()) == before
    assert sorted(started) == list(range(24))
    assert res.low_rank.tobytes() == np.stack([r.low_rank for r in expected], axis=2).tobytes()
    assert res.sparse.tobytes() == np.stack([r.sparse for r in expected], axis=2).tobytes()
