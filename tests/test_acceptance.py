"""Acceptance suite: the eleven guarantees the package ships under.

Each test checks one numbered guarantee end to end at its stated
tolerance and prints a single confirmation line; a failing test is the
corresponding red line in the pytest report. The file is self-contained
so it can be read as the contract.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from kdrsdl import (
    SolverConfig,
    SyntheticSpec,
    generate,
    initialize,
    iterate,
    mode_product,
    read_image,
    read_tensor,
    reconstruct,
    relative_error,
    rpca_ialm,
    solve,
    write_image,
    write_tensor,
)
from kdrsdl.cli import main
from kdrsdl.io import BUNDLE_FILES, read_metrics
from kdrsdl.linalg import solve_stein
from kdrsdl.solver import (
    _basis_a,
    _basis_b,
    _outliers_and_data,
    _split,
    _update_core,
    lagrangian,
)
from kdrsdl.synthetic import density

BENCH = dict(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10, seed=0)


def announce(number, label):
    print(f"criterion {number:02d} ({label}): PASS")


@pytest.fixture(scope="module")
def corruption_30():
    """The 30% corruption benchmark, solved tightly and timed."""
    x, truth = generate(SyntheticSpec(p=0.7, **BENCH))
    start = time.perf_counter()
    fac = solve(x, SolverConfig(r=10, alpha=1e-2, epsilon=1e-12))
    elapsed = time.perf_counter() - start
    return fac, truth, elapsed


@pytest.fixture(scope="module")
def lambda_sweep():
    """Five solves of the 60% corruption benchmark around the default weight."""
    x, truth = generate(SyntheticSpec(p=0.4, **BENCH))
    default = 1.0 / np.sqrt(50)
    runs = []
    for scale in (0.5, 0.75, 1.0, 1.5, 2.0):
        fac = solve(x, SolverConfig(r=10, lam=scale * default, alpha=1e-2))
        runs.append((scale, relative_error(fac.low_rank(), truth.low_rank), fac))
    return runs, truth


def test_criterion_01_heavy_corruption_recovery(corruption_30):
    fac, truth, elapsed = corruption_30
    assert relative_error(fac.low_rank(), truth.low_rank) <= 1e-5
    assert relative_error(fac.outliers, truth.outliers) <= 1e-5
    assert elapsed <= 30.0
    announce(1, f"30% corruption: low-rank error {relative_error(fac.low_rank(), truth.low_rank):.2e}, "
                f"outlier error {relative_error(fac.outliers, truth.outliers):.2e} (bound 1e-5 each), "
                f"{fac.iterations} passes, {elapsed:.1f} s (bound 30 s)")


def test_criterion_02_severe_corruption_and_density(lambda_sweep):
    runs, truth = lambda_sweep
    true_density = density(truth.outliers)
    best = min(runs, key=lambda run: run[1])
    assert best[1] <= 1e-3
    assert abs(density(best[2].outliers) - true_density) <= 0.005
    announce(2, f"60% corruption: best error {best[1]:.2e} (bound 1e-3) at lam x {best[0]}, "
                f"density gap {abs(density(best[2].outliers) - true_density):.1e} (bound 5e-3)")


def test_criterion_03_weight_robustness(lambda_sweep):
    runs, _ = lambda_sweep
    good = sum(1 for _, err, _ in runs if err <= 1e-2)
    assert good >= 3
    announce(3, f"{good}/5 outlier weights within 1e-2 (need 3), errors "
                + ", ".join(f"{err:.1e}" for _, err, _ in runs))


def test_criterion_04_basis_rank_recovery():
    spec = SyntheticSpec(m=50, n=50, num_slices=20, rank_a=8, rank_b=4, r=25,
                         p=0.7, seed=0)
    x, _ = generate(spec)
    fac = solve(x, SolverConfig(r=25, alpha=1e-2, epsilon=1e-12))
    sa = np.linalg.svd(fac.a, compute_uv=False)
    sb = np.linalg.svd(fac.b, compute_uv=False)
    assert sa[8] / sa[0] <= 1e-6
    assert sb[4] / sb[0] <= 1e-6
    announce(4, f"basis ranks 8 and 4 inside width 25: sigma_9/sigma_1 of A {sa[8] / sa[0]:.1e}, "
                f"sigma_5/sigma_1 of B {sb[4] / sb[0]:.1e} (bound 1e-6 each)")


def test_criterion_05_stein_solver_oracle():
    for trial in range(200):
        rng = np.random.default_rng(trial)
        r = 2 + trial % 7
        qa = rng.standard_normal((r, r))
        a = -(qa @ qa.T)
        qb = rng.standard_normal((r, r))
        b = qb @ qb.T
        c = rng.standard_normal((r, r))
        x = solve_stein(a, b, c)
        residual = np.linalg.norm(x - a @ x @ b - c)
        assert residual <= 1e-10 * max(1.0, np.linalg.norm(c))
        system = np.eye(r * r) - np.kron(b.T, a)
        oracle = np.linalg.solve(system, c.ravel(order="F")).reshape((r, r), order="F")
        assert np.max(np.abs(x - oracle)) <= 1e-9
    announce(5, "200 Stein problems match the vectorization oracle (bounds 1e-10 relative, 1e-9)")


def test_criterion_06_kronecker_norm_identities():
    for trial in range(100):
        rng = np.random.default_rng(trial)
        a = rng.standard_normal((int(rng.integers(2, 7)), int(rng.integers(2, 7))))
        b = rng.standard_normal((int(rng.integers(2, 7)), int(rng.integers(2, 7))))
        k = np.kron(a, b)
        product = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(np.linalg.norm(k) - product) <= 1e-12 * product
        bound = np.sqrt(min(k.shape)) * np.linalg.norm(k) + 1e-10
        assert np.linalg.norm(k, "nuc") <= bound
    announce(6, "100 Kronecker pairs satisfy both norm identities (bound 1e-12 relative)")


def test_criterion_07_block_updates_never_increase_objective():
    checked = 0
    worst = 0.0
    for seed in range(4):
        spec = SyntheticSpec(m=30, n=25, num_slices=6, rank_a=3, rank_b=3, r=6,
                             p=0.6, seed=seed)
        x, _ = generate(spec)
        cfg = SolverConfig(r=6).resolved(30, 25)
        state = initialize(x, cfg)
        for _ in range(5):
            values = [lagrangian(state, x, cfg)]
            d = x - reconstruct(state.split, state.a, state.b)
            e, w = _outliers_and_data(x, d, state.dual_rec, state.mu, cfg.lam,
                                      np.empty_like(x), np.empty_like(x))
            state = replace(state, outliers=e)
            values.append(lagrangian(state, x, cfg))
            a = _basis_a(w, state.b, state.split, state.mu)
            state = replace(state, a=a)
            values.append(lagrangian(state, x, cfg))
            wa = mode_product(w, a.T, 1).T
            b = _basis_b(wa, state.split, a, state.mu)
            state = replace(state, b=b)
            values.append(lagrangian(state, x, cfg))
            k = _split(wa, a, b, state.core, state.dual_split, state.mu, state.mu_k)
            state = replace(state, split=k)
            values.append(lagrangian(state, x, cfg))
            core = _update_core(k, state.dual_split, state.mu_k, cfg.alpha)
            state = replace(state, core=core)
            values.append(lagrangian(state, x, cfg))
            values = np.array(values)
            rises = np.diff(values) / np.maximum(1.0, np.abs(values[:-1]))
            worst = max(worst, float(np.max(rises)))
            checked += 1
            state = iterate(state, x, cfg)
    assert checked == 20
    assert worst <= 1e-8
    announce(7, f"20 iterations, worst block-update rise {worst:.1e} (bound 1e-8)")


def test_criterion_08_monotone_fast_convergence(corruption_30):
    fac, _, _ = corruption_30
    traces = [fac.trace]
    x, _ = generate(SyntheticSpec(p=0.7, **{**BENCH, "seed": 1}))
    other = solve(x, SolverConfig(r=10, alpha=1e-2, epsilon=1e-12))
    traces.append(other.trace)
    for trace in traces:
        assert trace.shape[0] <= 500
        sampled = trace[::10, 0]
        assert np.all(np.diff(np.log10(sampled)) < 0)
    announce(8, "largest sampled log10 step (bound < 0), passes (bound 500), seeds 0 and 1: "
                + ", ".join(f"{np.max(np.diff(np.log10(t[::10, 0]))):.2f} in {t.shape[0]}" for t in traces))


def test_criterion_09_matrix_baseline_recovery():
    rng = np.random.default_rng(0)
    low = rng.standard_normal((200, 5)) @ rng.standard_normal((5, 200))
    support = rng.random((200, 200)) < 0.1
    x = low + np.where(support, rng.choice([-1.0, 1.0], size=(200, 200)), 0.0)
    result = rpca_ialm(x, lam=1.0 / np.sqrt(200))
    assert result.converged
    err = np.linalg.norm(result.low_rank - low) / np.linalg.norm(low)
    assert err <= 1e-4
    announce(9, f"matrix baseline error {err:.1e} (bound 1e-4) on 10% corruption, "
                f"{result.iterations} passes")


def test_criterion_10_determinism_and_formats(tmp_path):
    args = ("synth", "--zero-prob", "0.7", "--r", "10", "--seed", "3")
    first, second = tmp_path / "one", tmp_path / "two"
    assert main([*args, "--out-dir", str(first)]) == 0
    assert main([*args, "--out-dir", str(second)]) == 0
    for name in BUNDLE_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    rng = np.random.default_rng(0)
    t = rng.standard_normal((5, 3, 4))
    write_tensor(tmp_path / "t.kdt", t)
    assert read_tensor(tmp_path / "t.kdt").tobytes() == t.tobytes()
    gray = rng.integers(0, 256, size=(9, 7)) / 255.0
    write_image(tmp_path / "g.pgm", gray)
    assert read_image(tmp_path / "g.pgm").tobytes() == gray.tobytes()
    color = rng.integers(0, 256, size=(6, 8, 3)) / 255.0
    write_image(tmp_path / "c.ppm", color)
    assert read_image(tmp_path / "c.ppm").tobytes() == color.tobytes()
    announce(10, f"seeded runs byte-identical ({len(BUNDLE_FILES)} bundle files), formats bit-exact")


def test_criterion_11_foreground_scoring(tmp_path):
    frames, masks = tmp_path / "frames", tmp_path / "masks"
    frames.mkdir(), masks.mkdir()
    h, w = 24, 32
    background = np.outer(np.linspace(0.2, 0.8, h), np.linspace(0.3, 0.9, w))
    for i in range(8):
        frame = background.copy()
        mask = np.zeros((h, w))
        r0, c0 = 4 + i, 2 + 3 * i
        frame[r0:r0 + 6, c0:c0 + 6] = 1.0
        mask[r0:r0 + 6, c0:c0 + 6] = 1.0
        write_image(frames / f"frame_{i:03d}.pgm", frame)
        write_image(masks / f"mask_{i:03d}.pgm", mask)
    out = tmp_path / "run"
    rc = main(["bgsub", "--frames", str(frames / "*.pgm"),
               "--mask-frames", str(masks / "*.pgm"), "--r", "1",
               "--out-dir", str(out)])
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["auc_pooled"] >= 0.99
    assert metrics["auc_per_frame"] >= 0.99
    assert abs(metrics["auc_pooled"] - metrics["auc_per_frame"]) <= 0.01
    announce(11, f"constructed clip AUC pooled {metrics['auc_pooled']:.4f}, per frame "
                 f"{metrics['auc_per_frame']:.4f} (bound 0.99 each, 0.01 apart)")
