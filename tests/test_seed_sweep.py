"""Quality across seeds: the seeded quality setups re-run at seeds 0-5.

Each acceptance criterion and each quality test solves one seed. This
module solves the setups of criteria 1 (whose traces are criterion 8's),
2/3 (the outlier-weight sweep) and 4, and of the CLI tests
test_synth_clean_instance and test_synth_default_density_tracking, at six
seeds, calling solve directly. Every quantity is printed at every seed
with its worst seed and its margin to the bound
(`pytest -q -s tests/test_seed_sweep.py`, a CI step).

Only the bounds every seed meets are gated; the others are printed, so
a change that moves quality at the seeds the single-seed tests do not
sample shows in the output. The gated bounds are the single-seed tests'
own, unchanged.
"""

import numpy as np
import pytest

from kdrsdl import SolverConfig, SyntheticSpec, density, generate, relative_error, solve

SEEDS = range(6)
BENCH = dict(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10)


def report(setup, quantity, values, bound, gated, at_most=True):
    """Print one quantity at every seed, its worst seed and its margin.

    The margin is bound / worst for an upper bound and worst / bound for
    a lower one, so it is below 1 where a seed fails; at a bound of 0 it
    is the worst value's distance inside the bound, negative where a
    seed fails.
    """
    values = [float(v) for v in values]
    pick = max if at_most else min
    worst = pick(SEEDS, key=values.__getitem__)
    value = values[worst]
    if bound == 0:
        margin = f"{bound - value:+.2e}"
    elif value == 0:
        margin = "inf"
    else:
        margin = f"{(bound / value if at_most else value / bound):.3g}x"
    print(f"{setup}, {quantity} ({'at most' if at_most else 'at least'} {bound:g}, "
          f"{'gated' if gated else 'printed only'}): "
          + ", ".join(f"{v:.3g}" for v in values)
          + f"; worst {value:.3g} at seed {worst}, margin {margin}")


@pytest.fixture(scope="module")
def corruption_30():
    """Criterion 1's solve at every seed: (factorization, truth) pairs."""
    runs = []
    for seed in SEEDS:
        x, truth = generate(SyntheticSpec(p=0.7, seed=seed, **BENCH))
        runs.append((solve(x, SolverConfig(r=10, alpha=1e-2, epsilon=1e-12)), truth))
    return runs


def test_criterion_01_across_seeds(corruption_30):
    low = [relative_error(fac.low_rank(), truth.low_rank) for fac, truth in corruption_30]
    outliers = [relative_error(fac.outliers, truth.outliers) for fac, truth in corruption_30]
    report("criterion 1", "low-rank error", low, 1e-5, gated=True)
    report("criterion 1", "outlier error", outliers, 1e-5, gated=True)
    assert max(low) <= 1e-5
    assert max(outliers) <= 1e-5


def test_criterion_08_across_seeds(corruption_30):
    steps = [np.max(np.diff(np.log10(fac.trace[::10, 0]))) for fac, _ in corruption_30]
    passes = [fac.trace.shape[0] for fac, _ in corruption_30]
    report("criterion 8", "largest sampled log10 step", steps, 0, gated=True)
    report("criterion 8", "passes", passes, 500, gated=True)
    assert max(steps) < 0
    assert max(passes) <= 500


@pytest.fixture(scope="module")
def lambda_sweep():
    """Criteria 2/3's five outlier weights at every seed: (runs, truth) pairs.

    runs holds (weight scale, low-rank error, factorization). The scale-1
    run is also test_synth_default_density_tracking's solve: the same
    instance at the default weight.
    """
    default = 1.0 / np.sqrt(50)
    sweeps = []
    for seed in SEEDS:
        x, truth = generate(SyntheticSpec(p=0.4, seed=seed, **BENCH))
        runs = []
        for scale in (0.5, 0.75, 1.0, 1.5, 2.0):
            fac = solve(x, SolverConfig(r=10, lam=scale * default, alpha=1e-2))
            runs.append((scale, relative_error(fac.low_rank(), truth.low_rank), fac))
        sweeps.append((runs, truth))
    return sweeps


def test_criteria_02_03_across_seeds(lambda_sweep):
    best_errors, gaps, good = [], [], []
    for runs, truth in lambda_sweep:
        _, err, fac = min(runs, key=lambda run: run[1])
        best_errors.append(err)
        gaps.append(abs(density(fac.outliers) - density(truth.outliers)))
        good.append(sum(1 for _, e, _ in runs if e <= 1e-2))
    report("criterion 2", "best low-rank error", best_errors, 1e-3, gated=True)
    report("criterion 2", "density gap at the best weight", gaps, 5e-3, gated=True)
    report("criterion 3", "weights with error within 1e-2", good, 3, gated=True, at_most=False)
    assert max(best_errors) <= 1e-3
    assert max(gaps) <= 5e-3
    assert min(good) >= 3


def test_criterion_04_across_seeds():
    ratios_a, ratios_b, outliers, converged = [], [], [], []
    for seed in SEEDS:
        x, truth = generate(SyntheticSpec(m=50, n=50, num_slices=20, rank_a=8, rank_b=4,
                                          r=25, p=0.7, seed=seed))
        fac = solve(x, SolverConfig(r=25, alpha=1e-2, epsilon=1e-12))
        sa = np.linalg.svd(fac.a, compute_uv=False)
        sb = np.linalg.svd(fac.b, compute_uv=False)
        ratios_a.append(sa[8] / sa[0])
        ratios_b.append(sb[4] / sb[0])
        outliers.append(relative_error(fac.outliers, truth.outliers))
        converged.append(f"{fac.converged} in {fac.iterations}")
    report("criterion 4", "sigma_9/sigma_1 of A", ratios_a, 1e-6, gated=False)
    report("criterion 4", "sigma_5/sigma_1 of B", ratios_b, 1e-6, gated=False)
    report("criterion 4", "outlier error", outliers, 1e-5, gated=False)
    print("criterion 4, converged in passes: " + ", ".join(converged))


def test_synth_clean_instance_across_seeds():
    densities, outlier_norms, err_rec, converged = [], [], [], []
    for seed in SEEDS:
        x, _ = generate(SyntheticSpec(m=30, n=24, num_slices=4, rank_a=2, rank_b=2, r=4,
                                      p=1.0, seed=seed))
        fac = solve(x, SolverConfig(r=4))
        densities.append(density(fac.outliers))
        outlier_norms.append(np.linalg.norm(fac.outliers))
        err_rec.append(fac.trace[-1, 0])
        converged.append(fac.converged)
    report("clean instance", "err_rec", err_rec, 1e-7, gated=True)
    report("clean instance", "recovered density", densities, 0, gated=True)
    report("clean instance", "outlier norm", outlier_norms, 0, gated=True)
    print("clean instance, converged: " + ", ".join(map(str, converged)))
    assert max(err_rec) <= 1e-7
    assert max(densities) == 0 and max(outlier_norms) == 0
    assert all(converged)


def test_synth_density_instance_across_seeds(lambda_sweep):
    low, gaps, true_offsets = [], [], []
    for runs, truth in lambda_sweep:
        (_, err, fac), = [run for run in runs if run[0] == 1.0]
        low.append(err)
        gaps.append(abs(density(fac.outliers) - density(truth.outliers)))
        true_offsets.append(abs(density(truth.outliers) - 0.6))
    report("density instance", "low-rank error", low, 1e-3, gated=True)
    report("density instance", "density gap", gaps, 5e-3, gated=False)
    report("density instance", "true density's distance from 0.6", true_offsets, 0.015, gated=False)
    assert max(low) <= 1e-3
