"""
Recovering a low-rank tensor from heavy impulsive corruption
============================================================

A 50x50x20 tensor with shared rank-5 bases is hit entry-wise by +/-1
impulses on 30% of its entries. The solver separates the two parts
without being told the corruption pattern, and the whole run is
reproducible from the seed alone.
"""

import tempfile
from pathlib import Path

from kdrsdl import (
    SolverConfig,
    SyntheticSpec,
    density,
    generate,
    load_bundle,
    relative_error,
    save_bundle,
    solve,
)

spec = SyntheticSpec(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10, p=0.7, seed=0)
x, truth = generate(spec)
print(f"observations: {x.shape}, corruption density {density(truth.outliers):.3f}")

config = SolverConfig(r=10, alpha=1e-2, epsilon=1e-12)
fac = solve(x, config)
print(f"converged in {fac.iterations} passes")

# against the retained ground truth, both parts come back to ~1e-7
err_low = relative_error(fac.low_rank(), truth.low_rank)
err_out = relative_error(fac.outliers, truth.outliers)
print(f"relative error, low-rank part: {err_low:.2e}")
print(f"relative error, outlier part:  {err_out:.2e}")
print(f"recovered density {density(fac.outliers):.3f}")

# everything needed to replay or inspect the run fits in one directory
with tempfile.TemporaryDirectory(prefix="recovery_") as tmp:
    out_dir = Path(tmp)
    save_bundle(out_dir, fac, config.resolved(50, 50))
    reloaded, manifest = load_bundle(out_dir)
    assert reloaded.low_rank().tobytes() == fac.low_rank().tobytes()
    print(f"bundle saved to {out_dir} and reloaded bit-identically")
