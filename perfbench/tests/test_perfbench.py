"""The benchmark harness at tiny size: metrics, units, checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

import kdrsdl.linalg  # noqa: E402
import kdrsdl.solver  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def units(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    result = run.run(name, seed=0, seconds=0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 1 + trace
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units(trace)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_traced_spans_account_for_the_traced_wall_time():
    values = {
        k: m["value"]
        for k, m in run.run("decompose-100", 0, 0, trace=1, tiny=True)["metrics"].items()
    }
    passes = run.run("decompose-100", 0, 0, trace=0, tiny=True)["metrics"]["passes"]["value"]
    assert values["solver.iterate.calls"] == passes
    assert values["solver.errors_of.calls"] == passes
    assert values["rpca.svt.calls"] == 0
    self_total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    assert self_total + values["trace.uncovered_s"] == pytest.approx(values["trace.wall_s"])
    assert 0 <= values["trace.uncovered_s"] < 0.05 * values["trace.wall_s"]
    assert values["tensor.mode_product.gflop"] > 0
    assert values["io.bytes_written"] > 0
    assert values["synthetic.generate.s"] > 0


def test_traced_counts_repeat_on_a_second_seed():
    first, second = (
        run.run("bgsub-clip", 1, 0, trace=1, tiny=True)["metrics"] for _ in range(2)
    )
    frames = WORKLOADS["bgsub-clip"][1].num_frames
    assert first["metrics.roc_auc.calls"]["value"] == frames + 1
    assert first["io.write_image.calls"]["value"] == frames
    for name, metric in first.items():
        if name.endswith(run.EXACT_SUFFIXES):
            assert second[name]["value"] == metric["value"], name


def test_tracing_leaves_the_program_as_it_was():
    run.run("rpca-slices", 0, 0, trace=1, tiny=True)
    assert kdrsdl.solver.shrink is kdrsdl.linalg.shrink
    assert not hasattr(kdrsdl.linalg.shrink, "__wrapped__")
    assert not hasattr(run.cli.main, "__wrapped__")


def test_a_call_that_fails_its_check_counts_as_failed(monkeypatch):
    monkeypatch.setattr(WORKLOADS["rpca-slices"][1], "tol", 0.0)
    result = run.run("rpca-slices", 0, 0, trace=1, tiny=True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


def test_checks_reject_wrong_outputs(tmp_path):
    workload = WORKLOADS["decompose-100"][1]
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    workload.write_inputs(0, in_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run.cli.main(workload.argv(in_dir, out_dir)) == 0
    truth = workload.truth(0)
    assert workload.check(out_dir, truth) > 0
    with pytest.raises(CheckFailed, match="relative error"):
        workload.check(out_dir, truth + np.ones_like(truth))

    clip = WORKLOADS["bgsub-clip"][1]
    (tmp_path / "metrics.csv").write_text("metric,value\nauc_per_frame,1.0\nauc_pooled,0.5\n")
    with pytest.raises(CheckFailed, match="auc_pooled"):
        clip.check(tmp_path, None)


def test_command_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rpca-slices", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(units(0))


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bgsub-clip", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
