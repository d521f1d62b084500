"""Pipeline benchmark for kdrsdl: CLI workloads timed, checked and traced.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --env

Run from the repository root; kdrsdl is imported from its src/ directory.
A run writes the workload's inputs, generated from --seed, under
.perfbench_work/ and calls kdrsdl.cli.main on them in this process until
--seconds have passed, always at least once. Every call's artifacts are
checked, and must be byte-identical to the first call's. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; attempted is the number of pipeline calls, which is also the
sample count of the timings.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced calls and reports the per-layer metrics.
--tiny shrinks the workload to run in about a second. --smoke runs every
workload tiny, both ways, once. --env prints the environment measured.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

sys.path.insert(0, str(SRC))
try:
    import kdrsdl.cli
except ImportError as exc:
    sys.exit(f"perfbench: cannot import kdrsdl from {SRC}: {exc}")
if Path(kdrsdl.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: kdrsdl was imported from {kdrsdl.__file__}, not {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from kdrsdl import cli, io as kio, linalg, metrics, rpca, solver, synthetic, tensor  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

TRACED_MODULES = (cli, kio, solver, tensor, linalg, rpca, metrics, synthetic)
# per-layer values that must repeat exactly from one traced call to the next
EXACT_SUFFIXES = (".calls", ".gflop", ".mb_moved", "bytes_written")


def blas_threads():
    """Threads the OpenBLAS bundled with numpy runs with, or None if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def time_setup(name, seed, in_dir, tiny):
    """Seconds one fresh interpreter takes to import, generate and write."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(in_dir)]
    if tiny:
        argv.append("--tiny")
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def digests(out_dir):
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def pipeline_call(workload, in_dir, out_dir, truth, tracer=None):
    """One CLI call: (wall seconds, (passes, artifact digests), problem or None)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = workload.argv(in_dir, out_dir)
    with contextlib.redirect_stdout(io.StringIO()), tracer or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed call, reported and counted
            traceback.print_exc()
            rc = "an exception"
        wall = time.perf_counter() - start
    if rc != 0:
        return wall, None, f"the CLI returned {rc}"
    try:
        passes = workload.check(out_dir, truth)
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        return wall, None, f"check failed: {exc}"
    return wall, (passes, digests(out_dir)), None


def exact(values):
    return {k: v for k, v in values.items() if k.endswith(EXACT_SUFFIXES)}


class Calls:
    """Outcomes of the pipeline calls of one run, all held to the first's output."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.reference = None

    def record(self, output, problem):
        self.attempted += 1
        if problem is None and self.reference is None:
            self.reference = output
        elif problem is None and output != self.reference:
            problem = "artifacts or passes differ from the first call"
        if problem is not None:
            self.problems.append(problem)
            print(f"perfbench: call {self.attempted} failed: {problem}", file=sys.stderr)


def run(name, seed, seconds, trace, tiny=False):
    """Measure one workload; return the result object run.py prints."""
    workload = WORKLOADS[name][tiny]
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    in_dir, out_dir = work / "inputs", work / "out"
    in_dir.mkdir(parents=True)
    try:
        if trace:
            setup_trace = Tracer([synthetic])
            with setup_trace:
                workload.write_inputs(seed, in_dir)
        else:
            setup_s = statistics.median(
                time_setup(name, seed, in_dir, tiny)
                for _ in range(1 if tiny else SETUP_REPEATS)
            )
        truth = workload.truth(seed)
        calls = Calls()
        walls, traced_walls, layers = [], [], []
        start = time.perf_counter()
        while True:
            wall, output, problem = pipeline_call(workload, in_dir, out_dir, truth)
            walls.append(wall)
            calls.record(output, problem)
            if trace:
                tracer = Tracer(TRACED_MODULES)
                wall, output, problem = pipeline_call(workload, in_dir, out_dir, truth, tracer)
                traced_walls.append(wall)
                layers.append(layer_metrics(tracer.summary(), tracer.counts, wall))
                if problem is None and exact(layers[-1]) != exact(layers[0]):
                    problem = "traced call counts differ from the first traced call"
                calls.record(output, problem)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if trace:
        values = {k: statistics.median(c[k] for c in layers) for k in layers[0]}
        values.update(exact(layers[0]))
        values["synthetic.generate.s"] = setup_trace.summary()["synthetic.generate"][1]
        values["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "passes": calls.reference[0] if calls.reference else 0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    declared = declared_metrics(trace)
    names = {m["name"] for m in declared}
    if names != set(values):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}"
        )
    print(
        f"perfbench: {name} seed {seed}: untraced call walls "
        + " ".join(f"{w:.3f}" for w in walls),
        file=sys.stderr,
    )
    return {
        "correct": not calls.problems,
        "attempted": calls.attempted,
        "failed": len(calls.problems),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def smoke():
    """Run every workload tiny, untraced and traced; True if all are correct."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, seed=0, seconds=0, trace=trace, tiny=True)
            ok = ok and result["correct"]
            shown = ", ".join(
                f"{k}={m['value']:.6g} {m['unit']}"
                for k, m in result["metrics"].items()
                if k in ("wall_s", "passes", "trace.wall_s", "solver.iterate.calls")
            )
            print(f"{name} trace={trace} correct={result['correct']} {shown}")
    return ok


def main(argv=None):
    # a terminated run still removes its work directory on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--smoke", action="store_true", help="every workload tiny, both ways")
    parser.add_argument("--env", action="store_true", help="print the environment and exit")
    args = parser.parse_args(argv)
    if args.env:
        print(json.dumps(environment(), indent=2))
        return 0
    if args.smoke:
        return 0 if smoke() else 1
    if args.workload is None:
        parser.error("--workload is required")
    print(f"perfbench: environment {json.dumps(environment())}", file=sys.stderr)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
