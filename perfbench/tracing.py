"""In-memory span tracing of the kdrsdl modules, from outside the package.

Tracing replaces every public function of the traced modules, under each
name a module imports it by, with a wrapper that records a span (name,
start, end, parent) and, for a few kernels, quantities computed from the
argument shapes. The originals are put back when tracing ends, so the
program itself is never edited and untraced runs pay nothing.
"""

import functools
import inspect
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "io", "solver", "tensor", "linalg", "rpca", "metrics", "synthetic")


def _mode_product_flop(counts, args, kwargs, result):
    # tensor x matrix along one mode: 2 * rows(u) multiply-adds per tensor entry
    t, u = args[0], args[1]
    counts["tensor.mode_product.flop"] += 2 * u.shape[0] * np.asarray(t).size


def _shrink_bytes(counts, args, kwargs, result):
    # least traffic an elementwise kernel can make: read the input, write the output
    counts["linalg.shrink.bytes"] += np.asarray(args[0]).nbytes + np.asarray(result).nbytes


def _file_bytes(counts, args, kwargs, result):
    counts["io.bytes_written"] += os.path.getsize(args[0])


# quantities computed from shapes or files after a span ends, keyed by span name
PROBES = {
    "tensor.mode_product": _mode_product_flop,
    "linalg.shrink": _shrink_bytes,
    "io.write_tensor": _file_bytes,
    "io.write_image": _file_bytes,
    "io.write_trace": _file_bytes,
    "io.write_metrics": _file_bytes,
    "io.write_manifest": _file_bytes,
}


class Tracer:
    """Spans and counts of one traced call, kept in memory."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(self.counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        self._saved = []
        wrappers = {}
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("kdrsdl.")
                ):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rpartition(".")[2]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved = []
        return False

    def summary(self):
        """Per span name: [calls, inclusive seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[i]
        return stats


def layer_metrics(stats, counts, wall):
    """The per-layer metrics of one traced pipeline call of `wall` seconds.

    stats is Tracer.summary(), so a function never called reads as zeros.
    """
    values = {}
    for name in (
        "solver.iterate", "solver.errors_of", "tensor.mode_product",
        "tensor.reconstruct", "linalg.solve_gram_system", "linalg.solve_stein",
        "linalg.shrink", "linalg.thin_svd", "rpca.rpca_ialm", "rpca.svt",
        "io.write_image", "metrics.roc_auc",
    ):
        values[f"{name}.calls"] = stats[name][0]
    for name in (
        "solver.initialize", "solver.iterate", "solver.errors_of",
        "tensor.mode_product", "tensor.reconstruct", "tensor.slice_norms",
        "linalg.solve_gram_system", "linalg.solve_stein", "linalg.shrink",
        "linalg.thin_svd", "rpca.rpca_ialm", "rpca.svt", "io.read_tensor",
        "io.read_image_stack", "io.write_image", "io.save_bundle",
        "io.write_tensor", "io.write_metrics", "io.write_manifest",
        "metrics.roc_auc",
    ):
        values[f"{name}.s"] = stats[name][1]
    values["solver.iterate.self_s"] = stats["solver.iterate"][2]
    values["solver.errors_of.self_s"] = stats["solver.errors_of"][2]
    iterate_calls, iterate_s, _ = stats["solver.iterate"]
    values["solver.iterate.ms_per_call"] = 1e3 * iterate_s / iterate_calls if iterate_calls else 0.0
    gflop = counts["tensor.mode_product.flop"] / 1e9
    values["tensor.mode_product.gflop"] = gflop
    mode_s = stats["tensor.mode_product"][1]
    values["tensor.mode_product.gflops"] = gflop / mode_s if mode_s > 0 else 0.0
    values["linalg.shrink.mb_moved"] = counts["linalg.shrink.bytes"] / 1e6
    values["io.bytes_written"] = counts["io.bytes_written"]
    self_total = 0.0
    for layer in LAYERS:
        layer_self = sum(v[2] for k, v in list(stats.items()) if k.startswith(layer + "."))
        values[f"{layer}.self_s"] = layer_self
        self_total += layer_self
    values["trace.wall_s"] = wall
    values["trace.uncovered_s"] = wall - self_total
    return values
