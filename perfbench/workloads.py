"""The benchmark's workloads: seeded inputs, the CLI call, and output checks.

Inputs are built only from the seed and written to disk, so the program
sees nothing but files. Each check reads the artifacts back with its own
parsers, independent of kdrsdl.io, and compares them with the truth the
benchmark kept.
"""

import struct
from pathlib import Path

import numpy as np

from kdrsdl import synthetic
from kdrsdl.io import write_image, write_tensor

# synthetic tensors: rank-5 bases of width 20, corruption +-1 on 30% of entries
RANK = 5
WIDTH = 20
ZERO_PROB = 0.7


class CheckFailed(Exception):
    """An artifact of a pipeline call is missing or wrong."""


def read_kdt(path):
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise CheckFailed(f"{path.name} is shorter than a KDT header")
    magic, m, n, num = struct.unpack_from("<4s3I", raw)
    if magic != b"KDT1" or len(raw) != 16 + 8 * m * n * num:
        raise CheckFailed(f"{path.name} is not a well-formed KDT file")
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape((m, n, num), order="F")


def read_metrics_csv(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "metric,value":
        raise CheckFailed(f"{path.name} has no metric,value header")
    return {name: float(value) for name, value in (line.split(",") for line in lines[1:])}


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _relative_error(estimate, truth):
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


class SyntheticTensor:
    """A stored synthetic tensor factored by one CLI command.

    The check asks for convergence and for the recovered low-rank part to
    lie within `tol` relative error of the generated clean tensor.
    """

    def __init__(self, command, m, n, num_slices, tol, args=()):
        self.command = command
        self.m, self.n, self.num_slices = m, n, num_slices
        self.tol = tol
        self.args = list(args)

    def _spec(self, seed):
        return synthetic.SyntheticSpec(
            m=self.m, n=self.n, num_slices=self.num_slices, rank_a=RANK,
            rank_b=RANK, r=WIDTH, p=ZERO_PROB, seed=seed,
        )

    def write_inputs(self, seed, in_dir):
        # looked up on the module so that a traced set-up sees the call
        x, _ = synthetic.generate(self._spec(seed))
        write_tensor(Path(in_dir) / "input.kdt", x)

    def truth(self, seed):
        return synthetic.generate(self._spec(seed))[1].low_rank

    def argv(self, in_dir, out_dir):
        return [self.command, "--input", str(Path(in_dir) / "input.kdt"),
                *self.args, "--out-dir", str(out_dir)]

    def check(self, out_dir, truth):
        """Raise CheckFailed on a wrong output; return the reported passes."""
        out_dir = Path(out_dir)
        values = read_metrics_csv(out_dir / "metrics.csv")
        _require(values.get("converged") == 1.0, "run did not converge")
        if self.command == "decompose":
            a, b, core = (read_kdt(out_dir / f"{k}.kdt") for k in "ABR")
            low_rank = np.einsum("ia,abk,jb->ijk", a[:, :, 0], core, b[:, :, 0])
        else:
            low_rank = read_kdt(out_dir / "low_rank.kdt")
        _require(low_rank.shape == truth.shape, f"low-rank part is {low_rank.shape}")
        error = _relative_error(low_rank, truth)
        _require(error <= self.tol, f"low-rank relative error {error:.3e} > {self.tol:g}")
        return int(values["iterations"])


class Clip:
    """A smooth background with a bright square bouncing across it.

    The background is the demos' rank-one gradient; the seed sets where
    the square starts and its velocity. Masks mark the square. The check
    asks both AUCs to reach `min_auc` and every frame to be written.
    """

    command = "bgsub"

    def __init__(self, height, width, num_frames, side, min_auc=0.99):
        self.height, self.width = height, width
        self.num_frames, self.side = num_frames, side
        self.min_auc = min_auc

    def frames(self, seed):
        """Yield (frame, mask) pairs, each height x width in [0, 1]."""
        h, w, side = self.height, self.width, self.side
        background = np.outer(np.linspace(0.2, 0.8, h), np.linspace(0.3, 0.9, w))
        limit = np.array([h - side, w - side], dtype=float)
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, limit)
        vel = rng.uniform(0.5, 2.0, size=2) * rng.choice((-1.0, 1.0), size=2)
        for _ in range(self.num_frames):
            pos += vel
            low, high = pos < 0, pos > limit
            pos[low] = -pos[low]
            pos[high] = 2 * limit[high] - pos[high]
            vel[low | high] *= -1
            r0, c0 = np.rint(pos).astype(int)
            frame, mask = background.copy(), np.zeros((h, w))
            frame[r0:r0 + side, c0:c0 + side] = 1.0
            mask[r0:r0 + side, c0:c0 + side] = 1.0
            yield frame, mask

    def write_inputs(self, seed, in_dir):
        in_dir = Path(in_dir)
        (in_dir / "frames").mkdir(parents=True, exist_ok=True)
        (in_dir / "masks").mkdir(parents=True, exist_ok=True)
        for i, (frame, mask) in enumerate(self.frames(seed)):
            write_image(in_dir / "frames" / f"frame_{i:03d}.pgm", frame)
            write_image(in_dir / "masks" / f"mask_{i:03d}.pgm", mask)

    def truth(self, seed):
        return None

    def argv(self, in_dir, out_dir):
        in_dir = Path(in_dir)
        return ["bgsub", "--frames", str(in_dir / "frames" / "*.pgm"),
                "--mask-frames", str(in_dir / "masks" / "*.pgm"), "--r", "1",
                "--out-dir", str(out_dir)]

    def check(self, out_dir, truth):
        """Raise CheckFailed on a wrong output; return the reported passes."""
        out_dir = Path(out_dir)
        values = read_metrics_csv(out_dir / "metrics.csv")
        for key in ("auc_pooled", "auc_per_frame"):
            _require(values.get(key, 0.0) >= self.min_auc,
                     f"{key} {values.get(key)} < {self.min_auc}")
        written = len(list(out_dir.glob("foreground_*.pgm")))
        _require(written == self.num_frames,
                 f"{written} foreground frames for {self.num_frames} inputs")
        return int(values["iterations"])


# name -> (full size, tiny size for the smoke mode)
WORKLOADS = {
    "decompose-100": (
        SyntheticTensor("decompose", 100, 100, 50, tol=1e-3, args=["--r", "20"]),
        SyntheticTensor("decompose", 50, 50, 8, tol=1e-3, args=["--r", "20"]),
    ),
    "bgsub-clip": (
        Clip(60, 80, 200, 8),
        Clip(24, 32, 16, 6),
    ),
    "rpca-slices": (
        SyntheticTensor("rpca", 100, 100, 20, tol=1e-2),
        SyntheticTensor("rpca", 40, 40, 3, tol=1e-2),
    ),
}
