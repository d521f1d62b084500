"""Command-line interface: synthetic benchmarks, decomposition, pipelines.

Subcommands:

* ``synth``      generate a synthetic problem, solve it, score recovery
* ``decompose``  factor a tensor from a .kdt file into a bundle
* ``rpca``       slice-wise robust PCA baseline on a .kdt file
* ``bgsub``      background subtraction on a stack of grayscale frames
* ``denoise``    corrupt images with impulse noise and recover them
* ``eval``       compare two stored tensors

Every command writes its artifacts under --out-dir, including a
metrics.csv and a manifest.json. _write_run builds every manifest the
same way: each parsed flag under its argparse dest, then the values the
command resolved from them, then the resolved solver configuration as
config.* in place of the raw solver flags. A run can therefore be rerun
with the manifest's parameters. Exit codes: 0 on success, 1 when the
solver fails, 2 for usage errors (bad flags, missing or malformed
inputs, or a path the operating system refuses).
"""

import argparse
import glob
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .io import (
    read_image,
    read_image_stack,
    read_tensor,
    save_bundle,
    write_image,
    write_manifest,
    write_metrics,
    write_tensor,
)
from .metrics import psnr, relative_error, roc_auc
from .rpca import EPSILON, rpca_slices
from .solver import SolverConfig, SolverError, solve
from .synthetic import PRNG_ALGORITHM, SyntheticSpec, density, generate


def _solver_config(args, m, n):
    # a SolverConfig from the solver flags the command has, resolved for m x n
    given = {f.name: getattr(args, f.name) for f in fields(SolverConfig) if hasattr(args, f.name)}
    return SolverConfig(**given).resolved(m, n)


def _joined(values):
    # one manifest value for a parameter of several stacks: the value they
    # share, or each stack's value joined by ";", as file lists are
    values = list(values)
    return values[0] if len(set(values)) == 1 else ";".join(map(str, values))


def _write_run(args, metrics, configs=(), fac=None, arrays=(), **resolved):
    """Create --out-dir and write a run's arrays, metrics.csv and manifest.json.

    The one place a manifest is built. It holds every parsed flag but
    --out-dir under its argparse dest, then the values the command
    resolved from the flags (resolved), then, when the run solved with
    SolverConfigs (configs, one per stack), their fields as config.* in
    place of the solver flags of the same names, joined by _joined. With
    fac, the run is a bundle of one stack: save_bundle writes it with
    the manifest, adding converged and iterations. arrays yields (file
    name, data) pairs: .kdt names are written as tensors, all others as
    images.
    """
    manifest = {k: v for k, v in vars(args).items() if k not in ("out_dir", "func")}
    manifest.update(resolved)
    if configs:
        for f in fields(SolverConfig):
            manifest.pop(f.name, None)
            manifest[f"config.{f.name}"] = _joined(getattr(c, f.name) for c in configs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in arrays:
        (write_tensor if name.endswith(".kdt") else write_image)(out_dir / name, data)
    write_metrics(out_dir / "metrics.csv", metrics)
    if fac is None:
        write_manifest(out_dir / "manifest.json", manifest)
    else:
        save_bundle(out_dir, fac, configs[0], extra=manifest)


def cmd_synth(args):
    config = _solver_config(args, args.m, args.n)
    spec = SyntheticSpec(
        m=args.m,
        n=args.n,
        num_slices=args.num_slices,
        rank_a=args.rank_a,
        rank_b=args.rank_b,
        r=config.r,
        p=args.zero_prob,
        seed=args.seed,
    )
    x, truth = generate(spec)
    start = time.perf_counter()
    fac = solve(x, config)
    elapsed = time.perf_counter() - start
    truth_e_norm = np.linalg.norm(truth.outliers)
    values = {
        "relative_error_low_rank": relative_error(fac.low_rank(), truth.low_rank),
        "relative_error_outliers": (
            relative_error(fac.outliers, truth.outliers)
            if truth_e_norm > 0
            else float(np.linalg.norm(fac.outliers))
        ),
        "density_true": density(truth.outliers),
        "density_recovered": density(fac.outliers),
        "err_rec": fac.trace[-1, 0],
        "err_split": fac.trace[-1, 1],
        "iterations": fac.iterations,
        "converged": fac.converged,
    }
    _write_run(args, values, [config], fac, prng=PRNG_ALGORITHM)
    print(
        f"solved in {fac.iterations} iterations, {elapsed:.2f} s; "
        f"error on L = {values['relative_error_low_rank']:.3e}"
    )


def cmd_decompose(args):
    x = read_tensor(args.input)
    config = _solver_config(args, x.shape[0], x.shape[1])
    start = time.perf_counter()
    fac = solve(x, config)
    elapsed = time.perf_counter() - start
    values = {
        "err_rec": fac.trace[-1, 0],
        "err_split": fac.trace[-1, 1],
        "outlier_density": density(fac.outliers),
        "iterations": fac.iterations,
        "converged": fac.converged,
    }
    _write_run(args, values, [config], fac)
    print(f"solved in {fac.iterations} iterations, {elapsed:.2f} s")


def cmd_rpca(args):
    x = read_tensor(args.input)
    config = _solver_config(args, x.shape[0], x.shape[1])
    start = time.perf_counter()
    result = rpca_slices(x, lam=config.lam, epsilon=config.epsilon, max_iter=config.max_iter)
    elapsed = time.perf_counter() - start
    _write_run(
        args,
        {
            "outlier_density": density(result.sparse),
            "iterations": result.iterations,
            "converged": result.converged,
        },
        arrays=[("low_rank.kdt", result.low_rank), ("sparse.kdt", result.sparse)],
        lam=config.lam,
    )
    print(f"decomposed {x.shape[2]} slices in {elapsed:.2f} s")


def cmd_bgsub(args):
    frame_paths = sorted(glob.glob(args.frames))
    mask_paths = sorted(glob.glob(args.mask_frames))
    if not frame_paths:
        raise ValueError(f"no frames match {args.frames!r}")
    if len(mask_paths) != len(frame_paths):
        raise ValueError(f"{len(frame_paths)} frames but {len(mask_paths)} mask frames")
    x = read_image_stack(frame_paths)
    labels = read_image_stack(mask_paths) > 0.5
    if labels.shape != x.shape:
        raise ValueError(f"mask stack is {labels.shape}, frame stack is {x.shape}")
    config = _solver_config(args, x.shape[0], x.shape[1])
    scored = [i for i in range(x.shape[2]) if labels[:, :, i].min() != labels[:, :, i].max()]
    if not scored:
        raise ValueError("no frame has both foreground and background pixels")
    fac = solve(x, config)
    scores = np.abs(fac.outliers)
    # both stacks are in the canonical column-major layout: flatten without a copy
    auc_pooled = roc_auc(scores.reshape(-1, order="F"), labels.reshape(-1, order="F"))
    auc_per_frame = float(
        np.mean([roc_auc(scores[:, :, i].ravel(), labels[:, :, i].ravel()) for i in scored])
    )
    peak = scores.max()
    foreground = (
        (f"foreground_{i:03d}.pgm", scores[:, :, i] / peak if peak > 0 else scores[:, :, i])
        for i in range(x.shape[2])
    )
    _write_run(
        args,
        {
            "auc_pooled": auc_pooled,
            "auc_per_frame": auc_per_frame,
            "frames": x.shape[2],
            "scored_frames": len(scored),
            "iterations": fac.iterations,
            "converged": fac.converged,
        },
        [config],
        arrays=foreground,
        frames=";".join(frame_paths),
        mask_frames=";".join(mask_paths),
    )
    print(f"auc (pooled): {auc_pooled:.6f}")
    print(f"auc (per-frame): {auc_per_frame:.6f}")


def _corrupt(image, level, rng):
    # impulses of full peak magnitude: a hit pixel saturates to 0 or 1
    hits = rng.random(image.shape) < level
    salt = rng.random(image.shape) < 0.5
    return np.where(hits, np.where(salt, 1.0, 0.0), image)


def cmd_denoise(args):
    if not 0.0 <= args.noise_level < 1.0:
        raise ValueError(f"noise level {args.noise_level} outside [0, 1)")
    paths = sorted(glob.glob(args.images))
    if not paths:
        raise ValueError(f"no images match {args.images!r}")
    images = [read_image(p) for p in paths]
    gray = images[0].ndim == 2
    if any(img.ndim != images[0].ndim for img in images):
        raise ValueError("cannot mix grayscale and color images in one run")
    if gray and any(img.shape != images[0].shape for img in images):
        raise ValueError("grayscale images must share dimensions")
    # grayscale frames form one stack and are denoised jointly, so the
    # shared bases see every image; a lone frame has no such support.
    # Each color image is its own three-slice stack, channel per slice
    clean = [np.stack(images, axis=2)] if gray else images
    rng = np.random.default_rng(args.seed)
    noisy = [_corrupt(c, args.noise_level, rng) for c in clean]
    if args.method == "kdrsdl":
        # heavier corruption needs a stronger pull toward a sparse core
        alpha = 1e-3 if args.noise_level <= 0.3 else 1e-2
        configs = [SolverConfig(r=args.r, alpha=alpha).resolved(*n.shape[:2]) for n in noisy]
        recovered = [solve(n, c).low_rank() for n, c in zip(noisy, configs)]
        resolved = {}
    else:
        lams = [SolverConfig().resolved(*n.shape[:2]).lam for n in noisy]
        recovered = [rpca_slices(n, lam=lam).low_rank for n, lam in zip(noisy, lams)]
        configs, resolved = (), {"lam": _joined(lams)}

    def split(stacks):
        # the images of the stacks: each grayscale slice, or each color stack whole
        return [s[:, :, i] for s in stacks for i in range(s.shape[2])] if gray else stacks

    recovered = [np.clip(rec, 0.0, 1.0) for rec in recovered]
    triples = list(zip(split(clean), split(noisy), split(recovered)))
    ext = "pgm" if gray else "ppm"
    values, files, psnrs_in, psnrs_out = {}, [], [], []
    for i, (c, n, rec) in enumerate(triples):
        files += [(f"corrupted_{i:03d}.{ext}", n), (f"recovered_{i:03d}.{ext}", rec)]
        psnrs_in.append(psnr(n, c, peak=1.0))
        psnrs_out.append(psnr(rec, c, peak=1.0))
        values[f"image_{i:03d}_psnr_input"] = psnrs_in[-1]
        values[f"image_{i:03d}_psnr"] = psnrs_out[-1]
    values["mean_psnr_input"] = float(np.mean(psnrs_in))
    values["mean_psnr"] = float(np.mean(psnrs_out))
    _write_run(args, values, configs, arrays=files, images=";".join(paths), **resolved)
    print(f"mean psnr: {values['mean_psnr']:.2f} dB over {len(triples)} images")


def cmd_eval(args):
    estimate = read_tensor(args.estimate)
    reference = read_tensor(args.reference)
    values = {"relative_error": relative_error(estimate, reference)}
    if args.peak is not None:
        values["psnr"] = psnr(estimate, reference, peak=args.peak)
    _write_run(args, values)
    print(f"relative error: {values['relative_error']:.6e}")


# the flag of each SolverConfig field: spelling, type and help
_SOLVER_FLAGS = {
    "r": ("--r", int, "core size (default min(m, n))"),
    "lam": ("--lambda", float, "outlier weight (default 1/sqrt(max(m, n)))"),
    "alpha": ("--alpha", float, "core sparsity weight"),
    "epsilon": ("--epsilon", float, "worst-slice squared relative residual to stop at (default %(default)s)"),
    "max_iter": ("--max-iter", int, "iteration cap"),
}


def _add_solver_flags(parser, *dests):
    # the flags of the given SolverConfig fields, with SolverConfig's defaults
    for dest in dests:
        flag, kind, text = _SOLVER_FLAGS[dest]
        default = getattr(SolverConfig, dest)
        parser.add_argument(flag, dest=dest, type=kind, default=default, help=text)


def _command(sub, name, func, help):
    # a subcommand with the --out-dir every command writes under
    p = sub.add_parser(name, help=help)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=func)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kdrsdl",
        description="Robust low-rank plus sparse tensor decomposition tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "synth", cmd_synth, "generate, solve, and score a synthetic problem")
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--num-slices", type=int, default=20)
    p.add_argument("--rank-a", type=int, default=5)
    p.add_argument("--rank-b", type=int, default=5)
    p.add_argument("--zero-prob", type=float, default=0.7, help="probability an outlier entry is zero")
    p.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p, "r", "lam", "alpha")

    p = _command(sub, "decompose", cmd_decompose, "factor a stored tensor into a bundle")
    p.add_argument("--input", required=True, help="input .kdt tensor")
    _add_solver_flags(p, "r", "lam", "alpha", "epsilon", "max_iter")

    p = _command(sub, "rpca", cmd_rpca, "slice-wise robust PCA baseline")
    p.add_argument("--input", required=True, help="input .kdt tensor")
    _add_solver_flags(p, "lam", "epsilon", "max_iter")
    p.set_defaults(epsilon=EPSILON)

    p = _command(sub, "bgsub", cmd_bgsub, "foreground scoring on a frame stack")
    p.add_argument("--frames", required=True, help="glob of grayscale PGM frames")
    p.add_argument("--mask-frames", required=True, help="glob of binary PGM masks")
    _add_solver_flags(p, "r", "lam", "alpha")

    p = _command(sub, "denoise", cmd_denoise, "impulse-noise removal on images")
    p.add_argument("--images", required=True, help="glob of PGM/PPM images")
    p.add_argument("--noise-level", type=float, required=True, help="corruption density in [0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("kdrsdl", "rpca"), default="kdrsdl")
    _add_solver_flags(p, "r")

    p = _command(sub, "eval", cmd_eval, "compare two stored tensors")
    p.add_argument("--estimate", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--peak", type=float, default=None, help="also report PSNR at this peak")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except FileNotFoundError as exc:
        error = f"{exc.filename if exc.filename else exc}: file not found"
    except OSError as exc:
        error = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    except ValueError as exc:
        error = exc
    except SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    # the one usage-error path: cmd_* functions raise ValueError or OSError
    print(f"error: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
