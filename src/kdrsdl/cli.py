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
inputs).
"""

import argparse
import glob
import sys
import time
from dataclasses import asdict, fields
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
from .rpca import default_lam, rpca_slices
from .solver import SolverConfig, SolverError, solve
from .synthetic import PRNG_ALGORITHM, SyntheticSpec, density, generate


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _expand(pattern):
    return sorted(glob.glob(pattern))


def _solver_config(args, m, n):
    # a SolverConfig from the solver flags the command has, resolved for m x n
    given = {f.name: getattr(args, f.name) for f in fields(SolverConfig) if hasattr(args, f.name)}
    return SolverConfig(**given).resolved(m, n)


def _write_run(args, metrics, config=None, fac=None, arrays=(), **resolved):
    """Create --out-dir and write a run's arrays, metrics.csv and manifest.json.

    The one place a manifest is built. It holds every parsed flag but
    --out-dir under its argparse dest, then the values the command
    resolved from the flags (resolved), then, when config is given, its
    fields as config.* in place of the solver flags of the same names.
    With fac, the run is a bundle: save_bundle writes it with the
    manifest, adding converged and iterations. arrays yields (file name,
    data) pairs: .kdt names are written as tensors, all others as images.
    """
    manifest = {k: v for k, v in vars(args).items() if k not in ("out_dir", "func")}
    manifest.update(resolved)
    if config is not None:
        for name, value in asdict(config).items():
            manifest.pop(name, None)
            manifest[f"config.{name}"] = value
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in arrays:
        (write_tensor if name.endswith(".kdt") else write_image)(out_dir / name, data)
    write_metrics(out_dir / "metrics.csv", metrics)
    if fac is None:
        write_manifest(out_dir / "manifest.json", manifest)
    else:
        save_bundle(out_dir, fac, config, extra=manifest)


def cmd_synth(args):
    r = args.r if args.r is not None else min(args.m, args.n)
    spec = SyntheticSpec(
        m=args.m,
        n=args.n,
        num_slices=args.num_slices,
        rank_a=args.rank_a,
        rank_b=args.rank_b,
        r=r,
        p=args.zero_prob,
        seed=args.seed,
    )
    x, truth = generate(spec)
    config = _solver_config(args, args.m, args.n)
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
    _write_run(args, values, config, fac, prng=PRNG_ALGORITHM)
    print(
        f"solved in {fac.iterations} iterations, {elapsed:.2f} s; "
        f"error on L = {values['relative_error_low_rank']:.3e}"
    )
    return 0


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
    _write_run(args, values, config, fac)
    print(f"solved in {fac.iterations} iterations, {elapsed:.2f} s")
    return 0


def cmd_rpca(args):
    x = read_tensor(args.input)
    lam = default_lam(x.shape[0], x.shape[1]) if args.lam is None else args.lam
    start = time.perf_counter()
    result = rpca_slices(x, lam=lam, epsilon=args.epsilon, max_iter=args.max_iter)
    elapsed = time.perf_counter() - start
    _write_run(
        args,
        {
            "outlier_density": density(result.sparse),
            "iterations": result.iterations,
            "converged": result.converged,
        },
        arrays=[("low_rank.kdt", result.low_rank), ("sparse.kdt", result.sparse)],
        lam=lam,
    )
    print(f"decomposed {x.shape[2]} slices in {elapsed:.2f} s")
    return 0


def cmd_bgsub(args):
    frame_paths = _expand(args.frames)
    mask_paths = _expand(args.mask_frames)
    if not frame_paths:
        return _fail(f"no frames match {args.frames!r}")
    if len(mask_paths) != len(frame_paths):
        return _fail(
            f"{len(frame_paths)} frames but {len(mask_paths)} mask frames"
        )
    x = read_image_stack(frame_paths)
    masks = read_image_stack(mask_paths)
    if masks.shape != x.shape:
        return _fail(f"mask stack is {masks.shape}, frame stack is {x.shape}")
    labels = (masks > 0.5).astype(np.int64)
    if labels.min() == labels.max():
        return _fail("masks contain a single class; cannot score a ranking")
    config = _solver_config(args, x.shape[0], x.shape[1])
    fac = solve(x, config)
    scores = np.abs(fac.outliers)
    # both stacks are in the canonical column-major layout: flatten without a copy
    auc_pooled = roc_auc(scores.reshape(-1, order="F"), labels.reshape(-1, order="F"))
    per_frame = []
    for i in range(x.shape[2]):
        frame_labels = labels[:, :, i]
        if frame_labels.min() == frame_labels.max():
            continue
        per_frame.append(roc_auc(scores[:, :, i].ravel(), frame_labels.ravel()))
    if not per_frame:
        return _fail("no frame has both foreground and background pixels")
    auc_per_frame = float(np.mean(per_frame))
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
            "scored_frames": len(per_frame),
            "iterations": fac.iterations,
            "converged": fac.converged,
        },
        config,
        arrays=foreground,
        frames=";".join(frame_paths),
        mask_frames=";".join(mask_paths),
    )
    print(f"auc (pooled): {auc_pooled:.6f}")
    print(f"auc (per-frame): {auc_per_frame:.6f}")
    return 0


def _corrupt(image, level, rng):
    # impulses of full peak magnitude: a hit pixel saturates to 0 or 1
    hits = rng.random(image.shape) < level
    salt = rng.random(image.shape) < 0.5
    return np.where(hits, np.where(salt, 1.0, 0.0), image)


def _denoise_tensor(noisy, method, r, alpha):
    if method == "kdrsdl":
        config = SolverConfig(r=r, alpha=alpha).resolved(noisy.shape[0], noisy.shape[1])
        recovered = solve(noisy, config).low_rank()
    else:
        recovered = rpca_slices(noisy).low_rank
    return np.clip(recovered, 0.0, 1.0)


def cmd_denoise(args):
    if not 0.0 <= args.noise_level < 1.0:
        return _fail(f"noise level {args.noise_level} outside [0, 1)")
    paths = _expand(args.images)
    if not paths:
        return _fail(f"no images match {args.images!r}")
    images = [read_image(p) for p in paths]
    kinds = {img.ndim for img in images}
    if len(kinds) > 1:
        return _fail("cannot mix grayscale and color images in one run")
    rng = np.random.default_rng(args.seed)
    # heavier corruption needs a stronger pull toward a sparse core
    alpha = 1e-3 if args.noise_level <= 0.3 else 1e-2
    if kinds == {2}:
        # grayscale frames form one stack and are denoised jointly, so the
        # shared bases see every image; a lone frame has no such support
        if any(img.shape != images[0].shape for img in images):
            return _fail("grayscale images must share dimensions")
        clean = [np.stack(images, axis=2)]
        ext = "pgm"
    else:
        # each color image is its own three-slice stack, channel per slice
        clean = images
        ext = "ppm"
    noisy = [_corrupt(c, args.noise_level, rng) for c in clean]
    recovered = [_denoise_tensor(n, args.method, args.r, alpha) for n in noisy]
    values = {}
    psnrs_in, psnrs_out = [], []
    files = []
    idx = 0
    for c, n, rec in zip(clean, noisy, recovered):
        if ext == "pgm":
            items = [(c[:, :, i], n[:, :, i], rec[:, :, i]) for i in range(n.shape[2])]
        else:
            items = [(c, n, rec)]
        for c_img, n_img, r_img in items:
            files.append((f"corrupted_{idx:03d}.{ext}", n_img))
            files.append((f"recovered_{idx:03d}.{ext}", r_img))
            p_in = psnr(n_img, c_img, peak=1.0)
            p_out = psnr(r_img, c_img, peak=1.0)
            values[f"image_{idx:03d}_psnr_input"] = p_in
            values[f"image_{idx:03d}_psnr"] = p_out
            psnrs_in.append(p_in)
            psnrs_out.append(p_out)
            idx += 1
    values["mean_psnr_input"] = float(np.mean(psnrs_in))
    values["mean_psnr"] = float(np.mean(psnrs_out))
    _write_run(args, values, arrays=files, images=";".join(paths), alpha=alpha)
    print(f"mean psnr: {values['mean_psnr']:.2f} dB over {idx} images")
    return 0


def cmd_eval(args):
    estimate = read_tensor(args.estimate)
    reference = read_tensor(args.reference)
    if estimate.shape != reference.shape:
        return _fail(
            f"shape mismatch: {estimate.shape} vs {reference.shape}"
        )
    values = {"relative_error": relative_error(estimate, reference)}
    if args.peak is not None:
        values["psnr"] = psnr(estimate, reference, peak=args.peak)
    _write_run(args, values)
    print(f"relative error: {values['relative_error']:.6e}")
    return 0


def _add_solver_flags(parser, with_iteration_flags):
    parser.add_argument("--r", type=int, default=None, help="core size (default min(m, n))")
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="outlier weight (default 1/sqrt(max(m, n)))",
    )
    parser.add_argument("--alpha", type=float, default=1e-2, help="core sparsity weight")
    if with_iteration_flags:
        parser.add_argument("--epsilon", type=float, default=1e-7, help="stopping tolerance")
        parser.add_argument("--max-iter", type=int, default=1000, help="iteration cap")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kdrsdl",
        description="Robust low-rank plus sparse tensor decomposition tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate, solve, and score a synthetic problem")
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--num-slices", type=int, default=20)
    p.add_argument("--rank-a", type=int, default=5)
    p.add_argument("--rank-b", type=int, default=5)
    p.add_argument("--zero-prob", type=float, default=0.7, help="probability an outlier entry is zero")
    p.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p, with_iteration_flags=False)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decompose", help="factor a stored tensor into a bundle")
    p.add_argument("--input", required=True, help="input .kdt tensor")
    _add_solver_flags(p, with_iteration_flags=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("rpca", help="slice-wise robust PCA baseline")
    p.add_argument("--input", required=True, help="input .kdt tensor")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=1e-7)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_rpca)

    p = sub.add_parser("bgsub", help="foreground scoring on a frame stack")
    p.add_argument("--frames", required=True, help="glob of grayscale PGM frames")
    p.add_argument("--mask-frames", required=True, help="glob of binary PGM masks")
    _add_solver_flags(p, with_iteration_flags=False)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bgsub)

    p = sub.add_parser("denoise", help="impulse-noise removal on images")
    p.add_argument("--images", required=True, help="glob of PGM/PPM images")
    p.add_argument("--noise-level", type=float, required=True, help="corruption density in [0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("kdrsdl", "rpca"), default="kdrsdl")
    p.add_argument("--r", type=int, default=None, help="core size (default min(m, n))")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", help="compare two stored tensors")
    p.add_argument("--estimate", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--peak", type=float, default=None, help="also report PSNR at this peak")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        return _fail(f"{name}: file not found")
    except ValueError as exc:
        return _fail(exc)
    except SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
