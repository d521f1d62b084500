"""End-to-end runs of the kdrsdl command line."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import kdrsdl
from kdrsdl import SolverConfig, SyntheticSpec, generate, read_tensor, write_image, write_tensor
from kdrsdl import cli
from kdrsdl.cli import build_parser, main
from kdrsdl.io import BUNDLE_FILES, read_manifest, read_metrics


def run(*argv):
    return main([str(a) for a in argv])


def write_video_fixture(frame_dir, mask_dir, h=24, w=32, num=8):
    """Rank-one background with a bright square walking across it, wrapping at the edges."""
    background = np.outer(np.linspace(0.2, 0.8, h), np.linspace(0.3, 0.9, w))
    for i in range(num):
        frame = background.copy()
        mask = np.zeros((h, w))
        r0, c0 = 4 + i % (h - 10), (2 + 3 * i) % (w - 6)
        frame[r0:r0 + 6, c0:c0 + 6] = 1.0
        mask[r0:r0 + 6, c0:c0 + 6] = 1.0
        write_image(frame_dir / f"frame_{i:03d}.pgm", frame)
        write_image(mask_dir / f"mask_{i:03d}.pgm", mask)


def write_banded_images(image_dir, count=6, seed=0):
    """Images constant on a 3x3 grid of bands: rank three, quantization-proof."""
    rng = np.random.default_rng(seed)
    rows = np.repeat([0, 1, 2], [7, 7, 6])
    cols = np.repeat([0, 1, 2], [6, 5, 5])
    for i in range(count):
        blocks = rng.integers(0, 256, size=(3, 3)) / 255.0
        write_image(image_dir / f"img_{i:03d}.pgm", blocks[rows][:, cols])


def test_synth_clean_instance(tmp_path, capsys):
    out = tmp_path / "run"
    rc = run("synth", "--m", 30, "--n", 24, "--num-slices", 4, "--rank-a", 2,
             "--rank-b", 2, "--r", 4, "--zero-prob", 1.0, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["density_true"] == 0.0
    assert metrics["density_recovered"] == 0.0
    assert metrics["relative_error_outliers"] == 0.0
    assert metrics["err_rec"] <= 1e-7
    assert metrics["converged"] == 1.0
    assert "iterations" in capsys.readouterr().out


def test_synth_bundle_complete(tmp_path):
    out = tmp_path / "run"
    rc = run("synth", "--m", 14, "--n", 12, "--num-slices", 3, "--rank-a", 2,
             "--rank-b", 2, "--r", 3, "--zero-prob", 0.7, "--out-dir", out)
    assert rc == 0
    for name in BUNDLE_FILES:
        assert (out / name).is_file()
    manifest = read_manifest(out / "manifest.json")
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 0
    assert manifest["prng"] == "pcg64"
    assert manifest["config.r"] == 3
    a = read_tensor(out / "A.kdt")
    assert a.shape == (14, 3, 1)


def test_synth_metrics_schema(tmp_path):
    out = tmp_path / "run"
    run("synth", "--m", 14, "--n", 12, "--num-slices", 3, "--rank-a", 2,
        "--rank-b", 2, "--r", 3, "--zero-prob", 0.7, "--out-dir", out)
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines] == [
        "metric",
        "converged",
        "density_recovered",
        "density_true",
        "err_rec",
        "err_split",
        "iterations",
        "relative_error_low_rank",
        "relative_error_outliers",
    ]


def test_synth_default_density_tracking(tmp_path):
    out = tmp_path / "run"
    rc = run("synth", "--zero-prob", 0.4, "--r", 10, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert abs(metrics["density_recovered"] - metrics["density_true"]) <= 0.005
    assert abs(metrics["density_true"] - 0.6) <= 0.015
    assert metrics["relative_error_low_rank"] <= 1e-3


def test_synth_same_seed_byte_identical(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    args = ("synth", "--m", 14, "--n", 12, "--num-slices", 3, "--rank-a", 2,
            "--rank-b", 2, "--r", 3, "--zero-prob", 0.6, "--seed", 5)
    assert run(*args, "--out-dir", first) == 0
    assert run(*args, "--out-dir", second) == 0
    for name in BUNDLE_FILES + ("metrics.csv",):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_synth_rejects_bad_probability(tmp_path, capsys):
    rc = run("synth", "--zero-prob", 1.5, "--out-dir", tmp_path / "run")
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("size", [("--m", 0), ("--n", 0), ("--m", -3), ("--n", -1)])
def test_synth_rejects_empty_slices(size, tmp_path, capsys):
    # the error names the slice dimensions, not the core size they bound
    rc = run("synth", *size, "--out-dir", tmp_path / "run")
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: slices must be at least 1 x 1" in err
    assert "r=" not in err


def test_decompose_zero_tensor(tmp_path):
    src = tmp_path / "x.kdt"
    write_tensor(src, np.zeros((5, 4, 2)))
    out = tmp_path / "run"
    with pytest.warns(RuntimeWarning):
        rc = run("decompose", "--input", src, "--r", 2, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["iterations"] == 1.0
    assert metrics["outlier_density"] == 0.0
    assert len((out / "trace.csv").read_text().splitlines()) == 2


def test_decompose_clean_tensor_leaves_outliers_empty(tmp_path):
    spec = SyntheticSpec(m=50, n=50, num_slices=20, rank_a=5, rank_b=5, r=10, p=1.0, seed=0)
    x, _ = generate(spec)
    src = tmp_path / "x.kdt"
    write_tensor(src, x)
    out = tmp_path / "run"
    rc = run("decompose", "--input", src, "--r", 10, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["outlier_density"] <= 1e-3
    assert metrics["err_rec"] <= 1e-7
    assert metrics["converged"] == 1.0


def test_decompose_missing_input(tmp_path, capsys):
    rc = run("decompose", "--input", tmp_path / "absent.kdt", "--out-dir", tmp_path / "o")
    assert rc == 2
    err = capsys.readouterr().err
    assert "absent.kdt" in err and "error:" in err


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["decompose", "--input", ".", "--out-dir", "o"], "."),
        (["decompose", "--input", "x.kdt", "--out-dir", "x.kdt"], "x.kdt"),
        (["bgsub", "--frames", "d.pgm", "--mask-frames", "d.pgm", "--out-dir", "o"], "d.pgm"),
    ],
    ids=["input-is-a-directory", "out-dir-is-a-file", "frame-is-a-directory"],
)
def test_paths_the_os_refuses_are_usage_errors(tmp_path, monkeypatch, capsys, argv, refused):
    monkeypatch.chdir(tmp_path)
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    write_tensor(tmp_path / "x.kdt", x)
    (tmp_path / "d.pgm").mkdir()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refused}: ") and "Traceback" not in err


def test_decompose_bad_magic(tmp_path, capsys):
    src = tmp_path / "x.kdt"
    src.write_bytes(b"NOPE" + bytes(20))
    rc = run("decompose", "--input", src, "--out-dir", tmp_path / "o")
    assert rc == 2
    assert "magic" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompose_numerical_failure_exits_1(tmp_path, capsys):
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=4, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    src = tmp_path / "x.kdt"
    write_tensor(src, x * 1e200)
    rc = run("decompose", "--input", src, "--r", 3, "--out-dir", tmp_path / "o")
    assert rc == 1
    assert "solver failed: iteration 1:" in capsys.readouterr().err


@pytest.mark.parametrize("c", [1e-160, 1e-200])
def test_decompose_underflowing_input_exits_1(tmp_path, capsys, c):
    # the RPCA baseline refuses the same file with exit 2, as a usage error
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=2, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    src = tmp_path / "x.kdt"
    write_tensor(src, x * c)
    rc = run("decompose", "--input", src, "--r", 3, "--out-dir", tmp_path / "o")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failed: iteration 1: the squared slice norms of the input underflow")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "scale, flags, message",
    [
        (1e200, ["--max-iter", 50], "the Frobenius norm of the input overflows float64; rescale"),
        (1e-200, [], "the Frobenius norm of the input underflows float64; rescale"),
        (1.0, ["--max-iter", 0], "max_iter must be positive, got 0"),
        (1.0, ["--epsilon", 0], "epsilon must be positive, got 0.0"),
        (1.0, ["--epsilon", "nan"], "epsilon must be positive, got nan"),
        (1.0, ["--lambda", -1], "lam must be positive, got -1.0"),
        (1.0, ["--lambda", "nan"], "lam must be positive, got nan"),
    ],
    ids=["overflow", "underflow", "max-iter-0", "epsilon-0", "epsilon-nan", "lam-neg", "lam-nan"],
)
def test_rpca_usage_errors(tmp_path, capsys, scale, flags, message):
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=2, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    src = tmp_path / "x.kdt"
    write_tensor(src, x * scale)
    rc = run("rpca", "--input", src, *flags, "--out-dir", tmp_path / "o")
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, name", [("--lambda", "lam"), ("--alpha", "alpha"), ("--epsilon", "epsilon")])
def test_decompose_rejects_a_nan_parameter(tmp_path, capsys, flag, name):
    x, _ = generate(SyntheticSpec(m=12, n=10, num_slices=2, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    src = tmp_path / "x.kdt"
    write_tensor(src, x)
    rc = run("decompose", "--input", src, flag, "nan", "--out-dir", tmp_path / "o")
    assert rc == 2
    assert f"error: {name} must be positive, got nan\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from kdrsdl import SyntheticSpec, generate, write_tensor
from kdrsdl.cli import main

out = sys.argv[1]
rc = main(["synth", "--m", "14", "--n", "12", "--num-slices", "3", "--rank-a", "2",
           "--rank-b", "2", "--r", "3", "--out-dir", out + "/synth"])
assert rc == 0, rc
x, _ = generate(SyntheticSpec(m=14, n=12, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=1))
write_tensor(out + "/x.kdt", x)
rc = main(["decompose", "--input", out + "/x.kdt", "--r", "3", "--out-dir", out + "/run"])
assert rc == 0, rc
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "scipy" and module is not None]
assert not loaded, loaded
"""


def test_cli_runs_without_scipy(tmp_path):
    src = str(Path(kdrsdl.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_rpca_command(tmp_path):
    rng = np.random.default_rng(0)
    x = np.empty((20, 15, 3))
    for i in range(3):
        low = np.outer(rng.standard_normal(20), rng.standard_normal(15))
        spikes = (rng.random((20, 15)) < 0.05) * 4.0
        x[:, :, i] = low + spikes
    src = tmp_path / "x.kdt"
    write_tensor(src, x)
    out = tmp_path / "run"
    rc = run("rpca", "--input", src, "--out-dir", out)
    assert rc == 0
    low_rank = read_tensor(out / "low_rank.kdt")
    sparse = read_tensor(out / "sparse.kdt")
    np.testing.assert_allclose(low_rank + sparse, x, atol=1e-5)
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["converged"] == 1.0
    assert 0.0 < metrics["outlier_density"] < 0.5
    manifest = read_manifest(out / "manifest.json")
    assert manifest["command"] == "rpca"
    assert manifest["lam"] == 1.0 / np.sqrt(20)
    # the baseline's own default: the squared form of its former 1e-7
    assert manifest["epsilon"] == 1e-14


def test_eval_golden_output(tmp_path):
    ref, est = tmp_path / "ref.kdt", tmp_path / "est.kdt"
    x = np.ones((2, 2, 1))
    write_tensor(ref, x)
    write_tensor(est, 0.5 * x)
    out = tmp_path / "run"
    rc = run("eval", "--estimate", est, "--reference", ref, "--out-dir", out)
    assert rc == 0
    assert (out / "metrics.csv").read_bytes() == b"metric,value\nrelative_error,0.5\n"


def test_eval_with_peak_reports_psnr(tmp_path):
    ref, est = tmp_path / "ref.kdt", tmp_path / "est.kdt"
    write_tensor(ref, np.zeros((3, 3, 1)) + 0.5)
    write_tensor(est, np.full((3, 3, 1), 0.25))
    out = tmp_path / "run"
    rc = run("eval", "--estimate", est, "--reference", ref, "--peak", 1.0, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert abs(metrics["psnr"] - 10 * np.log10(1.0 / 0.25 ** 2)) <= 1e-10


@pytest.mark.parametrize("peak", ["nan", "inf"])
def test_eval_rejects_bad_peak_before_writing(tmp_path, capsys, peak):
    x = tmp_path / "x.kdt"
    write_tensor(x, np.ones((2, 2, 1)))
    out = tmp_path / "run"
    rc = run("eval", "--estimate", x, "--reference", x, "--peak", peak, "--out-dir", out)
    assert rc == 2
    assert "peak must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_eval_shape_mismatch(tmp_path, capsys):
    ref, est = tmp_path / "ref.kdt", tmp_path / "est.kdt"
    write_tensor(ref, np.ones((2, 2, 1)))
    write_tensor(est, np.ones((2, 2, 2)))
    rc = run("eval", "--estimate", est, "--reference", ref, "--out-dir", tmp_path / "o")
    assert rc == 2
    assert "mismatch" in capsys.readouterr().err


def test_bgsub_moving_square(tmp_path, capsys):
    frames, masks = tmp_path / "frames", tmp_path / "masks"
    frames.mkdir(), masks.mkdir()
    write_video_fixture(frames, masks)
    out = tmp_path / "run"
    rc = run("bgsub", "--frames", frames / "*.pgm", "--mask-frames", masks / "*.pgm",
             "--r", 1, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["auc_pooled"] >= 0.99
    assert metrics["auc_per_frame"] >= 0.99
    assert metrics["frames"] == 8.0
    assert metrics["scored_frames"] == 8.0
    assert len(list(out.glob("foreground_*.pgm"))) == 8
    stdout = capsys.readouterr().out
    assert "auc (pooled):" in stdout
    assert "auc (per-frame):" in stdout


def test_bgsub_mask_count_mismatch(tmp_path, capsys):
    frames, masks = tmp_path / "frames", tmp_path / "masks"
    frames.mkdir(), masks.mkdir()
    write_video_fixture(frames, masks)
    (sorted(masks.glob("*.pgm"))[0]).unlink()
    rc = run("bgsub", "--frames", frames / "*.pgm", "--mask-frames", masks / "*.pgm",
             "--out-dir", tmp_path / "o")
    assert rc == 2
    assert "mask" in capsys.readouterr().err


def zero_masks(masks):
    # one class in every frame, so in the whole stack too
    for path in masks.glob("*.pgm"):
        write_image(path, np.zeros((24, 32)))


def reshape_masks(masks):
    for path in masks.glob("*.pgm"):
        write_image(path, np.zeros((24, 30)))


def split_classes_by_frame(masks):
    # both classes in the stack, but never in one frame
    for i, path in enumerate(sorted(masks.glob("*.pgm"))):
        write_image(path, np.full((24, 32), float(i % 2)))


@pytest.mark.parametrize(
    "edit, frames_glob, message",
    [
        (None, "absent_*.pgm", "no frames match"),
        (reshape_masks, "*.pgm", "mask stack is"),
        (split_classes_by_frame, "*.pgm", "no frame has both"),
        (zero_masks, "*.pgm", "no frame has both"),
    ],
)
def test_bgsub_usage_errors(tmp_path, capsys, monkeypatch, edit, frames_glob, message):
    frames, masks = tmp_path / "frames", tmp_path / "masks"
    frames.mkdir(), masks.mkdir()
    write_video_fixture(frames, masks)
    if edit is not None:
        edit(masks)

    def no_solve(*args):
        raise AssertionError("a usage error must be raised before the solve")

    monkeypatch.setattr(cli, "solve", no_solve)
    rc = run("bgsub", "--frames", frames / frames_glob, "--mask-frames", masks / "*.pgm",
             "--r", 1, "--out-dir", tmp_path / "o")
    assert rc == 2
    assert message in capsys.readouterr().err


def test_bgsub_skips_single_class_frames_in_the_per_frame_auc(tmp_path):
    frames, masks = tmp_path / "frames", tmp_path / "masks"
    frames.mkdir(), masks.mkdir()
    write_video_fixture(frames, masks)
    write_image(sorted(masks.glob("*.pgm"))[3], np.zeros((24, 32)))
    out = tmp_path / "run"
    rc = run("bgsub", "--frames", frames / "*.pgm", "--mask-frames", masks / "*.pgm",
             "--r", 1, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["frames"] == 8.0
    assert metrics["scored_frames"] == 7.0


def test_bgsub_holds_no_mask_stack_through_the_solve(tmp_path):
    # the labels are one boolean stack: a float64 mask stack, or an integer
    # copy of it, kept alive through the solve adds a frame stack's bytes each;
    # the call reads 3.53x the frame stack's bytes, 4.36x with E and Lambda
    # held apart from v and the frame stack kept through the scoring, and
    # 5.20x with a further data-sized solver buffer and np.isin's check of
    # the bool labels
    frames, masks = tmp_path / "frames", tmp_path / "masks"
    frames.mkdir(), masks.mkdir()
    h, w, num = 48, 64, 60
    write_video_fixture(frames, masks, h, w, num)
    argv = ["bgsub", "--frames", frames / "*.pgm", "--mask-frames", masks / "*.pgm", "--r", 1]
    assert run(*argv, "--out-dir", tmp_path / "warm") == 0
    tracemalloc.start()
    try:
        rc = run(*argv, "--out-dir", tmp_path / "run")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 3.8 * (h * w * num * 8)


def assert_mean_psnrs(metrics, count):
    """The mean PSNRs of a denoise run are the means of its per-image values."""
    for suffix in ("_psnr_input", "_psnr"):
        per_image = [metrics[f"image_{i:03d}{suffix}"] for i in range(count)]
        assert f"image_{count:03d}{suffix}" not in metrics
        assert metrics[f"mean{suffix}"] == np.mean(per_image)


def test_denoise_clean_images_pass_through(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    write_banded_images(images)
    out = tmp_path / "run"
    rc = run("denoise", "--images", images / "*.pgm", "--noise-level", 0.0,
             "--r", 3, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["mean_psnr"] >= 60.0
    assert metrics["mean_psnr_input"] == float("inf")
    assert_mean_psnrs(metrics, 6)
    for i, path in enumerate(sorted(images.glob("*.pgm"))):
        assert (out / f"corrupted_{i:03d}.pgm").read_bytes() == path.read_bytes()


def test_denoise_restores_impulse_noise(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    write_banded_images(images)
    out = tmp_path / "run"
    rc = run("denoise", "--images", images / "*.pgm", "--noise-level", 0.3,
             "--r", 3, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["mean_psnr"] - metrics["mean_psnr_input"] >= 15.0
    for i in range(6):
        assert (out / f"corrupted_{i:03d}.pgm").is_file()
        assert (out / f"recovered_{i:03d}.pgm").is_file()
        assert f"image_{i:03d}_psnr" in metrics
    manifest = read_manifest(out / "manifest.json")
    assert manifest["config.alpha"] == 1e-3
    assert manifest["seed"] == 0
    assert manifest["method"] == "kdrsdl"


def test_denoise_color_images(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    rng = np.random.default_rng(3)
    rows = np.repeat([0, 1, 2], [4, 4, 4])
    cols = np.repeat([0, 1, 2], [4, 3, 3])
    for i in range(2):
        image = np.empty((12, 10, 3))
        for c in range(3):
            blocks = rng.integers(0, 256, size=(3, 3)) / 255.0
            image[:, :, c] = blocks[rows][:, cols]
        write_image(images / f"img_{i}.ppm", image)
    out = tmp_path / "run"
    rc = run("denoise", "--images", images / "*.ppm", "--noise-level", 0.2,
             "--r", 3, "--out-dir", out)
    assert rc == 0
    metrics = read_metrics(out / "metrics.csv")
    assert metrics["mean_psnr"] > metrics["mean_psnr_input"]
    assert_mean_psnrs(metrics, 2)
    assert sorted(p.name for p in out.iterdir()) == [
        "corrupted_000.ppm", "corrupted_001.ppm", "manifest.json", "metrics.csv",
        "recovered_000.ppm", "recovered_001.ppm",
    ]


def test_denoise_rpca_method(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    write_banded_images(images, count=3)
    out = tmp_path / "run"
    rc = run("denoise", "--images", images / "*.pgm", "--noise-level", 0.1,
             "--method", "rpca", "--out-dir", out)
    assert rc == 0
    assert read_manifest(out / "manifest.json")["method"] == "rpca"


def test_denoise_rejects_unknown_method(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run("denoise", "--images", tmp_path / "*.pgm", "--noise-level", 0.1,
            "--method", "wavelet", "--out-dir", tmp_path / "o")
    assert info.value.code == 2
    capsys.readouterr()


def test_denoise_rejects_bad_level(tmp_path, capsys):
    images = tmp_path / "images"
    images.mkdir()
    write_banded_images(images, count=2)
    rc = run("denoise", "--images", images / "*.pgm", "--noise-level", 1.0,
             "--out-dir", tmp_path / "o")
    assert rc == 2
    assert "noise level" in capsys.readouterr().err


def test_denoise_rejects_mixed_image_types(tmp_path, capsys):
    images = tmp_path / "images"
    images.mkdir()
    write_image(images / "a.pgm", np.zeros((4, 4)))
    write_image(images / "b.ppm", np.zeros((4, 4, 3)))
    rc = run("denoise", "--images", images / "*.p?m", "--noise-level", 0.1,
             "--out-dir", tmp_path / "o")
    assert rc == 2
    assert "mix" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pattern, message",
    [("absent_*.pgm", "no images match"), ("*.pgm", "grayscale images must share dimensions")],
)
def test_denoise_usage_errors(tmp_path, capsys, pattern, message):
    images = tmp_path / "images"
    images.mkdir()
    write_image(images / "a.pgm", np.zeros((4, 4)))
    write_image(images / "b.pgm", np.zeros((4, 5)))
    rc = run("denoise", "--images", images / pattern, "--noise-level", 0.1,
             "--out-dir", tmp_path / "o")
    assert rc == 2
    assert message in capsys.readouterr().err


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def manifest_run_argv(command, tmp_path):
    """Arguments of a small run of each command, its inputs written under tmp_path."""
    x, _ = generate(SyntheticSpec(m=14, n=12, num_slices=3, rank_a=2, rank_b=2, r=3, p=0.7, seed=0))
    write_tensor(tmp_path / "x.kdt", x)
    if command == "synth":
        return ["synth", "--m", "14", "--n", "12", "--num-slices", "3", "--rank-a", "2",
                "--rank-b", "2", "--r", "3", "--seed", "2"]
    if command == "decompose":
        return ["decompose", "--input", str(tmp_path / "x.kdt"), "--r", "3",
                "--epsilon", "1e-9", "--max-iter", "200"]
    if command == "rpca":
        return ["rpca", "--input", str(tmp_path / "x.kdt"), "--max-iter", "200"]
    if command == "bgsub":
        frames, masks = tmp_path / "frames", tmp_path / "masks"
        frames.mkdir(), masks.mkdir()
        write_video_fixture(frames, masks)
        return ["bgsub", "--frames", str(frames / "*.pgm"),
                "--mask-frames", str(masks / "*.pgm"), "--r", "1"]
    if command.startswith("denoise"):
        images = tmp_path / "images"
        images.mkdir()
        if command == "denoise-color":
            # two sizes, so r and lam resolve differently for each stack
            rng = np.random.default_rng(0)
            for i, shape in enumerate([(12, 10, 3), (9, 14, 3)]):
                write_image(images / f"img_{i}.ppm", rng.random(shape))
            return ["denoise", "--images", str(images / "*.ppm"), "--noise-level", "0.2"]
        write_banded_images(images, count=3)
        argv = ["denoise", "--images", str(images / "*.pgm"), "--noise-level", "0.3"]
        return argv + (["--method", "rpca"] if command == "denoise-rpca" else ["--r", "3"])
    return ["eval", "--estimate", str(tmp_path / "x.kdt"),
            "--reference", str(tmp_path / "x.kdt"), "--peak", "1.0"]


@pytest.mark.parametrize(
    "command",
    ["synth", "decompose", "rpca", "bgsub", "denoise", "denoise-rpca", "denoise-color", "eval"],
)
def test_manifest_records_every_flag_once(command, tmp_path):
    argv = manifest_run_argv(command, tmp_path) + ["--out-dir", str(tmp_path / "run")]
    assert run(*argv) == 0
    manifest = read_manifest(tmp_path / "run" / "manifest.json")
    flags = vars(build_parser().parse_args(argv))
    del flags["out_dir"], flags["func"]
    config_fields = {f.name for f in fields(SolverConfig)}
    solved = command in ("synth", "decompose", "bgsub", "denoise", "denoise-color")
    assert manifest["command"] == argv[0]
    assert "out_dir" not in manifest

    def images(pattern):
        return ";".join(sorted(map(str, (tmp_path / "images").glob(pattern))))

    # the values the command resolves from its flags and solves with; a
    # value that differs between stacks is each stack's value joined by ";"
    resolved = {
        "synth": {"prng": "pcg64"},
        "rpca": {"lam": 1.0 / np.sqrt(14)},
        "bgsub": {
            "frames": ";".join(sorted(map(str, (tmp_path / "frames").glob("*.pgm")))),
            "mask_frames": ";".join(sorted(map(str, (tmp_path / "masks").glob("*.pgm")))),
        },
        "denoise": {"images": images("*.pgm"), "config.alpha": 1e-3, "config.r": 3,
                    "config.lam": 1.0 / np.sqrt(20)},
        "denoise-rpca": {"images": images("*.pgm"), "lam": 1.0 / np.sqrt(20)},
        "denoise-color": {
            "images": images("*.ppm"),
            "config.alpha": 1e-3,
            "config.r": "10;9",
            "config.lam": f"{1.0 / np.sqrt(12)};{1.0 / np.sqrt(14)}",
        },
    }.get(command, {})
    for name, value in resolved.items():
        assert manifest[name] == value, name
    for dest, value in flags.items():
        if solved and dest in config_fields:
            assert dest not in manifest, dest
            if value is not None:
                assert manifest[f"config.{dest}"] == value, dest
        else:
            assert f"config.{dest}" not in manifest, dest
            assert manifest[dest] == resolved.get(dest, value), dest
    recorded = {k[len("config."):] for k in manifest if k.startswith("config.")}
    assert recorded == (config_fields if solved else set())
    # and nothing else: no parameter the run did not use
    bundle = {"converged", "iterations"} if command in ("synth", "decompose") else set()
    config_keys = {f"config.{name}" for name in config_fields}
    assert set(manifest) <= set(flags) | set(resolved) | config_keys | bundle
