"""Tensor files, image files, traces, metrics, and result bundles."""

import re

import numpy as np
import pytest

from kdrsdl import (
    SolverConfig,
    SyntheticSpec,
    generate,
    load_bundle,
    read_image,
    read_image_stack,
    read_tensor,
    save_bundle,
    solve,
    write_image,
    write_tensor,
)
from kdrsdl.io import (
    KDT_HEADER,
    BadMagicError,
    NonFiniteValueError,
    StorageError,
    TruncatedFileError,
    read_manifest,
    read_metrics,
    read_trace,
    write_metrics,
    write_trace,
)


def test_tensor_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 2))
    path = tmp_path / "t.kdt"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.shape == (3, 4, 2)
    assert back.tobytes() == t.tobytes()


def test_tensor_file_length(tmp_path):
    t = np.zeros((3, 4, 2))
    path = tmp_path / "t.kdt"
    write_tensor(path, t)
    assert path.stat().st_size == 16 + 8 * 3 * 4 * 2


def test_tensor_fortran_payload_order(tmp_path):
    # ramp laid out in column-major order: the payload is 0, 1, 2, ... directly
    t = np.arange(12, dtype=float).reshape((2, 3, 2), order="F")
    path = tmp_path / "t.kdt"
    write_tensor(path, t)
    payload = np.frombuffer(path.read_bytes()[16:], dtype="<f8")
    np.testing.assert_array_equal(payload, np.arange(12.0))


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "t.kdt"
    write_tensor(path, np.zeros((2, 2, 2)))
    data = bytearray(path.read_bytes())
    data[:4] = b"KDT2"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError):
        read_tensor(path)


def test_tensor_truncated_payload(tmp_path):
    path = tmp_path / "t.kdt"
    write_tensor(path, np.ones((2, 2, 2)))
    data = path.read_bytes()
    path.write_bytes(data[: 16 + 7 * 8])
    with pytest.raises(TruncatedFileError):
        read_tensor(path)


def test_tensor_truncated_header(tmp_path):
    path = tmp_path / "t.kdt"
    path.write_bytes(b"KDT1\x02\x00")
    with pytest.raises(TruncatedFileError):
        read_tensor(path)


def test_tensor_rejects_empty_header(tmp_path):
    path = tmp_path / "t.kdt"
    path.write_bytes(KDT_HEADER.pack(b"KDT1", 0, 3, 2))
    with pytest.raises(StorageError, match="empty tensor") as info:
        read_tensor(path)
    assert type(info.value) is StorageError


def test_tensor_rejects_empty_on_write_before_creating_the_file(tmp_path):
    path = tmp_path / "t.kdt"
    with pytest.raises(StorageError, match="t.kdt: .*empty") as info:
        write_tensor(path, np.zeros((0, 3, 2)))
    assert type(info.value) is StorageError
    assert not path.exists()


def test_tensor_rejects_non_finite_on_write(tmp_path):
    t = np.ones((2, 2, 2))
    t[0, 0, 0] = np.inf
    with pytest.raises(NonFiniteValueError):
        write_tensor(tmp_path / "t.kdt", t)


def test_tensor_rejects_non_finite_on_read(tmp_path):
    path = tmp_path / "t.kdt"
    write_tensor(path, np.ones((2, 2, 1)))
    data = bytearray(path.read_bytes())
    data[16:24] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(NonFiniteValueError):
        read_tensor(path)


def test_tensor_rejects_wrong_rank():
    with pytest.raises(ValueError):
        write_tensor("unused.kdt", np.zeros((2, 2)))


def test_pgm_roundtrip_endpoints(tmp_path):
    image = np.array([[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "i.pgm"
    write_image(path, image)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert raw[-4:] == bytes([0, 255, 255, 0])
    np.testing.assert_array_equal(read_image(path), image)


def test_pgm_all_levels_lossless(tmp_path):
    image = np.arange(256).reshape(16, 16) / 255.0
    path = tmp_path / "i.pgm"
    write_image(path, image)
    np.testing.assert_array_equal(read_image(path), image)


def test_pgm_write_read_write_canonical(tmp_path):
    rng = np.random.default_rng(1)
    image = rng.integers(0, 256, size=(7, 5)) / 255.0
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    write_image(first, image)
    write_image(second, read_image(first))
    assert first.read_bytes() == second.read_bytes()


def test_ppm_channels_become_slices(tmp_path):
    path = tmp_path / "i.ppm"
    image = np.zeros((2, 3, 3))
    image[:, :, 0] = 1.0  # pure red
    write_image(path, image)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    back = read_image(path)
    assert back.shape == (2, 3, 3)
    np.testing.assert_array_equal(back[:, :, 0], np.ones((2, 3)))
    np.testing.assert_array_equal(back[:, :, 1:], np.zeros((2, 3, 2)))


def test_image_header_tolerates_comments(tmp_path):
    path = tmp_path / "i.pgm"
    body = bytes(range(12))
    # a comment may also follow a token directly, and end the header
    for header in (b"P5\n# a comment\n4   3 # trailing\n255\n", b"P5 4 3#c\n255#\n"):
        path.write_bytes(header + body)
        image = read_image(path)
        assert image.shape == (3, 4)
        np.testing.assert_array_equal(image, np.arange(12).reshape(3, 4) / 255.0)


def test_image_rejects_other_maxval(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(StorageError):
        read_image(path)


def test_image_rejects_unknown_magic(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_bytes(b"P3\n2 2\n255\n0 0 0 0")
    with pytest.raises(BadMagicError):
        read_image(path)


@pytest.mark.parametrize(
    "data, error",
    [
        (b"P", BadMagicError),
        (b"P5", TruncatedFileError),
        (b"P5\n4 3", TruncatedFileError),
        (b"P5\n4 3\n# comment to the end", TruncatedFileError),
        (b"P5\n4 x3\n255\n" + bytes(12), StorageError),
        (b"P5\n-4 3\n255\n" + bytes(12), StorageError),
        (b"P5\n0 3\n255\n", StorageError),
        (b"P5\n4 0\n255\n", StorageError),
    ],
)
def test_image_rejects_malformed_header(tmp_path, data, error):
    path = tmp_path / "i.pgm"
    path.write_bytes(data)
    with pytest.raises(StorageError) as info:
        read_image(path)
    assert type(info.value) is error


def test_image_truncated_pixels(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(TruncatedFileError):
        read_image(path)


def test_write_image_clamps_and_rounds(tmp_path):
    path = tmp_path / "i.pgm"
    write_image(path, np.array([[-0.5, 0.5001, 2.0]]))
    assert path.read_bytes()[-3:] == bytes([0, 128, 255])


@pytest.mark.parametrize(
    "image, error",
    [
        (np.array([[0.5, np.nan]]), NonFiniteValueError),
        (np.zeros((2, 3, 2)), ValueError),
        (np.zeros(4), ValueError),
    ],
)
def test_write_image_rejects_bad_pixels(tmp_path, image, error):
    path = tmp_path / "i.pgm"
    with pytest.raises(ValueError) as info:
        write_image(path, image)
    assert type(info.value) is error
    assert not path.exists()


def test_write_image_rejects_an_empty_image_before_creating_the_file(tmp_path):
    path = tmp_path / "i.pgm"
    with pytest.raises(StorageError, match="i.pgm: .*empty") as info:
        write_image(path, np.zeros((0, 5)))
    assert type(info.value) is StorageError
    assert not path.exists()


def test_image_stack_shapes_must_match(tmp_path):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_image(a, np.zeros((4, 4)))
    write_image(b, np.zeros((4, 5)))
    with pytest.raises(StorageError):
        read_image_stack([a, b])


def test_image_stack_rejects_no_paths_and_color_frames(tmp_path):
    with pytest.raises(ValueError, match="no image paths"):
        read_image_stack([])
    gray, color = tmp_path / "a.pgm", tmp_path / "b.ppm"
    write_image(gray, np.zeros((4, 4)))
    write_image(color, np.zeros((4, 4, 3)))
    with pytest.raises(StorageError, match="grayscale"):
        read_image_stack([gray, color])


def test_image_stack_builds_slices(tmp_path):
    paths = []
    for i in range(3):
        path = tmp_path / f"f{i}.pgm"
        write_image(path, np.full((4, 5), i * 100 / 255.0))
        paths.append(path)
    stack = read_image_stack(paths)
    assert stack.shape == (4, 5, 3)
    for i in range(3):
        np.testing.assert_array_equal(stack[:, :, i], np.full((4, 5), i * 100 / 255.0))


def test_image_stack_thresholds_to_booleans_as_the_float_stack_compares(tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for i in range(3):
        paths.append(tmp_path / f"m{i}.pgm")
        write_image(paths[-1], rng.random((6, 7)))
    mask = read_image_stack(paths, threshold=0.5)
    assert mask.dtype == bool and mask.flags.f_contiguous
    np.testing.assert_array_equal(mask, read_image_stack(paths) > 0.5)


# numpy scalars, signed zero, the smallest subnormal and the largest finite
# double: each must reparse to its exact bits
EDGE_VALUES = {
    "f32": np.float32(0.1),
    "i64": np.int64(-7),
    "flag": np.bool_(True),
    "neg_zero": -0.0,
    "subnormal": 5e-324,
    "largest": 1.7976931348623157e308,
}


def bits(value):
    return np.float64(value).tobytes()


def test_trace_roundtrip(tmp_path):
    edges = list(EDGE_VALUES.values())
    rows = [[0.5, 0.25, 1.0, 2.0], [0.1, 0.01, 1.2, 2.4], edges[:4], edges[2:]]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,err_rec,err_split,mu,mu_K"
    assert lines[1].startswith("1,")
    assert lines[3] == "3,0.10000000149011612,-7.0,1.0,-0.0"
    back = read_trace(path)
    assert back.tobytes() == np.array(rows, dtype=np.float64).tobytes()


def test_metrics_roundtrip_and_order(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics(path, {"zeta": 1.25, "alpha": 0.1, "count": 7})
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["alpha", "count", "zeta"]
    back = read_metrics(path)
    assert back == {"zeta": 1.25, "alpha": 0.1, "count": 7.0}


def test_metrics_floats_reparse_exactly(tmp_path):
    path = tmp_path / "metrics.csv"
    values = {"a": 1 / 3, "b": 1e-300, "c": 123456789.123456, **EDGE_VALUES}
    write_metrics(path, values)
    lines = path.read_text().splitlines()
    assert "flag,1" in lines and "i64,-7" in lines and "f32,0.10000000149011612" in lines
    back = read_metrics(path)
    for name, value in values.items():
        assert bits(back[name]) == bits(value)


@pytest.mark.parametrize("name", ["a,b", "a\nb", "auc\n", "a\rb", "a\x0cb"])
def test_metrics_refuse_a_name_they_could_not_read_back(tmp_path, name):
    path = tmp_path / "metrics.csv"
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        write_metrics(path, {"auc": 0.5, name: 1.0})
    assert not path.exists()


@pytest.mark.parametrize(
    "text, row",
    [
        ("bogus,0.5,0.25,1.0,2.0\n", "bogus"),
        ("2,0.5,0.25,1.0,2.0\n1,0.1,0.01,1.2,2.4\n", "iter 2 where 1"),
        ("2,0.1,0.01,1.2,2.4\n3,0.05,0.0,1.44,2.88\n", "iter 2 where 1"),
        ("1,0.5,0.25,1.0,2.0\n3,0.05,0.0,1.44,2.88\n", "iter 3 where 2"),
        ("1.0,0.5,0.25,1.0,2.0\n", "1.0,0.5"),
    ],
    ids=["bogus", "reordered", "truncated", "gap", "float"],
)
def test_trace_refuses_an_iter_column_that_does_not_count_from_1(tmp_path, text, row):
    path = tmp_path / "trace.csv"
    path.write_text("iter,err_rec,err_split,mu,mu_K\n" + text)
    with pytest.raises(StorageError, match=re.escape(row)):
        read_trace(path)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_trace, ""),
        (read_trace, "iter,err_rec,err_split,mu\n"),
        (read_trace, "iter,err_rec,err_split,mu,mu_K\n1,0.5,0.25,1.0\n"),
        (read_metrics, ""),
        (read_metrics, "name,value\n"),
        (read_metrics, "metric,value\nauc\n"),
        (read_metrics, "metric,value\nauc,0.5,1\n"),
        (read_trace, "iter,err_rec,err_split,mu,mu_K\n1,a,b,c,d\n"),
    ],
)
def test_tables_reject_bad_header_or_row(tmp_path, reader, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(StorageError, match="table.csv") as info:
        reader(path)
    assert type(info.value) is StorageError


@pytest.fixture(scope="module")
def small_result():
    spec = SyntheticSpec(m=12, n=10, num_slices=3, rank_a=2, rank_b=2, r=4, p=0.7, seed=0)
    x, _ = generate(spec)
    cfg = SolverConfig(r=4)
    return solve(x, cfg), cfg.resolved(12, 10)


def test_bundle_roundtrip_bit_identical(tmp_path, small_result):
    fac, cfg = small_result
    out = tmp_path / "run"
    save_bundle(out, fac, cfg)
    loaded, manifest = load_bundle(out)
    assert loaded.a.tobytes() == fac.a.tobytes()
    assert loaded.b.tobytes() == fac.b.tobytes()
    assert loaded.core.tobytes() == fac.core.tobytes()
    assert loaded.outliers.tobytes() == fac.outliers.tobytes()
    assert loaded.low_rank().tobytes() == fac.low_rank().tobytes()
    assert loaded.trace.tobytes() == fac.trace.tobytes()
    assert loaded.converged == fac.converged
    assert loaded.iterations == fac.iterations
    assert manifest["converged"] is True


def test_bundle_saves_byte_identical(tmp_path, small_result):
    fac, cfg = small_result
    first, second = tmp_path / "one", tmp_path / "two"
    save_bundle(first, fac, cfg)
    save_bundle(second, fac, cfg)
    for name in ("A.kdt", "B.kdt", "R.kdt", "E.kdt", "trace.csv", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_bundle_missing_file(tmp_path, small_result):
    fac, cfg = small_result
    out = tmp_path / "run"
    save_bundle(out, fac, cfg)
    (out / "R.kdt").unlink()
    with pytest.raises(StorageError):
        load_bundle(out)


@pytest.mark.parametrize(
    "name, tensor, got, expected",
    [
        # a depth-2 A once loaded as its first slice
        ("A.kdt", lambda fac: np.stack([fac.a, fac.a], axis=2), (12, 4, 2), (12, 4, 1)),
        # an A narrower than the core once failed only in low_rank()
        ("A.kdt", lambda fac: fac.a[:, :3, np.newaxis], (12, 3, 1), (12, 4, 1)),
        ("B.kdt", lambda fac: np.stack([fac.b, fac.b], axis=2), (10, 4, 2), (10, 4, 1)),
        ("R.kdt", lambda fac: fac.core[:, :, :2], (4, 4, 2), (4, 4, 3)),
        ("E.kdt", lambda fac: fac.outliers[:11], (11, 10, 3), (12, 10, 3)),
    ],
)
def test_bundle_refuses_files_that_disagree(tmp_path, small_result, name, tensor, got, expected):
    fac, cfg = small_result
    out = tmp_path / "run"
    save_bundle(out, fac, cfg)
    write_tensor(out / name, tensor(fac))
    with pytest.raises(StorageError, match=re.escape(f"{out / name}: shape {got} ")) as info:
        load_bundle(out)
    assert str(expected) in str(info.value)


def test_bundle_refuses_a_trace_shorter_than_its_iterations(tmp_path, small_result):
    fac, cfg = small_result
    out = tmp_path / "run"
    save_bundle(out, fac, cfg)
    rows = fac.iterations
    write_trace(out / "trace.csv", fac.trace[:-1])
    with pytest.raises(StorageError, match=re.escape(f"trace.csv: shape ({rows - 1}, 4) ")) as info:
        load_bundle(out)
    assert f"({rows}, 4)" in str(info.value)


def test_bundle_config_roundtrip(tmp_path, small_result):
    fac, cfg = small_result
    out = tmp_path / "run"
    save_bundle(out, fac, cfg, extra={"command": "synth", **EDGE_VALUES})
    manifest = read_manifest(out / "manifest.json")
    assert manifest["command"] == "synth"
    # JSON's own scalars, numpy scalars unwrapped to the values they hold
    assert [type(manifest[name]) for name in EDGE_VALUES] == [float, int, bool, float, float, float]
    for name, value in EDGE_VALUES.items():
        assert bits(manifest[name]) == bits(value)
    prefix = "config."
    fields = {k[len(prefix):]: v for k, v in manifest.items() if k.startswith(prefix)}
    assert SolverConfig(**fields) == cfg


def test_manifest_keys_sorted(tmp_path, small_result):
    fac, cfg = small_result
    out = tmp_path / "run"
    save_bundle(out, fac, cfg)
    text = (out / "manifest.json").read_text()
    keys = [ln.split('"')[1] for ln in text.splitlines() if ln.startswith('  "')]
    assert keys == sorted(keys)
    assert text.endswith("\n")
