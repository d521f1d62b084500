"""File formats: KDT tensor container, PGM/PPM images, CSV tables, bundles.

All formats are bit-exact: writing and re-reading any artifact reproduces
the in-memory values down to the last bit. Floats in text files are
emitted as shortest-roundtrip decimals so a reparse is lossless.

The KDT container is a 16-byte header (magic ``KDT1``, then m, n, N as
unsigned 32-bit little-endian) followed by m*n*N IEEE-754 64-bit
little-endian values in canonical tensor order (row fastest, then
column, then slice).
"""

import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .solver import Factorization

KDT_MAGIC = b"KDT1"
KDT_HEADER = struct.Struct("<4s3I")

BUNDLE_FILES = ("A.kdt", "B.kdt", "R.kdt", "E.kdt", "trace.csv", "manifest.json")

TRACE_COLUMNS = ("iter", "err_rec", "err_split", "mu", "mu_K")


class StorageError(ValueError):
    """A file does not conform to the format it claims."""


class BadMagicError(StorageError):
    """The file does not start with the expected magic bytes."""


class TruncatedFileError(StorageError):
    """The file ends before the payload its header promises."""


class NonFiniteValueError(StorageError):
    """A tensor payload contains NaN or infinity."""


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _format_value(value):
    # repr of a Python float is the shortest decimal that parses back to
    # the same bits; numpy scalars must be unwrapped first since numpy 2
    # reprs them as e.g. "np.float64(0.5)".
    value = _jsonable(value)
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def write_tensor(path, t):
    """Write a 3-way tensor to ``path`` in the KDT container format.

    A float64 tensor in the canonical layout is written straight from
    its buffer; any other input is converted once.
    """
    t = np.asarray(t, dtype="<f8", order="F")
    if t.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got ndim={t.ndim}")
    if not np.isfinite(t).all():
        raise NonFiniteValueError(f"{path}: refusing to write non-finite values")
    m, n, num = t.shape
    with open(path, "wb") as fh:
        fh.write(KDT_HEADER.pack(KDT_MAGIC, m, n, num))
        # t.T is C-contiguous and holds the payload in file order
        fh.write(memoryview(t.T).cast("B"))


def read_tensor(path):
    """Read a KDT file back into an (m, n, N) float64 tensor.

    The payload is read straight into a tensor in the canonical layout,
    without an intermediate copy. Raises BadMagicError,
    TruncatedFileError, or NonFiniteValueError for the corresponding
    kinds of malformed input.
    """
    with open(path, "rb") as fh:
        header = fh.read(KDT_HEADER.size)
        if len(header) < KDT_HEADER.size:
            raise TruncatedFileError(f"{path}: incomplete header")
        magic, m, n, num = KDT_HEADER.unpack(header)
        if magic != KDT_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        count = m * n * num
        if count == 0:
            raise StorageError(f"{path}: header declares an empty tensor")
        size = os.fstat(fh.fileno()).st_size - KDT_HEADER.size
        if size != 8 * count:
            raise TruncatedFileError(
                f"{path}: payload holds {size} bytes, header promises {8 * count}"
            )
        t = np.empty((m, n, num), dtype="<f8", order="F")
        if fh.readinto(memoryview(t.T).cast("B")) != 8 * count:
            raise TruncatedFileError(f"{path}: payload ended early")
    t = t.astype(np.float64, copy=False)
    if not np.isfinite(t).all():
        raise NonFiniteValueError(f"{path}: payload contains non-finite values")
    return t


def _read_pnm_header(fh, path):
    # Netpbm headers are magic, width, height, maxval as ASCII tokens
    # separated by whitespace; '#' starts a comment running to end of line.
    magic = fh.read(2)
    if magic not in (b"P5", b"P6"):
        raise BadMagicError(f"{path}: unsupported image magic {magic!r}")
    tokens = []
    while len(tokens) < 3:
        ch = fh.read(1)
        if ch == b"":
            raise TruncatedFileError(f"{path}: incomplete image header")
        if ch == b"#":
            while ch not in (b"", b"\n"):
                ch = fh.read(1)
            continue
        if ch.isspace():
            continue
        token = ch
        while True:
            ch = fh.read(1)
            if ch == b"" or ch.isspace() or ch == b"#":
                break
            token += ch
        if ch == b"#":
            while ch not in (b"", b"\n"):
                ch = fh.read(1)
        if not token.isdigit():
            raise StorageError(f"{path}: malformed header token {token!r}")
        tokens.append(int(token))
    width, height, maxval = tokens
    if maxval != 255:
        raise StorageError(f"{path}: unsupported maxval {maxval}, expected 255")
    if width == 0 or height == 0:
        raise StorageError(f"{path}: empty image {width}x{height}")
    return magic, width, height


def read_image(path):
    """Read a binary PGM or PPM image as floats in [0, 1].

    A PGM (P5) yields an (h, w) matrix. A PPM (P6) yields an (h, w, 3)
    tensor whose frontal slices are the red, green, and blue channels.
    """
    with open(path, "rb") as fh:
        magic, width, height = _read_pnm_header(fh, path)
        channels = 1 if magic == b"P5" else 3
        payload = fh.read()
    count = width * height * channels
    if len(payload) < count:
        raise TruncatedFileError(
            f"{path}: {len(payload)} pixel bytes, expected {count}"
        )
    raw = np.frombuffer(payload[:count], dtype=np.uint8)
    if channels == 1:
        return raw.reshape((height, width)).astype(np.float64) / 255.0
    planes = raw.reshape((height, width, 3)).astype(np.float64) / 255.0
    # interleaved RGB -> one channel per frontal slice
    return np.ascontiguousarray(planes)


def read_image_stack(paths):
    """Read grayscale frames into an (m, n, N) tensor, one per slice.

    All frames must be PGM files of identical dimensions. The tensor is
    built in the canonical layout, one slice per frame as it is read.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("no image paths given")
    stack = None
    for i, path in enumerate(paths):
        frame = read_image(path)
        if frame.ndim != 2:
            raise StorageError(f"{path}: expected grayscale PGM in a frame stack")
        if stack is None:
            stack = np.empty(frame.shape + (len(paths),), order="F")
        elif frame.shape != stack.shape[:2]:
            raise StorageError(
                f"{path}: frame is {frame.shape}, stack is {stack.shape[:2]}"
            )
        stack[:, :, i] = frame
    return stack


def _quantize(values):
    return np.rint(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_image(path, image):
    """Write floats in [0, 1] as a binary PGM (2-d) or PPM ((h, w, 3)).

    Values are clamped to [0, 1] and quantized by rounding to the
    nearest of 256 levels.
    """
    image = np.asarray(image, dtype=np.float64)
    if not np.isfinite(image).all():
        raise NonFiniteValueError(f"{path}: refusing to write non-finite pixels")
    if image.ndim == 2:
        magic, pixels = b"P5", _quantize(image)
    elif image.ndim == 3 and image.shape[2] == 3:
        magic, pixels = b"P6", _quantize(image)
    else:
        raise ValueError(f"expected (h, w) or (h, w, 3) image, got {image.shape}")
    height, width = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (width, height))
        fh.write(pixels.tobytes())


def write_trace(path, trace):
    """Write per-iteration solver history as CSV.

    Columns are iter (1-based), err_rec, err_split, mu, mu_K; one row
    per completed iteration.
    """
    trace = np.asarray(trace, dtype=np.float64)
    lines = [",".join(TRACE_COLUMNS)]
    for i, row in enumerate(trace):
        lines.append(",".join([str(i + 1)] + [_format_value(v) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path):
    """Read a trace.csv back into a (k, 4) float array (iter implicit)."""
    lines = Path(path).read_text().splitlines()
    if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise StorageError(f"{path}: unexpected trace header")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(TRACE_COLUMNS):
            raise StorageError(f"{path}: malformed trace row {line!r}")
        rows.append([float(v) for v in fields[1:]])
    return np.array(rows, dtype=np.float64).reshape(len(rows), 4)


def write_metrics(path, values):
    """Write named scalar results as a two-column metric,value CSV.

    Rows are sorted by metric name so output is deterministic.
    """
    lines = ["metric,value"]
    for name, value in sorted(values.items()):
        lines.append(f"{name},{_format_value(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_metrics(path):
    """Read a metrics.csv back into a {name: float} dict."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "metric,value":
        raise StorageError(f"{path}: unexpected metrics header")
    values = {}
    for line in lines[1:]:
        name, _, value = line.partition(",")
        values[name] = float(value)
    return values


def write_manifest(path, entries):
    """Write a manifest as JSON with sorted keys and a trailing newline."""
    entries = {k: _jsonable(v) for k, v in entries.items()}
    Path(path).write_text(json.dumps(entries, sort_keys=True, indent=2) + "\n")


def read_manifest(path):
    return json.loads(Path(path).read_text())


def _as_depth_one(matrix):
    return np.asarray(matrix, dtype=np.float64)[:, :, np.newaxis]


def save_bundle(out_dir, fac, config, extra=None):
    """Save a factorization to a directory as a reloadable bundle.

    Writes A.kdt and B.kdt (matrices stored as depth-1 tensors), R.kdt,
    E.kdt, trace.csv, and manifest.json. The manifest records every
    solver configuration field plus iteration counts; ``extra`` entries
    (run parameters, seeds) are merged in. Identical inputs produce
    byte-identical bundles.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_tensor(out_dir / "A.kdt", _as_depth_one(fac.a))
    write_tensor(out_dir / "B.kdt", _as_depth_one(fac.b))
    write_tensor(out_dir / "R.kdt", fac.core)
    write_tensor(out_dir / "E.kdt", fac.outliers)
    write_trace(out_dir / "trace.csv", fac.trace)
    entries = {f"config.{k}": v for k, v in asdict(config).items()}
    entries["converged"] = fac.converged
    entries["iterations"] = fac.iterations
    entries.update(extra or {})
    write_manifest(out_dir / "manifest.json", entries)
    return out_dir


def load_bundle(bundle_dir):
    """Reload a saved bundle as a (Factorization, manifest dict) pair.

    Reconstruction from the reloaded factors reproduces the low-rank
    part bit-identically, since the container preserves every bit.
    """
    bundle_dir = Path(bundle_dir)
    for name in BUNDLE_FILES:
        if not (bundle_dir / name).exists():
            raise StorageError(f"{bundle_dir}: bundle is missing {name}")
    a = read_tensor(bundle_dir / "A.kdt")[:, :, 0]
    b = read_tensor(bundle_dir / "B.kdt")[:, :, 0]
    core = read_tensor(bundle_dir / "R.kdt")
    outliers = read_tensor(bundle_dir / "E.kdt")
    trace = read_trace(bundle_dir / "trace.csv")
    manifest = read_manifest(bundle_dir / "manifest.json")
    fac = Factorization(
        a=a,
        b=b,
        core=core,
        outliers=outliers,
        trace=trace,
        converged=bool(manifest.get("converged", False)),
        iterations=int(manifest.get("iterations", len(trace))),
    )
    return fac, manifest
