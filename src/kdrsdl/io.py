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
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .solver import Factorization

KDT_MAGIC = b"KDT1"
KDT_HEADER = struct.Struct("<4s3I")

BUNDLE_FILES = ("A.kdt", "B.kdt", "R.kdt", "E.kdt", "trace.csv", "manifest.json")

TRACE_COLUMNS = ("iter", "err_rec", "err_split", "mu", "mu_K")
METRICS_COLUMNS = ("metric", "value")


class StorageError(ValueError):
    """A file does not conform to the format it claims."""


class BadMagicError(StorageError):
    """The file does not start with the expected magic bytes."""


class TruncatedFileError(StorageError):
    """The file ends before the payload its header promises."""


class NonFiniteValueError(StorageError):
    """A tensor payload contains NaN or infinity."""


def _plain(value):
    # a numpy scalar as the Python scalar it holds: numpy 2 reprs the
    # scalar itself as e.g. "np.float64(0.5)", and json refuses most of them
    return value.item() if isinstance(value, np.generic) else value


def _format_value(value):
    # repr of a Python float is the shortest decimal that parses back to
    # the same bits
    value = _plain(value)
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
    if t.size == 0:
        raise StorageError(f"{path}: refusing to write an empty {m}x{n}x{num} tensor")
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


# A Netpbm header: magic, then width, height and maxval as ASCII tokens,
# separated by gaps (_) of whitespace bytes and '#' comments to end of line;
# one gap ends maxval. A token the file ends before matches as None.
_PNM_HEADER = re.compile(
    rb"(P[56])?(?:_*([^\s#]+))?(?:_+([^\s#]+))?(?:_+([^\s#]+)_?)?".replace(
        b"_", rb"(?:\s|#[^\n]*(?:\n|\Z))"
    )
)


def read_image(path):
    """Read a binary PGM or PPM image as floats in [0, 1].

    A PGM (P5) yields an (h, w) matrix. A PPM (P6) yields an (h, w, 3)
    tensor whose frontal slices are the red, green, and blue channels.
    """
    data = Path(path).read_bytes()
    header = _PNM_HEADER.match(data)
    magic, *tokens = header.groups()
    if magic is None:
        raise BadMagicError(f"{path}: unsupported image magic {data[:2]!r}")
    for token in tokens:
        if token is None:
            raise TruncatedFileError(f"{path}: incomplete image header")
        if not token.isdigit():
            raise StorageError(f"{path}: malformed header token {token!r}")
    width, height, maxval = map(int, tokens)
    if maxval != 255:
        raise StorageError(f"{path}: unsupported maxval {maxval}, expected 255")
    if width == 0 or height == 0:
        raise StorageError(f"{path}: empty image {width}x{height}")
    channels = 1 if magic == b"P5" else 3
    count = width * height * channels
    size = len(data) - header.end()
    if size < count:
        raise TruncatedFileError(f"{path}: {size} pixel bytes, expected {count}")
    raw = np.frombuffer(data, dtype=np.uint8, count=count, offset=header.end())
    # interleaved RGB -> one channel per frontal slice
    shape = (height, width) if channels == 1 else (height, width, 3)
    return raw.reshape(shape).astype(np.float64) / 255.0


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
    if image.size == 0:
        raise StorageError(f"{path}: refusing to write an empty image {width}x{height}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (width, height))
        fh.write(pixels.tobytes())


def _write_table(path, header, rows):
    # the one CSV dialect: a header line, then each row's fields joined by commas
    lines = [",".join(header)] + [",".join(map(_format_value, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_table(path, header, parse):
    # parse(fields) of each row of a _write_table table; its ValueError marks a bad row
    lines = Path(path).read_text().splitlines()
    if not lines or tuple(lines[0].split(",")) != header:
        raise StorageError(f"{path}: expected the header {','.join(header)}")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise StorageError(f"{path}: row {line!r} has {len(fields)} fields, not {len(header)}")
        try:
            rows.append(parse(fields))
        except ValueError:
            raise StorageError(f"{path}: malformed row {line!r}") from None
    return rows


def write_trace(path, trace):
    """Write per-iteration solver history as CSV.

    Columns are iter (1-based), err_rec, err_split, mu, mu_K; one row
    per completed iteration.
    """
    rows = enumerate(np.asarray(trace, dtype=np.float64), 1)
    _write_table(path, TRACE_COLUMNS, ([i, *row] for i, row in rows))


def read_trace(path):
    """Read a trace.csv back into a (k, 4) float array (iter implicit)."""
    rows = _read_table(path, TRACE_COLUMNS, lambda fields: [float(v) for v in fields[1:]])
    return np.array(rows, dtype=np.float64).reshape(len(rows), 4)


def write_metrics(path, values):
    """Write named scalar results as a two-column metric,value CSV.

    Rows are sorted by metric name so output is deterministic.
    """
    _write_table(path, METRICS_COLUMNS, sorted(values.items()))


def read_metrics(path):
    """Read a metrics.csv back into a {name: float} dict."""
    return dict(_read_table(path, METRICS_COLUMNS, lambda fields: (fields[0], float(fields[1]))))


def write_manifest(path, entries):
    """Write a manifest as JSON with sorted keys and a trailing newline."""
    entries = {k: _plain(v) for k, v in entries.items()}
    Path(path).write_text(json.dumps(entries, sort_keys=True, indent=2) + "\n")


def read_manifest(path):
    return json.loads(Path(path).read_text())


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
    write_tensor(out_dir / "A.kdt", fac.a[:, :, np.newaxis])
    write_tensor(out_dir / "B.kdt", fac.b[:, :, np.newaxis])
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
