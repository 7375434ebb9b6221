"""Matrix and report file formats.

Three dense-matrix formats, chosen by extension or an explicit name:
  mtx   Matrix Market array format (text, exact round trip via repr)
  bin   versioned little-endian binary: 8-byte magic, uint64 rows/cols,
        float64 entries row-major (bit-exact round trip)
  csv   one matrix row per line
Hyperspectral cubes are bands x pixels matrices with a JSON sidecar
(height, width, optional wavelengths). Abundance rasters are binary PGM,
white = abundance 1. All writes are atomic (temp file + rename).
"""

import json
import os
import struct
import tempfile
import warnings

import numpy as np

from .errors import BadShapeError, InputFileError, NonFiniteError

BIN_MAGIC = b"SNMFBIN1"
FORMATS = ("mtx", "bin", "csv")


def _atomic_write(path, payload: bytes):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_format(path, explicit=None):
    if explicit:
        if explicit not in FORMATS:
            raise BadShapeError(f"unknown matrix format {explicit!r}")
        return explicit
    ext = os.path.splitext(path)[1].lstrip(".").lower()
    if ext in FORMATS:
        return ext
    raise BadShapeError(f"cannot infer matrix format from {path!r}; use --format")


def write_matrix(path, A, fmt=None):
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise BadShapeError("matrices must be 2-D")
    fmt = matrix_format(path, fmt)
    if fmt == "mtx":
        lines = ["%%MatrixMarket matrix array real general", f"{A.shape[0]} {A.shape[1]}"]
        lines.extend(repr(float(v)) for v in A.T.ravel())
        payload = ("\n".join(lines) + "\n").encode()
    elif fmt == "bin":
        payload = BIN_MAGIC + struct.pack("<QQ", *A.shape) + A.astype("<f8").tobytes()
    else:
        payload = (
            "\n".join(",".join(repr(float(v)) for v in row) for row in A) + "\n"
        ).encode()
    _atomic_write(path, payload)


def open_input(path, mode="r"):
    """open() for reading; a missing or unopenable file raises InputFileError naming it."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise InputFileError(f"{path}: cannot open ({exc.strerror or exc})") from None


def _loadtxt(fh, **kwargs):
    """np.loadtxt without its no-data warning (read_matrix refuses no data itself)."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(fh, **kwargs)


def read_matrix(path, fmt=None):
    """Read a dense matrix; a missing file raises InputFileError and a
    malformed or empty one (a row or column count of 0) BadShapeError,
    each naming it."""
    fmt = matrix_format(path, fmt)
    if fmt == "mtx":
        try:
            with open_input(path) as fh:
                header = fh.readline().strip().lower()
                if not header.startswith("%%matrixmarket matrix array real"):
                    raise BadShapeError(f"{path}: not a Matrix Market array file")
                line = fh.readline()
                while line.startswith("%"):
                    line = fh.readline()
                d, m = (int(tok) for tok in line.split())
                data = _loadtxt(fh, ndmin=1)
        except ValueError as exc:  # also undecodable bytes (UnicodeDecodeError)
            raise BadShapeError(f"{path}: malformed Matrix Market file ({exc})") from None
        if min(d, m) < 1 or data.size != d * m:
            raise BadShapeError(f"{path}: size line says {d} x {m}, got {data.size} entries")
        A = data.reshape(m, d).T.copy()
    elif fmt == "bin":
        with open_input(path, "rb") as fh:
            magic = fh.read(8)
            if magic != BIN_MAGIC:
                raise BadShapeError(f"{path}: bad magic {magic!r}")
            header = fh.read(16)
            if len(header) != 16:
                raise BadShapeError(f"{path}: truncated header")
            d, m = struct.unpack("<QQ", header)
            payload = fh.read()
        if min(d, m) < 1 or len(payload) != 8 * d * m:
            raise BadShapeError(f"{path}: header says {d} x {m}, got {len(payload)} payload bytes")
        A = np.frombuffer(payload, dtype="<f8").reshape(d, m).copy()
    else:
        try:
            with open_input(path) as fh:
                A = _loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise BadShapeError(f"{path}: malformed CSV matrix ({exc})") from None
        if A.size == 0:
            raise BadShapeError(f"{path}: no matrix entries")
    if not np.isfinite(A).all():
        raise NonFiniteError(f"{path} contains non-finite entries")
    return np.ascontiguousarray(A)


def write_json(path, obj):
    _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def read_json(path):
    """Parse a JSON file; a missing file raises InputFileError and a
    malformed one BadShapeError, each naming it."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, also undecodable bytes
            raise BadShapeError(f"{path}: malformed JSON ({exc})") from None


def write_csv_rows(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_pgm(path, image):
    """8-bit binary PGM; values clipped from [0, 1], white = 1."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise BadShapeError("PGM image must be 2-D")
    levels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = image.shape
    _atomic_write(path, f"P5\n{w} {h}\n255\n".encode() + levels.tobytes())


def sha256_of(A):
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(A, dtype="<f8").tobytes()).hexdigest()
