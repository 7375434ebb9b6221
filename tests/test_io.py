import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnmf.errors import BadShapeError, InputFileError, SepnmfError
from sepnmf.io import (
    BIN_MAGIC,
    FORMATS,
    matrix_format,
    read_json,
    read_matrix,
    write_json,
    write_matrix,
    write_pgm,
)
from sepnmf.reports import strip_timing
from sepnmf.rng import SplitMix64


def _awkward_matrix():
    A = SplitMix64(1).normal_matrix(7, 5)
    A[0, 0] = 1e-300
    A[1, 1] = -1e300
    A[2, 2] = 1.0 + 2**-52
    A[3, 3] = 0.0
    return A


@pytest.mark.parametrize("fmt", ["mtx", "bin", "csv"])
def test_round_trip(tmp_path, fmt):
    A = _awkward_matrix()
    path = str(tmp_path / f"a.{fmt}")
    write_matrix(path, A)
    B = read_matrix(path)
    assert np.array_equal(A, B)  # repr/binary both round-trip doubles exactly


def test_text_writers_format_each_entry_by_its_repr(tmp_path):
    # the bytes of formatting one numpy scalar at a time
    A = np.array([[-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300],
                  [3.0, -7.0, 0.1, 1.0 + 2**-52, 0.0]])
    want = {
        "csv": "\n".join(",".join(repr(float(v)) for v in row) for row in A) + "\n",
        "mtx": "\n".join(["%%MatrixMarket matrix array real general", "2 5"]
                         + [repr(float(v)) for v in A.T.ravel()]) + "\n",
    }
    for fmt, text in want.items():
        path = tmp_path / f"a.{fmt}"
        write_matrix(str(path), A)
        assert path.read_bytes() == text.encode()


def test_binary_round_trip_bitwise(tmp_path):
    A = SplitMix64(2).normal_matrix(9, 4)
    path = str(tmp_path / "a.bin")
    write_matrix(path, A)
    assert read_matrix(path).tobytes() == A.tobytes()


def test_format_detection_and_override(tmp_path):
    assert matrix_format("x.mtx") == "mtx"
    assert matrix_format("x.dat", "csv") == "csv"
    with pytest.raises(BadShapeError):
        matrix_format("x.dat")


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(BadShapeError):
        read_matrix(str(p))


_MALFORMED = {
    "short.bin": BIN_MAGIC + struct.pack("<QQ", 3, 4) + b"\x00" * 40,  # 5 of 12 entries
    "header.bin": BIN_MAGIC + b"\x03\x00\x00",
    "extra.bin": BIN_MAGIC + struct.pack("<QQ", 3, 4) + b"\x00" * 104,  # 13 of 12 entries
    # a header far larger than the file is refused before anything is allocated
    "huge.bin": BIN_MAGIC + struct.pack("<QQ", 2**31, 2**31) + b"\x00" * 40,
    "size.mtx": b"%%MatrixMarket matrix array real general\n2 x\n1\n2\n",
    "ragged.csv": b"1,2,3\n4,5\n",
    # a row or column count of 0 is refused before any reshape
    "rows0.bin": BIN_MAGIC + struct.pack("<QQ", 2**63, 0),
    "cols0.bin": BIN_MAGIC + struct.pack("<QQ", 0, 2**62),
    "rows0.mtx": b"%%MatrixMarket matrix array real general\n0 100000000000000000000\n",
    "empty.csv": b"",
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_file_raises_bad_shape(tmp_path, name):
    p = tmp_path / name
    p.write_bytes(_MALFORMED[name])
    with pytest.raises(BadShapeError, match=name):
        read_matrix(str(p))


@pytest.mark.parametrize("name, size", [("short.bin", 40), ("extra.bin", 104),
                                         ("huge.bin", 40)])
def test_bin_payload_size_is_named(tmp_path, name, size):
    p = tmp_path / name
    p.write_bytes(_MALFORMED[name])
    d, m = struct.unpack("<QQ", _MALFORMED[name][8:24])
    with pytest.raises(BadShapeError, match=f"header says {d} x {m}, got {size} payload bytes"):
        read_matrix(str(p))


@pytest.mark.parametrize("short", [0, 8], ids=["whole", "8-bytes-short"])
def test_bin_from_a_pipe_is_read_whole(short):
    # a file that is not regular has no size to check first: its payload is read whole
    A = SplitMix64(5).normal_matrix(3, 4)
    payload = BIN_MAGIC + struct.pack("<QQ", 3, 4) + A.astype("<f8").tobytes()
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:
        fh.write(payload[:len(payload) - short])
    try:
        path = f"/dev/fd/{r}"
        if short:
            with pytest.raises(BadShapeError, match=f"{path}: header says 3 x 4, got 88 payload"):
                read_matrix(path, "bin")
        else:
            assert np.array_equal(read_matrix(path, "bin"), A)
    finally:
        os.close(r)


@pytest.mark.parametrize("name, payload, reader, error", [
    ("missing.mtx", None, read_matrix, InputFileError),
    ("missing.bin", None, read_matrix, InputFileError),
    ("missing.csv", None, read_matrix, InputFileError),
    ("missing.json", None, read_json, InputFileError),
    ("bad.json", b"not json", read_json, BadShapeError),
    ("binary.json", b"\xff\xfe{", read_json, BadShapeError),
])
def test_unreadable_input_raises_typed_error(tmp_path, name, payload, reader, error):
    p = tmp_path / name
    if payload is not None:
        p.write_bytes(payload)
    with pytest.raises(error, match=name):
        reader(str(p))


# the fuzzers' starting points: _SEED_MATRIX in each format
_SEED_MATRIX = np.array([[1.5, -2.0, 0.25], [3.0, 0.001, 7.0]])
_VALID = {
    "mtx": b"%%MatrixMarket matrix array real general\n2 3\n1.5\n3.0\n-2.0\n0.001\n0.25\n7.0\n",
    "bin": BIN_MAGIC + struct.pack("<QQ", 2, 3) + _SEED_MATRIX.astype("<f8").tobytes(),
    "csv": b"1.5,-2.0,0.25\n3.0,0.001,7.0\n",
}


def _read_fuzzed(fmt, payload):
    """read_matrix on payload, which must give a finite nonempty matrix or a
    typed error, and no warning."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = os.path.join(tmp, f"fuzz.{fmt}")
        with open(path, "wb") as fh:
            fh.write(payload)
        try:
            A = read_matrix(path)
        except SepnmfError:
            return
    assert A.ndim == 2 and A.size > 0 and np.isfinite(A).all()


@pytest.mark.parametrize("fmt", FORMATS)
def test_fuzz_seeds_read_as_their_matrix(tmp_path, fmt):
    (tmp_path / f"seed.{fmt}").write_bytes(_VALID[fmt])
    assert np.array_equal(read_matrix(str(tmp_path / f"seed.{fmt}")), _SEED_MATRIX)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FORMATS), st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 4), st.binary(max_size=4)), min_size=1, max_size=4))
def test_mutated_bytes_give_only_typed_errors(fmt, edits):
    # each edit replaces `cut` bytes at `pos` by `new`
    payload = bytearray(_VALID[fmt])
    for pos, cut, new in edits:
        pos %= len(payload) + 1
        payload[pos:pos + cut] = new
    _read_fuzzed(fmt, bytes(payload))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 8))
def test_binary_header_counts_give_only_typed_errors(d, m, entries):
    _read_fuzzed("bin", BIN_MAGIC + struct.pack("<QQ", d, m) + b"\x00" * (8 * entries))


def test_pgm_output(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 2.0]])
    path = str(tmp_path / "x.pgm")
    write_pgm(path, img)
    raw = open(path, "rb").read()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert list(raw[-4:]) == [0, 128, 255, 255]  # clipped above 1


def test_json_round_trip_deterministic(tmp_path):
    obj = {"b": [1.5, 2.25], "a": {"x": 1}}
    p1, p2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
    write_json(p1, obj)
    write_json(p2, obj)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert read_json(p1) == obj


def test_strip_timing():
    obj = {
        "abs_error": 1.0,
        "timing": {"svd": 0.2},
        "wall_seconds": 1.5,
        "records": [{"recovery_rate": 1.0, "time_seconds": 0.4}],
    }
    got = strip_timing(obj)
    assert got == {"abs_error": 1.0, "records": [{"recovery_rate": 1.0}]}
