"""The word path of the PBM reader against the general parser.

A document in ``write_mask``'s exact layout (``P1\\n<w> <h>\\n``, then
``"0 "``/``"1 "`` per pixel and a newline after each row's last bit) is
decoded as 16-bit words; every other document goes to the general parser.
Written files, the same documents made non-canonical, and written files
with one byte changed must read exactly as the general parser reads them:
the same mask, or the same error message.
"""

import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackref import geometry
from trackref.geometry import MAX_MASK_PIXELS, pbm_dumps, pbm_loads, read_mask, write_mask


@st.composite
def masks(draw):
    """Masks from 1x1 to 40x40, so headers of 7, 8 and 9 bytes occur."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    fill = draw(st.sampled_from(["random", "zeros", "ones"]))
    if fill != "random":
        return np.full((height, width), fill == "ones")
    bits = draw(st.binary(min_size=height * width, max_size=height * width))
    return (np.frombuffer(bits, dtype=np.uint8) & 1).astype(bool).reshape(height, width)


def document(mask):
    return pbm_dumps(mask).encode("ascii")


def _outcome(read, *args):
    try:
        return "mask", read(*args)
    except ValueError as exc:
        return "error", str(exc)


def _assert_same(outcome, expected):
    kind, value = outcome
    assert kind == expected[0]
    if kind == "error":
        assert value == expected[1]
    else:
        assert value.dtype == expected[1].dtype == bool
        assert value.flags.writeable == expected[1].flags.writeable
        assert np.array_equal(value, expected[1])


# Documents that mean the same mask but leave write_mask's layout.
VARIANTS = {
    "comment": lambda data: re.sub(rb"\A(P1\n\d+ \d+\n)", rb"\1# comment\n", data),
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "trailing newline": lambda data: data + b"\n",
}


@settings(max_examples=300, deadline=None)
@given(masks(), st.sampled_from(sorted(VARIANTS)))
@example(np.ones((1, 17), dtype=bool), "comment")
@example(np.eye(17, 1, dtype=bool), "crlf")
@example(np.zeros((1, 1), dtype=bool), "trailing newline")
@example(np.eye(9, 10, dtype=bool), "comment")
def test_written_and_non_canonical_documents_parse_alike(mask, variant):
    data = document(mask)
    words = geometry._pbm_words(data)
    assert words is not None
    _assert_same(("mask", words), ("mask", geometry._pbm_general(data)))
    assert np.array_equal(words, mask)
    changed = VARIANTS[variant](data)
    assert changed != data and geometry._pbm_words(changed) is None
    _assert_same(("mask", geometry._pbm_parse(changed)), ("mask", words))


# Each bit and separator, their neighbours in the byte order, other
# whitespace, a comment mark and bytes that are not ASCII.
BYTES = b"01/2 \n\t\r\x0b\x0c\x1c\x1f!#P\x00\x80\xff"


def _read_mutated(data):
    """``read_mask`` and ``read_mask`` with the word path switched off, on ``data``."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "00001.pbm")
        with open(path, "wb") as handle:
            handle.write(data)
        outcome = _outcome(read_mask, path)
        with mock.patch.object(geometry, "_pbm_words", lambda data: None):
            expected = _outcome(read_mask, path)
    return outcome, expected


@settings(max_examples=300, deadline=None)
@given(masks(), st.integers(0, 1 << 20), st.integers(0, len(BYTES) - 1))
@example(np.ones((2, 3), dtype=bool), 7, BYTES.index(b"2"))  # first bit
@example(np.ones((2, 3), dtype=bool), 11, BYTES.index(b"2"))  # last bit of row 1
@example(np.zeros((2, 3), dtype=bool), 12, BYTES.index(b" "))  # newline of row 1
@example(np.zeros((2, 3), dtype=bool), 12, BYTES.index(b"#"))
@example(np.zeros((2, 1), dtype=bool), 8, BYTES.index(b"!"))
@example(np.zeros((2, 3), dtype=bool), 8, BYTES.index(b"!"))
@example(np.zeros((2, 3), dtype=bool), 3, BYTES.index(b"0"))  # a zero width
def test_one_changed_byte_reads_as_the_general_parser(mask, position, byte):
    data = bytearray(document(mask))
    data[position % len(data)] = BYTES[byte]
    data = bytes(data)
    outcome, expected = _read_mutated(data)
    _assert_same(outcome, expected)
    words = geometry._pbm_words(data)  # never raises
    if words is not None:
        _assert_same(("mask", words), expected)


def test_leading_zero_dimension_reads_as_the_written_file(tmp_path):
    mask = np.zeros((480, 640), dtype=bool)
    mask[100:300, 200:500] = True
    written = tmp_path / "written.pbm"
    write_mask(written, mask)
    padded = tmp_path / "padded.pbm"
    padded.write_bytes(written.read_bytes().replace(b"P1\n640 480\n", b"P1\n0640 480\n", 1))
    assert geometry._pbm_words(padded.read_bytes()) is None
    assert np.array_equal(read_mask(padded), read_mask(written))
    assert np.array_equal(read_mask(written), mask)


def test_other_magic_fails_naming_p1():
    with pytest.raises(ValueError, match="missing P1 header"):
        pbm_loads("P4\n2 2\n" + "0 1\n1 0\n")


def test_oversized_header_fails_before_allocation():
    data = b"P1\n9999999999 9999999999\n0\n"
    assert geometry._pbm_words(data) is None
    with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_MASK_PIXELS} pixels"):
        geometry._pbm_parse(data)
