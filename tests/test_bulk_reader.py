"""The bulk path of ``read_proposals`` and ``read_tracks`` against the strict reader.

Tables are written with ``write_proposals`` and ``write_tracks``, sometimes
with one line changed, and every reader must give exactly what the strict
reader gives for the same file: the same keys in the same order, the same
Python ints, bit-identical floats, or the same error message.  The values
include the float extremes, ``-0.0`` and frames at and past the int64
limit; the changes include every form of a line that only the strict
reader accepts and every row the strict reader rejects.
"""

import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trackref import jsonl, rerank
from trackref.geometry import Box

try:
    from re import _parser as re_parser
except ImportError:  # Python 3.10
    import sre_parse as re_parser

SPECIAL_FLOATS = [5e-324, 1.7976931348623157e308, -0.0, 0.0, 1e16, 0.1, 1.0, 2.5, 1e-300]
INT64_MAX = 2**63 - 1

floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
# Valid weights; as sides, -0.0, 0.0 and products that underflow are invalid.
non_negative = st.sampled_from(SPECIAL_FLOATS) | st.floats(0.0, allow_infinity=False)


def _values(clean: bool):
    """Strategies for names, frames, ids and box sides.  ``clean`` ones make
    the file the writer writes for valid tables, which the bulk path reads;
    the others add names it leaves to the strict reader, ints past int64
    and invalid sides."""
    names = ["v", "1", "2", "10", "", "scene 000", "~!#$"]
    frames, ids = [1, 2, INT64_MAX], [INT64_MAX, -(2**63)]
    sides = st.floats(1e-3, 1e6) | st.sampled_from([1e16, 1.7976931348623157e308])
    if not clean:
        names += ["é", 'a"b', "a\\b"]
        frames += [0, 2**63, 10**19]
        ids += [2**63, -(2**63) - 1]
        sides = non_negative
    return (st.sampled_from(names), st.sampled_from(frames) | st.integers(1, 40),
            st.sampled_from(ids) | st.integers(-3, 12), sides)


@st.composite
def proposal_tables(draw):
    """``(clean, {(video, query): VideoProposals})`` with rows in (frame, id) order."""
    clean = draw(st.booleans())
    names, frames, ids, sides = _values(clean)
    keys = draw(st.lists(st.tuples(names, names), min_size=1, max_size=3, unique=True))
    videos = {}
    for key in keys:
        frame_ids = sorted(draw(st.lists(frames, min_size=1, max_size=3, unique=True)))
        frame_of, row_ids = [], []
        for index in range(len(frame_ids)):
            chosen = sorted(draw(st.lists(ids, min_size=1, max_size=3, unique=True)))
            frame_of += [index] * len(chosen)
            row_ids += chosen
        values = np.array([
            [draw(floats), draw(floats), draw(sides), draw(sides), draw(non_negative),
             draw(non_negative)]
            for _ in row_ids
        ])
        videos[key] = rerank.VideoProposals(
            frame_ids, np.array(frame_of, dtype=np.intp), row_ids, values[:, :4],
            values[:, 4], values[:, 5],
        )
    return clean, videos


@st.composite
def track_tables(draw):
    """``(clean, {(video, query): {frame: Box}})``.  ``Box`` rejects an
    invalid box, so a frame whose drawn box is invalid is left out."""
    clean = draw(st.booleans())
    names, frames, _, sides = _values(clean)
    keys = draw(st.lists(st.tuples(names, names), min_size=1, max_size=3, unique=True))
    tracks = {}
    for key in keys:
        track = tracks[key] = {}
        for frame in draw(st.lists(frames, min_size=1, max_size=4, unique=True)):
            try:
                track[frame] = Box(draw(floats), draw(floats), draw(sides), draw(sides))
            except ValueError:  # w * h is 0
                pass
    return clean, tracks


def _line(fields: list[tuple[str, str]], comma=", ", colon=": ") -> bytes:
    body = comma.join(f"{json.dumps(key)}{colon}{value}" for key, value in fields)
    return ("{" + body + "}\n").encode()


def _set(name, text):
    return lambda fields: [(key, text if key == name else value) for key, value in fields]


# Each change turns the chosen line, as ``[(key, value text)]``, into bytes,
# or edits the list of lines around it.
FIELD_CHANGES = {
    "compact": lambda fields: _line(fields, ",", ":"),
    "space": lambda fields: _line(fields).replace(b"{", b"{ ", 1),
    "tab": lambda fields: _line(fields, ",\t"),
    "key order": lambda fields: _line(fields[1:] + fields[:1]),
    "sorted keys": lambda fields: _line(sorted(fields)),
    "extra key": lambda fields: _line(fields + [("extra", "1")]),
    "integer x": lambda fields: _line(_set("x", "3")(fields)),
    "integer -0 y": lambda fields: _line(_set("y", "-0")(fields)),
    "integer name": lambda fields: _line(_set("query", "7")(fields)),
    "escaped name": lambda fields: _line(_set("video", '"\\u0076"')(fields)),
    "utf-8 name": lambda fields: _line(_set("video", '"é"')(fields)),
    "quote in name": lambda fields: _line(_set("query", '"\\""')(fields)),
    "NaN": lambda fields: _line(_set("x", "NaN")(fields)),
    "1e400": lambda fields: _line(_set("w", "1e400")(fields)),
    "w = 0": lambda fields: _line(_set("w", "0.0")(fields)),
    "frame = 0": lambda fields: _line(_set("frame", "0")(fields)),
    "frame 2**63": lambda fields: _line(_set("frame", str(2**63))(fields)),
    "exponent E": lambda fields: _line(_set("h", "1E1")(fields)),
    "CRLF": lambda fields: _line(fields)[:-1] + b"\r\n",
    "leading space": lambda fields: b" " + _line(fields),
    "text before": lambda fields: b"x" + _line(fields),
}
LINE_CHANGES = {
    "blank line": lambda lines, i: lines[:i] + [b"\n"] + lines[i:],
    "spaces line": lambda lines, i: lines[:i] + [b"  \n"] + lines[i:],
    "duplicate row": lambda lines, i: lines[:i + 1] + lines[i:],
    "swap rows": lambda lines, i: lines[:i] + lines[i + 1:i + 2] + lines[i:i + 1] + lines[i + 2:],
    "move to end": lambda lines, i: lines[:i] + lines[i + 1:] + lines[i:i + 1],
    "no final newline": lambda lines, i: lines[:-1] + [lines[-1][:-1]],
}
CHANGES = [None, *FIELD_CHANGES, *LINE_CHANGES]


def _changed(content: bytes, change, index: int) -> bytes:
    if change is None:
        return content
    lines = content.splitlines(keepends=True)
    if not lines:
        return content
    index %= len(lines)
    if change in LINE_CHANGES:
        return b"".join(LINE_CHANGES[change](lines, index))
    record = json.loads(lines[index])
    fields = [(key, json.dumps(value)) for key, value in record.items()]
    lines[index] = FIELD_CHANGES[change](fields)
    return b"".join(lines)


def _outcome(read, path):
    try:
        return "ok", read(path)
    except ValueError as exc:
        return "error", str(exc)


def _proposal_view(result):
    """Everything of a ``read_proposals`` result, floats and ints by their exact
    bits or reprs (so -0.0 differs from 0.0), in dict order."""
    videos, unknown = result
    tables = []
    for key, vp in videos.items():
        arrays = [(a.dtype.str, a.shape, a.tobytes())
                  for a in (vp.frame_of, vp.boxes, vp.scores, vp.objectness)]
        tables.append((key, repr(vp.frame_ids), repr(vp.ids), arrays,
                       {type(value) for value in vp.frame_ids + vp.ids}))
    return tables, sorted(unknown)


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(proposal_tables(), st.sampled_from(CHANGES), st.integers(0, 50))
def test_read_proposals_is_the_strict_reader(drawn, change, index):
    clean, videos = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "proposals.jsonl"
        rerank.write_proposals(path, videos)
        path.write_bytes(_changed(path.read_bytes(), change, index))
        kind, result = _outcome(rerank.read_proposals, path)
        strict_kind, strict = _outcome(rerank._read_proposals_strictly, path)
        assert kind == strict_kind
        if kind == "error":
            assert result == strict
        else:
            assert _proposal_view(result) == _proposal_view(strict)
        if clean and change is None:
            assert rerank._read_written_proposals(path) is not None


@SETTINGS
@given(track_tables(), st.sampled_from(CHANGES), st.integers(0, 50))
def test_read_tracks_is_the_strict_reader(drawn, change, index):
    clean, tracks = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tracks.jsonl"
        rerank.write_tracks(path, tracks)
        path.write_bytes(_changed(path.read_bytes(), change, index))
        kind, result = _outcome(rerank.read_tracks, path)
        strict_kind, strict = _outcome(rerank._read_tracks_strictly, path)
        assert kind == strict_kind
        # A Box's repr shows each float's repr, which tells -0.0 from 0.0.
        assert repr(result) == repr(strict)
        if kind == "ok":
            assert all(type(frame) is int for track in result.values() for frame in track)
        if clean and change is None and result:
            assert rerank._read_written_tracks(path) is not None


def test_the_bulk_path_streams_blocks_of_whole_lines(tmp_path, monkeypatch):
    """Blocks far smaller than the file still give the strict reader's tables."""
    videos = {("v", str(query)): rerank.VideoProposals(
        list(range(1, 41)), np.repeat(np.arange(40), 3), [0, 1, 2] * 40,
        np.tile([1.5, 2.5, 3.0, 4.0], (120, 1)) * np.arange(1, 121)[:, None],
        np.linspace(0, 1, 120), np.full(120, 0.9),
    ) for query in range(3)}
    path = tmp_path / "proposals.jsonl"
    rerank.write_proposals(path, videos)
    monkeypatch.setattr("trackref.jsonl._BLOCK_BYTES", 100)
    bulk = rerank._read_written_proposals(path)
    assert bulk is not None
    assert _proposal_view((bulk, set())) == _proposal_view(
        rerank._read_proposals_strictly(path))


def test_the_row_patterns_compile_on_python_3_10():
    """pyproject allows Python 3.10, whose ``re`` rejects possessive
    quantifiers and atomic groups (both came in 3.11), so neither may appear
    in the row patterns that every bulk read compiles."""
    for fields in (rerank._PROPOSAL_FIELDS, rerank._TRACK_FIELDS):
        pattern = jsonl.row_pattern(fields)
        parsed = repr(re_parser.parse(pattern.pattern, pattern.flags))
        assert "POSSESSIVE_REPEAT" not in parsed and "ATOMIC_GROUP" not in parsed


EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300, 1.0, -1.0, 1e200,
               1.7976931348623157e308]
edge_floats = st.sampled_from(EDGE_VALUES) | st.floats()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([-1, 0, 1, 2, INT64_MAX]), edge_floats, edge_floats, edge_floats,
       edge_floats, edge_floats, edge_floats)
def test_the_row_rule_is_the_rule_of_box_and_proposal(frame, x, y, w, h, score, objectness):
    """The readers check rows with ``_rows_valid`` instead of building a
    ``Box`` and a ``Proposal``, so it must accept exactly what they accept,
    on one row and elementwise over columns."""
    def accepted(build) -> bool:
        try:
            build()
        except ValueError:
            return False
        return True

    proposal = accepted(lambda: rerank.Proposal(frame, Box(x, y, w, h), score, objectness, 0))
    track = frame >= 1 and accepted(lambda: Box(x, y, w, h))
    assert rerank._rows_valid(frame, x, y, w, h, score, objectness) == proposal
    assert rerank._rows_valid(frame, x, y, w, h) == track
    # The same row next to a valid one, as columns.
    frames = np.array([frame, 1], dtype=np.int64)
    columns = [np.array([value, 1.0]) for value in (x, y, w, h, score, objectness)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert rerank._rows_valid(frames, *columns).tolist() == [proposal, True]
        assert rerank._rows_valid(frames, *columns[:4]).tolist() == [track, True]


@pytest.mark.parametrize("sides", ['"w": 0.0, "h": 1e400', '"w": 1e400, "h": 0.0'])
@pytest.mark.parametrize("read, strict, extra", [
    (rerank.read_tracks, rerank._read_tracks_strictly, ""),
    (rerank.read_proposals, rerank._read_proposals_strictly,
     ', "score": 1.0, "objectness": 1.0, "id": 0'),
])
def test_a_zero_side_by_an_infinite_one_warns_nothing(tmp_path, sides, read, strict, extra):
    """``0 * inf`` in the bulk area check is an invalid row, not a numpy
    warning on stderr, and the error is the strict reader's."""
    path = tmp_path / "rows.jsonl"
    path.write_text('{"video": "v", "query": "q", "frame": 1, "x": 0.0, "y": 0.0, '
                    f"{sides}{extra}}}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = _outcome(read, path)
    assert outcome[0] == "error"
    assert outcome == _outcome(strict, path)
