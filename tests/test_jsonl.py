"""The shared JSON Lines reader, the four readers built on it, and ``located``.

Regression tests pin each coercion the hand-rolled readers used to make, and
hypothesis feeds every reader, and the CLI commands that use them, lines
built from the schema's field names and arbitrary JSON values.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trackref.cli import main
from trackref.expressions import read_attributes, read_corpus
from trackref.jsonl import FLAG, FLAG_OR_NULL, INTEGER, NAME, NUMBER, located, read_jsonl
from trackref.rerank import read_proposals, read_tracks

GOOD_PROPOSAL = {
    "video": "v", "query": "1", "frame": 1, "x": 0, "y": 0, "w": 10, "h": 10,
    "score": 0.9, "objectness": 0.8, "id": 0,
}
GOOD_TRACK = {"video": "v", "query": "1", "frame": 1, "x": 0, "y": 0, "w": 4, "h": 4}
GOOD_CORPUS = {
    "video": "v", "object": "1", "annotator": "a", "type": "first_frame",
    "text": "a dog on the left", "is_coco": False, "invalid_over_time": None,
}
GOOD_ATTRS = {
    "video": "v", "object": "1", "is_coco": True, "has_spatial": False,
    "has_verb": False, "length_bin": "short", "num_objects_bin": "1",
    "annotation_type": "first_frame",
}


def write_lines(path, *records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def collect(path, fields, defaults=None):
    rows = []
    unknown = read_jsonl(path, fields, lambda *values: rows.append(values), defaults)
    return rows, unknown


class TestReadJsonl:
    FIELDS = {"name": NAME, "number": NUMBER, "count": INTEGER, "flag": FLAG}

    def test_kinds_convert(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, {"name": 7, "number": 3, "count": 2, "flag": True},
                    {"name": "x", "number": 0.5, "count": -1, "flag": False})
        rows, unknown = collect(path, self.FIELDS)
        assert rows == [("7", 3.0, 2, True), ("x", 0.5, -1, False)]
        assert type(rows[0][1]) is float and unknown == set()

    @pytest.mark.parametrize("field, value, message", [
        ("name", None, "name must be a string or an integer, got None"),
        ("name", 1.5, "name must be a string or an integer, got 1.5"),
        ("name", True, "name must be a string or an integer, got True"),
        ("number", "0", "number must be a number, got '0'"),
        ("number", False, "number must be a number, got False"),
        ("count", 1.0, "count must be an integer, got 1.0"),
        ("count", True, "count must be an integer, got True"),
        ("flag", 0, "flag must be true or false, got 0"),
        ("flag", None, "flag must be true or false, got None"),
    ])
    def test_wrong_kind_names_line(self, tmp_path, field, value, message):
        path = tmp_path / "a.jsonl"
        good = {"name": "n", "number": 1.0, "count": 1, "flag": True}
        write_lines(path, good, dict(good, **{field: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            collect(path, self.FIELDS)

    def test_flag_or_null_and_defaults(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, {"name": "a"}, {"name": "b", "maybe": True}, {"name": "c", "maybe": 1})
        fields = {"name": NAME, "maybe": FLAG_OR_NULL}
        with pytest.raises(ValueError, match=re.escape(
            f"{path}:3: maybe must be true, false or null, got 1"
        )):
            collect(path, fields, {"maybe": None})
        write_lines(path, {"name": "a"}, {"name": "b", "maybe": True})
        assert collect(path, fields, {"maybe": None})[0] == [("a", None), ("b", True)]

    def test_line_errors(self, tmp_path):
        path = tmp_path / "a.jsonl"
        fields = {"name": NAME, "number": NUMBER}
        for body, message in [
            ("{broken", "invalid JSON (Expecting property name"),
            ("[1, 2]", "expected a JSON object"),
            ('{"name": "a"}', "missing fields number"),
            ("{}", "missing fields name, number"),
            ('{"name": "a", "number": 1e999999}', None),
            ("[" * 100_000, "invalid JSON ("),
            ('{"name": "a", "number": ' + "9" * 5000 + "}", "invalid JSON ("),
            ('{"name": "a", "number": ' + "9" * 400 + "}", "int too large to convert to float"),
        ]:
            path.write_text("\n  \n" + body + "\n")
            if message is None:  # an infinity is a number; the builder decides
                assert collect(path, fields)[0] == [("a", float("inf"))]
                continue
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
                collect(path, fields)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"name": "a"}\n{"name": "\xff"}\n')
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: invalid JSON"):
            collect(path, {"name": NAME})

    def test_builder_errors_name_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, {"name": "a"}, {"name": "b"})

        def build(name):
            if name == "b":
                raise ValueError("no b")

        with pytest.raises(ValueError, match=re.escape(f"{path}:2: no b")):
            read_jsonl(path, {"name": NAME}, build)

    def test_unknown_fields_returned(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, {"name": "abc", "extra": 1}, {"name": 12, "other": None})
        assert collect(path, {"name": NAME}) == ([("abc",), ("12",)], {"extra", "other"})


class TestLocated:
    def test_value_error_gets_the_prefix(self):
        with pytest.raises(ValueError) as caught:
            with located("scene.txt: object 1, frame 3"):
                raise ValueError("affine transform is not invertible")
        assert type(caught.value) is ValueError
        assert str(caught.value) == (
            "scene.txt: object 1, frame 3: affine transform is not invertible"
        )

    def test_unicode_decode_error_gets_the_prefix(self):
        try:
            b"ok \xff".decode("utf-8")
        except UnicodeDecodeError as exc:
            message = str(exc)
        with pytest.raises(ValueError) as caught:
            with located("words.txt"):
                b"ok \xff".decode("utf-8")
        assert str(caught.value) == f"words.txt: {message}"

    @pytest.mark.parametrize("error", [
        FileNotFoundError(2, "No such file or directory", "a.txt"), KeyError("a"),
    ])
    def test_other_errors_pass_through_unchanged(self, error):
        with pytest.raises(type(error)) as caught:
            with located("a.txt"):
                raise error
        assert caught.value is error


class TestCoercionsRejected:
    """Inputs the per-file readers coerced, or rejected without a line."""

    @pytest.mark.parametrize("bad", [
        {"video": None}, {"video": ["v"]}, {"video": 1.5}, {"query": False},
        {"x": "0"}, {"w": True}, {"score": True}, {"score": "0.5"},
        {"objectness": None},
    ])
    def test_proposal_field(self, tmp_path, capsys, bad):
        path = tmp_path / "proposals.jsonl"
        write_lines(path, GOOD_PROPOSAL, dict(GOOD_PROPOSAL, id=1, **bad))
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(path), "--out", str(out)]) == 2
        field = next(iter(bad))
        assert f"{path}:2: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_proposal_id_names_line(self, tmp_path, capsys):
        path = tmp_path / "proposals.jsonl"
        write_lines(path, GOOD_PROPOSAL, dict(GOOD_PROPOSAL, x=5))
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(path), "--out", str(out)]) == 2
        assert f"{path}:2: duplicate proposal id 0 in frame 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"video": None}, {"query": ["1"]}, {"video": 2.0}, {"y": "0"}, {"h": False},
    ])
    def test_track_field(self, tmp_path, capsys, bad):
        gt = tmp_path / "gt.jsonl"
        write_lines(gt, GOOD_TRACK, dict(GOOD_TRACK, frame=2, **bad))
        out = tmp_path / "report"
        code = main(["eval", "--pred-tracks", str(gt), "--gt-boxes", str(gt), "--out", str(out)])
        assert code == 2
        assert f"{gt}:2: {next(iter(bad))} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"text": None}, {"video": ["v"]}, {"type": None}, {"annotator": 1.5},
    ])
    def test_corpus_field(self, tmp_path, capsys, bad):
        corpus = tmp_path / "corpus.jsonl"
        write_lines(corpus, GOOD_CORPUS, dict(GOOD_CORPUS, **bad))
        out = tmp_path / "stats"
        assert main(["stats", "--corpus", str(corpus), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"{corpus}:2: {next(iter(bad))} must be" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"video": ["v"]}, {"object": None}, {"object": 1.0}, {"length_bin": None},
    ])
    def test_attribute_field(self, tmp_path, capsys, bad):
        gt = tmp_path / "gt.jsonl"
        write_lines(gt, GOOD_TRACK)
        attrs = tmp_path / "attrs.jsonl"
        write_lines(attrs, GOOD_ATTRS, dict(GOOD_ATTRS, **bad))
        out = tmp_path / "report"
        code = main([
            "eval", "--pred-tracks", str(gt), "--gt-boxes", str(gt),
            "--attrs", str(attrs), "--out", str(out),
        ])
        assert code == 2
        assert f"{attrs}:2: {next(iter(bad))} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_later_attribute_records_are_checked_too(self, tmp_path):
        attrs = tmp_path / "attrs.jsonl"
        write_lines(attrs, GOOD_ATTRS, dict(GOOD_ATTRS, length_bin="huge"))
        with pytest.raises(ValueError, match=re.escape(f"{attrs}:2: invalid length_bin")):
            read_attributes(attrs)


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([0, 1, -1, 10**400, 1.5, "", "1", "short", "first_frame"])
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)


@st.composite
def lines(draw, good: dict) -> bytes:
    """One line of a file: usually ``good`` with a few fields changed or
    removed, sometimes another JSON value or raw bytes."""
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return json.dumps(draw(json_values)).encode() + b"\n"
    if shape == 1:
        return draw(st.binary(max_size=20)) + b"\n"
    record = dict(good)
    names = sorted(good) + ["extra"]
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        if draw(st.booleans()):
            record.pop(name, None)
        else:
            record[name] = draw(json_values)
    return json.dumps(record).encode() + b"\n"


def files(good: dict):
    """Two to four lines, the first one good."""
    return st.lists(lines(good), min_size=1, max_size=3).map(
        lambda rest: json.dumps(good).encode() + b"\n" + b"".join(rest)
    )


FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _read_or_line_error(reader, content: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.jsonl"
        path.write_bytes(content)
        try:
            reader(path)
        except ValueError as exc:
            assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), str(exc)


@FUZZ
@given(files(GOOD_PROPOSAL))
def test_fuzz_read_proposals(content):
    _read_or_line_error(read_proposals, content)


@FUZZ
@given(files(GOOD_TRACK))
def test_fuzz_read_tracks(content):
    _read_or_line_error(read_tracks, content)


@FUZZ
@given(files(GOOD_CORPUS))
def test_fuzz_read_corpus(content):
    _read_or_line_error(read_corpus, content)


@FUZZ
@given(files(GOOD_ATTRS))
def test_fuzz_read_attributes(content):
    _read_or_line_error(read_attributes, content)


def _run_main(argv) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@FUZZ
@given(proposals=files(GOOD_PROPOSAL))
def test_fuzz_main_rerank(proposals):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "proposals.jsonl"
        path.write_bytes(proposals)
        out = Path(tmp) / "out"
        code, err = _run_main(["rerank", "--proposals", str(path), "--out", str(out)])
        assert code in (0, 2), err
        assert out.exists() == (code == 0)
        if code == 2:
            assert f"error: {path}:" in err


@FUZZ
@given(gt=files(GOOD_TRACK), attrs=files(GOOD_ATTRS))
def test_fuzz_main_eval_attrs(gt, attrs):
    with tempfile.TemporaryDirectory() as tmp:
        gt_path = Path(tmp) / "gt.jsonl"
        gt_path.write_bytes(gt)
        attrs_path = Path(tmp) / "attrs.jsonl"
        attrs_path.write_bytes(attrs)
        out = Path(tmp) / "report"
        code, err = _run_main([
            "eval", "--pred-tracks", str(gt_path), "--gt-boxes", str(gt_path),
            "--attrs", str(attrs_path), "--out", str(out),
        ])
        assert code in (0, 2), err
        assert out.exists() == (code == 0)


@FUZZ
@given(corpus=files(GOOD_CORPUS))
def test_fuzz_main_stats(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(corpus)
        out = Path(tmp) / "stats"
        code, err = _run_main(["stats", "--corpus", str(path), "--out", str(out)])
        assert code in (0, 2), err
        assert out.exists() == (code == 0)
        if code == 2:
            assert f"error: {path}:" in err
