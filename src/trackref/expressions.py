"""Referring-expression corpora: parsing, tagging, and summary statistics.

Expressions are tagged with fixed word lists rather than a grammatical
tagger, keeping the flags deterministic and auditable.  The bundled lists and
a ``--lexicons`` directory are read by one function, :func:`load_lexicons`:
one word per line, ``#`` comments and blank lines skipped, words lowercased.
Token counts use the package tokenizer (lowercase, split on non-alphanumeric
runs), and length bins are short (< 4 tokens), medium (4-6) and long (> 6).
Corpus and attribute files are read through the shared reader in
:mod:`trackref.jsonl`.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from statistics import fmean

from .jsonl import FLAG, FLAG_OR_NULL, NAME, located, read_jsonl
from .metrics import ATTRIBUTE_GROUPS, QueryAttributes

ANNOTATION_TYPES = tuple(ATTRIBUTE_GROUPS["annotation_type"])

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class QueryRecord:
    video_id: str
    object_id: str
    annotator_id: str
    annotation_type: str
    text: str
    is_coco: bool = False
    invalid_over_time: bool | None = None

    def __post_init__(self):
        if self.annotation_type not in ANNOTATION_TYPES:
            raise ValueError(
                f"annotation type must be one of {ANNOTATION_TYPES}, "
                f"got {self.annotation_type!r}"
            )
        if not tokenize(self.text):
            raise ValueError(f"query text has no tokens: {self.text!r}")


@dataclass(frozen=True)
class Lexicons:
    spatial_words: frozenset[str]
    verb_words: frozenset[str]

    def __post_init__(self):
        for name in ("spatial_words", "verb_words"):
            words = getattr(self, name)
            if not words:
                raise ValueError(f"{name} lexicon is empty")
            if any(w != w.lower() for w in words):
                raise ValueError(f"{name} lexicon must be lowercase")


@dataclass(frozen=True)
class GroupStats:
    count: int
    mean_length: float
    verb_fraction: float
    spatial_fraction: float


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on any non-alphanumeric run."""
    return _TOKEN_PATTERN.findall(text.lower())


def load_word_list(path) -> frozenset[str]:
    """One word per line, lowercased; blank lines and # comments ignored."""
    words = set()
    with located(path), open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            word = line.split("#", 1)[0].strip().lower()
            if word:
                words.add(word)
    return frozenset(words)


def load_lexicons(directory=None) -> Lexicons:
    """``spatial_words.txt`` and ``verb_words.txt`` from ``directory``, or the
    bundled lists in ``trackref/data`` when it is None.

    Both go through :func:`load_word_list`; a list with no words raises
    ValueError naming its file.
    """
    root = resources.files("trackref") / "data" if directory is None else Path(directory)
    words = {}
    for name in ("spatial_words", "verb_words"):
        path = root / f"{name}.txt"
        words[name] = load_word_list(path)
        if not words[name]:
            raise ValueError(f"{path}: {name} lexicon is empty")
    return Lexicons(**words)


def bundled_sample_corpus_path():
    return resources.files("trackref") / "data" / "sample_corpus.jsonl"


def _length_bin(token_count: int) -> str:
    if token_count < 4:
        return "short"
    if token_count <= 6:
        return "medium"
    return "long"


def _num_objects_bin(num_objects: int) -> str:
    if num_objects <= 1:
        return "1"
    if num_objects <= 3:
        return "2-3"
    return ">3"


def tag_query(
    record: QueryRecord, lexicons: Lexicons, num_objects_in_video: int
) -> QueryAttributes:
    tokens = tokenize(record.text)
    return QueryAttributes(
        is_coco=record.is_coco,
        has_spatial=any(t in lexicons.spatial_words for t in tokens),
        has_verb=any(t in lexicons.verb_words for t in tokens),
        length_bin=_length_bin(len(tokens)),
        num_objects_bin=_num_objects_bin(num_objects_in_video),
        annotation_type=record.annotation_type,
    )


def corpus_stats(records, lexicons: Lexicons) -> dict[str, GroupStats]:
    """Mean expression length and verb/spatial fractions per annotation type."""
    records = list(records)
    if not records:
        raise ValueError("cannot summarize an empty corpus")
    groups: dict[str, list[QueryRecord]] = {}
    for record in records:
        groups.setdefault(record.annotation_type, []).append(record)
    out: dict[str, GroupStats] = {}
    for annotation_type in ANNOTATION_TYPES:
        members = groups.get(annotation_type)
        if not members:
            continue
        lengths = []
        verbs = 0
        spatial = 0
        for record in members:
            tokens = tokenize(record.text)
            lengths.append(len(tokens))
            verbs += any(t in lexicons.verb_words for t in tokens)
            spatial += any(t in lexicons.spatial_words for t in tokens)
        out[annotation_type] = GroupStats(
            count=len(members),
            mean_length=fmean(lengths),
            verb_fraction=verbs / len(members),
            spatial_fraction=spatial / len(members),
        )
    return out


def num_objects_by_video(records) -> dict[str, int]:
    objects: dict[str, set[str]] = {}
    for record in records:
        objects.setdefault(record.video_id, set()).add(record.object_id)
    return {video: len(ids) for video, ids in objects.items()}


# ---------------------------------------------------------------------------
# Corpus and attribute files (JSON Lines)
# ---------------------------------------------------------------------------

_CORPUS_FIELDS = {
    "video": NAME, "object": NAME, "annotator": NAME, "type": NAME, "text": NAME,
    "is_coco": FLAG, "invalid_over_time": FLAG_OR_NULL,
}
_CORPUS_DEFAULTS = {"is_coco": False, "invalid_over_time": None}
# The key, then QueryAttributes' tags in field order: read_attributes passes them by position.
_ATTRIBUTE_FIELDS = {
    "video": NAME, "object": NAME,
    **{f.name: {"bool": FLAG, "str": NAME}[f.type] for f in fields(QueryAttributes)},
}


def read_corpus(path) -> list[QueryRecord]:
    """Query records in file order; lines are checked by ``read_jsonl``."""
    records: list[QueryRecord] = []
    read_jsonl(
        path, _CORPUS_FIELDS, lambda *values: records.append(QueryRecord(*values)),
        _CORPUS_DEFAULTS,
    )
    if not records:
        raise ValueError(f"no corpus records in {path}")
    return records


def write_attributes(path, tagged: list[tuple[QueryRecord, QueryAttributes]]) -> None:
    ordered = sorted(
        tagged,
        key=lambda item: (item[0].video_id, item[0].object_id, item[0].annotator_id),
    )
    with open(path, "w", encoding="utf-8") as handle:
        for record, attrs in ordered:
            handle.write(json.dumps({
                "video": record.video_id,
                "object": record.object_id,
                "annotator": record.annotator_id,
                **asdict(attrs),
            }) + "\n")


def read_attributes(path) -> dict[tuple[str, str], QueryAttributes]:
    """Attributes keyed by (video, object); the first record per key wins.

    Lines are checked by ``read_jsonl``, every record in full.
    """
    out: dict[tuple[str, str], QueryAttributes] = {}

    def add(video, object_id, *tags):
        out.setdefault((video, object_id), QueryAttributes(*tags))

    read_jsonl(path, _ATTRIBUTE_FIELDS, add)
    return out
