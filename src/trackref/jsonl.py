"""The strict reader behind every JSON Lines input, its bulk path, and :func:`located`.

Proposals, tracks, the referring-expression corpus and its attribute tags
are read by :func:`read_jsonl`, which parses their lines and checks their
fields.  Every error it raises, the record builder's included, starts with
``path:line``.  A schema maps each field name to a kind, which accepts
values by their exact type after ``json.loads`` (a bool is never an integer
or a number, a string never a number) and converts a few of them.

:func:`read_written` is a bulk path for the files the package writes
itself: it matches whole blocks of lines against the one row a writer
emits and gives numpy columns, or None when any line is not that row.  Its
caller checks the columns against the strict reader's rules and falls back
to :func:`read_jsonl` on None or on a failed check, so a result is always
the strict reader's and every error is its error.

Every other data error gets its source from :func:`located`, the one helper
that puts it in front of the message.  ``read_jsonl`` keeps its own ``try``
per line, because a ``with located(...)`` costs about 40 times as much (2.3
against 0.05 microseconds on a 2-CPU Xeon) and it runs once per record.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Callable
from contextlib import contextmanager
from operator import itemgetter
from typing import NamedTuple

import numpy as np


@contextmanager
def located(where: str):
    """Prefix a ValueError (a UnicodeDecodeError too) raised inside the block
    with ``where: ``; any other exception, an OSError say, passes unchanged."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


class Kind(NamedTuple):
    """Accepted JSON value types, each mapped to a converter (None: keep).

    ``written`` is the regex group of the one form the package's writers
    give a value of this kind, and ``column`` turns a tuple of the matched
    texts into a numpy column; both are None for a kind no writer emits.
    """

    expected: str
    accepts: dict
    written: bytes | None = None
    column: Callable | None = None


def _int64s(texts: tuple) -> np.ndarray:
    """Raises OverflowError for a value outside int64."""
    return np.fromiter(map(int, texts), np.int64, len(texts))


def _float64s(texts: tuple) -> np.ndarray:
    return np.fromiter(map(float, texts), np.float64, len(texts))


# A written name is a JSON string of printable ASCII without a quote or a
# backslash, so its text is its value.  A written integer has at most 19
# digits, so ``int`` never meets the interpreter's digit limit.  A written
# number has a fraction or an exponent: ``float`` then reads it as
# ``json.loads`` does, and an integer-form ``-0``, which JSON reads as the
# integer 0, goes to the strict reader.
NAME = Kind("a string or an integer", {str: None, int: str},
            rb'"([ !#-\[\]-~]*)"', np.array)
NUMBER = Kind("a number", {float: None, int: float},
              rb"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))",
              _float64s)
INTEGER = Kind("an integer", {int: None}, rb"(-?(?:0|[1-9][0-9]{0,18}))", _int64s)
FLAG = Kind("true or false", {bool: None})
FLAG_OR_NULL = Kind("true, false or null", {bool: None, type(None): None})


def _conversions(fields: dict[str, Kind], values: tuple) -> tuple:
    """The (index, converter) of each value to convert; rejects a wrong kind."""
    plan = []
    for index, ((name, kind), value) in enumerate(zip(fields.items(), values)):
        if type(value) not in kind.accepts:
            raise ValueError(f"{name} must be {kind.expected}, got {value!r}")
        if kind.accepts[type(value)] is not None:
            plan.append((index, kind.accepts[type(value)]))
    return tuple(plan)


def read_jsonl(path, fields: dict[str, Kind], build, defaults=None) -> set[str]:
    """Call ``build(*values)`` on each record of a JSON Lines file.

    Values come in the order of ``fields``, converted as their kinds say; a
    field in ``defaults`` is optional.  Blank lines are skipped.  Returns the
    names of the fields seen outside ``fields``.  Every error is a
    ValueError starting ``path:line``.
    """
    fetch = itemgetter(*fields)
    if len(fields) == 1:  # itemgetter of one key returns the bare value
        fetch = lambda record, get=fetch: (get(record),)
    # The kind check depends only on the types of the values, so each tuple
    # of types is checked once and remembered with the conversions it needs.
    plans: dict[tuple, tuple] = {}
    unknown: set[str] = set()
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                try:
                    record = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError) as exc:  # UTF-8 errors too
                    raise ValueError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
                if type(record) is not dict:
                    raise ValueError("expected a JSON object")
                if defaults:
                    record = {**defaults, **record}
                try:
                    values = fetch(record)
                except KeyError:
                    missing = ", ".join(sorted(fields.keys() - record.keys()))
                    raise ValueError(f"missing fields {missing}") from None
                if len(record) > len(fields):
                    unknown.update(record.keys() - fields.keys())
                types = tuple(map(type, values))
                plan = plans.get(types)
                if plan is None:
                    plan = plans[types] = _conversions(fields, values)
                if plan:
                    values = list(values)
                    for index, convert in plan:
                        values[index] = convert(values[index])
                build(*values)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{number}: {exc}") from exc
    return unknown


# Bytes the bulk path matches at a time, extended to the end of a line: about
# 300 rows.  Blocks of 1 MiB read no faster and held more (traced Python peak
# 2.0 against 0.5 MB on a 2,800-row file, 6.1 against 2.7 MB on 18,000 rows).
_BLOCK_BYTES = 1 << 16


def row_pattern(fields: dict[str, Kind]) -> re.Pattern:
    """The pattern of one whole line as a writer emits it, one group per field."""
    return re.compile(
        rb"^\{" + b", ".join(re.escape(json.dumps(name).encode()) + b": " + kind.written
                             for name, kind in fields.items()) + rb"\}\n",
        re.MULTILINE,
    )


def read_written(path, fields: dict[str, Kind]) -> list[np.ndarray] | None:
    """The columns of a file whose every line is the row a writer emits, or None.

    That row is ``{"key": value, ...}`` with the keys of ``fields`` (at least
    two) in order, ``", "`` and ``": "`` between, each value in its kind's
    written form, and a ``\n`` at its end.  The file is matched one block
    of whole lines at a time, so it is never held whole.  Returns one
    column per field, in the order of ``fields``: names as a numpy bytes
    array, integers as int64 and numbers as float64.  None, and the caller
    reads the file with :func:`read_jsonl`, when it is not a regular file (a
    pipe could not be read again; a missing file is left to the strict
    reader's ``open``), is empty, or has a line (a blank one too) that is
    not such a row or holds an integer outside int64.
    """
    if not os.path.isfile(path):
        return None
    pattern = row_pattern(fields)
    converters = [kind.column for kind in fields.values()]
    blocks = []
    with open(path, "rb") as handle:
        while block := handle.read(_BLOCK_BYTES):
            columns = _block_columns(block + handle.readline(), pattern, converters)
            if columns is None:
                return None
            blocks.append(columns)
    if not blocks:
        return None
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _block_columns(block: bytes, pattern: re.Pattern, converters: list) -> list | None:
    """The columns of one block of whole lines, or None if a line is not a row."""
    rows = pattern.findall(block)
    # Each match is one whole line, so every line matched when the counts agree.
    if len(rows) != block.count(b"\n") or not block.endswith(b"\n"):
        return None
    try:
        return [convert(texts) for convert, texts in zip(converters, zip(*rows))]
    except OverflowError:  # an integer outside int64
        return None
