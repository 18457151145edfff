"""The one strict reader behind every JSON Lines input.

Proposals, tracks, the referring-expression corpus and its attribute tags
are read by :func:`read_jsonl`: the only code that parses their lines and
checks their fields.  Every error it raises, the record builder's included,
starts with ``path:line``.  A schema maps each field name to a kind, which
accepts values by their exact type after ``json.loads`` (a bool is never an
integer or a number, a string never a number) and converts a few of them.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import NamedTuple


class Kind(NamedTuple):
    """Accepted JSON value types, each mapped to a converter (None: keep)."""

    expected: str
    accepts: dict


NAME = Kind("a string or an integer", {str: None, int: str})
NUMBER = Kind("a number", {float: None, int: float})
INTEGER = Kind("an integer", {int: None})
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
