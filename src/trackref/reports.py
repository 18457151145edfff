"""Rendering of evaluation reports and summaries.

Reports are flat key-value documents with a stable key order; every real is
rounded to 4 decimal places (banker's rounding, the Python default).  The
JSON mirror carries exactly the same rounded numbers, and aggregates are
means of the rounded per-query values so that recomputing them from a report
reproduces the printed digits.
"""

from __future__ import annotations

import json
from typing import Sequence


def round4(value: float) -> float:
    return round(float(value), 4)


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_text(pairs: Sequence[tuple[str, object]]) -> str:
    return "".join(f"{key} = {format_value(value)}\n" for key, value in pairs)


def render_json(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"
