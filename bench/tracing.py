"""Spans and work counters for the traced run, recorded from outside trackref.

``Tracer.installed()`` replaces public functions of each trackref module with
wrappers that record a span (name, start, end, parent span) in memory, and
puts the originals back on exit.  Each name is patched where its caller looks
it up: ``metrics`` binds ``mask_iou``, ``boundary_pixels`` and ``box_iou`` by
name, ``simulate`` binds ``warp_mask``, and ``cli`` binds ``read_mask``,
``write_mask`` and the report renderers.  ``SplitRng`` methods are patched on
the class and only counted, because they run hundreds of thousands of times.

A span's self time is its duration minus the durations of its direct
children.  The benchmark opens one root span per CLI call, so the self times
of a stage's spans add up to the stage's traced wall time.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from trackref import cli, expressions, metrics, rerank, simulate
from trackref.rng import SplitRng

_ROOT = -1


def _extension(path) -> str:
    return str(path).rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        # [name, start, end, parent index]; the index is into ``spans``.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # (metric, path): sizes are summed after the stage, outside every span.
        self.files: list[tuple[str, str]] = []
        self._stack = [_ROOT]

    @contextmanager
    def root(self, name: str):
        record = [name, time.perf_counter(), 0.0, _ROOT]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            record = [span_name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if after is not None:
                    after(span_name, args)

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patches(self):
        def file_bytes(span_name, args):
            self.files.append((f"{span_name}.bytes", str(args[0])))

        def mask_frames(span_name, args):
            self.counts["metrics.mask_frames"] += len(args[1])

        spans = [
            (rerank, "read_proposals", "rerank.read_proposals", None),
            (rerank, "write_proposals", "rerank.write_proposals", file_bytes),
            (rerank, "rerank_scores", "rerank.rerank_scores", None),
            (rerank, "select_track", "rerank.select_track", None),
            (rerank, "raw_select", "rerank.raw_select", None),
            (rerank, "write_tracks", "rerank.write_tracks", None),
            (rerank, "write_scores", "rerank.write_scores", file_bytes),
            (rerank, "read_tracks", "rerank.read_tracks", None),
            (simulate, "generate_scene", "simulate.generate_scene", None),
            (simulate, "generate_proposals", "simulate.generate_proposals", None),
            (simulate, "warp_mask", "geometry.warp_mask", None),
            (cli, "read_mask",
             lambda args: f"geometry.read_mask.{_extension(args[0])}", file_bytes),
            (cli, "write_mask",
             lambda args: f"geometry.write_mask.{_extension(args[0])}", file_bytes),
            (metrics, "mask_iou", "geometry.mask_iou", None),
            (metrics, "boundary_pixels", "geometry.boundary_pixels", None),
            (metrics, "box_iou", "geometry.box_iou", None),
            (metrics, "evaluate_masks", "metrics.evaluate_masks", mask_frames),
            (metrics, "boundary_f", "metrics.boundary_f", None),
            (metrics, "temporal_stability_proxy", "metrics.temporal_stability_proxy", None),
            (metrics, "track_iou_series", "metrics.track_iou_series", None),
            (metrics, "auc_success", "metrics.auc_success", None),
            (metrics, "attribute_breakdown", "metrics.attribute_breakdown", None),
            (expressions, "read_attributes", "expressions.read_attributes", None),
            (cli, "render_text", "reports.render_text", None),
            (cli, "render_json", "reports.render_json", None),
        ]
        for owner, attribute, name, after in spans:
            yield owner, attribute, self._wrap(name, getattr(owner, attribute), after)
        for attribute in ("child", "next_u64"):
            original = getattr(SplitRng, attribute)
            yield SplitRng, attribute, self._count(f"rng.{attribute}.calls", original)

    @contextmanager
    def installed(self):
        originals = []
        try:
            for owner, attribute, wrapper in self._patches():
                originals.append((owner, attribute, getattr(owner, attribute)))
                setattr(owner, attribute, wrapper)
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def layer_metrics(self, first_span: int = 0) -> dict[str, float]:
        """Self time and call count per span name, from ``first_span`` on.

        Also adds each root's inclusive time as ``<root>.s`` and its own self
        time as ``<root>.self_s``, the summed file sizes, and the counters.
        """
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent != _ROOT:
                child_time[parent - first_span] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, parent), children in zip(spans, child_time):
            self_time = end - start - children
            if parent == _ROOT:
                out[f"{name}.s"] += end - start
                out[f"{name}.self_s"] += self_time
            else:
                out[f"{name}.s"] += self_time
                out[f"{name}.calls"] += 1
        for metric, path in self.files:
            out[metric] += Path(path).stat().st_size
        out.update(self.counts)
        return dict(out)

    def reset_counts(self) -> None:
        self.counts.clear()
        self.files.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, with its root span as trace id."""
        roots = []
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                roots.append(index if parent == _ROOT else roots[parent])
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": None if parent == _ROOT else parent, "trace": roots[index],
                }) + "\n")
