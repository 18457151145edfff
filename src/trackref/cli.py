"""Batch command-line tool: rerank, eval, simulate, jitter, stats, oracle.

``oracle`` picks each frame's proposal that best overlaps the ground-truth box;
``eval --pred-tracks G --gt-boxes G`` scores the ground truth G itself.

Exit codes: 0 success, 1 usage error, 2 data error.  Commands write --out
only through ``_output``, so a failed run leaves --out as it was.  Warnings go
to stderr.  Every random draw flows from --seed through counter-based streams,
so outputs are byte-identical for a given seed.  Every command runs serially: --jobs (rerank, eval and
simulate) is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
from collections.abc import Mapping
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from statistics import fmean

from . import expressions, metrics, rerank, simulate
from .geometry import Box, read_mask, write_mask
from .jsonl import located
from .reports import render_json, render_text, round4
from .rng import SplitRng

_BOX_METRICS = ("track_miou", "auc")
_MASK_METRICS = (
    "j_mean", "j_recall", "j_decay",
    "f_mean", "f_recall", "f_decay",
    "t_proxy", "jf",
)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 1


@contextmanager
def _output(out):
    """Yield where to write ``out``'s files: a missing ``out`` itself, removed on
    any error, or a hidden staging directory in an existing one, whose files
    replace ``out``'s once all are written and none clashes; the rest stay."""
    if out is None:
        yield None
        return
    out = Path(out)
    if not out.is_dir():
        out.mkdir(parents=True)
        try:
            yield out
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise
        return
    stage = Path(tempfile.mkdtemp(prefix=".trackref-", dir=out))
    try:
        yield stage
        moves = [(path, out / path.relative_to(stage)) for path in sorted(stage.rglob("*"))]
        for path, target in moves:
            if target.exists() and target.is_dir() != path.is_dir():
                raise IsADirectoryError(f"cannot write {target}: a file and a directory clash")
        for path, target in moves:
            if path.is_dir():
                target.mkdir(exist_ok=True)
            else:
                os.replace(path, target)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_report(out, stem: str, pairs, document) -> str:
    """The text report; with ``out``, also write it to ``<stem>.txt`` and the
    document to ``<stem>.json`` there.  The caller prints the text once
    ``--out`` is in place, so a failed write prints no report."""
    text = render_text(pairs)
    if out is not None:
        (out / f"{stem}.txt").write_text(text, encoding="utf-8")
        (out / f"{stem}.json").write_text(render_json(document), encoding="utf-8")
    return text


def _require_entries(available, wanted, holder: str, source) -> None:
    """Abort naming every (video, query) key of ``wanted`` not in ``available``."""
    missing = sorted(set(wanted) - set(available))
    if missing:
        keys = ", ".join(f"{video}/{query}" for video, query in missing)
        raise ValueError(f"{holder} has no entry for {keys} (from {source})")


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------

def _read_proposals(path) -> dict[tuple[str, str], rerank.VideoProposals]:
    videos, unknown = rerank.read_proposals(path)
    if not videos:
        raise ValueError(f"no proposals in {path}")
    for field in sorted(unknown):
        _warn(f"ignoring unknown proposal field {field!r}")
    return videos


def cmd_rerank(args) -> int:
    videos = _read_proposals(args.proposals)
    scored, tracks, baselines = {}, {}, {}
    for key, vp in sorted(videos.items()):
        with located(f"{args.proposals}: {key[0]}/{key[1]}"):
            scored[key] = rerank.rerank_scores(vp, window=args.window, top_k=args.top_k)
        tracks[key] = rerank.select_track(scored[key])
        if args.raw:
            baselines[key] = rerank.raw_select(vp)

    with _output(args.out) as out:
        rerank.write_tracks(out / "tracks.jsonl", tracks)
        rerank.write_scores(out / "scores.jsonl", scored)
        if args.raw:
            rerank.write_tracks(out / "raw_tracks.jsonl", baselines)
    _info(f"reranked {len(videos)} (video, query) pairs into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _list_mask_tree(root) -> dict[tuple[str, str], dict[int, Path]]:
    """``{(video, query): {frame: path}}`` of a mask tree; nothing is decoded."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"mask directory not found: {root}")
    out: dict[tuple[str, str], dict[int, Path]] = {}
    for video_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for query_dir in sorted(p for p in video_dir.iterdir() if p.is_dir()):
            files: dict[int, Path] = {}
            for mask_file in sorted(query_dir.iterdir()):
                if mask_file.suffix not in (".pbm", ".rle"):
                    continue
                stem = mask_file.stem
                if not (stem.isascii() and stem.isdigit() and int(stem) >= 1):
                    raise ValueError(f"mask filename is not a frame index: {mask_file}")
                frame = int(stem)
                if frame in files:
                    raise ValueError(
                        f"two mask files name frame {frame}: {files[frame]} and {mask_file}"
                    )
                files[frame] = mask_file
            if files:
                out[(video_dir.name, query_dir.name)] = files
    if not out:
        raise ValueError(f"no masks found under {root}")
    return out


def _eval_boxes(args):
    pred = rerank.read_tracks(args.pred_tracks)
    gt = rerank.read_tracks(args.gt_boxes)
    _require_entries(gt, pred, f"ground-truth file {args.gt_boxes}", args.pred_tracks)

    reports = {}
    for key in sorted(gt):
        with located(f"{args.pred_tracks} vs {args.gt_boxes}: {key[0]}/{key[1]}"):
            series = metrics.track_iou_series(pred.get(key, {}), gt[key])
        reports[key] = {
            "track_miou": round4(fmean(series)),
            "auc": round4(metrics.auc_success(series)),
        }
    return reports


def _eval_masks(args):
    pred = _list_mask_tree(args.pred_masks)
    gt = _list_mask_tree(args.gt_masks)
    _require_entries(pred, gt, f"predicted mask tree {args.pred_masks}", args.gt_masks)
    for key in sorted(gt):
        absent = sorted(set(gt[key]) - set(pred[key]))
        if absent:
            raise ValueError(
                f"predicted mask tree {args.pred_masks} has no masks for "
                f"{key[0]}/{key[1]} frames {absent} (from {args.gt_masks})"
            )
    # Every listed file is decoded once, a key or frame that no ground truth
    # uses too, so that a corrupt one still fails the run.
    reports = {}
    for key in sorted(pred):
        report = _eval_mask_key(args, key, pred[key], gt.get(key, {}))
        if report is not None:
            reports[key] = report
    return reports


class _MaskFiles(Mapping):
    """``{frame: mask}`` over ``{frame: path}``: each access decodes the file.

    A decode error leaves as a ``_MaskFileError``, which ``located`` passes
    unchanged, since its message already names the file.
    """

    def __init__(self, files):
        self._files = files

    def __getitem__(self, frame):
        try:
            return read_mask(self._files[frame])
        except ValueError as exc:
            raise _MaskFileError(exc) from None

    def __iter__(self):
        return iter(self._files)

    def __len__(self):
        return len(self._files)


class _MaskFileError(Exception):
    """A mask file's ValueError, carried past ``located``."""


def _eval_mask_key(args, key, pred_files, gt_files):
    """One key's report, or None without ground truth.

    ``evaluate_masks`` decodes each scored frame as it reaches it, so at most
    two frames of each tree are held; the predicted frames that no ground
    truth uses are decoded first, and dropped.
    """
    for frame in sorted(pred_files.keys() - gt_files.keys()):
        read_mask(pred_files[frame])
    if not gt_files:
        return None
    pred = _MaskFiles({frame: pred_files[frame] for frame in gt_files})
    try:
        with located(f"{args.pred_masks} vs {args.gt_masks}: {key[0]}/{key[1]}"):
            report = metrics.evaluate_masks(pred, _MaskFiles(gt_files), tolerance=args.f_tol)
    except _MaskFileError as exc:
        raise exc.args[0] from None
    return {name: round4(getattr(report, name)) for name in _MASK_METRICS}


def _breakdown_section(pairs, document, label, per_query, attrs):
    metric_values = {key: values[label] for key, values in per_query.items()}
    groups = metrics.attribute_breakdown(metric_values, attrs)
    for group, value in groups.items():
        pairs.append((f"breakdown/{label}/{group}", round4(value)))
        document.setdefault("breakdown", {}).setdefault(label, {})[group] = round4(value)


def cmd_eval(args) -> int:
    have_boxes = args.pred_tracks is not None or args.gt_boxes is not None
    have_masks = args.pred_masks is not None or args.gt_masks is not None
    if have_boxes and (args.pred_tracks is None or args.gt_boxes is None):
        return _usage_error("--pred-tracks and --gt-boxes must be given together")
    if have_masks and (args.pred_masks is None or args.gt_masks is None):
        return _usage_error("--pred-masks and --gt-masks must be given together")
    if not have_boxes and not have_masks:
        return _usage_error("nothing to evaluate: give tracks and/or masks")

    box_reports = _eval_boxes(args) if have_boxes else {}
    mask_reports = _eval_masks(args) if have_masks else {}
    attrs = None
    if args.attrs is not None:
        attrs = expressions.read_attributes(args.attrs)
        holder = f"attributes file {args.attrs}"
        _require_entries(attrs, box_reports, holder, args.gt_boxes)
        _require_entries(attrs, mask_reports, holder, args.gt_masks)

    pairs: list[tuple[str, object]] = []
    document: dict = {}
    for label, per_query, names in (
        ("box", box_reports, _BOX_METRICS),
        ("mask", mask_reports, _MASK_METRICS),
    ):
        if not per_query:
            continue
        pairs.append((f"{label}_query_count", len(per_query)))
        document[f"{label}_query_count"] = len(per_query)
        section = document.setdefault("queries", {})
        for key in sorted(per_query):
            video, query = key
            entry = section.setdefault(f"{video}/{query}", {})
            for name in names:
                value = per_query[key][name]
                pairs.append((f"query/{video}/{query}/{name}", value))
                entry[name] = value
        aggregate = document.setdefault("aggregate", {})
        for name in names:
            value = round4(fmean(per_query[key][name] for key in per_query))
            pairs.append((f"aggregate/{name}", value))
            aggregate[name] = value
    if attrs is not None:
        if box_reports:
            _breakdown_section(pairs, document, "track_miou", box_reports, attrs)
        if mask_reports:
            _breakdown_section(pairs, document, "jf", mask_reports, attrs)

    with _output(args.out) as out:
        text = _write_report(out, "report", pairs, document)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _read_spec(parse, path):
    """``parse(text, path)`` of the spec file; a file that is not UTF-8 is named."""
    with located(path):
        text = Path(path).read_text(encoding="utf-8")
    return parse(text, path)


def cmd_simulate(args) -> int:
    spec = _read_spec(simulate.parse_scene_spec, args.scene)
    corruption = _read_spec(simulate.parse_corruption_spec, args.corrupt)
    with located(f"{args.scene} and {args.corrupt}"):
        simulate.check_proposal_rows(spec, corruption, args.scenes)
    # In name order, the order write_proposals writes keys in (scene_1000 < scene_101).
    videos = sorted((f"scene_{index:03d}", index) for index in range(args.scenes))
    queries = [str(query) for query in range(1, len(spec.objects) + 1)]
    extension = ".pbm" if args.mask_format == "pbm" else ".rle"
    with _output(args.out) as out:
        # Every scene shares the ground-truth masks: each is encoded and hashed
        # once into scene 000's file, and the other scenes' paths are hard links
        # to it, or copies where the file system has no hard links.  Paths are
        # strings relative to ``out``.
        for video, _ in videos:
            for query in queries:
                (out / "masks" / video / query).mkdir(parents=True)
        digests = {}

        def write_scene_mask(query, frame, mask):
            name = f"{query}/{frame:05d}{extension}"
            first, *others = (f"masks/{video}/{name}" for video, _ in videos)
            source = f"{out}/{first}"
            digests[first] = digest = write_mask(source, mask)
            for path in others:
                try:
                    os.link(source, f"{out}/{path}")
                except OSError:
                    shutil.copyfile(source, f"{out}/{path}")
                digests[path] = digest

        with located(args.scene):
            boxes = simulate.generate_scene(spec, write_scene_mask)
        # Every scene shares the ground truth: one read-only track per query.
        tracks = {(video, query): boxes[int(query)] for video, _ in videos for query in queries}
        digests["gt_boxes.jsonl"] = rerank.write_tracks(out / "gt_boxes.jsonl", tracks)

        def scene_tables():
            # Each scene's tables are drawn when the writer reaches them.
            for video, index in videos:
                rng = SplitRng(corruption.seed, "sweep", args.seed, index)
                tables = simulate.generate_proposals(spec, boxes, corruption, rng)
                for query in sorted(tables):
                    yield (video, query), tables[query]

        digests["proposals.jsonl"] = rerank.write_proposals(
            out / "proposals.jsonl", scene_tables())
        # Path order: component by component, as pathlib sorts.
        manifest = "".join(
            f"{digests[path]}  {path}\n" for path in sorted(digests, key=lambda p: p.split("/"))
        )
        (out / "MANIFEST.txt").write_text(manifest, encoding="utf-8")
    sys.stdout.write(manifest)
    return 0


# ---------------------------------------------------------------------------
# jitter
# ---------------------------------------------------------------------------

def cmd_jitter(args) -> int:
    tracks = rerank.read_tracks(args.gt_boxes)
    root = SplitRng(args.seed, "jitter")
    jittered: dict[tuple[str, str], dict[int, Box]] = {}
    for key in sorted(tracks):
        entries = jittered[key] = {}
        # Folding is sequential: child(video, query).child(frame) is child(video, query, frame).
        key_rng = root.child(*key)
        for frame, box in sorted(tracks[key].items()):
            with located(f"{args.gt_boxes}: {key[0]}/{key[1]}, frame {frame}"):
                entries[frame] = simulate.jitter_box(
                    box, args.fraction, key_rng.child(frame), args.width, args.height
                )
    with _output(args.out) as out:
        rerank.write_tracks(out / "jittered.jsonl", jittered)
    _info(f"jittered {len(jittered)} tracks into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    corpus_path = args.corpus
    if corpus_path is None:
        corpus_path = str(expressions.bundled_sample_corpus_path())
    records = expressions.read_corpus(corpus_path)
    lexicons = expressions.load_lexicons(args.lexicons)
    stats = expressions.corpus_stats(records, lexicons)
    objects_per_video = expressions.num_objects_by_video(records)
    tagged = [
        (record, expressions.tag_query(record, lexicons, objects_per_video[record.video_id]))
        for record in records
    ]

    pairs: list[tuple[str, object]] = [("records", len(records))]
    document: dict = {"records": len(records), "groups": {}}
    for annotation_type in expressions.ANNOTATION_TYPES:
        if annotation_type not in stats:
            continue
        group = stats[annotation_type]
        entry = {
            "count": group.count,
            "mean_length": round4(group.mean_length),
            "verb_fraction": round4(group.verb_fraction),
            "spatial_fraction": round4(group.spatial_fraction),
        }
        for name, value in entry.items():
            pairs.append((f"group/{annotation_type}/{name}", value))
        document["groups"][annotation_type] = entry

    with _output(args.out) as out:
        text = _write_report(out, "stats", pairs, document)
        if out is not None:
            expressions.write_attributes(out / "attributes.jsonl", tagged)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    gt = rerank.read_tracks(args.gt_boxes)
    videos = _read_proposals(args.proposals)
    _require_entries(gt, videos, f"ground-truth file {args.gt_boxes}", args.proposals)
    tracks = {}
    for key, vp in videos.items():
        with located(f"{args.proposals} vs {args.gt_boxes}: {key[0]}/{key[1]}"):
            tracks[key] = rerank.oracle_assign(vp, gt[key])

    with _output(args.out) as out:
        rerank.write_tracks(out / "tracks.jsonl", tracks)
    _info(f"wrote {len(tracks)} oracle tracks into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: usage error: {message}\n")


def _add_jobs(parser):
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; has no effect (all work runs serially)",
    )


def _positive_int(text: str, minimum: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _finite_float(text: str, positive: bool = False) -> float:
    """A finite float that is >= 0, or > 0 when ``positive``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = ">" if positive else ">="
        raise argparse.ArgumentTypeError(f"must be finite and {bound} 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trackref", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("rerank", help="temporally re-rank proposals into tracks")
    p.add_argument("--proposals", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=_positive_int, default=None)
    p.add_argument("--top-k", type=_positive_int, default=None)
    p.add_argument("--raw", action="store_true", help="also write the raw argmax baseline")
    _add_jobs(p)
    p.set_defaults(func=cmd_rerank)

    p = commands.add_parser("eval", help="evaluate box tracks and/or mask predictions")
    p.add_argument("--pred-tracks")
    p.add_argument("--gt-boxes")
    p.add_argument("--pred-masks")
    p.add_argument("--gt-masks")
    p.add_argument("--attrs")
    p.add_argument("--f-tol", type=partial(_positive_int, minimum=0), default=None)
    p.add_argument("--out")
    _add_jobs(p)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("simulate", help="generate synthetic scenes and corrupted proposals")
    p.add_argument("--scene", required=True)
    p.add_argument("--corrupt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-format", choices=("rle", "pbm"), default="rle")
    _add_jobs(p)
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("jitter", help="randomly perturb box edges within a fraction")
    p.add_argument("--gt-boxes", required=True)
    p.add_argument("--fraction", type=_finite_float, required=True)
    p.add_argument("--width", type=partial(_finite_float, positive=True), required=True)
    p.add_argument("--height", type=partial(_finite_float, positive=True), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_jitter)

    p = commands.add_parser("stats", help="referring-expression corpus statistics and tags")
    p.add_argument("--corpus")
    p.add_argument("--lexicons")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = commands.add_parser(
        "oracle", help="pick each frame's proposal that best overlaps the ground-truth box")
    p.add_argument("--proposals", required=True)
    p.add_argument("--gt-boxes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
