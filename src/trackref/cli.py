"""Batch command-line tool: rerank, eval, simulate, jitter, stats, oracle.

Exit codes: 0 success, 1 usage error, 2 data error.  Commands validate all
inputs before writing anything, warnings go to stderr, and every random draw
flows from the --seed flag through counter-based streams, so outputs are
byte-identical for a given seed at any --jobs level.  Only mask evaluation
uses --jobs threads, because its filters run in native code that releases
the interpreter lock; rerank, simulate, oracle and box evaluation measured no
faster on threads, so they run serially and accept the flag unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import fmean

from . import expressions, metrics, rerank, simulate
from .geometry import Mask, read_mask, write_mask
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


def _parallel_map(fn, items, jobs: int):
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _ensure_dir(path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------

def cmd_rerank(args) -> int:
    videos, unknown = rerank.read_proposals(args.proposals)
    if not videos:
        raise ValueError(f"no proposals in {args.proposals}")
    for field in sorted(unknown):
        _warn(f"ignoring unknown proposal field {field!r}")

    scored, tracks, baselines = {}, {}, {}
    for key, vp in sorted(videos.items()):
        scored[key] = rerank.rerank_scores(vp, window=args.window, top_k=args.top_k)
        tracks[key] = rerank.select_track(scored[key], vp.video_id, vp.query_id)
        if args.raw:
            baselines[key] = rerank.raw_select(vp)

    out = Path(args.out)
    _ensure_dir(out)
    rerank.write_tracks(out / "tracks.jsonl", tracks)
    rerank.write_scores(out / "scores.jsonl", scored)
    if args.raw:
        rerank.write_tracks(out / "raw_tracks.jsonl", baselines)
    _info(f"reranked {len(videos)} (video, query) pairs into {out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _read_mask_tree(root) -> dict[tuple[str, str], dict[int, Mask]]:
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"mask directory not found: {root}")
    out: dict[tuple[str, str], dict[int, Mask]] = {}
    for video_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for query_dir in sorted(p for p in video_dir.iterdir() if p.is_dir()):
            frames: dict[int, Mask] = {}
            for mask_file in sorted(query_dir.iterdir()):
                if mask_file.suffix not in (".pbm", ".rle"):
                    continue
                try:
                    frame = int(mask_file.stem)
                except ValueError:
                    raise ValueError(
                        f"mask filename is not a frame index: {mask_file}"
                    ) from None
                frames[frame] = read_mask(mask_file)
            if frames:
                out[(video_dir.name, query_dir.name)] = frames
    if not out:
        raise ValueError(f"no masks found under {root}")
    return out


def _eval_boxes(args):
    pred = rerank.read_tracks(args.pred_tracks)
    gt = rerank.read_tracks(args.gt_boxes)
    orphans = sorted(set(pred) - set(gt))
    if orphans:
        raise ValueError(
            "predicted tracks without ground truth: "
            + ", ".join(f"{v}/{q}" for v, q in orphans)
        )

    reports = {}
    for key in sorted(gt):
        track = pred.get(key, rerank.Track(key[0], key[1]))
        series = metrics.track_iou_series(track, gt[key].entries)
        reports[key] = {
            "track_miou": round4(fmean(series)),
            "auc": round4(metrics.auc_success(series)),
        }
    return reports


def _eval_masks(args):
    pred = _read_mask_tree(args.pred_masks)
    gt = _read_mask_tree(args.gt_masks)
    missing = sorted(set(gt) - set(pred))
    if missing:
        raise ValueError(
            "missing predicted masks for: " + ", ".join(f"{v}/{q}" for v, q in missing)
        )

    def work(key):
        gt_frames = gt[key]
        pred_frames = pred[key]
        absent = sorted(set(gt_frames) - set(pred_frames))
        if absent:
            raise ValueError(
                f"missing predicted masks for {key[0]}/{key[1]} frames {absent}"
            )
        report = metrics.evaluate_masks(
            {f: pred_frames[f] for f in gt_frames}, gt_frames, tolerance=args.f_tol
        )
        return key, {name: round4(getattr(report, name)) for name in _MASK_METRICS}

    return dict(_parallel_map(work, sorted(gt), args.jobs))


def _breakdown_section(pairs, document, label, per_query, attrs):
    metric_values = {key: values[label] for key, values in per_query.items()}
    try:
        groups = metrics.attribute_breakdown(metric_values, attrs)
    except ValueError as exc:
        raise ValueError(f"attribute breakdown for {label}: {exc}") from exc
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

    text = render_text(pairs)
    sys.stdout.write(text)
    if args.out is not None:
        out = Path(args.out)
        _ensure_dir(out)
        (out / "report.txt").write_text(text, encoding="utf-8")
        (out / "report.json").write_text(render_json(document), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cmd_simulate(args) -> int:
    scene_spec = simulate.parse_scene_spec(
        Path(args.scene).read_text(encoding="utf-8"), args.scene
    )
    corruption = simulate.parse_corruption_spec(
        Path(args.corrupt).read_text(encoding="utf-8"), args.corrupt
    )
    if args.scenes < 1:
        return _usage_error("--scenes must be >= 1")

    gt = simulate.generate_scene(scene_spec)

    scene_proposals = []
    for index in range(args.scenes):
        video = f"scene_{index:03d}"
        rng = SplitRng(corruption.seed, "sweep", args.seed, index)
        scene_proposals.append(
            (video, simulate.generate_proposals(gt, corruption, video, rng))
        )

    all_tracks: dict[tuple[str, str], rerank.Track] = {}
    all_proposals: dict[tuple[str, str], rerank.VideoProposals] = {}
    for video, proposals in scene_proposals:
        for query, vp in proposals.items():
            all_proposals[(video, query)] = vp
            entries = {
                frame: box
                for frame, box in gt.boxes[int(query)].items()
                if box is not None
            }
            all_tracks[(video, query)] = rerank.Track(video, query, entries)

    out = Path(args.out)
    _ensure_dir(out)
    written: list[Path] = []
    boxes_path = out / "gt_boxes.jsonl"
    rerank.write_tracks(boxes_path, all_tracks)
    written.append(boxes_path)
    proposals_path = out / "proposals.jsonl"
    rerank.write_proposals(proposals_path, all_proposals)
    written.append(proposals_path)
    extension = ".pbm" if args.mask_format == "pbm" else ".rle"
    for video, _ in scene_proposals:
        for query in sorted(gt.masks):
            mask_dir = out / "masks" / video / str(query)
            _ensure_dir(mask_dir)
            for frame in sorted(gt.masks[query]):
                path = mask_dir / f"{frame:05d}{extension}"
                write_mask(path, gt.masks[query][frame])
                written.append(path)

    manifest_lines = []
    for path in sorted(written):
        manifest_lines.append(f"{_digest(path.read_bytes())}  {path.relative_to(out)}")
    manifest = "\n".join(manifest_lines) + "\n"
    (out / "MANIFEST.txt").write_text(manifest, encoding="utf-8")
    sys.stdout.write(manifest)
    return 0


# ---------------------------------------------------------------------------
# jitter
# ---------------------------------------------------------------------------

def cmd_jitter(args) -> int:
    tracks = rerank.read_tracks(args.gt_boxes)
    if args.fraction < 0:
        return _usage_error("--fraction must be >= 0")
    root = SplitRng(args.seed, "jitter")
    jittered: dict[tuple[str, str], rerank.Track] = {}
    for key in sorted(tracks):
        track = tracks[key]
        entries = {}
        for frame in sorted(track.entries):
            rng = root.child(key[0], key[1], frame)
            entries[frame] = simulate.jitter_box(
                track.entries[frame], args.fraction, rng, args.width, args.height
            )
        jittered[key] = rerank.Track(key[0], key[1], entries)
    out = Path(args.out)
    _ensure_dir(out)
    rerank.write_tracks(out / "jittered.jsonl", jittered)
    _info(f"jittered {len(jittered)} tracks into {out}")
    return 0


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def _load_lexicons(directory) -> expressions.Lexicons:
    if directory is None:
        return expressions.bundled_lexicons()
    root = Path(directory)
    return expressions.Lexicons(
        spatial_words=expressions.load_word_list(root / "spatial_words.txt"),
        verb_words=expressions.load_word_list(root / "verb_words.txt"),
    )


def cmd_stats(args) -> int:
    corpus_path = args.corpus
    if corpus_path is None:
        corpus_path = str(expressions.bundled_sample_corpus_path())
    records = expressions.read_corpus(corpus_path)
    lexicons = _load_lexicons(args.lexicons)
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

    text = render_text(pairs)
    sys.stdout.write(text)
    if args.out is not None:
        out = Path(args.out)
        _ensure_dir(out)
        (out / "stats.txt").write_text(text, encoding="utf-8")
        (out / "stats.json").write_text(render_json(document), encoding="utf-8")
        expressions.write_attributes(out / "attributes.jsonl", tagged)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    gt = rerank.read_tracks(args.gt_boxes)
    tracks: dict[tuple[str, str], rerank.Track] = {}
    if args.oracle == "grounding":
        if args.proposals is None:
            return _usage_error("--oracle grounding requires --proposals")
        videos, unknown = rerank.read_proposals(args.proposals)
        if not videos:
            raise ValueError(f"no proposals in {args.proposals}")
        for field in sorted(unknown):
            _warn(f"ignoring unknown proposal field {field!r}")
        orphans = sorted(set(videos) - set(gt))
        if orphans:
            raise ValueError(
                "proposals without ground truth: "
                + ", ".join(f"{v}/{q}" for v, q in orphans)
            )
        for key in sorted(videos):
            tracks[key] = rerank.oracle_assign(videos[key], gt[key].entries)
    else:  # oracle box proposals: ground-truth boxes become the proposal pool
        for key in sorted(gt):
            proposals = [
                rerank.Proposal(frame, box, 1.0, 1.0, 0)
                for frame, box in sorted(gt[key].entries.items())
            ]
            vp = rerank.VideoProposals.from_proposals(key[0], key[1], proposals)
            scored = rerank.rerank_scores(vp, window=args.window, top_k=args.top_k)
            tracks[key] = rerank.select_track(scored, key[0], key[1])

    out = Path(args.out)
    _ensure_dir(out)
    rerank.write_tracks(out / "tracks.jsonl", tracks)
    _info(f"wrote {len(tracks)} oracle tracks into {out}")
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
        help="threads for mask evaluation (default 1); other work runs serially",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trackref", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("rerank", parents=[], help="temporally re-rank proposals into tracks")
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
    p.add_argument("--f-tol", type=int, default=None)
    p.add_argument("--out")
    _add_jobs(p)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("simulate", help="generate synthetic scenes and corrupted proposals")
    p.add_argument("--scene", required=True)
    p.add_argument("--corrupt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-format", choices=("rle", "pbm"), default="rle")
    _add_jobs(p)
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("jitter", help="randomly perturb box edges within a fraction")
    p.add_argument("--gt-boxes", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_jitter)

    p = commands.add_parser("stats", help="referring-expression corpus statistics and tags")
    p.add_argument("--corpus")
    p.add_argument("--lexicons")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = commands.add_parser("oracle", help="ground-truth-assisted track assignment")
    p.add_argument("--oracle", choices=("grounding", "boxes"), required=True)
    p.add_argument("--proposals")
    p.add_argument("--gt-boxes", required=True)
    p.add_argument("--window", type=_positive_int, default=None)
    p.add_argument("--top-k", type=_positive_int, default=None)
    p.add_argument("--out", required=True)
    _add_jobs(p)
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
