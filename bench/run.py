"""Benchmark of the trackref pipeline: simulate -> rerank -> eval.

    python3 bench/run.py --workload tube-full --seed 17 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, printed as a table
    python3 bench/run.py --scale smoke --seconds 1   # tiny inputs, same stages

Run it from the root of a checkout; it imports ``trackref`` from ``src/``.
One workload run is one process.  It makes the workload's input files from
the seed, then repeats the workload's CLI calls (through
``trackref.cli.main``, ``--jobs 1``) until ``--seconds`` have passed and at
least three passes are done, and reports medians over the passes.  Set-up
time is ``import trackref.cli``, timed in this process and, after each pass,
in a fresh interpreter, so its samples spread over the whole run.  Output
checks run untimed after the stage they check.

With ``--trace 0`` the last line of output carries the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` passes alternate between untraced and
traced, and the last line carries the per-layer metrics: medians over the
traced passes, plus the tracing overhead (traced minus untraced total).  Run
details, and with tracing the spans, are written under ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
MIN_PASSES = 3
STAGE_KINDS = ("simulate", "rerank", "eval")
_SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import trackref.cli; print(time.perf_counter() - t)"
)


def _import_cli() -> float:
    """Import trackref.cli from this checkout; return the seconds it took."""
    if not (SRC / "trackref" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'trackref'} not found; run from a trackref checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import trackref.cli  # noqa: F401
    return time.perf_counter() - start


def _setup_probe() -> float:
    """Seconds a fresh interpreter takes to import trackref.cli."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def _environment() -> dict:
    import numpy
    import scipy

    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        revision = done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
    }


class Ledger:
    """Operations attempted and failed: CLI calls plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def check(self, name: str, fn, *args):
        """Run one check; any exception counts as a failed operation."""
        try:
            result = fn(*args)
        except Exception as exc:  # a broken output must not stop the run
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.record(name, True)
        return result


class Run:
    """One workload run: passes over the pipeline, their checks and timings."""

    def __init__(self, workload, seed: int, scale: str, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.ledger = Ledger()
        self.passes = 0
        self.first_outputs: dict[str, str] = {}
        self.seed = seed
        # On the default seed, the simulate MANIFESTs and the mask report must
        # match the digests recorded in digests.json byte for byte.
        self.recorded = None
        if seed == workloads.DEFAULT_SEED:
            recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
            self.recorded = recorded[scale].get(workload.name, {})
        self.track_miou = None
        self.switches = None

    def clear_outputs(self) -> None:
        for stage in self.workload.stages:
            shutil.rmtree(self.run_dir / stage.out, ignore_errors=True)

    def one_pass(self, tracer=None) -> dict[str, float]:
        """Run every stage once; return wall seconds per stage kind."""
        self.clear_outputs()
        first = self.passes == 0
        self.passes += 1
        seconds = dict.fromkeys(STAGE_KINDS, 0.0)
        for stage in self.workload.stages:
            span = tracer.root(f"cli.{stage.kind}") if tracer else contextlib.nullcontext()
            errors = io.StringIO()
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(errors), span:
                start = time.perf_counter()
                code = cli.main(list(stage.argv))
                seconds[stage.kind] += time.perf_counter() - start
            self.ledger.record(f"{stage.label} exit code", code == 0, errors.getvalue().strip())
            self._check_stage(stage, first)
        return seconds

    def _outputs(self, stage) -> list[str]:
        out = stage.out
        if stage.kind == "simulate":
            return [f"{out}/MANIFEST.txt"]
        if stage.kind == "rerank":
            return [f"{out}/tracks.jsonl", f"{out}/raw_tracks.jsonl", f"{out}/scores.jsonl"]
        return [f"{out}/report.json"]

    def _check_stage(self, stage, first: bool) -> None:
        ledger, run_dir = self.ledger, self.run_dir
        for name in self._outputs(stage):
            digest = ledger.check(f"{name} readable", checks.sha256, run_dir / name)
            if digest is None:
                continue
            if first:
                self.first_outputs[name] = digest
                if self.recorded is not None and name in self.workload.digested:
                    expected = self.recorded.get(name)
                    ledger.record(f"{name} matches the recorded digest", digest == expected,
                                  f"expected {expected}, got {digest}")
            else:
                ledger.record(f"{name} identical across passes",
                              digest == self.first_outputs.get(name), "output changed")
        if not first:
            return
        if stage.kind == "simulate":
            ledger.check(f"{stage.out} MANIFEST digests", checks.check_manifest,
                         run_dir / stage.out)
        elif stage.kind == "rerank":
            ledger.check("rerank matches the reference", checks.check_rerank, run_dir,
                         self.seed, self.workload.window, self.workload.top_k)
            self.switches = ledger.check(
                "id switches", lambda: tuple(
                    checks.id_switches(checks.read_tracks(run_dir / f"tracks/{name}"))
                    for name in ("tracks.jsonl", "raw_tracks.jsonl")
                ))
        elif stage.label == "eval":
            self.track_miou = ledger.check(
                "box report", checks.check_box_report, run_dir / "eval/report.json",
                run_dir / "tracks/tracks.jsonl", run_dir / "sim/gt_boxes.jsonl",
            )


def _median_by_name(rows: list[dict]) -> dict[str, float]:
    names = {name for row in rows for name in row}
    return {name: statistics.median(row.get(name, 0.0) for row in rows) for name in names}


def run_workload(args, setup_first: float) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.chdir(run_dir)  # the stages name their files relative to the run directory
    try:
        setup = [setup_first]
        workload = workloads.build(args.workload, args.seed, args.scale, run_dir)
        run = Run(workload, args.seed, args.scale, run_dir)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while len(plain) + len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            if tracer is not None and len(plain) > len(traced):
                first_span = len(tracer.spans)
                tracer.reset_counts()
                with tracer.installed():
                    traced.append(run.one_pass(tracer))
                layers.append(tracer.layer_metrics(first_span))
            else:
                plain.append(run.one_pass())
                setup.append(_setup_probe())
        elapsed = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for timings in plain + traced:
            timings["total"] = sum(timings[kind] for kind in STAGE_KINDS)
        stage_medians = _median_by_name(plain)
        switches = run.switches or (None, None)
        values = {
            "setup_s": statistics.median(setup),
            **{f"{kind}_s": stage_medians[kind] for kind in (*STAGE_KINDS, "total")},
            "peak_rss_mb": peak_rss_mb,
            "track_miou": run.track_miou,
        }
        if tracer is not None:
            counts = [{k: v for k, v in row.items() if not k.endswith((".s", ".self_s"))}
                      for row in layers]
            run.ledger.record("layer counts identical across traced passes",
                              all(row == counts[0] for row in counts), str(counts))
            records, frame_pairs, iou_entries = checks.rerank_work(
                run_dir / "sim/proposals.jsonl", workload.window, workload.top_k)
            values = {
                **_median_by_name(layers),
                "rerank.read_proposals.records": records,
                "rerank.frame_pairs": frame_pairs,
                "rerank.iou_entries": iou_entries,
                "rerank.id_switches": switches[0],
                "rerank.raw_id_switches": switches[1],
                "trace.spans": len(tracer.spans) / len(traced),
                "trace.overhead_s": _median_by_name(traced)["total"] - stage_medians["total"],
            }
        section = "per_layer" if tracer is not None else "end_to_end"
        # A layer the workload never calls reads 0; a value a failed check
        # left unset also reads 0, and that run is reported as not correct.
        metrics = {}
        for m in spec[section]:
            value = values.get(m["name"]) or 0
            if m["unit"] != "s" and value == int(value):
                value = int(value)  # counts and bytes repeat exactly
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        ledger = run.ledger
        details = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "trace": args.trace, "environment": _environment(), "setup_s": setup,
            "passes": plain, "traced_passes": traced, "layers": layers,
            "id_switches": switches[0], "raw_id_switches": switches[1],
            "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics,
        }
        _report(args, details, elapsed)
        path = _results_path(args.workload, args.scale, args.seed, args.trace)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(details, indent=1), encoding="utf-8")
        if tracer is not None:
            tracer.write(path.with_suffix(".spans.jsonl"))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def _results_path(workload: str, scale: str, seed: int, trace: int) -> Path:
    return WORK / "results" / f"{workload}-{scale}-seed{seed}-trace{int(trace)}.json"


def _report(args, details: dict, elapsed: float) -> None:
    passes = len(details["passes"]) + len(details["traced_passes"])
    print(f"{args.workload} (seed {args.seed}, {args.scale} scale, trace {int(args.trace)}): "
          f"{passes} passes in {elapsed:.1f} s")
    for name, metric in details["metrics"].items():
        print(f"  {name:34s} {metric['value']!r:>22} {metric['unit']}")
    print(f"  {'id_switches':34s} {details['id_switches']!r:>22} count"
          f"  (raw argmax: {details['raw_id_switches']})")
    print(f"  {'ops_failed':34s} {details['failed']:>22} of {details['attempted']}")
    env = details["environment"]
    print("  " + ", ".join(f"{k} {v}" for k, v in env.items()))


def run_all(args) -> int:
    """Run each workload in its own process and print the metrics side by side."""
    names = list(workloads.WORKLOADS)
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    results = {}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(argv, cwd=ROOT, timeout=900)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        path = _results_path(name, args.scale, seed, args.trace)
        results[name] = json.loads(path.read_text(encoding="utf-8"))

    def row(label, values):
        cells = "".join(f"{v:>16.6g}" if isinstance(v, float) else f"{v!s:>16}" for v in values)
        print(f"{label:40s}{cells}")

    print()
    row("metric", names)
    for metric, entry in results[names[0]]["metrics"].items():
        row(f"{metric} [{entry['unit']}]",
            [results[n]["metrics"][metric]["value"] for n in names])
    row("id_switches [count]", [results[n]["id_switches"] for n in names])
    row("ops_failed", [f"{results[n]['failed']} of {results[n]['attempted']}" for n in names])
    return 0 if all(results[n]["failed"] == 0 for n in names) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "tube-full", "many-short", "masks-hd"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of passes per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = spec["run_seconds"]
    return args


if __name__ == "__main__":
    arguments = parse_args()
    if arguments.workload == "all":
        import workloads

        sys.exit(run_all(arguments))
    setup_seconds = _import_cli()
    import checks
    import tracing
    import workloads
    from trackref import cli

    if arguments.seed is None:
        arguments.seed = workloads.DEFAULT_SEED
    sys.exit(run_workload(arguments, setup_seconds))
