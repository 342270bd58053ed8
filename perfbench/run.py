"""tabflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload render --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ./src. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, taken from
iterations run with tracing wrappers installed (see tracer.py). Everything
the run writes stays under .perfbench_work/ (removed at exit) and
.perfbench_out/ (results and traces). See README.md for the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("render", "train", "transfer_eval"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="timed iterations repeat until their walls sum to this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("default", "tiny"), default="default",
                   help="tiny shrinks the corpus for smoke tests")
    return p.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setup, iterations) -> dict:
    """Medians of times each divided by the machine slowdown probed around it."""
    return {
        "setup_s": (_median([t / slow for t, slow in setup]), "s"),
        "wall_s": (_median([it.wall_s / it.slowdown for it in iterations]), "s"),
        "audio_s_per_s": (_median([it.audio_s * it.slowdown / it.throughput_s
                                   for it in iterations]), "audio-s/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def workload_metrics(name, iterations, attempted, failed, chunk_seconds) -> dict:
    """Per-workload throughput names, printed for people and not gated; also
    the raw wall time and the machine slowdown that scaled it."""
    out = {"error_rate": (failed / attempted if attempted else 1.0, "ratio"),
           "raw_wall_s": (_median([i.wall_s for i in iterations]), "s"),
           "machine_slowdown": (_median([i.slowdown for i in iterations]), "ratio")}
    rate = _median([i.audio_s * i.slowdown / i.throughput_s for i in iterations])
    if name == "render":
        out["render_audio_s_per_s"] = (rate, "audio-s/s")
    elif name == "train":
        out["train_samples_per_s"] = (rate / chunk_seconds, "chunks/s")
    else:
        out["transfer_audio_s_per_s"] = (rate, "audio-s/s")
        out["eval_s"] = (_median([i.stages["eval"] / i.slowdown for i in iterations]), "s")
    return out


def layer_metrics(recorder, traced, untraced) -> dict:
    """Per-layer values per traced iteration, plus the tracing overhead."""
    import tracer as tr
    means = recorder.totals(k for k, _ in traced)
    out = {name: (fn(means), unit) for name, (unit, _, fn) in tr.LAYER_METRICS.items()}
    traced_wall = _median([it.wall_s / it.slowdown for _, it in traced])
    untraced_wall = _median([it.wall_s / it.slowdown for _, it in untraced])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def _probes(n: int) -> list[float]:
    import calibrate
    return [calibrate.probe() for _ in range(n)]


def main(argv=None) -> int:
    args = _parse(argv)
    # One BLAS thread: the second core is shared, and a GEMM split over both
    # stalls whenever a neighbour holds one of them (set before numpy loads).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "tabflow" / "cli.py").is_file():
        print(f"perfbench: no tabflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import tabflow.cli  # noqa: F401  (import time is reported on its own)
    import_s = time.perf_counter() - t0

    import machine
    import tracer as tr
    import workloads

    tracer = tr.Tracer() if args.trace else None
    ctx = workloads.Context(args.seed, args.size, tracer)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ctx, work)
    try:
        # each timed interval is scaled by the mean slowdown of the probes
        # just before and just after it (see calibrate.py)
        setup = []  # (wall seconds, slowdown)
        before = _probes(1)
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            dt = time.perf_counter() - t0
            after = _probes(1)
            setup.append((dt, statistics.fmean(before + after)))
            before = after

        # closed loop, one client: iterate until the timed walls sum to --seconds;
        # a traced run alternates untraced and traced iterations
        iterations, traced, untraced, problems = [], [], [], []
        attempted = failed = 0
        timed = 0.0
        k = 0
        while timed < args.seconds or (args.trace and k < 2):
            ctx.tracing = bool(args.trace and k % 2)
            if tracer:
                tracer.request = k
            t0 = time.perf_counter()
            try:
                if ctx.tracing:
                    with tracer.installed():
                        it = wl.run(k)
                else:
                    it = wl.run(k)
            except workloads.CommandFailed as exc:
                timed += time.perf_counter() - t0
                attempted, failed = attempted + 1, failed + 1
                problems.append(str(exc))
                before = _probes(1)
                k += 1
                continue
            timed += it.wall_s
            # about one probe per PROBE_EVERY_S of timed work damps probe jitter
            after = _probes(max(1, round(it.wall_s / PROBE_EVERY_S)))
            it.slowdown = statistics.fmean(before + after)
            before = after
            wl.check(it)
            shutil.rmtree(it.workdir, ignore_errors=True)
            attempted += it.attempted
            failed += it.failed
            problems += it.problems
            (traced if ctx.tracing else untraced).append((k, it))
            iterations.append(it)
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, detail = {}, {}
    if iterations:
        metrics = (layer_metrics(tracer, traced, untraced) if args.trace
                   else end_to_end(setup, iterations))
        detail = workload_metrics(args.workload, iterations, attempted, failed,
                                  workloads.CHUNK_SECONDS)
    correct = bool(iterations) and failed == 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "size": args.size, "machine": machine.facts(),
        "import_s": import_s, "setup": setup,
        "iterations": [{"wall_s": it.wall_s, "slowdown": it.slowdown, "stages": it.stages,
                        "audio_s": it.audio_s, "attempted": it.attempted, "failed": it.failed}
                       for it in iterations],
        "outputs": iterations[0].outputs if iterations else None,
        "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(tracer.dump()))

    print("machine: " + json.dumps(record["machine"]))
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    for line in problems[:10]:
        print(f"problem: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
