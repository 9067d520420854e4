"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-gpm --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
in seconds scaled to a reference host (``perfbench/hostspeed.py``);
``--trace 1`` runs the workload's trace job list once untraced and once
with the per-layer wrappers installed, and reports per-layer metrics
and the tracing overhead.  A table goes to stdout first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 1 without a result if the program cannot be
imported from ``src/`` or the run raises.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold-gpm", "cold-tensor", "explore-fig12")

E2E_UNITS = {"sim_ops_per_s": "ops/s", "job_s_p50": "s", "job_s_tail": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


#: Samples taken before and after each timed import.
BRACKET = 3
#: What a fresh interpreter imports to time the program's imports.
IMPORT_PROGRAM = ("import sys; sys.path[:0] = [{src!r}]; "
                  "import repro.workloads, repro.explore.sweep")


def _import_program() -> None:
    """Scrub ambient ``REPRO_*`` knobs, then import ``src/repro``."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    src = ROOT / "src"
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    location = Path(repro.__file__).resolve()
    if not location.is_relative_to(src.resolve()):
        raise ImportError(f"repro imported from {location}, not {src}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fail_summary(records, problems) -> tuple[int, int]:
    failed = sum(r.error is not None for r in records)
    for message in problems[:10]:
        print(f"CHECK FAILED: {message}")
    if len(problems) > 10:
        print(f"CHECK FAILED: ... {len(problems) - 10} more")
    return len(records), failed


def _import_span() -> tuple[float, float]:
    """``perf_counter`` span of a fresh interpreter importing the
    program's entry points."""
    code = IMPORT_PROGRAM.format(src=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return start, time.perf_counter()


def run_untraced(args) -> dict:
    from perfbench.checks import check
    from perfbench.hostspeed import REF_S, HostSpeed
    from perfbench.suite import SETUP_REPS, Bench, end_to_end, rescaled

    with Bench(args.workload, args.seed) as bench:
        setup_speed, imports, setups = HostSpeed(), [], []
        # The imports run in a child process, so samples bracket them
        # instead of landing inside (they would compete with the child).
        for _ in range(BRACKET):
            setup_speed.sample()
        for _ in range(SETUP_REPS):
            imports.append(_import_span())
            for _ in range(BRACKET):
                setup_speed.sample()
        with setup_speed.timer():
            for _ in range(SETUP_REPS):
                start = time.perf_counter()
                bench.set_up()
                setups.append((start, time.perf_counter()))
            setup_speed.sample()
        records, speed, window, passes = bench.timed(args.seconds)
        problems = check(args.workload, args.seed, records,
                         base_metrics=bench.base_metrics)
    attempted, failed = _fail_summary(records, problems)
    rss = _peak_rss_mb()
    figures = {}
    for kind in ("scaled", "program"):
        measure, setup_measure = (getattr(speed, kind),
                                  getattr(setup_speed, kind))
        setup_s = sum(statistics.median(setup_measure(*span)
                                        for span in spans)
                      for spans in (imports, setups))
        figures[kind] = end_to_end(rescaled(records, measure),
                                   measure(*window), setup_s, rss)
    e2e, raw = figures["scaled"], figures["program"]
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"program wall {speed.program(*window):.3f} s")
    for label, spans in (("imports", imports), ("set-ups", setups)):
        print(f"  {label}: " + ", ".join(
            f"{setup_speed.program(*s):.3f}" for s in spans) + " s")
    print(f"host speed: {len(speed.samples)} calibration samples "
          f"({speed.sample_seconds():.2f} s), median loop "
          f"{statistics.median(speed.loop_seconds()) * 1e3:.3f} ms against "
          f"{REF_S * 1e3:.3f} ms on the reference host (scale "
          f"{speed.median_scale():.3f})")
    print(f"  {'metric':<14} {'scaled':>14} {'as measured':>14}")
    for name, unit in E2E_UNITS.items():
        note = ""
        if name == "job_s_tail":
            note = (f"  (p{e2e['tail_percentile']:.1f} of "
                    f"{e2e['jobs']} jobs)")
        if name == "setup_s":
            note = "  (median imports + median set-up)"
        print(f"  {name:<14} {e2e[name]:>14.6g} {raw[name]:>14.6g} "
              f"{unit}{note}")
    print(f"  {'fail_rate':<14} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": e2e[name], "unit": unit}
                        for name, unit in E2E_UNITS.items()}}


def run_traced(args) -> dict:
    from perfbench.checks import check, output_digests
    from perfbench.suite import WORK_DIR, Bench, trace_jobs
    from perfbench.tracing import Tracer, metric_units

    with Bench(args.workload, args.seed) as bench:
        bench.jobs = trace_jobs(args.workload, bench.jobs)
        start = time.perf_counter()
        bench.set_up()
        plain = bench.run_pass()
        untraced_wall = time.perf_counter() - start
        plain_base = bench.base_metrics
        tracer = Tracer()
        bench.tracer = tracer
        with tracer:
            start = time.perf_counter()
            bench.set_up()
            traced = bench.run_pass()
            wall = time.perf_counter() - start
        problems = check(args.workload, args.seed, plain,
                         base_metrics=plain_base)
        problems += check(args.workload, args.seed, traced,
                          base_metrics=bench.base_metrics)
    plain_digests = output_digests(plain)
    for key, digests in output_digests(traced).items():
        if digests != plain_digests.get(key):
            problems.append(f"{key}: traced metrics differ from untraced")
            for rec in traced:
                if rec.job.key == key:
                    rec.error = rec.error or problems[-1]
    attempted, failed = _fail_summary(plain + traced, problems)
    metrics = tracer.layer_metrics(wall, untraced_wall)
    WORK_DIR.mkdir(exist_ok=True)
    spans = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    print(f"workload {args.workload}  seed {args.seed}  traced "
          f"{len(bench.jobs)} jobs  wall {wall:.3f} s  untraced "
          f"{untraced_wall:.3f} s  overhead {metrics['trace.overhead']:.1%}"
          f"  spans -> {spans.relative_to(ROOT)}")
    print(f"  {'layer':<20} {'calls':>10} {'self_s':>10} {'incl_s':>10}")
    for row in tracer.layer_table():
        print(f"  {row['layer']:<20} {row['calls']:>10} "
              f"{row['self_s']:>10.4f} {row['inclusive_s']:>10.4f}")
    print(f"  {'other':<20} {'':>10} {metrics['other_s']:>10.4f}")
    units = metric_units()
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        _import_program()
        result = run_traced(args) if args.trace else \
            run_untraced(args)
    except Exception:
        traceback.print_exc()
        return 1
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
