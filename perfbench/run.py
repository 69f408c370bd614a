"""Run one gemkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census|audit|verdicts \
        --seed N --seconds S --trace 0|1

Run from the repository root; gemkit is imported from ./src.  One
process runs one workload, single-threaded.  Repetitions of the workload's
job run back to back for about S seconds (at least one), and every
repetition's outputs are checked.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, timings in units of a reference computation measured
alongside (calibrate.py); --trace 1 runs one untraced repetition, then
traced ones, and reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_RUNS = 9
# setup_s is scaled to a host on which calibrate.reference takes this long
NOMINAL_REF_S = 0.001

# A fresh interpreter that imports gemkit, builds one workload's inputs (the
# work a user pays before the first op), prints the time it got there, then
# times the reference computation to show how fast the host ran just then.
SETUP_CODE = (
    "import sys, time, statistics; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])); print(time.time()); "
    "import calibrate; clock = calibrate.RefClock(interval=None); "
    "[clock.start() for _ in range(7)]; print(statistics.median(clock.ref_s))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "op_p95_ref": "ref",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
}


def setup_seconds(workload: str, seed: int) -> tuple:
    """Set-up time over SETUP_RUNS fresh processes: (scaled median, raw median).

    Set-up is spawn to inputs ready.  The scaled value multiplies each
    process's raw time by NOMINAL_REF_S over its own reference time, so the
    host's speed at that moment cancels, as for the ref-unit metrics.
    """
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        start = time.time()
        # the child reports its own end: waiting with a timeout polls, which
        # would round the exit time to tens of milliseconds
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(BENCH_DIR), str(SRC_DIR), workload, str(seed)],
            check=True, timeout=120, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        ready, ref = map(float, proc.stdout.split()[-2:])
        raw.append(ready - start)
        scaled.append((ready - start) * NOMINAL_REF_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def percentile(values, q: int) -> float:
    """q-th percentile, linear between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Timings:
    """Per-repetition walls and op latencies, raw and in ref units."""

    raw_walls: List[float] = field(default_factory=list)
    ref_walls: List[float] = field(default_factory=list)
    raw_ops: List[List[float]] = field(default_factory=list)
    ref_ops: List[List[float]] = field(default_factory=list)


def op_latencies(reps: List[List[float]]) -> List[float]:
    """Each op's median over the repetitions, which drops one-off stalls.

    Ops line up by input order.  With fewer than 200 ops a repetition the
    95th percentile would have under 10 ops beyond it, so the samples of all
    repetitions are pooled instead.
    """
    if len(reps[0]) < 200 or len({len(r) for r in reps}) > 1:
        return [x for r in reps for x in r]
    return [statistics.median(samples) for samples in zip(*reps)]


def repeat(wl, seconds: float, tally, clock, on_rep=None) -> Timings:
    """Run wl's job until another repetition as slow as the slowest would overrun `seconds`."""
    out = Timings()
    start = time.perf_counter()
    while True:
        clock.start()
        t, r = clock.raw_now(), clock.now()
        rep = wl.run(clock)
        out.raw_walls.append(clock.raw_now() - t)
        out.ref_walls.append(clock.now() - r)
        clock.stop()
        out.raw_ops.append(rep.op_s)
        out.ref_ops.append(rep.op_ref)
        if on_rep is not None:
            on_rep(False)
        wl.check(rep, tally)
        if on_rep is not None:
            on_rep(True)
        # freed before the next repetition, so peak RSS does not grow with
        # the number of repetitions
        del rep
        if time.perf_counter() - start + max(out.raw_walls) > seconds:
            return out


def end_to_end(args, workloads, calibrate) -> tuple:
    setup_s, setup_raw_s = setup_seconds(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tally = workloads.Tally()
    clock = calibrate.RefClock()
    t = repeat(wl, args.seconds, tally, clock)
    ref_ops, raw_ops = op_latencies(t.ref_ops), op_latencies(t.raw_ops)
    p95 = percentile(ref_ops, 95)
    beyond = sum(x > p95 for x in ref_ops)
    if beyond < 10:
        raise SystemExit(f"only {beyond} ops beyond p95; the workload needs more ops")
    values = {
        "setup_s": setup_s,
        "wall_ref": statistics.median(t.ref_walls),
        "op_p95_ref": p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_ratio": 1 - tally.unknown / tally.issued if tally.issued else 1.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(f"workload: {args.workload} seed: {args.seed} reps: {len(t.raw_walls)} "
          f"ops: {len(ref_ops)} ({beyond} beyond p95)")
    for k, m in metrics.items():
        print(f"{k}: {m['value']:.6g} {m['unit']}")
    # raw seconds move with the host's speed; they are printed, not gated
    print(f"ref: {statistics.median(clock.ref_s) * 1e3:.6g} ms "
          f"(median of {len(clock.ref_s)} reference runs)")
    print(f"setup raw: {setup_raw_s:.6g} s")
    print(f"wall_s: {statistics.median(t.raw_walls):.6g} s")
    print(f"op_p95_ms: {percentile(raw_ops, 95) * 1e3:.6g} ms")
    # on census the median op sits where the fast graphs meet the homology ones
    print(f"op_p50: {percentile(ref_ops, 50):.6g} ref, {percentile(raw_ops, 50) * 1e3:.6g} ms")
    print(f"fail_ratio: {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} ops)")
    if tally.issued:
        print(f"unknown_ratio: {tally.unknown / tally.issued:.6g} ratio "
              f"({tally.unknown} of {tally.issued} verdicts)")
    return metrics, tally


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def traced(args, workloads, tracing, calibrate) -> tuple:
    tally = workloads.Tally()
    names = [tracing.span_name(m, a) for m, a in tracing.TARGETS]
    tracer = tracing.Tracer(names)
    # the clock's interrupts are kept out of whichever span they land in
    clock = calibrate.RefClock(on_tick=tracer.exclude)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    untraced = repeat(wl, 0, tally, clock)

    inst = tracing.install(tracer)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        setup = tracer.snapshot()
        tracer.reset()

        def on_rep(checked: bool) -> None:
            # output checks call gemkit too; keep them out of the spans
            tracer.enabled = checked

        t = repeat(wl, args.seconds - (time.perf_counter() - start), tally, clock, on_rep)
        calls, self_s, counts = tracer.snapshot()
    finally:
        inst.uninstall()
    n = len(t.raw_walls)
    calls = [s + c / n for s, c in zip(setup[0], calls)]
    self_s = [s + x / n for s, x in zip(setup[1], self_s)]
    counts = {k: setup[2][k] + v / n for k, v in counts.items()}
    values = tracing.layer_metrics(calls, self_s, counts, names)
    untraced_wall = statistics.median(untraced.raw_walls)
    traced_wall = statistics.median(t.raw_walls)
    # compared in ref units, then given back in seconds at the run's median
    # reference speed: the host's drift between the two can exceed the overhead
    values["trace.overhead_s"] = (
        statistics.median(t.ref_walls) - statistics.median(untraced.ref_walls)
    ) * statistics.median(clock.ref_s)
    print(f"workload: {args.workload} seed: {args.seed} traced reps: {n} "
          f"(per-layer values are set-up plus one repetition)")
    print(f"untraced wall_s: {untraced_wall:.6g} s, traced wall_s: {traced_wall:.6g} s")
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"{k}: {m['value']:.6g} {m['unit']}")
    return metrics, tally


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("census", "audit", "verdicts"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC_DIR / "gemkit" / "__init__.py").is_file():
        print(f"no gemkit sources at {SRC_DIR}; run from a gemkit checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC_DIR)]
    import gemkit

    if Path(gemkit.__file__).resolve().parent != (SRC_DIR / "gemkit").resolve():
        print(f"imported gemkit from {gemkit.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    import calibrate
    import tracing
    import workloads

    if args.trace:
        metrics, tally = traced(args, workloads, tracing, calibrate)
    else:
        metrics, tally = end_to_end(args, workloads, calibrate)
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
