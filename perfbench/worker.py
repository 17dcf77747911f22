"""One workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 20 --trace 0 [--setup-only]

Prints READY once set-up is done (run.py times the interval from spawn to
that line), followed by the kernel times of the speed samples taken during
an untraced set-up; then one RESULT line of JSON.

Untraced (--trace 0): whole passes, closed loop with one caller, until
--seconds have passed; reports the end-to-end metrics except setup_s.
Traced (--trace 1): set-up and one pass with spans recorded, after an
untraced warm-up pass, each operation alternating with an untraced run of
itself for the overhead ratio; reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter

import braidcomb as bc

import stats
from calib import SpeedProbe
from checks import FAILED, OK, UNDECIDED
from layers import make_tracer, merge, process_counters
from paths import OUT_DIR
from spans import Tracer, span_record
from workloads import WORKLOADS, run_child

STARTUP_SAMPLES = 5
MAX_FAILURE_DETAILS = 5


def run_op(op, index: int, tracer: Tracer | None = None) -> tuple[tuple[str, float, str], str | None]:
    """Run one operation: ((group, latency, outcome), failure detail)."""
    if tracer is not None:
        tracer.request = index
    start = perf_counter()
    try:
        answer = op.call()
    except bc.WordSizeExceededError:
        return (op.group, perf_counter() - start, UNDECIDED), None
    except Exception:  # an untyped failure counts against the run
        latency = perf_counter() - start
        return (op.group, latency, FAILED), f"op {index} ({op.group}): {traceback.format_exc(limit=4)}"
    latency = perf_counter() - start
    outcome = op.check(answer)
    detail = f"op {index} ({op.group}): wrong answer" if outcome == FAILED else None
    return (op.group, latency, outcome), detail


def run_pass(workload, probe: SpeedProbe | None = None) -> tuple[list[tuple[str, float, str]], list[str]]:
    """Run every operation once, in order.  With a probe, sample the
    machine's speed between operations and give each row's latency in
    reference time (see calib.py)."""
    rows, details, mids = [], [], []
    for index, op in enumerate(workload.ops):
        if probe is not None:
            probe.maybe_sample()
        start = perf_counter()
        row, detail = run_op(op, index)
        rows.append(row)
        mids.append(start + row[1] / 2)
        if detail:
            details.append(detail)
    if probe is not None:
        probe.sample()
        rows = [(g, lat * probe.scale_at(t), o) for (g, lat, o), t in zip(rows, mids)]
    return rows, details


def group_counts(rows) -> dict[str, dict[str, int]]:
    out: dict[str, Counter] = {}
    for group, _, outcome in rows:
        out.setdefault(group, Counter())[outcome] += 1
    return {g: {k: c[k] for k in (OK, UNDECIDED, FAILED)} for g, c in sorted(out.items())}


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cold_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_run(workload, seconds: float) -> dict:
    """Whole passes until `seconds` have passed.

    Latencies are in reference time (calib.py), which cancels most of a
    change in the shared machine's speed.  Each operation's latency is the
    median over the passes, which filters out a slowdown that lasts less
    than a pass.  The rates divide one pass's operations by the sum of
    those medians; the raw elapsed-time rate is in the report.
    """
    probe = SpeedProbe()
    probe.sample_burst(3)
    rows: list = []
    details: list[str] = []
    passes: list[list] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        pass_rows, pass_details = run_pass(workload, probe)
        passes.append(pass_rows)
        rows += pass_rows
        details += pass_details
    elapsed = perf_counter() - start
    per_op = [statistics.median(p[i][1] for p in passes) for i in range(len(workload.ops))]
    typical_pass_s = sum(per_op)
    tail_p = stats.tail_percentile(len(per_op))
    decided = sum(1 for _, _, outcome in passes[0] if outcome == OK)
    metrics = {
        "ops_per_s": len(per_op) / typical_pass_s,
        "op_p50_ms": 1000.0 * statistics.median(per_op),
        "op_tail_ms": 1000.0 * stats.percentile(per_op, tail_p),
        "peak_rss_mb": peak_rss_mb(workload),
        "decided_per_s": decided / typical_pass_s,
    }
    report = {
        "passes": len(passes),
        "ops_per_pass": len(per_op),
        "elapsed_s": elapsed,
        "elapsed_ops_per_s": len(rows) / elapsed,
        "speed_samples": len(probe.durations),
        "kernel_s_median": probe.overall_kernel_s(),
        "kernel_s_range": [min(probe.durations), max(probe.durations)],
        "tail_percentile": tail_p,
        "undecided_ratio": sum(1 for _, _, o in rows if o == UNDECIDED) / len(rows),
        "failed_ratio": sum(1 for _, _, o in rows if o == FAILED) / len(rows),
        "per_group": group_counts(passes[0]),
    }
    return {"rows": rows, "details": details, "metrics": metrics, "report": report}


def traced_run(workload, tracer: Tracer) -> dict:
    """An untraced warm-up pass, then every operation once traced and once
    untraced, alternating which goes first; the overhead ratio is the
    traced over the untraced sum of latencies."""
    warm_rows, details = run_pass(workload)
    cold_cli = workload.name == "cold_cli"
    rows, untraced_rows = [], []
    for index, op in enumerate(workload.ops):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                if cold_cli:
                    workload.trace_dir = OUT_DIR
                try:
                    row, detail = run_op(op, index, tracer)
                finally:
                    tracer.uninstall()
                    if cold_cli:
                        workload.trace_dir = None
                rows.append(row)
            else:
                row, detail = run_op(op, index)
                untraced_rows.append(row)
            if detail:
                details.append(detail)
    children = getattr(workload, "children", [])
    # The cold_cli children's fill probe is not tracing overhead.
    traced_s = sum(lat for _, lat, _ in rows) - sum(c["probe_s"] for c in children)
    untraced_s = sum(lat for _, lat, _ in untraced_rows)

    parts = [process_counters(tracer)] + [c["counters"] for c in children]
    startup = 0.0
    if cold_cli:
        samples = []
        for _ in range(STARTUP_SAMPLES):
            t0 = perf_counter()
            run_child(["-c", "import braidcomb"])
            samples.append(perf_counter() - t0)
        startup = statistics.median(samples)
    metrics = merge(parts)
    metrics.setdefault("combing.fill_s", 0.0)
    attempted = len(rows)
    metrics.update(
        {
            "cli.process_s": untraced_s if cold_cli else 0.0,
            "cli.startup_s": startup,
            "trace.overhead_ratio": traced_s / untraced_s,
            "decided": sum(1 for _, _, o in rows if o == OK),
            "undecided_ratio": sum(1 for _, _, o in rows if o == UNDECIDED) / attempted,
            "failed_ratio": sum(1 for _, _, o in rows if o == FAILED) / attempted,
        }
    )
    report = {
        "untraced_ops_s": untraced_s,
        "traced_ops_s": traced_s,
        "per_group": group_counts(rows),
        "spans": len(tracer.spans) + sum(len(c["spans"]) for c in children),
    }
    return {
        "rows": warm_rows + rows + untraced_rows,
        "details": details,
        "metrics": metrics,
        "report": report,
    }


def write_spans(path, tracer: Tracer, workload) -> None:
    processes = [[span_record(s) for s in tracer.spans]]
    processes += [child["spans"] for child in getattr(workload, "children", [])]
    path.write_text(json.dumps({"processes": processes}))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    tracer = make_tracer() if args.trace else None
    probe = SpeedProbe()
    if tracer is not None:
        tracer.install()
    try:
        workload.setup(tick=probe.maybe_sample if tracer is None else lambda: None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print("READY " + json.dumps({"kernel_s": probe.durations}), flush=True)
    if args.setup_only:
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    result = traced_run(workload, tracer) if tracer is not None else timed_run(workload, args.seconds)
    post = workload.post_check()
    rows = result["rows"]
    failed = sum(1 for _, _, outcome in rows if outcome == FAILED) + len(post)
    if tracer is not None:
        write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json", tracer, workload)
    report = dict(result["report"], **workload.report())
    report["failures"] = (result["details"] + post)[:MAX_FAILURE_DETAILS]
    payload = {
        "attempted": len(rows),
        "failed": failed,
        "metrics": result["metrics"],
        "report": report,
    }
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
