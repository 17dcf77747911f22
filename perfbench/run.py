"""braidcomb benchmark entry point.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; braidcomb is imported from its src/.
With --trace 0 it prints every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Lines before it
are a human-readable report, stamped with commit, seed, nproc, Python
version and CPU model; the same report is written to .perfbench/.

setup_s is the median, over SETUP_SAMPLES fresh interpreters, of the time
from spawning the worker to its READY line: interpreter start, imports,
presentations and seeded inputs (and, for sweep, the first comb of every
base pair).  Each is in reference time (calib.py), scaled by speed
samples taken around and during it.  All other numbers come from the last
of those workers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

from calib import REFERENCE_KERNEL_S, SpeedProbe
from paths import HERE, OUT_DIR, ROOT, SRC, child_env

SETUP_SAMPLES = 3
SETUP_PROBE_BURST = 5  # speed samples before and after each set-up
RUN_LIMIT_S = 170.0  # the whole run, set-up samples included


class BenchError(Exception):
    pass


def spawn_worker(args, setup_only: bool, deadline: float) -> tuple[float, list[float], str]:
    """Start a worker; return (seconds from spawn to READY, kernel times of
    the speed samples it took in set-up, rest of its stdout)."""
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - monotonic()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    word, _, payload = line.partition(" ")
    if word != "READY" or code != 0:
        raise BenchError(f"worker for {args.workload} failed (exit code {code})")
    return ready, json.loads(payload)["kernel_s"], rest


def timed_worker(args, setup_only: bool, deadline: float) -> tuple[float, float, str]:
    """Run a worker; return (set-up in reference time, raw set-up, rest of
    its stdout).

    The scale comes from the speed samples taken just before the worker,
    by the worker in set-up and, for a worker that stops there, just
    after it.  The worker's own samples are not set-up work, so their time
    is taken off first."""
    before, after = SpeedProbe(), SpeedProbe()
    before.sample_burst(SETUP_PROBE_BURST)
    ready, kernel_s, rest = spawn_worker(args, setup_only, deadline)
    if setup_only:
        after.sample_burst(SETUP_PROBE_BURST)
    speed = statistics.median(before.durations + kernel_s + after.durations)
    return (ready - sum(kernel_s)) * REFERENCE_KERNEL_S / speed, ready, rest


def stamp(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "braidcomb").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = monotonic() + RUN_LIMIT_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: --workload must be one of {', '.join(names)}", file=sys.stderr)
        return 2
    if not (SRC / "braidcomb" / "__init__.py").is_file():
        print(f"error: no braidcomb sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    try:
        setup_samples, raw_setup = [], []
        workers = 1 if args.trace else SETUP_SAMPLES
        for i in range(workers):
            scaled, raw, out = timed_worker(args, i < workers - 1, deadline)
            setup_samples.append(scaled)
            raw_setup.append(raw)
        lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1][len("RESULT "):])
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setup_samples)
        result["report"]["setup_samples_s"] = setup_samples
        result["report"]["raw_setup_samples_s"] = raw_setup
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: the run did not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    report = {"stamp": stamp(args), **result["report"]}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"report": report, "metrics": metrics}, indent=1))

    for key, value in report.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
