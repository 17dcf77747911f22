"""One traced `braidcomb` CLI call, for the traced pass of cold_cli.

    python3 perfbench/cli_child.py --counters-out FILE -- comb --group gn --n 6 --word "r(2,1)"

Installs the tracer in a fresh interpreter, then runs the CLI's own entry
point on the given arguments, so its stdout and exit code are those of
`python3 -m braidcomb ...` and its spans line up with the untraced call.
For `comb` it then combs the same word a second time, untraced; the first
comb's duration minus the second's is the action-table fill.  Spans,
per-layer counters and the time that probe took (which the overhead ratio
leaves out) go to FILE as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import braidcomb as bc
import braidcomb.cli

from layers import make_tracer, process_counters
from spans import span_record
from workloads import presentation


def second_comb_s(argv: list[str]) -> float:
    opts = dict(zip(argv[1::2], argv[2::2]))
    p = presentation(opts["--group"], int(opts["--n"]))
    word = bc.parse_word(opts["--word"])
    start = perf_counter()
    bc.comb(p, word)
    return perf_counter() - start


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--counters-out" or args[2] != "--":
        print("usage: cli_child.py --counters-out FILE -- <braidcomb arguments>", file=sys.stderr)
        return 2
    out, argv = Path(args[1]), args[3:]

    tracer = make_tracer()
    tracer.install()
    try:
        code = braidcomb.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()

    counters = process_counters(tracer)
    fill = probe = 0.0
    if code == 0 and argv[0] == "comb":
        start = perf_counter()
        second = second_comb_s(argv)
        probe = perf_counter() - start
        first = next(s.duration for s in tracer.spans if s.name == "combing.comb")
        fill = first - second
    counters["combing.fill_s"] = fill
    payload = {"counters": counters, "probe_s": probe, "spans": [span_record(s) for s in tracer.spans]}
    out.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
