"""One pass of a workload, in a fresh interpreter.

Reads a job from stdin ({"src", "requests", "trace", "workload"}), imports
frobranch from `src` (timed: that is the set-up a CLI user pays), sends
the requests one after another through the CLI path
(parse_request -> run -> render(..., "json")), and writes one JSON object
with the reports, latencies and resource use to stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter


PROBE_EVERY_S = 0.25


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the host-speed probe.  A
    shared host's speed can swing by up to 1.8x for minutes at a time, so
    the gated times are in units of this loop, timed in the same pass."""
    start = perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    probes = [reference_loop()]

    start = perf_counter()
    import frobranch.cli as cli
    setup_s = perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"frobranch imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracer import Tracer  # bench/ is on sys.path as the script's directory

        tracer = Tracer()
        tracer.install()

    # the probe runs between requests, about every PROBE_EVERY_S seconds,
    # outside the timed requests and subtracted from the pass's wall time
    results = []
    probe_s = 0.0
    pass_start = last_probe = perf_counter()
    for index, argv in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request = index
        t0 = perf_counter()
        try:
            report = cli.run(cli.parse_request(argv))
            text = cli.render(report, "json")
            code, error = report.exit_code, None
        except Exception as exc:  # every failure is recorded, none stops the pass
            text, code, error = None, 1, f"{type(exc).__name__}: {exc}"
        results.append({"latency_s": perf_counter() - t0, "exit": code, "report": text, "error": error})
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(reference_loop())
            probe_s += probes[-1]
            last_probe = perf_counter()
    wall_s = perf_counter() - pass_start - probe_s
    probes.append(reference_loop())

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probes_s": probes,
        "results": results,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        out["layers"] = layers
        out["absent"] = tracer.absent
        out["coverage_gaps"] = tracer.coverage_gaps(job["workload"], layers["_calls"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
