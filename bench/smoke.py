"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 bench/smoke.py        # from the root of a source checkout

For each workload it runs an untraced and a traced measurement (two
passes each) and fails unless every answer check passes, the two passes
agree on the report digest, the coverage self-check is clean, and every
metric named in BENCHMARK.json is computed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            try:
                m = run.measure(name, seed=1, seconds=0, trace=trace, tiny=True)
            except run.BenchError as exc:
                problems.append(f"{name} trace={int(trace)}: {exc}")
                continue
            for *_, reason, known in m["passes"][0]["failures"]:
                if not known:
                    problems.append(f"{name}: wrong answer: {reason}")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            got = m["per_layer"] if trace else m["end_to_end"]
            problems += [f"{name}: metric {w['name']} missing" for w in wanted if w["name"] not in got]
            if trace:
                problems += [f"{name}: absent from the program: {n}" for n in m["absent"]]
                problems += [f"{name}: expected but never called: {n}" for n in m["coverage_gaps"]]
            print(f"{name} trace={int(trace)}: {m['attempted']} requests, {m['failed']} failed, digest {m['digest'][:12]}")
    for line in problems:
        print(f"FAIL {line}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
