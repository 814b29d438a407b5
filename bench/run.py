"""frobranch benchmark.

    python3 bench/run.py --workload curves|extension|semigroups \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  The workload's requests are generated from the seed and sent in
a closed loop: one client, one thread, the next request only after the
previous one finished, each through the CLI path
parse_request -> run -> render(..., "json").  Every pass over the
requests runs in a fresh interpreter, so caches start cold as they do for
a CLI user; passes repeat until S seconds have gone by, and at least two
run, so the report digests of two passes with the same seed can be
compared.  With --trace 1 every second pass is traced and the per-layer
metrics come from the traced passes, the end-to-end ones are not printed.

On a shared 2-vCPU Xeon host the same code ran up to 1.8x slower for
minutes at a time, which no number of passes averages out.  So each pass
also times a
fixed pure-Python reference loop about every 0.25 s between requests, and
the gated times are in units of that loop's median in the same pass
(`ref-loops`): wall_ref is the pass's wall time (probes excluded),
req_p50_ref and req_p90_ref are deciles over the requests of each one's
median latency.  The same figures in seconds are printed too, not gated.
setup_s, the import time, stays in seconds: it is the median over every
pass and two import-only interpreters before each pass.

Every answer is checked against facts known without the program (see
workloads.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit codes: 0 done, 1 a wrong answer or a pass that crashed, 2 no program
to measure, 3 two passes with the same seed gave different reports.

The run prints the sha256 digest of its reports and whether it matches
the one recorded for that workload and seed in bench/digests.json, so a
change can show that its reports stayed byte-identical.
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
from importlib import metadata
from time import perf_counter

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_REPEATS = 2  # import-only interpreters before each pass
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref-loops",
    "req_p50_ref": "ref-loops",
    "req_p90_ref": "ref-loops",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "linalg.add_row_s": "s",
    "linalg.add_row_calls": "count",
    "linalg.rank_gain_ratio": "ratio",
    "linalg.cells_touched": "cells.computed",
    "linalg.reduce_s": "s",
    "linalg.reduce_calls": "count",
    "linalg.kernel_build_s": "s",
    "ffield.extend_field_s": "s",
    "graded.slice_s": "s",
    "graded.slices_built": "count",
    "graded.slice_cols_max": "count",
    "graded.multiplicity_s": "s",
    "graded.reduction_search_s": "s",
    "graded.reduction_candidates": "count",
    "graded.base_changes": "count",
    "graded.closure_s": "s",
    "ffield.sqf_s": "s",
    "ffield.sqf_calls": "count",
    "oracle.self_s": "s",
    "semigroup.lattice_s": "s",
    "semigroup.snf_calls": "count",
    "semigroup.cone_s": "s",
    "semigroup.saturation_s": "s",
    "semigroup.membership_s": "s",
    "semigroup.membership_calls": "count",
    "semigroup.p_membership_s": "s",
    "semigroup.fte_s": "s",
    "parse.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class BenchError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def machine_info() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"nproc={nproc} cpu={cpu!r} python={platform.python_version()} numpy={numpy_version}"


def run_pass(src: str, workload: str, requests: list, traced: bool, deadline: float) -> dict:
    job = {"src": src, "workload": workload, "trace": traced, "requests": [r.argv for r in requests]}
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(1, "out of time before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            env={**os.environ, **THREAD_ENV}, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
        raise BenchError(1, f"a pass did not finish within the {RUN_LIMIT_S} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(1, f"a pass exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def digest(requests: list, results: list) -> str:
    """sha256 over the canonical reports (or exit code and error) in order."""
    h = hashlib.sha256()
    for req, res in zip(requests, results):
        h.update(json.dumps(req.argv).encode() + b"\n")
        h.update(f"exit {res['exit']}\n".encode())
        h.update((res["report"] if res["report"] is not None else f"error {res['error']}\n").encode())
    return h.hexdigest()


def check_pass(requests: list, results: list) -> list:
    failures = []
    for index, (req, res) in enumerate(zip(requests, results)):
        report = json.loads(res["report"]) if res["report"] is not None else None
        verdict = workloads.check(req, res["exit"], report, res["error"])
        if verdict is not None:
            failures.append((index, req, *verdict))
    return failures


def quantile(values: list, q: int) -> float:
    """q-th decile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run the passes and compute every metric; raises BenchError."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "frobranch", "cli.py")):
        raise BenchError(2, f"no program to measure: {src}/frobranch/cli.py is missing")
    requests = workloads.build(workload, seed, tiny)
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    setup_samples = []
    passes = []
    while len(passes) < 2 or perf_counter() - start < seconds:
        # set-up is short and the host's speed swings within seconds, so it
        # is also sampled in import-only interpreters spread over the run
        for _ in range(SETUP_REPEATS):
            setup_samples.append(run_pass(src, workload, [], False, deadline)["setup_s"])
        traced = trace and len(passes) % 2 == 1
        data = run_pass(src, workload, requests, traced, deadline)
        data["traced"] = traced
        data["digest"] = digest(requests, data["results"])
        data["failures"] = check_pass(requests, data["results"])
        passes.append(data)

    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        first = passes[0]["results"]
        differing = [
            i for p in passes[1:] for i, (a, b) in enumerate(zip(first, p["results"]))
            if (a["report"], a["exit"]) != (b["report"], b["exit"])
        ]
        raise BenchError(3, f"passes with seed {seed} gave different reports (requests {sorted(set(differing))})")

    for p in passes:
        p["ref_s"] = statistics.median(p["probes_s"])
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def per_request(scale):
        """Each request's latency as its median over the untraced passes, so
        the percentiles are over requests whatever the number of passes."""
        return [
            statistics.median(p["results"][i]["latency_s"] * scale(p) for p in plain)
            for i in range(len(requests))
        ]

    latencies = per_request(lambda p: 1e3)
    latencies_ref = per_request(lambda p: 1 / p["ref_s"])
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    out = {
        "requests": requests,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "correct": all(known for p in passes for *_, known in p["failures"]),
        "digest": passes[0]["digest"],
        "latencies_ref": latencies_ref,
        "latency_samples": len(latencies) * len(plain),
        "seconds": {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "req_p50_ms": quantile(latencies, 5),
            "req_p90_ms": quantile(latencies, 9),
            "reference_loop_ms": statistics.median(p["ref_s"] for p in plain) * 1e3,
        },
        "end_to_end": {
            "setup_s": statistics.median(setup_samples + [p["setup_s"] for p in passes]),
            "wall_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in plain),
            "req_p50_ref": quantile(latencies_ref, 5),
            "req_p90_ref": quantile(latencies_ref, 9),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        },
    }
    if traced:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in PER_LAYER_UNITS if not name.startswith("trace.")
        }
        traced_wall = statistics.median(p["wall_s"] / p["ref_s"] for p in traced)
        layers["trace.overhead_frac"] = traced_wall / out["end_to_end"]["wall_ref"] - 1
        layers["trace.unattributed_s"] = statistics.median(p["wall_s"] - p["layers"]["_self_total"] for p in traced)
        out["per_layer"] = layers
        out["absent"] = traced[0]["absent"]
        out["coverage_gaps"] = sorted({n for p in traced for n in p["coverage_gaps"]})
    return out


def baseline_digest(workload: str, seed: int):
    try:
        with open(os.path.join(BENCH_DIR, "digests.json")) as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def report(workload: str, seed: int, trace: bool, m: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    print(f"machine: {machine_info()}")
    print(f"workload: {workload} seed={seed} requests={len(m['requests'])} "
          f"closed loop, 1 client, {len(m['passes'])} passes in fresh interpreters")
    ref_best = min(p["ref_s"] for p in m["passes"])
    for i, p in enumerate(m["passes"], 1):
        slow = p["ref_s"] > 1.15 * ref_best
        print(f"pass {i}{' (traced)' if p['traced'] else ''}: wall {p['wall_s']:.3f} s, "
              f"setup {p['setup_s']:.3f} s, rss {p['peak_rss_mb']:.1f} MB, reference loop "
              f"{p['ref_s'] * 1e3:.2f} ms (median of {len(p['probes_s'])}, "
              f"{min(p['probes_s']) * 1e3:.2f}..{max(p['probes_s']) * 1e3:.2f})"
              f"{'  [slow host phase]' if slow else ''}")
    base = baseline_digest(workload, seed)
    state = "no baseline" if base is None else ("matches baseline" if base == m["digest"] else "DIFFERS from baseline")
    print(f"report digest: sha256:{m['digest']} ({state})")
    for index, req, reason, known in m["passes"][0]["failures"]:
        tag = "known defect" if known else "WRONG"
        print(f"failed [{tag}] request {index} ({req.family}): {reason}: {' '.join(req.argv)[:160]}")
    print(f"attempted {m['attempted']}, failed {m['failed']}, "
          f"failed_frac {m['failed'] / m['attempted']:.4f}")
    if trace:
        if m["absent"]:
            print(f"absent (no longer in the program): {', '.join(m['absent'])}")
        if m["coverage_gaps"]:
            print(f"coverage: expected but never called: {', '.join(m['coverage_gaps'])}")
        metrics, units = m["per_layer"], PER_LAYER_UNITS
    else:
        metrics, units = m["end_to_end"], END_TO_END_UNITS
        above = sum(1 for v in m["latencies_ref"] if v > metrics["req_p90_ref"])
        print(f"latency samples: {m['latency_samples']}, per-request medians: "
              f"{len(m['latencies_ref'])} ({above} above p90)")
        for name, value in m["seconds"].items():
            print(f"{name} = {value:.6g} {name.rsplit('_', 1)[1]} (not gated)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": m["correct"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    result = report(args.workload, args.seed, bool(args.trace), m)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
