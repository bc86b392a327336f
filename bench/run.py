"""exactcat benchmark: cold-start workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload laws_fgab --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; exactcat is imported from its
``src/`` and the golden CLI outputs are read from ``tests/golden/``.

Every chunk of work runs in a fresh interpreter (bench/worker.py), one at a
time, so no lru_cache and no ``complete(...)`` singleton carries over:
each exactcat invocation pays this cold start.  Chunk k of a run uses the
sub-seed ``seed * 1000 + k``, so a run samples several independent inputs
and the metrics are medians over its chunks.

``--trace 0`` runs set-up probes, then chunks until ``--seconds`` is
spent (at least MIN_CHUNKS), then chunk 0 once more to check that its
output digest repeats; it prints the end-to-end metrics.  ``--trace 1``
runs chunk 0 untraced and then traced, checks that both give the same
digest, and prints the per-layer metrics of the traced chunk with the
tracing overhead (traced minus untraced wall_s).  The last line of output
is one JSON object; the exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_CHUNKS = 3
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0   # a run must end within 180 s
SPAN_DIR = ".bench_out"

# The end-to-end metrics that BENCHMARK.json lists and gates.
END_TO_END = [("wall_s", "s"), ("ops_per_s", "1/s"), ("call_p50_ms", "ms"),
              ("call_p99_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


class ChunkTimeout(Exception):
    pass


class Run:
    """One benchmark invocation: spawns workers and keeps the tallies."""

    def __init__(self, seed, seconds):
        self.seed = seed
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def subseed(self, chunk):
        return self.seed * 1000 + chunk

    def spawn(self, workload, chunk, trace=0, setup_only=False, spans=None):
        """Run one worker; return its result and the set-up time it saw."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--subseed", str(self.subseed(chunk)),
               "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        left = RUN_LIMIT_S - (time.perf_counter() - self.t0)
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise ChunkTimeout(f"{workload} chunk {chunk} passed the "
                               f"{RUN_LIMIT_S:.0f} s run limit") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result, result["t_first"] - t_spawn

    def tally(self, workload, chunk, result):
        self.attempted += result["ops"]
        self.failed += len(result["unexpected"])
        self.problems += [f"{workload} chunk {chunk}: {u}" for u in result["unexpected"]]

    def digest_check(self, workload, first, again, what):
        self.attempted += 1
        if first["digest"] != again["digest"]:
            self.failed += 1
            self.problems.append(f"{workload}: {what} changed the output digest")


def measure(run, workload):
    """End-to-end metrics of one workload, from untraced chunks."""
    run.spawn(workload, 0, setup_only=True)   # compiles bytecode; not counted
    setups = [run.spawn(workload, 0, setup_only=True)[1] for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    chunks = []
    while True:
        result, setup = run.spawn(workload, len(chunks))
        run.tally(workload, len(chunks), result)
        chunks.append(result)
        setups.append(setup)
        spent = time.perf_counter() - start
        per_chunk = spent / len(chunks)
        # leave room for the repeat of chunk 0 below
        if len(chunks) + 1 >= MIN_CHUNKS and spent + 2 * per_chunk > run.seconds:
            break
    again, setup = run.spawn(workload, 0)   # a cold repeat counts as a sample too
    run.tally(workload, 0, again)
    run.digest_check(workload, chunks[0], again, "a repeated chunk")
    chunks.append(again)
    setups.append(setup)

    calls = sorted(c for r in chunks for c in r["calls_ms"])
    pct = statistics.quantiles(calls, n=100, method="inclusive")
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in chunks),
        "ops_per_s": statistics.median(r["ops"] / r["wall_s"] for r in chunks),
        "call_p50_ms": pct[49],
        "call_p99_ms": pct[98],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in chunks),
        "setup_s": statistics.median(setups),
    }
    notes = {"chunks": len(chunks), "calls": len(calls), "setup_samples": len(setups),
             "chunk_wall_s": [round(x["wall_s"], 3) for x in chunks]}
    return metrics, notes


def trace(run, workload):
    """Per-layer metrics of one workload, from a traced chunk."""
    run.spawn(workload, 0, setup_only=True)
    plain, _ = run.spawn(workload, 0)
    run.tally(workload, 0, plain)
    os.makedirs(os.path.join(ROOT, SPAN_DIR), exist_ok=True)
    spans = os.path.join(ROOT, SPAN_DIR, f"spans-{workload}.json.gz")
    traced, _ = run.spawn(workload, 0, trace=1, spans=spans)
    run.tally(workload, 0, traced)
    run.digest_check(workload, plain, traced, "tracing")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    notes = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
             "spans": os.path.relpath(spans, ROOT)}
    return metrics, notes


def environment():
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": "unknown"}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def checkout_problem():
    for rel in ("src/exactcat/__init__.py", "tests/golden"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            return f"{rel} is missing: run from the root of an exactcat checkout"
    return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time spent on timed chunks per workload (untraced runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = Run(args.seed, args.seconds)
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, *_ in LAYERS}
    out = {}
    print("# exactcat bench " + json.dumps({"seed": args.seed, "trace": args.trace,
                                            **environment()}))
    try:
        for name in names:
            run.t0 = time.perf_counter()   # the run limit holds per workload
            metrics, notes = (trace if args.trace else measure)(run, name)
            print(f"## {name} " + json.dumps(notes))
            for key, value in metrics.items():
                print(f"{name:14s} {key:48s} {value:>16.6g} {units[key]}")
            for key, value in metrics.items():
                full = key if len(names) == 1 else f"{name}.{key}"
                out[full] = {"value": value, "unit": units[key]}
    except ChunkTimeout as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    failed_ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_ratio {failed_ratio:.6g} ({run.failed} unexpected of "
          f"{run.attempted} operations)")
    for line in run.problems[:20]:
        print(f"  {line}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
