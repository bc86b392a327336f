"""One benchmark chunk in a fresh interpreter (started by run.py).

Imports exactcat from ``src/`` of the checkout it runs in, builds the
workload's models and inputs, runs the timed part once and prints one JSON
object on its last line of output.  With ``--trace 1`` the tracer wraps the
library first and the per-layer metrics are added; ``--setup-only`` stops
at the first timed call, to sample set-up time.

    python3 bench/worker.py --workload laws_fgab --subseed 7000 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--subseed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="file for the traced run's spans")
    args = p.parse_args(argv)

    import exactcat
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(exactcat.__file__).startswith(src + os.sep):
        raise SystemExit(f"exactcat imported from {exactcat.__file__}, not {src}")
    import workloads
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    run = workloads.setup(args.workload, args.subseed, ROOT)
    t_first = time.perf_counter()
    result = {"t_first": t_first}
    if not args.setup_only:
        outcome = run()
        wall = time.perf_counter() - t_first
        result.update(wall_s=wall, ops=outcome.ops, unexpected=outcome.unexpected,
                      calls_ms=outcome.calls_ms, digest=outcome.digest,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            if args.spans:
                tracer.write_spans(args.spans)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
