"""One set-up, and optionally one timed part, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD --seed N --seconds S --t0 T
                               [--setup-only | --spans PATH]

Started by run.py; prints one JSON object on its last line.  With --spans
the timed part is traced and the spans are written to PATH.  ``--t0`` is
the parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, imports and input construction.
``time.monotonic`` reads a clock shared by all processes on Linux.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from pstlab import generate

    reference = json.loads((HERE / "reference.json").read_text())
    items = None
    if args.workload != "survey-n8":
        items = workloads.pair_items(args.workload, args.seed, args.seconds, reference)
        # Set-up generation fills this cache; the timed part must start cold.
        generate._connected_cache.clear()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cold = workloads.cold_state_problems()
    if args.workload == "survey-n8":
        out = workloads.run_survey(reference)
    else:
        out = workloads.run_pairs(args.workload, items, args.seed, args.seconds, reference)
    for problem in cold:
        out.check(False, f"cold-state guard: {problem}")

    result.update(
        wall_s=out.wall_s, paces=out.paces, items=out.items, decide_s=out.decide_s, decide_ms=out.decide_ms,
        verify_s=out.verify_s, verify_ms=out.verify_ms, attempted=out.attempted,
        failed=out.failed, errors=out.errors, details=out.details,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        layers = tracer.layers()
        gen_calls = tracer.count_under("generate.canonical_form", "generate.gen_connected_graphs")
        kept = sum(len(v) for k, v in generate._connected_cache.items() if k >= 2)
        result["layers"] = layers
        result["spans"] = len(tracer)
        result["unique_ratio"] = kept / gen_calls if gen_calls else 0.0
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
