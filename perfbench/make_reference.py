"""Regenerate perfbench/reference.json, the outputs every run is checked against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good (the reference was
made on the commit that introduced the benchmark).  A run that disagrees
with the reference counts the disagreement as a failure; regenerating the
reference to make a run pass defeats the check.

Records: the survey --n 8 aggregate; a digest of the 42 pair reports of
every connected 7-vertex graph and of the 2 reports of every graph in the
large-pairs mirror pool, so that any seeded sample is checked; the time to
decide and to check each of those graphs, corrected for drift in the
machine's speed, which pairs-n7 and large-pairs balance their samples by;
and the digests of the large-pairs inputs and of whole runs for seed 1 at
BENCHMARK.json's run_seconds.
Every verdict recorded passes its replay or oracle check.  Takes about
eight minutes on a 2-core box.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from pstlab import cli, generate, graphs, harness, pst  # noqa: E402

SEED = 1  # the seed whose whole runs the reference holds digests of


def decide_all(items):
    return [(g, getattr(pst, decider)(g, u, v))
            for _, g, u, v in items for decider in workloads.DECIDERS]


def check_all(decided):
    """The reports; exits if a verdict fails its replay or oracle check."""
    for g, r in decided:
        ok, why = (harness.verify_positive_report(g, r) if r.yes
                   else harness.replay_certificate(g, r))
        if not ok:
            raise SystemExit(f"{r.graph6} {r.matrix_kind} ({r.u},{r.v}): {why}")
    return [r for _, r in decided]


def checked_reports(items):
    return check_all(decide_all(items))


def timed_graphs(groups):
    """({graph6: [decide ms, check ms]}, per-graph digests) of (graph6,
    items) groups, one graph's queries per group.  Times are corrected to
    the median pace of the pass by pace samples taken through each group."""
    per_graph, raw = {}, {}
    for word, items in groups:
        paces = []
        with workloads.Pacer(paces) as pacer:
            t0 = pacer.clock()
            decided = decide_all(items)
            t1 = pacer.clock()
            per_graph.update(workloads.digests_by_graph(check_all(decided)))
            t2 = pacer.clock()
        raw[word] = (t1 - t0, t2 - t1, statistics.fmean(paces))
    scale = 1e3 * statistics.median(p for _, _, p in raw.values())
    cost = {w: [round(d / p * scale, 1), round(c / p * scale, 1)] for w, (d, c, p) in raw.items()}
    return cost, per_graph


def large_pairs_reference(seconds: float) -> dict:
    half = workloads.LARGE_N // 2
    groups = []
    for g, x in workloads.mirror_pool():
        word = graphs.write_graph6(g)
        groups.append((word, [(word, g, x, x + half)]))
    cost, per_graph = timed_graphs(groups)
    out = {"cost_ms": cost, "per_graph": per_graph}
    reports = checked_reports(workloads.pair_items("large-pairs", SEED, seconds, {"large-pairs": out}))
    per_graph.update(workloads.digests_by_graph(reports))
    out["runs"] = {workloads.run_key(SEED, seconds): workloads.report_digest(reports)}
    return out


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ref: dict = {}

    t0 = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(list(workloads.SURVEY_ARGV)) != 0:
            raise SystemExit("survey failed")
    ref["survey-n8"] = {"argv": workloads.SURVEY_ARGV,
                        "aggregate": json.loads(buf.getvalue().strip().splitlines()[-1])}
    print(f"survey-n8 {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    t0 = time.perf_counter()
    groups = []
    for g in generate.gen_connected_graphs(7):
        word = graphs.write_graph6(g)
        groups.append((word, [(word, g, u, v) for u in range(g.n) for v in range(u + 1, g.n)]))
    cost, per_graph = timed_graphs(groups)
    ref["pairs-n7"] = {"cost_ms": cost, "per_graph": per_graph}
    sample = workloads.pair_items("pairs-n7", SEED, seconds, ref)
    ref["pairs-n7"]["runs"] = {workloads.run_key(SEED, seconds): workloads.report_digest(checked_reports(sample))}
    print(f"pairs-n7 {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    t0 = time.perf_counter()
    ref["large-pairs"] = large_pairs_reference(seconds)
    print(f"large-pairs {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
