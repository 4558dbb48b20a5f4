"""pstlab benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

--seconds defaults to BENCHMARK.json's run_seconds, the length that
reference.json holds whole-run digests for (with seed 1).

Workloads: survey-n8, pairs-n7, large-pairs (see workloads.py), or all.
Every timed part runs in a fresh interpreter (child.py), so the program's
caches start empty; the child checks that they do.

--trace 0  runs set-up alone twice more, for a median set-up time, and
           reports the end-to-end metrics of BENCHMARK.json.  Times and
           rates there, setup_s too, are paced: corrected to the reference
           pace of the machine by pace samples taken through the timed
           part (see README.md); the unpaced figures are printed beside
           them.
--trace 1  runs the timed part untraced and traced side by side on the
           same seed, and reports the per-layer metrics of BENCHMARK.json,
           including the tracing overhead (traced minus untraced paced wall
           time).

Prints every metric by name with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  Writes the full
record (run metadata, sample counts, verdict histogram, digests, the whole
span table) to FILE, by default perfbench/out/<workload>-seed<N>-trace<T>.json.
Compare two such files with perfbench/diff.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ["survey-n8", "pairs-n7", "large-pairs"]
SETUP_REPEATS = 3
DEADLINE_S = 175          # one workload must finish within this
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75)
VERDICT_PREFIX = "pst.verdict."
PACE_REF_S = 1.6e-3       # workloads.pace() on the reference box


class ChildFailed(RuntimeError):
    pass


def start_child(workload: str, args, setup_only: bool = False,
                spans: Path | None = None) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "child.py"), workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--t0", repr(time.monotonic())]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, deadline: float) -> dict:
    """The child's result; kills it and raises ChildFailed past the deadline."""
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("child ran past the deadline") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with status {proc.returncode}")
    return json.loads(lines[-1])


def percentile(sorted_xs: list, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def tail(xs: list):
    """Highest listed percentile with at least ten samples above it."""
    s = sorted(xs)
    for p in TAIL_PERCENTILES:
        if len(s) - math.ceil(p / 100 * len(s)) >= 10:
            return {"percentile": p, "value": percentile(s, p), "samples": len(s)}
    return None


def slowness(child: dict) -> float:
    """How much slower than the reference pace a child's timed part ran."""
    return statistics.fmean(child["paces"]) / PACE_REF_S


def end_to_end(workload: str, timed: dict, setups: list) -> tuple[dict, dict]:
    """(metrics, sample counts) of one untraced timed child."""
    m = {"unpaced_setup_s": (statistics.median(setups), "s"),
         "wall_s": (timed["wall_s"], "s"),
         "peak_rss_mb": (timed["peak_rss_mb"], "MB")}
    samples = {"setup_s": len(setups), "pace": len(timed["paces"])}
    if workload == "survey-n8":
        rate = "graphs_per_s"
        m[rate] = (timed["items"] / timed["wall_s"], "1/s")
    else:
        rate = "pairs_per_s"
        m[rate] = (timed["items"] / timed["decide_s"], "1/s")
        m["pair_ms_p50"] = (statistics.median(timed["decide_ms"]), "ms")
        t = tail(timed["decide_ms"])
        if t is not None:
            m["pair_ms_tail"] = (t["value"], "ms")
            samples["pair_ms_tail"] = t
        m["verify_per_s"] = (len(timed["verify_ms"]) / timed["verify_s"], "1/s")
        m["verify_ms_p50"] = (statistics.median(timed["verify_ms"]), "ms")
        samples.update(pair_ms=len(timed["decide_ms"]), verify_ms=len(timed["verify_ms"]))
    # Seconds and rates at the reference pace: the machine's drift cancels.
    m["pace_ms"] = (statistics.fmean(timed["paces"]) * 1e3, "ms")
    m["paced_wall_s"] = (m["wall_s"][0] / slowness(timed), "s")
    m["paced_items_per_s"] = (m[rate][0] * slowness(timed), "1/s")
    # The set-ups run just before the timed part, whose pace stands for theirs.
    m["setup_s"] = (m["unpaced_setup_s"][0] / slowness(timed), "s")
    m["fail_frac"] = (timed["failed"] / timed["attempted"], "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, samples


def per_layer(spec: list, traced: dict, untraced: dict) -> dict:
    """Values of the per-layer metrics named in BENCHMARK.json."""
    layers = traced["layers"]
    verdicts = traced["details"].get("verdicts", {})
    decisions = sum(verdicts.values())
    cache = traced["details"].get("replay_cache", {"hits": 0, "misses": 0})
    lookups = cache["hits"] + cache["misses"]
    special = {
        "generate.unique_ratio": traced["unique_ratio"],
        "pst.gate_ratio": verdicts.get("no.not-strongly-cospectral", 0) / decisions if decisions else 0.0,
        "harness.replay_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        # paced, since the two cores need not run at the same speed
        "trace.overhead_s": (traced["wall_s"] / slowness(traced)
                             - untraced["wall_s"] / slowness(untraced)),
        "trace.spans": traced["spans"],
    }
    out = {}
    for entry in spec:
        name = entry["name"]
        if name in special:
            value = special[name]
        elif name.startswith(VERDICT_PREFIX):
            value = verdicts.get(name[len(VERDICT_PREFIX):], 0)
        else:
            span, field = name.rsplit(".", 1)
            value = layers[span][field]
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def measure(workload: str, args, spec: dict, deadline: float) -> dict:
    setups, traced = [], None
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(collect(start_child(workload, args, setup_only=True), deadline)["setup_s"])
        timed = collect(start_child(workload, args), deadline)
    else:
        # Untraced and traced side by side, one per core, so both see the
        # same spell of the machine; per_layer paces their difference.
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-seed{args.seed}.csv.gz"
        procs = [start_child(workload, args), start_child(workload, args, spans=spans)]
        try:
            timed, traced = (collect(p, deadline) for p in procs)
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
    setups.append(timed["setup_s"])
    metrics, samples = end_to_end(workload, timed, setups)
    record = {"end_to_end": metrics, "samples": samples, "attempted": timed["attempted"],
              "failed": timed["failed"], "errors": timed["errors"], "details": timed["details"]}
    if traced is not None:
        record["per_layer"] = per_layer(spec["per_layer"], traced, timed)
        record["layers"] = traced["layers"]
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["attempted"] += traced["attempted"]
        record["failed"] += traced["failed"]
        record["errors"] += traced["errors"]
        if traced["details"].get("digest") != timed["details"].get("digest"):
            record["attempted"] += 1
            record["failed"] += 1
            record["errors"].append("traced and untraced runs disagree on the report digest")
    record["correct"] = record["failed"] == 0
    return record


def metadata_record(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pstlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "platform": platform.platform(),
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pstlab" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a pstlab checkout (src/pstlab and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    shown = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {"meta": metadata_record(args), "workloads": {}}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            rec = measure(workload, args, spec, time.monotonic() + DEADLINE_S)
        except ChildFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        result["workloads"][workload] = rec
        table = {**rec["end_to_end"], **rec.get("per_layer", {})}
        for name, m in table.items():
            print(f"{workload:12s} {name:42s} {m['value']:>14.6g} {m['unit']}")
        t = rec["samples"].get("pair_ms_tail")
        if t:
            print(f"{workload:12s} pair_ms_tail is p{t['percentile']:g} of {t['samples']} decisions")
        for err in rec["errors"]:
            print(f"{workload:12s} FAILED {err}")
        summary["correct"] &= rec["correct"]
        summary["attempted"] += rec["attempted"]
        summary["failed"] += rec["failed"]
        prefix = "" if len(names) == 1 else f"{workload}."
        for entry in shown:
            summary["metrics"][prefix + entry["name"]] = table[entry["name"]]

    out = Path(args.out) if args.out else OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
