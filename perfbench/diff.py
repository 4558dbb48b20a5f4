"""Compare two result files of perfbench/run.py, metric by metric.

    python3 perfbench/diff.py BASE.json NEW.json

For every workload present in both files, prints each end-to-end and
per-layer metric of BASE and NEW side by side with the relative change,
then every span's calls, inclusive and self time, and whether the pair
report digests agree.  Files written with --workload all hold all three
workloads; files of single workloads compare workload by workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def change(a, b) -> str:
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return ""
    if a == 0:
        return "" if b == 0 else "new"
    return f"{(b - a) / abs(a):+.1%}"


def row(name: str, a, b, unit: str = "") -> str:
    fa = "-" if a is None else f"{a:.6g}"
    fb = "-" if b is None else f"{b:.6g}"
    return f"  {name:44s} {fa:>14s} {fb:>14s} {change(a, b):>8s} {unit}"


def value(metrics: dict, name: str):
    m = metrics.get(name)
    return None if m is None else m["value"]


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    for side, doc in (("base", base), ("new", new)):
        meta = doc["meta"]
        print(f"{side}: sha={meta['git_sha']} src={meta['src_sha256'][:12]} seed={meta['seed']} "
              f"seconds={meta['seconds']} nproc={meta['nproc']} cpu={meta['cpu']} "
              f"python={meta['python']} numpy={meta['numpy']}")
    common = [w for w in base["workloads"] if w in new["workloads"]]
    if not common:
        print("no workload in common", file=sys.stderr)
        return 1
    for w in common:
        a, b = base["workloads"][w], new["workloads"][w]
        print(f"\n{w}{'':34s} {'base':>14s} {'new':>14s} {'change':>8s}")
        for section in ("end_to_end", "per_layer"):
            ma, mb = a.get(section, {}), b.get(section, {})
            for name in list(ma) + [n for n in mb if n not in ma]:
                unit = (ma.get(name) or mb.get(name))["unit"]
                print(row(name, value(ma, name), value(mb, name), unit))
        la, lb = a.get("layers", {}), b.get("layers", {})
        if la or lb:
            print("  spans: calls / inclusive s / self s")
            for span in sorted(set(la) | set(lb)):
                for field in ("calls", "s", "self_s"):
                    print(row(f"{span}.{field}", la.get(span, {}).get(field),
                              lb.get(span, {}).get(field)))
        da, db = a["details"].get("digest"), b["details"].get("digest")
        if da or db:
            print(f"  report digest {'same' if da == db else 'DIFFERS'}: {da} {db}")
        if a.get("failed") or b.get("failed"):
            print(f"  failed checks: base {a.get('failed')}, new {b.get('failed')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
