"""Command-line interface: analyze, survey, trees, simulate, generate.

Exit codes: 0 success, 1 failed golden-count assertion or internal failure
(named with its command), 2 configuration or parse errors, which the
commands validate before any work starts.  Machine formats (json, jsonl,
csv) emit nothing but the payload on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .generate import (
    MAX_CONNECTED_N,
    MAX_TREE_N,
    gen_connected_graphs,
    gen_free_trees,
    stream_from_file,
)
from .graphs import Graph, Graph6ParseError, construct, parse_graph6, write_graph6
from .harness import (
    MAX_TREE_SWEEP_N,
    _free_trees,
    aggregate_to_csv,
    run_survey,
    write_survey_jsonl,
)
from .pst import YES, all_pair_reports, decide, pst_search
from .spectral import KINDS, LAPLACIAN, SIGNLESS_LAPLACIAN, matrix_of, support_profile

GOLDEN_COUNTS_7 = {"connected": 853, "tau_odd": 339, "tau_power_of_two": 83,
                  "pow2_with_small_twins": 58}
GOLDEN_COUNTS_8 = {"connected": 11117, "tau_power_of_two": 360,
                  "bipartite": 182, "bipartite_lmax_integer": 10}
GOLDEN_RULED_OUT_8 = 247


class CliError(Exception):
    """Configuration problem; maps to exit code 2."""


def _workers(args) -> int:
    workers, source = args.workers, "--workers"
    if workers is None:
        env = os.environ.get("PSTLAB_WORKERS")
        if not env:
            return os.cpu_count() or 1
        try:
            workers, source = int(env), "PSTLAB_WORKERS"
        except ValueError as exc:
            raise CliError(f"PSTLAB_WORKERS={env!r} is not an integer") from exc
    if workers < 1:
        raise CliError(f"{source} must be at least 1, got {workers}")
    return workers


def _matrix_kind(name: str) -> str:
    kind = SIGNLESS_LAPLACIAN if name == "signless" else name
    if kind not in KINDS:
        raise CliError(f"unknown matrix kind {name!r}")
    return kind


def _graph_source(args) -> Graph:
    sources = [s for s in (args.g6, args.family, getattr(args, "file", None))
               if s is not None]
    if len(sources) != 1:
        raise CliError("exactly one of --g6, --family, --file is required")
    if args.g6 is not None:
        try:
            return parse_graph6(args.g6)
        except Graph6ParseError as exc:
            raise CliError(f"bad graph6 literal: {exc}") from exc
    if args.family is not None:
        name, _, param_text = args.family.partition(":")
        if not param_text:
            raise CliError("family syntax is name:params, e.g. cycle:4")
        try:
            params = [int(x) for x in param_text.split(",")]
            return construct(name, params)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    try:
        return next(stream_from_file(args.file))
    except StopIteration:
        raise CliError(f"{args.file} contains no graphs") from None


def _parse_pairs(text: str, g: Graph) -> Optional[tuple[int, int]]:
    if text == "all":
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError("--pairs takes 'all' or 'u,v'")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise CliError("--pairs vertices must be integers") from exc
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise CliError(f"pair ({u},{v}) invalid for a graph on {g.n} vertices")
    return u, v


def _emit(payloads: list[dict], fmt: str, human_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payloads if len(payloads) != 1 else payloads[0],
                         indent=2, sort_keys=True))
    elif fmt == "jsonl":
        for p in payloads:
            print(json.dumps(p, sort_keys=True))
    elif fmt == "human":
        for line in human_lines:
            print(line)
    else:
        raise CliError(f"format {fmt!r} not supported here")


def _human_report(r) -> str:
    if r.verdict == YES:
        t = f"t = {r.time_coeff}*pi" + (f"/sqrt({r.time_delta})" if r.time_delta != 1 else "")
        phase = f"exp(i*pi*{r.phase_s})"
        return (f"({r.u},{r.v}) {r.matrix_kind}: transfer YES, g={r.g}, {t}, "
                f"phase {phase}")
    reason = r.certificate.kind if r.certificate else "?"
    return f"({r.u},{r.v}) {r.matrix_kind}: {r.verdict.upper()} [{reason}]"


def cmd_analyze(args) -> int:
    g = _graph_source(args)
    if not g.is_connected():
        raise CliError("perfect state transfer analysis rejects disconnected graphs")
    kind = _matrix_kind(args.matrix)
    pair = _parse_pairs(args.pairs, g)
    if pair is None:
        reports = all_pair_reports(g, kind)
    else:
        reports = [decide(g, kind, pair[0], pair[1])]
    payloads = [r.to_json() for r in reports]
    lines = [_human_report(r) for r in reports]
    if args.show_support:
        for u in sorted({r.u for r in reports} | {r.v for r in reports}):
            prof = support_profile(g, kind, u)
            payloads.append({"support_of": u,
                             "support": [e.to_json() for e in prof.support]})
            lines.append(f"support({u}): {[e.to_json() for e in prof.support]}")
    _emit(payloads, args.format, lines)
    return 0


def cmd_survey(args) -> int:
    workers = _workers(args)
    if args.n is not None and args.file is not None:
        raise CliError("choose one of --n or --file")
    if args.n is not None:
        if not 1 <= args.n <= MAX_CONNECTED_N:
            raise CliError(f"built-in survey covers 1 <= n <= {MAX_CONNECTED_N}; "
                           "use --file beyond")
        graphs = gen_connected_graphs(args.n)
        label = f"n={args.n}"
    elif args.file is not None:
        graphs = stream_from_file(args.file)
        label = args.file
    else:
        raise CliError("survey needs --n or --file")
    if args.assert_paper and args.n not in (7, 8):
        raise CliError("--assert-paper applies to --n 7 and --n 8")
    records, agg = run_survey(graphs, with_pst=args.pst, workers=workers)
    if args.out:
        write_survey_jsonl(records, args.out)
    agg_view = {"source": label, **agg}
    if args.format == "csv":
        sys.stdout.write(aggregate_to_csv(agg_view))
    elif args.format in ("json", "jsonl"):
        print(json.dumps(agg_view, sort_keys=True))
    else:
        for k in sorted(agg_view):
            print(f"{k}: {agg_view[k]}")
    if args.assert_paper:
        return _assert_golden_counts(args.n, agg)
    return 0


def _assert_golden_counts(n: int, agg: dict) -> int:
    if n == 7:
        expected = GOLDEN_COUNTS_7
    else:
        # each reading of the paper's ruled-out figure is checked on its own
        expected = {**GOLDEN_COUNTS_8,
                    "ruled_out_reading_small_twins": GOLDEN_RULED_OUT_8,
                    "ruled_out_reading_no_admissible_pair": GOLDEN_RULED_OUT_8}
    failures = [f"{key}: got {agg[key]}, expected {want}"
                for key, want in expected.items() if agg[key] != want]
    for f in failures:
        print(f"GOLDEN-COUNT MISMATCH {f}", file=sys.stderr)
    return 1 if failures else 0


def cmd_trees(args) -> int:
    if not 2 <= args.max_n <= MAX_TREE_SWEEP_N:
        raise CliError(f"tree sweep supports 2 <= max-n <= {MAX_TREE_SWEEP_N}")
    kind = _matrix_kind(args.matrix)
    # the Laplacian exclusion concerns trees on more than two vertices; the
    # other kinds sweep from the one-edge path, a positive in each
    rows = [r.to_json() for t in _free_trees(3 if kind == LAPLACIAN else 2, args.max_n)
            for r in pst_search(t, kind)]
    if args.format in ("json", "jsonl"):
        print(json.dumps({"matrix": kind, "max_n": args.max_n,
                          "yes_reports": rows}, sort_keys=True))
    else:
        print(f"{kind} sweep over trees up to {args.max_n} vertices: "
              f"{len(rows)} transfer pair(s)")
        for row in rows:
            print(f"  {row['graph6']} ({row['u']},{row['v']})")
    return 0


def cmd_simulate(args) -> int:
    g = _graph_source(args)
    kind = _matrix_kind(args.matrix)
    pair = _parse_pairs(args.pairs, g)
    if pair is None:
        raise CliError("simulate needs an explicit --pairs u,v")
    if args.steps < 2:
        raise CliError("--steps must be at least 2")
    if not np.isfinite(args.t_max):
        raise CliError(f"--t-max must be finite, got {args.t_max}")
    u, v = pair
    dt = args.t_max / (args.steps - 1)
    sys.stdout.write("t,fidelity\n")
    # |exp(itM)_{v,u}|^2 at every step from one eigh per run
    eigvals, eigvecs = np.linalg.eigh(np.array(matrix_of(g, kind), dtype=float))
    for i in range(args.steps):
        t = i * dt
        amp = (eigvecs * np.exp(1j * t * eigvals)) @ eigvecs.T
        sys.stdout.write(f"{t!r},{float(abs(amp[v, u]) ** 2)!r}\n")
    return 0


def cmd_generate(args) -> int:
    if args.what == "trees":
        gen, limit, label = gen_free_trees, MAX_TREE_N, "tree"
    elif args.what == "graphs":
        gen, limit, label = gen_connected_graphs, MAX_CONNECTED_N, "connected"
    else:
        raise CliError("generate knows 'trees' and 'graphs'")
    if not 1 <= args.n <= limit:
        raise CliError(f"{label} generation limited to 1 <= n <= {limit}")
    for g in gen(args.n):
        print(write_graph6(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstlab",
        description="Exact perfect-state-transfer analysis on graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--g6", help="graph6 literal")
        p.add_argument("--family", help="family:params, e.g. cycle:4, one_sum:3,3")
        p.add_argument("--file", help="graph6 file (first graph)")

    p = sub.add_parser("analyze", help="decide transfer for vertex pairs")
    add_source(p)
    p.add_argument("--matrix", default="laplacian")
    p.add_argument("--pairs", default="all", help="'all' or 'u,v'")
    p.add_argument("--show-support", action="store_true")
    p.add_argument("--format", default="human",
                   choices=["human", "json", "jsonl"])

    p = sub.add_parser("survey", help="per-graph records and aggregate counts")
    p.add_argument("--n", type=int, help="built-in connected corpus size (<= 8)")
    p.add_argument("--file", help="graph6 corpus file")
    p.add_argument("--pst", action="store_true",
                   help="also scan every pair for transfer")
    p.add_argument("--assert-paper", action="store_true",
                   help="fail unless the bundled golden counts reproduce")
    p.add_argument("--out", help="write per-graph records as JSON lines")
    p.add_argument("--workers", type=int)
    p.add_argument("--format", default="human",
                   choices=["human", "json", "jsonl", "csv"])

    p = sub.add_parser("trees", help="transfer sweep over all free trees")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--matrix", default="laplacian")
    p.add_argument("--format", default="human",
                   choices=["human", "json", "jsonl"])

    p = sub.add_parser("simulate", help="fidelity curve on a time grid")
    add_source(p)
    p.add_argument("--matrix", default="laplacian")
    p.add_argument("--pairs", required=True, help="'u,v'")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("generate", help="emit graph6 words")
    p.add_argument("what", choices=["trees", "graphs"])
    p.add_argument("--n", type=int, required=True)

    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "survey": cmd_survey,
    "trees": cmd_trees,
    "simulate": cmd_simulate,
    "generate": cmd_generate,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (CliError, Graph6ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ValueError) as exc:
        print(f"internal failure in {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
