"""Inputs, timed parts and output checks of the three benchmark workloads.

Everything here runs inside one fresh interpreter (see child.py), after
``src`` is on ``sys.path``.  Inputs depend only on the seed and on the run
length; the program under test receives nothing but the generated graphs.

survey-n8    the golden-count command ``survey --n 8`` run in-process; the
             timed part includes generation, which users pay on every run.
pairs-n7     a seeded sample of the connected 7-vertex graphs, balanced by
             reference cost; every unordered pair decided with both
             deciders, then every verdict checked independently (replay of
             the certificate, or the numeric oracle for a positive).
large-pairs  the antipodal pair of the 5-cube, which transfers perfectly in
             both kinds, so the numeric oracle runs; then strongly
             cospectral pairs on 24 vertices, all negative: the end pair of
             a path, the antipodal pair of a cycle, and a vertex and its
             mirror image in mirror-symmetric random graphs, a seeded
             sample of a fixed pool balanced by reference cost; decided
             with both deciders and checked the same way.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import signal
import statistics
import time

import numpy as np

from pstlab import cli, generate, graphs, harness, pst

SURVEY_ARGV = ["survey", "--n", "8", "--workers", "1", "--format", "json"]

# Work per run is sized from --seconds with these rates, measured on the
# code the benchmark was introduced with, on a 2-core x86-64 box under
# Python 3.11, so that one run takes about --seconds there.  The work
# depends only on --seed and --seconds.
N7_GRAPHS_PER_S = 3.5
BALANCE = 0.01        # balanced samples: largest relative miss of their reference times
LARGE_ITEM_S = 4.75   # mean decide-and-check time of one large-pairs item
PACE_PERIOD_S = 0.25  # seconds between pace samples

# Paths and cycles on 40 vertices take 3-8 s per decision and 8-26 s per
# replay, too long for a run; on 24 vertices an item takes 3-6 s.
LARGE_N = 24          # vertices of every large-pairs graph
MIRROR_PER_ROUND = 2  # mirror-symmetric random graphs per round
MIRROR_POOL = 40      # mirror graphs the rounds draw from

# Looked up in pstlab.pst at each call, so that the tracer's wrappers apply.
DECIDERS = ("laplacian_pst", "adjacency_pst")


# -- inputs ------------------------------------------------------------------

def balanced_sample(cost: list, k: int, rng: random.Random) -> list:
    """Indices of k of the items whose [decide, check] reference times are
    in cost, with each of the two totals within BALANCE of k times its mean
    over all items.  The seed then changes which items run but hardly how
    much work a run does: one item is drawn from each of k strata of the
    items ordered by total time, and the draw is repeated until the sample
    is balanced (or the best of 2000 draws is taken)."""
    if k == 0:
        return []
    order = sorted(range(len(cost)), key=lambda i: (sum(cost[i]), i))
    targets = [k * statistics.fmean(c[j] for c in cost) for j in (0, 1)]
    bounds = [len(cost) * i // k for i in range(k + 1)]
    best = None
    for _ in range(2000):
        picks = [order[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
        miss = max(abs(sum(cost[i][j] for i in picks) / targets[j] - 1) for j in (0, 1))
        if best is None or miss < best[0]:
            best = (miss, picks)
        if miss <= BALANCE:
            break
    return best[1]


def reference_costs(words: list, cost_ms: dict) -> list:
    cost = [cost_ms.get(w) for w in words]
    if None in cost:
        raise ValueError("reference cost_ms does not cover the inputs sampled from")
    return cost


def n7_sample(seed: int, seconds: float, cost_ms: dict) -> list:
    """A balanced sample of the connected 7-vertex graphs, sized from
    seconds."""
    corpus = list(generate.gen_connected_graphs(7))
    cost = reference_costs([graphs.write_graph6(g) for g in corpus], cost_ms)
    k = max(1, min(len(corpus), round(seconds * N7_GRAPHS_PER_S)))
    return [corpus[i] for i in balanced_sample(cost, k, random.Random(f"pairs-n7:{seed}"))]


def _simple_spectrum(g) -> bool:
    for m in (graphs.adjacency(g), graphs.laplacian(g)):
        eig = np.linalg.eigvalsh(np.array(m, dtype=float))
        if np.min(np.diff(eig)) < 1e-6:
            return False
    return True


def mirror_graph(rng: random.Random, m: int):
    """Two copies of a random connected graph on m vertices, joined by the
    edges between a few vertices and their copies; drawn again until both
    the adjacency and the Laplacian spectrum are simple.  The swap of the
    copies is then an involutive automorphism, so every vertex x and its
    mirror x + m are strongly cospectral."""
    while True:
        edges = {(rng.randrange(i), i) for i in range(1, m)}
        while len(edges) < m - 1 + m // 3:
            a, b = sorted(rng.sample(range(m), 2))
            edges.add((a, b))
        rungs = rng.sample(range(m), 2)
        g = graphs.Graph(2 * m, [e for a, b in edges for e in ((a, b), (a + m, b + m))]
                         + [(x, x + m) for x in rungs])
        if _simple_spectrum(g):
            return g, rng.randrange(m)


def mirror_pool() -> list:
    """The (graph, x) mirror graphs that large-pairs samples from, drawn
    from a fixed seed, so that the reference covers every one."""
    rng = random.Random("large-pairs:pool")
    return [mirror_graph(rng, LARGE_N // 2) for _ in range(MIRROR_POOL)]


def large_items(seed: int, seconds: float, cost_ms: dict) -> list:
    """The antipodal pair of the 5-cube, then the run's share of (label,
    graph, u, v) items on LARGE_N vertices, taken in rounds of: the end
    pair of a path, the antipodal pair of a cycle, and a vertex and its
    mirror in each of MIRROR_PER_ROUND mirror graphs.  The mirror graphs
    are a balanced sample of the pool, as in pairs-n7, since their times
    differ by up to 40%.  After the first round the path and the cycle are
    relabelled at random, so no input repeats within a run."""
    n, half = LARGE_N, LARGE_N // 2
    rng = random.Random(f"large-pairs:{seed}")
    one_round = ["path", "cycle"] + ["mirror"] * MIRROR_PER_ROUND
    kinds = [one_round[i % len(one_round)] for i in range(max(1, round(seconds / LARGE_ITEM_S)))]
    pool = mirror_pool()
    if kinds.count("mirror") > len(pool):
        raise ValueError(f"--seconds {seconds:g} needs more than {len(pool)} mirror graphs")
    cost = reference_costs([graphs.write_graph6(g) for g, _ in pool], cost_ms)
    mirrors = iter([pool[i] for i in balanced_sample(cost, kinds.count("mirror"), rng)])
    items = [("hypercube:5", graphs.hypercube(5), 0, 31)]
    for i, kind in enumerate(kinds):
        if kind == "mirror":
            g, x = next(mirrors)
            items.append((f"mirror:{graphs.write_graph6(g)}", g, x, x + half))
            continue
        g, u, v = ((graphs.path_graph(n), 0, n - 1) if kind == "path"
                   else (graphs.cycle_graph(n), 0, half))
        if i >= len(one_round):
            pos = rng.sample(range(n), n)
            g, u, v = g.relabel(pos), pos[u], pos[v]
        items.append((f"{kind}:{n}", g, u, v))
    return items


def pair_items(workload: str, seed: int, seconds: float, reference: dict) -> list:
    """(label, graph, u, v) queries of a pair workload."""
    if workload == "pairs-n7":
        sample = n7_sample(seed, seconds, reference["pairs-n7"]["cost_ms"])
        return [(graphs.write_graph6(g), g, u, v) for g in sample
                for u in range(g.n) for v in range(u + 1, g.n)]
    return large_items(seed, seconds, reference["large-pairs"]["cost_ms"])


# -- digests -----------------------------------------------------------------

def report_digest(reports) -> str:
    """sha256 of the pair-report JSON, sorted by (graph6, kind, u, v)."""
    rows = sorted((r.to_json() for r in reports),
                  key=lambda j: (j["graph6"], j["kind"], j["u"], j["v"]))
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_key(seed: int, seconds: float) -> str:
    """Key of a whole-run digest in reference.json."""
    return f"seed={seed},seconds={seconds:g}"


def digests_by_graph(reports) -> dict:
    """First 16 hex digits of report_digest per graph6 word."""
    by_graph: dict = {}
    for r in reports:
        by_graph.setdefault(r.graph6, []).append(r)
    return {w: report_digest(rs)[:16] for w, rs in by_graph.items()}


# -- timed parts -------------------------------------------------------------

def cold_state_problems() -> list:
    """Program caches that would turn a timed run into a cache hit."""
    problems = []
    if generate._connected_cache:
        problems.append(f"generate._connected_cache holds n={sorted(generate._connected_cache)}")
    if harness._cached_profile.cache_info().currsize:
        problems.append("harness._cached_profile is not empty")
    return problems


class Outcome:
    """What a timed part did: counts, per-operation latencies, checks."""

    def __init__(self):
        self.wall_s = 0.0
        self.paces: list = []     # pace() samples taken through the timed part
        self.items = 0            # survey records or pair decisions
        self.decide_s = 0.0
        self.decide_ms: list = []
        self.verify_s = 0.0
        self.verify_ms: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.details: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def pace() -> float:
    """Seconds for a fixed pure-Python loop, best of three.  The speed of
    a shared machine drifts by up to a factor of two over seconds; a time
    divided by the mean pace sampled through it does not drift with it."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        sum(i * i % 7 for i in range(20_000))
        best = min(best, time.perf_counter() - t)
    return best


class Pacer:
    """Samples pace() every PACE_PERIOD_S through a with block, from a timer
    signal whose handler runs in this thread between bytecodes.  The timed
    parts read clock(), which leaves the sampling out.  One sample is taken
    on entry, before any timing starts, so a short run has one too."""

    def __init__(self, paces: list):
        self.paces = paces
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.paces.append(pace())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "Pacer":
        self._sample()
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)
        return self

    def clock(self) -> float:
        """perf_counter stopped while sampling."""
        return time.perf_counter() - self.spent_s

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_survey(reference: dict) -> Outcome:
    out = Outcome()
    buf = io.StringIO()
    with Pacer(out.paces) as pacer:
        t0 = pacer.clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(SURVEY_ARGV))
        except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
            code = f"raised {exc!r}"
        out.wall_s = pacer.clock() - t0
    out.check(code == 0, f"survey exit status {code}")
    try:
        agg = json.loads(buf.getvalue().strip().splitlines()[-1])
    except (ValueError, IndexError):
        agg = {}
    expected = reference["survey-n8"]["aggregate"]
    for key in sorted(expected):
        out.check(agg.get(key) == expected[key],
                  f"survey {key}: got {agg.get(key)!r}, reference {expected[key]!r}")
    out.items = agg.get("total") or 0
    out.details["aggregate"] = agg
    return out


def run_pairs(workload: str, items: list, seed: int, seconds: float,
              reference: dict) -> Outcome:
    """Graph by graph, decide every query on the graph with both deciders,
    then check every verdict.  Interleaving the phases per graph spreads
    both over the whole run, so a slow spell of the machine weighs on the
    decide and the check rates alike."""
    out = Outcome()
    reports = []
    with Pacer(out.paces) as pacer:
        t_start = pacer.clock()
        for g, group in itertools.groupby(items, key=lambda item: item[1]):
            decided = []
            for label, _, u, v in group:
                for decider in DECIDERS:
                    t0 = pacer.clock()
                    try:
                        decided.append(getattr(pst, decider)(g, u, v))
                    except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
                        out.check(False, f"{label} {decider} ({u},{v}) raised {exc!r}")
                    dt = pacer.clock() - t0
                    out.decide_ms.append(dt * 1e3)
                    out.decide_s += dt
            for report in decided:
                t0 = pacer.clock()
                try:
                    if report.yes:
                        ok, why = harness.verify_positive_report(g, report)
                    else:
                        ok, why = harness.replay_certificate(g, report)
                except Exception as exc:  # noqa: BLE001 - a raising check is a counted failure
                    ok, why = False, f"raised {exc!r}"
                dt = pacer.clock() - t0
                out.verify_ms.append(dt * 1e3)
                out.verify_s += dt
                out.check(ok, f"{report.graph6} {report.matrix_kind} ({report.u},{report.v}) "
                              f"{report.verdict}: {why}")
            reports += decided
        out.wall_s = pacer.clock() - t_start
    out.items = len(out.decide_ms)
    _check_digests(workload, reports, seed, seconds, reference, out)
    hist: dict = {}
    for r in reports:
        key = f"{r.verdict}.{r.certificate.kind if r.certificate else 'none'}"
        hist[key] = hist.get(key, 0) + 1
    out.details["verdicts"] = dict(sorted(hist.items()))
    cache = harness._cached_profile.cache_info()
    out.details["replay_cache"] = {"hits": cache.hits, "misses": cache.misses}
    return out


def _check_digests(workload, reports, seed, seconds, reference, out) -> None:
    ref = reference[workload]
    digest = report_digest(reports)
    out.details["digest"] = digest
    per_graph = ref["per_graph"]
    for word, d in sorted(digests_by_graph(reports).items()):
        if word in per_graph:
            out.check(d == per_graph[word], f"{word}: report digest {d}, reference {per_graph[word]}")
    run_ref = ref["runs"].get(run_key(seed, seconds))
    if run_ref is not None:
        out.check(digest == run_ref, f"run digest {digest}, reference {run_ref}")
