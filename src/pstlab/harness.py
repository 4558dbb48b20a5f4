"""Executable theorem checks and corpus surveys.

Each check_* function re-derives one structural statement over a corpus and
returns a CheckResult with explicit witnesses on failure.  run_survey
produces per-graph records plus aggregate counts, every fact but the
transfer pairs read off exact array passes over chunks of one order: tree
counts and integral lambda_max from one Laplacian stack, connectivity from
the tree counts, twins and bipartiteness from the neighbour masks and the
adjacency stack, and the canonical word that a generated graph carries or
one canonical_words call gives; replay_certificate is the
independent validator for negative transfer verdicts, reconstructing the
violated condition from freshly computed supports, projection signs and,
for a residual witness, walk counts projected onto its roots, with the
minimal polynomials of e_u -+ e_v as the fallback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from multiprocessing import Pool
from typing import Iterable, Iterator, Optional

import numpy as np

from .exactalg import (
    IntPolynomial,
    det_bareiss,
    factor_support,
    poly_gcd,
    semidefinite_pivots,
    squarefree_part,
)
from .generate import (_CHUNK_ENTRIES, MAX_CANONICAL_N, CanonicalGraph, adjacency_stack,
                       canonical_form, canonical_words, gen_free_trees)
from .graphs import Graph, adjacency, bipartition, find_twins, write_graph6
from .pst import (
    MIXED_DELTA,
    NO,
    NON_INTEGER_SUPPORT,
    NOT_STRONGLY_COSPECTRAL,
    PARITY_VIOLATION,
    QUADRATIC_MIXED_A,
    RESIDUAL_FACTOR,
    UNDECIDED,
    YES,
    PSTReport,
    all_pair_reports,
    decide,
    numeric_fidelity,
    pst_search,
)
from .spectral import (
    ADJACENCY,
    KINDS,
    LAPLACIAN,
    IntegerEig,
    QuadraticEig,
    ResidualEig,
    classify_by_minpolys,
    cospectrality_profile,
    eigenvalue_bound,
    projection_sign,
    support_profile,
    walks_differ_at,
)

# largest tree order the tree sweeps run to; gen_free_trees goes to MAX_TREE_N
MAX_TREE_SWEEP_N = 12
# a positive verdict's numeric fidelity must reach 1 - FIDELITY_TOLERANCE
FIDELITY_TOLERANCE = 1e-9


def power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def spanning_tree_count(g: Graph, vertex: int = 0) -> int:
    """Number of spanning trees: determinant of the Laplacian with one
    row and column deleted; 0 for disconnected graphs."""
    if not 0 <= vertex < g.n:
        raise ValueError(f"vertex {vertex} out of range")
    return _tree_counts(_laplacians([g]), vertex)[0]


def _laplacians(graphs: list[Graph]) -> np.ndarray:
    """The Laplacians of graphs of one order as a (B, n, n) int64 stack."""
    return _laplacian_stack(adjacency_stack([g.adj for g in graphs], graphs[0].n))


def _laplacian_stack(a: np.ndarray) -> np.ndarray:
    """The Laplacians of a (B, n, n) stack of 0/1 adjacency matrices."""
    n = a.shape[-1]
    lap = -a
    lap[:, range(n), range(n)] = a.sum(axis=2)
    return lap


def _tree_counts(laps: np.ndarray, vertex: int = 0) -> list[int]:
    """Spanning-tree counts of a Laplacian stack: each reduced Laplacian
    is semidefinite, singular exactly when its graph is disconnected, and
    otherwise has its determinant as its last pivot."""
    keep = np.arange(laps.shape[1]) != vertex
    _, singular, last = semidefinite_pivots(laps[:, keep][:, :, keep])
    return np.where(singular, 0, last).tolist()


def is_pedestrian(g: Graph) -> bool:
    """Odd spanning-tree count."""
    if not g.is_connected():
        raise ValueError("pedestrian test requires a connected graph")
    return spanning_tree_count(g) % 2 == 1


def screen_odd_odd(g: Graph) -> bool:
    """Applicability of the odd-order/odd-tree-count exclusion."""
    if not g.is_connected():
        raise ValueError("screen requires a connected graph")
    return g.n % 2 == 1 and spanning_tree_count(g) % 2 == 1


@dataclass
class PowerOfTwoScreen:
    applicable: bool
    tau: int
    admissible_pairs: list  # [(u, v)] twin pairs surviving the admissibility test


def admissible_twin_pairs(twins) -> list:
    """[(u, v)] of the twin pairs with at least three common neighbours
    whose k (non-adjacent) or k+2 (adjacent) is a power of two."""
    return [(p.u, p.v) for p in twins
            if p.k >= 3 and power_of_two(p.k + 2 * p.sigma)]


def screen_power_of_two(g: Graph) -> PowerOfTwoScreen:
    """On graphs with more than four vertices and a power-of-two tree
    count, a transfer pair must be an admissible twin pair
    (:func:`admissible_twin_pairs`)."""
    if not g.is_connected():
        raise ValueError("screen requires a connected graph")
    tau = spanning_tree_count(g)
    applicable = g.n > 4 and power_of_two(tau)
    admissible = admissible_twin_pairs(find_twins(g)) if applicable else []
    return PowerOfTwoScreen(applicable, tau, admissible)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.passed


def check_twin_theorem(corpus: Iterable[Graph]) -> CheckResult:
    """Laplacian transfer between twins sharing one or two neighbours
    happens only in the 4-cycle and in K4 minus an edge."""
    exceptions = canonical_words([Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
                                  Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])])
    violations = []
    seen = 0
    exceptional_hits = {}
    for g in corpus:
        if g.n < 2 or not g.is_connected():
            continue
        seen += 1
        canon = canonical_form(g) if g.n == 4 else None
        exceptional = canon in exceptions
        yes_here = False
        for pair in find_twins(g):
            if pair.k not in (1, 2):
                continue
            report = decide(g, LAPLACIAN, pair.u, pair.v)
            if report.yes:
                yes_here = True
                if not exceptional:
                    violations.append(
                        f"{write_graph6(g)}: unexpected transfer between twins "
                        f"({pair.u},{pair.v}) with k={pair.k}")
        if exceptional:
            exceptional_hits[canon] = yes_here
    for canon, hit in exceptional_hits.items():
        if not hit:
            violations.append(f"exceptional graph {canon} lost its twin transfer")
    return CheckResult("twin-theorem", not violations,
                       {"graphs": seen, "exceptionals_seen": len(exceptional_hits)},
                       violations)


def check_power_of_two_eigenvalue(g: Graph, u: int, v: int) -> CheckResult:
    """With a power-of-two tree count, every integer eigenvalue where the
    projections of u and v are negatives must itself be a power of two."""
    if not g.is_connected():
        raise ValueError("check requires a connected graph")
    tau = spanning_tree_count(g)
    if not power_of_two(tau):
        raise ValueError(f"tree count {tau} is not a power of two")
    prof = cospectrality_profile(g, LAPLACIAN, u, v)
    if not prof.strongly_cospectral:
        raise ValueError(f"({u},{v}) is not a strongly cospectral pair")
    bad = [e.value for e in prof.minus_set
           if isinstance(e, IntegerEig) and e.value != 0 and not power_of_two(e.value)]
    return CheckResult("power-of-two-eigenvalue", not bad,
                       {"tau": tau, "minus_set": [e.to_json() for e in prof.minus_set]},
                       [f"minus eigenvalue {x} is not a power of two" for x in bad])


def _integer_lmaxes(laps: np.ndarray) -> list[Optional[int]]:
    """The largest eigenvalue of each Laplacian in the stack if it is an
    integer, else None, decided exactly.  kI - L is positive semidefinite
    exactly when k >= lambda_max, so lambda_max is an integer iff the
    least such k makes kI - L singular.  Bisection finds that k in
    (Delta, hi]: the largest degree Delta is below lambda_max on a graph
    with an edge (Grone and Merris 1994), and hi = min(n, max over edges
    uv of d_u + d_v) is at least lambda_max (Anderson and Morley 1985).
    The graphs bisect in lockstep, each probing the k it would alone: one
    semidefinite_pivots call per round eliminates every graph's kI - L at
    its midpoint, and one more tests hi where no probe did.  An edgeless
    graph gives 0, as 0I - L = 0 is semidefinite and singular."""
    n = laps.shape[1]
    deg = laps[:, range(n), range(n)]
    lo = deg.max(axis=1)
    hi = np.minimum(n, np.where(laps < 0, deg[:, :, None] + deg[:, None, :], 0).max(axis=(1, 2)))
    tested = lo == 0  # whether kI - L has been eliminated at k = hi
    singular = tested.copy()  # its verdict there, once tested
    identity = np.identity(n, dtype=np.int64)

    def probe(idx: np.ndarray, k: np.ndarray):
        return semidefinite_pivots(k[:, None, None] * identity - laps[idx])[:2]

    while (idx := np.flatnonzero(hi - lo > 1)).size:
        mid = (lo[idx] + hi[idx]) // 2
        semidefinite, verdict = probe(idx, mid)
        lo[idx] = np.where(semidefinite, lo[idx], mid)
        hi[idx] = np.where(semidefinite, mid, hi[idx])
        singular[idx] = np.where(semidefinite, verdict, singular[idx])
        tested[idx] |= semidefinite
    if (idx := np.flatnonzero(~tested)).size:
        singular[idx] = probe(idx, hi[idx])[1]
    return [k if s else None for k, s in zip(hi.tolist(), singular.tolist())]


def _integer_lmax(g: Graph) -> Optional[int]:
    """The largest Laplacian eigenvalue of g if it is an integer, else
    None (see :func:`_integer_lmaxes`)."""
    return _integer_lmaxes(_laplacians([g]))[0]


def lmax_is_integer(g: Graph) -> bool:
    """Whether the largest Laplacian eigenvalue is an integer, decided
    exactly by bisection on the semidefiniteness of kI - L (see
    :func:`_integer_lmaxes`)."""
    return _integer_lmax(g) is not None


def check_bipartite_lmax(corpus: Iterable[Graph]) -> CheckResult:
    """Counts bipartite graphs with an integral largest Laplacian
    eigenvalue, and asserts that bipartite graphs with Laplacian transfer
    have integral lambda_max, with same-class pairs exactly those keeping
    lambda_max in the plus set."""
    bip_count = 0
    integral_count = 0
    violations = []
    for g in corpus:
        if not g.is_connected():
            continue
        bip = bipartition(g)
        if bip is None:
            continue
        bip_count += 1
        lmax = _integer_lmax(g)
        if lmax is not None:
            integral_count += 1
        for report in pst_search(g, LAPLACIAN):
            if lmax is None:
                violations.append(
                    f"{write_graph6(g)}: transfer with irrational lambda_max")
                continue
            same_class = bip.side_of(report.u) == bip.side_of(report.v)
            in_plus = IntegerEig(lmax) in report.plus_set
            if same_class != in_plus:
                violations.append(
                    f"{write_graph6(g)}: pair ({report.u},{report.v}) class "
                    f"parity disagrees with lambda_max classification")
    return CheckResult("bipartite-lmax", not violations,
                       {"bipartite": bip_count, "lmax_integer": integral_count},
                       violations)


def _free_trees(min_n: int, max_n: int) -> Iterator[Graph]:
    """Every free tree on min_n..max_n vertices, in generation order."""
    if max_n > MAX_TREE_SWEEP_N:
        raise ValueError(f"tree sweep capped at {MAX_TREE_SWEEP_N} vertices")
    for n in range(min_n, max_n + 1):
        yield from gen_free_trees(n)


def check_trees_no_lpst(max_n: int) -> CheckResult:
    """No free tree on 3..max_n vertices admits Laplacian transfer."""
    violations = []
    trees = 0
    pairs = 0
    sc_pairs = 0
    for t in _free_trees(3, max_n):
        trees += 1
        twins = {(p.u, p.v) for p in find_twins(t)}
        for report in all_pair_reports(t, LAPLACIAN):
            pairs += 1
            u, v = report.u, report.v
            if report.yes:
                violations.append(
                    f"{write_graph6(t)}: Laplacian transfer ({u},{v})")
            elif report.certificate.kind != NOT_STRONGLY_COSPECTRAL:
                sc_pairs += 1
                # a single minus eigenvalue makes (e_u - e_v)/2 an
                # eigenvector, which forces a twin pair; residual ids
                # bundle several eigenvalues and are exempt
                if (len(report.minus_set) == 1
                        and isinstance(report.minus_set[0], IntegerEig)
                        and (u, v) not in twins):
                    violations.append(
                        f"{write_graph6(t)}: singleton minus class "
                        f"on a non-twin pair ({u},{v})")
    return CheckResult("trees-no-laplacian-pst", not violations,
                       {"trees": trees, "pairs": pairs,
                        "strongly_cospectral_pairs": sc_pairs},
                       violations)


def tree_perfect_matching(g: Graph) -> Optional[list[tuple[int, int]]]:
    """The perfect matching of a tree as sorted pairs, or None.  Taken
    leaves first along a BFS order from vertex 0, a vertex that none of
    its children took must pair with its parent, so the matching is
    unique when it exists."""
    if not g.is_connected() or g.edge_count() != g.n - 1:
        raise ValueError("perfect matching routine requires a tree")
    parent = {0: None}
    order = [0]
    for u in order:
        for w in g.neighbours(u):
            if w not in parent:
                parent[w] = u
                order.append(w)
    mate = {}
    for u in reversed(order):
        if u not in mate:
            p = parent[u]
            if p is None or p in mate:
                return None
            mate[u], mate[p] = p, u
    return sorted((u, w) for u, w in mate.items() if u < w)


def check_unique_matching_no_apst(max_n: int) -> CheckResult:
    """Trees with a perfect matching have unimodular adjacency determinant
    and no adjacency transfer."""
    violations = []
    matched_trees = 0
    trees = 0
    for t in _free_trees(4, max_n):
        trees += 1
        det = det_bareiss(adjacency(t))
        matching = tree_perfect_matching(t)
        if det not in (-1, 0, 1):
            violations.append(f"{write_graph6(t)}: det A = {det}")
        if (det != 0) != (matching is not None):
            violations.append(
                f"{write_graph6(t)}: invertibility and matching disagree")
        if matching is not None:
            matched_trees += 1
            for report in pst_search(t, ADJACENCY):
                violations.append(
                    f"{write_graph6(t)}: adjacency transfer "
                    f"({report.u},{report.v}) despite a perfect matching")
    return CheckResult("unique-matching-no-apst", not violations,
                       {"trees": trees, "with_matching": matched_trees},
                       violations)


# -- survey ------------------------------------------------------------------

@dataclass(slots=True)
class SurveyRecord:
    graph6: str
    n: int
    spanning_trees: int
    tau_odd: bool
    tau_power_of_two: bool
    has_small_twins: bool
    bipartite: bool
    lmax_integer: bool
    lpst_pairs: Optional[int] = None
    apst_pairs: Optional[int] = None
    undecided_pairs: Optional[int] = None
    # not in to_json: the JSONL key set is fixed; aggregate_records reads it
    no_admissible_pair: bool = False

    def to_json(self):
        return {
            "graph6": self.graph6,
            "n": self.n,
            "spanning_trees": self.spanning_trees,
            "tau_odd": self.tau_odd,
            "tau_power_of_two": self.tau_power_of_two,
            "has_small_twins": self.has_small_twins,
            "bipartite": self.bipartite,
            "lmax_integer": self.lmax_integer,
            "lpst_pairs": self.lpst_pairs,
            "apst_pairs": self.apst_pairs,
            "undecided_pairs": self.undecided_pairs,
        }


def survey_record(g: Graph, with_pst: bool = False) -> SurveyRecord:
    """The survey facts of one graph, recorded under its canonical word
    when it has at most MAX_CANONICAL_N vertices and under its own graph6
    word past that, where no canonical form is computed."""
    return _chunk_records([g], with_pst)[0]


def _chunk_records(graphs: list[Graph], with_pst: bool) -> list[SurveyRecord]:
    """The records of graphs of one order, every fact but the transfer
    pairs read off array passes over the chunk.

    The word is the canonical word: a generated graph (CanonicalGraph)
    carries it, and the others get theirs from one canonical_words call.
    Past MAX_CANONICAL_N vertices it is each graph's own graph6 word.  The
    tree counts and integral lambda_max come from one Laplacian stack, and
    a graph is connected exactly when its tree count is at least 1.  Twins
    and bipartiteness come from _mask_facts on the same adjacency stack."""
    n = graphs[0].n
    if n > MAX_CANONICAL_N:
        words = [write_graph6(g) for g in graphs]
    elif all(isinstance(g, CanonicalGraph) for g in graphs):
        words = [g.graph6 for g in graphs]
    else:
        words = canonical_words(graphs)
    masks = np.array([g.adj for g in graphs], dtype=np.int64)
    a = adjacency_stack(masks, n)
    facts = _mask_facts(masks, a)
    laps = _laplacian_stack(a)
    del masks, a  # the eliminations below need only the Laplacians
    records = []
    for g, word, tau, lmax, small, admissible, bipartite in zip(
            graphs, words, _tree_counts(laps), _integer_lmaxes(laps), *facts):
        rec = SurveyRecord(
            graph6=word,
            n=n,
            spanning_trees=tau,
            tau_odd=tau % 2 == 1,
            tau_power_of_two=power_of_two(tau),
            has_small_twins=small,
            bipartite=bipartite,
            lmax_integer=lmax is not None,
        )
        if tau >= 1 and n > 4 and rec.tau_power_of_two:
            rec.no_admissible_pair = not admissible
        if with_pst and tau >= 1 and n >= 2:
            rec.lpst_pairs = len(pst_search(g, LAPLACIAN))
            adj_reports = all_pair_reports(g, ADJACENCY)
            rec.apst_pairs = sum(1 for r in adj_reports if r.yes)
            rec.undecided_pairs = sum(1 for r in adj_reports if r.verdict == UNDECIDED)
        records.append(rec)
    return records


def _mask_facts(masks: np.ndarray, a: np.ndarray) -> tuple[list[bool], list[bool], list[bool]]:
    """Per graph of a (B, n) array of neighbour masks and its (B, n, n)
    adjacency stack: whether it has a twin pair with one or two common
    neighbours, whether it has an admissible twin pair (see
    admissible_twin_pairs), and whether it is bipartite; exact integers.

    u < v are twins when (adj_u ^ adj_v) & ~(bit_u | bit_v) == 0, and
    their common neighbours number k = (A @ A)[u, v].  A graph is
    bipartite iff it has no closed walk of odd length, and an odd cycle,
    the shortest odd closed walk, has length at most n.  R_L, whether
    some walk of length L joins two vertices (walk counts clipped to 0/1),
    grows with L in steps of 2, as a walk can go back and forth along its
    last edge.  So R_L for the first L = 2^j - 1 >= n - 1, squared up as
    R_(2L+1) = R_L R_L A, has a nonzero diagonal exactly on the graphs
    with an odd cycle: L is odd, so L >= n - 1 puts every odd length up
    to n at or below it."""
    n = masks.shape[1]
    u, v = np.triu_indices(n, 1)
    bits = 1 << np.arange(n)
    twin = (masks[:, u] ^ masks[:, v]) & ~(bits[u] | bits[v]) == 0
    k = (a @ a)[:, u, v]
    small = (twin & ((k == 1) | (k == 2))).any(axis=1)
    weight = k + 2 * a[:, u, v]  # k + 2 sigma, sigma = 1 on an adjacent pair
    admissible = (twin & (k >= 3) & (weight & (weight - 1) == 0)).any(axis=1)
    walks, length = a, 1
    while length < n - 1:
        walks = np.minimum(np.minimum(walks @ walks, 1) @ a, 1)
        length = 2 * length + 1
    odd = walks[:, range(n), range(n)].any(axis=1)
    return small.tolist(), admissible.tolist(), (~odd).tolist()


def _chunks(graphs: Iterable[Graph], most: int) -> Iterator[list[Graph]]:
    """The input in slices of consecutive graphs of one order, each of at
    most `most` graphs and _CHUNK_ENTRIES Laplacian entries."""
    chunk: list[Graph] = []
    for g in graphs:
        if not chunk or g.n != chunk[0].n or len(chunk) == limit:
            if chunk:
                yield chunk
            chunk, limit = [], min(most, max(1, _CHUNK_ENTRIES // g.n ** 2))
        chunk.append(g)
    if chunk:
        yield chunk


def survey_records(graphs: Iterable[Graph], with_pst: bool = False,
                   workers: int = 1) -> list[SurveyRecord]:
    """Per-graph records, optionally computed by a process pool; the record
    order follows the input order regardless of the worker count.  Both
    paths map _chunk_records over chunks of Graphs: the serial path
    streams the input, and the pool gets the Graphs as they are, in chunks
    of at most a (workers * 8)-th of the input."""
    records = partial(_chunk_records, with_pst=with_pst)
    if workers <= 1:
        return [rec for recs in map(records, _chunks(graphs, _CHUNK_ENTRIES)) for rec in recs]
    graphs = list(graphs)
    chunks = _chunks(graphs, max(1, len(graphs) // (workers * 8)))
    with Pool(workers) as pool:
        return [rec for recs in pool.imap(records, chunks) for rec in recs]


def aggregate_records(records: list[SurveyRecord]) -> dict:
    """Order-independent aggregate counts over one survey run."""
    connected = [r for r in records if r.spanning_trees >= 1]
    pow2 = [r for r in connected if r.tau_power_of_two]
    big_pow2 = [r for r in pow2 if r.n > 4]
    bip = [r for r in connected if r.bipartite]
    agg = {
        "total": len(records),
        "connected": len(connected),
        "tau_odd": sum(1 for r in connected if r.tau_odd),
        "tau_power_of_two": len(pow2),
        "pow2_with_small_twins": sum(1 for r in pow2 if r.has_small_twins),
        "bipartite": len(bip),
        "bipartite_lmax_integer": sum(1 for r in bip if r.lmax_integer),
        "ruled_out_reading_small_twins": sum(
            1 for r in big_pow2 if r.has_small_twins),
        "ruled_out_reading_no_admissible_pair": sum(
            1 for r in big_pow2 if r.no_admissible_pair),
        "lpst_pairs": _maybe_sum(records, "lpst_pairs"),
        "apst_pairs": _maybe_sum(records, "apst_pairs"),
        "undecided_pairs": _maybe_sum(records, "undecided_pairs"),
    }
    return agg


def _maybe_sum(records, attr):
    values = [getattr(r, attr) for r in records]
    if all(v is None for v in values):
        return None
    return sum(v for v in values if v is not None)


def run_survey(graphs: Iterable[Graph], with_pst: bool = False,
               workers: int = 1) -> tuple[list[SurveyRecord], dict]:
    """Per-graph records plus their aggregate counts."""
    records = survey_records(graphs, with_pst, workers)
    return records, aggregate_records(records)


def write_survey_jsonl(records: list[SurveyRecord], path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")


def aggregate_to_csv(agg: dict) -> str:
    keys = sorted(agg)
    lines = ["metric,value"]
    for k in keys:
        lines.append(f"{k},{'' if agg[k] is None else agg[k]}")
    return "\n".join(lines) + "\n"


# -- independent certificate replay ------------------------------------------

@lru_cache(maxsize=100_000)
def _cached_profile(g: Graph, kind: str, u: int):
    return support_profile(g, kind, u)


@lru_cache(maxsize=100_000)
def _graph_facts(g: Graph) -> tuple[str, bool, dict]:
    """g's graph6 word, whether g is connected, and its eigenvalue bound
    per matrix kind: made once per graph, not once per report."""
    return write_graph6(g), g.is_connected(), {kind: eigenvalue_bound(g, kind) for kind in KINDS}


def _report_fault(g: Graph, report: PSTReport) -> Optional[str]:
    """Why neither checker can read report against g, None when both can:
    another graph's word, a disconnected graph (decide makes no report for
    one), an unknown matrix kind, or a vertex pair that is not two
    distinct vertices of g."""
    word, connected, _ = _graph_facts(g)
    if report.graph6 != word:
        return "the report was made for another graph"
    if not connected:
        return "the graph is not connected"
    if report.matrix_kind not in KINDS:
        return f"unknown matrix kind {report.matrix_kind!r}"
    u, v = report.u, report.v
    if not all(type(w) is int and 0 <= w < g.n for w in (u, v)):
        return f"vertex pair ({u!r},{v!r}) out of range"
    if u == v:
        return "the report pairs a vertex with itself"
    return None


def _witness_fault(eig, rho: int) -> Optional[str]:
    """Why eig is no well-formed eigenvalue id, None when it is one: an
    integer id holds an int, a quadratic id (a + b sqrt(delta))/2 holds
    ints with b != 0, delta squarefree and > 1, and a^2 - b^2 delta
    divisible by 4 (an algebraic integer), and a residual id holds an
    integer polynomial.  Checked before any id's polynomial is read.
    Squarefreeness is a trial division up to sqrt(delta), so it is tested
    only when b^2 delta <= 4 rho^2, rho the graph's eigenvalue bound: both
    conjugates of an eigenvalue lie in [-rho, rho], so a larger witness is
    no eigenvalue, and the replay refuses it as outside the supports."""
    if isinstance(eig, IntegerEig):
        ok = type(eig.value) is int
    elif isinstance(eig, QuadraticEig):
        a, b, d = eig.a, eig.b, eig.delta
        ok = (all(type(x) is int for x in (a, b, d)) and b != 0 and d > 1
              and (a * a - b * b * d) % 4 == 0
              and (b * b * d > 4 * rho * rho or squarefree_part(d)[1] == d))
    else:
        ok = isinstance(eig, ResidualEig) and isinstance(eig.poly, IntPolynomial)
    return None if ok else f"malformed witness {eig!r}"


@lru_cache(maxsize=100_000)
def _residual_fault(witness, qu: IntPolynomial, qv: IntPolynomial,
                    min_degree: int) -> Optional[str]:
    """Why witness is no monic squarefree factor, of degree min_degree or
    more, of qu qv, the product of the minimal polynomials of e_u and e_v;
    None when it is one.  Kept per (witness, qu, qv, min_degree): the
    reports of one graph and kind mostly share a witness and both
    polynomials."""
    w = witness.poly if isinstance(witness, ResidualEig) else IntPolynomial.one()
    if w.degree < min_degree or not w.is_monic() or poly_gcd(w, w.derivative()).degree >= 1:
        return f"residual witness is not monic and squarefree of degree {min_degree} or more"
    if not w.divides(qu * qv):
        return "residual does not divide the support polynomial"
    return None


def replay_certificate(g: Graph, report: PSTReport) -> tuple[bool, str]:
    """Re-validate a negative or undecided verdict from scratch.

    A report whose graph6 word is not g's is refused before anything else,
    and every fact is then read from g.  The verdict must be the one the
    certificate backs: undecided for one quadratic-mixed-a witness
    (a + b sqrt(d))/2 with a != 0, negative for every other certificate,
    never positive.  The stored certificate's violated condition is checked
    against the spectral profiles of u and v (a different code path from
    the polynomial-split production route); only a not-strongly-cospectral
    witness shared by both supports, and the cospectrality profile of a
    parity-violation, read a projection sign (spectral.projection_sign).
    A residual witness shared by both supports is confirmed from the
    closed walk counts of u and v projected onto its roots
    (spectral.walks_differ_at), read off the profiles' Krylov rows; only
    where those agree do the minimal polynomials of e_u -+ e_v
    (spectral.classify_by_minpolys) decide, as the fallback.  A report of
    the wrong shape (see _report_fault and _witness_fault) is refused
    rather than raising.
    """
    if (fault := _report_fault(g, report)) is not None:
        return False, fault
    cert = report.certificate
    if cert is None:
        return False, "no certificate on a non-positive report"
    if not cert.witnesses:
        return False, "the certificate names no witness"
    rho = _graph_facts(g)[2][report.matrix_kind]
    for w in cert.witnesses:
        if (fault := _witness_fault(w, rho)) is not None:
            return False, fault
    sole = cert.witnesses[0] if len(cert.witnesses) == 1 else None
    out_of_scope = (cert.kind == QUADRATIC_MIXED_A
                    and isinstance(sole, QuadraticEig) and sole.a != 0)
    expected = UNDECIDED if out_of_scope else NO
    if report.verdict != expected:
        names = {YES: "positive", NO: "negative", UNDECIDED: "undecided"}
        return False, (f"a {cert.kind} certificate of this shape is {names[expected]}, "
                       f"not {names.get(report.verdict, repr(report.verdict))}")
    kind, u, v = report.matrix_kind, report.u, report.v
    pu = _cached_profile(g, kind, u)
    pv = _cached_profile(g, kind, v)

    if cert.kind == NOT_STRONGLY_COSPECTRAL:
        witness = cert.witnesses[0]
        set_u, set_v = set(pu.support), set(pv.support)
        if witness in set_u.symmetric_difference(set_v):
            return True, "support difference confirmed"
        if isinstance(witness, ResidualEig):
            if (fault := _residual_fault(witness, pu.minpoly, pv.minpoly, 1)) is not None:
                return False, fault
            # a root of one residual that the other lacks is in one support
            # only; a root of the witness where the walk counts differ, or
            # failing that a root shared by the minimal polynomials of
            # e_u -+ e_v, has projections of e_u and e_v that match neither
            # sign
            ru, rv = (p.residual or IntPolynomial.one() for p in (pu, pv))
            if ru != rv:
                common = poly_gcd(ru, rv)
                if any(poly_gcd(witness.poly, r.pseudo_divmod(common)[0]).degree >= 1
                       for r in (ru, rv)):
                    return True, "residual support difference confirmed"
            if walks_differ_at(pu, pv, witness.poly):
                return True, "residual-level mismatch confirmed"
            shared = poly_gcd(*classify_by_minpolys(g, kind, u, v))
            if poly_gcd(witness.poly, shared).degree < 1:
                return False, "residual witness meets no mismatch"
            return True, "residual-level mismatch confirmed"
        if witness not in set_u:
            return False, "witness outside both supports"
        if projection_sign(pu, pv, witness):
            return False, "witness projections agree after all"
        return True, "sign mismatch confirmed at the witness"

    if cert.kind == NON_INTEGER_SUPPORT:
        witness = cert.witnesses[0]
        if kind != LAPLACIAN:
            return False, "only a Laplacian support must be integral"
        if not isinstance(witness, QuadraticEig):
            return False, "witness is not irrational"
        if not witness.poly.divides(pu.minpoly):
            return False, "witness is not in the support"
        return True, "irrational support eigenvalue confirmed"

    if cert.kind == RESIDUAL_FACTOR:
        witness = cert.witnesses[0]
        if (fault := _residual_fault(witness, pu.minpoly, pv.minpoly, 3)) is not None:
            return False, fault
        if not isinstance(factor_support(witness.poly, rho)[0], ResidualEig):
            return False, "claimed residual has small factors"
        return True, "irreducible-beyond-quadratic residual confirmed"

    if cert.kind == MIXED_DELTA:
        if (len(cert.witnesses) != 2
                or not all(isinstance(w, QuadraticEig) for w in cert.witnesses)):
            return False, "witnesses are not two quadratic eigenvalues"
        w1, w2 = cert.witnesses
        if w1.delta == w2.delta:
            return False, "witnesses share an extension"
        for w in (w1, w2):
            if not w.poly.divides(pu.minpoly):
                return False, "witness is not in the support"
        return True, "two quadratic extensions confirmed"

    if cert.kind == QUADRATIC_MIXED_A:
        quads = [w for w in cert.witnesses if isinstance(w, QuadraticEig)]
        ints = [w for w in cert.witnesses if isinstance(w, IntegerEig)]
        if len(quads) + len(ints) != len(cert.witnesses):
            return False, "witnesses are not integer or quadratic eigenvalues"
        for w in cert.witnesses:
            if not w.poly.divides(pu.minpoly):
                return False, "witness is not in the support"
        if len(quads) >= 2 and quads[0].a != quads[1].a:
            return True, "two rational parts confirmed"
        if ints and quads and 2 * ints[0].value != quads[0].a:
            return True, "integer eigenvalue off the rational part confirmed"
        if out_of_scope:
            # a bipartite support never has one rational part a != 0 (see decide)
            if bipartition(g) is not None:
                return False, "undecided verdict on a bipartite graph"
            return True, "out-of-scope support shape confirmed"
        return False, "witnesses do not exhibit a rational-part conflict"

    if cert.kind == PARITY_VIOLATION:
        witness = cert.witnesses[0]
        prof = cospectrality_profile(g, kind, u, v, profiles={u: pu, v: pv})
        if not prof.strongly_cospectral:
            return False, "pair is not strongly cospectral after all"
        # a claimed class that is no string, such as a list, has no hash
        claimed = {"plus": prof.plus_set, "minus": prof.minus_set}.get(
            cert.claimed_class if isinstance(cert.claimed_class, str) else None)
        if claimed is None or witness not in claimed:
            return False, f"witness is not {cert.claimed_class}-classified"
        if any(isinstance(e, ResidualEig) for e in prof.plus_set + prof.minus_set):
            return False, "a residual support has no parity split"
        gg, scaled = _parity_data(kind, prof)
        if gg != cert.gcd_value:
            return False, f"gcd mismatch: recomputed {gg}, stored {cert.gcd_value}"
        value = scaled.get(witness)
        if value is None or not gg:
            return False, "the witness has no parity value"
        want_even = cert.claimed_class == "plus"
        if (value // gg) % 2 == (0 if want_even else 1):
            return False, "parity holds after all"
        return True, "parity violation confirmed"

    return False, f"unknown certificate kind {cert.kind}"


def _parity_data(kind: str, prof) -> tuple[int, dict]:
    """Recompute the parity gcd and the integer value assigned to each
    support eigenvalue under the matching branch of the deciders."""
    ids = list(prof.plus_set) + list(prof.minus_set)
    if kind == LAPLACIAN:
        values = {e: e.value for e in ids if isinstance(e, IntegerEig)}
        gg = math.gcd(*values.values())
        return gg, values
    if all(isinstance(e, IntegerEig) for e in ids):
        theta0 = max(e.value for e in ids)
        values = {e: theta0 - e.value for e in ids}
    else:
        scaled = {}
        for e in ids:
            if isinstance(e, QuadraticEig):
                scaled[e] = e.b // 2
            elif isinstance(e, IntegerEig):
                scaled[e] = 0
        c0 = max(scaled.values())
        values = {e: c0 - c for e, c in scaled.items()}
    gg = math.gcd(*values.values())
    return gg, values


def verify_positive_report(g: Graph, report: PSTReport) -> tuple[bool, str]:
    """Numeric oracle confirmation of a positive verdict.

    As in replay_certificate, a report of the wrong shape (see
    _report_fault) is refused before anything else, and so is one with no
    transfer time.
    """
    if (fault := _report_fault(g, report)) is not None:
        return False, fault
    if not report.yes:
        return False, "not a positive report"
    if report.time_coeff is None:
        return False, "no transfer time on the positive report"
    if not (isinstance(report.time_coeff, (int, Fraction)) and type(report.time_delta) is int
            and report.time_delta >= 1):
        return False, "the transfer time is not a rational multiple of pi/sqrt(delta), delta >= 1"
    fid = numeric_fidelity(g, report.matrix_kind, report.u, report.v, report.time_value())
    if fid < 1 - FIDELITY_TOLERANCE:
        return False, f"fidelity {fid} below 1 - {FIDELITY_TOLERANCE}"
    return True, f"fidelity {fid}"
