import math
import random
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from pstlab import exactalg, pst
from pstlab.exactalg import factor_support, unit_vector, vector_minpoly
from pstlab.generate import gen_connected_graphs, gen_free_trees
from pstlab.graphs import (
    Graph,
    bipartition,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    hypercube,
    path_graph,
    star_graph,
    write_graph6,
)
from pstlab.harness import verify_positive_report
from pstlab.pst import (
    PSTReport,
    _context,
    _SpectralContext,
    adjacency_pst,
    all_pair_reports,
    decide,
    laplacian_pst,
    numeric_fidelity,
    pst_search,
)
from pstlab.spectral import (
    ADJACENCY,
    KINDS,
    LAPLACIAN,
    IntegerEig,
    ResidualEig,
    classify_by_minpolys,
    cospectrality_profile,
    matrix_of,
    support_profile,
)

from oracles import bipartite_phase_check, double_cone, exact_transfer_vector, fidelity_by_eigh

CERT_KINDS = {"not-strongly-cospectral", "non-integer-support", "parity-violation",
              "mixed-delta", "residual-factor", "quadratic-mixed-a"}


def connected_gnp(n, rng):
    """A connected G(n, 1/2), drawn from rng until one is connected."""
    while True:
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        if g.is_connected():
            return g


def phase_value(report):
    """gamma = exp(i pi phase_s) of a positive report, in floating point."""
    return complex(np.exp(1j * math.pi * float(report.phase_s)))


class TestLaplacianDecider:
    def test_p2(self):
        r = laplacian_pst(path_graph(2), 0, 1)
        assert r.yes and r.g == 2
        assert (r.time_coeff, r.time_delta) == (F(1, 2), 1)
        assert r.phase_s == 0 and phase_value(r) == 1

    def test_c4_antipodal(self):
        r = laplacian_pst(cycle_graph(4), 0, 2)
        assert r.yes and r.g == 2
        assert [e.value for e in r.plus_set] == [0, 4]
        assert [e.value for e in r.minus_set] == [2]

    def test_k4_minus_edge_nonadjacent(self):
        r = laplacian_pst(complete_minus_edge(4), 0, 1)
        assert r.yes and r.g == 2 and r.time_coeff == F(1, 2)

    def test_star_leaves_closed_with_certificate(self):
        r = laplacian_pst(star_graph(3), 1, 2)
        assert r.verdict == "no"
        assert r.certificate.kind in CERT_KINDS

    def test_yes_implies_zero_in_plus_set(self, corpus6):
        found = 0
        for g in corpus6:
            if g.n < 2:
                continue
            for r in pst_search(g, LAPLACIAN):
                assert IntegerEig(0) in r.plus_set
                found += 1
        assert found >= 3  # C4 twice, K4 minus edge at least

    def test_hypercubes(self):
        for k, pairs in ((2, 2), (3, 4)):
            q = hypercube(k)
            found = pst_search(q, LAPLACIAN)
            assert len(found) == pairs
            mask = (1 << k) - 1
            assert all(r.v == r.u ^ mask for r in found)
            assert all(r.time_coeff == F(1, 2) and r.time_delta == 1 for r in found)

    def test_validation(self):
        with pytest.raises(ValueError):
            laplacian_pst(path_graph(3), 0, 0)
        with pytest.raises(ValueError):
            laplacian_pst(Graph(3, [(0, 1)]), 0, 1)
        with pytest.raises(ValueError):
            laplacian_pst(path_graph(3), 0, 9)
        # checks run in the order kind, vertex range, u != v, connectivity
        split = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="bogus"):
            decide(split, "bogus", 0, 9)
        with pytest.raises(ValueError, match="out of range"):
            decide(split, LAPLACIAN, 0, 9)
        with pytest.raises(ValueError, match="u != v"):
            decide(split, LAPLACIAN, 1, 1)
        for kind in (LAPLACIAN, ADJACENCY):
            with pytest.raises(ValueError, match="rejects disconnected graphs"):
                all_pair_reports(split, kind)

    def test_unknown_kinds_rejected(self):
        # every name in spectral.KINDS is decided, the signless Laplacian
        # with the adjacency cascade; any other name fails first
        for kind in KINDS:
            assert decide(path_graph(2), kind, 0, 1).yes
            assert [r.yes for r in all_pair_reports(path_graph(2), kind)] == [True]
        with pytest.raises(ValueError, match="unknown matrix kind 'bogus'"):
            decide(Graph(3, [(0, 1)]), "bogus", 1, 1)
        with pytest.raises(ValueError, match="unknown matrix kind 'bogus'"):
            all_pair_reports(path_graph(2), "bogus")
        with pytest.raises(ValueError, match="bogus"):
            pst_search(path_graph(3), "bogus")
        with pytest.raises(ValueError, match="bogus"):
            pst_search(Graph(1, []), "bogus")   # no pair to decide


class TestAdjacencyDecider:
    def test_p2_phase_i(self):
        r = adjacency_pst(path_graph(2), 0, 1)
        assert r.yes and r.g == 2
        assert (r.time_coeff, r.time_delta) == (F(1, 2), 1)
        assert r.phase_s == F(1, 2)
        assert abs(phase_value(r) - 1j) < 1e-12

    def test_p3_endpoints_scaled_branch(self):
        r = adjacency_pst(path_graph(3), 0, 2)
        assert r.yes and r.g == 1
        assert (r.time_coeff, r.time_delta) == (F(1), 2)
        assert abs(r.time_value() - math.pi / math.sqrt(2)) < 1e-15
        assert r.phase_s == 1 and abs(phase_value(r) + 1) < 1e-12

    def test_p4_endpoints_no(self):
        r = adjacency_pst(path_graph(4), 0, 3)
        assert r.verdict == "no"
        assert r.certificate.kind in CERT_KINDS

    def test_c4_antipodal(self):
        r = adjacency_pst(cycle_graph(4), 0, 2)
        assert r.yes and r.g == 2 and r.phase_s == 1

    def test_k4_no_pairs(self):
        assert pst_search(complete_graph(4), ADJACENCY) == []

    def test_k2_complement_of_nothing(self):
        # K3: support {2, -1}, g = 3, parity fails (diff 3 odd over g=3 -> 1)
        r = adjacency_pst(complete_graph(3), 0, 1)
        assert r.verdict == "no"

    def test_no_undecided_on_bipartite(self, corpus6):
        for g in corpus6:
            if g.n < 2 or bipartition(g) is None:
                continue
            for r in all_pair_reports(g, ADJACENCY):
                assert r.verdict != "undecided"


class TestNumericOracle:
    def test_p2_laplacian_peak(self):
        assert abs(numeric_fidelity(path_graph(2), LAPLACIAN, 0, 1, math.pi / 2) - 1) < 1e-12

    def test_p2_laplacian_at_zero(self):
        assert numeric_fidelity(path_graph(2), LAPLACIAN, 0, 1, 0.0) < 1e-15

    def test_p3_adjacency_peak(self):
        fid = numeric_fidelity(path_graph(3), ADJACENCY, 0, 2, math.pi / math.sqrt(2))
        assert abs(fid - 1) < 1e-9

    def test_p2_closed_form_curve(self):
        for t in (0.3, 0.7, 1.1):
            fid = numeric_fidelity(path_graph(2), LAPLACIAN, 0, 1, t)
            assert abs(fid - math.sin(t) ** 2) < 1e-12

    def test_all_positives_confirmed(self, corpus6):
        confirmed = 0
        for g in corpus6:
            if g.n < 2:
                continue
            for kind in (LAPLACIAN, ADJACENCY):
                for r in pst_search(g, kind):
                    fid = numeric_fidelity(g, kind, r.u, r.v, r.time_value())
                    assert fid >= 1 - 1e-9, (r.graph6, kind, r.u, r.v, fid)
                    confirmed += 1
        assert confirmed >= 5

    def test_scaled_branch_agrees_with_grid_search(self):
        # dense scan near pi/sqrt(2) reaches fidelity 1 for the P3 endpoints
        target = math.pi / math.sqrt(2)
        best = max(numeric_fidelity(path_graph(3), ADJACENCY, 0, 2,
                                    target + delta * 1e-3)
                   for delta in range(-50, 51))
        assert best >= 1 - 1e-6

    def test_matches_eigh_on_large_graphs(self):
        """The Taylor steps agree with the eigendecomposition to 1e-12 on
        the 5-cube's antipodal pairs at their transfer time, and at seeded
        random times in [0, 10] on graphs up to graph6's limit, including a
        dense G(40, 1/2) whose Laplacian norm asks for hundreds of steps."""
        rng = random.Random("numeric oracle")
        dense = Graph(40, [e for e in combinations(range(40), 2) if rng.random() < 0.5])
        cube = hypercube(5)
        cases = []
        for kind in KINDS:
            t = decide(cube, kind, 0, 31).time_value()
            cases += [(cube, kind, u, u ^ 31, t) for u in range(16)]
            for g in (path_graph(62), cycle_graph(62), cube, dense):
                cases += [(g, kind, *rng.sample(range(g.n), 2), rng.uniform(0, 10))
                          for _ in range(3)]
        for g, kind, u, v, t in cases:
            got, want = numeric_fidelity(g, kind, u, v, t), fidelity_by_eigh(g, kind, u, v, t)
            assert abs(got - want) <= 1e-12, (write_graph6(g), kind, u, v, t, got, want)


class TestClosedFormLaws:
    def test_double_cone_apexes(self):
        """K̄2 ∨ H: e_a - e_b is a Laplacian eigenvector of the apexes a, b
        (eigenvalue m = |H|), and e_a + e_b lies in the span of the all-ones
        vector (0) and the join's vector (m + 2).  So the apexes transfer
        iff m = 2 (mod 4), at t = pi/2, whatever H is.  Two seeded random
        H for each m = 2..30."""
        rng = random.Random("double cone")
        for m in range(2, 31):
            for density in (0.3, 0.7):
                h = Graph(m, [e for e in combinations(range(m), 2) if rng.random() < density])
                g = double_cone(h)
                r = decide(g, LAPLACIAN, m, m + 1)
                assert r.yes == (m % 4 == 2), (write_graph6(g), r.verdict)
                if r.yes:
                    assert (r.time_coeff, r.time_delta) == (F(1, 2), 1)
                    assert [e.value for e in r.plus_set] == [0, m + 2]
                    assert [e.value for e in r.minus_set] == [m]
                    assert verify_positive_report(g, r)[0], write_graph6(g)


class TestStructuralProperties:
    def test_symmetry_in_u_v(self, corpus6):
        import random
        rng = random.Random(7)
        graphs = [g for g in corpus6 if g.n >= 3]
        for g in rng.sample(graphs, 40):
            u, v = rng.sample(range(g.n), 2)
            for decide in (laplacian_pst, adjacency_pst):
                a, b = decide(g, u, v), decide(g, v, u)
                assert a.verdict == b.verdict
                assert a.g == b.g and a.time_coeff == b.time_coeff
                assert a.phase_s == b.phase_s
                assert set(a.plus_set) == set(b.plus_set)
                assert set(a.minus_set) == set(b.minus_set)
                if a.certificate:
                    assert a.certificate.kind == b.certificate.kind

    def test_exact_reconstruction_and_perturbation(self, corpus6):
        # U(t) e_u = gamma e_v decomposes as z+ - z-; swapping any single
        # eigenvalue across the classes must break the identity
        cases = 0
        for g in corpus6:
            if g.n < 2:
                continue
            for r in pst_search(g, LAPLACIAN):
                e_v = [1 if i == r.v else 0 for i in range(g.n)]
                vec = exact_transfer_vector(g, LAPLACIAN, r.u,
                                            list(r.plus_set), list(r.minus_set))
                assert vec == e_v
                for moved in r.plus_set:
                    plus = [e for e in r.plus_set if e != moved]
                    minus = list(r.minus_set) + [moved]
                    assert exact_transfer_vector(g, LAPLACIAN, r.u, plus, minus) != e_v
                for moved in r.minus_set:
                    plus = list(r.plus_set) + [moved]
                    minus = [e for e in r.minus_set if e != moved]
                    assert exact_transfer_vector(g, LAPLACIAN, r.u, plus, minus) != e_v
                cases += 1
        assert cases >= 3

    def test_reference_eigenvalue_is_plus(self, corpus6):
        # the decider measures parity from 0 (Laplacian) and from the
        # largest support eigenvalue theta_0 (adjacency), which needs those
        # eigenvalues plus-classified on every strongly cospectral pair;
        # checked on the projection route, not on the decider's own split
        def top(e):
            if isinstance(e, ResidualEig):
                return max(np.roots(e.poly.coeffs[::-1]).real)
            return e.approx()

        counted = {LAPLACIAN: 0, ADJACENCY: 0}
        for g in corpus6:
            for kind in counted:
                profiles = {w: support_profile(g, kind, w) for w in range(g.n)}
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        prof = cospectrality_profile(g, kind, u, v, profiles=profiles)
                        if not prof.strongly_cospectral:
                            continue
                        if kind == LAPLACIAN:
                            assert IntegerEig(0) in prof.plus_set
                        else:
                            theta0 = max(prof.plus_set + prof.minus_set, key=top)
                            assert theta0 in prof.plus_set
                        counted[kind] += 1
        assert min(counted.values()) >= 50, counted


def per_pair(pair_minpolys, g, kind, u, v):
    """classify_by_minpolys(g, kind, u, v): read from the session's
    pair_minpolys where it holds the pair, computed otherwise."""
    key = (g, kind, u, v)
    return pair_minpolys[key] if key in pair_minpolys else classify_by_minpolys(*key)


class TestSpectralContext:
    """decide's per-graph context against the per-pair routes it replaced."""

    def test_minpolys_match_per_pair_routes(self, corpus6, pair_minpolys, monkeypatch):
        """Every vertex and pair polynomial in every kind against
        vector_minpoly and classify_by_minpolys: corpus6, path:11,
        complete:11 and seeded connected G(n, 1/2) for n = 7..11, whose e_u
        all come from the batch, and cycle:24, past the size rule, whose
        e_u come from the Krylov vectors.  complete:11 takes more than one
        prime in every kind."""
        primes, crt = [], exactalg._symmetric_crt
        monkeypatch.setattr(exactalg, "_symmetric_crt",
                            lambda residues, ps: primes.append(len(ps)) or crt(residues, ps))
        rng = random.Random("unit rows")
        graphs = (corpus6 + [path_graph(11), complete_graph(11)]
                  + [connected_gnp(n, rng) for n in range(7, 12)])
        cases = [(g, range(g.n), list(combinations(range(g.n), 2))) for g in graphs]
        cases.append((cycle_graph(24), (0, 12), [(0, 12)]))
        checked, multi_prime = 0, set()
        for kind in KINDS:
            for g, vertices, pairs in cases:
                primes.clear()
                ctx = _SpectralContext(g, kind)
                m = matrix_of(g, kind)
                for u in vertices:
                    assert ctx.minpoly(u) == vector_minpoly(m, unit_vector(g.n, u))
                    assert (len(ctx._krylov[u]) == 1) == (g.n <= 11)
                for u, v in pairs:
                    assert ctx.pair_minpolys(u, v) == per_pair(pair_minpolys, g, kind, u, v)
                    checked += 1
                if max(primes, default=1) > 1:
                    multi_prime.add((write_graph6(g), kind))
        assert checked == 3 * (3866 // 2 + 2 * 55 + 21 + 28 + 36 + 45 + 55 + 1)
        assert {(write_graph6(complete_graph(11)), kind) for kind in KINDS} <= multi_prime

    def test_krylov_vectors_grow_only_as_far_as_consumed(self, monkeypatch):
        """Up to 11 vertices minpoly(u) is a lookup in the graph's one
        elimination and draws no Krylov vector past e_u.  Past the size rule
        (cycle:24), or when the elimination certifies no row, the
        fraction-free route draws exactly degree + 1 of them."""
        def check(graphs, drawn):
            for g in graphs:
                for kind in (LAPLACIAN, ADJACENCY):
                    ctx = _SpectralContext(g, kind)
                    for u in range(g.n):
                        assert len(ctx._krylov[u]) == 1
                        degree = ctx.minpoly(u).degree
                        assert len(ctx._krylov[u]) == drawn(degree)

        small = (complete_graph(6), path_graph(11))
        check(small, lambda degree: 1)
        check((cycle_graph(24),), lambda degree: degree + 1)
        monkeypatch.setattr(pst, "modular_minpolys", lambda m, vectors, bound: [None] * len(vectors))
        check(small, lambda degree: degree + 1)

    def test_cache_cannot_change_an_answer(self, corpus6):
        """More graphs are in play than the cache holds, in a seeded order
        across graphs and kinds, half of them as separately built equal
        copies; every report must match the in-order and the cold ones."""
        jobs = [(g, kind, u, v) for g in corpus6 for kind in (LAPLACIAN, ADJACENCY)
                for u, v in combinations(range(g.n), 2)]
        _context.cache_clear()
        in_order = [decide(*job).to_json() for job in jobs]
        copies = {}
        for g in corpus6:
            copies[g] = g.relabel(list(range(g.n)))
            assert copies[g] == g and copies[g] is not g
        order = list(range(len(jobs)))
        random.Random(2026).shuffle(order)
        shuffled = [None] * len(jobs)
        for k, i in enumerate(order):
            g, kind, u, v = jobs[i]
            shuffled[i] = decide(copies[g] if k % 2 else g, kind, u, v).to_json()
        cold = []
        for job in jobs:
            _context.cache_clear()
            cold.append(decide(*job).to_json())
        assert len(jobs) == 3866
        assert shuffled == in_order
        assert cold == in_order

    def test_factor_support_once_per_distinct_minpoly(self, corpus6, monkeypatch):
        """decide factors nothing per pair: over all pairs of a graph and
        kind, factor_support runs exactly once for each distinct minimal
        polynomial of e_u that the context caches, and on nothing else."""
        calls = []

        def counted(p, bound):
            calls.append(p)
            return factor_support(p, bound)

        monkeypatch.setattr("pstlab.pst.factor_support", counted)
        graphs = corpus6 + [cycle_graph(4), cycle_graph(6), path_graph(9), hypercube(3)]
        for kind in KINDS:
            for g in graphs:
                _context.cache_clear()
                calls.clear()
                all_pair_reports(g, kind)
                ctx = _context(g, kind)
                distinct = {ctx.minpoly(w) for pair in combinations(range(g.n), 2) for w in pair}
                assert len(calls) == len(distinct), (write_graph6(g), kind, len(calls))
                assert set(calls) == distinct, (write_graph6(g), kind)

    def test_support_ids_match_support_profile(self, corpus6):
        """The context's ids of each vertex, residual last, are those of the
        checker's support profile, found by its own Krylov route, on corpus6,
        path:11, complete:11 and a seeded connected G(11, 1/2)."""
        graphs = corpus6 + [path_graph(11), complete_graph(11),
                            connected_gnp(11, random.Random("supports"))]
        for kind in KINDS:
            for g in graphs:
                ctx = _SpectralContext(g, kind)
                for u in range(g.n):
                    assert list(ctx.support_ids(u)) == support_profile(g, kind, u).support


class TestBatchedPairMinpolys:
    """pair_minpolys on a graph of at most 11 vertices: one modular_minpolys
    call for every pair, then lookups; the fraction-free route for a
    polynomial it leaves out."""

    @staticmethod
    def _count(monkeypatch, module, name):
        """Calls of module.name, counted in a list of their results."""
        calls, original = [], getattr(module, name)

        def counted(*args):
            calls.append(original(*args))
            return calls[-1]

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_equals_classify_by_minpolys(self, corpus6, pair_minpolys, monkeypatch):
        """Every pair of corpus6 and of the connected 7-vertex graphs in
        every kind, with no fallback; Q on K7 (13^7 > p/2) and 155 other
        contexts take two primes.  classify_by_minpolys runs once per pair
        for the session (the pair_minpolys fixture)."""
        fallbacks = self._count(monkeypatch, pst, "krylov_minpoly")
        primes, crt = [], exactalg._symmetric_crt
        monkeypatch.setattr(exactalg, "_symmetric_crt",
                            lambda residues, ps: primes.append(len(ps)) or crt(residues, ps))
        checked = 0
        for g in corpus6 + list(gen_connected_graphs(7)):
            for kind in KINDS:
                ctx = _SpectralContext(g, kind)
                for u, v in combinations(range(g.n), 2):
                    assert ctx.pair_minpolys(u, v) == pair_minpolys[g, kind, u, v]
                    checked += 1
        assert checked == 3 * (1933 + 17913) == len(pair_minpolys)
        assert not fallbacks
        assert primes.count(2) == 156 and max(primes) == 2

    def test_query_order_cannot_change_a_report(self, corpus6):
        """A context whose first query is reversed, or a middle pair, gives
        the reports of one scanned in order, and so does the per-pair route."""
        graphs = corpus6[::3] + list(gen_connected_graphs(7))[::100] + [path_graph(11)]
        checked = 0
        for g in graphs:
            pairs = list(combinations(range(g.n), 2))
            if not pairs:
                continue
            queries = pairs + [(v, u) for u, v in pairs]
            for kind in KINDS:
                _context.cache_clear()
                in_order = [decide(g, kind, u, v).to_json() for u, v in queries]
                for first in (queries[-1], queries[len(pairs) // 2]):
                    _context.cache_clear()
                    decide(g, kind, *first)
                    assert [decide(g, kind, u, v).to_json() for u, v in queries] == in_order
                _context.cache_clear()
                ctx = _context(g, kind)
                ctx._pairs = {}  # the per-pair fraction-free route
                assert [decide(g, kind, u, v).to_json() for u, v in queries] == in_order
                checked += len(queries)
        assert checked > 2000

    @pytest.mark.parametrize("primes", [(2,), (2, 3, 5, 7, 11, 13), (2, 3, 5, 7) + exactalg._PRIMES],
                             ids=["2", "2-13", "2-7-then-large"])
    def test_unlucky_primes_fall_back(self, corpus6, pair_minpolys, monkeypatch, primes):
        """With tiny primes the degrees disagree, or the lift is wrong, for
        some vectors; each must fall back, and no polynomial or support may
        change.  A unit row that falls back draws Krylov vectors past e_u."""
        fallbacks = self._count(monkeypatch, pst, "krylov_minpoly")
        monkeypatch.setattr(exactalg, "_PRIMES", primes)
        graphs = [g for g in corpus6 if g.n >= 4][::4] + [path_graph(11), complete_graph(11),
                                                          star_graph(9), hypercube(3)]
        unit_fallbacks = 0
        for g in graphs:
            for kind in KINDS:
                ctx = _SpectralContext(g, kind)
                m = matrix_of(g, kind)
                for u in range(g.n):
                    assert ctx.minpoly(u) == vector_minpoly(m, unit_vector(g.n, u))
                    unit_fallbacks += len(ctx._krylov[u]) > 1
                    assert list(ctx.support_ids(u)) == support_profile(g, kind, u).support
                for u, v in combinations(range(g.n), 2):
                    assert ctx.pair_minpolys(u, v) == per_pair(pair_minpolys, g, kind, u, v)
        assert 0 < unit_fallbacks < len(fallbacks)


class TestBipartitePhaseCheck:
    def test_p2_passes(self):
        r = adjacency_pst(path_graph(2), 0, 1)
        ok, why = bipartite_phase_check(r, path_graph(2))
        assert ok, why

    def test_same_class_pair_raises(self):
        r = adjacency_pst(cycle_graph(4), 0, 2)
        with pytest.raises(ValueError):
            # antipodal C4 vertices sit in the same colour class
            bipartite_phase_check(r, cycle_graph(4))

    def test_every_cross_class_positive_passes(self):
        """The law on every adjacency positive of connected graphs on at most
        7 vertices, of free trees on at most 10 and of hypercube:1..5 whose
        ends lie in different colour classes; a graph in two of the corpora
        counts in each.  Positives within one class are counted and skipped."""
        corpus = [g for n in range(2, 8) for g in gen_connected_graphs(n)]
        corpus += [t for n in range(2, 11) for t in gen_free_trees(n)]
        corpus += [hypercube(k) for k in range(1, 6)]
        across, within, failures = 0, 0, []
        for g in corpus:
            bip = bipartition(g)
            if bip is None:
                continue
            for r in pst_search(g, ADJACENCY):
                if bip.side_of(r.u) == bip.side_of(r.v):
                    within += 1
                    continue
                across += 1
                ok, why = bipartite_phase_check(r, g)
                if not ok:
                    failures.append((r.graph6, r.u, r.v, why))
        assert not failures, failures
        assert (across, within) == (23, 17)

    def test_zero_in_support_fails(self):
        r = adjacency_pst(path_graph(2), 0, 1)
        doctored = PSTReport(r.graph6, r.matrix_kind, r.u, r.v, r.verdict,
                             None, r.g, r.time_coeff, r.time_delta, r.phase_s,
                             (IntegerEig(0),) + r.plus_set, r.minus_set)
        ok, why = bipartite_phase_check(doctored, path_graph(2))
        assert not ok and "0 in support" in why

    def test_unequal_two_adic_valuation_fails(self):
        r = adjacency_pst(path_graph(2), 0, 1)
        doctored = PSTReport(r.graph6, r.matrix_kind, r.u, r.v, r.verdict,
                             None, r.g, r.time_coeff, r.time_delta, r.phase_s,
                             (IntegerEig(2), IntegerEig(1)), r.minus_set)
        ok, why = bipartite_phase_check(doctored, path_graph(2))
        assert not ok

    def test_wrong_phase_fails(self):
        r = adjacency_pst(path_graph(2), 0, 1)
        doctored = PSTReport(r.graph6, r.matrix_kind, r.u, r.v, r.verdict,
                             None, r.g, r.time_coeff, r.time_delta, F(1),
                             r.plus_set, r.minus_set)
        ok, why = bipartite_phase_check(doctored, path_graph(2))
        assert not ok and "phase" in why

    def test_non_bipartite_precondition(self):
        r = adjacency_pst(path_graph(2), 0, 1)
        with pytest.raises(ValueError):
            bipartite_phase_check(r, cycle_graph(5))


class TestReportSerialization:
    def test_yes_schema(self):
        payload = adjacency_pst(path_graph(2), 0, 1).to_json()
        assert set(payload) == {"graph6", "kind", "u", "v", "verdict",
                                "certificate", "g", "time", "phase",
                                "plus_set", "minus_set"}
        assert payload["time"] == {"num": 1, "den": 2, "sqrt_delta": 1}
        assert payload["phase"] == {"s_num": 1, "s_den": 2}

    def test_no_schema_carries_certificate(self):
        payload = laplacian_pst(path_graph(4), 0, 1).to_json()
        assert payload["verdict"] == "no"
        assert payload["time"] is None and payload["phase"] is None
        assert payload["certificate"]["kind"] in CERT_KINDS

    def test_scaled_time_schema(self):
        payload = adjacency_pst(path_graph(3), 0, 2).to_json()
        assert payload["time"] == {"num": 1, "den": 1, "sqrt_delta": 2}
