"""Acceptance gate: every golden count and theorem check at its stated
tolerance, one printed pass/fail line per criterion (run with -s to see
them).

The twin statistics are asserted at their literal-definition values (67 of
83 at seven vertices; 278 and 324 for the two readings of "ruled out" at
eight), each checked three ways: the survey aggregate, the independent
recount ``oracles.twin_statistics`` and the pinned value.  The paper
reports 58 and 247 for these statistics; those figures do not reproduce
under any tested reading and are recorded as such in the README ("Golden
counts and two known discrepancies") and in ``pstlab.cli``'s
``GOLDEN_COUNTS_7`` and ``GOLDEN_RULED_OUT_8``, which ``survey
--assert-paper`` checks.
"""

import hashlib
import json
import time
from fractions import Fraction as F

import pytest

from pstlab.cli import GOLDEN_COUNTS_7, GOLDEN_RULED_OUT_8, main
from pstlab.exactalg import (
    IntPolynomial,
    charpoly,
    factor_support,
    poly_gcd,
    unit_vector,
    vector_minpoly,
)
from pstlab.generate import canonical_form, gen_connected_graphs, gen_free_trees
from pstlab.graphs import (
    Graph,
    bipartition,
    complete_minus_edge,
    cycle_graph,
    find_twins,
    hypercube,
    laplacian,
    parse_graph6,
    path_graph,
    signless_laplacian,
    write_graph6,
)
from pstlab import harness
from pstlab.harness import (
    FIDELITY_TOLERANCE,
    aggregate_records,
    check_twin_theorem,
    replay_certificate,
    run_survey,
    screen_odd_odd,
    spanning_tree_count,
    survey_records,
    verify_positive_report,
)
from pstlab.pst import (
    NOT_STRONGLY_COSPECTRAL,
    adjacency_pst,
    all_pair_reports,
    decide,
    laplacian_pst,
    numeric_fidelity,
    pst_search,
)
from pstlab.spectral import (
    ADJACENCY,
    LAPLACIAN,
    SIGNLESS_LAPLACIAN,
    IntegerEig,
    QuadraticEig,
    ResidualEig,
    classify_by_minpolys,
    cospectrality_profile,
    eigenvalue_bound,
    support_profile,
)

from oracles import (
    eigenvalue_bound_by_order,
    fidelity_by_eigh,
    free_tree_count_prufer,
    free_tree_counts_otter,
    gate_witness_factor_support,
    minpoly_split_is_cospectral,
    pair_ids_factor_support,
    projection_sum,
    rank_mod_p,
    residual_remainder,
    sign_class_annihilators,
    twin_statistics,
)

ORACLE_TOLERANCE = 1e-9
TREE_COUNTS = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
# Twin statistics under the literal definitions (see oracles.twin_statistics).
TWIN_COUNTS_7 = {"tau_power_of_two": 83, "pow2_with_small_twins": 67,
                 "ruled_out_reading_no_admissible_pair": 78}
RULED_OUT_8 = {"ruled_out_reading_small_twins": 278,
               "ruled_out_reading_no_admissible_pair": 324}
# Wall-clock budget for each test of TestCriterion9ScaleBudget: the four
# 40-vertex pairs take about 2.5 s and the graph6-limit pairs with the
# hypercube:5 positives about 1.4 s on a 2-vCPU x86-64 box.
SCALE_BUDGET_S = 30.0
# Signless Laplacian verdict.certificate counts over connected graphs on
# 2..7 vertices and free trees on 2..10 (TestCriterion10SignlessLaplacian).
SIGNLESS_COUNTS = {
    "connected": {"yes.none": 3, "no.not-strongly-cospectral": 18431,
                  "no.residual-factor": 1184, "no.quadratic-mixed-a": 120,
                  "no.mixed-delta": 69, "no.parity-violation": 37,
                  "undecided.quadratic-mixed-a": 2},
    "trees": {"yes.none": 1, "no.not-strongly-cospectral": 7205,
              "no.residual-factor": 234, "no.quadratic-mixed-a": 16,
              "no.mixed-delta": 16, "no.parity-violation": 1},
}
# pairs of bipartite graphs compared between the signless Laplacian and the
# Laplacian (TestCriterion10SignlessLaplacian)
BIPARTITE_SIGNLESS_PAIRS = 9039
# (report count, sha256 of the compact sorted-key JSON list of the reports)
REPORT_DIGESTS = {
    "small corpus": (3866, "1383e6daef23dfbcb8362fb4e316a1a58bc828d56b300f570f331dec7e53b234"),
    LAPLACIAN: (7472, "c8436b8b20b7c2451189b8aaa47e9462c19fd3abdbc8e4a8284b8aeb51938ae6"),
    ADJACENCY: (7473, "83255fcf23190044fadaa5782fe8a995174be2c690b5c88d9b588eb024a27d4d"),
}
# sha256 of the newline-joined graph6 words of the connected corpus, in order
CORPUS_WORD_DIGESTS = {
    7: "76584eb4f6d62ee805bea5d3c9a4be66fb5cb81ef4c15a0d20947ff37b8b2466",
    8: "cfaec07fc82eb5aa83e263cd306e12b219b32628964075c275d1c975e61d43de",
}
# sha256 of survey --n 8 --workers 1: text stdout, --format json stdout, and
# the --out JSON lines
SURVEY_N8_DIGESTS = {
    "text": "d62f140b5b81c3ae388183d5e5b973882fcd1a062805cfeccfbacf22a2af5ef9",
    "json": "dbd65f720de414427c36431af409ae579e0008d9a103cfb6ed362e2f9039c895",
    "jsonl": "612139e9bd11b41a1df55f13094ba4aac5d221999390bfc3ea711d4b3c298506",
}


def report_line(criterion, ok, text):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {text}")


@pytest.fixture(scope="module")
def corpus_by_n():
    return {n: list(gen_connected_graphs(n)) for n in range(2, 8)}


@pytest.fixture(scope="module")
def survey7(corpus_by_n):
    records = survey_records(corpus_by_n[7], with_pst=False, workers=2)
    return aggregate_records(records)


@pytest.fixture(scope="module")
def corpus8():
    """All connected graphs on 8 vertices (11117 graphs), shared by the
    survey and its recount so the corpus is generated once."""
    return list(gen_connected_graphs(8))


@pytest.fixture(scope="module")
def survey8(corpus8):
    _, agg = run_survey(corpus8, with_pst=False, workers=2)
    return agg


@pytest.fixture(scope="module")
def tree_sweep_reports():
    """Every pair report over free trees: Laplacian on 3..10 vertices,
    adjacency on 2..10."""
    out = {LAPLACIAN: [], ADJACENCY: []}
    for n in range(2, 11):
        for t in gen_free_trees(n):
            if n >= 3:
                out[LAPLACIAN].extend((t, r) for r in all_pair_reports(t, LAPLACIAN))
            out[ADJACENCY].extend((t, r) for r in all_pair_reports(t, ADJACENCY))
    return out


@pytest.fixture(scope="module")
def signless_reports(corpus_by_n):
    """Every signless Laplacian pair report over connected graphs on 2..7
    vertices and over free trees on 2..10."""
    return {
        "connected": [(g, r) for n in range(2, 8) for g in corpus_by_n[n]
                      for r in all_pair_reports(g, SIGNLESS_LAPLACIAN)],
        "trees": [(t, r) for n in range(2, 11) for t in gen_free_trees(n)
                  for r in all_pair_reports(t, SIGNLESS_LAPLACIAN)],
    }


@pytest.fixture(scope="module")
def seven_reports(corpus_by_n):
    """Every Laplacian and adjacency pair report over connected graphs on 7
    vertices."""
    return [(g, r) for g in corpus_by_n[7] for kind in (LAPLACIAN, ADJACENCY)
            for r in all_pair_reports(g, kind)]


@pytest.fixture(scope="module")
def family_reports():
    """Every pair report on path:24, cycle:24 and hypercube:5, in all three
    kinds."""
    return [(g, r) for g in (path_graph(24), cycle_graph(24), hypercube(5))
            for kind in (LAPLACIAN, ADJACENCY, SIGNLESS_LAPLACIAN)
            for r in all_pair_reports(g, kind)]


@pytest.fixture(scope="module")
def small_corpus_reports(corpus_by_n):
    """Every pair report over connected graphs on 2..6 vertices."""
    out = []
    for n in range(2, 7):
        for g in corpus_by_n[n]:
            for kind in (LAPLACIAN, ADJACENCY):
                out.extend((g, r) for r in all_pair_reports(g, kind))
    return out


class TestCriterion1SurveySeven:
    def test_connected_and_tau_counts(self, survey7):
        got = (survey7["connected"], survey7["tau_odd"], survey7["tau_power_of_two"])
        ok = got == (853, 339, 83)
        report_line(1, ok, f"n=7 survey connected/odd/pow2 = {got}, golden (853, 339, 83)")
        assert ok

    def test_twin_statistic_as_golden(self, corpus_by_n, survey7):
        recount = twin_statistics(corpus_by_n[7])
        failures = [f"{key}: survey {survey7[key]}, recount {recount[key]}, "
                    f"expected {want}"
                    for key, want in TWIN_COUNTS_7.items()
                    if not survey7[key] == recount[key] == want]
        ok = not failures
        report_line(1, ok,
                    f"n=7 power-of-two graphs containing twins with <=2 common "
                    f"neighbours: computed {survey7['pow2_with_small_twins']}, "
                    f"recount {recount['pow2_with_small_twins']}, expected "
                    f"{TWIN_COUNTS_7['pow2_with_small_twins']} (paper figure "
                    f"{GOLDEN_COUNTS_7['pow2_with_small_twins']} does not "
                    f"reproduce)")
        assert ok, (
            "the survey aggregate, the independent recount and the "
            f"literal-definition counts must agree: {failures}; the paper's "
            "58 is recorded in the README and cli.GOLDEN_COUNTS_7, not here")

    def test_twin_recount_matches_graph_atlas(self):
        nx = pytest.importorskip("networkx")
        atlas = [Graph(len(h), h.edges()) for h in nx.graph_atlas_g()
                 if len(h) == 7]
        recount = twin_statistics(atlas)
        got = (recount["connected"], recount["tau_power_of_two"],
               recount["pow2_with_small_twins"])
        ok = got == (853, 83, 67)
        report_line(1, ok, f"recount over the networkx graph atlas, n=7 "
                           f"connected/pow2/small-twins = {got}, expected "
                           f"(853, 83, 67)")
        assert ok


class TestCriterion2SurveyEight:
    def test_golden_counts(self, survey8):
        got = (survey8["connected"], survey8["tau_power_of_two"],
               survey8["bipartite"], survey8["bipartite_lmax_integer"])
        ok = got == (11117, 360, 182, 10)
        report_line(2, ok, f"n=8 survey connected/pow2/bipartite/integral-lmax = "
                           f"{got}, golden (11117, 360, 182, 10)")
        assert ok

    def test_ruled_out_figure_as_golden(self, corpus8, survey8):
        recount = twin_statistics(corpus8)
        failures = [f"{key}: survey {survey8[key]}, recount {recount[key]}, "
                    f"expected {want}"
                    for key, want in RULED_OUT_8.items()
                    if not survey8[key] == recount[key] == want]
        ok = not failures
        computed = [survey8[key] for key in RULED_OUT_8]
        recounted = [recount[key] for key in RULED_OUT_8]
        report_line(2, ok, f"n=8 ruled-out-by-exclusion readings (small twins, "
                           f"no admissible pair): computed {computed}, recount "
                           f"{recounted}, expected {list(RULED_OUT_8.values())} "
                           f"(paper figure {GOLDEN_RULED_OUT_8} does not "
                           f"reproduce)")
        assert ok, (
            "each ruled-out reading must equal both the independent recount "
            f"and its literal-definition count: {failures}; the paper's 247 "
            "is recorded in the README and cli.GOLDEN_RULED_OUT_8, not here")


class TestCriterion3LaplacianPositives:
    def test_golden_positive_instances(self):
        cases = [
            ("P2", path_graph(2), [(0, 1)], F(1, 2)),
            ("C4", cycle_graph(4), [(0, 2), (1, 3)], F(1, 2)),
            ("K4-e", complete_minus_edge(4), [(0, 1)], F(1, 2)),
            ("Q2", hypercube(2), [(0, 3), (1, 2)], F(1, 2)),
            ("Q3", hypercube(3), [(u, u ^ 7) for u in range(4)], F(1, 2)),
        ]
        assert FIDELITY_TOLERANCE == ORACLE_TOLERANCE
        failures = []
        for name, g, pairs, coeff in cases:
            found = {(r.u, r.v): r for r in pst_search(g, LAPLACIAN)}
            if set(found) != set(pairs):
                failures.append(f"{name}: pairs {sorted(found)} != {pairs}")
                continue
            for r in found.values():
                if r.time_coeff != coeff or r.phase_s != 0:
                    failures.append(f"{name}: time/phase {r.time_coeff}, {r.phase_s}")
                ok, why = verify_positive_report(g, r)
                if not ok:
                    failures.append(f"{name}: {why}")
        ok = not failures
        report_line(3, ok, f"P2/C4/K4-e/Q2/Q3 positives oracle-confirmed at "
                           f"1-{ORACLE_TOLERANCE}" + ("" if ok else f"; {failures}"))
        assert ok, failures


class TestCriterion4TreeTheorems:
    def test_tree_counts_against_oracles(self):
        got = {n: sum(1 for _ in gen_free_trees(n)) for n in range(3, 11)}
        otter = free_tree_counts_otter(10)
        prufer = {n: free_tree_count_prufer(n) for n in range(3, 8)}
        ok = (got == TREE_COUNTS
              and all(otter[n] == TREE_COUNTS[n] for n in range(3, 11))
              and all(prufer[n] == TREE_COUNTS[n] for n in range(3, 8))
              and sum(got.values()) == 199)
        report_line(4, ok, f"tree census 3..10 = {sum(got.values())} (199 golden), "
                           f"cross-checked by sequence enumeration (n<=7) and "
                           f"the counting recurrence (n<=10)")
        assert ok

    def test_no_laplacian_transfer(self, tree_sweep_reports):
        yes = [(write_graph6(t), r.u, r.v)
               for t, r in tree_sweep_reports[LAPLACIAN] if r.yes]
        ok = yes == []
        report_line(4, ok, f"Laplacian transfer pairs over 199 trees on 3..10 "
                           f"vertices: {len(yes)} (expected 0)")
        assert ok, yes

    def test_adjacency_positives_are_p2_p3(self, tree_sweep_reports):
        yes = {(canonical_form(t), r.u, r.v)
               for t, r in tree_sweep_reports[ADJACENCY] if r.yes}
        expected = {(canonical_form(path_graph(2)), 0, 1),
                    (canonical_form(path_graph(3)), 0, 2)}
        undecided = [r for _, r in tree_sweep_reports[ADJACENCY]
                     if r.verdict == "undecided"]
        ok = yes == expected and not undecided
        report_line(4, ok, f"adjacency transfer over trees to 10 vertices: "
                           f"{len(yes)} positives (the one- and two-edge paths expected), "
                           f"{len(undecided)} undecided (0 allowed)")
        assert ok

    def test_every_negative_has_certificate(self, tree_sweep_reports):
        missing = [r for reports in tree_sweep_reports.values()
                   for _, r in reports
                   if r.verdict != "yes" and r.certificate is None]
        ok = not missing
        report_line(4, ok, f"negative tree reports without certificates: "
                           f"{len(missing)}")
        assert ok


class TestCriterion5TwinTheorem:
    def test_twin_transfer_only_in_the_two_exceptions(self, corpus_by_n):
        corpus = [g for n in range(2, 7) for g in corpus_by_n[n]]
        res = check_twin_theorem(corpus)
        yes_graphs = set()
        for g in corpus:
            for pair in find_twins(g):
                if pair.k in (1, 2) and laplacian_pst(g, pair.u, pair.v).yes:
                    yes_graphs.add(canonical_form(g))
        expected = {canonical_form(cycle_graph(4)),
                    canonical_form(complete_minus_edge(4))}
        ok = res.passed and yes_graphs == expected
        report_line(5, ok, f"graphs on <=6 vertices with transfer between "
                           f"small twins: {len(yes_graphs)} (C4 and K4-e expected)")
        assert ok, res.violations


class TestCriterion6PropertySuites:
    def test_resolution_of_identity(self, corpus_by_n):
        assertions = 0
        for n in range(2, 8):
            for g in corpus_by_n[n]:
                kinds = (LAPLACIAN, ADJACENCY) if n <= 6 else (LAPLACIAN,)
                for kind in kinds:
                    for u in range(g.n):
                        prof = support_profile(g, kind, u)
                        total = projection_sum(prof, g.n)
                        rem = residual_remainder(prof, g.n)
                        for i in range(g.n):
                            assert total[i] + rem[i] == (1 if i == u else 0)
                            assertions += 1
        ok = assertions >= 1000
        report_line(6, ok, f"resolution of identity: {assertions} exact assertions")
        assert ok

    def test_z_vector_identities(self, corpus_by_n):
        assertions = 0
        sc_pairs = 0
        for n in range(2, 8):
            for g in corpus_by_n[n]:
                m = laplacian(g)
                minpolys = {u: vector_minpoly(m, unit_vector(g.n, u))
                            for u in range(g.n)}
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        pm, pp = classify_by_minpolys(g, LAPLACIAN, u, v)
                        assertions += 1
                        if not minpoly_split_is_cospectral(pm, pp, minpolys[u]):
                            continue
                        sc_pairs += 1
                        prof = cospectrality_profile(g, LAPLACIAN, u, v)
                        assert prof.strongly_cospectral
                        p_poly, q_poly, w_plus, w_minus = sign_class_annihilators(
                            m, u, v, prof.plus_set, prof.minus_set)
                        assert poly_gcd(p_poly, q_poly) == IntPolynomial.one()
                        for i in range(g.n):
                            assert w_plus[i] == 0
                            assert w_minus[i] == 0
                            assertions += 2
        ok = assertions >= 1000 and sc_pairs >= 50
        report_line(6, ok, f"z+/z- identities: {assertions} assertions over "
                           f"{sc_pairs} strongly cospectral pairs")
        assert ok

    def test_matrix_tree_vertex_independence(self, corpus_by_n):
        assertions = 0
        for n in range(2, 8):
            for g in corpus_by_n[n]:
                base = spanning_tree_count(g, 0)
                for v in range(1, g.n):
                    assert spanning_tree_count(g, v) == base
                    assertions += 1
        ok = assertions >= 1000
        report_line(6, ok, f"matrix-tree vertex independence: {assertions} assertions")
        assert ok

    def test_tau_times_n_equals_lowest_coefficient(self, corpus_by_n):
        assertions = 0
        graphs = [g for n in range(2, 8) for g in corpus_by_n[n]]
        graphs += [t for n in range(3, 11) for t in gen_free_trees(n)]
        for g in graphs:
            tau = spanning_tree_count(g)
            p = charpoly(laplacian(g))
            lowest = next(c for c in p.coeffs if c != 0)
            assert g.n * tau == abs(lowest)
            assertions += 1
        ok = assertions >= 1000
        report_line(6, ok, f"n*tau vs lowest characteristic coefficient: "
                           f"{assertions} assertions")
        assert ok

    def test_modular_rank_law(self, corpus_by_n):
        assertions = 0
        for n in range(2, 8):
            for g in corpus_by_n[n]:
                tau = spanning_tree_count(g)
                lap = laplacian(g)
                for p in (3, 5, 7, 11, 13):
                    r = rank_mod_p(lap, p)
                    assert (r == n - 1) == (tau % p != 0)
                    assertions += 1
        ok = assertions >= 1000
        report_line(6, ok, f"rank over prime fields: {assertions} assertions")
        assert ok

    def test_bipartite_sign_similarity(self, corpus_by_n):
        assertions = 0
        for n in range(2, 8):
            for g in corpus_by_n[n]:
                bip = bipartition(g)
                if bip is None:
                    continue
                sigma = [1 if i in bip.class_a else -1 for i in range(g.n)]
                lap = laplacian(g)
                q = signless_laplacian(g)
                for i in range(g.n):
                    for j in range(g.n):
                        assert sigma[i] * lap[i][j] * sigma[j] == q[i][j]
                        assertions += 1
        ok = assertions >= 1000
        report_line(6, ok, f"bipartite sign similarity: {assertions} assertions")
        assert ok

    def test_bipartite_adjacency_support_symmetry(self, corpus_by_n):
        """On a bipartite graph D A D = -A, so every vertex's support is
        closed under negation: its minimal polynomial is even or odd, and its
        integer and quadratic ids come as theta and -theta.  decide has no
        bipartite branch for a support with one rational part a != 0
        because of the second: (a + b sqrt(d))/2 brings -a along."""
        assertions = 0
        with_nonzero_a = 0
        graphs = [g for n in range(2, 8) for g in corpus_by_n[n]
                  if bipartition(g) is not None]
        graphs += [t for n in range(2, 11) for t in gen_free_trees(n)]
        for g in graphs:
            m = [[g.adj[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]
            for u in range(g.n):
                p = vector_minpoly(m, unit_vector(g.n, u))
                flipped = [c if (p.degree - i) % 2 == 0 else -c
                           for i, c in enumerate(p.coeffs)]
                assert p.coeffs == tuple(flipped)
                ids = {e for e in factor_support(p, eigenvalue_bound(g, ADJACENCY))
                       if not isinstance(e, ResidualEig)}
                negated = {IntegerEig(-e.value) if isinstance(e, IntegerEig)
                           else QuadraticEig(-e.a, -e.b, e.delta) for e in ids}
                assert negated == ids, (write_graph6(g), u)
                assertions += 2
                with_nonzero_a += any(isinstance(e, QuadraticEig) and e.a for e in ids)
        ok = (len(graphs), assertions, with_nonzero_a) == (271, 2 * 2260, 162)
        report_line(6, ok, f"adjacency support symmetry on bipartite graphs: "
                           f"{assertions} assertions, {with_nonzero_a} vertices "
                           f"with a quadratic id (a + b sqrt(d))/2, a != 0")
        assert ok

    def test_decider_symmetry(self, corpus_by_n):
        import random
        rng = random.Random(2026)
        assertions = 0
        graphs = [g for n in range(3, 8) for g in corpus_by_n[n]]
        for g in rng.sample(graphs, 130):
            u, v = rng.sample(range(g.n), 2)
            for decide in (laplacian_pst, adjacency_pst):
                a, b = decide(g, u, v), decide(g, v, u)
                assert a.verdict == b.verdict
                assert a.g == b.g
                assert a.time_coeff == b.time_coeff and a.time_delta == b.time_delta
                assert a.phase_s == b.phase_s
                assert set(a.plus_set) == set(b.plus_set)
                assert set(a.minus_set) == set(b.minus_set)
                assertions += 6
        ok = assertions >= 1000
        report_line(6, ok, f"decider symmetry in (u,v): {assertions} assertions")
        assert ok

    def test_odd_order_odd_tau_exclusion_verified(self, corpus_by_n):
        screened = 0
        for g in corpus_by_n[7]:
            if screen_odd_odd(g):
                screened += 1
                assert pst_search(g, LAPLACIAN) == []
        ok = screened == 339
        report_line(6, ok, f"odd-order/odd-count exclusion verified on "
                           f"{screened} graphs (339 expected)")
        assert ok

    def test_cospectrality_routes_agree_full_corpus(self, corpus_by_n):
        assertions = 0
        for n in range(2, 8):
            for g in corpus_by_n[n]:
                m = laplacian(g)
                minpolys = {u: vector_minpoly(m, unit_vector(g.n, u))
                            for u in range(g.n)}
                profiles = {u: support_profile(g, LAPLACIAN, u)
                            for u in range(g.n)}
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        split = minpoly_split_is_cospectral(
                            *classify_by_minpolys(g, LAPLACIAN, u, v),
                            minpolys[u])
                        prof = cospectrality_profile(g, LAPLACIAN, u, v,
                                                     profiles=profiles)
                        assert prof.strongly_cospectral == split
                        assertions += 1
        ok = assertions >= 1000
        report_line(6, ok, f"projection route vs polynomial route: "
                           f"{assertions} pair verdicts agree")
        assert ok


class TestCriterion7OracleDiscipline:
    def test_positives_numerically_confirmed(self, tree_sweep_reports,
                                             small_corpus_reports):
        confirmed = 0
        failures = []
        everything = (small_corpus_reports
                      + tree_sweep_reports[LAPLACIAN]
                      + tree_sweep_reports[ADJACENCY])
        for g, r in everything:
            if r.yes:
                ok, why = verify_positive_report(g, r)
                if not ok:
                    failures.append((r.graph6, r.matrix_kind, r.u, r.v, why))
                confirmed += 1
        ok = not failures and confirmed >= 5
        report_line(7, ok, f"numeric confirmation of {confirmed} positive reports")
        assert ok, failures

    def test_oracle_agrees_with_eigh_on_every_positive(self, small_corpus_reports, seven_reports,
                                                       signless_reports, tree_sweep_reports):
        """The numeric oracle and the eigendecomposition it replaced give
        the same fidelity, to 1e-12, on every positive of the connected
        graphs on 2..7 vertices and the free trees on 2..10, in L, A and Q."""
        corpora = {
            "connected": small_corpus_reports + seven_reports + signless_reports["connected"],
            "trees": (tree_sweep_reports[LAPLACIAN] + tree_sweep_reports[ADJACENCY]
                      + signless_reports["trees"]),
        }
        counts, failures = {}, []
        for corpus, reports in corpora.items():
            positives = [(g, r) for g, r in reports if r.yes]
            counts[corpus] = len(positives)
            for g, r in positives:
                args = (g, r.matrix_kind, r.u, r.v, r.time_value())
                delta = abs(numeric_fidelity(*args) - fidelity_by_eigh(*args))
                if delta > 1e-12:
                    failures.append((r.graph6, r.matrix_kind, r.u, r.v, delta))
        ok = not failures and counts == {"connected": 14, "trees": 3}
        report_line(7, ok, f"numeric oracle equal to eigh on {counts} positives")
        assert ok, (counts, failures)

    def test_negatives_replayed_by_independent_checker(self, tree_sweep_reports,
                                                       small_corpus_reports):
        replayed = 0
        failures = []
        everything = (small_corpus_reports
                      + tree_sweep_reports[LAPLACIAN]
                      + tree_sweep_reports[ADJACENCY])
        for g, r in everything:
            if r.yes:
                continue
            if r.certificate is None:
                failures.append((r.graph6, r.matrix_kind, r.u, r.v, "no certificate"))
                continue
            ok, why = replay_certificate(g, r)
            if not ok:
                failures.append((r.graph6, r.matrix_kind, r.u, r.v,
                                 r.certificate.kind, why))
            replayed += 1
        ok = not failures and replayed >= 1000
        report_line(7, ok, f"certificate replay on {replayed} negative reports, "
                           f"{len(failures)} failures")
        assert ok, failures[:5]

    def test_walk_test_agrees_with_the_gcd_fallback(self, small_corpus_reports, seven_reports,
                                                   signless_reports, family_reports,
                                                   pair_minpolys, monkeypatch):
        """The replay's walk-count test of a residual witness is a fast path
        in front of the gcd of the minimal polynomials of e_u -+ e_v.  On
        every not-strongly-cospectral report with a residual witness over
        connected n <= 7, path:24 and cycle:24, in all three kinds, the
        replay answers the same with the walk test forced inconclusive, and
        wherever the walk test confirms, the witness meets that gcd.  The
        counts pin how many cases each route decides ("before": a support
        difference, decided ahead of both).  The forced fallback reads the
        polynomials of connected n <= 7 from the session's pair_minpolys,
        made by classify_by_minpolys on the same arguments."""
        everything = (small_corpus_reports + seven_reports + signless_reports["connected"]
                      + [(g, r) for g, r in family_reports if g.n == 24])
        cases = [(g, r) for g, r in everything
                 if r.certificate is not None and r.certificate.kind == NOT_STRONGLY_COSPECTRAL
                 and isinstance(r.certificate.witnesses[0], ResidualEig)]
        real_walk_test, real_minpoly_route = harness.walks_differ_at, harness.classify_by_minpolys
        verdicts, minpolys = [], []

        def walk_test(pu, pv, w):
            verdicts[-1].append(real_walk_test(pu, pv, w))
            return verdicts[-1][-1]

        def minpoly_route(*args):
            minpolys.append(pair_minpolys[args] if args in pair_minpolys
                            else real_minpoly_route(*args))
            return minpolys[-1]

        monkeypatch.setattr(harness, "walks_differ_at", walk_test)
        fast = []
        for g, r in cases:
            verdicts.append([])
            fast.append(replay_certificate(g, r))
        monkeypatch.setattr(harness, "walks_differ_at", lambda pu, pv, w: False)
        monkeypatch.setattr(harness, "classify_by_minpolys", minpoly_route)
        seen = {}
        failures = []
        for (g, r), answer, walked in zip(cases, fast, verdicts):
            minpolys.clear()
            slow = replay_certificate(g, r)
            witness = r.certificate.witnesses[0].poly
            route = {(): "before", (True,): "walks", (False,): "fallback"}[tuple(walked)]
            if (slow != answer or not answer[0]
                    or route == "walks" and poly_gcd(witness, poly_gcd(*minpolys[0])).degree < 1):
                failures.append((r.graph6, r.matrix_kind, r.u, r.v, answer, slow))
            counts = seen.setdefault(r.matrix_kind, {"walks": 0, "fallback": 0, "before": 0})
            counts[route] += 1
        ok = not failures and seen == {
            LAPLACIAN: {"walks": 4462, "fallback": 42, "before": 180},
            ADJACENCY: {"walks": 4831, "fallback": 42, "before": 132},
            SIGNLESS_LAPLACIAN: {"walks": 4983, "fallback": 42, "before": 174}}
        report_line(7, ok, f"residual witnesses by walk counts against the gcd route: {seen}, "
                           f"{len(failures)} failures")
        assert ok, failures[:5]

    def test_gate_witness_matches_factor_support(self, seven_reports, tree_sweep_reports,
                                                 small_corpus_reports):
        """The gate's witness, found among the support ids of u and v, is
        the first id of the factorization of the shared factor on every
        gated pair of connected n <= 7 and free trees n <= 10."""
        everything = (small_corpus_reports + seven_reports
                      + tree_sweep_reports[LAPLACIAN] + tree_sweep_reports[ADJACENCY])
        gated = {}
        failures = []
        for g, r in everything:
            cert = r.certificate
            if cert is None or cert.kind != NOT_STRONGLY_COSPECTRAL:
                continue
            shared = poly_gcd(cert.poly_minus, cert.poly_plus)
            expected = gate_witness_factor_support(shared, eigenvalue_bound(g, r.matrix_kind))
            if cert.witnesses != (expected,):
                failures.append((r.graph6, r.matrix_kind, r.u, r.v, cert.witnesses, expected))
            witness_type = type(expected).__name__
            gated[witness_type] = gated.get(witness_type, 0) + 1
        ok = not failures and len(gated) == 3
        report_line(7, ok, f"gate witnesses against factor_support: {gated}, "
                           f"{len(failures)} failures")
        assert ok, failures[:5]

    def test_sign_classes_match_factor_support(self, seven_reports, small_corpus_reports,
                                               tree_sweep_reports, signless_reports,
                                               family_reports):
        """Past the gate, the plus and minus sets that decide splits off the
        support ids of u are the factorizations of poly_plus and poly_minus
        on every yes pair and every certificate other than
        not-strongly-cospectral: connected n <= 7, free trees n <= 10 and
        path:24, cycle:24, hypercube:5, in all three kinds."""
        everything = (small_corpus_reports + seven_reports
                      + tree_sweep_reports[LAPLACIAN] + tree_sweep_reports[ADJACENCY]
                      + signless_reports["connected"] + signless_reports["trees"]
                      + family_reports)
        checked = {}
        residual_minus = 0
        failures = []
        for g, r in everything:
            if r.yes:
                poly_minus, poly_plus = classify_by_minpolys(g, r.matrix_kind, r.u, r.v)
            elif r.certificate.kind != NOT_STRONGLY_COSPECTRAL:
                poly_minus, poly_plus = r.certificate.poly_minus, r.certificate.poly_plus
            else:
                continue
            expected = pair_ids_factor_support(poly_minus, poly_plus,
                                               eigenvalue_bound_by_order(g, r.matrix_kind))
            if (r.plus_set, r.minus_set) != expected:
                failures.append((r.graph6, r.matrix_kind, r.u, r.v, expected))
            cert_kind = r.certificate.kind if r.certificate else "yes"
            checked[cert_kind] = checked.get(cert_kind, 0) + 1
            residual_minus += any(isinstance(e, ResidualEig) for e in expected[1])
        ok = not failures and len(checked) == 6 and residual_minus > 0
        report_line(7, ok, f"sign classes against factor_support: {checked}, "
                           f"{residual_minus} with a residual minus part, "
                           f"{len(failures)} failures")
        assert ok, failures[:5]


class TestCriterion8ReportBytes:
    def test_pair_reports_byte_identical(self, tree_sweep_reports,
                                         small_corpus_reports):
        """Verdicts, certificates, times and phases of every pair report are
        pinned byte for byte, so a rewrite of the decider cannot drift."""
        groups = {"small corpus": small_corpus_reports,
                  LAPLACIAN: tree_sweep_reports[LAPLACIAN],
                  ADJACENCY: tree_sweep_reports[ADJACENCY]}
        got = {}
        for name, reports in groups.items():
            payload = json.dumps([r.to_json() for _, r in reports],
                                 sort_keys=True, separators=(",", ":"))
            got[name] = (len(reports), hashlib.sha256(payload.encode()).hexdigest())
        ok = got == REPORT_DIGESTS
        report_line(8, ok, "pair report digests "
                           + ", ".join(f"{k}: {n}" for k, (n, _) in got.items()))
        assert ok, got

    @staticmethod
    def _check_corpus_words(n, corpus):
        words = "\n".join(write_graph6(g) for g in corpus)
        digest = hashlib.sha256(words.encode()).hexdigest()
        ok = digest == CORPUS_WORD_DIGESTS[n]
        report_line(8, ok, f"n={n} canonical words sha256 {digest[:12]}")
        assert ok, digest

    def test_connected_words_pinned_n7(self, corpus_by_n):
        """Generation emits the same canonical words in the same order."""
        self._check_corpus_words(7, corpus_by_n[7])

    def test_connected_words_pinned_n8(self, corpus8):
        self._check_corpus_words(8, corpus8)

    def test_survey_n8_bytes_pinned(self, corpus8, capsys, tmp_path):
        """survey --n 8 --workers 1 writes the same text, JSON and records
        as every earlier release.  corpus8 leaves the corpus in
        generation's cache, so this costs only the records."""
        out_path = tmp_path / "recs.jsonl"
        got = {}
        for name, argv in (("text", ["--out", str(out_path)]), ("json", ["--format", "json"])):
            assert main(["survey", "--n", "8", "--workers", "1", *argv]) == 0
            got[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        got["jsonl"] = hashlib.sha256(out_path.read_bytes()).hexdigest()
        ok = got == SURVEY_N8_DIGESTS
        report_line(8, ok, "survey --n 8 sha256 "
                           + ", ".join(f"{k} {v[:12]}" for k, v in got.items()))
        assert ok, got


class TestCriterion9ScaleBudget:
    def test_forty_vertex_pairs_within_budget(self):
        """The end pair of path:40 and the antipodal pair of cycle:40, in
        both kinds, are decided negative with a residual-factor certificate
        that replays, all four within SCALE_BUDGET_S."""
        pairs = [(path_graph(40), 0, 39), (cycle_graph(40), 0, 20)]
        start = time.perf_counter()
        results = []
        for g, u, v in pairs:
            for kind in (LAPLACIAN, ADJACENCY):
                r = decide(g, kind, u, v)
                replayed, why = replay_certificate(g, r)
                results.append((r.graph6, kind, r.verdict,
                                r.certificate and r.certificate.kind, replayed, why))
        elapsed = time.perf_counter() - start
        ok = (all(verdict == "no" and cert == "residual-factor" and replayed
                  for _, _, verdict, cert, replayed, _ in results)
              and elapsed <= SCALE_BUDGET_S)
        report_line(9, ok, f"4 pairs on 40 vertices decided and replayed in "
                           f"{elapsed:.1f}s (budget {SCALE_BUDGET_S:.0f}s)")
        assert ok, (elapsed, results)

    def test_graph6_limit_pairs_within_budget(self):
        """At graph6's limit of 62 vertices, the end pair of path:62 and the
        antipodal pair of cycle:62, each read back from its graph6 word, are
        decided negative in both kinds with a residual-factor certificate
        that replays; the 16 antipodal pairs of hypercube:5 are positive in
        both kinds and pass the numeric oracle; all within SCALE_BUDGET_S."""
        start = time.perf_counter()
        results = []
        for g, u, v in ((path_graph(62), 0, 61), (cycle_graph(62), 0, 31)):
            g = parse_graph6(write_graph6(g))
            for kind in (LAPLACIAN, ADJACENCY):
                r = decide(g, kind, u, v)
                replayed, why = replay_certificate(g, r)
                results.append((g.n, kind, r.verdict == "no"
                                and r.certificate.kind == "residual-factor" and replayed, why))
        cube = hypercube(5)
        for kind in (LAPLACIAN, ADJACENCY):
            for u in range(16):
                r = decide(cube, kind, u, u ^ 31)
                confirmed, why = verify_positive_report(cube, r)
                results.append((cube.n, kind, r.yes and confirmed, why))
        elapsed = time.perf_counter() - start
        ok = all(passed for _, _, passed, _ in results) and elapsed <= SCALE_BUDGET_S
        report_line(9, ok, f"4 pairs on 62 vertices and 32 hypercube:5 positives "
                           f"decided and checked in {elapsed:.1f}s "
                           f"(budget {SCALE_BUDGET_S:.0f}s)")
        assert ok, (elapsed, [r for r in results if not r[2]])


class TestCriterion10SignlessLaplacian:
    """The signless Laplacian Q = D + A is decided with the adjacency
    cascade and reference (see decide)."""

    def test_verdicts_checked_and_counted(self, signless_reports):
        """Every Q positive of connected n <= 7 and free trees n <= 10
        passes the numeric oracle, every other report replays, and the
        verdict x certificate counts are pinned."""
        got, failures, undecided = {}, [], []
        for corpus, reports in signless_reports.items():
            counts = {}
            for g, r in reports:
                key = f"{r.verdict}.{r.certificate.kind if r.certificate else 'none'}"
                counts[key] = counts.get(key, 0) + 1
                if r.yes:
                    ok, why = verify_positive_report(g, r)
                else:
                    ok, why = replay_certificate(g, r)
                if not ok:
                    failures.append((r.graph6, r.u, r.v, why))
                if r.verdict == "undecided":
                    undecided.append((r.graph6, r.u, r.v))
            got[corpus] = counts
        ok = (not failures and got == SIGNLESS_COUNTS
              and sorted(undecided) == [("E?~w", 4, 5), ("E`~o", 4, 5)])
        report_line(10, ok, f"signless Laplacian verdicts {got}, "
                            f"{len(failures)} check failures")
        assert ok, (got, failures[:5], undecided)

    def test_bipartite_verdicts_equal_laplacian(self, signless_reports, tree_sweep_reports):
        """Q = D L D on a bipartite graph, D = diag(+-1) by colour class, so
        |exp(itQ)_{vu}| = |exp(itL)_{vu}| and every pair gets the same
        verdict in both kinds: on the bipartite graphs of both corpora, on
        hypercubes up to dimension 4 and on even cycles up to 12."""
        laplacian_verdicts = {(r.graph6, r.u, r.v): r.verdict
                              for _, r in tree_sweep_reports[LAPLACIAN]}
        families = [hypercube(k) for k in range(1, 5)] + [cycle_graph(n) for n in range(4, 13, 2)]
        pairs = [(g, r) for reports in signless_reports.values() for g, r in reports]
        pairs += [(g, r) for g in families for r in all_pair_reports(g, SIGNLESS_LAPLACIAN)]
        compared, differing = 0, []
        for g, r in pairs:
            if bipartition(g) is None:
                continue
            key = (r.graph6, r.u, r.v)
            if key not in laplacian_verdicts:
                laplacian_verdicts.update(((lap.graph6, lap.u, lap.v), lap.verdict)
                                          for lap in all_pair_reports(g, LAPLACIAN))
            compared += 1
            if r.verdict != laplacian_verdicts[key]:
                differing.append(key)
        ok = not differing and compared == BIPARTITE_SIGNLESS_PAIRS
        report_line(10, ok, f"signless Laplacian and Laplacian verdicts agree on "
                            f"{compared} bipartite pairs, {len(differing)} differ")
        assert ok, (compared, differing[:5])
