import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from pstlab.exactalg import (IntPolynomial, charpoly, det_bareiss, factor_support,
                             semidefinite_pivots)
from pstlab import generate, harness, spectral
from pstlab.generate import canonical_form, gen_connected_graphs, gen_free_trees
from pstlab.graphs import (
    Graph,
    bipartition,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    find_twins,
    hypercube,
    laplacian,
    one_sum_chain,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from pstlab.harness import (
    aggregate_records,
    aggregate_to_csv,
    check_bipartite_lmax,
    check_power_of_two_eigenvalue,
    check_trees_no_lpst,
    check_twin_theorem,
    check_unique_matching_no_apst,
    is_pedestrian,
    lmax_is_integer,
    power_of_two,
    replay_certificate,
    run_survey,
    screen_odd_odd,
    screen_power_of_two,
    spanning_tree_count,
    survey_record,
    survey_records,
    tree_perfect_matching,
    verify_positive_report,
    write_survey_jsonl,
)
from pstlab.pst import (
    MIXED_DELTA,
    NO,
    NON_INTEGER_SUPPORT,
    NOT_STRONGLY_COSPECTRAL,
    PARITY_VIOLATION,
    QUADRATIC_MIXED_A,
    RESIDUAL_FACTOR,
    UNDECIDED,
    YES,
    Certificate,
    PSTReport,
    all_pair_reports,
    decide,
    laplacian_pst,
    pst_search,
)
from pstlab.spectral import (
    ADJACENCY,
    KINDS,
    LAPLACIAN,
    SIGNLESS_LAPLACIAN,
    IntegerEig,
    QuadraticEig,
    ResidualEig,
    support_profile,
)

from oracles import _semidefinite_singular, integer_lmax_charpoly, rank_mod_p, spanning_trees_brute


class TestSpanningTrees:
    def test_trees_have_one(self):
        for n in range(2, 7):
            assert spanning_tree_count(path_graph(n)) == 1

    def test_c5(self):
        assert spanning_tree_count(cycle_graph(5)) == 5
        assert spanning_trees_brute(cycle_graph(5)) == 5

    def test_k4(self):
        assert spanning_tree_count(complete_graph(4)) == 16

    def test_vertex_out_of_range(self):
        for vertex in (5, -1):
            with pytest.raises(ValueError, match="out of range"):
                spanning_tree_count(cycle_graph(5), vertex)

    def test_against_brute_force(self, corpus6):
        for g in corpus6:
            if g.n <= 6:
                assert spanning_tree_count(g) == spanning_trees_brute(g)

    def test_vertex_choice_irrelevant(self, corpus6):
        for g in corpus6:
            base = spanning_tree_count(g, 0)
            assert all(spanning_tree_count(g, v) == base for v in range(1, g.n))

    def test_disconnected_gives_zero(self):
        assert spanning_tree_count(Graph(4, [(0, 1), (2, 3)])) == 0

    def test_tau_n_equals_lowest_charpoly_coefficient(self, corpus6):
        for g in corpus6:
            tau = spanning_tree_count(g)
            if tau == 0:
                continue
            p = charpoly(laplacian(g))
            lowest = next(c for c in p.coeffs if c != 0)
            assert g.n * tau == abs(lowest)


class TestScreens:
    def test_pedestrian(self):
        assert is_pedestrian(cycle_graph(3))
        assert not is_pedestrian(cycle_graph(4))
        assert is_pedestrian(one_sum_chain([3, 3]))
        assert spanning_tree_count(one_sum_chain([3, 3])) == 9

    def test_pedestrian_rejects_disconnected(self):
        with pytest.raises(ValueError):
            is_pedestrian(Graph(3, [(0, 1)]))

    def test_odd_odd(self):
        assert screen_odd_odd(cycle_graph(5))
        assert not screen_odd_odd(cycle_graph(4))
        assert not screen_odd_odd(cycle_graph(6))

    def test_odd_odd_rules_out_transfer_small(self):
        for n in range(3, 7):
            for g in gen_connected_graphs(n):
                if screen_odd_odd(g):
                    assert pst_search(g, LAPLACIAN) == []

    def test_power_of_two_screen(self):
        s = screen_power_of_two(hypercube(3))
        assert not s.applicable  # tau(Q3) = 384 is not a power of two
        assert s.tau == 384
        s = screen_power_of_two(cycle_graph(8))
        assert s.applicable and s.tau == 8 and s.admissible_pairs == []

    def test_power_of_two_flags(self):
        assert power_of_two(1) and power_of_two(8)
        assert not power_of_two(0) and not power_of_two(6)


class TestTwinTheorem:
    def test_full_small_corpus(self, corpus6):
        res = check_twin_theorem(corpus6)
        assert res.passed, res.violations
        assert res.details["exceptionals_seen"] == 2

    def test_known_negative_cases(self):
        # small twin pairs outside the two exceptional graphs never transfer
        k13_plus_edge = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        for g, u, v in ((complete_graph(3), 0, 1), (path_graph(3), 0, 2),
                        (star_graph(3), 1, 2), (k13_plus_edge, 1, 2)):
            assert laplacian_pst(g, u, v).verdict == "no"

    def test_exceptions_transfer(self):
        assert laplacian_pst(cycle_graph(4), 0, 2).yes
        assert laplacian_pst(complete_minus_edge(4), 0, 1).yes

    def test_import_runs_no_search(self):
        """Importing harness runs no canonical search: the words of C4 and
        K4 minus an edge are made when check_twin_theorem runs, so a fresh
        interpreter's import calls generate._root_colours 0 times."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        code = ("import sys\n"
                "calls = []\n"
                "def profile(frame, event, arg):\n"
                "    if event == 'call' and frame.f_code.co_name == '_root_colours':\n"
                "        calls.append(frame.f_code.co_filename)\n"
                "sys.setprofile(profile)\n"
                "import pstlab.harness\n"
                "sys.setprofile(None)\n"
                "assert 'pstlab.generate' in sys.modules\n"
                "print(len(calls))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestPowerOfTwoEigenvalue:
    def test_c4_antipodal(self):
        res = check_power_of_two_eigenvalue(cycle_graph(4), 0, 2)
        assert res.passed

    def test_k4_minus_edge(self):
        res = check_power_of_two_eigenvalue(complete_minus_edge(4), 0, 1)
        assert res.passed

    def test_q3_precondition_fails(self):
        with pytest.raises(ValueError):
            check_power_of_two_eigenvalue(hypercube(3), 0, 7)

    def test_non_cospectral_pair_rejected(self):
        with pytest.raises(ValueError):
            check_power_of_two_eigenvalue(cycle_graph(4), 0, 1)


def labelled_graphs(max_n):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


LMAX_CORPORA = {
    "labelled n<=5, disconnected included": lambda: labelled_graphs(5),
    "connected n<=8": lambda: (g for n in range(1, 9) for g in gen_connected_graphs(n)),
    "trees n<=12": lambda: (t for n in range(1, 13) for t in gen_free_trees(n)),
    "families": lambda: [path_graph(62), cycle_graph(62), star_graph(61), hypercube(5),
                         complete_graph(16)],
}


@st.composite
def symmetric_matrices(draw, size=None):
    """Symmetric integer matrices up to 8 x 8 (size x size when size is
    given): Gram matrices B^T B (semidefinite, singular when B has fewer
    rows than columns) and arbitrary ones (mostly indefinite), each
    shifted by a small multiple of I; hollow ones, whose zero diagonal
    leaves only the zero-row test; any of them with a zero row and column
    spliced in."""
    size = size or draw(st.integers(1, 8))
    splice = size > 1 and draw(st.booleans())
    n = size - splice
    shape = draw(st.sampled_from(["gram", "arbitrary", "hollow"]))
    if shape == "gram":
        entry = st.integers(-3, 3)
        b = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
        m = [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]
    else:
        entry = st.integers(-3, 3) if shape == "arbitrary" else st.integers(-1, 1)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + (shape == "hollow"), n):
                m[i][j] = m[j][i] = draw(entry)
    shift = draw(st.integers(-2, 2)) if shape != "hollow" else 0
    for i in range(n):
        m[i][i] += shift
    if splice:
        at = draw(st.integers(0, n))
        m = [row[:at] + [0] + row[at:] for row in m]
        m.insert(at, [0] * (n + 1))
    return m


def by_order(graphs):
    """{n: the graphs of order n, in input order}."""
    groups = {}
    for g in graphs:
        groups.setdefault(g.n, []).append(g)
    return groups


def reduced_laplacian(g):
    return [row[1:] for row in laplacian(g)[1:]]


class TestLmaxIntegrality:
    def test_examples(self):
        assert lmax_is_integer(cycle_graph(4))
        assert lmax_is_integer(path_graph(3))
        assert not lmax_is_integer(path_graph(4))
        assert not lmax_is_integer(cycle_graph(5))
        assert lmax_is_integer(complete_graph(5))

    def test_against_numeric(self, corpus6):
        import numpy as np
        for g in corpus6:
            lam = float(np.linalg.eigvalsh(np.array(laplacian(g), dtype=float))[-1])
            near_int = abs(lam - round(lam)) < 1e-8
            assert lmax_is_integer(g) == near_int, (g, lam)

    def test_bipartite_check_small(self, corpus6):
        res = check_bipartite_lmax(corpus6)
        assert res.passed
        assert res.details["bipartite"] == 1 + 1 + 1 + 3 + 5 + 17

    @pytest.mark.parametrize("corpus", sorted(LMAX_CORPORA))
    def test_bisection_matches_charpoly_oracle(self, corpus):
        """The survey's stacks of one order at a time: lambda_max from the
        lockstep bisection against the characteristic polynomial, and the
        tree count against det_bareiss of the reduced Laplacian."""
        mismatches = []
        for graphs in by_order(LMAX_CORPORA[corpus]()).values():
            laps = harness._laplacians(graphs)
            for g, lmax, tau in zip(graphs, harness._integer_lmaxes(laps),
                                    harness._tree_counts(laps)):
                if (lmax, tau) != (integer_lmax_charpoly(g), det_bareiss(reduced_laplacian(g))):
                    mismatches.append((write_graph6(g), lmax, tau))
        assert not mismatches, mismatches[:5]

    @pytest.mark.parametrize("corpus", sorted(LMAX_CORPORA))
    def test_kernel_matches_elimination_oracle(self, corpus):
        """semidefinite_pivots on the stacks of kI - L, k = 0..n, of each
        order against the one-matrix elimination it replaced."""
        mismatches = []
        for n, graphs in by_order(LMAX_CORPORA[corpus]()).items():
            laps = harness._laplacians(graphs)
            for k in range(n + 1):
                stack = k * np.identity(n, dtype=np.int64) - laps
                for g, m, psd, singular in zip(graphs, stack, *semidefinite_pivots(stack)[:2]):
                    want = _semidefinite_singular(m.tolist())
                    if (psd, psd and singular) != (want is not None, bool(want)):
                        mismatches.append((write_graph6(g), k, psd, singular, want))
        assert not mismatches, mismatches[:5]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_elimination_matches_sympy_eigenvalues(self, data):
        m = data.draw(symmetric_matrices())
        eigenvalues = sympy.real_roots(sympy.Matrix(m).charpoly())
        assert len(eigenvalues) == len(m)
        negative = [e.is_negative for e in eigenvalues]
        zero = [e.is_zero for e in eigenvalues]
        assert None not in negative + zero
        (psd,), (singular,), _ = semidefinite_pivots([m])
        assert psd == (not any(negative)), m
        if psd:
            assert singular == any(zero), m

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_stack_matches_one_at_a_time(self, data):
        """A stack of equal-size matrices gives each matrix the verdict of
        the one-matrix oracle, and its determinant as the last pivot when
        it is positive definite; scaled by 2^40, which keeps both
        verdicts, the same stack runs on Python ints unless it is zero."""
        size = data.draw(st.integers(1, 8))
        mats = data.draw(st.lists(symmetric_matrices(size), min_size=1, max_size=6))
        psd, singular, last = semidefinite_pivots(mats)
        for m, p, s, d in zip(mats, psd, singular, last.tolist()):
            want = _semidefinite_singular(m)
            assert p == (want is not None), m
            if p:
                assert s == want, m
                if not s:
                    assert d == det_bareiss(m), m
        scaled = [[[x << 40 for x in row] for row in m] for m in mats]
        psd_big, singular_big, last_big = semidefinite_pivots(scaled)
        assert last_big.dtype == object or not np.any(mats)
        assert psd_big.tolist() == psd.tolist()
        assert (psd_big & singular_big).tolist() == (psd & singular).tolist()

    def test_dtype_follows_the_hadamard_bound(self):
        """int64 exactly when every matrix's product of max(1, squared row
        norm) is below 2^62: every stack of the built-in corpus and of
        order 9 (L, the reduced L, and kI - L for k = 0..n) runs in int64;
        path:62 and complete:16 run on Python ints."""
        corpus = [g for n in range(1, 9) for g in gen_connected_graphs(n)]
        corpus += list(gen_free_trees(9)) + [complete_graph(9), star_graph(8), Graph(9)]
        for n, graphs in by_order(corpus).items():
            laps = harness._laplacians(graphs)
            stacks = [laps, laps[:, 1:, 1:]]
            stacks += [k * np.identity(n, dtype=np.int64) - laps for k in range(n + 1)]
            assert all(semidefinite_pivots(m)[2].dtype == np.int64 for m in stacks), n
        for g in (path_graph(62), complete_graph(16)):
            laps = harness._laplacians([g])
            assert semidefinite_pivots(laps)[2].dtype == object
            assert semidefinite_pivots(laps[:, 1:, 1:])[2].dtype == object
        # at the bound: 2I has rows of squared norm 4, and 4^31 = 2^62
        for n, dtype in ((30, np.int64), (31, object)):
            assert semidefinite_pivots([2 * np.identity(n, dtype=np.int64)])[2].dtype == dtype, n

    def test_pendant_rows_stay_in_int64(self):
        """At k = n = 10, the bisection's last probe, a pendant vertex's row
        of kI - L has squared norm 9^2 + 1 = 82 and 82^10 > 2^62, but the
        product of the rows' squared norms is below 2^62 (82^9 * 10 for
        star:9): int64, with the verdicts and pivots of the same matrices
        stacked with 2^40 I, which puts the stack on Python ints."""
        for g in (star_graph(9), path_graph(10)):
            stack = 10 * np.identity(10, dtype=np.int64) - harness._laplacians([g])
            wide = np.concatenate([stack, [2 ** 40 * np.identity(10, dtype=np.int64)]])
            narrow, wide = semidefinite_pivots(stack), semidefinite_pivots(wide)
            assert narrow[2].dtype == np.int64 and wide[2].dtype == object
            assert [x.tolist() for x in narrow] == [x[:1].tolist() for x in wide], write_graph6(g)


class TestLmaxCost:
    """Call counts, not timers: kI - L is eliminated once per bisection step
    over (Delta, min(n, max d_u + d_v)], plus once when the upper end was
    never tested."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        count = [0]
        inner = harness.semidefinite_pivots

        def counted(mats):
            count[0] += len(mats)
            return inner(mats)

        monkeypatch.setattr(harness, "semidefinite_pivots", counted)
        return count

    def test_per_graph_bound(self, eliminations):
        corpus = [g for n in range(2, 8) for g in gen_connected_graphs(n)]
        corpus += [t for n in range(2, 11) for t in gen_free_trees(n)]
        corpus += [path_graph(62), cycle_graph(62), hypercube(5), complete_graph(16)]
        for g in corpus:
            deg = [g.degree(u) for u in range(g.n)]
            lo = max(deg)
            hi = min(g.n, max(deg[u] + deg[v] for u, v in g.edges))
            eliminations[0] = 0
            harness._integer_lmax(g)
            assert eliminations[0] <= (hi - lo - 1).bit_length() + 1, write_graph6(g)

    def test_edgeless_graph_needs_none(self, eliminations):
        assert harness._integer_lmax(Graph(3)) == 0
        assert eliminations[0] == 0

    def test_total_on_connected_n7_pinned(self, eliminations):
        """One graph at a time and the whole order in lockstep probe the
        same matrices."""
        graphs = list(gen_connected_graphs(7))
        for g in graphs:
            harness._integer_lmax(g)
        assert eliminations[0] == 1619
        eliminations[0] = 0
        harness._integer_lmaxes(harness._laplacians(graphs))
        assert eliminations[0] == 1619


class TestTreeChecks:
    def test_no_laplacian_transfer_small(self):
        res = check_trees_no_lpst(8)
        assert res.passed, res.violations[:3]
        assert res.details["trees"] == 1 + 2 + 3 + 6 + 11 + 23

    def test_matching_theorem_small(self):
        res = check_unique_matching_no_apst(8)
        assert res.passed, res.violations[:3]

    def test_perfect_matchings(self):
        assert tree_perfect_matching(path_graph(4)) == [(0, 1), (2, 3)]
        assert tree_perfect_matching(path_graph(6)) == [(0, 1), (2, 3), (4, 5)]
        assert tree_perfect_matching(path_graph(3)) is None
        assert tree_perfect_matching(star_graph(3)) is None
        # even order is not enough: two leaves on one support vertex strand
        spider = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        assert tree_perfect_matching(spider) is None
        with pytest.raises(ValueError):
            tree_perfect_matching(cycle_graph(4))
        assert tree_perfect_matching(Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4),
                                               (4, 5), (5, 6), (6, 7)])) is not None

    def test_matching_cap(self):
        with pytest.raises(ValueError):
            check_unique_matching_no_apst(13)


class TestSurvey:
    def test_n4_aggregate(self):
        records, agg = run_survey(gen_connected_graphs(4), with_pst=True)
        assert agg["connected"] == 6
        assert agg["tau_odd"] == 3
        assert agg["tau_power_of_two"] == 5
        assert agg["lpst_pairs"] == 3   # two C4 pairs plus one in K4 minus an edge
        assert agg["apst_pairs"] == 2   # the two C4 pairs
        assert agg["undecided_pairs"] == 0

    def test_n5_aggregate(self):
        _, agg = run_survey(gen_connected_graphs(5))
        assert agg["connected"] == 21
        assert agg["lpst_pairs"] is None

    def test_records_jsonl_roundtrip(self, tmp_path):
        records, _ = run_survey(gen_connected_graphs(4))
        out = tmp_path / "records.jsonl"
        write_survey_jsonl(records, str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        parsed = [json.loads(line) for line in lines]
        assert all(set(p) == {"graph6", "n", "spanning_trees", "tau_odd",
                              "tau_power_of_two", "has_small_twins", "bipartite",
                              "lmax_integer", "lpst_pairs", "apst_pairs",
                              "undecided_pairs"} for p in parsed)

    def test_worker_pool_matches_serial(self):
        graphs = list(gen_connected_graphs(5))
        serial = survey_records(graphs, False, workers=1)
        parallel = survey_records(graphs, False, workers=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
        # no_admissible_pair is left out of to_json; it must still cross
        # the process boundary
        assert aggregate_records(serial) == aggregate_records(parallel)

    def test_record_leaves_no_edge_set_cached(self):
        """The built-in corpus outlives a survey in the generator's cache, so
        a graph must hold no edge-set cache for a record to fill: on the
        11,117 graphs of n = 8 such a cache raised the survey's peak RSS by
        17 MB.  Graph keeps its order and neighbour masks only."""
        g = complete_minus_edge(6)
        survey_record(g)
        assert Graph.__slots__ == ("n", "adj") and not hasattr(g, "__dict__")

    def test_aggregate_csv(self):
        _, agg = run_survey(gen_connected_graphs(4))
        text = aggregate_to_csv(agg)
        header, *rows = text.strip().splitlines()
        assert header == "metric,value"
        assert len(rows) == len(agg)

    def test_record_words_across_the_canonical_limit(self):
        """Up to MAX_CANONICAL_N = 16 vertices a record carries the canonical
        word, so relabellings of path:16 record one word; past it, each
        record carries its input's own word."""
        rng = random.Random(20)
        for n, canonical in ((16, True), (20, False)):
            graphs = []
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                graphs.append(path_graph(n).relabel(perm))
            words = [rec.graph6 for rec in survey_records(graphs)]
            if canonical:
                assert words == [canonical_form(path_graph(n))] * 3
            else:
                assert words == [write_graph6(g) for g in graphs] and len(set(words)) == 3

    def test_disconnected_records(self):
        rec = survey_records([Graph(4, [(0, 1), (2, 3)])])[0]
        assert rec.spanning_trees == 0
        assert not rec.tau_odd and not rec.tau_power_of_two
        assert rec.bipartite


def slow_facts(g):
    """The per-graph survey facts from the one-graph routines:
    connectivity, a twin pair with one or two common neighbours, an
    admissible twin pair, bipartiteness."""
    twins = find_twins(g)
    return (g.is_connected(), any(p.k in (1, 2) for p in twins),
            bool(harness.admissible_twin_pairs(twins)), bipartition(g) is not None)


def array_facts(graphs):
    """The same facts, for graphs of one order, from the survey's array
    passes: connectivity as a tree count of at least 1, the rest from
    _mask_facts."""
    masks = np.array([g.adj for g in graphs], dtype=np.int64)
    a = generate.adjacency_stack(masks, graphs[0].n)
    connected = [tau >= 1 for tau in harness._tree_counts(harness._laplacian_stack(a))]
    return list(zip(connected, *harness._mask_facts(masks, a)))


@st.composite
def planted_gnp(draw):
    """G(n, p) on up to 62 vertices, so masks reach bit 61, with up to four
    planted twin pairs: v takes u's neighbours away from the pair, and the
    pair is joined or not."""
    n = draw(st.integers(1, 62))
    p = draw(st.sampled_from([0.03, 0.1, 0.3, 0.5, 0.8, 0.97]))
    rng = draw(st.randoms(use_true_random=False))
    adj = [[False] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        adj[i][j] = adj[j][i] = rng.random() < p
    for _ in range(draw(st.integers(0, 4)) if n >= 2 else 0):
        u, v = rng.sample(range(n), 2)
        for w in range(n):
            if w not in (u, v):
                adj[v][w] = adj[w][v] = adj[u][w]
        adj[u][v] = adj[v][u] = rng.random() < 0.5
    return Graph(n, [(i, j) for i, j in combinations(range(n), 2) if adj[i][j]])


class TestSurveyMaskFacts:
    """The survey's connectivity, twin and bipartite facts, read off array
    passes over a chunk, against the one-graph routines they replace, which
    stay as the per-graph API: g.is_connected(), find_twins with
    admissible_twin_pairs, and bipartition."""

    @pytest.mark.parametrize("corpus", ["connected n<=8", "labelled n<=5"])
    def test_corpus(self, corpus):
        graphs = (list(labelled_graphs(5)) if corpus == "labelled n<=5"
                  else [g for n in range(1, 9) for g in gen_connected_graphs(n)])
        mismatches = []
        for group in by_order(graphs).values():
            for k in range(0, len(group), 256):
                chunk = group[k:k + 256]
                for g, got in zip(chunk, array_facts(chunk)):
                    if got != slow_facts(g):
                        mismatches.append((write_graph6(g), got, slow_facts(g)))
        assert not mismatches, mismatches[:5]
        # the facts that take both values: no graph on five vertices has an
        # admissible twin pair (k >= 3 common neighbours and a power of two
        # k + 2 sigma), and the connected corpus has no disconnected graph
        facts = set(map(slow_facts, graphs))
        varied = {"connected n<=8": [1, 2, 3], "labelled n<=5": [0, 1, 3]}[corpus]
        assert [i for i in range(4) if len({f[i] for f in facts}) == 2] == varied

    @given(st.lists(planted_gnp(), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_planted_gnp(self, graphs):
        for group in by_order(graphs).values():
            assert array_facts(group) == [slow_facts(g) for g in group]

    def test_records(self):
        """The records of the labelled graphs on at most 5 vertices and the
        connected corpus n <= 8 carry the same facts as the slow route."""
        graphs = list(labelled_graphs(5)) + list(gen_connected_graphs(8))
        for g, rec in zip(graphs, survey_records(graphs)):
            connected, small, admissible, bipartite = slow_facts(g)
            assert (rec.spanning_trees >= 1, rec.has_small_twins, rec.bipartite) == (
                connected, small, bipartite), write_graph6(g)
            gated = connected and g.n > 4 and rec.tau_power_of_two
            assert rec.no_admissible_pair == (gated and not admissible), write_graph6(g)


class TestCertificateReplay:
    def test_all_negatives_replay_small(self, corpus6):
        replayed = 0
        for g in corpus6:
            for kind in KINDS:
                for r in all_pair_reports(g, kind):
                    if r.verdict == "yes":
                        ok, why = verify_positive_report(g, r)
                        assert ok, why
                    else:
                        ok, why = replay_certificate(g, r)
                        assert ok, (r.graph6, kind, r.u, r.v, r.certificate.kind, why)
                        replayed += 1
        assert replayed == 5784 + 2  # the negatives and two undecided reports

    def test_tree_negatives_replay(self):
        for t in gen_free_trees(6):
            for r in all_pair_reports(t, ADJACENCY):
                if r.verdict != "yes":
                    ok, why = replay_certificate(t, r)
                    assert ok, why

    def test_residual_witness_needs_a_mismatch(self):
        """On path:7 the Laplacian pair (0,6) is strongly cospectral, so a
        residual witness that only meets the support of 0 is refused.  A
        residual witness replays when it meets a factor of one residual that
        the other lacks, a root where the walk counts of u and v projected
        onto its roots differ, or the gcd of the minimal polynomials of
        e_u -+ e_v."""
        def forged(g, kind, u, v, witness):
            return PSTReport(write_graph6(g), kind, u, v, NO,
                             Certificate(NOT_STRONGLY_COSPECTRAL, (witness,), "forged"))

        p7 = path_graph(7)
        residual = support_profile(p7, LAPLACIAN, 0).residual
        ok, why = replay_certificate(p7, forged(p7, LAPLACIAN, 0, 6, ResidualEig(residual)))
        assert not ok and why == "residual witness meets no mismatch", why
        # on ECDg, 1 and 3 share one residual in L and in Q, and agree in
        # sign on it, but their walk counts differ at other eigenvalues: the
        # walk test reads them projected onto the witness's roots only
        g = parse_graph6("ECDg")
        for kind in (LAPLACIAN, SIGNLESS_LAPLACIAN):
            pu, pv = (support_profile(g, kind, w) for w in (1, 3))
            assert pu.residual == pv.residual and pu.residual.degree == 3
            assert pu.krylov_rows[1][:3] != pv.krylov_rows[3][:3]
            ok, why = replay_certificate(g, forged(g, kind, 1, 3, ResidualEig(pu.residual)))
            assert not ok and why == "residual witness meets no mismatch", (kind, why)
        g = parse_graph6("FQGOW")  # the residual of 6 is a proper factor of that of 0
        ru, rv = (support_profile(g, LAPLACIAN, w).residual for w in (0, 6))
        own, rest = ru.pseudo_divmod(rv)
        assert rest.is_zero() and own.degree == 3
        ok, why = replay_certificate(g, forged(g, LAPLACIAN, 0, 6, ResidualEig(own)))
        assert ok and why == "residual support difference confirmed", why
        g = parse_graph6("CN")  # equal residuals, split by neither sign
        r = decide(g, ADJACENCY, 0, 3)
        assert isinstance(r.certificate.witnesses[0], ResidualEig)
        ok, why = replay_certificate(g, r)
        assert ok and why == "residual-level mismatch confirmed", why
        # the zero polynomial, or a factor with a root outside both supports,
        # names no residual of the pair and is refused before any gcd
        real = r.certificate.witnesses[0].poly
        for forgery in (IntPolynomial(()), real * IntPolynomial.x_minus(100)):
            for graph, kind, u, v in ((g, ADJACENCY, 0, 3), (p7, LAPLACIAN, 0, 6),
                                      (parse_graph6("FQGOW"), LAPLACIAN, 0, 6)):
                ok, why = replay_certificate(graph, forged(graph, kind, u, v,
                                                           ResidualEig(forgery)))
                assert not ok, (graph, forgery, why)

    def test_replay_factors_each_vertex_polynomial_once(self, corpus6, monkeypatch):
        """The replay's support profiles run factor_support once per
        distinct (minimal polynomial, eigenvalue bound) over a graph set, in
        all three kinds, and no two profiles share one support list."""
        calls, profiles = [], []

        def counted(p, bound):
            calls.append((p, bound))
            return factor_support(p, bound)

        def recorded(g, kind, u):
            profiles.append((g, support_profile(g, kind, u)))
            return profiles[-1][1]

        monkeypatch.setattr(spectral, "factor_support", counted)
        monkeypatch.setattr(harness, "support_profile", recorded)
        spectral._factored_support.cache_clear()
        harness._cached_profile.cache_clear()
        graphs = [g for g in corpus6 if g.n <= 5] + [path_graph(9), cycle_graph(8), hypercube(3)]
        for g in graphs:
            for kind in KINDS:
                for r in all_pair_reports(g, kind):
                    if r.verdict != YES:
                        assert replay_certificate(g, r)[0]
        harness._cached_profile.cache_clear()
        distinct = {(p.minpoly, spectral.eigenvalue_bound(g, p.matrix_kind)) for g, p in profiles}
        assert len(calls) == len(distinct) < len(profiles) // 2, (len(calls), len(profiles))
        assert set(calls) == distinct
        assert len({id(p.support) for _, p in profiles}) == len(profiles)

    def test_integral_support_required_of_the_laplacian_only(self):
        """On path:3, adjacency transfer joins the ends, whose support holds
        (0 +- 2 sqrt(2))/2: an irrational witness refutes only L."""
        g = path_graph(3)
        assert decide(g, ADJACENCY, 0, 2).yes
        witness = QuadraticEig(0, 2, 2)
        for kind in (ADJACENCY, SIGNLESS_LAPLACIAN):
            report = PSTReport(write_graph6(g), kind, 0, 2, NO,
                               Certificate(NON_INTEGER_SUPPORT, (witness,), "forged"))
            ok, why = replay_certificate(g, report)
            assert not ok and why == "only a Laplacian support must be integral", why
        real = decide(path_graph(4), LAPLACIAN, 0, 3)
        assert real.certificate.kind == NON_INTEGER_SUPPORT
        assert replay_certificate(path_graph(4), real)[0]

    def test_malformed_witnesses_refused_not_raised(self):
        g = cycle_graph(5)
        for witnesses in ((IntegerEig(2), IntegerEig(-1)), (QuadraticEig(-1, 1, 5),), ()):
            report = PSTReport(write_graph6(g), ADJACENCY, 0, 2, NO,
                               Certificate(MIXED_DELTA, witnesses, "forged"))
            ok, why = replay_certificate(g, report)
            assert not ok, why
        p7 = path_graph(7)
        # vertex 6 of FQGOW has a cubic factor of the residual of path:7 as its residual
        cubic = support_profile(parse_graph6("FQGOW"), LAPLACIAN, 6).residual
        assert cubic.divides(support_profile(p7, LAPLACIAN, 0).residual)
        for poly in (IntPolynomial((1, 0, 0, 2)), cubic * cubic):
            report = PSTReport(write_graph6(p7), LAPLACIAN, 0, 6, NO,
                               Certificate(RESIDUAL_FACTOR, (ResidualEig(poly),), "forged"))
            ok, why = replay_certificate(p7, report)
            assert not ok and "not monic and squarefree" in why, why
        dfw = parse_graph6("DFw")
        parity = laplacian_pst(dfw, 3, 4)
        assert parity.certificate.kind == PARITY_VIOLATION
        for claimed in ("neither", None):
            forged = replace(parity, certificate=replace(parity.certificate,
                                                          claimed_class=claimed))
            ok, why = replay_certificate(dfw, forged)
            assert not ok and why == f"witness is not {claimed}-classified", why

    def test_tampered_certificate_rejected(self):
        r = laplacian_pst(path_graph(4), 0, 1)
        assert r.verdict == "no"
        r.certificate.witnesses = (IntegerEig(99),)
        ok, _ = replay_certificate(path_graph(4), r)
        assert not ok

    def test_single_nonzero_rational_part_only_undecided_off_bipartite(self):
        """One witness (a + b sqrt(d))/2 with a != 0 replays only as an
        undecided verdict on a non-bipartite graph; a bipartite support is
        closed under negation, so it never has one rational part a != 0."""
        cases = ((path_graph(4), 0, 3, QuadraticEig(1, 1, 5), True),
                 (cycle_graph(5), 0, 1, QuadraticEig(-1, 1, 5), False))
        for g, u, v, witness, bipartite in cases:
            def forged(verdict):
                return PSTReport(write_graph6(g), ADJACENCY, u, v, verdict,
                                 Certificate(QUADRATIC_MIXED_A, (witness,), "forged"))
            ok, why = replay_certificate(g, forged(NO))
            assert not ok and "undecided, not negative" in why
            ok, why = replay_certificate(g, forged(UNDECIDED))
            assert ok == (not bipartite), why
            if bipartite:
                assert "bipartite" in why

    def test_forged_verdicts_rejected(self, corpus6):
        """A negative report replays only under its own verdict.  decide
        emits the one-witness a != 0 quadratic-mixed-a shape only as
        undecided, so every negative of corpus6, in each kind, is rejected
        when its verdict is changed to yes or to undecided."""
        forged = 0
        for g in corpus6:
            for kind in KINDS:
                for r in all_pair_reports(g, kind):
                    if r.verdict != NO:
                        continue
                    for verdict, name in ((YES, "positive"), (UNDECIDED, "undecided")):
                        ok, why = replay_certificate(g, replace(r, verdict=verdict))
                        assert not ok and why.endswith(f"is negative, not {name}"), (
                            r.graph6, kind, r.u, r.v, verdict, why)
                        forged += 1
        assert forged == 2 * 5784

    def test_report_for_another_graph_refused(self):
        """A report replays only against the graph it was made for: each of
        these confirms against its own graph, and the profiles of the other
        graph would confirm it too, but the graph6 words differ."""
        dfw = parse_graph6("DFw")
        sign = laplacian_pst(path_graph(4), 0, 1)
        parity = laplacian_pst(dfw, 3, 4)
        assert sign.certificate.kind == NOT_STRONGLY_COSPECTRAL
        assert parity.certificate.kind == PARITY_VIOLATION
        for report, own, other in ((sign, path_graph(4), cycle_graph(4)),
                                   (sign, path_graph(4), complete_graph(4)),
                                   (parity, dfw, path_graph(5))):
            assert replay_certificate(own, report)[0]
            ok, why = replay_certificate(other, report)
            assert not ok and why == "the report was made for another graph", why

    def test_missing_certificate_rejected(self):
        r = laplacian_pst(path_graph(4), 0, 1)
        r.certificate = None
        ok, why = replay_certificate(path_graph(4), r)
        assert not ok

    def test_quadratic_parity_violation(self):
        """The quadratic parity branch, in decide and in _parity_data.  Among
        the connected graphs on at most 8 vertices, in the adjacency and the
        signless kinds, only G@GWuK (3,4) in A reaches it.  Its plus class is
        {+-sqrt 2, +-2 sqrt 2} and its minus class {0}: rescaled by b/2 these
        are {+-1, +-2} and {0}, measured from 2 they are {4, 3, 1, 0} and
        {2}, so g = 1 and the plus-classified -sqrt 2 has an odd value."""
        g = parse_graph6("G@GWuK")
        r = decide(g, ADJACENCY, 3, 4)
        assert r.verdict == NO and r.certificate.kind == PARITY_VIOLATION
        assert r.certificate.detail == ("parity of the rescaled support disagrees "
                                        "with the sign class")
        assert r.certificate.witnesses == (QuadraticEig(0, -2, 2),)
        assert (r.certificate.gcd_value, r.certificate.claimed_class) == (1, "plus")
        assert set(r.plus_set) == {QuadraticEig(0, b, 2) for b in (-4, -2, 2, 4)}
        assert r.minus_set == (IntegerEig(0),)
        assert replay_certificate(g, r) == (True, "parity violation confirmed")
        forged = replace(r, certificate=replace(r.certificate, gcd_value=2))
        assert replay_certificate(g, forged) == (
            False, "gcd mismatch: recomputed 1, stored 2")


class TestReplayProjectionCount:
    """A replay reads only the projection signs its certificate needs: none
    for a certificate about the minimal polynomials alone, at most one, at
    the witness, for a not-strongly-cospectral certificate whose witness is
    integer or quadratic.  Counted by wrapping spectral.projection_sign
    where the replay and cospectrality_profile call it."""

    NO_PROJECTION = (RESIDUAL_FACTOR, NON_INTEGER_SUPPORT, MIXED_DELTA, QUADRATIC_MIXED_A)

    def test_projections_made_per_replay(self, corpus6, monkeypatch):
        made = []
        original = spectral.projection_sign

        def counting(pu, pv, eig):
            made.append(eig)
            return original(pu, pv, eig)

        monkeypatch.setattr(spectral, "projection_sign", counting)
        monkeypatch.setattr(harness, "projection_sign", counting)
        seen = Counter()
        for g in corpus6 + [path_graph(24), cycle_graph(24)]:
            for kind in KINDS:
                for r in all_pair_reports(g, kind):
                    if r.verdict == YES:
                        continue
                    cert, witness = r.certificate.kind, r.certificate.witnesses[0]
                    made.clear()
                    ok, why = replay_certificate(g, r)
                    assert ok, why
                    where = (r.graph6, kind, r.u, r.v, cert, made)
                    if cert in self.NO_PROJECTION:
                        assert made == [], where
                        seen[cert] += 1
                    elif cert == NOT_STRONGLY_COSPECTRAL and not isinstance(witness, ResidualEig):
                        assert len(made) <= 1 and set(made) <= {witness}, where
                        seen[type(witness).__name__] += 1
                        seen["sign tests"] += len(made)
        harness._cached_profile.cache_clear()
        assert set(seen) == {*self.NO_PROJECTION, "IntegerEig", "QuadraticEig", "sign tests"}, seen
        assert seen["sign tests"] == 1381 + 2446, seen  # integer, quadratic witnesses
        assert seen[RESIDUAL_FACTOR] >= 2 * 3 * 12, seen  # 12 per kind on path:24 and on cycle:24

    def test_witness_outside_both_supports_refused(self):
        """A not-strongly-cospectral witness in neither support is refused
        before any projection is asked for, so it cannot raise."""
        for g, kind, u, v in ((path_graph(4), LAPLACIAN, 0, 1), (path_graph(7), LAPLACIAN, 0, 6),
                              (cycle_graph(24), ADJACENCY, 0, 12)):
            for witness in (IntegerEig(99), QuadraticEig(0, 2, 7), QuadraticEig(1, -1, 5)):
                report = PSTReport(write_graph6(g), kind, u, v, NO,
                                   Certificate(NOT_STRONGLY_COSPECTRAL, (witness,), "forged"))
                assert replay_certificate(g, report) == (False, "witness outside both supports")


class TestCheckersNeverRaise:
    def test_malformed_reports_refused(self):
        """Both checkers answer (False, why) for a report whose vertices,
        kind or witnesses do not fit g, rather than raising."""
        cube, p4 = hypercube(2), path_graph(4)
        positive, negative = decide(cube, LAPLACIAN, 0, 3), decide(p4, LAPLACIAN, 0, 1)
        assert positive.yes and negative.certificate.kind == NOT_STRONGLY_COSPECTRAL
        shapes = (dict(v=7), dict(u=-1), dict(u=0, v=0), dict(v=1.0), dict(v="1"),
                  dict(matrix_kind="weird"), dict(matrix_kind=None))
        for changes in shapes:
            for check, g, r in ((verify_positive_report, cube, positive),
                                (replay_certificate, p4, negative)):
                ok, why = check(g, replace(r, **changes))
                assert not ok, (check.__name__, changes, why)
        disconnected = Graph(4, [(0, 1), (2, 3)])
        report = replace(negative, graph6=write_graph6(disconnected))
        for check in (verify_positive_report, replay_certificate):
            assert check(disconnected, report) == (False, "the graph is not connected")
        # delta 8 and 4 are not squarefree, 1 - 2 is odd, b = 0 is rational
        malformed = (QuadraticEig(0, 1, 8), QuadraticEig(0, 1, 4), QuadraticEig(1, 1, 2),
                     QuadraticEig(2, 0, 5), QuadraticEig(0, 2, -3), QuadraticEig(0, 2.0, 2),
                     IntegerEig(2.0), ResidualEig((1, 0, 1)), "x")
        good = QuadraticEig(0, 2, 2)
        for witness in malformed:
            for cert in (Certificate(NON_INTEGER_SUPPORT, (witness,)),
                         Certificate(MIXED_DELTA, (witness, good)),
                         Certificate(NOT_STRONGLY_COSPECTRAL, (witness,)),
                         Certificate(QUADRATIC_MIXED_A, (good, witness))):
                ok, why = replay_certificate(p4, replace(negative, certificate=cert))
                assert (ok, why) == (False, f"malformed witness {witness!r}"), (cert, why)
        # the ends of path:4 split 2 +- sqrt(2) into the L minus class, where
        # the L parity split assigns no value
        for witness in (QuadraticEig(4, 2, 2), QuadraticEig(4, -2, 2)):
            cert = Certificate(PARITY_VIOLATION, (witness,), gcd_value=2, claimed_class="minus")
            report = replace(negative, v=3, certificate=cert)
            assert replay_certificate(p4, report) == (False, "the witness has no parity value")
        for delta in (0, -1, 2.0):
            ok, why = verify_positive_report(cube, replace(positive, time_delta=delta))
            assert not ok and why.startswith("the transfer time is not"), (delta, why)
        dfw = parse_graph6("DFw")
        parity = decide(dfw, LAPLACIAN, 3, 4)
        assert parity.certificate.kind == PARITY_VIOLATION
        for claimed in (["plus"], None, "neither"):
            cert = replace(parity.certificate, claimed_class=claimed)
            ok, why = replay_certificate(dfw, replace(parity, certificate=cert))
            assert not ok, (claimed, why)

    def test_huge_delta_refused_before_factoring(self, monkeypatch):
        """A quadratic witness with b^2 delta above 4 rho^2 cannot be an
        eigenvalue of the graph, and is refused without factoring delta,
        whose trial division would run up to sqrt(delta): squarefree_part
        is never called on it."""
        calls = [0]
        inner = harness.squarefree_part

        def counted(n):
            calls[0] += 1
            return inner(n)

        monkeypatch.setattr(harness, "squarefree_part", counted)
        p4 = path_graph(4)
        negative = decide(p4, LAPLACIAN, 0, 1)
        witness = QuadraticEig(0, 2, 10 ** 14 + 31)
        for cert in (Certificate(NON_INTEGER_SUPPORT, (witness,)),
                     Certificate(NOT_STRONGLY_COSPECTRAL, (witness,)),
                     Certificate(MIXED_DELTA, (QuadraticEig(4, 2, 2), witness))):
            ok, why = replay_certificate(p4, replace(negative, certificate=cert))
            assert not ok, (cert, why)
        assert calls[0] == 1  # QuadraticEig(4, 2, 2) of the last certificate
        # a witness within the bound is still factored, and refused when
        # delta is not squarefree
        witness = QuadraticEig(0, 1, 12)
        cert = Certificate(NON_INTEGER_SUPPORT, (witness,))
        assert replay_certificate(p4, replace(negative, certificate=cert)) == (
            False, f"malformed witness {witness!r}")
        assert calls[0] == 2


class TestVerifyPositiveReport:
    def test_oracle_runs_without_lapack(self, monkeypatch):
        """The numeric oracle needs only matrix-vector products: with
        numpy's eigensolvers and SVD made to raise, the 5-cube's antipodal
        positive still verifies in every kind."""
        g = hypercube(5)
        reports = [decide(g, kind, 0, 31) for kind in KINDS]

        def refuse(*args, **kwargs):
            raise AssertionError("the numeric oracle called LAPACK")

        for name in ("eigh", "eigvalsh", "eig", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for r in reports:
            ok, why = verify_positive_report(g, r)
            assert ok, (r.matrix_kind, why)

    def test_reports_of_other_graphs_refused(self):
        """No positive report of a labelled connected 4-vertex graph
        verifies against another labelled connected 4-vertex graph, though
        a dozen such reports reach fidelity 1 on a graph that is not theirs."""
        graphs = [g for k in range(7) for edges in combinations(combinations(range(4), 2), k)
                  if (g := Graph(4, edges)).is_connected()]
        assert len(graphs) == 38
        positives = [(g, r) for g in graphs for kind in KINDS for r in pst_search(g, kind)]
        accepted = [(r.graph6, write_graph6(h), r.matrix_kind, r.u, r.v)
                    for g, r in positives for h in graphs
                    if h is not g and verify_positive_report(h, r)[0]]
        assert len(positives) == 24
        assert not accepted, accepted

    def test_malformed_reports_refused(self):
        """A report checked against a graph of another order, and a positive
        report without a transfer time, are refused instead of raising."""
        cube = hypercube(2)
        r = decide(cube, LAPLACIAN, 0, 3)
        assert r.yes
        assert verify_positive_report(path_graph(2), r) == (
            False, "the report was made for another graph")
        assert verify_positive_report(cube, replace(r, time_coeff=None)) == (
            False, "no transfer time on the positive report")


class TestModularRankLaw:
    def test_rank_drop_exactly_at_divisors(self, corpus6):
        checked = 0
        for g in corpus6:
            if not g.is_connected() or g.n < 2:
                continue
            tau = spanning_tree_count(g)
            lap = laplacian(g)
            for p in (3, 5, 7, 11, 13):
                r = rank_mod_p(lap, p)
                if tau % p == 0:
                    assert r < g.n - 1
                else:
                    assert r == g.n - 1
                checked += 1
        assert checked >= 700
