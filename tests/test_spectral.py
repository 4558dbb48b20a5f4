from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from pstlab import spectral
from pstlab.exactalg import (
    IntPolynomial,
    factor_support,
    poly_gcd,
    unit_vector,
    vector_minpoly,
)
from pstlab.generate import gen_connected_graphs, gen_free_trees
from pstlab.graphs import (
    Graph,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    hypercube,
    path_graph,
    star_graph,
)
from pstlab.spectral import (
    ADJACENCY,
    KINDS,
    LAPLACIAN,
    SIGNLESS_LAPLACIAN,
    IntegerEig,
    QuadraticEig,
    ResidualEig,
    classify_by_minpolys,
    cospectrality_profile,
    eigenvalue_bound,
    matrix_of,
    projection_sign,
    support_profile,
)

from oracles import (
    all_projections,
    eigenvalue_bound_by_order,
    exact_value,
    factor_support_brute,
    minpoly_split_is_cospectral,
    poly_from_roots,
    projection_lagrange,
    projection_relation,
    projection_sum,
    quad,
    residual_remainder,
    sign_class_annihilators,
)


def _bound_corpus():
    graphs = [g for n in range(1, 8) for g in gen_connected_graphs(n)]
    graphs += [t for n in range(1, 11) for t in gen_free_trees(n)]
    graphs += [path_graph(n) for n in range(1, 25)] + [cycle_graph(n) for n in range(3, 25)]
    graphs += [complete_graph(n) for n in range(1, 9)] + [hypercube(5)]
    return graphs


class TestEigenvalueBound:
    """The degree bound covers the spectrum and leaves every vertex's
    factorization as the order bound of the oracle gives it."""

    def test_covers_the_spectrum_and_keeps_factorizations(self):
        factored = {}
        for g in _bound_corpus():
            for kind in (LAPLACIAN, ADJACENCY, SIGNLESS_LAPLACIAN):
                bound = eigenvalue_bound(g, kind)
                order_bound = eigenvalue_bound_by_order(g, kind)
                m = matrix_of(g, kind)
                radius = max(abs(np.linalg.eigvalsh(np.array(m, dtype=float))))
                assert 1 <= bound <= order_bound and radius <= bound + 1e-9, (g, kind)
                for u in range(g.n):
                    q = vector_minpoly(m, unit_vector(g.n, u))
                    factored.setdefault((q, bound, order_bound), (g, kind, u))
        for (q, bound, order_bound), where in factored.items():
            assert factor_support(q, bound) == factor_support(q, order_bound), where
        assert len(factored) > 1000

    def test_covers_the_spectrum_of_every_family_at_its_test_sizes(self):
        """modular_minpolys takes its prime count from this bound, so it
        must hold on every built-in family at the orders the tests and the
        benchmark use, beyond the corpus above (which holds connected
        n <= 7)."""
        graphs = [path_graph(n) for n in range(1, 63)] + [cycle_graph(n) for n in range(3, 63)]
        graphs += [complete_graph(n) for n in range(1, 17)] + [star_graph(m) for m in range(1, 62)]
        graphs += [complete_minus_edge(n) for n in range(2, 17)] + [hypercube(k) for k in range(1, 6)]
        for g in graphs:
            for kind in KINDS:
                radius = max(abs(np.linalg.eigvalsh(np.array(matrix_of(g, kind), dtype=float))))
                assert radius <= eigenvalue_bound(g, kind) + 1e-9, (g.n, kind)


class TestSupportProfile:
    def test_p2_laplacian(self):
        prof = support_profile(path_graph(2), LAPLACIAN, 0)
        assert prof.support == [IntegerEig(0), IntegerEig(2)]
        assert all_projections(prof)[IntegerEig(0)] == [F(1, 2), F(1, 2)]
        assert all_projections(prof)[IntegerEig(2)] == [F(1, 2), F(-1, 2)]

    def test_c4_laplacian(self):
        prof = support_profile(cycle_graph(4), LAPLACIAN, 0)
        assert prof.support == [IntegerEig(0), IntegerEig(2), IntegerEig(4)]
        assert all_projections(prof)[IntegerEig(0)] == [F(1, 4)] * 4

    def test_p3_adjacency_endpoint(self):
        prof = support_profile(path_graph(3), ADJACENCY, 0)
        assert prof.support == [QuadraticEig(0, -2, 2), IntegerEig(0),
                                QuadraticEig(0, 2, 2)]
        assert all_projections(prof)[QuadraticEig(0, 2, 2)] == \
            [F(1, 4), quad(0, F(1, 4), 2), F(1, 4)]

    def test_laplacian_zero_projection_is_uniform(self, corpus6):
        for g in corpus6:
            if g.n < 2:
                continue
            prof = support_profile(g, LAPLACIAN, 0)
            assert all_projections(prof)[IntegerEig(0)] == [F(1, g.n)] * g.n

    def test_resolution_of_identity(self, corpus6):
        assertions = 0
        for g in corpus6:
            for kind in (LAPLACIAN, ADJACENCY):
                for u in range(g.n):
                    prof = support_profile(g, kind, u)
                    total = projection_sum(prof, g.n)
                    rem = residual_remainder(prof, g.n)
                    for i in range(g.n):
                        want = 1 if i == u else 0
                        assert total[i] + rem[i] == want
                        assertions += 1
        assert assertions >= 1000

    def test_projections_are_eigenvectors(self, corpus6):
        for g in corpus6[:80]:
            for kind in (LAPLACIAN, ADJACENCY, SIGNLESS_LAPLACIAN):
                m = matrix_of(g, kind)
                for u in range(g.n):
                    prof = support_profile(g, kind, u)
                    for eig, vec in all_projections(prof).items():
                        lam = exact_value(eig)
                        mv = [sum(m[i][j] * vec[j] for j in range(g.n))
                              for i in range(g.n)]
                        assert mv == [lam * x for x in vec]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            support_profile(Graph(3, [(0, 1)]), LAPLACIAN, 0)


def assert_profile_matches_lagrange(g, kind, u):
    """The two projection oracles, the Krylov basis and the Lagrange
    product, agree in value and entry type on the support of u, which is
    that of the brute-force factor search; returns the profile."""
    prof = support_profile(g, kind, u)
    m = matrix_of(g, kind)
    e_u = unit_vector(g.n, u)
    assert prof.support == factor_support_brute(vector_minpoly(m, e_u),
                                                eigenvalue_bound(g, kind))
    split = [e for e in prof.support if not isinstance(e, ResidualEig)]
    projections = all_projections(prof)
    assert list(projections) == split
    for eig in split:
        want = projection_lagrange(m, e_u, eig, [o for o in split if o != eig],
                                   prof.residual)
        got = projections[eig]
        assert got == want
        if g.n > 1:  # on K1 the Lagrange product is empty and returns e_u's ints
            assert [type(x) for x in got] == [type(x) for x in want]
    return prof


class TestKrylovProjectionAgainstLagrange:
    def test_small_corpus_all_kinds(self, corpus6):
        checked = 0
        for g in corpus6:
            for kind in (LAPLACIAN, ADJACENCY, SIGNLESS_LAPLACIAN):
                for u in range(g.n):
                    assert_profile_matches_lagrange(g, kind, u)
                    checked += 1
        assert checked >= 2400

    @pytest.mark.parametrize("kind", [LAPLACIAN, ADJACENCY])
    def test_two_fields_and_residual(self, kind):
        # path:11 (adjacency) and cycle:24 (both kinds) have supports with
        # sqrt(2) and sqrt(3) pairs beside a residual factor: the oracle's
        # foreign-field fold and residual division
        mixed = 0
        cases = [(path_graph(11), u) for u in range(11)] + [(cycle_graph(24), 0)]
        for g, u in cases:
            prof = assert_profile_matches_lagrange(g, kind, u)
            deltas = {e.delta for e in prof.support if isinstance(e, QuadraticEig)}
            mixed += deltas == {2, 3} and prof.residual is not None
        assert mixed >= 1


def _sign_corpus():
    graphs = [g for n in range(2, 7) for g in gen_connected_graphs(n)]
    graphs += [t for n in range(2, 11) for t in gen_free_trees(n)]
    return graphs + [path_graph(24), cycle_graph(24), hypercube(5), complete_graph(8)]


class TestProjectionSign:
    """The integer sign test against the sign relation of the exact
    projections over Q or Q(sqrt(d)) that it replaced (tests/oracles.py)."""

    def test_matches_exact_projections(self):
        # every pair of every graph, at every non-residual id in both supports
        cases, unequal = Counter(), 0
        for g in _sign_corpus():
            for kind in KINDS:
                profiles = [support_profile(g, kind, u) for u in range(g.n)]
                exact = [all_projections(p) for p in profiles]
                for u, v in combinations(range(g.n), 2):
                    pu, pv = profiles[u], profiles[v]
                    for eig in exact[u].keys() & exact[v].keys():
                        want = projection_relation(exact[u][eig], exact[v][eig])
                        assert projection_sign(pu, pv, eig) == want, (g, kind, u, v, eig)
                        cases[want] += 1
                        unequal += pu.minpoly != pv.minpoly
        # 71,443 cases, 21,755 of them on pairs whose minimal polynomials differ
        assert cases == {1: 26175, -1: 13340, 0: 31928} and unequal == 21755, (cases, unequal)

    def test_id_outside_a_support_raises(self):
        # the residual of path:7's end vertex is not in the middle vertex's support
        p7 = path_graph(7)
        pu, pv = (support_profile(p7, LAPLACIAN, u) for u in (0, 3))
        for eig in (IntegerEig(99), QuadraticEig(0, 2, 2), ResidualEig(pu.residual)):
            with pytest.raises(ValueError, match="not in both supports"):
                projection_sign(pu, pv, eig)


class TestCospectrality:
    def test_c4_antipodal(self):
        prof = cospectrality_profile(cycle_graph(4), LAPLACIAN, 0, 2)
        assert prof.strongly_cospectral
        assert prof.plus_set == [IntegerEig(0), IntegerEig(4)]
        assert prof.minus_set == [IntegerEig(2)]
        m = matrix_of(cycle_graph(4), LAPLACIAN)
        p_poly, q_poly, w_plus, w_minus = sign_class_annihilators(
            m, 0, 2, prof.plus_set, prof.minus_set)
        assert p_poly == poly_from_roots([0, 4])
        assert q_poly == IntPolynomial.x_minus(2)
        assert w_plus == [0, 0, 0, 0]
        assert w_minus == [0, 0, 0, 0]

    def test_p3_endpoints_adjacency(self):
        prof = cospectrality_profile(path_graph(3), ADJACENCY, 0, 2)
        assert prof.strongly_cospectral
        assert prof.plus_set == [QuadraticEig(0, -2, 2), QuadraticEig(0, 2, 2)]
        assert prof.minus_set == [IntegerEig(0)]

    def test_p4_near_pair_not_cospectral(self):
        prof = cospectrality_profile(path_graph(4), LAPLACIAN, 0, 1)
        assert not prof.strongly_cospectral
        assert prof.witness is not None

    def test_z_vectors_match_half_sum_identity(self, corpus6):
        checked = 0
        for g in corpus6:
            if g.n < 2:
                continue
            m = matrix_of(g, LAPLACIAN)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    prof = cospectrality_profile(g, LAPLACIAN, u, v)
                    if not prof.strongly_cospectral:
                        continue
                    p_poly, q_poly, w_plus, w_minus = sign_class_annihilators(
                        m, u, v, prof.plus_set, prof.minus_set)
                    assert poly_gcd(p_poly, q_poly) == IntPolynomial.one()
                    assert w_plus == [0] * g.n
                    assert w_minus == [0] * g.n
                    checked += 1
        assert checked >= 30

    def test_route_agreement_small_corpus(self, corpus6):
        for g in corpus6:
            if g.n < 2:
                continue
            m = matrix_of(g, LAPLACIAN)
            for u in range(g.n):
                mp_u = vector_minpoly(m, unit_vector(g.n, u))
                for v in range(u + 1, g.n):
                    prof = cospectrality_profile(g, LAPLACIAN, u, v)
                    pm, pp = classify_by_minpolys(g, LAPLACIAN, u, v)
                    split = minpoly_split_is_cospectral(pm, pp, mp_u)
                    assert prof.strongly_cospectral == split
                    if poly_gcd(pm, pp) == IntPolynomial.one():
                        # coprime halves always multiply to minpoly_u
                        assert pm * pp == mp_u

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            cospectrality_profile(path_graph(3), LAPLACIAN, 1, 1)

    @pytest.mark.parametrize("g,made", [(hypercube(5), 66), (cycle_graph(24), 53)],
                             ids=["hypercube:5", "cycle:24"])
    def test_one_sign_test_per_factor(self, g, made, monkeypatch):
        """A call count, not a timer: projection_sign decides a quadratic
        factor at both roots, so cospectrality_profile asks it once per
        factor.  Over the pairs (0, v), in each kind, the 5-cube (integer
        spectrum) takes 66 sign tests and cycle:24 takes 53; asking at both
        conjugates took 55 there, the antipodal pair's support holding two
        quadratic factors."""
        calls = []
        monkeypatch.setattr(spectral, "projection_sign",
                            lambda pu, pv, eig: calls.append(eig) or projection_sign(pu, pv, eig))
        for kind in KINDS:
            profiles = {u: support_profile(g, kind, u) for u in range(g.n)}
            total = 0
            for v in range(1, g.n):
                calls.clear()
                cospectrality_profile(g, kind, 0, v, profiles)
                assert len({eig.poly for eig in calls}) == len(calls), (kind, v, calls)
                total += len(calls)
            assert total == made, kind


class TestClassifyByMinpolys:
    def test_c4_antipodal(self):
        pm, pp = classify_by_minpolys(cycle_graph(4), LAPLACIAN, 0, 2)
        assert pm == IntPolynomial((-2, 1))
        assert pp == IntPolynomial((0, -4, 1))

    def test_p2(self):
        pm, pp = classify_by_minpolys(path_graph(2), LAPLACIAN, 0, 1)
        assert pm == IntPolynomial((-2, 1))
        assert pp == IntPolynomial((0, 1))

    def test_p4_near_pair_shares_root(self):
        from pstlab.exactalg import poly_gcd
        pm, pp = classify_by_minpolys(path_graph(4), LAPLACIAN, 0, 1)
        assert poly_gcd(pm, pp).degree >= 1

    def test_k4_minus_edge_adjacent_pair(self):
        from pstlab.exactalg import poly_gcd
        pm, pp = classify_by_minpolys(complete_minus_edge(4), LAPLACIAN, 2, 3)
        assert poly_gcd(pm, pp).degree >= 1

    def test_star_twin_pair(self):
        # leaves of K1,3 are twins but not strongly cospectral
        from pstlab.exactalg import poly_gcd
        pm, pp = classify_by_minpolys(star_graph(3), LAPLACIAN, 1, 2)
        assert pm == IntPolynomial((-1, 1))
        assert poly_gcd(pm, pp) == IntPolynomial((-1, 1))
