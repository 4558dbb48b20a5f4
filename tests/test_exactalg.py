import ast
import inspect
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from pstlab.exactalg import (
    IntegerEig,
    IntPolynomial,
    QuadraticEig,
    ResidualEig,
    charpoly,
    det_bareiss,
    factor_support,
    krylov_minpoly,
    krylov_vectors,
    mat_vec,
    modular_minpolys,
    poly_gcd,
    squarefree_part,
    sturm_count,
    unit_vector,
    vector_minpoly,
)
from pstlab import exactalg
from pstlab.graphs import (
    adjacency,
    complete_graph,
    cycle_graph,
    laplacian,
    path_graph,
)
from pstlab.spectral import (
    ADJACENCY,
    KINDS,
    LAPLACIAN,
    classify_by_minpolys,
    eigenvalue_bound,
    matrix_of,
)

from oracles import (
    QuadExt,
    det_cofactor,
    factor_support_brute,
    krylov_minpoly_two_loop,
    poly_from_roots,
    poly_gcd_fraction,
    quad,
    rank_mod_p,
    reconstruct_factorization,
    spanning_trees_brute,
    split_ids,
    sturm_count_fraction,
)


def minor0(m):
    return [row[1:] for row in m[1:]]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class TestDetBareiss:
    def test_identity(self):
        assert det_bareiss(identity(3)) == 1

    def test_c4_reduced_laplacian(self):
        assert det_bareiss(minor0(laplacian(cycle_graph(4)))) == 4
        assert spanning_trees_brute(cycle_graph(4)) == 4

    def test_k4_reduced_laplacian(self):
        assert det_bareiss(minor0(laplacian(complete_graph(4)))) == 16
        assert spanning_trees_brute(complete_graph(4)) == 16

    def test_empty_and_singular(self):
        assert det_bareiss([]) == 1
        assert det_bareiss([[1, 2], [2, 4]]) == 0

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_cofactor_expansion(self, rows):
        assert det_bareiss(rows) == det_cofactor(rows)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_bareiss([[1, 2, 3], [4, 5, 6]])


class TestCharpoly:
    def test_p2_laplacian(self):
        assert charpoly(laplacian(path_graph(2))) == IntPolynomial((0, -2, 1))

    def test_p3_adjacency(self):
        assert charpoly(adjacency(path_graph(3))) == IntPolynomial((0, -2, 0, 1))

    def test_c4_laplacian(self):
        # eigenvalues 0, 2, 2, 4
        assert charpoly(laplacian(cycle_graph(4))) == IntPolynomial((0, -16, 20, -8, 1))

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_matches_determinant(self, rows):
        p = charpoly(rows)
        for k in range(-2, 4):
            shifted = [[(k if i == j else 0) - rows[i][j] for j in range(4)]
                       for i in range(4)]
            assert p(k) == det_bareiss(shifted)


class TestVectorMinpoly:
    def test_p2_unit_vector(self):
        assert vector_minpoly(laplacian(path_graph(2)), [1, 0]) == IntPolynomial((0, -2, 1))

    def test_c4_unit_vector_collapses_multiplicity(self):
        # eigenvalues in the support: 0, 2, 4
        assert vector_minpoly(laplacian(cycle_graph(4)), [1, 0, 0, 0]) == \
            IntPolynomial((0, 8, -6, 1))

    def test_eigenvector_gives_linear_polynomial(self):
        m = laplacian(path_graph(2))
        assert vector_minpoly(m, [1, -1]) == IntPolynomial((-2, 1))

    def test_zero_vector(self):
        assert vector_minpoly(laplacian(path_graph(3)), [0, 0, 0]) == IntPolynomial.one()

    def test_divides_charpoly(self, corpus6):
        checked = 0
        for g in corpus6:
            if g.n < 2:
                continue
            m = laplacian(g)
            p = charpoly(m)
            for u in range(g.n):
                e = [1 if i == u else 0 for i in range(g.n)]
                mp = vector_minpoly(m, e)
                q, r = p.pseudo_divmod(mp)
                assert r.is_zero()
                checked += 1
        assert checked > 400

    def test_matches_two_loop_elimination(self, corpus6):
        """krylov_minpoly against the elimination that reduces each
        combination apart from its vector, on every e_u and e_u -+ e_v of
        corpus6 in every kind, and of path:11 and cycle:24."""
        def powers(m, v):
            while True:
                yield v
                v = mat_vec(m, v)

        checked = 0
        for g in list(corpus6) + [path_graph(11), cycle_graph(24)]:
            units = [unit_vector(g.n, u) for u in range(g.n)]
            starts = units + [[a + sign * b for a, b in zip(units[u], units[v])]
                              for u in range(g.n) for v in range(u + 1, g.n)
                              for sign in (-1, 1)]
            for kind in KINDS:
                m = matrix_of(g, kind)
                for start in starts:
                    assert (krylov_minpoly(powers(m, start))
                            == krylov_minpoly_two_loop(powers(m, start))), (g.n, kind, start)
                    checked += 1
        assert checked == 3 * (810 + 2 * 1933 + 11 + 2 * 55 + 24 + 2 * 276)

    def test_fraction_input_rejected(self):
        with pytest.raises(ValueError):
            vector_minpoly([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], [1, 0])
        with pytest.raises(ValueError):
            vector_minpoly(identity(2), [F(1), 0])


class TestModularMinpolys:
    """The multi-modular kernel against vector_minpoly.  The differential
    tests over whole corpora, through decide's context, are in test_pst."""

    @staticmethod
    def _pair_vectors(n):
        units = [unit_vector(n, u) for u in range(n)]
        return units + [[a + sign * b for a, b in zip(units[u], units[v])]
                        for u in range(n) for v in range(u + 1, n) for sign in (-1, 1)]

    def test_small_cases(self):
        m = laplacian(path_graph(2))
        assert modular_minpolys(m, [[1, -1], [1, 1], [1, 0], [0, 0]], 2) == [
            IntPolynomial((-2, 1)), IntPolynomial((0, 1)), IntPolynomial((0, -2, 1)),
            IntPolynomial.one()]

    def test_matches_vector_minpoly_on_families(self):
        checked = 0
        for g in (path_graph(11), cycle_graph(9), complete_graph(8)):
            vectors = self._pair_vectors(g.n)
            for kind in KINDS:
                m = matrix_of(g, kind)
                got = modular_minpolys(m, vectors, eigenvalue_bound(g, kind))
                assert got == [vector_minpoly(m, w) for w in vectors], (g.n, kind)
                checked += len(got)
        assert checked == 3 * (11 + 110 + 9 + 72 + 8 + 56)

    def test_wide_entries_take_python_ints(self):
        """2000 L(P7) has Krylov entries and coefficients past 2^62, so
        the walks, the CRT and the exact check all leave int64."""
        m = [[2000 * x for x in row] for row in laplacian(path_graph(7))]
        vectors = self._pair_vectors(7)
        got = modular_minpolys(m, vectors, 8000)
        assert got == [vector_minpoly(m, w) for w in vectors]
        assert max(abs(c) for q in got for c in q.coeffs) > 2 ** 62

    def test_primes_pinned(self):
        """A literal tuple of distinct primes below 2^26, each with
        63 p^2 < 2^63, so a sum of 63 residue products fits int64."""
        assign = next(node for node in ast.parse(inspect.getsource(exactalg)).body
                      if isinstance(node, ast.Assign)
                      and any(getattr(t, "id", None) == "_PRIMES" for t in node.targets))
        assert isinstance(assign.value, ast.Tuple)
        assert all(isinstance(e, ast.Constant) for e in assign.value.elts)
        primes = exactalg._PRIMES
        assert len(set(primes)) == len(primes) >= 2
        for p in primes:
            assert p < 2 ** 26 and 63 * p * p < 2 ** 63
            assert all(p % d for d in range(2, math.isqrt(p) + 1)), p


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


class TestKrylovVectors:
    """The one Krylov sequence behind vector_minpoly, support_profile and
    the decider's spectral context, against M^j v read off explicit
    integer matrix powers M^j."""

    def test_matches_explicit_matrix_powers(self, corpus6):
        checked = 0
        for g in list(corpus6) + [path_graph(24)]:
            for kind in KINDS:
                m = matrix_of(g, kind)
                powers = [identity(g.n)]
                for _ in range(g.n):
                    powers.append(_mat_mul(powers[-1], m))
                units = [unit_vector(g.n, u) for u in range(g.n)]
                starts = units + [[a + sign * b for a, b in zip(units[0], units[-1])]
                                  for sign in (-1, 1) if g.n > 1]
                for start in starts:
                    want = [_dense_mat_vec(p, start) for p in powers]
                    vectors = [start]
                    assert [v for _, v in zip(want, krylov_vectors(m, vectors))] == want
                    assert vectors == want
                    checked += 1
        assert checked == 3 * (810 + 2 * 142 + 26)

    def test_extends_lazily_and_reuses_what_it_made(self):
        m = laplacian(path_graph(24))
        vectors = [unit_vector(24, 0)]
        first = krylov_vectors(m, vectors)
        drawn = [next(first) for _ in range(5)]
        assert len(vectors) == 5
        again = [next(krylov_vectors(m, vectors)) for _ in range(1)]
        assert again[0] is drawn[0]
        second = krylov_vectors(m, vectors)
        assert all(next(second) is v for v in drawn) and len(vectors) == 5
        assert next(second) == mat_vec(m, drawn[-1]) and len(vectors) == 6
        assert next(first) is vectors[5]


class TestFactorSupport:
    def test_integer_only(self):
        ids = factor_support(IntPolynomial((0, -2, 1)), 2)
        assert [e for e in ids if isinstance(e, IntegerEig)] == [IntegerEig(0), IntegerEig(2)]
        assert not any(isinstance(e, QuadraticEig) for e in ids)
        assert not any(isinstance(e, ResidualEig) for e in ids)

    def test_pure_quadratic_pair(self):
        # x^3 - 2x = x (x^2 - 2): roots 0 and +/- sqrt(2) = (0 +/- 2 sqrt(2))/2
        ids = factor_support(IntPolynomial((0, -2, 0, 1)), 2)
        assert [e for e in ids if isinstance(e, IntegerEig)] == [IntegerEig(0)]
        assert [e for e in ids if isinstance(e, QuadraticEig)] == [
            QuadraticEig(0, -2, 2), QuadraticEig(0, 2, 2)]
        assert not any(isinstance(e, ResidualEig) for e in ids)

    def test_irreducible_cubic_stays_residual(self):
        p = IntPolynomial((1, -3, -1, 1))
        ids = factor_support(p, 3)
        assert not any(isinstance(e, IntegerEig) for e in ids)
        assert not any(isinstance(e, QuadraticEig) for e in ids)
        assert ids == [ResidualEig(p)]

    def test_golden_ratio_pair(self):
        # x^2 - x - 1: roots (1 +/- sqrt(5))/2
        ids = factor_support(IntPolynomial((-1, -1, 1)), 2)
        assert ids == [QuadraticEig(1, -1, 5), QuadraticEig(1, 1, 5)]

    def test_ids_sorted_by_value_residual_last(self):
        # x (x^2 - 2) (x^3 - 3x - 1): 0, +/- sqrt(2), and a residual cubic
        cubic = IntPolynomial((-1, -3, 0, 1))
        ids = factor_support(IntPolynomial((0, -2, 0, 1)) * cubic, 2)
        assert ids == [QuadraticEig(0, -2, 2), IntegerEig(0), QuadraticEig(0, 2, 2),
                       ResidualEig(cubic)]

    def test_reconstruction(self, corpus6):
        for g in corpus6:
            if g.n < 2:
                continue
            m = laplacian(g)
            for u in range(g.n):
                e = [1 if i == u else 0 for i in range(g.n)]
                p = vector_minpoly(m, e)
                assert reconstruct_factorization(factor_support(p, g.n)) == p

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            factor_support(IntPolynomial((0, 2)), 5)

    def test_rejects_repeated_roots(self):
        with pytest.raises(ValueError):
            factor_support(IntPolynomial((1, 2, 1)), 5)


@pytest.fixture(scope="module")
def corpus6_support_polys(corpus6):
    """(minimal polynomial, eigenvalue bound) of every vertex and both
    classify_by_minpolys polynomials of every pair of corpus6, both kinds."""
    polys = set()
    for g in corpus6:
        for kind in (LAPLACIAN, ADJACENCY):
            m = matrix_of(g, kind)
            bound = eigenvalue_bound(g, kind)
            for u in range(g.n):
                e = [1 if i == u else 0 for i in range(g.n)]
                polys.add((vector_minpoly(m, e), bound))
                for v in range(u + 1, g.n):
                    for p in classify_by_minpolys(g, kind, u, v):
                        polys.add((p, bound))
    return sorted(polys, key=lambda pb: (pb[0].coeffs, pb[1]))


def _quadratic_box(bound):
    """Irreducible x^2 - s x + t with both roots in [-bound, bound]."""
    return [(s, t) for s in range(-2 * bound, 2 * bound + 1)
            for t in range(abs(s) * bound - bound * bound, (s * s - 1) // 4 + 1)
            if math.isqrt(s * s - 4 * t) ** 2 != s * s - 4 * t]


def _has_integer_root(cubic):
    c0 = cubic.coeffs[0]
    return c0 == 0 or any(cubic(r) == 0 for d in range(1, abs(c0) + 1)
                          if c0 % d == 0 for r in (d, -d))


@st.composite
def split_polynomials(draw):
    """(p, bound, integer roots, (s, t) quadratics, residual) for a product
    of distinct x - r, distinct irreducible x^2 - s x + t with roots in
    [-bound, bound], and optionally an irreducible cubic."""
    bound = draw(st.integers(2, 6))
    roots = draw(st.lists(st.integers(-bound, bound), unique=True, max_size=4))
    quads = draw(st.lists(st.sampled_from(_quadratic_box(bound)),
                          unique=True, max_size=3))
    cubic = draw(st.none() | st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                                       st.integers(-5, 5))
                 .map(lambda c: IntPolynomial(c + (1,)))
                 .filter(lambda c: not _has_integer_root(c)))
    residual = cubic or IntPolynomial.one()
    p = poly_from_roots(roots) * residual
    for s, t in quads:
        p = p * IntPolynomial((t, -s, 1))
    return p, bound, roots, quads, residual


class TestFactorSearchOracle:
    """The divisor-pruned quadratic search against plain trial division."""

    def test_matches_brute_force_on_corpus6(self, corpus6_support_polys):
        assert len(corpus6_support_polys) > 100
        for p, bound in corpus6_support_polys:
            fast = factor_support(p, bound)
            slow = factor_support_brute(p, bound)
            assert fast == slow, p

    def test_matches_sympy_on_corpus6(self, corpus6_support_polys):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for p, bound in corpus6_support_polys:
            _, factors = sympy.factor_list(
                sum(c * x ** i for i, c in enumerate(p.coeffs)))
            box = set(_quadratic_box(bound))
            ints, quads, rest = [], [], IntPolynomial.one()
            for f, mult in factors:
                assert mult == 1
                cs = [int(c) for c in reversed(sympy.Poly(f, x).all_coeffs())]
                if cs[-1] < 0:
                    cs = [-c for c in cs]
                if len(cs) == 2 and abs(cs[0]) <= bound:
                    ints.append(-cs[0])
                elif len(cs) == 3 and (-cs[1], cs[0]) in box:
                    s, t = -cs[1], cs[0]
                    quads.append((s, *squarefree_part(s * s - 4 * t)))
                else:
                    rest = rest * IntPolynomial(cs)
            assert factor_support(p, bound) == split_ids(ints, quads, rest), p

    @given(split_polynomials())
    @settings(max_examples=150, deadline=None)
    def test_constructed_products(self, case):
        p, bound, roots, quads, residual = case
        ids = factor_support(p, bound)
        assert ids == split_ids(roots, [(s, *squarefree_part(s * s - 4 * t))
                                        for s, t in quads], residual)
        assert reconstruct_factorization(ids) == p

    def test_id_polynomials_split_the_support(self, corpus6_support_polys):
        """Each id's poly is its monic minimal polynomial: x - c, the
        quadratic shared by a conjugate pair, or the residual itself; one
        of each multiplies back to p, as the oracle's reconstruction does."""
        for p, bound in corpus6_support_polys:
            ids = factor_support(p, bound)
            polys = {e.poly for e in ids}
            assert all(f.is_monic() and f.divides(p) for f in polys), p
            product = IntPolynomial.one()
            for f in polys:
                product = product * f
            assert product == reconstruct_factorization(ids) == p


def _dense_mat_vec(m, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


class TestMatVec:
    MATRICES = (
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[2, -1, 0], [0, 0, 0], [0, -1, 1]],
        [row[:3] for row in laplacian(path_graph(4))[:3]],
        [row[:3] for row in adjacency(cycle_graph(4))[:3]],
    )
    VECTORS = (
        [1, 0, -3],
        [F(1, 2), F(0), F(-2, 3)],
        [quad(1, 1, 2), F(0), quad(F(1, 3), -2, 2)],
        [quad(0, 1, 5), quad(2, -1, 5), 0],
    )

    def test_matches_dense_formula(self):
        for m in self.MATRICES:
            for v in self.VECTORS:
                sparse, dense = mat_vec(m, v), _dense_mat_vec(m, v)
                assert sparse == dense
                assert all(a == b and b == a for a, b in zip(sparse, dense))

    @given(st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)),
                             min_size=5, max_size=5), min_size=5, max_size=5),
           st.lists(st.fractions(max_denominator=7), min_size=5, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_random_sparse_matrices(self, m, v):
        assert mat_vec(m, v) == _dense_mat_vec(m, v)


class TestRankModP:
    def test_p3_laplacian_mod_3(self):
        assert rank_mod_p(laplacian(path_graph(3)), 3) == 2

    def test_c3_laplacian_mod_3(self):
        # 3 divides the spanning-tree count 3, so the rank drops
        assert rank_mod_p(laplacian(cycle_graph(3)), 3) == 1

    def test_zero_matrix(self):
        assert rank_mod_p([[0] * 3 for _ in range(3)], 5) == 0

    def test_rejects_even_or_composite(self):
        for p in (2, 9, 1):
            with pytest.raises(ValueError):
                rank_mod_p(identity(2), p)


class TestQuadExt:
    def test_norm_product(self):
        x = quad(3, 2, 5)
        assert x * QuadExt(x.a, -x.b, x.d) == F(9 - 4 * 5)

    @given(st.fractions(max_denominator=20), st.fractions(max_denominator=20))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_norm_is_rational(self, p, q):
        x = quad(p, q, 7)
        y = x * (QuadExt(p, -q, 7) if q != 0 else F(p))
        assert y == p * p - q * q * 7

    def test_zero_b_normalizes_to_fraction(self):
        assert isinstance(quad(3, 0, 5), F)
        assert quad(F(1, 2), 0, 3) == F(1, 2)

    def test_mixed_delta_rejected(self):
        with pytest.raises(ValueError):
            quad(0, 1, 2) + quad(0, 1, 3)

    def test_non_squarefree_delta_rejected(self):
        with pytest.raises(ValueError):
            quad(0, 1, 8)

    def test_division(self):
        a = quad(1, 1, 2)
        b = quad(3, -1, 2)
        assert (a / b) * b == a

    def test_rational_over_quadratic(self):
        assert 1 / quad(0, 1, 2) == quad(0, F(1, 2), 2)
        assert F(3) / quad(1, 1, 2) == quad(-3, 3, 2)

    def test_fraction_interop(self):
        x = quad(1, 2, 3)
        assert F(1, 2) + x == quad(F(3, 2), 2, 3)
        assert F(1, 2) - x == quad(F(-1, 2), -2, 3)
        assert (x - x) == 0

    def test_int_operands_keep_fraction_parts(self):
        # equality alone would let a float part through (0.5 == F(1, 2))
        x = quad(1, 1, 2)
        for y in (x / 3, 3 / x, x * 2, 2 * x, x + 1, 1 - x, x / F(1, 3)):
            assert isinstance(y, QuadExt)
            assert type(y.a) is F and type(y.b) is F, y
        assert x / 3 == quad(F(1, 3), F(1, 3), 2)
        assert 3 / x == quad(-3, 3, 2)
        for op in (lambda a, b: a * b, lambda a, b: a / b, lambda a, b: a - b):
            with pytest.raises(ValueError):
                op(x, quad(0, 1, 3))


class TestPolynomialHelpers:
    def test_gcd(self):
        a = poly_from_roots([1, 2, 3])
        b = poly_from_roots([2, 3, 4])
        assert poly_gcd(a, b) == poly_from_roots([2, 3])

    def test_gcd_coprime(self):
        assert poly_gcd(IntPolynomial((1, 1)), IntPolynomial((2, 1))) == IntPolynomial.one()

    def test_sturm_counts(self):
        p = poly_from_roots([-3, 1, 4])
        assert sturm_count(p, F(-10), F(10)) == 3
        assert sturm_count(p, F(0), F(10)) == 2
        assert sturm_count(p, F(2), F(3)) == 0
        # repeated roots still counted once
        sq = poly_from_roots([1, 1, 5])
        assert sturm_count(sq, F(0), F(10)) == 2

    def test_squarefree_part(self):
        assert squarefree_part(8) == (2, 2)
        assert squarefree_part(1) == (1, 1)
        assert squarefree_part(45) == (3, 5)
        assert squarefree_part(49) == (7, 1)


# distinct factors over Z: integer roots (and two non-monic linear factors),
# irreducible quadratics, and cubics without a rational root
_FACTORS = (
    [IntPolynomial.x_minus(r) for r in range(-4, 5)]
    + [IntPolynomial((1, 2)), IntPolynomial((-2, 3))]
    + [IntPolynomial(c) for c in ((-2, 0, 1), (-1, -1, 1), (1, 0, 1), (1, 1, 1),
                                   (1, -3, 1), (1, -4, 1), (-3, 0, 2))]
    + [IntPolynomial(c) for c in ((-2, 0, 0, 1), (-1, -1, 0, 1), (-1, -3, 0, 1),
                                   (-1, -2, 1, 1))]
)


def _product(factors) -> IntPolynomial:
    p = IntPolynomial.one()
    for f in factors:
        p = p * f
    return p


@st.composite
def _products(draw, common=IntPolynomial.one()):
    """scale * common * a product of distinct factors, one of them
    sometimes squared."""
    factors = draw(st.lists(st.sampled_from(_FACTORS), unique=True, max_size=3))
    if factors and draw(st.booleans()):
        factors.append(factors[0])
    scale = draw(st.sampled_from((1, 1, -1, 2, -6)))
    return IntPolynomial((scale,)) * common * _product(factors)


@st.composite
def _pairs(draw):
    """Two products sharing a random common factor; either may be zero."""
    common = _product(draw(st.lists(st.sampled_from(_FACTORS), unique=True, max_size=2)))
    a, b = draw(_products(common)), draw(_products(common))
    zero = draw(st.sampled_from(("", "", "", "", "", "a", "b", "ab")))
    return (IntPolynomial.zero() if "a" in zero else a,
            IntPolynomial.zero() if "b" in zero else b)


_ENDPOINTS = st.one_of(st.integers(-12, 12),
                       st.fractions(min_value=-12, max_value=12, max_denominator=9))


class TestEuclidAgainstFractionOracle:
    @given(_pairs())
    @settings(max_examples=200, deadline=None)
    def test_pseudo_division_identity(self, pair):
        a, b = pair
        assume(not b.is_zero())
        q, r = a.pseudo_divmod(b)
        k = max(a.degree - b.degree + 1, 0)
        assert IntPolynomial((abs(b.coeffs[-1]) ** k,)) * a == q * b + r
        assert r.degree < b.degree

    @given(_pairs())
    @settings(max_examples=200, deadline=None)
    def test_gcd(self, pair):
        a, b = pair
        assert poly_gcd(a, b) == poly_gcd_fraction(a, b)

    @given(_products(), _ENDPOINTS, _ENDPOINTS)
    @settings(max_examples=200, deadline=None)
    def test_sturm_count(self, p, lo, hi):
        assume(p(lo) != 0 and p(hi) != 0)
        lo, hi = min(lo, hi), max(lo, hi)
        assert sturm_count(p, lo, hi) == sturm_count_fraction(p, F(lo), F(hi))
