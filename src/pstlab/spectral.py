"""Per-vertex eigenvalue supports and strong-cospectrality classification.

For a symmetric integer matrix M attached to a graph, the support of a
vertex u is the set of eigenvalues whose eigenprojection keeps a component
of e_u; it equals the root set of the minimal polynomial q of e_u under M.
Whether E_theta e_u = +-E_theta e_v is decided in integers, per irreducible
factor f of the two minimal polynomials, by comparing r(M) e_u with
r(M) e_v for r = (q_u/f)(q_v/f), each made inside the Krylov space of its
vertex; no projection is ever made and no full eigendecomposition either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .exactalg import (
    EigenvalueId,
    IntegerEig,
    IntPolynomial,
    QuadraticEig,
    ResidualEig,
    factor_support,
    krylov_minpoly,
    krylov_vectors,
    mat_vec,
    poly_gcd,
    unit_vector,
    vector_minpoly,
)
from .graphs import Graph, adjacency, laplacian, signless_laplacian

LAPLACIAN = "laplacian"
ADJACENCY = "adjacency"
SIGNLESS_LAPLACIAN = "signless_laplacian"
KINDS = (LAPLACIAN, ADJACENCY, SIGNLESS_LAPLACIAN)


def matrix_of(g: Graph, kind: str) -> list[list[int]]:
    if kind == LAPLACIAN:
        return laplacian(g)
    if kind == ADJACENCY:
        return adjacency(g)
    if kind == SIGNLESS_LAPLACIAN:
        return signless_laplacian(g)
    raise ValueError(f"unknown matrix kind {kind!r}")


def eigenvalue_bound(g: Graph, kind: str) -> int:
    """Integer bound, at least 1, on |eigenvalue| for the chosen matrix.

    Gershgorin puts every eigenvalue of L and of Q in [0, 2 maxdeg], and
    lambda_max(L) <= n besides; Perron-Frobenius bounds |eigenvalue| of A
    by its spectral radius, at most maxdeg.  factor_support's quadratic
    search grows with the cube of the bound, so a sparse graph pays for
    its degree rather than its order."""
    maxdeg = max(g.degree(u) for u in range(g.n))
    if kind == LAPLACIAN:
        return max(min(g.n, 2 * maxdeg), 1)
    if kind == ADJACENCY:
        return max(maxdeg, 1)
    if kind == SIGNLESS_LAPLACIAN:
        return max(2 * maxdeg, 1)
    raise ValueError(f"unknown matrix kind {kind!r}")


@dataclass
class SupportProfile:
    matrix_kind: str
    u: int
    minpoly: IntPolynomial
    support: list  # EigenvalueId, sorted ascending, residual last
    residual: Optional[IntPolynomial]  # None when the support splits fully
    krylov_rows: list = field(repr=False)  # row i holds (M^j e_u)_i for j < deg minpoly

    def image(self, r: IntPolynomial) -> list[int]:
        """r(M) e_u, from r mod the minimal polynomial and the kept Krylov
        vectors."""
        return mat_vec(self.krylov_rows, r.pseudo_divmod(self.minpoly)[1].coeffs)


def projection_sign(pu: SupportProfile, pv: SupportProfile, eig: EigenvalueId) -> int:
    """1 when E_theta e_u = E_theta e_v at every root theta of eig's monic
    polynomial f, -1 when E_theta e_u = -E_theta e_v at each, else 0;
    ValueError unless f divides the minimal polynomials of e_u and e_v.

    r = (q_u/f)(q_v/f) vanishes at every other root of q_u and of q_v and,
    both being squarefree, at no root of f.  So r(M) e_u and r(M) e_v are
    the components of e_u and e_v at f's roots, each scaled by the same
    r(theta), and since those components lie in distinct eigenspaces, one
    comparison of the two images decides the relation at every root of f.
    """
    f = eig.poly
    (cu, ru), (cv, rv) = pu.minpoly.pseudo_divmod(f), pv.minpoly.pseudo_divmod(f)
    if not (ru.is_zero() and rv.is_zero()):
        raise ValueError(f"{eig} is not in both supports")
    r = cu * cv
    image_u, image_v = pu.image(r), pv.image(r)
    if image_u == image_v:
        return 1
    if image_u == [-x for x in image_v]:
        return -1
    return 0


def support_profile(g: Graph, kind: str, u: int) -> SupportProfile:
    """Exact eigenvalue support of vertex u.

    The profile keeps the integer Krylov vectors M^j e_u, j < deg q, where
    q is the minimal polynomial of e_u, so that p(M) e_u costs no matrix
    product for any integer polynomial p (SupportProfile.image); its row u
    holds the closed walk counts (M^j)_uu that walks_differ_at reads.  A
    residual factor (degree >= 3, no integer or quadratic roots) is
    flagged.  q is factored once per distinct (q, eigenvalue bound) over
    all profiles, and each profile gets its own copy of the support list.
    """
    if not g.is_connected():
        raise ValueError("support_profile requires a connected graph")
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range")
    krylov = [unit_vector(g.n, u)]
    q = krylov_minpoly(krylov_vectors(matrix_of(g, kind), krylov))  # M^j e_u, j <= deg q
    ids = list(_factored_support(q, eigenvalue_bound(g, kind)))  # no list shared between profiles
    residual = ids[-1].poly if isinstance(ids[-1], ResidualEig) else None
    return SupportProfile(kind, u, q, ids, residual, list(zip(*krylov[:q.degree])))


@lru_cache(maxsize=100_000)
def _factored_support(q: IntPolynomial, bound: int) -> tuple:
    """factor_support(q, bound), made once per distinct polynomial and
    bound: most vertices share their minimal polynomial with another
    vertex of the same graph or of another graph."""
    return tuple(factor_support(q, bound))


def walks_differ_at(pu: SupportProfile, pv: SupportProfile, w: IntPolynomial) -> bool:
    """True when the closed walk counts at u and at v, projected onto the
    roots of w, differ; w is monic, squarefree and divides q_u q_v, the
    product of the minimal polynomials of e_u and e_v.

    phi_u(p) = e_u^T p(M) e_u = sum_j (p mod q_u)_j (M^j)_uu, and the walk
    counts (M^j)_uu, j < deg q_u, are row u of u's Krylov rows, so phi_u
    costs no matrix product.  H = lcm(q_u, q_v)/w is nonzero at every root
    theta of w (the lcm is squarefree) and zero at every other root of q_u
    and of q_v, so phi_u(x^k H) - phi_v(x^k H) is the sum over the roots
    theta of w of theta^k H(theta) (|E_theta e_u|^2 - |E_theta e_v|^2).
    A nonzero difference for some k names a root of w where
    E_theta e_u != +-E_theta e_v; all deg w of them zero (a Vandermonde
    system) means the two norms agree at every root of w.
    """
    qu, qv = pu.minpoly, pv.minpoly
    lcm = qu if qu == qv else qu * qv.pseudo_divmod(poly_gcd(qu, qv))[0]
    h = lcm.pseudo_divmod(w)[0]

    def projected_walks(p: SupportProfile) -> list[int]:
        q, walks = p.minpoly.coeffs, p.krylov_rows[p.u]
        r = list(h.pseudo_divmod(p.minpoly)[1].coeffs)
        r += [0] * (len(walks) - len(r))  # x^k H mod q, k = 0
        out = []
        for _ in range(w.degree):
            out.append(sum(a * b for a, b in zip(r, walks)))
            top = r.pop()  # times x, then x^deg q = -(q - x^deg q), q monic
            r.insert(0, 0)
            for j in range(len(r)):
                r[j] -= top * q[j]
        return out

    return projected_walks(pu) != projected_walks(pv)


@dataclass
class CospectralityProfile:
    strongly_cospectral: bool
    witness: Optional[EigenvalueId]  # None when strongly cospectral
    plus_set: list
    minus_set: list


def classify_by_minpolys(g: Graph, kind: str, u: int, v: int):
    """Minimal polynomials of e_u - e_v and e_u + e_v.

    Their root sets are the eigenvalues whose projections of e_u and e_v
    differ, respectively do not cancel; u and v are strongly cospectral
    exactly when the two are coprime and multiply to the minimal polynomial
    of e_u.
    """
    if u == v:
        raise ValueError("classify_by_minpolys requires u != v")
    m = matrix_of(g, kind)
    e_u, e_v = unit_vector(g.n, u), unit_vector(g.n, v)
    return (vector_minpoly(m, [a - b for a, b in zip(e_u, e_v)]),
            vector_minpoly(m, [a + b for a, b in zip(e_u, e_v)]))


def cospectrality_profile(g: Graph, kind: str, u: int, v: int,
                          profiles: Optional[dict] = None) -> CospectralityProfile:
    """Exact plus/minus classification of the common support of u and v.

    Every eigenvalue where the projections of e_u and e_v are equal lands in
    plus_set, negated ones in minus_set; any other relation certifies that
    the pair is not strongly cospectral, with the witness eigenvalue kept.
    Residual factors are classified through the minimal polynomials of
    e_u -+ e_v, splitting into plus and minus parts when both occur.
    Callers scanning many pairs may pass precomputed support profiles keyed
    by vertex.  projection_sign decides a quadratic factor at both of its
    roots, so each factor's sign is made once and read for both conjugates.
    """
    if not g.is_connected():
        raise ValueError("cospectrality_profile requires a connected graph")
    if u == v:
        raise ValueError("cospectrality_profile requires u != v")
    if profiles is not None:
        pu, pv = profiles[u], profiles[v]
    else:
        pu = support_profile(g, kind, u)
        pv = support_profile(g, kind, v)

    def not_cospectral(witness):
        return CospectralityProfile(False, witness, [], [])

    set_u = set(pu.support)
    set_v = set(pv.support)
    if set_u != set_v:
        witness = sorted(set_u.symmetric_difference(set_v),
                         key=lambda e: e.sort_key())[0]
        return not_cospectral(witness)

    plus, minus = [], []
    signs: dict[IntPolynomial, int] = {}  # a quadratic's conjugate shares its poly
    for eig in pu.support:
        if isinstance(eig, ResidualEig):
            continue
        sign = signs.get(eig.poly)
        if sign is None:
            sign = signs[eig.poly] = projection_sign(pu, pv, eig)
        if sign == 1:
            plus.append(eig)
        elif sign == -1:
            minus.append(eig)
        else:
            return not_cospectral(eig)

    if pu.residual is not None:
        rr = pu.residual
        poly_minus, poly_plus = classify_by_minpolys(g, kind, u, v)
        r_minus = poly_gcd(rr, poly_minus)
        r_plus = poly_gcd(rr, poly_plus)
        if r_minus * r_plus != rr:
            return not_cospectral(ResidualEig(rr))
        if r_plus.degree >= 1:
            plus.append(ResidualEig(r_plus))
        if r_minus.degree >= 1:
            minus.append(ResidualEig(r_minus))

    return CospectralityProfile(True, None, plus, minus)
