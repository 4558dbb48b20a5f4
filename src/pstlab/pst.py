"""Exact perfect-state-transfer decisions for the walks of spectral.KINDS.

A pair (u, v) admits perfect state transfer under exp(itM) exactly when
u, v are strongly cospectral, the support eigenvalues have the right
algebraic form, and the plus/minus classification matches a parity split
of the (rescaled) integer support.  Positive verdicts carry the transfer
time and phase; negative verdicts carry one machine-checkable certificate
naming the violated condition.  A floating-point matrix-exponential
oracle cross-checks positives but never decides anything.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactalg import (
    IntegerEig,
    IntPolynomial,
    QuadraticEig,
    ResidualEig,
    factor_support,
    krylov_minpoly,
    krylov_vectors,
    modular_minpolys,
    poly_gcd,
    unit_vector,
)
from .generate import _CHUNK_ENTRIES
from .graphs import Graph, write_graph6
from .spectral import ADJACENCY, KINDS, LAPLACIAN, eigenvalue_bound, matrix_of

YES = "yes"
NO = "no"
UNDECIDED = "undecided"

# certificate kinds for negative verdicts
NOT_STRONGLY_COSPECTRAL = "not-strongly-cospectral"
NON_INTEGER_SUPPORT = "non-integer-support"
PARITY_VIOLATION = "parity-violation"
MIXED_DELTA = "mixed-delta"
RESIDUAL_FACTOR = "residual-factor"
QUADRATIC_MIXED_A = "quadratic-mixed-a"


@dataclass
class Certificate:
    """Why perfect state transfer fails, with enough data to replay."""
    kind: str
    witnesses: tuple = ()
    detail: str = ""
    poly_minus: Optional[IntPolynomial] = None
    poly_plus: Optional[IntPolynomial] = None
    minpoly_u: Optional[IntPolynomial] = None
    gcd_value: Optional[int] = None
    claimed_class: Optional[str] = None

    def to_json(self):
        out = {"kind": self.kind, "detail": self.detail,
               "witnesses": [w.to_json() for w in self.witnesses]}
        if self.gcd_value is not None:
            out["g"] = self.gcd_value
        if self.claimed_class is not None:
            out["class"] = self.claimed_class
        for name, poly in (("poly_minus", self.poly_minus),
                           ("poly_plus", self.poly_plus),
                           ("minpoly_u", self.minpoly_u)):
            if poly is not None:
                out[name] = list(poly.coeffs)
        return out


@dataclass
class PSTReport:
    """Full decision record for one ordered query (u, v)."""
    graph6: str
    matrix_kind: str
    u: int
    v: int
    verdict: str
    certificate: Optional[Certificate] = None
    g: Optional[int] = None
    time_coeff: Optional[Fraction] = None   # t = time_coeff * pi / sqrt(time_delta)
    time_delta: int = 1
    phase_s: Optional[Fraction] = None      # gamma = exp(i * pi * phase_s)
    plus_set: tuple = ()
    minus_set: tuple = ()

    @property
    def yes(self) -> bool:
        return self.verdict == YES

    def time_value(self) -> float:
        if self.time_coeff is None:
            raise ValueError("no transfer time on a non-positive report")
        return float(self.time_coeff) * math.pi / math.sqrt(self.time_delta)

    def to_json(self):
        return {
            "graph6": self.graph6,
            "kind": self.matrix_kind,
            "u": self.u,
            "v": self.v,
            "verdict": self.verdict,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "g": self.g,
            "time": (None if self.time_coeff is None else {
                "num": self.time_coeff.numerator,
                "den": self.time_coeff.denominator,
                "sqrt_delta": self.time_delta,
            }),
            "phase": (None if self.phase_s is None else {
                "s_num": self.phase_s.numerator,
                "s_den": self.phase_s.denominator,
            }),
            "plus_set": [e.to_json() for e in self.plus_set],
            "minus_set": [e.to_json() for e in self.minus_set],
        }


def _validate_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")


def _validate_pair(g: Graph, u: int, v: int) -> None:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertex pair ({u},{v}) out of range")
    if u == v:
        raise ValueError("perfect state transfer queries need u != v")


class _SpectralContext:
    """What decide reuses across the pairs of one graph and kind: the
    matrix, the graph6 word, the eigenvalue bound, the minimal polynomials
    of e_u, e_u - e_v and e_u + e_v of every vertex and pair, the Krylov
    vectors M^j e_u of a vertex whose polynomials need the fraction-free
    route, and every eigenvalue id of the factorization of each distinct
    minimal polynomial of a vertex, each computed on first use.  This is
    the one place decide factors anything.  Building one checks that g is
    connected, once per graph and kind rather than once per pair."""

    def __init__(self, g: Graph, kind: str):
        if not g.is_connected():
            raise ValueError("perfect state transfer analysis rejects disconnected graphs")
        self.matrix = matrix_of(g, kind)
        self.graph6 = write_graph6(g)
        self.bound = eigenvalue_bound(g, kind)
        self._krylov = [[unit_vector(g.n, u)] for u in range(g.n)]
        self._minpolys: dict[int, IntPolynomial] = {}
        self._pairs: Optional[dict] = None
        self._support_ids: dict[IntPolynomial, tuple] = {}

    def krylov(self, u: int):
        """M^j e_u for j = 0, 1, ..., each product made once and kept."""
        return krylov_vectors(self.matrix, self._krylov[u])

    def minpoly(self, u: int) -> IntPolynomial:
        """Minimal polynomial of e_u: from the graph's one elimination
        (_batch) where it certified one, else from the fraction-free
        elimination of the Krylov vectors of e_u."""
        self._batch()
        if u not in self._minpolys:
            self._minpolys[u] = krylov_minpoly(self.krylov(u))
        return self._minpolys[u]

    def pair_minpolys(self, u: int, v: int):
        """Minimal polynomials of e_u - e_v and e_u + e_v (those of e_v - e_u
        and e_v + e_u too), looked up in the graph's one elimination
        (_batch).  A polynomial that route leaves out comes from the
        fraction-free elimination of the differences or sums of the Krylov
        vectors of e_u and e_v."""
        self._batch()
        minus, plus = self._pairs.get((min(u, v), max(u, v)), (None, None))
        if minus is None:
            minus = krylov_minpoly([a - b for a, b in zip(ku, kv)]
                                   for ku, kv in zip(self.krylov(u), self.krylov(v)))
        if plus is None:
            plus = krylov_minpoly([a + b for a, b in zip(ku, kv)]
                                  for ku, kv in zip(self.krylov(u), self.krylov(v)))
        return minus, plus

    def _batch(self) -> None:
        """At the first query, one modular_minpolys call over the (n^2, n)
        stack of the 2 C(n, 2) pair vectors e_u -+ e_v (u < v) and the n
        unit vectors e_u: _pairs maps (u, v) to (minus, plus), with None
        where it certified none, and _minpolys takes every certified e_u.
        Nothing is eliminated when that (n^2, n + 1, n) Krylov stack exceeds
        _CHUNK_ENTRIES (n > 11): one query would then pay for every pair of
        a big graph, while a single fraction-free elimination stays cheap
        there."""
        if self._pairs is not None:
            return
        self._pairs = {}
        n = len(self.matrix)
        if n ** 3 * (n + 1) > _CHUNK_ENTRIES:
            return
        us, vs = np.triu_indices(n, 1)
        eye = np.eye(n, dtype=np.int64)
        stack = np.concatenate([eye[us] - eye[vs], eye[us] + eye[vs], eye])
        polys = modular_minpolys(self.matrix, stack, self.bound)
        pairs = len(us)
        self._pairs = dict(zip(zip(us.tolist(), vs.tolist()),
                               zip(polys[:pairs], polys[pairs:2 * pairs])))
        self._minpolys = {u: p for u, p in enumerate(polys[2 * pairs:]) if p is not None}

    def support_ids(self, u: int) -> tuple:
        """Every id of factor_support(minpoly of e_u), sorted, residual last;
        made once per distinct polynomial, so vertices that share a minimal
        polynomial share its factorization."""
        p = self.minpoly(u)
        if p not in self._support_ids:
            self._support_ids[p] = tuple(factor_support(p, self.bound))
        return self._support_ids[p]


@functools.lru_cache(maxsize=8)
def _context(g: Graph, kind: str) -> _SpectralContext:
    return _SpectralContext(g, kind)


def _is_root(eig, poly: IntPolynomial) -> bool:
    if isinstance(eig, IntegerEig):
        return poly(eig.value) == 0
    return eig.poly.divides(poly)


def _ids_of(poly: IntPolynomial, ids: tuple) -> tuple:
    """factor_support(poly)'s ids from the sorted ids of a squarefree multiple:
    poly's integer and quadratic roots, then its gcd with the residual."""
    out = tuple(e for e in ids if not isinstance(e, ResidualEig) and _is_root(e, poly))
    if isinstance(ids[-1], ResidualEig) and (rest := poly_gcd(ids[-1].poly, poly)).degree >= 1:
        out += (ResidualEig(rest),)
    return out


def _cospectrality_gate(ctx: _SpectralContext, u: int, v: int,
                        poly_minus, poly_plus, minpoly_u):
    """None when strongly cospectral, else a certificate with a witness
    eigenvalue taken from the shared factor.

    Coprimality suffices: wherever E e_u or E e_v is nonzero, exactly one of
    E (e_u - e_v) and E (e_u + e_v) then is, so E e_u = +-E e_v != 0 there
    and poly_minus * poly_plus is already minpoly_u.

    The witness is the least id of factor_support(shared), found without
    factoring shared: shared divides lcm(minpoly_u, minpoly_v), so each of
    its integer roots and irreducible quadratic factors is one of u or v,
    and factor_support finds all of those within the bound.  The first
    such id of u or v that is a root of shared is therefore the first id
    of shared; with none, shared is all residual."""
    shared = poly_gcd(poly_minus, poly_plus)
    if shared == IntPolynomial.one():
        return None
    candidates = sorted({e for w in (u, v) for e in ctx.support_ids(w)
                         if not isinstance(e, ResidualEig)}, key=lambda e: e.sort_key())
    witness = next((e for e in candidates if _is_root(e, shared)), ResidualEig(shared))
    return Certificate(NOT_STRONGLY_COSPECTRAL, (witness,),
                       "projections at the witness match neither sign",
                       poly_minus, poly_plus, minpoly_u)


def decide(g: Graph, kind: str, u: int, v: int) -> PSTReport:
    """Decide perfect state transfer between u and v under exp(itM), where M
    is the Laplacian L, the adjacency matrix A or the signless Laplacian
    Q = D + A of g (spectral.KINDS).

    After the strong-cospectrality gate, the decision cascades on the
    algebraic form of the support: residual factors are immediate
    negatives; L supports must be integers; A and Q supports must be
    integers or pure multiples b sqrt(delta)/2 of one sqrt(delta), with
    mixed extensions and mixed rational parts as negatives, and one
    rational part a != 0, (a +- b sqrt(delta))/2, undecided.  Each support
    value c (b/2 for b sqrt(delta)/2) is then measured from the reference
    value r whose eigenvalue Perron-Frobenius puts in the plus class: 0 =
    min for L, and max for A and Q, nonnegative and irreducible on a
    connected graph.  Yes requires (|c - r|/g) even on the plus class and
    odd on the minus class, g the gcd of all |c - r|; the transfer then
    happens at t = pi/(g sqrt(delta)) with phase exp(i pi r/g).

    Undecided never happens on a bipartite graph.  With D = diag(+-1) by
    colour class, D A D = -A, so an A support is closed under negation and
    a != 0 brings -a along; Q = D L D, so Q verdicts are L verdicts and 0
    (eigenvector D 1) is in every Q support.  Either way a != 0 is refused
    as quadratic-mixed-a first.  Off bipartite graphs A and Q can be
    undecided.

    The pairs of one graph and kind share a _SpectralContext, kept for the
    last few (graph, kind) pairs, so a pair factors nothing (see
    _cospectrality_gate and _ids_of): factor_support runs once per distinct
    minimal polynomial of a vertex.  On a graph of at most 11 vertices the
    pair's two polynomials and that of e_u come from one elimination of
    every pair and unit vector of the graph, made at the first query.  The
    context holds only what the graph and kind determine, so it cannot
    change an answer.
    """
    _validate_kind(kind)
    _validate_pair(g, u, v)
    ctx = _context(g, kind)
    g6 = ctx.graph6
    poly_minus, poly_plus = ctx.pair_minpolys(u, v)
    minpoly_u = ctx.minpoly(u)
    cert = _cospectrality_gate(ctx, u, v, poly_minus, poly_plus, minpoly_u)
    if cert is not None:
        return PSTReport(g6, kind, u, v, NO, cert)
    plus_ids, minus_ids = (_ids_of(p, ctx.support_ids(u)) for p in (poly_plus, poly_minus))

    def refuse(cert_kind, witnesses, detail, verdict=NO, **kw):
        return PSTReport(g6, kind, u, v, verdict,
                         Certificate(cert_kind, tuple(witnesses), detail,
                                     poly_minus, poly_plus, minpoly_u, **kw),
                         plus_set=plus_ids, minus_set=minus_ids)

    if residuals := [e for e in plus_ids + minus_ids if isinstance(e, ResidualEig)]:
        return refuse(RESIDUAL_FACTOR, residuals[:1],
                      "support contains non-quadratic irrational eigenvalues")

    classified = [(e, True) for e in plus_ids] + [(e, False) for e in minus_ids]
    quad_ids = [e for e, _ in classified if isinstance(e, QuadraticEig)]
    delta = 1
    if quad_ids:
        if kind == LAPLACIAN:
            return refuse(NON_INTEGER_SUPPORT, quad_ids[:1],
                          "support contains an irrational eigenvalue")
        deltas = sorted({e.delta for e in quad_ids})
        if len(deltas) > 1:
            w1 = next(e for e in quad_ids if e.delta == deltas[0])
            w2 = next(e for e in quad_ids if e.delta == deltas[1])
            return refuse(MIXED_DELTA, (w1, w2),
                          "support spans two distinct quadratic extensions")
        a_values = sorted({e.a for e in quad_ids})
        if len(a_values) > 1:
            w1 = next(e for e in quad_ids if e.a == a_values[0])
            w2 = next(e for e in quad_ids if e.a == a_values[1])
            return refuse(QUADRATIC_MIXED_A, (w1, w2),
                          "quadratic support eigenvalues with two rational parts")
        a = a_values[0]
        bad_int = [e for e, _ in classified
                   if isinstance(e, IntegerEig) and 2 * e.value != a]
        if bad_int:
            return refuse(QUADRATIC_MIXED_A, (bad_int[0], quad_ids[0]),
                          "integer eigenvalue off the common rational part of the support")
        if a != 0:
            return refuse(QUADRATIC_MIXED_A, (quad_ids[0],),
                          "no decision procedure for quadratic supports with "
                          "nonzero rational part on non-bipartite graphs",
                          verdict=UNDECIDED)
        if any(e.b % 2 for e in quad_ids):
            raise AssertionError("algebraic integer b*sqrt(delta)/2 with odd b")
        delta = deltas[0]

    # b sqrt(delta)/2 is measured by b/2 and any integer beside it is 0, so
    # the values keep the spectral order and min/max pick the reference
    values = [(e, e.b // 2 if isinstance(e, QuadraticEig) else e.value, is_plus)
              for e, is_plus in classified]
    ref = (min if kind == LAPLACIAN else max)(c for _, c, _ in values)
    gg = math.gcd(*(abs(c - ref) for _, c, _ in values))
    if gg == 0:
        raise AssertionError("strongly cospectral pair with singleton support")
    for e, c, is_plus in values:
        if (abs(c - ref) // gg) % 2 != (0 if is_plus else 1):
            if kind == LAPLACIAN:
                detail = ("plus-classified eigenvalue with odd lambda/g" if is_plus
                          else "minus-classified eigenvalue with even lambda/g")
            elif quad_ids:
                detail = "parity of the rescaled support disagrees with the sign class"
            else:
                detail = "parity of (theta0 - theta)/g disagrees with the sign class"
            return refuse(PARITY_VIOLATION, (e,), detail, gcd_value=gg,
                          claimed_class="plus" if is_plus else "minus")
    return PSTReport(g6, kind, u, v, YES, None, gg, Fraction(1, gg), delta,
                     Fraction(ref, gg) % 2, plus_ids, minus_ids)


def laplacian_pst(g: Graph, u: int, v: int) -> PSTReport:
    """Decide Laplacian perfect state transfer between u and v (see decide)."""
    return decide(g, LAPLACIAN, u, v)


def adjacency_pst(g: Graph, u: int, v: int) -> PSTReport:
    """Decide adjacency perfect state transfer between u and v (see decide)."""
    return decide(g, ADJACENCY, u, v)


def pst_search(g: Graph, kind: str) -> list[PSTReport]:
    """Scan all unordered vertex pairs; returns the positive reports."""
    return [r for r in all_pair_reports(g, kind) if r.yes]


def all_pair_reports(g: Graph, kind: str) -> list[PSTReport]:
    """Decision record for every unordered pair, positive or not."""
    _validate_kind(kind)
    return [decide(g, kind, u, v) for u in range(g.n) for v in range(u + 1, g.n)]


def numeric_fidelity(g: Graph, kind: str, u: int, v: int, t: float) -> float:
    """|exp(itM)_{v,u}|^2 in floating point; the cross-check oracle.

    Only the column exp(itM) e_u is formed, by the Taylor method of Al-Mohy
    and Higham (Computing the action of the matrix exponential, SIAM J. Sci.
    Comput. 33, 2011): max(1, ceil(|t| ||M||_1)) steps of length h, so that
    ||hM||_1 <= 1, each summing the series through (ihM)^18 / 18!.  The
    truncation leaves a relative error of about 1/19! per step, far below
    double precision.  The work is real products M @ x on the real and
    imaginary parts; no LAPACK call runs, so no BLAS worker thread wakes.
    """
    m = np.array(matrix_of(g, kind), dtype=float)
    steps = max(1, math.ceil(abs(t) * np.abs(m).sum(axis=0).max()))
    h = t / steps
    re, im = np.zeros(g.n), np.zeros(g.n)
    re[u] = 1.0
    for _ in range(steps):
        term_re, term_im = re, im
        for k in range(1, 19):
            # (ihM/k)(a + ib) = -(h/k) M b + i (h/k) M a
            term_re, term_im = (-h / k) * (m @ term_im), (h / k) * (m @ term_re)
            re, im = re + term_re, im + term_im
    return float(re[v] ** 2 + im[v] ** 2)
