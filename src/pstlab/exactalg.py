"""Exact integer and rational linear algebra.

Everything in this module is exact: matrices are dense lists of rows over
Python ints or Fractions, and polynomials carry arbitrary-precision integer
coefficients.  No floating point anywhere.  Two kernels work on whole
numpy stacks, each in int64 only where a bound proves it exact and in
Python ints otherwise: semidefinite_pivots eliminates a stack of
same-size integer matrices, and modular_minpolys finds the minimal
polynomials of a stack of vectors under one matrix mod a few primes,
lifts them by CRT and certifies each over the integers, leaving
krylov_minpoly for any it cannot certify.  Polynomial Euclid (gcd,
Sturm chains) stays in Z[x]: one sign-preserving pseudo-division, with
each remainder divided by its content, so no rational coefficients
arise.
The Krylov sequence v, m v, m^2 v, ... is drawn through one lazy walk, and
factor_support names the roots it splits off by eigenvalue ids, each with
its monic integer polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np


def squarefree_part(n: int) -> tuple[int, int]:
    """Split n > 0 as b^2 * d with d squarefree; returns (b, d)."""
    if n <= 0:
        raise ValueError("squarefree_part requires n > 0")
    b, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            b *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return b, d * n


class IntPolynomial:
    """Univariate polynomial with integer coefficients, stored ascending.

    Normalized so the leading coefficient is nonzero; the zero polynomial
    has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    @classmethod
    def _of(cls, cs: list[int]) -> "IntPolynomial":
        """The polynomial of cs, a list of Python ints that this module's
        arithmetic made; trims trailing zeros, skips the int() copy."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls._of([])

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls._of([1])

    @classmethod
    def x_minus(cls, root: int) -> "IntPolynomial":
        return cls((-root, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial._of(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial._of(out)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial._of(out)

    def pseudo_divmod(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Sign-preserving pseudo-division: (q, r) with |lc|^k * self =
        q * divisor + r and deg r < deg divisor, where lc is the divisor's
        leading coefficient and k = max(deg self - deg divisor + 1, 0).
        Stays in Z[x]; a monic divisor gives plain division with remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dd, lead = divisor.degree, divisor.coeffs[-1]
        k = max(self.degree - dd + 1, 0)
        scale = abs(lead) ** k
        rem = [scale * c for c in self.coeffs]
        q = [0] * k
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                c //= lead  # exact: the remainder keeps a factor lead^(steps left)
                q[i - dd] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[i - dd + j] -= c * b
        return IntPolynomial._of(q), IntPolynomial._of(rem)

    def divides(self, other: "IntPolynomial") -> bool:
        if self.is_zero():
            return other.is_zero()
        if not self.is_monic():
            raise ValueError("divisibility test implemented for monic divisors")
        _, r = other.pseudo_divmod(self)
        return r.is_zero()

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial._of([i * c for i, c in enumerate(self.coeffs) if i > 0])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        if self.is_zero():
            return self
        c = self.content()
        if self.coeffs[-1] < 0:
            c = -c
        return IntPolynomial._of([x // c for x in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "IntPolynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "IntPolynomial(" + " + ".join(terms) + ")"


# -- Euclid in Z[x]: primitive polynomial remainder sequences ---------------

def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor in Z[x], primitive with a positive leading
    coefficient, by the primitive remainder sequence (Collins 1967)."""
    while not b.is_zero():
        a, b = b, a.pseudo_divmod(b)[1].primitive()
    return a.primitive()


def _sign_at(p: IntPolynomial, x) -> int:
    """Sign of p at an int or Fraction x = n/d, from the integer d^deg p(n/d)."""
    n, d = x.numerator, x.denominator
    acc, dpow = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * n + c * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def sturm_count(p: IntPolynomial, lo: Union[int, Fraction],
                hi: Union[int, Fraction]) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Requires p(lo) != 0 and p(hi) != 0.  The chain p, p', and
    -prem(p_{k-1}, p_k) / content has positive multiples of the rational
    Sturm chain's members, so the sign variations are the same.
    """
    if p.is_zero():
        raise ValueError("sturm_count of the zero polynomial")
    if not _sign_at(p, lo) or not _sign_at(p, hi):
        raise ValueError("sturm_count endpoints must not be roots")
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        r = chain[-2].pseudo_divmod(chain[-1])[1]
        h = r.content() or 1
        chain.append(IntPolynomial._of([-x // h for x in r.coeffs]))
    chain.pop()

    def variations(x):
        signs = [s for s in (_sign_at(poly, x) for poly in chain) if s]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(lo) - variations(hi)


# -- matrices: dense lists of rows over int / Fraction -----------------------

def mat_vec(m, v):
    """m v, skipping the zero entries of m (graph matrices are sparse)."""
    return [sum(a * x for a, x in zip(row, v) if a) for row in m]


def unit_vector(n: int, i: int) -> list[int]:
    e = [0] * n
    e[i] = 1
    return e


def _check_square(m) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = _check_square(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def semidefinite_pivots(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fraction-free symmetric elimination of a (B, n, n) stack of
    symmetric integer matrices, all at once.

    Returns three length-B arrays: whether each matrix is positive
    semidefinite, whether it is singular (read it only for a semidefinite
    one), and its last positive pivot, which is its determinant when it is
    semidefinite and nonsingular.  Pivots are taken in natural order.  A
    positive pivot eliminates its row and column, dividing exactly by the
    last positive pivot (Bareiss), so every entry left is a minor of the
    matrix.  A negative pivot rules semidefiniteness out, and so does a
    zero pivot unless its remaining row is zero (a semidefinite matrix
    with a zero diagonal entry has a zero row there): that index is
    skipped, and the matrix is singular.

    With P the product over a matrix's rows of max(1, squared row norm),
    Hadamard bounds every minor by sqrt(P) and every intermediate by 2P,
    so the stack runs in int64 when P < 2^62 for each of its matrices and
    in Python ints (dtype object) otherwise.  (R^2)^n, R^2 the largest
    squared row norm, bounds every P and decides most stacks alone.
    """
    a = np.asarray(mats)
    n = a.shape[-1]
    if a.dtype == object or int(abs(a).max(initial=0)) ** 2 * n >= 2 ** 63:
        a = a.astype(object)
    r2 = np.maximum((a * a).sum(axis=-1), 1)
    narrow = (int(r2.max(initial=1)) ** n < 2 ** 62
              or int(np.prod(r2.astype(object), axis=-1).max(initial=1)) < 2 ** 62)
    a = a.astype(np.int64 if narrow else object)
    semidefinite = np.ones(len(a), dtype=bool)
    singular = np.zeros(len(a), dtype=bool)
    prev = np.ones(len(a), dtype=a.dtype)
    for _ in range(n):
        p, row, rest = a[:, 0, 0], a[:, 0, 1:], a[:, 1:, 1:]
        positive, zero = p > 0, p == 0
        semidefinite &= positive | zero & ~(row != 0).any(axis=1)
        singular |= zero
        step = (p[:, None, None] * rest - row[:, :, None] * row[:, None, :]) // prev[:, None, None]
        a = np.where(positive[:, None, None], step, rest)
        prev = np.where(positive, p, prev)
    return semidefinite, singular, prev


def charpoly(m: Sequence[Sequence[int]]) -> IntPolynomial:
    """det(xI - m) by the Berkowitz division-free recursion.

    Exact over the integers; no rational intermediates.
    """
    n = _check_square(m)
    c = [1]  # descending coefficients for the leading 0x0 block
    for r in range(1, n + 1):
        a_rr = m[r - 1][r - 1]
        q = [1, -a_rr]
        if r >= 2:
            row = [m[r - 1][j] for j in range(r - 1)]
            w = [m[i][r - 1] for i in range(r - 1)]
            q.append(-sum(row[j] * w[j] for j in range(r - 1)))
            for _ in range(3, r + 1):
                w = [sum(m[i][j] * w[j] for j in range(r - 1)) for i in range(r - 1)]
                q.append(-sum(row[j] * w[j] for j in range(r - 1)))
        c_new = [0] * (r + 1)
        for i in range(r + 1):
            acc = 0
            for j in range(min(i, len(c) - 1) + 1):
                acc += q[i - j] * c[j]
            c_new[i] = acc
        c = c_new
    return IntPolynomial(reversed(c))


def vector_minpoly(m, v) -> IntPolynomial:
    """Least-degree monic polynomial p with p(m) v = 0, as a primitive
    integer polynomial, by fraction-free Krylov elimination.

    For symmetric integer m the result is monic over Z and its roots are
    exactly the eigenvalues whose eigenprojection keeps a component of v.
    The zero vector returns the constant 1.  m and v must hold ints;
    anything else raises ValueError.
    """
    n = _check_square(m)
    if len(v) != n:
        raise ValueError("vector length does not match matrix")
    if not (all(isinstance(x, int) for row in m for x in row)
            and all(isinstance(x, int) for x in v)):
        raise ValueError("vector_minpoly requires an integer matrix and vector")
    return krylov_minpoly(krylov_vectors(m, [v]))


def krylov_vectors(m, vectors: list):
    """v, m v, m^2 v, ... for vectors = [v] or any longer prefix of that
    sequence: each product is made on its first draw and appended to
    vectors, so a later walk over the same list makes none again."""
    j = 0
    while True:
        if j == len(vectors):
            vectors.append(mat_vec(m, vectors[-1]))
        yield vectors[j]
        j += 1


def krylov_minpoly(vectors) -> IntPolynomial:
    """Minimal polynomial of v under m from its integer Krylov vectors
    v, m v, m^2 v, ..., by fraction-free elimination.

    The vectors are drawn one at a time and the drawing stops at the first
    one that depends on those before it, so a lazy iterable is never read
    past degree + 1 vectors.  The zero vector returns the constant 1.
    """
    # a row is a reduced vector, then its combination of the (at most n + 1) draws
    basis: list[tuple[int, list[int]]] = []  # (pivot, row)
    for k, vec in enumerate(vectors):
        n = len(vec)
        row = list(vec) + [0] * (n + 1)
        row[n + k] = 1
        for pivot, brow in basis:
            if row[pivot]:
                g = math.gcd(row[pivot], brow[pivot])
                mul_r, mul_b = brow[pivot] // g, row[pivot] // g
                row = [mul_r * x - mul_b * y for x, y in zip(row, brow)]
        if not any(row[:n]):
            poly = IntPolynomial(row[n:]).primitive()
            if not poly.is_monic():
                raise AssertionError("minimal polynomial failed to be monic")
            return poly
        g = math.gcd(*row)
        if g > 1:
            row = [x // g for x in row]
        pivot = next(i for i, x in enumerate(row) if x)
        basis.append((pivot, row))
    raise ValueError("Krylov vectors ran out before a linear dependency")


# primes below 2^26, largest first: a product of two residues stays below
# 2^52, so int64 holds every step of the elimination, and 63 such products
# sum below 2^63, so it would hold a residue matrix product at any graph6 order
_PRIMES = (67108859, 67108837, 67108819, 67108777, 67108763, 67108757, 67108753, 67108747)


def modular_minpolys(m, vectors, root_bound: int) -> list:
    """Minimal polynomials of the rows w of a (V, n) integer stack under one
    symmetric integer matrix m, all at once: for each row, the primitive
    monic polynomial krylov_minpoly would give, or None where this route
    could not certify one (the caller then runs krylov_minpoly).

    For each prime p of _PRIMES the Krylov columns w, m w, ..., m^n w of
    every row are reduced mod p and eliminated in lockstep; the first
    column without a pivot gives the degree and the monic relation mod p.
    Every root lies in [-root_bound, root_bound], so no coefficient
    exceeds (1 + root_bound)^n in size.  Primes are taken until their
    product exceeds twice that (all of them, if none does), and the
    coefficients are lifted by CRT to symmetric residues.

    A row is certified when every prime gave it the same degree and its
    lifted polynomial q has q(m) w = 0 over the integers.  The integer
    minimal polynomial reduces mod p to a monic relation, so the degree
    mod p is at most the true one, and a monic q of at most that degree
    with q(m) w = 0 is the minimal polynomial itself.  root_bound only
    sets the number of primes: a bound too small costs fallbacks, never a
    wrong polynomial.  The exact Krylov vectors and the check run in int64
    where a bound proves them exact, and in Python ints (dtype object)
    otherwise.
    """
    mat, w = np.asarray(m), np.asarray(vectors)
    rows, n = w.shape
    # every entry of m^k w is at most r^k max|w|, r the largest row sum of |m|
    r = int(abs(mat).sum(axis=1).max(initial=1))
    narrow = r ** n * int(abs(w).max(initial=0)) < 2 ** 62
    walks = np.empty((rows, n + 1, n), dtype=np.int64 if narrow else object)
    walks[:, 0] = w
    mat = mat.astype(walks.dtype)
    for k in range(n):
        walks[:, k + 1] = walks[:, k] @ mat
    bound, primes = 2 * (1 + root_bound) ** n, []
    for p in _PRIMES:
        primes.append(p)
        if math.prod(primes) > bound:
            break
    degrees, residues = zip(*(_krylov_relation((walks % p).astype(np.int64), p)
                              for p in primes))
    coeffs = _symmetric_crt(residues, primes)
    # the check is exact in int64 when its largest possible term sum fits
    size = sum(int(c) * int(x) for c, x in zip(abs(coeffs).max(axis=0),
                                               abs(walks).max(axis=(0, 2))))
    if size >= 2 ** 63:
        coeffs, walks = coeffs.astype(object), walks.astype(object)
    residual = (coeffs[:, :, None] * walks).sum(axis=1)
    certified = (np.equal(degrees, degrees[0]).all(axis=0)
                 & ~(residual != 0).any(axis=1))
    return [IntPolynomial._of(c[:d + 1]) if ok else None
            for c, d, ok in zip(coeffs.tolist(), degrees[0].tolist(), certified.tolist())]


def _krylov_relation(walks, p: int):
    """(degree, coefficients) of the first Krylov dependency mod p of each
    row of a (V, n + 1, n) residue stack, whose slot k holds m^k w: the
    least d with m^d w in the span of the walks before it, and the monic
    c (zero past d, (V, n + 1), residues mod p) with sum c_k m^k w = 0.

    Fraction-free Gauss-Jordan on the columns m^k w: at step k the pivot
    row is swapped into row k and every other row i becomes s_k * row i -
    a_ik * row k, s_k the pivot, so row j < d ends with diagonal
    s_j s_(j+1) ... s_(d-1).  Once column d has no pivot no later column
    has one (m^(d+1) w lies in the span of the walks before m^d w too), so
    a finished row is left alone, and its column d reads off
    c_j = -a_jd s_0 ... s_(j-1) / (s_0 ... s_(d-1)): one inverse per row.
    Rows of column d at and past d are zero, so c_j is zero there."""
    a = walks.transpose(0, 2, 1).copy()  # (V, n, n + 1): column k is m^k w
    rows, n, _ = a.shape
    at = np.arange(rows)
    found = np.zeros((rows, n + 1), dtype=bool)  # column n never has a pivot
    prefix = np.ones((rows, n + 1), dtype=np.int64)  # s_0 ... s_(j-1)
    for k in range(n):
        nonzero = a[:, k:, k] != 0
        found[:, k] = live = nonzero.any(axis=1)
        below = k + nonzero.argmax(axis=1)
        top, swap = a[at, k], a[at, below]
        a[at, below], a[at, k] = top, swap
        pivot = np.where(live, a[:, k, k], 1)
        prefix[:, k + 1] = prefix[:, k] * pivot % p
        col = a[:, :, k] * live[:, None]
        col[:, k] = pivot - 1  # keeps row k as it is
        a = (pivot[:, None, None] * a - col[:, :, None] * a[:, k, None, :]) % p
    degree = found.argmin(axis=1)
    inverse = np.array([pow(x, -1, p) for x in prefix[:, n].tolist()], dtype=np.int64)
    coeffs = np.zeros((rows, n + 1), dtype=np.int64)
    coeffs[:, :n] = -a[at, :, degree] * prefix[:, :n] % p * inverse[:, None] % p
    coeffs[at, degree] = 1
    return degree, coeffs


def _symmetric_crt(residues, primes):
    """The integers in (-P/2, P/2], P the product of primes, congruent to
    each residue array mod its prime, by Garner's mixed-radix digits; int64
    while P < 2^62, Python ints (dtype object) beyond."""
    digits = []
    for p, r in zip(primes, residues):
        for q, d in zip(primes, digits):
            r = (r - d) * pow(q, -1, p) % p
        digits.append(r)
    product = math.prod(primes)
    if product >= 2 ** 62:
        digits = [d.astype(object) for d in digits]
    value = digits[-1]
    for q, d in zip(primes[-2::-1], digits[-2::-1]):
        value = d + q * value
    return np.where(2 * value > product, value - product, value)


@dataclass(frozen=True)
class IntegerEig:
    """An integer eigenvalue."""
    value: int

    @property
    def poly(self) -> IntPolynomial:
        """x - value."""
        return IntPolynomial.x_minus(self.value)

    def approx(self) -> float:
        return float(self.value)

    def sort_key(self):
        return (self.approx(), 0, self.value, 0, 0)

    def to_json(self):
        return {"type": "integer", "value": self.value}


@dataclass(frozen=True)
class QuadraticEig:
    """Eigenvalue (a + b*sqrt(delta))/2 with b != 0; the sign of b
    distinguishes the two algebraic conjugates."""
    a: int
    b: int
    delta: int

    @property
    def poly(self) -> IntPolynomial:
        """x^2 - a x + (a^2 - b^2 delta)/4, whose roots are the id and its
        conjugate; for a well-formed id, with a^2 - b^2 delta divisible by 4."""
        norm = (self.a * self.a - self.b * self.b * self.delta) // 4
        return IntPolynomial((norm, -self.a, 1))

    def approx(self) -> float:
        return (self.a + self.b * math.sqrt(self.delta)) / 2

    def sort_key(self):
        return (self.approx(), 1, self.a, self.b, self.delta)

    def to_json(self):
        return {"type": "quadratic", "a": self.a, "b": self.b, "delta": self.delta}


@dataclass(frozen=True)
class ResidualEig:
    """Stand-in for the roots of a monic factor with no integer or
    quadratic roots (degree >= 3); exact values are not represented."""
    poly: IntPolynomial

    def approx(self) -> float:
        return math.inf

    def sort_key(self):
        return (math.inf, 2, self.poly.coeffs, 0, 0)

    def to_json(self):
        return {"type": "residual", "coeffs": list(self.poly.coeffs)}


EigenvalueId = Union[IntegerEig, QuadraticEig, ResidualEig]


def factor_support(p: IntPolynomial, root_bound: int) -> list[EigenvalueId]:
    """The eigenvalue ids of the roots of p, sorted, residual last: every
    integer root and both conjugates (s +/- b sqrt(d))/2 of every monic
    quadratic factor x^2 - s x + t with irrational real roots inside
    [-root_bound, root_bound], then the cofactor with neither, if it is
    not constant.

    The quadratic search is exhaustive within the bound, so the residual
    genuinely has no monic integer factor of degree <= 2 with roots in
    range.  A candidate x^2 - s x + t is divided out only if t | q(0),
    (1 - s + t) | q(1) and (1 + s + t) | q(-1) for the current cofactor q:
    a monic factor in Z[x] divides q's value at every integer, so these
    conditions are necessary and skipping a candidate that fails one loses
    no factor.  Requires p monic with distinct real roots.
    """
    if not p.is_monic():
        raise ValueError("factor_support requires a monic polynomial")
    if p.degree >= 1 and not poly_gcd(p, p.derivative()) == IntPolynomial.one():
        raise ValueError("factor_support requires distinct roots")
    bound = int(root_bound)
    q = p
    ids: list[EigenvalueId] = []
    if q.degree >= 1 and q.coeffs[0] == 0:
        ids.append(IntegerEig(0))
        q, _ = q.pseudo_divmod(IntPolynomial((0, 1)))
    c0 = q.coeffs[0] if q.degree >= 0 else 1
    for cand in range(-bound, bound + 1):
        if cand == 0 or q.degree < 1:
            continue
        if c0 % cand == 0 and q(cand) == 0:
            q, _ = q.pseudo_divmod(IntPolynomial.x_minus(cand))
            ids.append(IntegerEig(cand))
    while q.degree >= 2:
        hit = _find_quadratic_factor(q, bound)
        if hit is None:
            break
        s, t = hit
        q, _ = q.pseudo_divmod(IntPolynomial((t, -s, 1)))
        b, d = squarefree_part(s * s - 4 * t)
        ids += [QuadraticEig(s, b, d), QuadraticEig(s, -b, d)]
    if q.degree >= 1:
        ids.append(ResidualEig(q))
    return sorted(ids, key=lambda e: e.sort_key())


def _find_quadratic_factor(q: IntPolynomial, bound: int):
    """First (s, t) with x^2 - s x + t dividing q, real irrational roots in
    [-bound, bound]; None if no such factor exists.  Candidates failing
    the divisibility conditions of :func:`factor_support` are skipped
    without dividing, so the first hit is that of plain trial division.
    """
    if q.degree == 2:
        s, t = -q.coeffs[1], q.coeffs[0]
        disc = s * s - 4 * t
        if disc <= 0 or math.isqrt(disc) ** 2 == disc:
            raise ValueError("quadratic remainder without irrational real roots")
        return s, t
    q0, q1, qm1 = q(0), q(1), q(-1)
    for s in range(-2 * bound, 2 * bound + 1):
        # both roots in [-bound, bound]: q2(+/-bound) >= 0 and disc > 0
        t_lo = abs(s) * bound - bound * bound
        t_hi = (s * s - 1) // 4 if s * s >= 1 else -1
        for t in range(t_lo, t_hi + 1):
            if t == 0 or q0 % t:
                continue
            disc = s * s - 4 * t
            if disc <= 0 or math.isqrt(disc) ** 2 == disc:
                continue
            # irrational roots: neither 1 nor -1 is a root, so no zero divisor
            if q1 % (1 - s + t) or qm1 % (1 + s + t):
                continue
            quad_poly = IntPolynomial((t, -s, 1))
            if quad_poly.divides(q):
                return s, t
    return None
