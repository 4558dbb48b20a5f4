"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately primitive: cofactor expansion instead of
fraction-free elimination, edge-subset enumeration instead of the
Matrix-Tree determinant, labelled Prufer decoding instead of level-sequence
generation, the rooted-tree counting recurrence instead of any
enumeration at all, and set comparisons of neighbourhoods instead of the
bitmask twin search, trial division by every candidate quadratic
instead of the divisor-pruned factor search, a Lagrange product over
the other support roots instead of the Krylov-basis eigenprojection, and
that eigenprojection, exact over Q or Q(sqrt(d)), instead of the integer
sign test of spectral.projection_sign,
Euclid over Fraction coefficients instead of pseudo-division in Z[x],
a Krylov elimination that reduces each combination in a loop of its own
instead of as the tail of one row with its vector, and a full factorization of the shared factor instead of the decider's
search among the support ids of the two vertices, a factorization of each
sign class instead of the decider's split of the support ids of u, and
the root bound from the order instead of the degree, every neighbour mask
of every parent instead of the least mask of each automorphism orbit, and
every vertex permutation instead of the automorphisms a canonical search
meets, a canonical search that ranks every vertex in every refinement
round from the all-zero colouring instead of splitting only the cells
that can split from the degree partition, and the characteristic
polynomial's integer roots and a Sturm count of its cofactor instead of
bisection on the semidefiniteness of kI - L, one matrix at a time
eliminated by a loop that pivots on any positive diagonal entry instead
of exactalg.semidefinite_pivots over a stack in natural order, and the
whole of exp(itM) from LAPACK's eigh instead of Taylor steps on e_u alone.

The helpers at the end are checks that only tests use: a polynomial from
its roots, the product a factorization splits, strong cospectrality read
off the split of the minimal polynomial, the resolution of the identity
over a support profile, the signed projection sum that a transfer
pair must make e_v, and two laws that the exact code must obey: the rank
of an integer matrix over Z_p (the reduced Laplacian has full rank mod p
exactly when p does not divide the tree count) and the bipartite phase
law for adjacency transfer between the colour classes (phase +/- i, one
2-adic valuation across the support, 0 outside it; Godsil, State
transfer on graphs, Discrete Math. 312, 2012).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Sequence, Union

import numpy as np

from pstlab.exactalg import (
    IntPolynomial,
    charpoly,
    factor_support,
    mat_vec,
    poly_gcd,
    squarefree_part,
    sturm_count,
)
from pstlab.generate import canonical_form
from pstlab.graphs import Graph, _graph6_word, bipartition, laplacian, parse_graph6
from pstlab.pst import PSTReport
from pstlab.spectral import (
    ADJACENCY,
    LAPLACIAN,
    SIGNLESS_LAPLACIAN,
    EigenvalueId,
    IntegerEig,
    QuadraticEig,
    ResidualEig,
    SupportProfile,
    matrix_of,
    support_profile,
)


def det_cofactor(m) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def spanning_trees_brute(g: Graph) -> int:
    """Count spanning trees by testing every (n-1)-edge subset."""
    edges = sorted(g.edges)
    if g.n == 1:
        return 1
    count = 0
    for subset in combinations(edges, g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def prufer_decode(seq: tuple[int, ...], n: int) -> Graph:
    """Labelled tree on 0..n-1 from a Prufer sequence of length n-2."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaf_ptr = 0
    leaf = -1
    used = [False] * n
    for x in seq:
        if leaf == -1:
            while degree[leaf_ptr] != 1 or used[leaf_ptr]:
                leaf_ptr += 1
            leaf = leaf_ptr
        edges.append((leaf, x))
        used[leaf] = True
        degree[x] -= 1
        if degree[x] == 1 and x < leaf_ptr:
            leaf = x
        else:
            leaf = -1
    last = [i for i in range(n) if not used[i] and degree[i] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, edges)


def free_tree_count_prufer(n: int) -> int:
    """Isomorphism classes of trees on n vertices by enumerating all
    n^(n-2) Prufer sequences and bucketing by canonical form."""
    if n == 1 or n == 2:
        return 1
    seen = set()
    seq = [0] * (n - 2)
    while True:
        seen.add(canonical_form(prufer_decode(tuple(seq), n)))
        i = n - 3
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            break
        seq[i] += 1
    return len(seen)


def rooted_tree_counts(max_n: int) -> list[int]:
    """Rooted trees on 1..max_n vertices by the classical divisor-sum
    convolution; r[1] = 1."""
    r = [0] * (max_n + 1)
    r[1] = 1
    for n in range(2, max_n + 1):
        total = 0
        for k in range(1, n):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[n - k]
        r[n] = total // (n - 1)
    return r


def free_tree_counts_otter(max_n: int) -> list[int]:
    """Free-tree counts from rooted counts: t(x) = r(x) - (r^2(x) - r(x^2))/2."""
    r = rooted_tree_counts(max_n)
    t = [0] * (max_n + 1)
    for n in range(1, max_n + 1):
        square = sum(r[i] * r[n - i] for i in range(1, n))
        diag = r[n // 2] if n % 2 == 0 else 0
        t[n] = r[n] - (square - diag) // 2
    return t


def connected_graph_count_brute(n: int) -> int:
    """Connected isomorphism classes by enumerating all labelled graphs."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        g = Graph(n, edges)
        if g.is_connected():
            seen.add(canonical_form(g))
    return len(seen)


def connected_level_all_masks(prev: list[Graph], n: int) -> list[Graph]:
    """One augmentation level trying every nonempty neighbour mask of every
    parent, dedup by canonical form, in the order generation emits."""
    seen = set()
    out = []
    new = n - 1
    for parent in prev:
        base = list(parent.edges)
        for mask in range(1, 1 << new):
            edges = base + [(u, new) for u in range(new) if mask >> u & 1]
            key = canonical_form(Graph(n, edges))
            if key not in seen:
                seen.add(key)
                out.append(parse_graph6(key))
    return out


def orbit_least_masks_union_find(new: int, autos: list[list[int]]) -> list[int]:
    """The neighbour masks 1..2^new - 1 that are least in their orbit under
    the group that the permutations in autos generate, in increasing order.

    A union-find over masks merges each mask with its image under every
    generator and keeps the least mask of a class as its root.  The images
    of the masks 2^v..2^(v+1) - 1 are those of the masks below 2^v, each
    with the image of v added.
    """
    root = list(range(1 << new))

    def find(m: int) -> int:
        while root[m] != m:
            root[m] = root[root[m]]
            m = root[m]
        return m

    for sigma in autos:
        image = [0]
        for v in range(new):
            image += [m | 1 << sigma[v] for m in image]
        for mask, m in enumerate(image):
            if m != mask:
                a, b = find(mask), find(m)
                if a != b:
                    root[max(a, b)] = min(a, b)
    return [m for m in range(1, 1 << new) if find(m) == m]


def double_cone(h: Graph) -> Graph:
    """K̄2 ∨ H: h on vertices 0..m-1 and two apexes m and m + 1, not
    adjacent to each other, each joined to every vertex of h."""
    m = h.n
    return Graph(m + 2, list(h.edges) + [(x, apex) for apex in (m, m + 1) for x in range(m)])


def automorphism_count_brute(g: Graph) -> int:
    """The order of the automorphism group, by trying every permutation."""
    edges = {frozenset(e) for e in g.edges}
    return sum(1 for p in permutations(range(g.n))
               if all(frozenset((p[a], p[b])) in edges for a, b in g.edges))


def permutation_group_order(gens: list[list[int]], n: int) -> int:
    """The order of the group that gens generate, by closing the identity
    under composition with each generator."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for sigma in gens:
            q = tuple(sigma[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


def _refine_round_by_rank(adj, n: int, colours: list[int]) -> list[int]:
    """One round of colour refinement over every vertex: each new colour is
    the dense rank of the vertex's colour and the sorted tuple of its
    neighbours' colours."""
    sigs = []
    for v in range(n):
        mask = adj[v]
        neigh = []
        u = 0
        while mask:
            if mask & 1:
                neigh.append(colours[u])
            mask >>= 1
            u += 1
        neigh.sort()
        sigs.append((colours[v], tuple(neigh)))
    ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [ids[s] for s in sigs]


def _refine_by_rounds(adj, n: int, colours: list[int]) -> list[int]:
    """Rounds until one gives its input back, or the colouring is discrete."""
    while True:
        new = _refine_round_by_rank(adj, n, colours)
        if new == colours or len(set(new)) == n:
            return new
        colours = new


def canonical_search_by_rounds(g: Graph) -> tuple[str, list[list[int]]]:
    """The canonical word and the automorphisms met, by a search that
    refines from the all-zero colouring, ranks every vertex in every round
    and rebuilds the cells from the colours at each node; individualising
    v gives it colour 2c and the rest of its cell 2c + 1."""
    n, adj = g.n, g.adj
    best_word: Optional[str] = None
    best_order: Optional[list[int]] = None
    autos: list[list[int]] = []

    def rec(colours: list[int]) -> None:
        nonlocal best_word, best_order
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colours):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            order = sorted(range(n), key=colours.__getitem__)
            word = _graph6_word(adj, order)
            if best_word is None or word < best_word:
                best_word, best_order = word, order
            elif word == best_word:
                sigma = [0] * n
                for k in range(n):
                    sigma[best_order[k]] = order[k]
                autos.append(sigma)
            return
        fixed = [v for v, c in enumerate(colours) if len(cells[c]) == 1]
        orbit = None
        merged = 0
        tried: list[int] = []
        for v in target:
            for sigma in autos[merged:]:
                if all(sigma[w] == w for w in fixed):
                    if orbit is None:
                        orbit = list(range(n))
                    for x in range(n):
                        a, b = orbit[x], orbit[sigma[x]]
                        if a != b:
                            orbit = [a if o == b else o for o in orbit]
            merged = len(autos)
            if orbit is not None and any(orbit[u] == orbit[v] for u in tried):
                continue
            tried.append(v)
            split = [2 * c for c in colours]
            for w in target:
                if w != v:
                    split[w] += 1
            rec(_refine_by_rounds(adj, n, split))

    rec(_refine_by_rounds(adj, n, [0] * n))
    assert best_word is not None
    return best_word, autos


def two_colourable_brute(g: Graph) -> bool:
    """Whether some 2-colouring leaves no edge monochromatic, by trying
    all 2^n colourings (small n only)."""
    edges = sorted(g.edges)
    return any(all((mask >> u & 1) != (mask >> v & 1) for u, v in edges)
               for mask in range(1 << g.n))


def twin_statistics(graphs) -> dict:
    """Recount the survey's twin statistics over a corpus of graphs.

    Uses no twin, spanning-tree, determinant or power-of-two code from
    pstlab; only ``g.n`` and ``g.edges`` are read.  Definitions follow the
    survey: a twin pair is u < v with N(u) - {v} == N(v) - {u}; k is the
    number of common neighbours, and "small" means k in (1, 2).  The tree
    count is the cofactor-expanded determinant of the Laplacian with its
    last row and column removed.  The two "ruled out" readings count the
    power-of-two graphs on more than four vertices that contain a small
    twin pair, or that have no twin pair with k >= 3 and k (non-adjacent)
    or k + 2 (adjacent) a power of two.  Keys match the survey aggregate's.
    """
    def is_power_of_two(x):
        return x >= 1 and bin(x).count("1") == 1

    counts = dict.fromkeys((
        "connected", "tau_power_of_two", "pow2_with_small_twins",
        "ruled_out_reading_small_twins",
        "ruled_out_reading_no_admissible_pair"), 0)
    for g in graphs:
        n = g.n
        nbrs = [set() for _ in range(n)]
        for u, v in g.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        reduced = [[len(nbrs[i]) if i == j else -1 if j in nbrs[i] else 0
                    for j in range(n - 1)] for i in range(n - 1)]
        tau = det_cofactor(reduced)
        if tau < 1:
            continue
        counts["connected"] += 1
        if not is_power_of_two(tau):
            continue
        counts["tau_power_of_two"] += 1
        twins = [(len(nbrs[u] & nbrs[v]), v in nbrs[u])
                 for u, v in combinations(range(n), 2)
                 if nbrs[u] - {v} == nbrs[v] - {u}]
        small = any(k in (1, 2) for k, _ in twins)
        counts["pow2_with_small_twins"] += small
        if n > 4:
            counts["ruled_out_reading_small_twins"] += small
            counts["ruled_out_reading_no_admissible_pair"] += not any(
                k >= 3 and is_power_of_two(k + 2 * adjacent)
                for k, adjacent in twins)
    return counts


def factor_support_brute(p: IntPolynomial, root_bound: int) -> list:
    """``factor_support`` by plain trial division: every (s, t) in the
    root-bound box is tried by dividing q by x^2 - s x + t.  The ids are
    listed integer roots first, then each conjugate pair, residual last,
    and sorted by value only at the end."""
    if not p.is_monic():
        raise ValueError("factor_support requires a monic polynomial")
    if p.degree >= 1 and not poly_gcd_fraction(p, p.derivative()) == IntPolynomial.one():
        raise ValueError("factor_support requires distinct roots")
    bound = int(root_bound)
    q = p
    integer_roots = []
    if q.degree >= 1 and q.coeffs[0] == 0:
        integer_roots.append(0)
        q, _ = q.pseudo_divmod(IntPolynomial((0, 1)))
    c0 = q.coeffs[0] if q.degree >= 0 else 1
    for cand in range(-bound, bound + 1):
        if cand == 0 or q.degree < 1:
            continue
        if c0 % cand == 0 and q(cand) == 0:
            q, _ = q.pseudo_divmod(IntPolynomial.x_minus(cand))
            integer_roots.append(cand)
    quadratic_roots = []
    while q.degree >= 2:
        hit = _find_quadratic_factor_brute(q, bound)
        if hit is None:
            break
        s, t = hit
        q, _ = q.pseudo_divmod(IntPolynomial((t, -s, 1)))
        disc = s * s - 4 * t
        b, d = squarefree_part(disc)
        quadratic_roots.append((s, b, d))
    return split_ids(integer_roots, quadratic_roots, q)


def split_ids(integer_roots, quadratic_roots, residual: IntPolynomial) -> list:
    """The sorted eigenvalue ids of a split: IntegerEig(r) per integer root,
    QuadraticEig(a, +-b, d) per conjugate pair (a +- b sqrt(d))/2 given as
    (a, b, d), and ResidualEig(residual) unless residual is constant."""
    ids = [IntegerEig(r) for r in integer_roots]
    for a, b, d in quadratic_roots:
        ids += [QuadraticEig(a, b, d), QuadraticEig(a, -b, d)]
    if residual.degree >= 1:
        ids.append(ResidualEig(residual))
    return sorted(ids, key=lambda e: e.sort_key())


def gate_witness_factor_support(shared: IntPolynomial, bound: int) -> EigenvalueId:
    """Witness of a failed strong-cospectrality gate: the least eigenvalue
    id of the factorization of gcd(poly_minus, poly_plus)."""
    return factor_support(shared, bound)[0]


def pair_ids_factor_support(poly_minus: IntPolynomial, poly_plus: IntPolynomial,
                            bound: int) -> tuple[tuple, tuple]:
    """Plus and minus classes of a strongly cospectral pair as two
    factorizations of their own, (ids of poly_plus, ids of poly_minus),
    in place of the decider's split of the ids of u."""
    return (tuple(factor_support(poly_plus, bound)),
            tuple(factor_support(poly_minus, bound)))


def eigenvalue_bound_by_order(g: Graph, kind: str) -> int:
    """Root bound from the order alone: lambda_max(L) <= n, |theta| <= n - 1
    for A (at least 1) and Q <= 2n, looser than the degree bound."""
    return {LAPLACIAN: g.n, ADJACENCY: max(g.n - 1, 1), SIGNLESS_LAPLACIAN: 2 * g.n}[kind]


def integer_lmax_charpoly(g: Graph) -> Optional[int]:
    """The largest Laplacian eigenvalue if it is an integer, else None:
    split the integer roots 0..n off the characteristic polynomial, then no
    root of the residual cofactor may exceed the largest of them (root
    count by Sturm sequences)."""
    p = charpoly(laplacian(g))
    top = 0
    for cand in range(0, g.n + 1):
        while p(cand) == 0:
            p, _ = p.pseudo_divmod(IntPolynomial.x_minus(cand))
            top = cand
    if p.degree >= 1 and sturm_count(p, top, g.n + 1) != 0:
        return None
    return top


def _semidefinite_singular(m) -> Optional[bool]:
    """None when the symmetric integer matrix m is not positive
    semidefinite, else whether it is singular.

    Fraction-free symmetric elimination: each step pivots on a positive
    diagonal entry of the remaining block, whose entries are then the
    Schur complement scaled by the product of the pivots (Bareiss division
    stays exact under principal pivoting), so semidefiniteness and rank
    carry over to the block.  A negative diagonal entry rules
    semidefiniteness out; a block with only zeros on its diagonal is
    semidefinite only if it is zero, and is then singular.
    """
    a = [list(row) for row in m]
    live = list(range(len(a)))
    prev = 1
    while live:
        pivot = None
        for i in live:
            if a[i][i] < 0:
                return None
            if pivot is None and a[i][i] > 0:
                pivot = i
        if pivot is None:
            if any(a[i][j] for i in live for j in live):
                return None
            return True
        live.remove(pivot)
        row_p, piv = a[pivot], a[pivot][pivot]
        for i in live:
            row_i, aip = a[i], a[i][pivot]
            for j in live:
                row_i[j] = (piv * row_i[j] - aip * row_p[j]) // prev
        prev = piv
    return False


def _find_quadratic_factor_brute(q: IntPolynomial, bound: int):
    """First (s, t) with x^2 - s x + t dividing q, real irrational roots in
    [-bound, bound]; None if no such factor exists."""
    if q.degree == 2:
        s, t = -q.coeffs[1], q.coeffs[0]
        disc = s * s - 4 * t
        if disc <= 0 or math.isqrt(disc) ** 2 == disc:
            raise ValueError("quadratic remainder without irrational real roots")
        return s, t
    for s in range(-2 * bound, 2 * bound + 1):
        # both roots in [-bound, bound]: q2(+/-bound) >= 0 and disc > 0
        t_lo = abs(s) * bound - bound * bound
        t_hi = (s * s - 1) // 4 if s * s >= 1 else -1
        for t in range(t_lo, t_hi + 1):
            disc = s * s - 4 * t
            if disc <= 0 or math.isqrt(disc) ** 2 == disc:
                continue
            quad_poly = IntPolynomial((t, -s, 1))
            if quad_poly.divides(q):
                return s, t
    return None


def krylov_minpoly_two_loop(vectors) -> IntPolynomial:
    """The fraction-free Krylov elimination with each basis vector's
    combination of the draws kept beside it and reduced by a loop of its
    own; same pivots, gcd reduction and lazy draw as krylov_minpoly."""
    basis: list[tuple[int, list[int], list[int]]] = []  # (pivot, vec, combo)
    for k, vec in enumerate(vectors):
        combo = [0] * (k + 1)
        combo[k] = 1
        for pivot, bvec, bcombo in basis:
            if vec[pivot]:
                g = math.gcd(vec[pivot], bvec[pivot])
                mul_v, mul_b = bvec[pivot] // g, vec[pivot] // g
                vec = [mul_v * x - mul_b * y for x, y in zip(vec, bvec)]
                combo = [mul_v * x for x in combo]
                for i, y in enumerate(bcombo):
                    combo[i] -= mul_b * y
        if not any(vec):
            poly = IntPolynomial(combo).primitive()
            if not poly.is_monic():
                raise AssertionError("minimal polynomial failed to be monic")
            return poly
        g = math.gcd(*vec, *combo)
        if g > 1:
            vec = [x // g for x in vec]
            combo = [x // g for x in combo]
        pivot = next(i for i, x in enumerate(vec) if x)
        basis.append((pivot, vec, combo))
    raise ValueError("Krylov vectors ran out before a linear dependency")


def apply_poly(m, coeffs, v) -> list:
    """Apply p(m) to v by Horner's rule; coeffs ascending, any exact scalar."""
    w = [coeffs[-1] * x for x in v]
    for c in reversed(coeffs[:-1]):
        w = mat_vec(m, w)
        if c != 0:
            w = [x + c * y for x, y in zip(w, v)]
    return w


def class_polynomial(ids: list[EigenvalueId]) -> IntPolynomial:
    """Product of the minimal polynomials over Q of the eigenvalue ids: a
    conjugate pair counts once and a residual id is its own polynomial."""
    out = IntPolynomial.one()
    pairs: set[tuple[int, int, int]] = set()
    for eig in ids:
        if isinstance(eig, IntegerEig):
            out = out * IntPolynomial.x_minus(eig.value)
        elif isinstance(eig, ResidualEig):
            out = out * eig.poly
        elif (eig.a, abs(eig.b), eig.delta) not in pairs:
            pairs.add((eig.a, abs(eig.b), eig.delta))
            # (x - a/2)^2 - b^2 delta / 4
            t4 = eig.a * eig.a - eig.b * eig.b * eig.delta
            out = out * IntPolynomial((t4 // 4, -eig.a, 1))
    return out


def sign_class_annihilators(m, u: int, v: int, plus: list[EigenvalueId],
                            minus: list[EigenvalueId]):
    """(P, Q, P(M)(e_u + e_v), Q(M)(e_u - e_v)) for the class polynomials
    P of plus and Q of minus.  With P and Q coprime, both vectors vanish
    exactly when E_plus e_u = (e_u + e_v)/2 and E_minus e_u = (e_u - e_v)/2,
    where E_plus and E_minus project onto the eigenspaces of the roots of P
    and Q.  Built from the ids alone, never from the decider's polynomials."""
    n = len(m)
    summ = [int(i in (u, v)) for i in range(n)]
    diff = [(i == u) - (i == v) for i in range(n)]
    p_poly, q_poly = class_polynomial(plus), class_polynomial(minus)
    return (p_poly, q_poly, apply_poly(m, p_poly.coeffs, summ),
            apply_poly(m, q_poly.coeffs, diff))


# -- exact projections over Q(sqrt(d)) --------------------------------------

class QuadExt:
    """Exact scalar a + b*sqrt(d) with rational a, b and squarefree d > 1.

    Construct through :func:`quad` which collapses b == 0 back to Fraction.
    Arithmetic mixing two different d values raises; callers gate on a
    single extension before doing any mixed arithmetic.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    def _parts(self, other):
        """(a, b) of an operand in this extension, None for a foreign type;
        a rational is read as (other, 0) without building a QuadExt."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixed extensions sqrt({self.d}) vs sqrt({other.d})")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _in_field(self.a + o[0], self.b + o[1], self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _in_field(self.a - o[0], self.b - o[1], self.d)

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _in_field(o[0] - self.a, o[1] - self.b, self.d)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b = o
        if not b:
            return _in_field(self.a * a, self.b * a, self.d)
        return _in_field(self.a * a + self.b * b * self.d,
                         self.a * b + self.b * a, self.d)

    __rmul__ = __mul__

    def _quotient(self, a, b, c, e):
        """(a + b*sqrt(d)) / (c + e*sqrt(d)).  One side's parts are always
        self's Fractions, so no int over int division ever makes a float."""
        norm = c * c - e * e * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic scalar")
        return _in_field((a * c - b * e * self.d) / norm,
                         (b * c - a * e) / norm, self.d)

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._quotient(self.a, self.b, *o)

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._quotient(*o, self.a, self.b)

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


Scalar = Union[int, Fraction, QuadExt]


def _in_field(a: Fraction, b: Fraction, d: int) -> Scalar:
    """:func:`quad` for arithmetic results, whose d was validated when an
    operand was built: b == 0 still collapses to the Fraction a."""
    if not b:
        return a
    out = QuadExt.__new__(QuadExt)
    out.a, out.b, out.d = a, b, d
    return out


def quad(a, b, d: int) -> Scalar:
    """Normalizing constructor: b == 0 falls back to a plain Fraction."""
    b = Fraction(b)
    if b == 0:
        return Fraction(a)
    if d <= 1 or squarefree_part(d)[1] != d:
        raise ValueError(f"{d} is not a squarefree integer > 1")
    return QuadExt(a, b, d)


def exact_value(eig: EigenvalueId) -> Scalar:
    """An integer or quadratic id's eigenvalue as an exact scalar."""
    if isinstance(eig, IntegerEig):
        return eig.value
    return quad(Fraction(eig.a, 2), Fraction(eig.b, 2), eig.delta)


def krylov_projection(q: IntPolynomial, krylov_rows, eig: EigenvalueId):
    """E_theta e_u = sum_j c_j K_j / q'(theta), where K_j = M^j e_u and
    q(x) = (x - theta) sum_j c_j x^j; the c_j come from synthetic division.
    q is squarefree, so q'(theta) != 0, and the quotient has degree below
    deg q, so the projection of a support root never vanishes."""
    theta = exact_value(eig)
    c = [1]  # quotient coefficients, highest first
    for coeff in reversed(q.coeffs[1:-1]):
        c.append(coeff + theta * c[-1])
    c.reverse()
    inv = Fraction(1) / q.derivative()(theta)  # Fraction even for integer theta
    return [x * inv for x in mat_vec(krylov_rows, c)]


def projection_lagrange(m, e_u, target: EigenvalueId, others: list[EigenvalueId],
                        residual: Optional[IntPolynomial]):
    """Lagrange product of (M - mu I)/(lambda - mu) over the other support
    roots applied to e_u; conjugate pairs foreign to the target's field are
    folded into rational quadratic factors, and a residual factor is applied
    wholesale and divided by its value at the target."""
    lam = exact_value(target)
    if isinstance(lam, int):
        lam = Fraction(lam)  # keep all divisions exact
    w: list = list(e_u)

    if residual is not None and residual.degree >= 1:
        w = apply_poly(m, residual.coeffs, w)
        rv = residual(lam)
        if rv == 0:
            raise AssertionError("residual vanishes at a split eigenvalue")
        w = [x / rv for x in w]

    seen_pairs: set[tuple[int, int, int]] = set()
    for other in others:
        if isinstance(other, ResidualEig):
            continue
        if isinstance(other, IntegerEig):
            mu = other.value
            mv = mat_vec(m, w)
            w = [(x - mu * y) / (lam - mu) for x, y in zip(mv, w)]
            continue
        same_field = (isinstance(target, QuadraticEig)
                      and other.delta == target.delta)
        if same_field:
            mu = exact_value(other)
            mv = mat_vec(m, w)
            w = [(x - mu * y) / (lam - mu) for x, y in zip(mv, w)]
        else:
            key = (other.a, abs(other.b), other.delta)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            a, b, d = key
            t4 = a * a - b * b * d
            if t4 % 4:
                raise AssertionError("quadratic eigenvalue is not an algebraic integer")
            t = t4 // 4
            div = lam * lam - a * lam + t
            mv = mat_vec(m, w)
            mmv = mat_vec(m, mv)
            w = [(xx - a * x + t * y) / div for xx, x, y in zip(mmv, mv, w)]
    return w


# -- Euclid over Q on lists of Fractions (ascending coefficients) -------------

def _frac_poly(p: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _frac_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _frac_divmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = a[:]
    q = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    lead = b[-1]
    for i in range(len(rem) - 1, len(b) - 2, -1):
        c = rem[i] / lead
        if c:
            q[i - (len(b) - 1)] = c
            for j, bc in enumerate(b):
                rem[i - (len(b) - 1) + j] -= c * bc
    return q, _frac_trim(rem)


def poly_gcd_fraction(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor in Z[x], normalized monic-primitive."""
    fa, fb = _frac_poly(a), _frac_poly(b)
    while fb:
        _, r = _frac_divmod(fa, fb)
        fa, fb = fb, r
    if not fa:
        return IntPolynomial.zero()
    lead = fa[-1]
    monic = [c / lead for c in fa]
    den = math.lcm(*(c.denominator for c in monic))
    return IntPolynomial(int(c * den) for c in monic).primitive()


def sturm_count_fraction(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Requires p(lo) != 0 and p(hi) != 0.
    """
    f = _frac_poly(p)
    if not f:
        raise ValueError("sturm_count of the zero polynomial")

    def ev(poly, x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    if ev(f, lo) == 0 or ev(f, hi) == 0:
        raise ValueError("sturm_count endpoints must not be roots")
    chain = [f, _frac_trim([i * c for i, c in enumerate(f)][1:])]
    while chain[-1]:
        _, r = _frac_divmod(chain[-2], chain[-1])
        chain.append([-c for c in r])
    chain.pop()

    def variations(x):
        signs = []
        for poly in chain:
            val = ev(poly, x)
            if val:
                signs.append(val > 0)
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(lo) - variations(hi)


def fidelity_by_eigh(g: Graph, kind: str, u: int, v: int, t: float) -> float:
    """|exp(itM)_{v,u}|^2 from the eigendecomposition of M."""
    m = np.array(matrix_of(g, kind), dtype=float)
    eigvals, eigvecs = np.linalg.eigh(m)
    amp = (eigvecs * np.exp(1j * t * eigvals)) @ eigvecs.T
    return float(abs(amp[v, u]) ** 2)


def poly_from_roots(roots) -> IntPolynomial:
    """The monic product of x - r over the integer roots r."""
    p = IntPolynomial.one()
    for r in roots:
        p = p * IntPolynomial.x_minus(r)
    return p


def reconstruct_factorization(ids) -> IntPolynomial:
    """The polynomial whose roots the eigenvalue ids of ``factor_support``
    name: a linear factor per integer id, one quadratic per conjugate pair
    (taken at its id with b > 0), and each residual."""
    p = IntPolynomial.one()
    for e in ids:
        if isinstance(e, IntegerEig):
            p = p * IntPolynomial.x_minus(e.value)
        elif isinstance(e, ResidualEig):
            p = p * e.poly
        elif e.b > 0:
            # minimal polynomial of (a +- b sqrt(d))/2: x^2 - a x + (a^2 - b^2 d)/4
            t4 = e.a * e.a - e.b * e.b * e.delta
            if t4 % 4:
                raise AssertionError("quadratic pair with non-integral norm")
            p = p * IntPolynomial((t4 // 4, -e.a, 1))
    return p


def minpoly_split_is_cospectral(poly_minus: IntPolynomial,
                                poly_plus: IntPolynomial,
                                minpoly_u: IntPolynomial) -> bool:
    """Strong cospectrality from the minimal polynomials of e_u -+ e_v:
    coprime, and together the minimal polynomial of e_u."""
    return (poly_gcd(poly_minus, poly_plus) == IntPolynomial.one()
            and poly_minus * poly_plus == minpoly_u)


def all_projections(prof: SupportProfile) -> dict:
    """Every non-residual support id of a profile mapped to its exact
    projection (krylov_projection), in support order."""
    return {eig: krylov_projection(prof.minpoly, prof.krylov_rows, eig)
            for eig in prof.support if not isinstance(eig, ResidualEig)}


def projection_relation(fu: list, fv: list) -> int:
    """1 when two projections are equal, -1 when negatives, else 0."""
    if fu == fv:
        return 1
    if fu == [-x for x in fv]:
        return -1
    return 0


def projection_sum(prof: SupportProfile, n: int) -> list:
    """Sum of all represented projections of a support profile; conjugate
    pairs are added first so the total stays rational even across several
    extensions."""
    total = [Fraction(0)] * n
    projections = all_projections(prof)
    for eig, vec in projections.items():
        if isinstance(eig, QuadraticEig):
            if eig.b < 0:
                continue
            conj = projections[QuadraticEig(eig.a, -eig.b, eig.delta)]
            vec = [x + y for x, y in zip(vec, conj)]
        total = [t + x for t, x in zip(total, vec)]
    return total


def residual_remainder(prof: SupportProfile, n: int) -> list:
    """e_u minus all represented projections: the residual component."""
    total = projection_sum(prof, n)
    return [(Fraction(1) if i == prof.u else Fraction(0)) - total[i]
            for i in range(n)]


def exact_transfer_vector(g: Graph, kind: str, u: int, plus_ids, minus_ids) -> list:
    """Sum of plus projections minus sum of minus projections of e_u.

    For a genuine transfer instance this equals e_v exactly; swapping any
    eigenvalue between the classes must break that identity.
    """
    prof = support_profile(g, kind, u)
    if prof.residual is not None:
        raise ValueError("exact reconstruction needs a fully split support")
    projections = all_projections(prof)
    out = [Fraction(0)] * g.n
    for eig in plus_ids:
        out = [x + y for x, y in zip(out, projections[eig])]
    for eig in minus_ids:
        out = [x - y for x, y in zip(out, projections[eig])]
    return out


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def rank_mod_p(m: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over the prime field Z_p, p an odd prime."""
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if not m:
        return 0
    rows = [[x % p for x in row] for row in m]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def bipartite_phase_check(report: PSTReport, g: Graph) -> tuple[bool, str]:
    """Structural assertions for adjacency transfer across a bipartition:
    phase +/- i, equal 2-adic valuation across the support, and 0 absent.

    Preconditions (verdict yes, adjacency kind, bipartite graph, endpoints
    in different classes) raise; assertion failures return (False, why).
    """
    if not report.yes or report.matrix_kind != ADJACENCY:
        raise ValueError("needs a positive adjacency report")
    bip = bipartition(g)
    if bip is None:
        raise ValueError("graph is not bipartite")
    if bip.side_of(report.u) == bip.side_of(report.v):
        raise ValueError("endpoints lie in the same colour class")
    if report.phase_s % 2 not in (Fraction(1, 2), Fraction(3, 2)):
        return False, f"phase exp(i pi {report.phase_s}) is not +/- i"
    support = list(report.plus_set) + list(report.minus_set)
    if any(not isinstance(e, IntegerEig) for e in support):
        return False, "non-integer support across a bipartition"
    values = [e.value for e in support]
    if any(val == 0 for val in values):
        return False, "0 in support"
    twoadic = {(val & -val) for val in map(abs, values)}
    if len(twoadic) > 1:
        return False, "support eigenvalues with different powers of two"
    return True, ""
