"""Deterministic graph enumeration up to isomorphism, plus corpus ingestion.

Three sources feed the survey harness: free trees from a level-sequence
successor, connected graphs from vertex augmentation with canonical
deduplication, and graph6 files.  Every generator yields one representative
per isomorphism class in a deterministic order.  Augmentation tries a
parent's neighbour masks in increasing order, and only the least mask of
each orbit under the parent's automorphisms: the other masks give children
isomorphic to one already tried, so the emitted words and their order are
those of trying every mask.  The canonical form is the least graph6 word
that a colour-refinement search reaches.  The search carries an ordered
partition into cells: it starts from the degree partition, each round
splits only the cells of two or more vertices by their neighbours' cells,
and refinement stops at the first round that splits nothing.  A candidate
that is a twin of one already tried in its cell (the two have the same
neighbours away from each other) is skipped: their transposition is an
automorphism, so the two subtrees reach the same leaf words.  The search
returns the automorphisms it met as generators, the transpositions of
skipped twins among them.  The words come from graphs.py's one graph6
encoder, so this module packs no bits itself.

Every search starts from a root partition that one numpy kernel,
_root_colours, computes for a whole chunk of graphs on the same n
vertices: the (B, n, n) 0/1 adjacency_stack of at most _CHUNK_ENTRIES =
2^14 entries (256 graphs at n = 8), refined from the degree partition in
lockstep.  A round keys each vertex by the sum over its neighbours w of
n^(n - 1 - colour of w), the count vector of its neighbours' colours
written in base n (every count is below n, so no digit carries), and
ranks (colour ascending, key descending).  Every root cell lies in one
degree class, where sorted neighbour-colour tuples have one length and
ascend exactly as their count vectors descend, so the kernel reproduces
the cell-wise refinement.  It is exact in int64 while n^(n + 1) < 2^63
(n <= 15) and runs the same code on Python ints at n = 16; no floating
point, BLAS or LAPACK.  Below the root the search refines in Python, cell
by cell.
Generation, canonical_form (a chunk of one) and canonical_words (the
survey's chunks of --file input) all take this route.  The survey in
harness.py builds its Laplacian stacks with the same adjacency_stack, in
chunks of the same budget.

Most children of a level are isomorphic to a child of an earlier parent,
and a pretest drops them before they are searched.  For a child c of parent
number i and a non-cut vertex w of the parent that leaves the new vertex
another neighbour, c - w is connected on n - 1 vertices, so it is
isomorphic to one parent q.  If its degree invariant belongs only to
parents numbered below i, q is one of them, and q's loop already met a
child isomorphic to c: skipping c is the same as searching it and
finding its word in seen, so the words and their order do not change.
The invariant is the sorted list of vertex keys, a vertex's degree and
then the count vector of its neighbours' degrees in base n - 1.  One
numpy pass per chunk of children keys every deletion c - w from c's
degrees less w's column, sorts each deletion's keys and looks the rows up
by their bytes in the sorted table of parent invariants; the keys are
below (n - 1)^n, exact in int64 up to n = 16.

Outside the canonical searches a level runs on arrays: each parent's
orbit-least masks come from the images of all its masks under the
search's generators, its children are one (k, n) mask array, the
children stream through the pretest in chunks of the same budget and
only its survivors become tuples, and the kept children are relabelled
a chunk at a time.  Each kept graph is a CanonicalGraph carrying the
word its search returned, which the survey records as it is.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .graphs import Graph, Graph6ParseError, _graph6_payload, _graph6_word, parse_graph6

MAX_CANONICAL_N = 16
MAX_TREE_N = 16
MAX_CONNECTED_N = 8


# -- canonical form ----------------------------------------------------------

# The set bits of a byte, read as the low or the high byte of a neighbour
# mask (n <= 16): nbrs[v] of a search in two table lookups.
_LOW_BITS = [tuple(u for u in range(8) if b >> u & 1) for b in range(256)]
_HIGH_BITS = [tuple(8 + u for u in bits) for bits in _LOW_BITS]


def _refine_round(nbrs, cells: list[list[int]],
                  colours: list[int]) -> tuple[list[list[int]], list[int]]:
    """One round of colour refinement, cell by cell.

    cells is the ordered partition, each cell in ascending vertex order,
    and colours[v] the index of v's cell; nbrs[v] lists v's neighbours.
    A cell of two or more vertices splits by the sorted tuple of each
    vertex's neighbour colours, its parts taking its place in increasing
    order of that tuple: the order of a dense rank of (old colour, tuple)
    over all vertices, so a part's new colour is the number of parts made
    before it.  A singleton cell keeps its place and builds no tuple.
    """
    colour_of = colours.__getitem__
    new_cells: list[list[int]] = []
    new_colours = [0] * len(colours)
    for cell in cells:
        if len(cell) == 1:
            new_colours[cell[0]] = len(new_cells)
            new_cells.append(cell)
            continue
        parts: dict[tuple[int, ...], list[int]] = {}
        for v in cell:
            key = tuple(sorted(map(colour_of, nbrs[v])))
            parts.setdefault(key, []).append(v)
        for key in sorted(parts):
            part = parts[key]
            c = len(new_cells)
            for v in part:
                new_colours[v] = c
            new_cells.append(part)
    return new_cells, new_colours


def _refine(nbrs, cells: list[list[int]],
            colours: list[int]) -> tuple[list[list[int]], list[int]]:
    """Stable colour refinement: rounds until one splits no cell, which
    then gives its input back, or until every cell is a singleton."""
    n = len(colours)
    while len(cells) < n:
        new_cells, new_colours = _refine_round(nbrs, cells, colours)
        if len(new_cells) == len(cells):
            break
        cells, colours = new_cells, new_colours
    return cells, colours


def canonical_form(g: Graph) -> str:
    """Canonical graph6 word: equal iff graphs are isomorphic (n <= 16)."""
    return canonical_words([g])[0]


def canonical_words(graphs: Sequence[Graph]) -> list[str]:
    """canonical_form of each of graphs, all on the same n <= 16 vertices,
    their root partitions refined one stack per chunk."""
    if not graphs:
        return []
    return [search[0] for _, search in _searches((g.adj for g in graphs), graphs[0].n)]


# Entries of one (B, n, n) stack, 256 graphs at n = 8: the chunk budget
# of the root kernel here and of harness's survey Laplacians.
_CHUNK_ENTRIES = 2 ** 14


def adjacency_stack(adjs: Sequence[tuple[int, ...]] | np.ndarray, n: int) -> np.ndarray:
    """The 0/1 adjacency matrices of neighbour-mask tuples on n vertices,
    or of the rows of a (B, n) array of masks, as a (B, n, n) int64 stack;
    bit v of a mask is column v."""
    return np.array(adjs, dtype=np.int64)[:, :, None] >> np.arange(n) & 1


def _searches(adjs: Iterable[tuple[int, ...]], n: int) -> Iterator[
        tuple[tuple[int, ...], tuple[str, list[list[int]], list[int]]]]:
    """Each neighbour-mask tuple on n vertices with its _canonical_search,
    in input order, taken in chunks of at most _CHUNK_ENTRIES adjacency
    entries whose root partitions _root_colours refines in one stack."""
    if n > MAX_CANONICAL_N:
        raise ValueError(f"canonical_form limited to n <= {MAX_CANONICAL_N}")
    size = max(1, _CHUNK_ENTRIES // n ** 2)
    adjs = iter(adjs)
    while chunk := list(islice(adjs, size)):
        for adj, colours in zip(chunk, _root_colours(adjacency_stack(chunk, n)).tolist()):
            cells: list[list[int]] = [[] for _ in range(max(colours) + 1)]
            for v, c in enumerate(colours):
                cells[c].append(v)
            yield adj, _canonical_search(adj, cells, colours)


def _dense_ranks(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Per row of a (B, n) array, the dense rank of each entry in its row;
    and the number of distinct entries summed over the rows."""
    rows = np.arange(len(keys))[:, None]
    order = np.argsort(keys, axis=1, kind="stable")
    ranked = keys[rows, order]
    steps = np.zeros(keys.shape, dtype=np.int64)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=steps[:, 1:])
    ranks = np.empty_like(steps)
    ranks[rows, order] = steps
    return ranks, len(keys) + int(steps[:, -1].sum())


def _root_colours(stack: np.ndarray) -> np.ndarray:
    """The root partitions of a (B, n, n) stack of 0/1 adjacency matrices:
    per graph, the colours that _refine reaches from the degree partition
    (cells in increasing degree), colour c being the c-th cell.

    All B graphs refine in lockstep, in _refine_round's order (the module
    docstring says why): a round keys v by the sum over neighbours w of
    n^(n - 1 - colour[w]) and ranks (old colour ascending, key descending)
    in its graph, until no graph gains a colour.  The ranked values are
    below n^(n + 1): int64 when that is below 2^63, Python ints (dtype
    object, same code) otherwise.  Integer matrix products use no BLAS.
    """
    n = stack.shape[-1]
    dtype = np.int64 if n ** (n + 1) < 2 ** 63 else object
    a = stack.astype(dtype)
    place = np.array([n ** (n - 1 - c) for c in range(n)], dtype=dtype)
    colours, cells = _dense_ranks(a @ np.ones(n, dtype=dtype))
    while True:
        keys = (a @ place[colours][:, :, None])[:, :, 0]
        new, new_cells = _dense_ranks(colours.astype(dtype) * n ** n - keys)
        if new_cells == cells:
            return colours
        colours, cells = new, new_cells


def _canonical_search(adj: tuple[int, ...], cells: list[list[int]],
                      colours: list[int]) -> tuple[str, list[list[int]], list[int]]:
    """The canonical word of the graph with neighbour masks adj, the
    automorphisms the search met, and the vertex order whose word it is
    (vertex k of the word is order[k]), from the root partition: cells,
    each in ascending vertex order, and colours[v] the index of v's cell.

    The word is the least graph6 word over the vertex orders that colour
    refinement leaves.  The root is the degree partition (cells in
    increasing degree) refined by _root_colours; a node branches over the
    vertices of its first cell of two or more, individualising v by
    putting [v] just before the rest of its cell and refining again.  A
    leaf's cells are singletons, read in order; each leaf's word is
    compared as a string, which for a fixed n is the order of the bit
    streams.  Automorphisms discovered from equal-word leaves prune
    sibling branches that a known symmetry already covers.  A candidate v
    with a twin u among the vertices tried in its cell is not branched on:
    the transposition (u v) fixes every other vertex, hence the node's
    partition, and maps u's subtree onto v's, so it is recorded in v's
    place.  The automorphisms are returned as generators of a subgroup of
    Aut(g), each as sigma with sigma[v] the image of vertex v.
    """
    n = len(adj)
    if len(cells) == n:  # discrete at the root: the one leaf
        order = [cell[0] for cell in cells]
        return _graph6_word(adj, order), [], order
    nbrs = [_LOW_BITS[mask & 255] + _HIGH_BITS[mask >> 8] for mask in adj]
    best_word: Optional[str] = None
    best_order: Optional[list[int]] = None
    autos: list[list[int]] = []

    def rec(cells: list[list[int]], colours: list[int]) -> None:
        nonlocal best_word, best_order
        for i, target in enumerate(cells):
            if len(target) > 1:
                break
        else:
            order = [cell[0] for cell in cells]
            word = _graph6_word(adj, order)
            if best_word is None or word < best_word:
                best_word, best_order = word, order
            elif word == best_word:
                sigma = [0] * n
                for k in range(n):
                    sigma[best_order[k]] = order[k]
                autos.append(sigma)
            return
        # Orbits of the group generated by the automorphisms that fix every
        # singleton: that group fixes this colouring, so a candidate in the
        # orbit of a tried vertex roots a subtree with the same leaf words.
        fixed = [cell[0] for cell in cells if len(cell) == 1]
        orbit = None  # orbit label per vertex, merged by relabelling
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
            # A twin u of v (same neighbours away from each other): the
            # transposition (u v) is an automorphism fixing every other
            # vertex, so it maps u's subtree onto v's, leaf word for word.
            twin = next((u for u in tried
                         if adj[u] & ~(1 << v) == adj[v] & ~(1 << u)), None)
            if twin is not None:
                sigma = list(range(n))
                sigma[twin], sigma[v] = v, twin
                autos.append(sigma)
                continue
            tried.append(v)
            rest = [w for w in target if w != v]
            split = [c + 1 if c > i else c for c in colours]
            for w in rest:
                split[w] = i + 1
            rec(*_refine(nbrs, cells[:i] + [[v], rest] + cells[i + 1:], split))

    rec(cells, colours)
    assert best_word is not None and best_order is not None
    return best_word, autos, best_order


# -- free trees --------------------------------------------------------------

def _rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """All rooted trees on n vertices as level sequences, decreasing lex.

    Level sequence s: s[0] = 1 and vertex i hangs off the most recent
    vertex at level s[i] - 1.  Successor rule: truncate at the rightmost
    entry above 2 and tile the block starting at its level-predecessor.
    """
    if n == 1:
        yield [1]
        return
    s = list(range(1, n + 1))
    while True:
        yield s[:]
        p = max((i for i in range(n) if s[i] > 2), default=None)
        if p is None:
            return
        q = next(i for i in range(p - 1, -1, -1) if s[i] == s[p] - 1)
        block = s[q:p]
        s = s[:p]
        while len(s) < n:
            s.extend(block[:n - len(s)])


def _tree_from_levels(levels: list[int]) -> Graph:
    latest = {1: 0}
    edges = []
    for i in range(1, len(levels)):
        edges.append((i, latest[levels[i] - 1]))
        latest[levels[i]] = i
    return Graph(len(levels), edges)


def _centres(g: Graph) -> list[int]:
    """The one or two vertices left after stripping a tree's leaves layer
    by layer; every automorphism fixes them."""
    degree = [g.degree(u) for u in range(g.n)]
    layer = [u for u in range(g.n) if degree[u] <= 1]
    left = g.n
    while left > 2:
        left -= len(layer)
        inner = []
        for u in layer:
            for w in g.neighbours(u):
                degree[w] -= 1
                if degree[w] == 1:
                    inner.append(w)
        layer = inner
    return layer


def _ahu_string(g: Graph, root: int, banned: int) -> str:
    subs = sorted(_ahu_string(g, w, root) for w in g.neighbours(root) if w != banned)
    return "(" + "".join(subs) + ")"


def _free_tree_certificate(g: Graph) -> str:
    """AHU string of the tree rooted at its centre; two centres give the
    sorted strings of the two halves, joined by "|"."""
    cs = _centres(g)
    if len(cs) == 1:
        return _ahu_string(g, cs[0], -1)
    a, b = cs
    return "|".join(sorted((_ahu_string(g, a, b), _ahu_string(g, b, a))))


def gen_free_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices."""
    if n < 1 or n > MAX_TREE_N:
        raise ValueError(f"tree generation limited to 1 <= n <= {MAX_TREE_N}")

    def produce():
        seen = set()
        for levels in _rooted_level_sequences(n):
            t = _tree_from_levels(levels)
            cert = _free_tree_certificate(t)
            if cert not in seen:
                seen.add(cert)
                yield t

    return produce()


# -- connected graphs --------------------------------------------------------

def _orbit_least_masks(new: int, autos: list[list[int]]) -> np.ndarray:
    """The neighbour masks 1..2^new - 1 that are least in their orbit under
    the group that the permutations in autos generate, in increasing order,
    as an int64 array.

    A generator sigma maps mask m to the sum of 2^sigma[v] over the bits v
    of m: one integer product of the masks' bits with 2^sigma gives every
    image.  Each mask starts labelled by itself; a round lowers each label
    to the least label among its images, then replaces each label by the
    label of that mask, until a round changes nothing.  A label stays in
    its mask's orbit and at most the mask.  At the fixed point a label is
    at most its images' labels, so, as each generator has finite order,
    the label is constant on the orbit, and it is the orbit's least mask.
    """
    masks = np.arange(1 << new)
    if autos:
        images = (masks[:, None] >> np.arange(new) & 1) @ (1 << np.array(autos)).T
        label = masks
        while True:
            lowered = np.minimum(label, label[images].min(axis=1))
            lowered = lowered[lowered]
            if (lowered == label).all():
                break
            label = lowered
        masks = np.flatnonzero(label == masks)
    return masks[1:]


def _non_cut_bits(adj: tuple[int, ...]) -> int:
    """Bit w set when deleting vertex w leaves the rest of the graph with
    neighbour masks adj connected: a search from the least other vertex
    reaches them all."""
    bits = 0
    for w in range(len(adj)):
        rest = (1 << len(adj)) - 1 & ~(1 << w)
        reach = frontier = rest & -rest
        while frontier:
            grown = 0
            for v in _LOW_BITS[frontier & 255] + _HIGH_BITS[frontier >> 8]:
                grown |= adj[v]
            frontier = grown & rest & ~reach
            reach |= frontier
        if reach == rest:
            bits |= 1 << w
    return bits


def _rows(keys: np.ndarray) -> np.ndarray:
    """Each last-axis row of an int64 array as one value that compares
    and sorts by its bytes."""
    keys = np.ascontiguousarray(keys)
    return keys.view(np.dtype((np.void, keys.shape[-1] * keys.itemsize)))[..., 0]


def _invariant_table(parents: Sequence[tuple[int, ...]], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree invariant of each graph on m vertices, as _rows of its
    sorted vertex keys, sorted; and the index in parents of each entry,
    the later of equal entries last.  A vertex's key is its degree times
    m^m plus the sum over its neighbours x of m^deg(x): the count vector
    of its neighbours' degrees in base m, every count below m."""
    size = max(1, _CHUNK_ENTRIES // m ** 2)
    place = m ** np.arange(m)
    rows = []
    for k in range(0, len(parents), size):
        a = adjacency_stack(parents[k:k + size], m)
        deg = a.sum(axis=-1)
        keys = deg * m ** m + (a @ place[deg][:, :, None])[:, :, 0]
        rows.append(_rows(np.sort(keys, kind="stable")))
    table = np.concatenate(rows)
    owner = np.argsort(table, kind="stable")
    return table[owner], owner


def _known(a: np.ndarray, index: np.ndarray, non_cut: np.ndarray,
           table: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Per child of a (B, n, n) stack, whether some deletion c - w shows
    that an earlier parent already produced it.  index[b] is the child's
    parent number and bit w of non_cut[b] marks a non-cut vertex w of
    that parent.  c - w is connected when w is such a vertex and the new
    vertex n - 1 keeps a neighbour; its degree invariant, computed as in
    _invariant_table from the degrees of c less the column of w, is
    looked up in (table, owner), and it shows the child known when every
    parent with that invariant is numbered below index[b]."""
    n = a.shape[-1]
    m = n - 1
    w = np.arange(m)
    deg = a.sum(axis=-1)[:, None, :] - a[:, :m, :]  # (B, m, n): degrees in c - w
    usable = (non_cut[:, None] >> w & 1 == 1) & (deg[:, :, m] > 0)
    keys = (m ** np.arange(n))[deg]
    keys[:, w, w] = 0
    keys = keys @ a
    keys += np.multiply(deg, m ** m, out=deg)
    keys[:, w, w] = -1  # w itself, sorted first and dropped
    keys.sort(kind="stable")
    rows = _rows(keys[:, :, 1:])
    at = np.searchsorted(table, rows, side="right") - 1  # -1 meets the last row, above rows
    return (usable & (table[at] == rows) & (owner[at] < index[:, None])).any(axis=1)


class CanonicalGraph(Graph):
    """A graph in canonical labelling that carries its canonical graph6
    word, the word that encodes the graph itself: what generation keeps,
    so the survey reads each word rather than writing it again."""

    __slots__ = ("graph6",)

    @classmethod
    def _worded(cls, n: int, adj: tuple[int, ...], word: str) -> "CanonicalGraph":
        g = cls._of(n, adj)
        g.graph6 = word
        return g


def _relabelled(adjs: list[tuple[int, ...]], orders: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """The neighbour masks of each graph adjs[k] read in the vertex order
    orders[k]: vertex i of the result is vertex orders[k][i] of adjs[k]."""
    a = adjacency_stack(adjs, n)
    order = np.array(orders)
    rows = np.arange(len(adjs))[:, None, None]
    a = a[rows, order[:, :, None], order[:, None, :]]
    return list(map(tuple, (a << np.arange(n)).sum(axis=-1).tolist()))


def _connected_level(prev: list[Graph], n: int) -> list[CanonicalGraph]:
    """Extend each (n-1)-vertex connected graph by one vertex, dedup by
    canonical form.  Every connected n-vertex graph has a non-cut vertex,
    so extending connected parents with nonempty neighbour sets is complete.
    prev must hold one graph of every isomorphism class of connected graphs
    on n - 1 vertices, which the pretest below relies on.

    Orbit rule: a parent's neighbour mask is tried only when it is the least
    mask in its orbit under the group that the automorphisms returned by
    the parent's canonical search generate (met at leaves, or the
    transpositions of skipped twins).  The rule holds for any subgroup of
    Aut(parent): another mask of that orbit gives a child isomorphic to
    the least mask's child, which this parent's loop has already tried, so
    its word is already in seen: skipping it drops no word and moves none.
    A child's masks are the parent's, each row in the mask gaining the new
    vertex, with the mask itself as the new row: one array row per child,
    built for all of a parent's tried masks at once.

    Pretest: a child c of parent number i is not searched when, for some
    non-cut vertex w of the parent such that the new vertex has a
    neighbour besides w, the degree invariant of c - w (_invariant_table)
    belongs only to parents numbered below i.  c - w is connected on n - 1
    vertices, so it is isomorphic to one parent q, numbered below i; c is
    c - w with one vertex added, so some mask of q, and by the orbit rule
    a tried one, gives a child isomorphic to c, whose word is in seen
    before parent i's loop starts (by induction on the order, also when
    that child was skipped in turn).  Skipping c is therefore searching
    it and finding its word in seen.  The children stream through the
    test (_known) in chunks of _CHUNK_ENTRIES adjacency entries, in
    integers only, and only its survivors become mask tuples.

    The surviving children, in the order of their (parent, mask) pairs,
    and the parents before them, are searched through _searches, one root
    stack per chunk; the searches are independent, so the kept words and
    their order are those of searching child by child.  A new child is
    kept in canonical labelling, its masks relabelled by the order the
    search read its word in (one array pass per chunk of kept children),
    as a CanonicalGraph carrying that word: the word encodes the kept
    graph.
    """
    seen: set[str] = set()
    out: list[CanonicalGraph] = []
    new = n - 1
    size = max(1, _CHUNK_ENTRIES // n ** 2)
    table, owner = _invariant_table([parent.adj for parent in prev], new)

    def children() -> Iterator[np.ndarray]:
        """The children in (parent, mask) order, in chunks of `size` rows:
        a child's n neighbour masks, its parent's number and the bits of
        that parent's non-cut vertices."""
        pending, count = [], 0
        for i, (base, (_, autos, _)) in enumerate(_searches((parent.adj for parent in prev), new)):
            masks = _orbit_least_masks(new, autos)
            rows = np.empty((len(masks), n + 2), dtype=np.int64)
            rows[:, :new] = np.array(base) | (masks[:, None] >> np.arange(new) & 1) << new
            rows[:, new] = masks
            rows[:, n] = i
            rows[:, n + 1] = _non_cut_bits(base)
            pending.append(rows)
            count += len(rows)
            if count >= size:
                rows = np.concatenate(pending)
                cut = count - count % size
                yield from np.split(rows[:cut], cut // size)
                pending, count = [rows[cut:]], count - cut
        if count:
            yield np.concatenate(pending)

    def unknown() -> Iterator[tuple[int, ...]]:
        for rows in children():
            known = _known(adjacency_stack(rows[:, :n], n), rows[:, n], rows[:, n + 1],
                           table, owner)
            yield from map(tuple, rows[~known, :n].tolist())

    kept: list[tuple[tuple[int, ...], list[int], str]] = []

    def keep() -> None:
        adjs, orders, words = zip(*kept)
        out.extend(map(partial(CanonicalGraph._worded, n), _relabelled(adjs, orders, n), words))
        kept.clear()

    for adj, (key, _, order) in _searches(unknown(), n):
        if key not in seen:
            seen.add(key)
            kept.append((adj, order, key))
            if len(kept) == size:
                keep()
    if kept:
        keep()
    return out


_connected_cache: dict[int, list[CanonicalGraph]] = {}


def _connected_list(n: int) -> list[CanonicalGraph]:
    if n not in _connected_cache:
        if n == 1:
            _connected_cache[1] = [CanonicalGraph._worded(1, (0,), "@")]  # graph6 of K1
        else:
            _connected_cache[n] = _connected_level(_connected_list(n - 1), n)
    return _connected_cache[n]


def gen_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n
    vertices, in canonical labelling, deterministic order."""
    if n < 1 or n > MAX_CONNECTED_N:
        raise ValueError(f"connected generation limited to 1 <= n <= {MAX_CONNECTED_N}")
    return iter(_connected_list(n))


# -- file ingestion ----------------------------------------------------------

def stream_from_file(path: str) -> Iterator[Graph]:
    """Graphs from a graph6 file in file order, no dedup; parse errors name
    the line number.  Latin-1 maps every byte to the code point of its
    value, so a non-ASCII byte reaches parse_graph6 and fails on its line."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)

    def produce():
        with open(path, "r", encoding="latin-1") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not _graph6_payload(line)[0]:
                    continue
                try:
                    yield parse_graph6(line)
                except Graph6ParseError as exc:
                    exc.args = (f"{path}:{lineno}: {exc}",)
                    raise

    return produce()
