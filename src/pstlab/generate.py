"""Deterministic graph enumeration up to isomorphism, plus corpus ingestion.

Three sources feed the survey harness: free trees from a level-sequence
successor, connected graphs from vertex augmentation with canonical
deduplication, and graph6 files.  Every generator yields one representative
per isomorphism class in a deterministic order.  Augmentation tries a
parent's neighbour masks in increasing order, and only the least mask of
each orbit under the parent's automorphisms: the other masks give children
isomorphic to one already tried, so the emitted words and their order are
those of trying every mask.  The canonical form is the least graph6 word
that a colour-refinement search reaches; the words come from graphs.py's
one graph6 encoder, so this module packs no bits itself.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional

from .graphs import Graph, Graph6ParseError, _graph6_payload, _graph6_word, parse_graph6

MAX_CANONICAL_N = 16
MAX_TREE_N = 16
MAX_CONNECTED_N = 8


# -- canonical form ----------------------------------------------------------

def _refine_round(adj, n: int, colours: list[int]) -> list[int]:
    """One round of colour refinement: each vertex's new colour is the
    dense rank of its colour and the multiset of its neighbours' colours."""
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


def _refine(adj, n: int, colours: list[int]) -> list[int]:
    """Stable colour refinement.  A discrete colouring (n distinct dense
    ranks, ordered by the old colours first) is returned at once: the next
    round would give it back unchanged."""
    while True:
        new = _refine_round(adj, n, colours)
        if new == colours or len(set(new)) == n:
            return new
        colours = new


def canonical_form(g: Graph) -> str:
    """Canonical graph6 word: equal iff graphs are isomorphic (n <= 16)."""
    return _canonical_search(g)[0]


def _canonical_search(g: Graph) -> tuple[str, list[list[int]]]:
    """The canonical word of g and the automorphisms the search met.

    The word is the least graph6 word over the vertex orders that colour
    refinement leaves: ties branch over the first non-singleton cell, and
    each leaf's word is compared as a string, which for a fixed n is the
    order of the bit streams.  Automorphisms discovered from equal-word
    leaves prune sibling branches that a known symmetry already covers;
    each is returned as sigma with sigma[v] the image of vertex v.
    """
    if g.n > MAX_CANONICAL_N:
        raise ValueError(f"canonical_form limited to n <= {MAX_CANONICAL_N}")
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
        # Orbits of the group generated by the automorphisms that fix every
        # singleton: that group fixes this colouring, so a candidate in the
        # orbit of a tried vertex roots a subtree with the same leaf words.
        fixed = [v for v, c in enumerate(colours) if len(cells[c]) == 1]
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
            tried.append(v)
            split = [2 * c for c in colours]
            for w in target:
                if w != v:
                    split[w] += 1
            rec(_refine(adj, n, split))

    rec(_refine(adj, n, [0] * n))
    assert best_word is not None
    return best_word, autos


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

def _orbit_least_masks(new: int, autos: list[list[int]]) -> list[int]:
    """The neighbour masks 1..2^new - 1 that are least in their orbit under
    the group that the permutations in autos generate, in increasing order.

    A union-find over masks merges each mask with its image under every
    generator and keeps the least mask of a class as its root; an image is
    that of the mask without its lowest bit plus the image of that bit.
    """
    root = list(range(1 << new))

    def find(m: int) -> int:
        while root[m] != m:
            root[m] = root[root[m]]
            m = root[m]
        return m

    for sigma in autos:
        image = [0] * (1 << new)
        for mask in range(1, 1 << new):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << sigma[low.bit_length() - 1]
            a, b = find(mask), find(image[mask])
            if a != b:
                root[max(a, b)] = min(a, b)
    return [m for m in range(1, 1 << new) if find(m) == m]


def _connected_level(prev: list[Graph], n: int) -> list[Graph]:
    """Extend each (n-1)-vertex connected graph by one vertex, dedup by
    canonical form.  Every connected n-vertex graph has a non-cut vertex,
    so extending connected parents with nonempty neighbour sets is complete.

    Orbit rule: a parent's neighbour mask is tried only when it is the least
    mask in its orbit under the automorphisms that the parent's canonical
    search met.  Another mask of that orbit gives a child isomorphic to the
    least mask's child, which this parent's loop has already tried, so its
    word is already in seen: skipping it drops no word and moves none.
    """
    seen: set[str] = set()
    out: list[Graph] = []
    new = n - 1
    for parent in prev:
        base = list(parent.edges)
        for mask in _orbit_least_masks(new, _canonical_search(parent)[1]):
            edges = base + [(u, new) for u in range(new) if mask >> u & 1]
            child = Graph(n, edges)
            key = canonical_form(child)
            if key not in seen:
                seen.add(key)
                out.append(parse_graph6(key))
    return out


_connected_cache: dict[int, list[Graph]] = {}


def _connected_list(n: int) -> list[Graph]:
    if n not in _connected_cache:
        if n == 1:
            _connected_cache[1] = [Graph(1)]
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
