"""Deterministic graph enumeration up to isomorphism, plus corpus ingestion.

Three sources feed the survey harness: free trees from a level-sequence
successor, connected graphs from vertex augmentation with canonical
deduplication, and graph6 files.  Every generator yields one representative
per isomorphism class in a deterministic order.  The canonical form is the
least graph6 word that a colour-refinement search reaches; the words come
from graphs.py's one graph6 encoder, so this module packs no bits itself.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional

from .graphs import Graph, Graph6ParseError, GRAPH6_HEADER, _graph6_word, parse_graph6

MAX_CANONICAL_N = 16
MAX_TREE_N = 16
MAX_CONNECTED_N = 8


# -- canonical form ----------------------------------------------------------

def _refine(adj, n: int, colours: list[int]) -> list[int]:
    """Stable colour refinement: colour + multiset of neighbour colours."""
    while True:
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
        new = [ids[s] for s in sigs]
        if new == colours:
            return colours
        colours = new


def canonical_form(g: Graph) -> str:
    """Canonical graph6 word: equal iff graphs are isomorphic (n <= 16).

    The word is the least graph6 word over the vertex orders that colour
    refinement leaves: ties branch over the first non-singleton cell, and
    each leaf's word is compared as a string, which for a fixed n is the
    order of the bit streams.  Automorphisms discovered from equal-word
    leaves prune sibling branches that a known symmetry already covers.
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
        fixed = [v for v, c in enumerate(colours) if len(cells[c]) == 1]
        tried: list[int] = []
        for v in target:
            if any(sigma[u] == v and all(sigma[w] == w for w in fixed)
                   for sigma in autos for u in tried):
                continue
            tried.append(v)
            split = [2 * c for c in colours]
            for w in target:
                if w != v:
                    split[w] += 1
            rec(_refine(adj, n, split))

    rec(_refine(adj, n, [0] * n))
    assert best_word is not None
    return best_word


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


def _centroids(g: Graph) -> list[int]:
    """One or two vertices minimizing the largest remaining component."""
    n = g.n
    size = [1] * n
    order: list[int] = []
    seen = [False] * n
    stack = [(0, -1)]
    parents = [-1] * n
    while stack:
        u, par = stack.pop()
        seen[u] = True
        order.append(u)
        parents[u] = par
        for w in g.neighbours(u):
            if not seen[w]:
                stack.append((w, u))
    for u in reversed(order):
        if parents[u] != -1:
            size[parents[u]] += size[u]
    best, arg = None, []
    for u in range(n):
        heaviest = n - size[u]
        for w in g.neighbours(u):
            if parents[w] == u:
                heaviest = max(heaviest, size[w])
        if best is None or heaviest < best:
            best, arg = heaviest, [u]
        elif heaviest == best:
            arg.append(u)
    return arg


def _ahu_string(g: Graph, root: int, banned: int) -> str:
    subs = sorted(_ahu_string(g, w, root) for w in g.neighbours(root) if w != banned)
    return "(" + "".join(subs) + ")"


def _free_tree_certificate(g: Graph) -> str:
    cs = _centroids(g)
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

def _connected_level(prev: list[Graph], n: int) -> list[Graph]:
    """Extend each (n-1)-vertex connected graph by one vertex, dedup by
    canonical form.  Every connected n-vertex graph has a non-cut vertex,
    so extending connected parents with nonempty neighbour sets is complete.
    """
    seen: set[str] = set()
    out: list[Graph] = []
    new = n - 1
    for parent in prev:
        base = list(parent.edges)
        for mask in range(1, 1 << new):
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
    the line number."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)

    def produce():
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                word = line.strip()
                if word.startswith(GRAPH6_HEADER):
                    word = word[len(GRAPH6_HEADER):].strip()
                if not word:
                    continue
                try:
                    yield parse_graph6(word)
                except Graph6ParseError as exc:
                    raise Graph6ParseError(
                        f"{path}:{lineno}: {exc.args[0]}", exc.offset) from None

    return produce()
