"""Simple undirected graphs: graph6 codec, matrices, and structural tests.

Vertices are dense indices 0..n-1 with n <= 62 (one graph6 size byte).
Adjacency is kept as one bitmask per vertex, which makes twin detection,
connectivity, and the n=8 corpus sweeps cheap.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterable, Optional

MAX_VERTICES = 62
GRAPH6_HEADER = ">>graph6<<"
_NOT_GRAPH6 = re.compile("[^?-~]")  # any code point outside 63..126


class Graph6ParseError(ValueError):
    """Malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1 or n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)
        self.n = n

    @classmethod
    def _of(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """The graph on n vertices with neighbour masks adj, which the
        caller built symmetric, loop-free and within range; skips the
        edge-by-edge checks of __init__."""
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges (u, v), u < v, built from adj on each call."""
        return frozenset((u, v) for u in range(self.n) for v in range(u + 1, self.n)
                         if self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(bin(a).count("1") for a in self.adj) // 2

    def degree(self, u: int) -> int:
        return bin(self.adj[u]).count("1")

    def neighbours(self, u: int) -> list[int]:
        return [v for v in range(self.n) if self.adj[u] >> v & 1]

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            u = 0
            f = frontier
            while f:
                if f & 1:
                    nxt |= self.adj[u]
                f >>= 1
                u += 1
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def relabel(self, perm: list[int]) -> "Graph":
        """New graph with vertex u renamed perm[u]."""
        return Graph(self.n, ((perm[u], perm[v]) for u, v in self.edges))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class TwinPair:
    """Vertices with identical neighbourhoods away from each other."""
    u: int
    v: int
    adjacent: bool
    common_neighbours: frozenset[int]

    @property
    def k(self) -> int:
        return len(self.common_neighbours)

    @property
    def sigma(self) -> int:
        return 1 if self.adjacent else 0


@dataclass(frozen=True)
class Bipartition:
    class_a: frozenset[int]
    class_b: frozenset[int]

    def side_of(self, u: int) -> int:
        return 0 if u in self.class_a else 1


# -- graph6 ------------------------------------------------------------------

def _graph6_payload(text: str) -> tuple[str, int]:
    """The graph6 word in text, with surrounding whitespace and an optional
    '>>graph6<<' header removed, and the offset in text where it starts."""
    s = text.lstrip(string.whitespace)  # str.strip() would also drop U+00A0
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].lstrip(string.whitespace)
    return s.rstrip(string.whitespace), len(text) - len(s)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 word (optional '>>graph6<<' prefix tolerated).
    Error offsets count from the start of text."""
    s, base = _graph6_payload(text)
    if not s:
        raise Graph6ParseError("empty graph6 word", base)
    bad = _NOT_GRAPH6.search(s)
    if bad:
        raise Graph6ParseError(
            f"code point {ord(bad.group())} outside graph6 range 63..126",
            base + bad.start())
    data = s.encode("ascii")
    n = data[0] - 63
    if n == 63:
        raise Graph6ParseError("multi-byte vertex counts (n > 62) unsupported", base)
    if n < 1:
        raise Graph6ParseError("graph6 word encodes zero vertices", base)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 < need:
        raise Graph6ParseError(
            f"truncated edge data: need {need} bytes, have {len(data) - 1}",
            base + len(data))
    if len(data) - 1 > need:
        raise Graph6ParseError("trailing garbage after edge data", base + 1 + need)
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[1 + bit // 6] - 63
            if byte >> (5 - bit % 6) & 1:
                edges.append((i, j))
            bit += 1
    return Graph(n, edges)


def _graph6_word(adj, order) -> str:
    """graph6 word of the graph whose vertex k is vertex order[k] of adj.

    For a fixed n the words compare as strings in the order of their bit
    streams, which is what the canonical search minimizes.
    """
    n = len(order)
    out = [n + 63]
    acc = 0
    nbits = 0
    for j in range(1, n):
        row = adj[order[j]]
        for i in range(j):
            acc = (acc << 1) | (row >> order[i] & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def write_graph6(g: Graph) -> str:
    """graph6 encoding of g's labelled edge set."""
    return _graph6_word(g.adj, range(g.n))


# -- matrices ----------------------------------------------------------------

def adjacency(g: Graph) -> list[list[int]]:
    return [[g.adj[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]


def laplacian(g: Graph) -> list[list[int]]:
    """Degree matrix minus adjacency matrix."""
    m = [[-(g.adj[i] >> j & 1) for j in range(g.n)] for i in range(g.n)]
    for i in range(g.n):
        m[i][i] = g.degree(i)
    return m


def signless_laplacian(g: Graph) -> list[list[int]]:
    """Degree matrix plus adjacency matrix."""
    m = [[g.adj[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]
    for i in range(g.n):
        m[i][i] = g.degree(i)
    return m


# -- structural predicates ---------------------------------------------------

def find_twins(g: Graph) -> list[TwinPair]:
    """All unordered pairs whose neighbourhoods agree away from the pair."""
    out = []
    for u in range(g.n):
        mask_u = g.adj[u]
        for v in range(u + 1, g.n):
            pair = (1 << u) | (1 << v)
            if (mask_u & ~pair) == (g.adj[v] & ~pair):
                common = mask_u & g.adj[v]
                out.append(TwinPair(
                    u, v, bool(mask_u >> v & 1),
                    frozenset(w for w in range(g.n) if common >> w & 1)))
    return out


def bipartition(g: Graph) -> Optional[Bipartition]:
    """Two-colouring by breadth-first layering; None when an odd cycle exists."""
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in g.neighbours(u):
                if colour[v] == -1:
                    colour[v] = colour[u] ^ 1
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return None
    return Bipartition(
        frozenset(i for i, c in enumerate(colour) if c == 0),
        frozenset(i for i, c in enumerate(colour) if c == 1))


# -- standard constructions --------------------------------------------------

def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])

def complete_graph(n: int) -> Graph:
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))

def complete_minus_edge(n: int) -> Graph:
    if n < 2:
        raise ValueError("need at least 2 vertices to delete an edge")
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)
                     if (i, j) != (0, 1)))

def star_graph(m: int) -> Graph:
    """K_{1,m}: centre 0 with m leaves."""
    if m < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(m + 1, ((0, i) for i in range(1, m + 1)))

def hypercube(k: int) -> Graph:
    """Iterated cartesian product of the one-edge graph, 2^k vertices."""
    if k < 1 or k > 5:
        raise ValueError("hypercube dimension must be 1..5")
    n = 1 << k
    return Graph(n, ((x, x ^ (1 << b)) for x in range(n) for b in range(k)
                     if x < x ^ (1 << b)))

def one_sum_chain(block_sizes: list[int]) -> Graph:
    """Chain of blocks glued at single shared vertices.

    Each block is an odd cycle (size >= 3, odd) or a single edge (size 2);
    block i+1 shares its first vertex with the last-added vertex of block i.
    Spanning-tree counts multiply across blocks, so odd blocks keep the
    total odd.
    """
    if not block_sizes:
        raise ValueError("need at least one block")
    edges: list[tuple[int, int]] = []
    n = 1
    glue = 0
    for size in block_sizes:
        if size == 2:
            edges.append((glue, n))
            glue = n
            n += 1
        elif size >= 3 and size % 2 == 1:
            ring = [glue] + list(range(n, n + size - 1))
            edges.extend((ring[i], ring[(i + 1) % size]) for i in range(size))
            glue = ring[-1]
            n += size - 1
        else:
            raise ValueError(f"block size {size} is neither 2 nor an odd cycle length")
    return Graph(n, edges)


_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "complete_minus_edge": complete_minus_edge,
    "star": star_graph,
    "hypercube": hypercube,
}


def construct(name: str, params: list[int]) -> Graph:
    """Build a named family member, e.g. construct('cycle', [4])."""
    if name == "one_sum":
        return one_sum_chain(params)
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; know "
                         f"{sorted(_FAMILIES) + ['one_sum']}")
    if len(params) != 1:
        raise ValueError(f"family {name!r} takes exactly one parameter")
    return _FAMILIES[name](params[0])
