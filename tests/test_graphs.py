import pytest
from hypothesis import given, settings, strategies as st

from pstlab.generate import canonical_form
from pstlab.graphs import (
    Graph,
    Graph6ParseError,
    adjacency,
    bipartition,
    complete_graph,
    complete_minus_edge,
    construct,
    cycle_graph,
    find_twins,
    hypercube,
    laplacian,
    one_sum_chain,
    parse_graph6,
    path_graph,
    signless_laplacian,
    star_graph,
    write_graph6,
)

from oracles import two_colourable_brute


def random_graph_strategy(max_n=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        return Graph(n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1])
    return build()


class TestGraph6:
    def test_single_vertex(self):
        assert write_graph6(Graph(1)) == "@"
        assert parse_graph6("@") == Graph(1)

    def test_k2(self):
        assert parse_graph6("A_") == Graph(2, [(0, 1)])
        assert write_graph6(Graph(2, [(0, 1)])) == "A_"

    def test_k4(self):
        assert parse_graph6("C~") == complete_graph(4)
        assert write_graph6(complete_graph(4)) == "C~"

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])

    @given(random_graph_strategy(14))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, g):
        assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_large(self):
        g = cycle_graph(62)
        assert parse_graph6(write_graph6(g)) == g

    def test_bad_character_names_offset(self):
        for word, offset in (("C" + chr(20), 1), ("A\xff", 1), ("A_\xa0", 2),
                             ("A\u20ac", 1)):
            with pytest.raises(Graph6ParseError) as exc:
                parse_graph6(word)
            assert exc.value.offset == offset

    def test_offset_counts_stripped_whitespace_and_header(self):
        for text, offset in ((">>graph6<<  A\xff", 13), ("  A\xff\n", 3),
                             ("\t>>graph6<<A_\xa0", 13), (" A_x", 3), (" G", 2)):
            with pytest.raises(Graph6ParseError) as exc:
                parse_graph6(text)
            assert exc.value.offset == offset
            assert f"(byte offset {offset})" in str(exc.value)
        assert parse_graph6(">>graph6<< A_\n") == Graph(2, [(0, 1)])

    def test_truncated(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("G")  # n=8 needs edge bytes

    def test_trailing_garbage(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("A__")

    def test_empty(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")


class TestMatrices:
    def test_p2_laplacian(self):
        assert laplacian(path_graph(2)) == [[1, -1], [-1, 1]]

    def test_k3_laplacian(self):
        assert laplacian(complete_graph(3)) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]

    def test_c4_laplacian_circulant(self):
        lap = laplacian(cycle_graph(4))
        for i in range(4):
            assert lap[i][i] == 2
            assert lap[i][(i + 1) % 4] == -1 and lap[i][(i - 1) % 4] == -1

    def test_p3_adjacency(self):
        assert adjacency(path_graph(3)) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_p2_signless(self):
        assert signless_laplacian(path_graph(2)) == [[1, 1], [1, 1]]

    @given(random_graph_strategy(10))
    @settings(max_examples=100, deadline=None)
    def test_laplacian_annihilates_all_ones(self, g):
        lap = laplacian(g)
        assert all(sum(row) == 0 for row in lap)

    def test_sign_similarity_c4(self):
        g = cycle_graph(4)
        bip = bipartition(g)
        sigma = [1 if i in bip.class_a else -1 for i in range(4)]
        lap = laplacian(g)
        conj = [[sigma[i] * lap[i][j] * sigma[j] for j in range(4)]
                for i in range(4)]
        assert conj == signless_laplacian(g)

    def test_sign_similarity_all_bipartite(self, corpus6):
        for g in corpus6:
            bip = bipartition(g)
            if bip is None:
                continue
            sigma = [1 if i in bip.class_a else -1 for i in range(g.n)]
            lap = laplacian(g)
            conj = [[sigma[i] * lap[i][j] * sigma[j] for j in range(g.n)]
                    for i in range(g.n)]
            assert conj == signless_laplacian(g)


class TestTwins:
    def test_c4_antipodal(self):
        pairs = find_twins(cycle_graph(4))
        assert {(p.u, p.v) for p in pairs} == {(0, 2), (1, 3)}
        assert all(not p.adjacent and p.k == 2 for p in pairs)

    def test_k4_minus_edge(self):
        pairs = {(p.u, p.v): p for p in find_twins(complete_minus_edge(4))}
        assert (0, 1) in pairs and not pairs[(0, 1)].adjacent and pairs[(0, 1)].k == 2
        assert (2, 3) in pairs and pairs[(2, 3)].adjacent and pairs[(2, 3)].k == 2

    def test_p4_has_none(self):
        assert find_twins(path_graph(4)) == []

    def test_star_leaves(self):
        pairs = find_twins(star_graph(3))
        assert {(p.u, p.v) for p in pairs} == {(1, 2), (1, 3), (2, 3)}
        assert all(p.k == 1 and not p.adjacent for p in pairs)

    @given(random_graph_strategy(8), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_stable_under_relabelling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = g.relabel(perm)
        base = {(min(perm[p.u], perm[p.v]), max(perm[p.u], perm[p.v]),
                 p.adjacent, p.k) for p in find_twins(g)}
        moved = {(p.u, p.v, p.adjacent, p.k) for p in find_twins(relabelled)}
        assert base == moved


class TestBipartition:
    def test_c4(self):
        bip = bipartition(cycle_graph(4))
        assert {frozenset(bip.class_a), frozenset(bip.class_b)} == \
            {frozenset({0, 2}), frozenset({1, 3})}

    def test_c5_not_bipartite(self):
        assert bipartition(cycle_graph(5)) is None

    def test_trees_bipartite(self):
        for n in range(2, 8):
            assert bipartition(path_graph(n)) is not None
        assert bipartition(star_graph(5)) is not None

    def test_matches_brute_force_colouring(self, corpus6):
        for g in corpus6:
            bip = bipartition(g)
            assert (bip is not None) == two_colourable_brute(g)
            if bip is None:
                continue
            assert bip.class_a | bip.class_b == frozenset(range(g.n))
            assert not bip.class_a & bip.class_b
            for u, v in g.edges:
                assert (u in bip.class_a) != (v in bip.class_a)


class TestConstructions:
    def test_q2_is_c4(self):
        assert canonical_form(hypercube(2)) == canonical_form(cycle_graph(4))

    def test_q3_shape(self):
        q3 = hypercube(3)
        assert q3.n == 8 and q3.edge_count() == 12
        assert all(q3.degree(u) == 3 for u in range(8))

    def test_one_sum_two_triangles(self):
        g = one_sum_chain([3, 3])
        assert g.n == 5 and g.edge_count() == 6
        # the glue vertex is a cut vertex
        cut = [u for u in range(5) if g.degree(u) == 4]
        assert len(cut) == 1

    def test_one_sum_rejects_even_cycles(self):
        with pytest.raises(ValueError):
            one_sum_chain([4])

    def test_construct_dispatch(self):
        assert construct("cycle", [5]) == cycle_graph(5)
        assert construct("path", [3]) == path_graph(3)
        assert construct("complete", [4]) == complete_graph(4)
        assert construct("star", [3]) == star_graph(3)
        assert construct("hypercube", [3]) == hypercube(3)
        assert construct("one_sum", [3, 3]) == one_sum_chain([3, 3])

    def test_construct_errors(self):
        with pytest.raises(ValueError):
            construct("moebius", [5])
        with pytest.raises(ValueError):
            construct("cycle", [2])

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])
        with pytest.raises(ValueError):
            Graph(0)
        with pytest.raises(ValueError):
            Graph(63)
