import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstlab import generate
from pstlab.generate import (
    CanonicalGraph,
    _connected_level,
    _orbit_least_masks,
    _refine,
    _refine_round,
    _root_colours,
    _searches,
    canonical_form,
    gen_connected_graphs,
    gen_free_trees,
    stream_from_file,
)
from pstlab.graphs import (
    Graph,
    Graph6ParseError,
    complete_graph,
    cycle_graph,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)

from oracles import (
    automorphism_count_brute,
    canonical_search_by_rounds,
    connected_graph_count_brute,
    connected_level_all_masks,
    free_tree_count_prufer,
    free_tree_counts_otter,
    orbit_least_masks_union_find,
    permutation_group_order,
    rooted_tree_counts,
)

# frozen from the Prufer oracle (n <= 7) and the rooted-tree recurrence
FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
                    10: 106, 11: 235, 12: 551}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def graph_strategy(max_n=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        return Graph(n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1])
    return build()


@st.composite
def graph_stacks(draw, max_n=16):
    """Up to six graphs on one n <= max_n vertices, each with edge density
    about 1/4, 1/2 or 3/4: the second mask is and-ed in, or or-ed in."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edge_masks = st.integers(0, (1 << len(pairs)) - 1)
    out = []
    for _ in range(draw(st.integers(1, 6))):
        mask, other = draw(edge_masks), draw(edge_masks)
        mask = draw(st.sampled_from([mask & other, mask, mask | other]))
        out.append(Graph(n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1]))
    return out


def search(g):
    """The canonical search of one graph: word, automorphisms, order."""
    return next(_searches([g.adj], g.n))[1]


class TestCanonicalForm:
    def test_isomorphic_labellings_agree(self):
        a = cycle_graph(4)
        b = Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert canonical_form(a) == canonical_form(b)

    def test_non_isomorphic_trees_differ(self):
        assert canonical_form(path_graph(4)) != canonical_form(star_graph(3))

    def test_idempotent(self):
        for g in (cycle_graph(5), star_graph(4), path_graph(6)):
            word = canonical_form(g)
            assert canonical_form(parse_graph6(word)) == word

    @given(graph_strategy(9), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_relabelling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))

    def test_highly_symmetric_graphs(self):
        from pstlab.graphs import complete_graph, hypercube
        # worst cases for the search: transitive graphs
        for g in (complete_graph(8), cycle_graph(8), hypercube(3),
                  Graph(8, [(i, j) for i in range(4) for j in range(4, 8)])):
            perm = list(reversed(range(g.n)))
            assert canonical_form(g) == canonical_form(g.relabel(perm))

    def test_dense_transitive_graphs_within_budget(self):
        # a budget of 5 s per call; K16 and K8,8 take about 0.1 s on a
        # 2-vCPU Xeon
        for g, relabelled in dense_transitive_cases():
            words = []
            for h in (g, relabelled):
                start = time.perf_counter()
                words.append(canonical_form(h))
                assert time.perf_counter() - start < 5.0, (g.n, g.edge_count)
            assert words[0] == words[1]

    def test_discriminates_all_small_classes(self):
        # pairwise distinct canonical forms across all 4-vertex graphs
        seen = {}
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for mask in range(1 << 6):
            g = Graph(4, [pairs[b] for b in range(6) if mask >> b & 1])
            seen.setdefault(canonical_form(g), set()).add(g)
        # 11 isomorphism classes of graphs on 4 vertices
        assert len(seen) == 11

    def test_size_cap(self):
        with pytest.raises(ValueError):
            canonical_form(cycle_graph(17))

    def test_search_automorphisms_generate_the_group(self):
        # the orbit rule of augmentation merges masks along these
        for n in range(1, 7):
            for g in gen_connected_graphs(n):
                autos = search(g)[1]
                for sigma in autos:
                    assert g.relabel(sigma) == g, (write_graph6(g), sigma)
                assert (permutation_group_order(autos, n)
                        == automorphism_count_brute(g)), write_graph6(g)


def dense_transitive_cases():
    """K10-K16 and K8,8, each with a seeded relabelling."""
    rng = random.Random(16)
    cases = [complete_graph(n) for n in range(10, 17)]
    cases.append(Graph(16, [(i, j) for i in range(8) for j in range(8, 16)]))
    for g in cases:
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g, g.relabel(perm)


def assert_search_matches_rounds(g):
    word, autos, _ = search(g)
    oracle_word, oracle_autos = canonical_search_by_rounds(g)
    assert word == oracle_word, write_graph6(g)
    for sigma in autos:
        assert g.relabel(sigma) == g, (write_graph6(g), sigma)
    assert (_orbit_least_masks(g.n, autos).tolist()
            == _orbit_least_masks(g.n, oracle_autos).tolist()), write_graph6(g)


class TestSearchMatchesRoundOracle:
    """The search against the round-based search kept in oracles.py, which
    branches on every candidate that no met automorphism covers: the same
    word, and automorphisms that give augmentation the same mask orbits.
    The lists themselves differ, since the search skips a twin of a tried
    vertex and returns their transposition instead of meeting it at a
    leaf."""

    def test_connected_n7_and_trees_n10(self):
        rng = random.Random(7)
        corpus = [g for n in range(1, 8) for g in gen_connected_graphs(n)]
        corpus += [t for n in range(1, 11) for t in gen_free_trees(n)]
        for g in corpus:
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert_search_matches_rounds(g)
            assert_search_matches_rounds(g.relabel(perm))

    @given(graph_strategy(12))
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, g):
        assert_search_matches_rounds(g)

    def test_dense_transitive_graphs(self):
        for g, h in dense_transitive_cases():
            assert_search_matches_rounds(g)
            assert_search_matches_rounds(h)

    def test_sampled_n9_children(self):
        rng = random.Random(9)
        parents = list(gen_connected_graphs(8))
        for _ in range(1500):
            parent = rng.choice(parents)
            mask = rng.randrange(1, 1 << 8)
            edges = list(parent.edges) + [(u, 8) for u in range(8) if mask >> u & 1]
            assert_search_matches_rounds(Graph(9, edges))


def assert_skips_sound(prev, n):
    """Run _connected_level(prev, n), recording each child that reaches the
    pretest, in order, and whether it was skipped; search every child and
    check that a skipped child's word was already seen and that the level
    is the first sight of each word.  Returns the number skipped."""
    record = []
    inner = generate._known

    def recorded(a, *args):
        known = inner(a, *args)
        masks = (a << np.arange(n)).sum(axis=-1)
        record.extend(zip(map(tuple, masks.tolist()), known.tolist()))
        return known

    generate._known = recorded
    try:
        level = _connected_level(prev, n)
    finally:
        generate._known = inner
    seen, first = set(), []
    for (adj, skip), (_, (word, _, _)) in zip(record, _searches((adj for adj, _ in record), n)):
        if skip:
            assert word in seen, (n, adj)
        elif word not in seen:
            seen.add(word)
            first.append(word)
    assert first == [write_graph6(g) for g in level], n
    return sum(skip for _, skip in record)


def root_by_refine(g):
    """The colours _refine reaches from the degree partition, cells in
    increasing degree: the root partition that the search made itself
    before _root_colours."""
    by_degree = {}
    for v in range(g.n):
        by_degree.setdefault(g.degree(v), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    colours = [0] * g.n
    for c, cell in enumerate(cells):
        for v in cell:
            colours[v] = c
    return _refine([list(g.neighbours(v)) for v in range(g.n)], cells, colours)[1]


def assert_root_colours_match(graphs):
    """_root_colours on stacks of the graphs of each order, at most 256 a
    stack, against root_by_refine graph by graph."""
    for n, group in by_order(graphs).items():
        for i in range(0, len(group), 256):
            chunk = group[i:i + 256]
            stack = np.array([g.adj for g in chunk])[:, :, None] >> np.arange(n) & 1
            for g, colours in zip(chunk, _root_colours(stack).tolist()):
                assert colours == root_by_refine(g), write_graph6(g)


def by_order(graphs):
    out = {}
    for g in graphs:
        out.setdefault(g.n, []).append(g)
    return out


class TestRootKernel:
    """The kernel against the one-graph refinement it took over at the
    root, _refine from the degree partition."""

    def test_children_of_connected_parents(self):
        # every mask of every connected parent on n <= 7 vertices
        children = [Graph._of(n + 1, tuple(row | (mask >> u & 1) << n
                                           for u, row in enumerate(g.adj)) + (mask,))
                    for n in range(1, 8) for g in gen_connected_graphs(n)
                    for mask in range(1, 1 << n)]
        assert_root_colours_match(children)

    def test_trees_to_n12(self):
        assert_root_colours_match([t for n in range(1, 13) for t in gen_free_trees(n)])

    def test_sampled_n9_children(self):
        rng = random.Random(9)
        parents = list(gen_connected_graphs(8))
        children = []
        for _ in range(1500):
            parent = rng.choice(parents)
            mask = rng.randrange(1, 1 << 8)
            edges = list(parent.edges) + [(u, 8) for u in range(8) if mask >> u & 1]
            children.append(Graph(9, edges))
        assert_root_colours_match(children)

    def test_dense_transitive_graphs(self):
        # K10-K16 and K8,8; at n = 16 the keys are Python ints (16^17 > 2^63)
        assert_root_colours_match([h for pair in dense_transitive_cases() for h in pair])

    @given(graph_stacks())
    @settings(max_examples=200, deadline=None)
    def test_random_stacks(self, graphs):
        assert_root_colours_match(graphs)


class TestRefinement:
    def test_result_is_stable(self, monkeypatch):
        """_refine stops at the first round that splits no cell, and at a
        discrete partition without a round; _root_colours stops at the
        first round in which no graph of its stack gains a colour.  One
        more round must still change nothing, at every node of the search,
        the roots included."""
        results = []
        inner, inner_root = generate._refine, generate._root_colours

        def recorded(nbrs, cells, colours):
            out = inner(nbrs, cells, colours)
            results.append((nbrs, out))
            return out

        def recorded_root(stack):
            out = inner_root(stack)
            for matrix, colours in zip(stack.tolist(), out.tolist()):
                cells = [[v for v, c in enumerate(colours) if c == k]
                         for k in range(max(colours) + 1)]
                nbrs = [[w for w, x in enumerate(row) if x] for row in matrix]
                results.append((nbrs, (cells, colours)))
            return out

        monkeypatch.setattr(generate, "_refine", recorded)
        monkeypatch.setattr(generate, "_root_colours", recorded_root)
        corpus = [g for n in range(1, 8) for g in gen_connected_graphs(n)]
        corpus += [t for n in range(1, 11) for t in gen_free_trees(n)]
        for g in corpus:
            canonical_form(g)
        assert len(results) > len(corpus)
        for nbrs, (cells, colours) in results:
            assert all(cells)
            assert all(cell == sorted(cell) for cell in cells)
            assert all(colours[v] == c for c, cell in enumerate(cells) for v in cell)
            assert _refine_round(nbrs, cells, colours) == (cells, colours)

    def test_rounds_to_generate_n7_pinned(self, monkeypatch):
        """Call counts, not timers.  Generating n <= 7 refines 14 root
        stacks, and the kernel ranks each once by degree and once a round:
        42 rankings, so 28 kernel rounds, each stack's last gaining no
        colour.  Below the roots the search runs 2,243 Python rounds.
        Before the pretest skipped children whose word an earlier parent
        had already produced, it took 23 stacks, 82 rankings and 5,900
        Python rounds.  The search
        that refined its root itself took 13,888 Python rounds here;
        refinement that ranked every vertex from the all-zero colouring
        took 33,747, and 44,466 when it also ran one more round to confirm
        a discrete colouring; the cell-wise search took 16,845 before it
        skipped twins."""
        counts = {"stacks": 0, "ranks": 0, "rounds": 0}

        def counted(name, inner):
            def wrapper(*args):
                counts[name] += 1
                return inner(*args)
            return wrapper

        monkeypatch.setattr(generate, "_root_colours", counted("stacks", generate._root_colours))
        monkeypatch.setattr(generate, "_dense_ranks", counted("ranks", generate._dense_ranks))
        monkeypatch.setattr(generate, "_refine_round", counted("rounds", _refine_round))
        monkeypatch.setattr(generate, "_connected_cache", {})
        assert sum(1 for _ in gen_connected_graphs(7)) == CONNECTED_COUNTS[7]
        assert counts == {"stacks": 14, "ranks": 42, "rounds": 2243}

    def test_leaves_to_generate_n7_pinned(self, monkeypatch):
        """A call count, not a timer: one graph6 word per leaf of every
        search.  Before the pretest they reached 5,645 leaves here, and
        10,728 before twins were skipped."""
        leaves = [0]
        inner = generate._graph6_word

        def counted(adj, order):
            leaves[0] += 1
            return inner(adj, order)

        monkeypatch.setattr(generate, "_graph6_word", counted)
        monkeypatch.setattr(generate, "_connected_cache", {})
        assert sum(1 for _ in gen_connected_graphs(7)) == CONNECTED_COUNTS[7]
        assert leaves[0] == 1689


class TestFreeTrees:
    @pytest.mark.parametrize("n,count", sorted(FREE_TREE_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in gen_free_trees(n)) == count

    @pytest.mark.parametrize("n", range(3, 8))
    def test_counts_match_prufer_oracle(self, n):
        assert FREE_TREE_COUNTS[n] == free_tree_count_prufer(n)

    def test_counts_match_otter_oracle(self):
        otter = free_tree_counts_otter(12)
        for n, count in FREE_TREE_COUNTS.items():
            assert otter[n] == count

    def test_rooted_recurrence_anchor(self):
        # classical rooted-tree counts
        assert rooted_tree_counts(10)[1:] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]

    def test_all_outputs_are_trees(self):
        for n in range(2, 9):
            for t in gen_free_trees(n):
                assert t.n == n
                assert t.edge_count() == n - 1
                assert t.is_connected()

    def test_pairwise_non_isomorphic(self):
        for n in range(2, 9):
            forms = [canonical_form(t) for t in gen_free_trees(n)]
            assert len(forms) == len(set(forms))

    def test_deterministic_order(self):
        first = [write_graph6(t) for t in gen_free_trees(8)]
        second = [write_graph6(t) for t in gen_free_trees(8)]
        assert first == second

    def test_range_check(self):
        for n in (0, 17):
            with pytest.raises(ValueError):
                gen_free_trees(n)


class TestConnectedGraphs:
    @pytest.mark.parametrize("n,count", [(n, c) for n, c in CONNECTED_COUNTS.items()
                                         if n <= 7])
    def test_counts(self, n, count):
        assert sum(1 for _ in gen_connected_graphs(n)) == count

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_match_brute_force(self, n):
        assert CONNECTED_COUNTS[n] == connected_graph_count_brute(n)

    def test_count_matches_brute_force_n6(self):
        assert connected_graph_count_brute(6) == 112

    def test_all_connected_and_distinct(self):
        for n in range(1, 7):
            forms = set()
            for g in gen_connected_graphs(n):
                assert g.is_connected() and g.n == n
                forms.add(canonical_form(g))
            assert len(forms) == CONNECTED_COUNTS[n]

    def test_emitted_in_canonical_labelling(self):
        for n in range(1, 8):
            for g in gen_connected_graphs(n):
                assert write_graph6(g) == canonical_form(g)

    def test_orbit_least_masks_match_union_find(self):
        """The array orbit rule against the union-find it replaced, on the
        automorphisms of every parent of levels 2..8, in the labelling
        generation emits and in a seeded relabelling."""
        rng = random.Random(8)
        for n in range(1, 8):
            for g in gen_connected_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, g.relabel(perm)):
                    autos = search(h)[1]
                    assert (_orbit_least_masks(n, autos).tolist()
                            == orbit_least_masks_union_find(n, autos)), write_graph6(h)

    def test_kept_graphs_carry_their_words(self):
        """Each generated graph is a CanonicalGraph whose word is its own
        graph6 word; the survey records that word without writing it."""
        for n in range(1, 9):
            for g in gen_connected_graphs(n):
                assert isinstance(g, CanonicalGraph) and g.graph6 == write_graph6(g)

    def test_orbit_pruning_matches_all_masks(self):
        """Each level emits the words of trying every mask, in the same
        order."""
        prev = [Graph(1)]
        for n in range(2, 8):
            expected = connected_level_all_masks(prev, n)
            assert ([write_graph6(g) for g in _connected_level(prev, n)]
                    == [write_graph6(g) for g in expected]), n
            prev = expected

    def test_searches_per_level_n7_pinned(self, monkeypatch):
        """A call count, not a timer: the canonical searches of each level,
        its parents' included.  Before the pretest skipped children that
        an earlier parent had produced they were 2, 3, 10, 50, 354 and
        3,883."""
        searches = [0]
        inner = generate._canonical_search

        def counted(*args):
            searches[0] += 1
            return inner(*args)

        monkeypatch.setattr(generate, "_canonical_search", counted)
        per_level = {}
        for n in range(2, 8):
            prev = list(gen_connected_graphs(n - 1))
            searches[0] = 0
            _connected_level(prev, n)
            per_level[n] = searches[0]
        assert per_level == {2: 2, 3: 3, 4: 8, 5: 28, 6: 138, 7: 1011}

    def test_skipped_children_already_seen(self):
        """Every child the pretest skips is searched here, and its word is
        one an earlier child already gave; the level is the first sight
        of each word among the children it searched."""
        skipped = {n: assert_skips_sound(list(gen_connected_graphs(n - 1)), n)
                   for n in range(2, 8)}
        assert skipped == {2: 0, 3: 0, 4: 2, 5: 22, 6: 216, 7: 2872}

    def test_known_by_an_equal_invariant_of_a_connected_deletion(self):
        """With the table of K6 alone, numbered 0, a child of K6 numbered 1
        is known exactly when deleting one of K6's vertices leaves K6:
        when the new vertex has five or six neighbours.  Numbered 0, or
        with no vertex of the parent marked non-cut, none is known.  With
        the table of K5 plus an isolated vertex, a child whose new vertex
        has one neighbour w is not known, though c - w is that graph: the
        deletion leaves c - w disconnected."""
        k6 = complete_graph(6)
        masks = range(1, 64)
        stack = generate.adjacency_stack(
            [tuple(row | (mask >> u & 1) << 6 for u, row in enumerate(k6.adj)) + (mask,)
             for mask in masks], 7)

        def known(graph, index, non_cut=63):
            table, owner = generate._invariant_table([graph.adj], 6)
            flags = generate._known(stack, np.full(len(masks), index),
                                    np.full(len(masks), non_cut), table, owner)
            return [mask for mask, flag in zip(masks, flags.tolist()) if flag]

        assert known(k6, 1) == [m for m in masks if bin(m).count("1") >= 5]
        assert known(k6, 0) == []
        assert known(k6, 1, non_cut=0) == []
        assert known(Graph(6, complete_graph(5).edges), 1) == []

    def test_one_child_per_mask_orbit(self, monkeypatch):
        # Aut(K6) = S6 moves any mask onto any other of its popcount: one
        # root stack for the parent's search, one of its six children
        shapes = []
        kernel = generate._root_colours
        monkeypatch.setattr(generate, "_root_colours",
                            lambda stack: shapes.append(stack.shape) or kernel(stack))
        children = _connected_level([complete_graph(6)], 7)
        assert shapes == [(1, 6, 6), (6, 7, 7)]
        assert len(children) == 6

    def test_range_check(self):
        for n in (0, 9):
            with pytest.raises(ValueError):
                gen_connected_graphs(n)


class TestFileStreams:
    def test_single_word(self, tmp_path):
        path = tmp_path / "one.g6"
        path.write_text("A_\n")
        graphs = list(stream_from_file(str(path)))
        assert graphs == [Graph(2, [(0, 1)])]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert list(stream_from_file(str(path))) == []

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "hdr.g6"
        path.write_text(">>graph6<<A_\nC~\n")
        assert len(list(stream_from_file(str(path)))) == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("A_\nA_garbage!!\n")
        stream = stream_from_file(str(path))
        with pytest.raises(Graph6ParseError) as exc:
            list(stream)
        assert ":2:" in str(exc.value)

    def test_non_ascii_byte_names_line_number(self, tmp_path):
        path = tmp_path / "latin.g6"
        path.write_bytes(b"A_\nA\xff\n")
        with pytest.raises(Graph6ParseError) as exc:
            list(stream_from_file(str(path)))
        assert ":2:" in str(exc.value) and exc.value.offset == 1

    def test_bad_byte_offset_is_within_its_line(self, tmp_path):
        path = tmp_path / "header.g6"
        path.write_bytes(b"A_\n>>graph6<<  A\xff\n")
        with pytest.raises(Graph6ParseError) as exc:
            list(stream_from_file(str(path)))
        assert ":2:" in str(exc.value) and exc.value.offset == 13
        assert "(byte offset 13)" in str(exc.value)

    def test_no_dedup(self, tmp_path):
        path = tmp_path / "dup.g6"
        path.write_text("A_\nA_\n")
        assert len(list(stream_from_file(str(path)))) == 2

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            stream_from_file("/nonexistent/corpus.g6")
