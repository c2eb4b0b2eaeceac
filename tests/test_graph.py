import tracemalloc

import numpy as np
import pytest

import consensim.graph as graph
from consensim.engine import build_system
from consensim.graph import (
    Digraph,
    GraphFormatError,
    is_strongly_connected,
    load_edge_list,
    parse_edge_list,
)

from helpers import (
    adjacency_matrix,
    laplacian,
    random_digraph,
    random_undirected_digraph,
    ring_with_chords,
    strongly_connected_oracle,
)


def unit_system(g):
    return build_system(g, np.ones(g.n))


class TestDigraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(n=2, edges=frozenset({(1, 1)}))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(n=2, edges=frozenset({(0, 2)}))

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1), (0, 1), (1, 0)], ((0, 1), (1, 0), (np.int64(0), 1))],
        ids=["list", "tuple-with-numpy-id"],
    )
    def test_rejects_a_pair_given_twice(self, edges):
        # a frozenset cannot hold a repeat; a list or tuple can
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            Digraph(n=2, edges=edges)

    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError, match="at least 1"):
            Digraph(n=0, edges=frozenset())

    @pytest.mark.parametrize(
        "edges",
        [
            frozenset(),
            [],
            np.empty((0, 2), dtype=np.int32),
            np.empty((0, 2), dtype=np.uint8),
            np.array([]),
            np.empty((0, 3), dtype=np.intp),
        ],
        ids=["frozenset", "list", "int32-array", "uint8-array", "1-d-array", "3-column-array"],
    )
    def test_single_node_no_edges_is_valid(self, edges):
        g = Digraph(n=1, edges=edges)
        assert g.n == 1 and g.m == 0
        assert g._edge_array.shape == (0, 2) and g._edge_array.dtype == np.intp

    def test_equality_hash_and_repr(self):
        g = Digraph(2, [(0, 1)])
        assert (g == "x") is False
        same = [Digraph(2, frozenset({(0, 1)})), g, Digraph(2, np.array([[0, 1]], dtype=np.int32))]
        assert all(h == g and hash(h) == hash(g) for h in same)
        assert len(set(same)) == 1
        assert Digraph(3, [(0, 1)]) != g and Digraph(2, [(1, 0)]) != g
        assert repr(g) == "Digraph(n=2, edges=frozenset({(0, 1)}))"

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, {(0, 1.5), (1, 0), (1, 2), (2, 1)}),
            (3, {(0, 1), (1.0, 0)}),
            (2.5, {(0, 1), (1, 0)}),
            (2.0, {(0, 1), (1, 0)}),
        ],
        ids=["float-target", "integral-float-source", "float-count", "integral-float-count"],
    )
    def test_rejects_non_integer_count_or_endpoint(self, n, edges):
        # build_system would silently truncate a float id to an int
        with pytest.raises(TypeError):
            Digraph(n=n, edges=frozenset(edges))

    def test_numpy_integers_become_python_ints(self):
        g = Digraph(n=np.int64(3), edges=frozenset({(np.int64(0), np.int32(2)), (2, 0)}))
        assert g.n == 3 and type(g.n) is int
        assert g.edges == {(0, 2), (2, 0)}
        assert all(type(k) is int for e in g.edges for k in e)


class TestParseEdgeList:
    def test_basic_three_cycle(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        assert g.n == 3
        assert g.edges == {(0, 1), (1, 2), (2, 0)}

    def test_header_fixes_node_count(self):
        g = parse_edge_list("nodes 5\n0 1\n1 0\n")
        assert g.n == 5
        assert g.m == 2

    def test_without_header_count_is_max_index_plus_one(self):
        g = parse_edge_list("0 7\n7 0\n")
        assert g.n == 8

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nnodes 3\n# another\n0 1\n\n1 0\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.m == 2

    def test_header_only_graph_has_no_edges(self):
        g = parse_edge_list("nodes 4\n")
        assert g.n == 4 and g.m == 0

    def test_accepts_iterable_of_lines(self):
        g = parse_edge_list(["0 1", "1 0"])
        assert g.n == 2 and g.m == 2

    def test_rejects_empty_input(self):
        with pytest.raises(GraphFormatError, match="node count is undefined"):
            parse_edge_list("")

    def test_rejects_non_integer_token(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("0 x\n")

    def test_rejects_float_token(self):
        with pytest.raises(GraphFormatError, match="not a nonnegative integer"):
            parse_edge_list("0 1.5\n")

    def test_rejects_negative_index(self):
        with pytest.raises(GraphFormatError, match="not a nonnegative integer"):
            parse_edge_list("-1 0\n")

    def test_rejects_wrong_arity(self):
        with pytest.raises(GraphFormatError, match="expected '<from> <to>'"):
            parse_edge_list("0 1 2\n")

    def test_rejects_self_loop_with_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2: self-loop"):
            parse_edge_list("0 1\n1 1\n")

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            parse_edge_list("0 1\n1 0\n0 1\n")

    def test_rejects_index_beyond_declared_count(self):
        with pytest.raises(GraphFormatError, match="exceeds declared node count"):
            parse_edge_list("nodes 2\n0 2\n")

    def test_rejects_bad_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_edge_list("nodes 2 3\n0 1\n")

    def test_rejects_zero_node_header(self):
        with pytest.raises(GraphFormatError, match="at least 1"):
            parse_edge_list("nodes 0\n")

    def test_the_line_loop_checks_each_pair_once(self, tmp_path, monkeypatch):
        # a comment line sends the file to the line loop, which hands Digraph
        # an array of the pairs it has checked, not the pairs to check again
        calls = []
        checked_pairs = graph._checked_pairs

        def counted(n, edges):
            calls.append(n)
            return checked_pairs(n, edges)

        monkeypatch.setattr(graph, "_checked_pairs", counted)
        path = tmp_path / "ring.txt"
        path.write_text("nodes 4\n# a ring\n0 1\n1 2\n2 3\n3 0\n")
        g = load_edge_list(path)
        assert (g.n, g.edges) == (4, {(0, 1), (1, 2), (2, 3), (3, 0)})
        assert calls == []
        # the counter is live: a set of pairs is checked one at a time
        Digraph(4, {(0, 1)})
        assert calls == [4]

    def test_the_bulk_parse_frees_its_byte_view_before_building_the_graph(self):
        # m = 80,000: the body after the header, the parsed pairs and Digraph's
        # sort peak at about 6.4 bytes per text byte; the byte view and its two
        # delimiter index arrays, kept alive into Digraph, add 2.2 more
        n = 20_000
        g = ring_with_chords(np.random.default_rng(5), n, 3)
        text = f"nodes {n}\n" + "".join(f"{i} {j}\n" for i, j in sorted(g.edges))
        tracemalloc.start()
        try:
            parsed = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.edges == g.edges
        assert peak < 7.5 * len(text)


class TestDegreesAndLaplacian:
    def test_three_cycle_degrees(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        assert unit_system(g).d.tolist() == [1, 1, 1]

    def test_three_cycle_laplacian(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        expected = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(laplacian(g), expected)

    def test_single_node_laplacian_is_zero(self):
        g = Digraph(n=1, edges=frozenset())
        np.testing.assert_array_equal(laplacian(g), np.zeros((1, 1)))

    def test_bidirected_pair(self):
        g = parse_edge_list("0 1\n1 0\n")
        np.testing.assert_array_equal(laplacian(g), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_adjacency_matches_edge_set(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        a = adjacency_matrix(g)
        assert a[0, 1] == 1.0 and a[1, 2] == 1.0 and a[2, 0] == 1.0
        assert a.sum() == 3.0

    def test_laplacian_structure_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = random_digraph(rng, n_hi=12, require_strong=False)
            lap = laplacian(g)
            d = unit_system(g).d
            # rows sum to zero exactly: integer assembly, exact float conversion
            assert np.all(lap.sum(axis=1) == 0.0)
            np.testing.assert_array_equal(np.diag(lap), d.astype(np.float64))
            off = lap - np.diag(np.diag(lap))
            assert set(np.unique(off)) <= {0.0, -1.0}
            assert int(d.sum()) == g.m

    def test_laplacian_equals_degree_minus_adjacency(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_digraph(rng, n_hi=10, require_strong=False)
            a = adjacency_matrix(g)
            np.testing.assert_array_equal(laplacian(g), np.diag(a.sum(axis=1)) - a)


class TestStrongConnectivity:
    @pytest.mark.parametrize(
        "g", [Digraph(n=1, edges=frozenset()), parse_edge_list("nodes 1\n")], ids=["set", "file"]
    )
    def test_single_node(self, g):
        assert is_strongly_connected(g)

    def test_three_cycle(self):
        assert is_strongly_connected(parse_edge_list("0 1\n1 2\n2 0\n"))

    def test_single_arc_is_not(self):
        assert not is_strongly_connected(parse_edge_list("0 1\n"))

    def test_two_components(self):
        g = parse_edge_list("0 1\n1 0\n2 3\n3 2\n")
        assert not is_strongly_connected(g)

    def test_reachable_but_not_coreachable(self):
        # node 2 absorbs: everything reaches it, it reaches nothing
        g = parse_edge_list("0 1\n1 0\n0 2\n")
        assert not is_strongly_connected(g)

    def test_matches_transitive_closure_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(400):
            g = random_digraph(rng, n_hi=8, dens_lo=0.1, dens_hi=0.9, require_strong=False)
            assert is_strongly_connected(g) == strongly_connected_oracle(g)


class TestIsUndirected:
    def test_symmetric_pair(self):
        assert unit_system(parse_edge_list("0 1\n1 0\n")).undirected

    def test_directed_cycle_is_not(self):
        assert not unit_system(parse_edge_list("0 1\n1 2\n2 0\n")).undirected

    def test_edgeless_graph_is_undirected(self):
        assert unit_system(Digraph(n=3, edges=frozenset())).undirected

    def test_random_symmetric_graphs_have_symmetric_laplacian(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_undirected_digraph(rng, n_hi=10)
            assert unit_system(g).undirected
            lap = laplacian(g)
            np.testing.assert_array_equal(lap, lap.T)


class TestEdgeArrays:
    def test_degrees_symmetry_and_arrays_match_the_dense_oracles(self):
        rng = np.random.default_rng(2024)
        graphs = [
            Digraph(n=1, edges=frozenset()),
            parse_edge_list("nodes 3\n"),
            parse_edge_list("nodes 5\n0 1\n1 0\n3 1\n"),
            parse_edge_list("0 1\n"),
            parse_edge_list("0 1\n1 0\n1 2\n"),
        ]
        graphs += [random_digraph(rng, n_lo=1, n_hi=12, require_strong=False) for _ in range(150)]
        graphs += [random_undirected_digraph(rng, n_hi=12) for _ in range(50)]
        for g in graphs:
            system = unit_system(g)
            a = adjacency_matrix(g)
            np.testing.assert_array_equal(system.d, a.sum(axis=1))
            assert system.undirected == np.array_equal(a, a.T)
            edges = sorted(g.edges)
            for arr, column in [(system.listeners, 0), (system.sources, 1)]:
                assert arr.dtype == np.intp and arr.flags.c_contiguous
                assert arr.tolist() == [e[column] for e in edges]

    def test_past_the_sort_key_bound_the_columns_are_sorted_and_contiguous(self):
        # i * n + j would overflow intp, so the pairs take the lexsort branch
        g = Digraph(2**40, np.array([[5, 1], [0, 7], [5, 0]]))
        assert g._edge_array.tolist() == [[0, 7], [5, 0], [5, 1]]
        assert all(column.flags.c_contiguous for column in g._edge_array.T)
