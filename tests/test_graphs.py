"""Graph construction, BFS sphere tables, generation, and the expansion audit."""

from __future__ import annotations

import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msetdim import (
    Graph,
    GraphFormatError,
    RandomGraphSpec,
    UNREACHABLE,
    audit_expansion,
    bfs_distances,
    bfs_spheres,
    complete_graph,
    cycle_graph,
    diameter,
    distance_matrix,
    distances_from,
    draw_census_set,
    generate_gnp,
    is_connected,
    path_graph,
    petersen_graph,
    predicted_diameter,
    read_edge_list,
    regime,
    regime_from_degree,
    typicality_census,
    write_edge_list,
)
import msetdim.graphs as graphs
from msetdim import CandidateSpec, LocalizationIndex, construct_resolving, verify_resolving
from msetdim.graphs import BLOCK, _bfs_block, _count_matrix, _level_counts, _level_table
from msetdim.signatures import _signature_length
from msetdim.seeding import AUDIT_PAIRS, AUDIT_SINGLES, substream

from .conftest import floyd_warshall, random_graph, scipy_distance_rows, small_graphs, streaming


class TestGraphType:
    def test_adjacency_symmetric_and_sorted(self):
        g = Graph.from_edges(4, [(2, 0), (3, 1), (0, 1)])
        assert g.num_edges == 3
        assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 3]]
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(int(v))

    def test_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        g = Graph.from_edges(3, [(0, 1), (1, 0)], strict=False)
        assert g.num_edges == 1

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(0, [])

    def test_immutable_views(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 9


class TestBfsSpheres:
    def test_path_layers(self):
        table = bfs_spheres(path_graph(3), [0])
        assert table.dist.tolist() == [0, 1, 2]

    def test_level_zero_is_sources(self):
        g = random_graph(np.random.default_rng(1), 4, 9)
        table = bfs_spheres(g, [2])
        assert table.sphere(0).tolist() == [2]

    def test_cycle_pair_sources(self):
        table = bfs_spheres(cycle_graph(6), [0, 3])
        assert table.sphere(1).tolist() == [1, 2, 4, 5]

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            bfs_spheres(path_graph(3), [])

    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_distances_match_floyd_warshall(self, g, data):
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4, unique=True))
        nearest = floyd_warshall(g)[sources].min(axis=0)
        expect = np.where(np.isinf(nearest), UNREACHABLE, nearest).astype(np.int32)
        dist = bfs_distances(g, sources)
        assert dist.dtype == np.int32 and np.array_equal(dist, expect)

    def test_layers_partition_reachable(self, rng):
        for _ in range(25):
            g = random_graph(rng)
            v = int(rng.integers(g.n))
            table = bfs_spheres(g, [v])
            total = sum(len(layer) for layer in table.layers())
            assert total + len(table.unreachable()) == g.n

    def test_each_layer_vertex_touches_previous(self, rng):
        for _ in range(10):
            g = random_graph(rng)
            table = bfs_spheres(g, [0])
            for k in range(1, table.max_level + 1):
                prev = set(table.sphere(k - 1).tolist())
                for v in table.sphere(k):
                    assert any(int(w) in prev for w in g.neighbors(int(v)))

    def test_multisource_is_pointwise_min(self, rng):
        for _ in range(25):
            g = random_graph(rng)
            if g.n < 2:
                continue
            u, v = rng.choice(g.n, size=2, replace=False)
            joint = bfs_distances(g, [int(u), int(v)])
            du = bfs_distances(g, [int(u)])
            dv = bfs_distances(g, [int(v)])
            for w in range(g.n):
                cand = [d for d in (du[w], dv[w]) if d >= 0]
                expect = min(cand) if cand else UNREACHABLE
                assert joint[w] == expect

    def test_ball_is_union_of_spheres(self, rng):
        g = random_graph(rng, 5, 10)
        table = bfs_spheres(g, [0])
        sizes = table.sphere_sizes()
        for k in range(table.max_level + 1):
            assert len(table.ball(k)) == int(sizes[: k + 1].sum())


class TestDiameter:
    def test_small_examples(self):
        assert diameter(complete_graph(4)) == 1
        assert diameter(cycle_graph(6)) == 3
        assert diameter(Graph.from_edges(2, [])) == math.inf
        assert diameter(petersen_graph()) == 2
        assert diameter(path_graph(1)) == 0

    def test_against_floyd_warshall(self, rng):
        for _ in range(30):
            g = random_graph(rng, 2, 24)
            fw = floyd_warshall(g)
            dm = distance_matrix(g)
            expect = np.where(np.isinf(fw), UNREACHABLE, fw).astype(np.int32)
            assert np.array_equal(dm, expect)
            finite = fw[np.isfinite(fw)]
            if np.isinf(fw).any():
                assert diameter(g) == math.inf
            else:
                assert diameter(g) == int(finite.max())


def nx_graph(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


def oracle_matrix(g: Graph) -> np.ndarray:
    """Floyd-Warshall distances, cross-checked against networkx."""
    fw = floyd_warshall(g)
    for u, lengths in nx.all_pairs_shortest_path_length(nx_graph(g)):
        row = np.full(g.n, math.inf)
        row[list(lengths)] = list(lengths.values())
        assert np.array_equal(fw[u], row)
    return np.where(np.isinf(fw), UNREACHABLE, fw).astype(np.int32)


class TestBfsKernel:
    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matrix_and_diameter_match_oracles(self, g):
        expect = oracle_matrix(g)
        dm = distance_matrix(g)
        assert dm.dtype == np.int32
        assert np.array_equal(dm, expect)
        if (expect == UNREACHABLE).any():
            assert diameter(g) == math.inf
        else:
            assert diameter(g) == int(expect.max())

    @given(small_graphs(), st.sampled_from([0, 1, 63, 64, 65, 2 * BLOCK + 3]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_probe_lists_with_duplicates(self, g, length, data):
        probes = data.draw(st.lists(st.integers(0, g.n - 1), min_size=length, max_size=length))
        rows = distances_from(g, probes)
        assert rows.shape == (length, g.n) and rows.dtype == np.int32
        assert np.array_equal(rows, oracle_matrix(g)[probes])

    def test_bad_probes_rejected(self):
        g = cycle_graph(10)
        for probes in ([10], [-1], [0] * (BLOCK + 1) + [10], [3, -2]):
            with pytest.raises(ValueError):
                distances_from(g, probes)

    @pytest.mark.parametrize("n", [65, 2 * BLOCK, 2 * BLOCK + 7])
    def test_multi_block_matrix(self, n):
        g = generate_gnp(RandomGraphSpec(n=n, p=2.5 / n, seed=n))
        ref = scipy_distance_rows(g, range(n))
        expect = np.where(np.isinf(ref), UNREACHABLE, ref).astype(np.int32)
        assert np.array_equal(distance_matrix(g), expect)
        assert diameter(g) == (math.inf if np.isinf(ref).any() else int(ref.max()))

    @given(small_graphs(), st.sampled_from([1, 63, 64, 65, 2 * BLOCK + 3]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_level_counts_match_histograms(self, g, length, data):
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=length, max_size=length))
        rows = oracle_matrix(g)[sources]
        top = int(rows.max())
        expect = np.stack(
            [(rows == d).sum(axis=0) for d in range(top + 1)]
            + [(rows == UNREACHABLE).sum(axis=0)],
            axis=1,
        )
        def check_counts():
            counts = _level_counts(g, sources)
            assert counts.dtype == np.int64 and counts.shape == (g.n, top + 2)
            assert np.array_equal(counts, expect)
            assert np.array_equal(counts, _count_matrix(distances_from(g, sources), top + 1))
            for width in (0, top, top + 1, top + 2, top + 5):
                padded = _level_counts(g, sources, width)
                wide = _count_matrix(distances_from(g, sources), max(top + 1, width))
                assert padded.dtype == np.int64 and np.array_equal(padded, wide)

        with streaming(g):  # fresh BFS blocks
            check_counts()
        assert _level_table(g) is not None
        check_counts()  # the level table

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_depths_match_networkx(self, g):
        nxg = nx_graph(g)
        expect = nx.diameter(nxg) if nx.is_connected(nxg) else math.inf
        longest = max(max(lengths.values()) for _, lengths in nx.all_pairs_shortest_path_length(nxg))
        assert diameter(g) == expect
        assert _signature_length(g) == longest + 1

    def test_block_on_long_path(self):
        # distances up to 399 need nine bit planes; a uint8 or 8-plane
        # accumulator would wrap past 255
        g = path_graph(400)
        src = np.array([0, 399, 7, 255, 256, 200], dtype=np.int64)
        ref = scipy_distance_rows(g, src).astype(np.int32)
        block = _bfs_block(g, src)
        assert block.dtype == np.int32 and np.array_equal(block, ref)

    @given(small_graphs(connected=True), st.data())
    @settings(max_examples=40, deadline=None)
    def test_census_ball_counts(self, g, data):
        dm = oracle_matrix(g)
        k = data.draw(st.integers(0, int(dm.max())))
        members = list(draw_census_set(g, data.draw(st.integers(1, g.n)), seed=0))
        report = typicality_census(g, members, k)
        factor = 2.0 * (k + 1) * len(members) / g.n
        ball = np.stack([(dm <= i).sum(axis=1) for i in range(k + 1)])
        ball_r = np.stack([(dm[:, members] <= i).sum(axis=1) for i in range(k + 1)])
        atypical = ball_r >= np.maximum(factor * ball, 1.0)
        assert report.typical_count == int((~atypical.any(axis=0)).sum())
        for i, level in enumerate(report.levels):
            assert level.atypical_count == int(atypical[i].sum())
            assert level.sensor_ball_total == int(ball[i][members].sum())
            assert level.pairs_by_atypical == int(ball_r[i][atypical[i]].sum())
            assert level.pairs_by_sensor == level.pairs_by_atypical


def _oracle_levels(g: Graph, src: np.ndarray) -> list[np.ndarray]:
    """Per level d, the words whose bit j marks the vertices at distance d
    from src[j], from Floyd-Warshall (n <= 64) or scipy rows (larger n)."""
    rows = floyd_warshall(g)[src] if g.n <= 64 else scipy_distance_rows(g, src)
    j, v = np.nonzero(np.isfinite(rows))
    dist = rows[j, v].astype(np.int64)
    words = np.zeros((int(dist.max()) + 1, g.n), dtype=np.uint64)
    np.bitwise_or.at(words, (dist, v), np.uint64(1) << j.astype(np.uint64))
    return list(words)


def _sparse_steps(g: Graph, levels: list[np.ndarray]) -> list[bool]:
    """Per step after a level, whether its frontier is sparse enough for the
    top-down scatter: its vertices' adjacency entries under an eighth of 2m."""
    return [8 * int(g.degrees[words != 0].sum()) < 2 * g.num_edges for words in levels[:-1]]


class TestLevelSteps:
    """`_bfs_levels` against distance oracles: one level per distance up to
    the block's depth, no trailing empty level, bit j set exactly at d(src[j], v)."""

    def check(self, g: Graph, src) -> list[np.ndarray]:
        src = np.asarray(src, dtype=np.int64)
        levels = list(graphs._bfs_levels(g, src))
        expect = _oracle_levels(g, src)
        assert len(levels) == len(expect) and levels[-1].any()
        for words, want in zip(levels, expect):
            assert words.dtype == np.uint64 and np.array_equal(words, want)
        return levels

    @given(small_graphs(sizes=st.sampled_from([1, 63, 64, 65, 130])), st.data())
    @settings(max_examples=80, deadline=None)
    def test_levels_match_oracles(self, g, data):
        # repeats are common: up to 64 draws from n vertices
        size = data.draw(st.integers(1, BLOCK))
        self.check(g, data.draw(st.lists(st.integers(0, g.n - 1), min_size=size, max_size=size)))

    @pytest.mark.parametrize("make", [path_graph, cycle_graph], ids=["path", "cycle"])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_long_graphs_step_top_down(self, make, data):
        g = make(2000)
        size = data.draw(st.integers(1, BLOCK))
        src = data.draw(st.lists(st.integers(0, g.n - 1), min_size=size, max_size=size))
        levels = self.check(g, src)
        assert all(_sparse_steps(g, levels))

    def test_dense_block_uses_both_steps_and_stops_at_saturation(self):
        g = generate_gnp(RandomGraphSpec(n=2000, x=0.4, seed=0))
        levels = self.check(g, np.arange(BLOCK))
        steps = _sparse_steps(g, levels)
        assert any(steps) and not all(steps)
        # the graph is connected: every vertex holds every source bit by the
        # last level, and the kernel ends there
        assert (np.bitwise_or.reduce(levels) == np.uint64(2**64 - 1)).all()

    @given(small_graphs(sizes=st.sampled_from([1, 2, 63, 64, 65, 130])))
    @settings(max_examples=40, deadline=None)
    def test_csr_is_native_width_and_matches_lexsort(self, g):
        edges = g.edge_array
        both_src = np.concatenate([edges[:, 0], edges[:, 1]])
        both_dst = np.concatenate([edges[:, 1], edges[:, 0]])
        indptr = np.zeros(g.n + 1, dtype=np.int64)
        np.add.at(indptr, both_src + 1, 1)
        assert g._indices.dtype == np.intp and not g._indices.flags.writeable
        assert np.array_equal(g._indices, both_dst[np.lexsort((both_dst, both_src))])
        assert np.array_equal(g._indptr, np.cumsum(indptr))


def _count_bfs_levels(monkeypatch) -> list[int]:
    """The sizes of the source blocks handed to _bfs_levels from now on."""
    calls: list[int] = []
    levels = graphs._bfs_levels

    def spy(g, src):
        calls.append(src.size)
        return levels(g, src)

    monkeypatch.setattr(graphs, "_bfs_levels", spy)
    return calls


class TestLevelTable:
    @given(small_graphs(sizes=st.sampled_from([1, 63, 64, 65, 130])), st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_counts_match_streaming_and_rows(self, g, data):
        # repeats are common: up to 2n draws from n vertices
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n))
        rows = distances_from(g, sources)
        top = int(rows.max())
        widths = sorted({0, 1, top, top + 1, top + 2, top + 5, data.draw(st.integers(0, top + 5))})
        with streaming(g):
            streamed = [_level_counts(g, sources, width) for width in widths]
        table = _level_table(g)
        full = distances_from(g, range(g.n))
        assert [len(block) for block in table] == [
            int(full[start : start + BLOCK].max()) + 1 for start in range(0, g.n, BLOCK)
        ]
        assert all(not words.flags.writeable for block in table for words in block)
        for width, stream in zip(widths, streamed):
            expect = _count_matrix(rows, max(top + 1, width))
            assert np.array_equal(stream, expect)
            counted = _level_counts(g, sources, width)
            assert counted.dtype == np.int64 and np.array_equal(counted, expect)

    def test_blocks_keep_their_own_depth(self):
        # block 0 holds isolated vertices (depth 0), blocks 1 and 2 a path
        g = Graph.from_edges(130, [(i, i + 1) for i in range(64, 129)])
        assert [len(block) for block in _level_table(g)] == [1, 66, 66]
        sources = [0, 5, 64, 129, 129]
        assert np.array_equal(_level_counts(g, sources), _count_matrix(distances_from(g, sources), 66))
        assert diameter(g) == math.inf and _signature_length(g) == 66

    def test_one_sweep_serves_construction_census_and_index(self, monkeypatch):
        calls = _count_bfs_levels(monkeypatch)
        g = generate_gnp(RandomGraphSpec(n=2000, x=0.4, seed=0))
        result = construct_resolving(g, CandidateSpec(r=math.sqrt(g.n), seed=0))
        assert not result.success  # a success would add its confirmation rows
        R = draw_census_set(g, 45, seed=0)
        typicality_census(g, R, 3)
        LocalizationIndex(g, R)
        # the first round sweeps the table; the census and the index add
        # only the sensor rows
        assert len(calls) == -(-g.n // BLOCK) + -(-len(R) // BLOCK)

    def test_first_histogram_sweeps_and_later_ones_run_no_bfs(self, monkeypatch):
        g = generate_gnp(RandomGraphSpec(n=2000, x=0.4, seed=0))
        sets = [range(BLOCK), [7], range(100, 1100, 3), range(g.n), range(BLOCK, 2 * BLOCK)]
        sources = [5, 5, 9, 1999]
        with streaming(g):
            expect = [verify_resolving(g, R) for R in sets]
            expect_counts = _level_counts(g, sources, 6)
        calls = _count_bfs_levels(monkeypatch)
        sweep = [min(BLOCK, g.n - start) for start in range(0, g.n, BLOCK)]
        verdicts = []
        for R in sets:
            verdicts.append(verify_resolving(g, R))
            # the first verify of 64 sources sweeps, every later one runs none
            assert calls == sweep
        assert np.array_equal(_level_counts(g, sources, 6), expect_counts)
        assert calls == sweep and _level_table(g) is not None
        assert verdicts == expect

    def test_disconnected_diameter_sweeps_nothing(self, monkeypatch):
        calls = _count_bfs_levels(monkeypatch)
        g = Graph.from_edges(300, [(i, i + 1) for i in range(299) if i != 150])
        assert diameter(g) == math.inf
        with pytest.raises(ValueError):
            LocalizationIndex(g, [0, 299])
        assert calls == [] and g not in graphs._TABLES

    def test_table_memory_and_bound(self, monkeypatch):
        g = generate_gnp(RandomGraphSpec(n=2000, x=0.4, seed=0))
        tracemalloc.start()
        try:
            table = _level_table(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(words.nbytes for block in table for words in block) <= 4 * 2**20
        assert peak <= 4 * 2**20
        # a path's sweep is n levels deep: 18 blocks of 1100 levels of 1100
        # words is 174 MB, over the bound, so it keeps no table (giving up
        # within its first block) and streams
        long = path_graph(1100)
        assert 8 * 18 * 1100 * 1100 > graphs.TABLE_BYTES
        calls = _count_bfs_levels(monkeypatch)
        assert _level_table(long) is None and calls == [BLOCK]
        assert diameter(long) == 1099
        for R in ([0], [5], [3, 700]):
            assert verify_resolving(long, R) == verify_resolving(long, R, rows=distances_from(long, R))
        assert np.array_equal(_level_counts(long, [5, 5, 9]), _count_matrix(distances_from(long, [5, 5, 9]), 1095))


class TestPredictedDiameter:
    def test_dense_regime(self):
        n = 10**6
        assert predicted_diameter(n, n**0.6) == 2

    def test_sparser_regime(self):
        n = 10**6
        assert predicted_diameter(n, n**0.4) == 3

    def test_boundary_inclusive(self):
        n = 10**6
        assert predicted_diameter(n, n * 2 * math.log10(n)) == 1

    def test_rejects_degree_at_most_one(self):
        with pytest.raises(ValueError):
            predicted_diameter(100, 1.0)


class TestGenerateGnp:
    def test_p_zero_and_one(self):
        empty = generate_gnp(RandomGraphSpec(n=5, p=0.0, seed=1))
        assert empty.num_edges == 0 and empty.n == 5
        full = generate_gnp(RandomGraphSpec(n=5, p=1.0, seed=1))
        assert full.num_edges == 10

    def test_edge_count_in_binomial_band(self):
        g = generate_gnp(RandomGraphSpec(n=1000, p=0.01, seed=42))
        assert 4783 <= g.num_edges <= 5207

    def test_deterministic(self):
        a = generate_gnp(RandomGraphSpec(n=300, p=0.05, seed=9))
        b = generate_gnp(RandomGraphSpec(n=300, p=0.05, seed=9))
        assert np.array_equal(a.edge_array, b.edge_array)
        c = generate_gnp(RandomGraphSpec(n=300, p=0.05, seed=10))
        assert not np.array_equal(a.edge_array, c.edge_array)

    def test_exponent_density(self):
        spec = RandomGraphSpec(n=400, x=0.5, seed=3)
        assert spec.expected_degree == pytest.approx(20.0)
        g = generate_gnp(spec)
        assert abs(g.average_degree - 20.0) < 5.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            RandomGraphSpec(n=5, p=1.5)
        with pytest.raises(ValueError):
            RandomGraphSpec(n=5, p=-0.2)
        with pytest.raises(ValueError):
            RandomGraphSpec(n=5)
        with pytest.raises(ValueError):
            RandomGraphSpec(n=5, p=0.5, x=0.5)
        with pytest.raises(ValueError):
            RandomGraphSpec(n=5, x=1.2)
        with pytest.raises(ValueError):
            RandomGraphSpec(n=4, x=0.99)  # edge probability above 1

    def test_unbiased_distribution(self):
        # Pooled edge count over many seeds stays near n*(n-1)/2 * p.
        total = sum(
            generate_gnp(RandomGraphSpec(n=60, p=0.3, seed=s)).num_edges
            for s in range(60)
        )
        mean = 60 * 1770 * 0.3
        sd = math.sqrt(60 * 1770 * 0.3 * 0.7)
        assert abs(total - mean) < 4 * sd

    def test_per_pair_inclusion_frequency(self):
        # Skip sampling must hit every pair index uniformly, not just match
        # the total count: tally each of the 15 pairs over many seeds.
        n, p, trials = 6, 0.3, 2000
        counts = np.zeros((n, n))
        for s in range(trials):
            for u, v in generate_gnp(RandomGraphSpec(n=n, p=p, seed=s)).edges():
                counts[u, v] += 1
        sd = math.sqrt(trials * p * (1 - p))
        for u in range(n):
            for v in range(u + 1, n):
                assert abs(counts[u, v] - trials * p) < 5 * sd

    def test_pair_index_inversion_bijective(self):
        from msetdim.graphs import _pair_index_to_edge

        n = 9
        total = n * (n - 1) // 2
        u, v = _pair_index_to_edge(np.arange(total))
        assert np.all((0 <= u) & (u < v) & (v < n))
        assert np.all(v * (v - 1) // 2 + u == np.arange(total))


class TestEdgeListFiles:
    def test_round_trip_bytes(self, tmp_path):
        g = generate_gnp(RandomGraphSpec(n=40, p=0.2, seed=5))
        path = tmp_path / "g.edges"
        write_edge_list(g, str(path))
        h = read_edge_list(str(path))
        assert np.array_equal(g.edge_array, h.edge_array)
        path2 = tmp_path / "h.edges"
        write_edge_list(h, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_format_shape(self, tmp_path):
        path = tmp_path / "p3.edges"
        write_edge_list(path_graph(3), str(path))
        assert path.read_text() == "3 2\n0 1\n1 2\n"

    def test_malformed_rejected(self, tmp_path):
        cases = ["", "3\n", "3 2\n0 1\n", "2 1\n0 two\n", "3 1\n0 3\n", "3 2\n0 1\n0 1\n"]
        for i, text in enumerate(cases):
            path = tmp_path / f"bad{i}.edges"
            path.write_text(text)
            with pytest.raises(GraphFormatError):
                read_edge_list(str(path))


class TestExpansionAudit:
    def test_level_zero_ratio_exactly_one(self):
        g = generate_gnp(RandomGraphSpec(n=200, x=0.5, seed=2))
        assert is_connected(g)
        params = regime_from_degree(g.n, g.average_degree)
        report = audit_expansion(g, params, sample_size=10, seed=1)
        for cell in report.levels:
            if cell.level == 0:
                assert cell.observed == tuple([1.0] * len(cell.observed))
                assert cell.max_abs_deviation == 0.0

    def test_complete_graph_level_one_exact(self):
        g = complete_graph(30)
        params = regime_from_degree(30, 29.0)
        report = audit_expansion(g, params, sample_size=5, seed=3)
        singles_l1 = next(
            c for c in report.levels if c.level == 1 and c.source_size == 1
        )
        assert singles_l1.observed == tuple([1.0] * 5)
        # radius 1 already exhausts K_n, so the audit's top level is hollow
        assert report.partial

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        params = regime_from_degree(4, 2.0)
        with pytest.raises(ValueError):
            audit_expansion(g, params, sample_size=2, seed=0)

    def test_mismatched_degree_rejected(self):
        g = generate_gnp(RandomGraphSpec(n=300, x=0.5, seed=2))
        bad = regime(300, 0.9)
        with pytest.raises(ValueError):
            audit_expansion(g, bad, sample_size=5, seed=0)

    def test_matches_per_source_spheres(self):
        g = generate_gnp(RandomGraphSpec(n=500, x=0.5, seed=8))
        params = regime_from_degree(g.n, g.average_degree)
        size, seed = BLOCK + 9, 6
        report = audit_expansion(g, params, sample_size=size, seed=seed)
        singles = substream(seed, AUDIT_SINGLES).choice(g.n, size=size, replace=False)
        rng = substream(seed, AUDIT_PAIRS)
        a = rng.integers(0, g.n, size=size)
        b = rng.integers(0, g.n - 1, size=size)
        b = b + (b >= a)
        spheres = {
            1: [bfs_spheres(g, [int(v)]).sphere_sizes() for v in singles],
            2: [bfs_spheres(g, [int(u), int(v)]).sphere_sizes() for u, v in zip(a, b)],
        }
        top = params.sparse_radius + 1
        for cell in report.levels:
            scale = cell.source_size * params.degree**cell.level if cell.level < top else g.n
            expect = tuple(
                (int(c[cell.level]) if cell.level < len(c) else 0) / scale
                for c in spheres[cell.source_size]
            )
            assert cell.observed == expect
        assert report.partial == all(len(c) <= top for s in (1, 2) for c in spheres[s])

    def test_moderate_graph_within_tolerance(self):
        g = generate_gnp(RandomGraphSpec(n=3000, x=0.5, seed=11))
        assert is_connected(g)
        report = audit_expansion(g, regime(3000, 0.5), sample_size=40, seed=4)
        assert not report.flagged_cells
        assert not report.partial


@given(st.integers(2, 30), st.floats(0.05, 0.95), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_generated_graphs_are_simple_and_in_range(n, p, seed):
    g = generate_gnp(RandomGraphSpec(n=n, p=p, seed=seed))
    edges = g.edge_array
    if edges.size:
        assert edges.min() >= 0 and edges.max() < n
        assert np.all(edges[:, 0] < edges[:, 1])
        keys = edges[:, 0] * n + edges[:, 1]
        assert np.unique(keys).size == keys.size
    assert int(g.degrees.sum()) == 2 * g.num_edges


@given(st.integers(2, 12), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_bfs_partition_property(n, seed):
    g = generate_gnp(RandomGraphSpec(n=n, p=0.4, seed=seed))
    table = bfs_spheres(g, [0])
    seen = np.zeros(n, dtype=int)
    for layer in table.layers():
        seen[layer] += 1
    seen[table.unreachable()] += 1
    assert np.all(seen == 1)
