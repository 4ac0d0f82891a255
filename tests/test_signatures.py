"""Signature computation and verification of the three resolving notions."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msetdim import (
    Graph,
    KIND_METRIC,
    KIND_MULTISET,
    KIND_OUTER,
    KINDS,
    all_multiset_signatures,
    bfs_spheres,
    complete_graph,
    cycle_graph,
    distances_from,
    metric_signature,
    multiset_signature,
    naive_verify_resolving,
    path_graph,
    verify_resolving,
)

from msetdim.graphs import _level_table

from .conftest import random_graph, random_member_set, small_graphs, streaming


class TestMultisetSignature:
    def test_path_single_sensor(self):
        sig = multiset_signature(path_graph(3), [0], 2)
        assert sig.counts == (0, 0, 1)
        assert sig.unreachable == 0

    def test_cycle_example(self):
        sig = multiset_signature(cycle_graph(6), [0, 1, 3], 2)
        assert sig.counts == (0, 2, 1, 0)

    def test_full_sensor_set_gives_sphere_sizes(self, rng):
        for _ in range(10):
            g = random_graph(rng, 3, 9)
            v = int(rng.integers(g.n))
            sig = multiset_signature(g, list(range(g.n)), v)
            table = bfs_spheres(g, [v])
            sizes = table.sphere_sizes()
            assert sig.counts[: len(sizes)] == tuple(int(s) for s in sizes)
            assert sig.unreachable == len(table.unreachable())

    def test_counts_sum_to_set_size(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            members = random_member_set(rng, g)
            v = int(rng.integers(g.n))
            sig = multiset_signature(g, members, v)
            assert sig.total == len(members)
            assert sig.counts[0] in (0, 1)
            assert sig.counts[0] == (1 if v in members else 0)

    def test_permutation_invariance(self, rng):
        g = cycle_graph(7)
        a = multiset_signature(g, [0, 2, 5], 3)
        b = multiset_signature(g, [5, 0, 2], 3)
        assert a == b
        sa = metric_signature(g, [0, 2, 5], 3)
        sb = metric_signature(g, [5, 0, 2], 3)
        assert sorted(sa.dists) == sorted(sb.dists)
        assert sa.dists != sb.dists or sa.order == sb.order

    def test_empty_sensor_set_rejected(self):
        with pytest.raises(ValueError):
            multiset_signature(path_graph(3), [], 0)
        with pytest.raises(ValueError):
            verify_resolving(path_graph(3), [])

    def test_disconnected_unreachable_slot(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        sig = multiset_signature(g, [0, 2, 3], 1)
        assert sig.unreachable == 2
        assert sig.counts[0] == 0
        assert sig.total == 3

    def test_metric_signature_inf(self):
        g = Graph.from_edges(3, [(0, 1)])
        sig = metric_signature(g, [0, 2], 1)
        assert sig.dists == (1.0, math.inf)


class TestVerifyResolving:
    def test_path_endpoint_multiset(self):
        verdict = verify_resolving(path_graph(4), [0], KIND_MULTISET)
        assert verdict.resolving and verdict.witness is None

    def test_triangle_all_subsets_fail(self):
        g = complete_graph(3)
        for members in ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]):
            verdict = verify_resolving(g, members, KIND_MULTISET)
            assert not verdict.resolving
            u, v = verdict.witness
            assert u < v
            assert verdict.witness_signature is not None

    def test_cycle_triple_resolves(self):
        assert verify_resolving(cycle_graph(6), [0, 1, 3], KIND_MULTISET).resolving

    def test_kind_chain_implication(self, rng):
        for _ in range(120):
            g = random_graph(rng, 2, 9)
            members = random_member_set(rng, g)
            ms = verify_resolving(g, members, KIND_MULTISET).resolving
            outer = verify_resolving(g, members, KIND_OUTER).resolving
            metric = verify_resolving(g, members, KIND_METRIC).resolving
            if ms:
                assert outer
            if outer:
                assert metric

    def test_agrees_with_naive_oracle(self, rng):
        for _ in range(150):
            g = random_graph(rng, 2, 12)
            members = random_member_set(rng, g)
            for kind in KINDS:
                fast = verify_resolving(g, members, kind)
                slow = naive_verify_resolving(g, members, kind)
                assert fast.resolving == slow.resolving
                assert fast.witness == slow.witness

    def test_witness_balanced_exchange(self, rng):
        # On a collision witness the sensors falling outside the other
        # vertex's sphere must balance level by level.
        found = 0
        for _ in range(200):
            g = random_graph(rng, 3, 10)
            members = random_member_set(rng, g)
            verdict = verify_resolving(g, members, KIND_MULTISET)
            if verdict.resolving:
                continue
            found += 1
            v, w = verdict.witness
            dv = distances_from(g, [v])[0]
            dw = distances_from(g, [w])[0]
            top = max(int(dv.max(initial=0)), int(dw.max(initial=0)))
            for i in range(top + 1):
                only_v = sum(1 for r in members if dv[r] == i and dw[r] != i)
                only_w = sum(1 for r in members if dw[r] == i and dv[r] != i)
                assert only_v == only_w
        assert found > 20

    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_level_counts_and_rows_agree(self, g, data):
        members = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
        rows = distances_from(g, members)
        def check_kinds():
            for kind in KINDS:
                counted = verify_resolving(g, members, kind)
                assert counted == verify_resolving(g, members, kind, rows=rows)
                naive = naive_verify_resolving(g, members, kind)
                assert (counted.resolving, counted.witness) == (naive.resolving, naive.witness)

        with streaming(g):  # fresh BFS blocks
            check_kinds()
        assert _level_table(g) is not None
        check_kinds()  # the level table

    def test_outer_ignores_member_pairs(self):
        # K_3 plus a pendant: {0,1} collide but both sit inside R.
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert not verify_resolving(g, [0, 1], KIND_MULTISET).resolving
        assert verify_resolving(g, [0, 1], KIND_OUTER).resolving

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            verify_resolving(path_graph(3), [0], "nonsense")

    def test_verdict_json_shape(self):
        verdict = verify_resolving(complete_graph(3), [0], KIND_MULTISET)
        doc = json.loads(json.dumps(verdict.to_json_dict()))
        assert doc == {"kind": "multiset", "resolving": False, "witness": [1, 2]}


def test_bulk_signatures_match_single(rng):
    for _ in range(20):
        g = random_graph(rng, 2, 10)
        members = random_member_set(rng, g)
        matrix, length = all_multiset_signatures(g, members)
        for v in range(g.n):
            sig = multiset_signature(g, members, v, length=length)
            assert tuple(matrix[v, :length].tolist()) == sig.counts
            assert int(matrix[v, length]) == sig.unreachable


def test_bulk_signatures_write_no_rows(monkeypatch):
    import msetdim.graphs as graphs

    calls = []
    block = graphs._bfs_block

    def spy(g, src):
        calls.append(src.tolist())
        return block(g, src)

    monkeypatch.setattr(graphs, "_bfs_block", spy)
    matrix, length = all_multiset_signatures(cycle_graph(200), range(0, 200, 2))
    assert length == 101 and matrix.shape == (200, 102)
    assert (matrix.sum(axis=1) == 100).all()
    assert calls == []
