"""Randomized construction, failure-rate estimation, and the census."""

from __future__ import annotations

import math

import numpy as np
import pytest

from msetdim import (
    CandidateSpec,
    KIND_MULTISET,
    RandomGraphSpec,
    all_multiset_signatures,
    complete_graph,
    construct_resolving,
    cycle_graph,
    default_target_size,
    draw_census_set,
    estimate_failure_rate,
    generate_gnp,
    multiset_dimension_exact,
    path_graph,
    sample_candidate,
    typicality_census,
    verify_resolving,
)

from .conftest import candidate_draw, multisets_collide, random_connected_graph


class TestSampleCandidate:
    def test_deterministic(self):
        g = generate_gnp(RandomGraphSpec(n=500, p=0.05, seed=4))
        spec = CandidateSpec(r=30, seed=17)
        a = sample_candidate(g, spec)
        b = sample_candidate(g, spec)
        assert np.array_equal(a, b)
        c = sample_candidate(g, CandidateSpec(r=30, seed=18))
        assert not np.array_equal(a, c)

    def test_r_equals_n_gives_everything(self):
        g = path_graph(40)
        members = sample_candidate(g, CandidateSpec(r=40, seed=0))
        assert members.tolist() == list(range(40))

    def test_r_above_n_rejected(self):
        with pytest.raises(ValueError):
            sample_candidate(path_graph(5), CandidateSpec(r=6, seed=0))

    def test_tiny_r_may_be_empty(self):
        g = path_graph(50)
        members = sample_candidate(g, CandidateSpec(r=1e-9, seed=0))
        assert members.size == 0

    def test_mean_size_in_band(self):
        g = generate_gnp(RandomGraphSpec(n=10_000, p=0.001, seed=1))
        sizes = [
            sample_candidate(g, CandidateSpec(r=100, seed=s)).size
            for s in range(1000)
        ]
        assert 90 <= float(np.mean(sizes)) <= 110

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CandidateSpec(r=0)
        with pytest.raises(ValueError):
            CandidateSpec(r=5, growth=1.0)
        with pytest.raises(ValueError):
            CandidateSpec(r=5, max_rounds=0)


class TestConstructResolving:
    def test_path_succeeds_quickly(self):
        g = path_graph(50)
        result = construct_resolving(g, CandidateSpec(r=1, seed=0))
        assert result.success
        assert result.rounds_used <= 12
        assert verify_resolving(g, result.resolving_set, KIND_MULTISET).resolving

    def test_complete_graph_fails_with_witness(self):
        result = construct_resolving(complete_graph(10), CandidateSpec(r=2, seed=1))
        assert not result.success
        assert result.rounds_used == 12
        assert result.last_witness is not None
        assert result.resolving_set is None

    def test_round_log_structure(self):
        result = construct_resolving(complete_graph(6), CandidateSpec(r=1, max_rounds=3, seed=5))
        log = result.to_json_dict()
        assert len(log["rounds"]) == 3
        for i, rec in enumerate(log["rounds"]):
            assert rec["round"] == i
            assert rec["verdict"] in ("resolving", "collision")
        targets = [rec["r"] for rec in log["rounds"]]
        assert targets == sorted(targets)  # growth never shrinks the target

    def test_saturated_rounds_reuse_verdict(self, monkeypatch):
        import msetdim.construction as construction

        g = complete_graph(5)
        spec = CandidateSpec(r=1, growth=2, max_rounds=8)
        calls = []
        verify = construction.verify_resolving

        def spy(graph, members, *args, **kwargs):
            calls.append(tuple(int(v) for v in members))
            return verify(graph, members, *args, **kwargs)

        monkeypatch.setattr(construction, "verify_resolving", spy)
        result = construct_resolving(g, spec)
        draws = [candidate_draw(5, min(2.0**t, 5.0), 0, t) for t in range(8)]
        distinct = []
        for draw in draws:
            if draw.size and (not distinct or distinct[-1] != tuple(draw)):
                distinct.append(tuple(draw))
        assert all(draw.tolist() == list(range(5)) for draw in draws[3:])
        assert calls == distinct
        assert not result.success and result.rounds_used == 8
        for t, (rec, draw) in enumerate(zip(result.rounds, draws)):
            assert (rec.round, rec.target, rec.sample_size) == (t, min(2.0**t, 5.0), draw.size)
            assert not rec.resolving
            if draw.size:
                assert multisets_collide(g, draw, *rec.witness)
            else:
                assert rec.witness is None

    def test_reverification_uses_rows(self, monkeypatch):
        import msetdim.signatures as signatures

        def distinct(g, sources):
            return np.arange(g.n, dtype=np.int64)[:, None]

        monkeypatch.setattr(signatures, "_level_counts", distinct)
        with pytest.raises(RuntimeError, match="re-verification rejected"):
            construct_resolving(complete_graph(5), CandidateSpec(r=2, seed=0))

    def test_only_confirmation_writes_rows(self, monkeypatch):
        import msetdim.graphs as graphs

        calls = []
        block = graphs._bfs_block

        def spy(g, src):
            calls.append(src.tolist())
            return block(g, src)

        monkeypatch.setattr(graphs, "_bfs_block", spy)
        g = generate_gnp(RandomGraphSpec(n=200, x=0.4, seed=0))
        failed = construct_resolving(g, CandidateSpec(r=math.sqrt(g.n), seed=0))
        assert not failed.success and failed.rounds_used == 12
        assert calls == []
        found = construct_resolving(path_graph(200), CandidateSpec(r=100, seed=0))
        members = list(found.resolving_set)
        assert found.success and len(members) > graphs.BLOCK
        assert calls == [members[i : i + graphs.BLOCK] for i in range(0, len(members), graphs.BLOCK)]

    def test_never_beats_exact_optimum(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 4, 10)
            exact = multiset_dimension_exact(g)
            result = construct_resolving(g, CandidateSpec(r=1.5, max_rounds=16, seed=3))
            if result.success:
                assert math.isfinite(exact.value)
                assert len(result.resolving_set) >= exact.value

    def test_disconnected_rejected(self):
        from msetdim import Graph

        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            construct_resolving(g, CandidateSpec(r=1))

    def test_default_target_size(self):
        assert default_target_size(10_000) == pytest.approx(100.0)
        assert default_target_size(10_000, 0.4) == pytest.approx(100.0)
        # inside the threshold region the warm start follows the level-4 root
        assert default_target_size(2**16, 1 / 8) == pytest.approx(2 ** (16 * 15 / 16))


class TestFailureRate:
    def test_complete_graph_rate_one(self):
        est = estimate_failure_rate(complete_graph(5), r=2.5, trials=100, seed=0)
        assert est.rate == 1.0

    def test_r_equals_n_matches_full_set_verdict(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 3, 9)
            est = estimate_failure_rate(g, r=g.n, trials=7, seed=1)
            resolving = verify_resolving(g, list(range(g.n)), KIND_MULTISET).resolving
            assert est.rate == (0.0 if resolving else 1.0)

    def test_repeated_draw_verified_once(self, monkeypatch):
        import msetdim.construction as construction

        calls = []
        verify = construction.verify_resolving

        def spy(*args, **kwargs):
            calls.append(args[1].tolist())
            return verify(*args, **kwargs)

        monkeypatch.setattr(construction, "verify_resolving", spy)
        est = estimate_failure_rate(path_graph(12), r=12, trials=6, seed=0)
        assert (est.trials, est.failures) == (6, 6)  # ends 0 and 11 collide
        assert calls == [list(range(12))]

    def test_path_rates_below_one_and_monotone(self):
        g = path_graph(100)
        rates = [
            estimate_failure_rate(g, r=r, trials=200, seed=11).rate
            for r in (25, 50, 75)
        ]
        assert all(rate < 1.0 for rate in rates)
        # statistical trend: allow sampling slack, not strict per-sample order
        assert rates[0] >= rates[1] - 0.05
        assert rates[1] >= rates[2] - 0.05

    def test_deterministic_given_seed(self):
        g = path_graph(30)
        a = estimate_failure_rate(g, r=3, trials=50, seed=2)
        b = estimate_failure_rate(g, r=3, trials=50, seed=2)
        assert (a.trials, a.failures) == (b.trials, b.failures)


class TestTypicalityCensus:
    def test_hand_checked_path(self):
        # P_4, R = {0, 1}, k = 1: factor 2(k+1)r/n = 2, so the radius-i
        # threshold is 2|ball_i(v)|, which no sensor count reaches; allowed
        # coordinate counts are ceil(2|ball_i|) maximized over vertices.
        g = path_graph(4)
        report = typicality_census(g, [0, 1], k=1)
        assert report.typical_count == 4
        by_level = {lvl.level: lvl for lvl in report.levels}
        assert by_level[0].atypical_count == 0
        assert by_level[1].atypical_count == 0
        assert by_level[0].allowed_coordinates == 2  # ceil(2 * 1)
        assert by_level[1].allowed_coordinates == 6  # ceil(2 * 3) at mid vertices
        assert report.signature_space_bound == 12
        assert not report.collision_forced  # 12 >= 4 typical vertices

    def test_single_sensor_far_vertices_typical(self):
        g = path_graph(9)
        report = typicality_census(g, [0], k=2)
        # factor 2*3*1/9 = 2/3; vertex 8 has no sensor within distance 2
        assert report.typical_count >= 5
        # Vertices beyond the sensor's radius-i reach have a zero count and
        # every threshold is at least 1, so they are always i-typical:
        # atypicals at level i fit inside the sensor's radius-i ball.
        from msetdim import bfs_spheres

        reach = bfs_spheres(g, [0])
        for lvl in report.levels:
            assert lvl.atypical_count <= len(reach.ball(lvl.level))

    def test_double_count_identity_exact(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, 4, 12)
            k = min(2, int(np.max([1])))
            from msetdim import diameter

            k = min(2, int(diameter(g)))
            members = draw_census_set(g, max(1, g.n // 3), seed=int(rng.integers(1 << 30)))
            report = typicality_census(g, members, k)
            for lvl in report.levels:
                assert lvl.pairs_by_atypical == lvl.pairs_by_sensor
                assert lvl.pairs_by_atypical <= lvl.sensor_ball_total

    def test_ball_counts_match_signature_prefix_sums(self, rng):
        # |ball_i restricted to R| must equal the partial sums of the
        # multiset signature: cross-module consistency.
        for _ in range(15):
            g = random_connected_graph(rng, 4, 10)
            members = sorted(
                int(v) for v in rng.choice(g.n, size=max(1, g.n // 2), replace=False)
            )
            matrix, length = all_multiset_signatures(g, members)
            from msetdim import distances_from

            rows = distances_from(g, members)
            for v in range(g.n):
                for i in range(length):
                    ball_count = int((rows[:, v] <= i).sum() - (rows[:, v] < 0).sum())
                    assert ball_count == int(matrix[v, : i + 1].sum())

    def test_k_beyond_diameter_rejected(self):
        with pytest.raises(ValueError):
            typicality_census(cycle_graph(6), [0], k=4)

    def test_disconnected_rejected(self):
        from msetdim import Graph

        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            typicality_census(g, [0], k=1)

    def test_census_set_draw_deterministic(self):
        g = path_graph(30)
        assert draw_census_set(g, 5, seed=9) == draw_census_set(g, 5, seed=9)
        with pytest.raises(ValueError):
            draw_census_set(g, 0, seed=1)
        with pytest.raises(ValueError):
            draw_census_set(g, 31, seed=1)


def test_construction_on_moderate_random_graph():
    # A pinned random instance the sampler is known to resolve; end-to-end
    # check that the reported set re-verifies.
    g = generate_gnp(RandomGraphSpec(n=300, p=0.025, seed=3))
    from msetdim import is_connected

    assert is_connected(g)
    result = construct_resolving(g, CandidateSpec(r=30, max_rounds=12, seed=3))
    assert result.success
    assert verify_resolving(g, result.resolving_set, KIND_MULTISET).resolving
