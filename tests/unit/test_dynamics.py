"""Unit tests for load, latency-drift, and churn processes."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.network.dynamics import (
    ChurnProcess,
    HotspotEvent,
    LatencyDriftProcess,
    LoadProcess,
)
from repro.network.latency import LatencyMatrix
from repro.network.topology import grid_topology


class TestLoadProcess:
    def test_loads_stay_in_bounds(self):
        proc = LoadProcess(num_nodes=20, sigma=0.3, seed=0)
        for _ in range(50):
            loads = proc.step()
            assert np.all(loads >= 0.0)
            assert np.all(loads <= 1.0)

    def test_mean_reversion(self):
        proc = LoadProcess(num_nodes=200, mean_load=0.4, theta=0.2, sigma=0.02, seed=1)
        proc.step(200)
        assert abs(proc.loads().mean() - 0.4) < 0.1

    def test_hotspot_applies_only_while_active(self):
        proc = LoadProcess(num_nodes=4, mean_load=0.2, sigma=0.0, theta=1.0, seed=0)
        proc.add_hotspot(HotspotEvent(start_tick=2, duration=3, nodes=(1,), extra_load=0.7))
        proc.step(2)  # tick = 2 -> active
        assert proc.load_of(1) > 0.8
        proc.step(3)  # tick = 5 -> expired
        assert proc.load_of(1) < 0.5

    def test_hotspot_validation(self):
        proc = LoadProcess(num_nodes=2)
        with pytest.raises(ValueError):
            proc.add_hotspot(HotspotEvent(0, 0, (0,), 0.5))

    def test_deterministic(self):
        a = LoadProcess(num_nodes=5, seed=3)
        b = LoadProcess(num_nodes=5, seed=3)
        a.step(10)
        b.step(10)
        assert np.allclose(a.loads(), b.loads())

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LoadProcess(num_nodes=0)
        with pytest.raises(ValueError):
            LoadProcess(num_nodes=2, mean_load=2.0)


class TestLatencyDrift:
    def _base(self) -> LatencyMatrix:
        return LatencyMatrix.from_topology(grid_topology(3, 3))

    def test_matrix_stays_valid(self):
        drift = LatencyDriftProcess(self._base(), drift_sigma=0.1, seed=0)
        lm = drift.step(20)  # constructor of LatencyMatrix validates
        assert lm.num_nodes == 9

    def test_drift_changes_latencies(self):
        base = self._base()
        drift = LatencyDriftProcess(base, drift_sigma=0.1, seed=1)
        lm = drift.step(10)
        assert not np.allclose(lm.values, base.values)

    def test_reversion_bounds_excursion(self):
        base = self._base()
        drift = LatencyDriftProcess(base, drift_sigma=0.02, reversion=0.3, seed=2)
        lm = drift.step(500)
        ratio = lm.values[0, 1] / base.values[0, 1]
        assert 0.3 < ratio < 3.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LatencyDriftProcess(self._base(), drift_sigma=-1)
        with pytest.raises(ValueError):
            LatencyDriftProcess(self._base(), reversion=2.0)

    def test_returned_snapshots_stay_frozen(self):
        # Recording the drift trajectory must not alias one live buffer.
        drift = LatencyDriftProcess(self._base(), drift_sigma=0.1, seed=5)
        first = drift.step()
        first_values = first.values.copy()
        drift.step(3)
        assert np.array_equal(first.values, first_values)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("drift_sigma", float("nan")),
            ("drift_sigma", float("inf")),
            ("drift_sigma", -0.1),
            ("reversion", float("nan")),
            ("reversion", 1.5),
        ],
    )
    def test_rejects_bad_value_at_construction(self, field, value):
        # A NaN sigma would turn every latency into NaN on the first step.
        with pytest.raises(ValueError, match=field):
            LatencyDriftProcess(self._base(), **{field: value})

    def test_step_draws_normal_with_sigma(self):
        # The kernel draws standard normals and scales them; the result
        # must be normal(0, sigma)'s draw bit for bit, or every recorded
        # fingerprint would move.
        base = self._base()
        sigma, rev = 0.07, 0.2
        drift = LatencyDriftProcess(base, drift_sigma=sigma, reversion=rev, seed=3)
        rows, cols = np.triu_indices(base.num_nodes, k=1)
        flat = base.values[rows, cols]
        noise = np.random.default_rng(3).normal(0.0, sigma, size=flat.shape[0])
        expected = flat * np.exp(noise) * (1 - rev) + rev * flat
        values = drift.step().values
        assert np.array_equal(values[rows, cols], expected)
        assert np.array_equal(values[cols, rows], expected)
        assert np.array_equal(np.diag(values), np.zeros(base.num_nodes))

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_matrices(self, n):
        # n = 1 has an empty upper triangle, n = 2 a single pair.
        base = LatencyMatrix(np.full((n, n), 5.0) - 5.0 * np.eye(n))
        vector = LatencyDriftProcess(base, drift_sigma=0.1, seed=4)
        scalar = LatencyDriftProcess(base, drift_sigma=0.1, seed=4)
        for _ in range(3):
            vector.begin()
            lv = vector.step()
            ls = scalar.step_scalar()
            LatencyMatrix(lv.values)  # validates symmetry, diagonal, sign
            assert lv.values.shape == (n, n)
            assert np.allclose(lv.values, ls.values, rtol=1e-12, atol=0.0)
        assert vector.tick == scalar.tick == 3
        assert (n == 1) == np.array_equal(lv.values, base.values)


class TestDriftOverlap:
    """``begin`` runs the next walk on the shared worker; ``step`` collects it."""

    def _base(self) -> LatencyMatrix:
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 50, size=(30, 2))
        diff = points[:, None, :] - points[None, :, :]
        return LatencyMatrix(np.sqrt((diff**2).sum(axis=-1)))

    def test_step_after_begin_matches_fresh_twin(self):
        base = self._base()
        overlapped = LatencyDriftProcess(base, drift_sigma=0.05, seed=7)
        fresh = LatencyDriftProcess(base, drift_sigma=0.05, seed=7)
        for begin in (True, False, True, True, False):
            if begin:
                overlapped.begin()
            assert np.array_equal(overlapped.step().values, fresh.step().values)
        assert overlapped.tick == fresh.tick == 5
        # Both consumed the same draws, so the scalar reference continues
        # both walks alike.
        assert np.array_equal(
            overlapped.step_scalar().values, fresh.step_scalar().values
        )

    def test_snapshot_stays_frozen_while_advance_in_flight(self):
        drift = LatencyDriftProcess(self._base(), drift_sigma=0.2, seed=1)
        snapshot = drift.step()
        frozen = snapshot.values.copy()
        drift.begin()
        assert np.array_equal(snapshot.values, frozen)
        assert np.array_equal(drift.current().values, frozen)
        following = drift.step()
        assert following.values is not snapshot.values
        assert not np.array_equal(following.values, frozen)
        assert np.array_equal(snapshot.values, frozen)

    def test_one_advance_in_flight_at_a_time(self):
        drift = LatencyDriftProcess(self._base(), seed=2)
        drift.begin()
        with pytest.raises(RuntimeError):
            drift.begin()
        with pytest.raises(RuntimeError):
            drift.step_scalar()
        drift.step()
        drift.step_scalar()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_worker(self):
        # The child inherits the parent's executor but not its thread;
        # without a fresh worker its first collected advance would hang.
        drift = LatencyDriftProcess(self._base(), seed=3)
        drift.begin()
        drift.step()
        child = multiprocessing.get_context("fork").Process(
            target=_begin_and_step, args=(self._base(),)
        )
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


def _begin_and_step(base: LatencyMatrix) -> None:
    drift = LatencyDriftProcess(base, seed=3)
    drift.begin()
    drift.step()


class TestUnifiedRngDeterminism:
    """Each process owns one seeded np.random.Generator (no ``random``
    module): identical seeds must replay identical trajectories."""

    def test_latency_drift_deterministic(self):
        base = LatencyMatrix.from_topology(grid_topology(3, 3))
        a = LatencyDriftProcess(base, drift_sigma=0.05, seed=4)
        b = LatencyDriftProcess(base, drift_sigma=0.05, seed=4)
        assert np.array_equal(a.step(15).values, b.step(15).values)

    def test_churn_deterministic(self):
        a = ChurnProcess(50, fail_prob=0.2, recover_prob=0.4, seed=4)
        b = ChurnProcess(50, fail_prob=0.2, recover_prob=0.4, seed=4)
        assert a.step(15) == b.step(15)
        assert a.alive() == b.alive()

    def test_different_seeds_diverge(self):
        a = ChurnProcess(200, fail_prob=0.3, seed=1)
        b = ChurnProcess(200, fail_prob=0.3, seed=2)
        assert a.step(3) != b.step(3)

    def test_churn_alive_mask_matches_alive(self):
        churn = ChurnProcess(30, fail_prob=0.5, recover_prob=0.2, seed=3)
        churn.step(5)
        assert churn.alive_mask().tolist() == churn.alive()


class TestChurn:
    def test_protected_nodes_never_fail(self):
        churn = ChurnProcess(10, fail_prob=1.0, recover_prob=0.0, protected={0, 1}, seed=0)
        churn.step(5)
        assert churn.is_alive(0) and churn.is_alive(1)
        assert not churn.is_alive(5)

    def test_failures_reported_once(self):
        churn = ChurnProcess(10, fail_prob=1.0, recover_prob=0.0, seed=0)
        failed_first = churn.step()
        failed_second = churn.step()
        assert len(failed_first) == 10
        assert failed_second == []

    def test_recovery(self):
        churn = ChurnProcess(5, fail_prob=1.0, recover_prob=1.0, seed=0)
        churn.step()  # all fail
        churn.step()  # all recover (and maybe re-fail; fail checked first)
        # With fail_prob=1 the alive ones fail again, but the dead ones
        # recover: after two steps all nodes flipped twice -> alive count
        # can be anything deterministic; just assert no exception and
        # liveness flags are booleans.
        assert len(churn.alive()) == 5

    def test_alive_nodes_listing(self):
        churn = ChurnProcess(4, fail_prob=0.0, seed=0)
        churn.step(3)
        assert churn.alive_nodes() == [0, 1, 2, 3]

    def test_invalid_probs(self):
        with pytest.raises(ValueError):
            ChurnProcess(3, fail_prob=1.5)
