"""Unit tests for the tick-driven simulation."""

import threading

import numpy as np
import pytest

from repro.network.dynamics import (
    ChurnProcess,
    HotspotEvent,
    LatencyDriftProcess,
    LoadProcess,
)
from repro.network.topology import grid_topology
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.workloads.queries import random_query


def simulated_overlay(seed=0) -> Overlay:
    overlay = Overlay.build(
        grid_topology(4, 4), vector_dims=2, embedding_rounds=20, seed=seed
    )
    query, stats = random_query(16, seed=seed)
    result = overlay.integrated_optimizer().optimize(query, stats)
    overlay.install(result)
    return overlay


class TestConfig:
    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(reopt_interval=-1)


class TestSimulation:
    def test_runs_and_records(self):
        overlay = simulated_overlay()
        sim = Simulation(
            overlay,
            load_process=LoadProcess(16, seed=1),
            config=SimulationConfig(reopt_interval=5),
        )
        series = sim.run(12)
        assert len(series) == 12
        assert series.records[0].tick == 1
        assert series.records[-1].tick == 12
        assert all(r.circuits == 1 for r in series.records)

    def test_zero_ticks(self):
        sim = Simulation(simulated_overlay())
        assert len(sim.run(0)) == 0
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_reopt_disabled_never_migrates(self):
        overlay = simulated_overlay()
        sim = Simulation(
            overlay,
            load_process=LoadProcess(16, sigma=0.2, seed=3),
            config=SimulationConfig(reopt_interval=0),
        )
        series = sim.run(20)
        assert series.total_migrations() == 0

    def test_hotspot_triggers_migration_away(self):
        overlay = simulated_overlay()
        circuit = next(iter(overlay.circuits.values()))
        hosts = {circuit.host_of(sid) for sid in circuit.unpinned_ids()}
        load = LoadProcess(16, mean_load=0.05, sigma=0.0, theta=1.0, seed=1)
        load.add_hotspot(
            HotspotEvent(start_tick=1, duration=1000, nodes=tuple(hosts), extra_load=0.95)
        )
        sim = Simulation(
            overlay,
            load_process=load,
            config=SimulationConfig(reopt_interval=2, migration_threshold=0.0),
        )
        series = sim.run(10)
        assert series.total_migrations() >= 1
        new_hosts = {circuit.host_of(sid) for sid in circuit.unpinned_ids()}
        assert new_hosts != hosts

    def test_churn_evacuates_failed_hosts(self):
        overlay = simulated_overlay()
        circuit = next(iter(overlay.circuits.values()))
        pinned_nodes = {
            circuit.host_of(sid) for sid in circuit.pinned_ids()
        }
        churn = ChurnProcess(
            16, fail_prob=0.2, recover_prob=0.0, protected=pinned_nodes, seed=2
        )
        sim = Simulation(overlay, churn=churn, config=SimulationConfig(reopt_interval=0))
        series = sim.run(10)
        assert series.total_failures() > 0
        failed = overlay.failed_nodes()
        for sid in circuit.unpinned_ids():
            assert circuit.host_of(sid) not in failed

    def test_ground_truth_reopt_variant(self):
        overlay = simulated_overlay()
        sim = Simulation(
            overlay,
            load_process=LoadProcess(16, seed=5),
            config=SimulationConfig(reopt_interval=3, use_ground_truth_for_reopt=True),
        )
        series = sim.run(6)
        assert len(series) == 6


def drifting_simulation(seed=0) -> Simulation:
    overlay = simulated_overlay(seed)
    circuit = next(iter(overlay.circuits.values()))
    pinned = {circuit.host_of(sid) for sid in circuit.pinned_ids()}
    return Simulation(
        overlay,
        load_process=LoadProcess(16, seed=seed + 1),
        latency_drift=LatencyDriftProcess(
            overlay.latencies, drift_sigma=0.05, seed=seed + 2
        ),
        churn=ChurnProcess(
            16, fail_prob=0.05, recover_prob=0.3, protected=pinned, seed=seed + 3
        ),
        config=SimulationConfig(reopt_interval=2),
    )


class TestDriftOverlap:
    """The vectorized step overlaps the next tick's drift with phases 3-6b."""

    def test_nothing_in_flight_after_step(self):
        sim = drifting_simulation()
        for _ in range(3):
            sim.step()
            assert sim.latency_drift._pending is None
        assert sim.latency_drift.tick == sim.tick + 1

    def test_nothing_in_flight_when_a_later_phase_raises(self):
        sim, twin = drifting_simulation(), drifting_simulation()
        sim.step()
        twin.step()

        def fail():
            raise RuntimeError("refresh failed")

        sim.overlay.refresh_cost_space = fail
        with pytest.raises(RuntimeError, match="refresh failed"):
            sim.step()
        assert sim.latency_drift._pending is None
        # The failed tick installed its matrix and prepared the next one,
        # exactly as a completed tick does.
        twin.step()
        assert np.array_equal(
            sim.overlay.latencies.values, twin.overlay.latencies.values
        )
        assert sim.latency_drift.tick == twin.latency_drift.tick

    def test_mixed_step_and_step_scalar_match_fresh_twin(self):
        mixed, fresh = drifting_simulation(), drifting_simulation()
        for scalar in (False, True, True, False, False, True):
            record = (mixed.step_scalar if scalar else mixed.step)()
            expected = fresh.step_scalar()
            assert np.allclose(
                mixed.overlay.latencies.values,
                fresh.overlay.latencies.values,
                rtol=1e-12,
                atol=0.0,
            )
            assert record.network_usage == pytest.approx(
                expected.network_usage, rel=1e-9
            )
        # Both end on a scalar tick, so neither drift process is ahead.
        assert mixed.latency_drift.tick == fresh.latency_drift.tick == 6
        assert (
            mixed.latency_drift._rng.bit_generator.state
            == fresh.latency_drift._rng.bit_generator.state
        )

    def test_ten_simulations_share_one_worker_thread(self):
        before = threading.active_count()
        sims = [drifting_simulation(seed) for seed in range(10)]
        for sim in sims:
            sim.run(2)
        assert threading.active_count() <= before + 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_overlay_drifts(self, n):
        # n = 1 has no node pair to drift, n = 2 exactly one.
        def build() -> Simulation:
            overlay = Overlay.build(
                grid_topology(1, n), vector_dims=2, embedding_rounds=5, seed=0
            )
            drift = LatencyDriftProcess(overlay.latencies, drift_sigma=0.1, seed=1)
            return Simulation(overlay, latency_drift=drift)

        vector, scalar = build(), build()
        for _ in range(3):
            vector.step()
            scalar.step_scalar()
            assert vector.overlay.latencies.values.shape == (n, n)
            assert np.allclose(
                vector.overlay.latencies.values,
                scalar.overlay.latencies.values,
                rtol=1e-12,
                atol=0.0,
            )
        assert [r.tick for r in vector.series.records] == [1, 2, 3]
