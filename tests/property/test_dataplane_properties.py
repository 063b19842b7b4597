"""Equivalence and conservation properties of the data-plane runtime.

The PR-1/PR-2 discipline: every vectorized kernel keeps a scalar
reference consuming the same RNG draws, pinned by equivalence tests.
For the data plane that means twin instances stepped through
``DataPlane.step`` (batched transport + kernels) and
``DataPlane.step_scalar`` (per-tuple heapq + per-key tables) must agree
tuple for tuple — including under churn, live migration, and
backpressure — and the conservation balance must hold at every tick.
"""

import numpy as np
import pytest

from repro.network.dynamics import ChurnProcess, HotspotEvent, LatencyDriftProcess, LoadProcess
from repro.core.load_model import LoadModel
from repro.network.topology import grid_topology
from repro.runtime.dataplane import (
    DataPlane,
    RuntimeConfig,
    _filter_bucket,
    _filter_bucket_int,
    _pair_bucket,
    _pair_bucket_int,
)
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.workloads.queries import WorkloadParams, random_query
from repro.workloads.scenarios import chaos_scenario

PARAMS = WorkloadParams(
    num_producers=3, rate_bounds=(3.0, 8.0), selectivity_bounds=(0.2, 0.6)
)


def traffic_overlay(seed=0, num_circuits=3, side=5):
    n = side * side
    overlay = Overlay.build(
        grid_topology(side, side), vector_dims=2, embedding_rounds=20, seed=seed
    )
    pinned = set()
    optimizer = overlay.integrated_optimizer()
    for i in range(num_circuits):
        query, stats = random_query(n, PARAMS, name=f"q{i}", seed=seed * 10 + i)
        overlay.install(optimizer.optimize(query, stats))
        pinned |= {p.node for p in query.producers} | {query.consumer.node}
    return overlay, pinned


def chaotic_simulation(seed=0, capacity=40.0, **runtime):
    overlay, pinned = traffic_overlay(seed)
    n = overlay.num_nodes
    plane = DataPlane(
        overlay, RuntimeConfig(seed=99, node_capacity=capacity, **runtime)
    )
    return Simulation(
        overlay,
        load_process=LoadProcess(n, sigma=0.1, seed=1),
        latency_drift=LatencyDriftProcess(overlay.latencies, drift_sigma=0.03, seed=2),
        churn=ChurnProcess(
            n, fail_prob=0.01, recover_prob=0.2, protected=pinned, seed=3
        ),
        config=SimulationConfig(reopt_interval=3, migration_threshold=0.0),
        data_plane=plane,
    )


def assert_traffic_equal(rv, rs):
    """Works on both TrafficRecord (.usage) and TickRecord (.data_usage)."""
    assert (rv.emitted, rv.delivered, rv.dropped) == (rs.emitted, rs.delivered, rs.dropped)
    uv = rv.usage if hasattr(rv, "usage") else rv.data_usage
    us = rs.usage if hasattr(rs, "usage") else rs.data_usage
    assert uv == pytest.approx(us, rel=1e-9, abs=1e-6)
    assert rv.latency_p50 == pytest.approx(rs.latency_p50, abs=1e-9)
    assert rv.latency_p95 == pytest.approx(rs.latency_p95, abs=1e-9)
    assert rv.latency_p99 == pytest.approx(rs.latency_p99, abs=1e-9)


class TestHashParity:
    """The batched buckets and their per-tuple twins are the same hash."""

    def test_filter_bucket_matches_int_version(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 31, size=500)
        salts = rng.integers(0, 1 << 20, size=500)
        batched = _filter_bucket(keys, salts)
        for i in range(500):
            assert batched[i] == _filter_bucket_int(int(keys[i]), int(salts[i]))

    def test_pair_bucket_matches_int_version_and_is_symmetric(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1 << 31, size=500)
        ta = rng.integers(0, 1 << 20, size=500)
        tb = rng.integers(0, 1 << 20, size=500)
        salts = rng.integers(0, 1 << 20, size=500)
        batched = _pair_bucket(keys, ta, tb, salts)
        swapped = _pair_bucket(keys, tb, ta, salts)
        np.testing.assert_array_equal(batched, swapped)
        for i in range(500):
            assert batched[i] == _pair_bucket_int(
                int(keys[i]), int(ta[i]), int(tb[i]), int(salts[i])
            )

    def test_buckets_are_uniform_enough(self):
        rng = np.random.default_rng(2)
        b = _filter_bucket(rng.integers(0, 1 << 40, size=20000), np.zeros(20000, dtype=np.int64))
        assert 0.0 <= b.min() and b.max() < 1.0
        assert abs(b.mean() - 0.5) < 0.02


class TestStepEquivalence:
    def test_plain_traffic_twins_agree(self):
        a = DataPlane(traffic_overlay(seed=4)[0], RuntimeConfig(seed=7))
        b = DataPlane(traffic_overlay(seed=4)[0], RuntimeConfig(seed=7))
        for _ in range(30):
            assert_traffic_equal(a.step(), b.step_scalar())
        assert a.accounting() == b.accounting()
        assert a.accounting()["balanced"]

    def test_twins_agree_under_churn_migration_and_backpressure(self):
        a, b = chaotic_simulation(seed=5), chaotic_simulation(seed=5)
        for _ in range(30):
            rv, rs = a.step(), b.step_scalar()
            assert (rv.migrations, rv.failures) == (rs.migrations, rs.failures)
            assert_traffic_equal(rv, rs)
        assert a.data_plane.accounting() == b.data_plane.accounting()
        assert a.data_plane.accounting()["balanced"]
        # Placements stayed twin-equal through live migrations too.
        for name, circuit in a.overlay.circuits.items():
            assert circuit.placement == b.overlay.circuits[name].placement

    def test_twins_agree_across_uninstall_and_install(self):
        ov_a, _ = traffic_overlay(seed=6)
        ov_b, _ = traffic_overlay(seed=6)
        a = DataPlane(ov_a, RuntimeConfig(seed=5))
        b = DataPlane(ov_b, RuntimeConfig(seed=5))
        for _ in range(10):
            assert_traffic_equal(a.step(), b.step_scalar())
        ov_a.uninstall("q1")
        ov_b.uninstall("q1")
        for _ in range(5):
            assert_traffic_equal(a.step(), b.step_scalar())
        assert a.dropped_uninstalled == b.dropped_uninstalled > 0
        query, stats = random_query(25, PARAMS, name="q9", seed=77)
        ov_a.install(ov_a.integrated_optimizer().optimize(query, stats))
        ov_b.install(ov_b.integrated_optimizer().optimize(query, stats))
        for _ in range(10):
            assert_traffic_equal(a.step(), b.step_scalar())
        assert a.accounting() == b.accounting()
        assert a.accounting()["balanced"]


class TestJoinStateVsScalarTwin:
    """The epoch ring and the high-water admission ledger against the
    scalar twin's per-key tables, under the full chaos mix: churn, live
    migration, cost-priced capacity backpressure, and window expiry.

    ``LoadModel()`` prices join probes, so admission reads the ledger
    every tick; a tiny flush limit forces many epoch seals and
    generation folds, so expiring windows cross epoch boundaries
    constantly instead of staying inside the append buffer.
    """

    def test_ring_and_ledger_match_scalar_twin_under_chaos(self):
        common = dict(seed=5, window=8, load_model=LoadModel())
        a = chaotic_simulation(**common)
        b = chaotic_simulation(**common)
        a.data_plane._epoch_flush_limit = 16
        ledger_checks = 0
        for _ in range(40):
            rv, rs = a.step(), b.step_scalar()
            assert (rv.migrations, rv.failures) == (rs.migrations, rs.failures)
            assert_traffic_equal(rv, rs)
            # Dyadic costs and 1/256-quantized prices: exact equality.
            assert (rv.cpu_cost, rv.cpu_dropped) == (rs.cpu_cost, rs.cpu_dropped)
            plane = a.data_plane
            if not plane._hw_dirty:
                # The incremental ledger equals the scalar full scan.
                np.testing.assert_array_equal(
                    plane._hw_counts.reshape(-1, 2),
                    b.data_plane._state_counts(),
                )
                ledger_checks += 1
        acct = a.data_plane.accounting()
        assert acct["balanced"]
        assert acct == b.data_plane.accounting()
        # The comparison exercised real machinery: the ring sealed
        # chunks, the ledger was read clean on most ticks, and the
        # cost-priced gate rejected tuples.
        assert len(a.data_plane._ring) >= 1
        assert ledger_checks >= 20
        assert a.data_plane.dropped_capacity > 0

    def test_epoch_scalar_twin_still_agrees(self):
        """The same twin comparison under the unit load model."""
        a = chaotic_simulation(seed=7, window=8)
        b = chaotic_simulation(seed=7, window=8)
        a.data_plane._epoch_flush_limit = 16
        for _ in range(25):
            rv, rs = a.step(), b.step_scalar()
            assert (rv.migrations, rv.failures) == (rs.migrations, rs.failures)
            assert_traffic_equal(rv, rs)
        assert a.data_plane.accounting() == b.data_plane.accounting()


class TestConservation:
    def test_no_tuple_lost_under_chaos(self):
        scenario = chaos_scenario(num_nodes=30, num_circuits=3, node_capacity=40.0, seed=3)
        sim = scenario.simulation
        for _ in range(50):
            sim.step()
            acct = scenario.data_plane.accounting()
            assert acct["balanced"], acct
        assert sim.series.total_failures() > 0
        assert sim.series.total_migrations() > 0
        assert scenario.data_plane.dropped > 0
        assert sim.series.total_delivered() > 0

    def test_lossless_without_churn_or_capacity(self):
        overlay, _ = traffic_overlay(seed=8)
        plane = DataPlane(overlay, RuntimeConfig(seed=1))
        for _ in range(40):
            plane.step()
        acct = plane.accounting()
        assert acct["balanced"]
        assert acct["dropped"] == 0
        assert acct["sent"] == acct["processed"] + acct["in_flight"]


class TestDeterminism:
    def test_same_seed_same_series(self):
        a = DataPlane(traffic_overlay(seed=9)[0], RuntimeConfig(seed=13))
        b = DataPlane(traffic_overlay(seed=9)[0], RuntimeConfig(seed=13))
        for _ in range(20):
            assert a.step() == b.step()

    def test_different_seed_differs(self):
        a = DataPlane(traffic_overlay(seed=9)[0], RuntimeConfig(seed=13))
        b = DataPlane(traffic_overlay(seed=9)[0], RuntimeConfig(seed=14))
        records_a = [a.step() for _ in range(10)]
        records_b = [b.step() for _ in range(10)]
        assert any(ra.emitted != rb.emitted for ra, rb in zip(records_a, records_b))
