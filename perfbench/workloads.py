"""The benchmark's three workloads, built from the library's public API.

Each build function returns a :class:`Workload` whose :meth:`Workload.tick` is
one closed-loop operation: the next tick starts only when the previous
one has returned.  Everything about a workload is fixed by its name and
seed, so two builds with the same arguments produce the same
``TickRecord`` stream.

Why these three (each stresses a different layer of the same tick):

* ``chaos`` -- the substrate-heavy standing stress: latency drift,
  churn, a load hotspot and periodic re-optimization over live reliable
  traffic, with the controller and autoscaler armed.  Drift dominates.
* ``flash_crowd`` -- the data-plane-heavy one, with no drift process:
  join chains share one hot host while source rates spike fivefold, so
  joins, admission and replica recompiles dominate and the autoscaler
  both splits and merges.
* ``tenant_churn`` -- the write side: circuits are optimized, installed
  and uninstalled before every step, so arena append, tombstone and
  compaction run on every tick.  Reopt and drift are off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.network.dynamics import (
    ChurnProcess,
    HotspotEvent,
    LatencyDriftProcess,
    LoadProcess,
)
from repro.network.topology import random_geometric_topology
from repro.runtime.dataplane import DataPlane, RuntimeConfig
from repro.sbon.metrics import TickRecord
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.scaling import AutoScaler, AutoScalerConfig
from repro.workloads import (
    WorkloadParams,
    cpu_hotspot_scenario,
    random_query,
    tenant_churn_scenario,
)

CHAOS_NODES = 1000
CHAOS_CIRCUITS = 100
#: The flash crowd ramps up over ticks 20-28, holds, and ramps back
#: down over ticks 258-266, so an episode of 300 ticks (``run.TICKS``)
#: scales both ways.  The spike is fivefold: at tenfold, about three
#: seeds in ten settle into a regime with 2-5x the network usage and up
#: to 35x the sink deliveries of the others, so no bound could hold
#: across seeds.
FLASH_SPIKE = dict(lambda_spike=5.0, spike_begin=20, spike_ramp=8, spike_hold=230)
CHURN_NODES = 300
CHURN_CIRCUITS = 60
CHURN_PER_TICK = 2


@dataclass
class Workload:
    """One built workload: its simulation and the operation to time."""

    simulation: Simulation
    tick: Callable[[], TickRecord]

    @property
    def data_plane(self) -> DataPlane:
        return self.simulation.data_plane


def build_chaos(seed: int) -> Workload:
    """``chaos_scenario``'s recipe at 1000 / 100 with everything armed.

    Same topology, queries, hotspot, drift, churn, ``reopt_interval=5``
    and ``node_capacity=60`` as :func:`repro.workloads.chaos_scenario`,
    plus reliable transport, the default controller and an autoscaler,
    which that fixture cannot arm.
    """
    n = CHAOS_NODES
    radius = max(0.3, 2.2 / np.sqrt(n))
    topology = random_geometric_topology(n, radius=radius, seed=seed)
    overlay = Overlay.build(topology, vector_dims=2, embedding_rounds=30, seed=seed)
    params = WorkloadParams(
        num_producers=3, rate_bounds=(3.0, 8.0), selectivity_bounds=(0.2, 0.6)
    )
    optimizer = overlay.integrated_optimizer()
    pinned: set[int] = set()
    for i in range(CHAOS_CIRCUITS):
        query, stats = random_query(n, params, name=f"q{i}", seed=seed * 101 + i)
        overlay.install(optimizer.optimize(query, stats))
        pinned |= {p.node for p in query.producers}
        pinned.add(query.consumer.node)
    host_use: dict[int, int] = {}
    for circuit in overlay.circuits.values():
        for sid in circuit.unpinned_ids():
            node = circuit.host_of(sid)
            host_use[node] = host_use.get(node, 0) + 1
    busiest = tuple(
        sorted(host_use, key=lambda k: (-host_use[k], k))[: max(1, len(host_use) // 2)]
    )
    load = LoadProcess(n, mean_load=0.15, sigma=0.05, seed=seed + 1)
    load.add_hotspot(
        HotspotEvent(start_tick=8, duration=30, nodes=busiest, extra_load=0.8)
    )
    drift = LatencyDriftProcess(overlay.latencies, drift_sigma=0.02, seed=seed + 2)
    churn = ChurnProcess(
        n, fail_prob=0.01, recover_prob=0.2, protected=pinned, seed=seed + 3
    )
    plane = DataPlane(
        overlay, RuntimeConfig(seed=seed + 4, node_capacity=60.0, reliable=True)
    )
    simulation = Simulation(
        overlay,
        load_process=load,
        latency_drift=drift,
        churn=churn,
        config=SimulationConfig(reopt_interval=5, migration_threshold=0.01),
        data_plane=plane,
        control=True,
        autoscaler=AutoScaler(overlay, plane),
    )
    return Workload(simulation, simulation.step)


def build_flash_crowd(seed: int) -> Workload:
    """A fivefold source-rate spike on 48 join chains, autoscaler armed."""
    scenario = cpu_hotspot_scenario(
        mode="cost",
        num_chains=48,
        seed=seed,
        autoscale=AutoScalerConfig(
            budget=200.0, breach_ticks=2, cold_ticks=4, cooldown=6, k_max=8
        ),
        **FLASH_SPIKE,
    )
    return Workload(scenario.simulation, scenario.simulation.step)


def build_tenant_churn(seed: int) -> Workload:
    """Two optimized installs and two uninstalls before every step."""
    scenario = tenant_churn_scenario(
        num_nodes=CHURN_NODES, initial_circuits=CHURN_CIRCUITS, seed=seed
    )

    def tick() -> TickRecord:
        scenario.churn_tick(installs=CHURN_PER_TICK, uninstalls=CHURN_PER_TICK)
        return scenario.simulation.step()

    return Workload(scenario.simulation, tick)


BUILD: dict[str, Callable[[int], Workload]] = {
    "chaos": build_chaos,
    "flash_crowd": build_flash_crowd,
    "tenant_churn": build_tenant_churn,
}
