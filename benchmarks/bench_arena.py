"""E21 — the global circuit arena: fused dispatch and incremental churn.

PR 7 fuses every installed circuit's compiled arrays into one global
CSR arena shared by the data plane and the re-optimizer, so a tick runs
a constant number of array kernels regardless of how many circuits are
installed.  This benchmark pins the three performance claims:

1. **Sublinear dispatch** — the per-circuit cost of one traffic tick at
   ``HI_CIRCUITS`` circuits is at most 3x the per-circuit cost at
   ``LO_CIRCUITS`` circuits: per-tick Python dispatch no longer grows
   with the circuit count.
2. **Fused re-optimization** — one global placement pass
   (``Reoptimizer.step_all``) over all circuits.
3. **Incremental install/uninstall** — under the tenant-churn workload,
   syncing one departure + one arrival into the arena (append rows,
   tombstone the dead segment), with tuple conservation balanced every
   tick.

Claims 2 and 3 were measured against twins that have since been
deleted — the per-circuit reopt loop and the full-recompile sync; the
fused pass and the incremental arena each keep only their scalar twin
as the oracle (pinned by the property suite).  Their last committed
"before" timings are frozen below as historical constants (measured on
the 2-vCPU x86_64 Linux development container, CPython 3.11,
numpy 2.4.6), and the old speedup floors carry forward as absolute
``after_s`` bounds in full mode: the fused pass at most
:data:`PERCIRCUIT_REOPT_S` / 1.5, the incremental sync at most
:data:`FULL_RECOMPILE_SYNC_S` / 10.

Set ``BENCH_QUICK=1`` for the small CI smoke sizes.  Quick mode keeps
the dispatch-scaling ceiling; no historical baseline exists at quick
sizes, so the reopt and churn rows are reported without a bound.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

import numpy as np

from _harness import report, write_bench_json
from repro.core.circuit import Circuit, Service
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.reoptimizer import Reoptimizer
from repro.network.latency import LatencyMatrix
from repro.query.operators import ServiceSpec
from repro.runtime.dataplane import DataPlane, RuntimeConfig
from repro.sbon.overlay import Overlay
from repro.workloads.scenarios import tenant_churn_scenario

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

#: Node count shared by the dispatch-scaling and fused-reopt stages.
ARENA_NODES = 120 if QUICK else 1000
#: Circuit counts for the sublinear-dispatch comparison.
LO_CIRCUITS, HI_CIRCUITS = (20, 100) if QUICK else (100, 1000)
JOINS = 1
WARMUP_TICKS = 3 if QUICK else 5
TIMED_TICKS = 3
#: Per-circuit tick cost at HI may be at most this multiple of LO's.
SUBLINEAR_CEILING = 3.0
REOPT_PASSES = 2 if QUICK else 3
#: Tenant-churn stage: installed tenants and timed churn rounds.
CHURN_NODES, CHURN_CIRCUITS = (36, 40) if QUICK else (64, 250)
CHURN_ROUNDS = 4 if QUICK else 6

#: Seconds per full placement pass of the deleted per-circuit reopt
#: loop (``ARENA_NODES`` = 1000 nodes, ``HI_CIRCUITS`` = 1000 circuits).
PERCIRCUIT_REOPT_S = 0.07427607566629983
#: Seconds per churn sync of the deleted full-recompile path (64 nodes,
#: 250 tenants, one in / one out).
FULL_RECOMPILE_SYNC_S = 0.026738431666975277
#: The historical speedup floors, now absolute after_s bounds (full mode).
REOPT_FLOOR = 1.5
CHURN_FLOOR = 10.0


def _make_overlay(n: int, num_circuits: int, joins: int = JOINS, seed: int = 0) -> Overlay:
    """A planted overlay carrying ``num_circuits`` random join chains.

    Same construction as the E18 traffic overlay: Euclidean substrate
    latencies on a random plane, join chains with uniform source rates
    and decaying internal rates.  Identical seeds build identical twins.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 200.0, size=(n, 2))
    diff = points[:, None, :] - points[None, :, :]
    latencies = LatencyMatrix(np.sqrt((diff ** 2).sum(axis=-1)))
    spec = CostSpaceSpec.latency_load(vector_dims=2)
    space = CostSpace.from_embedding(spec, points, {"cpu_load": np.zeros(n)})
    overlay = Overlay(latencies, space)
    for c in range(num_circuits):
        circuit = Circuit(name=f"c{c}")
        producers = rng.choice(n, size=joins + 1, replace=False)
        for a, node in enumerate(producers):
            circuit.add_service(
                Service(f"c{c}/p{a}", ServiceSpec.relay(), int(node), frozenset((f"P{a}",)))
            )
        prev = f"c{c}/p0"
        prev_rate = float(rng.uniform(4.0, 10.0))
        for j in range(joins):
            sid = f"c{c}/j{j}"
            circuit.add_service(
                Service(sid, ServiceSpec.join(), None, frozenset((f"P{j}", f"X{j}")))
            )
            other_rate = float(rng.uniform(4.0, 10.0))
            circuit.add_link(prev, sid, prev_rate)
            circuit.add_link(f"c{c}/p{j + 1}", sid, other_rate)
            circuit.assign(sid, int(rng.integers(n)))
            prev = sid
            prev_rate = float(rng.uniform(0.3, 0.8)) * min(prev_rate, other_rate)
        sink = f"c{c}/sink"
        circuit.add_service(
            Service(sink, ServiceSpec.relay(), int(rng.integers(n)), frozenset(("ALL",)))
        )
        circuit.add_link(prev, sink, prev_rate)
        overlay.install_circuit(circuit)
    return overlay


@lru_cache(maxsize=1)
def tick_scaling_timings() -> dict[int, float]:
    """Mean traffic-tick seconds at LO_CIRCUITS and HI_CIRCUITS."""
    times: dict[int, float] = {}
    for count in (LO_CIRCUITS, HI_CIRCUITS):
        plane = DataPlane(_make_overlay(ARENA_NODES, count, seed=3), RuntimeConfig(seed=3))
        for _ in range(WARMUP_TICKS):
            plane.step()
        t0 = time.perf_counter()
        for _ in range(TIMED_TICKS):
            plane.step()
        times[count] = (time.perf_counter() - t0) / TIMED_TICKS
        assert plane.accounting()["balanced"]
    return times


@lru_cache(maxsize=1)
def reopt_timings() -> float:
    """Fused seconds per full placement pass over ``HI_CIRCUITS``.

    A warmup pass builds the kernels and the fused arena; the timed
    passes then reuse the cached arena, as the simulator does.
    """
    overlay = _make_overlay(ARENA_NODES, HI_CIRCUITS, seed=5)
    reopt = Reoptimizer(
        overlay.cost_space,
        mapper=overlay.exhaustive_mapper(),
        migration_threshold=0.0,
        kernel_cache={},
    )
    circuits = list(overlay.circuits.values())
    reopt.step_all(circuits)
    t_fused = 0.0
    for _ in range(REOPT_PASSES):
        t0 = time.perf_counter()
        reopt.step_all(circuits)
        t_fused += time.perf_counter() - t0
    assert reopt.arena_builds == 1
    return t_fused / REOPT_PASSES


@lru_cache(maxsize=1)
def churn_sync_timings() -> float:
    """Incremental seconds per churn sync.

    Each churn round retires the oldest tenant and admits a new one,
    then times ``DataPlane._sync`` — the arena maintenance the tick
    would otherwise perform.  The plane then steps with balanced
    accounting and no full recompile.
    """
    scenario = tenant_churn_scenario(
        num_nodes=CHURN_NODES, initial_circuits=CHURN_CIRCUITS, seed=1
    )
    # Let traffic settle before churning so conservation sees deliveries.
    for _ in range(3):
        scenario.simulation.step()
    t_inc = 0.0
    for _ in range(CHURN_ROUNDS):
        scenario.churn_tick()
        t0 = time.perf_counter()
        scenario.data_plane._sync()
        t_inc += time.perf_counter() - t0
        scenario.simulation.step()
        assert scenario.data_plane.accounting()["balanced"]
    assert scenario.data_plane.recompiles == 0, "incremental path recompiled"
    return t_inc / CHURN_ROUNDS


def test_tick_dispatch_is_sublinear():
    times = tick_scaling_timings()
    per_lo = times[LO_CIRCUITS] / LO_CIRCUITS
    per_hi = times[HI_CIRCUITS] / HI_CIRCUITS
    assert per_hi <= SUBLINEAR_CEILING * per_lo, (
        f"per-circuit tick cost grew {per_hi / per_lo:.2f}x "
        f"from {LO_CIRCUITS} to {HI_CIRCUITS} circuits"
    )


def test_fused_pass_within_historical_bound():
    t_fused = reopt_timings()
    if QUICK:
        return
    bound = PERCIRCUIT_REOPT_S / REOPT_FLOOR
    assert t_fused <= bound, (
        f"fused step_all {t_fused * 1e3:.2f} ms exceeds the absolute bound "
        f"{bound * 1e3:.2f} ms (frozen per-circuit loop / {REOPT_FLOOR})"
    )


def test_incremental_churn_within_historical_bound():
    t_inc = churn_sync_timings()
    if QUICK:
        return
    bound = FULL_RECOMPILE_SYNC_S / CHURN_FLOOR
    assert t_inc <= bound, (
        f"incremental churn sync {t_inc * 1e3:.3f} ms exceeds the absolute "
        f"bound {bound * 1e3:.3f} ms (frozen full recompile / {CHURN_FLOOR})"
    )


def test_report_arena():
    times = tick_scaling_timings()
    t_fused = reopt_timings()
    t_inc = churn_sync_timings()
    # No historical baseline exists at quick sizes.
    t_loop = None if QUICK else PERCIRCUIT_REOPT_S
    t_full = None if QUICK else FULL_RECOMPILE_SYNC_S

    def ratio(before, after):
        return None if before is None else before / after

    def cell(value, scale=1.0):
        return "-" if value is None else value * scale

    per_lo = times[LO_CIRCUITS] / LO_CIRCUITS
    per_hi = times[HI_CIRCUITS] / HI_CIRCUITS
    rows = [
        [
            f"traffic tick per circuit ({LO_CIRCUITS}->{HI_CIRCUITS} circuits)",
            ARENA_NODES,
            per_lo * 1e6,
            per_hi * 1e6,
            per_lo / per_hi,
        ],
        [
            f"reopt pass ({HI_CIRCUITS} circuits)",
            ARENA_NODES,
            cell(t_loop, 1e3),
            t_fused * 1e3,
            cell(ratio(t_loop, t_fused)),
        ],
        [
            f"churn sync ({CHURN_CIRCUITS} tenants, 1 in / 1 out)",
            CHURN_NODES,
            cell(t_full, 1e3),
            t_inc * 1e3,
            cell(ratio(t_full, t_inc)),
        ],
    ]
    report(
        "E21",
        "Global circuit arena: dispatch scaling, fused reopt, incremental churn"
        + (" [quick]" if QUICK else ""),
        ["kernel", "n", "before (us/ms)", "after (us/ms)", "speedup"],
        rows,
    )
    write_bench_json(
        "E21",
        [
            {
                "op": "tick_per_circuit",
                "n": HI_CIRCUITS,
                "before_s": per_lo,
                "after_s": per_hi,
                "speedup": per_lo / per_hi,
            },
            {
                "op": "reopt_pass",
                "n": HI_CIRCUITS,
                "before_s": t_loop,
                "after_s": t_fused,
                "speedup": ratio(t_loop, t_fused),
            },
            {
                "op": "churn_sync",
                "n": CHURN_CIRCUITS,
                "before_s": t_full,
                "after_s": t_inc,
                "speedup": ratio(t_full, t_inc),
            },
        ],
        quick=QUICK,
    )
