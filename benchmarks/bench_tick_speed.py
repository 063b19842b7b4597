"""E24 — absolute tick speed of the batched data plane.

This benchmark times one full traffic tick of the batched data plane
(epoch-ring join state, high-water admission ledger) and tracks the
absolute time release over release.

It used to time the former hot path (two-level join state with
``np.insert`` merges, tick-start full state scans) fresh in the same
process as its "before" column.  That path has been deleted — the data
plane keeps one batched path and its per-tuple scalar twin as the
oracle — so the last committed baseline timings are frozen below as
historical constants (:data:`TWOLEVEL_BASELINE_TICK_S`, measured on the
2-vCPU x86_64 Linux development container, CPython 3.11, numpy 2.4.6).
The old ≥1.3× speedup floor carries forward as an absolute bound on the
current tick: ``after_s <= before_s / 1.3`` at 1000 nodes / 100
circuits in full mode.

Timing uses the minimum over multi-tick blocks: scheduler noise only
ever *adds* time, so the block minimum is the stable estimator on a
shared machine (medians of the same data swing by ±10%).  ``after_s``
lands in ``BENCH_E24.json`` so ``check_regression.py`` tracks the
absolute trend.  Set ``BENCH_QUICK=1`` for the small CI smoke sizes
(no historical baseline exists at those sizes, so quick mode reports
without a bound).
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

import numpy as np

from _harness import report, write_bench_json
from repro.core.circuit import Circuit, Service
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.load_model import LoadModel
from repro.network.latency import LatencyMatrix
from repro.query.operators import ServiceSpec
from repro.runtime.dataplane import DataPlane, RuntimeConfig
from repro.sbon.overlay import Overlay

QUICK = os.environ.get("BENCH_QUICK", "") == "1"
#: (nodes, circuits, joins per circuit) rows of the trajectory table.
SCALES = [(150, 20, 2)] if QUICK else [(1000, 100, 3), (4000, 1000, 3)]
#: Ticks to reach steady-state join-state occupancy before timing.
WARMUP_TICKS = 30 if QUICK else 100
#: Ticks per timed block, and timed blocks per scale.
BLOCK_TICKS = 3 if QUICK else 5
BLOCK_ROUNDS = 6 if QUICK else 12
#: Seconds per tick of the deleted two-level/full-scan path, by node
#: count (the last committed full-mode measurement of it).
TWOLEVEL_BASELINE_TICK_S = {1000: 0.004613785599940456, 4000: 0.05270153079982265}
#: The historical speedup floor, now an absolute bound in full mode at
#: the (1000, 100) row: after_s <= TWOLEVEL_BASELINE_TICK_S[1000] / floor.
TICK_SPEEDUP_FLOOR = 1.3


def _overlay(n: int, num_circuits: int, joins: int, seed: int = 0) -> Overlay:
    """Random-plane overlay carrying join-chain circuits (E18 shape)."""
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


@lru_cache(maxsize=None)
def tick_speed_timings(n: int, circuits: int, joins: int):
    """(current s/tick, tuples/tick) at one scale.

    Admission prices are live (default :class:`LoadModel`, probe cost
    active, so the high-water ledger is read every tick) but capacity
    is effectively unbounded so the timed work is the pure tick
    machinery, not drop bookkeeping.  Conservation is asserted after
    the timed blocks.
    """
    overlay = _overlay(n, circuits, joins)
    plane = DataPlane(
        overlay, RuntimeConfig(seed=3, node_capacity=1e9, load_model=LoadModel())
    )
    for _ in range(WARMUP_TICKS):
        plane.step()
    times: list[float] = []
    tuples = 0
    for _ in range(BLOCK_ROUNDS):
        t0 = time.perf_counter()
        records = [plane.step() for _ in range(BLOCK_TICKS)]
        times.append((time.perf_counter() - t0) / BLOCK_TICKS)
        tuples = int(np.mean([r.processed + r.emitted for r in records]))
    assert plane.accounting()["balanced"]
    return min(times), tuples


def test_report_tick_speed():
    rows = []
    entries = []
    for n, circuits, joins in SCALES:
        t_after, tuples = tick_speed_timings(n, circuits, joins)
        t_before = None if QUICK else TWOLEVEL_BASELINE_TICK_S[n]
        speedup = t_before / t_after if t_before is not None else None
        rows.append(
            [
                f"tick ({circuits} circuits, ~{tuples} tuples)",
                n,
                "-" if t_before is None else t_before * 1e3,
                t_after * 1e3,
                "-" if speedup is None else speedup,
            ]
        )
        entries.append(
            {
                "op": "tick",
                "n": n,
                "circuits": circuits,
                "tuples_per_tick": tuples,
                "before_s": t_before,
                "after_s": t_after,
                "speedup": speedup,
            }
        )
    report(
        "E24",
        "Absolute tick speed vs the frozen two-level baseline"
        + (" [quick]" if QUICK else ""),
        ["kernel", "n", "two-level ms", "current ms", "speedup"],
        rows,
    )
    write_bench_json("E24", entries, quick=QUICK)
    if not QUICK:
        gate = next(e for e in entries if e["n"] == 1000)
        bound = TWOLEVEL_BASELINE_TICK_S[1000] / TICK_SPEEDUP_FLOOR
        assert gate["after_s"] <= bound, (
            f"tick {gate['after_s'] * 1e3:.3f} ms exceeds the absolute bound "
            f"{bound * 1e3:.3f} ms (frozen two-level baseline / {TICK_SPEEDUP_FLOOR})"
        )
