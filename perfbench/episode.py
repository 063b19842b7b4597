"""One benchmark episode: build a workload instance, then time its ticks.

An episode builds the instance ``builds`` times (each build is a set-up
sample; the last build is kept), then drives ``ticks`` timed ticks in a
closed loop.  Conservation is checked after every tick, outside the
timed span, and then the host-speed probe (``hostspeed.py``) is timed;
probes are also timed around each build, whose time is reported at
the reference speed.  With ``trace`` the layers' entry points are wrapped
(``spans.py``) for the duration of the episode.
"""

from __future__ import annotations

import gc
import hashlib
import json
import traceback
from time import perf_counter

from hostspeed import probe_ms, scale
from spans import TICK, SpanRecorder
from workloads import BUILD

#: Host-speed probes taken before and after each build.
SETUP_PROBES = 5


def record_digest(records) -> str:
    """SHA-256 over the canonical ``TickRecord`` stream."""
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record.to_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _counters(workload) -> dict:
    sim = workload.simulation
    acct = workload.data_plane.accounting()
    return {
        "processed": acct["processed"],
        "dropped": acct["dropped"],
        "redelivered": workload.data_plane.redelivered,
        "accepts": sim.reopt_accepts,
        "rejects": sim.reopt_rejects,
        "calibrations": sim.controller.calibrations if sim.controller else 0,
        "triggers": sim.controller.triggers if sim.controller else 0,
        "scale_ups": sim.autoscaler.scale_ups if sim.autoscaler else 0,
        "scale_downs": sim.autoscaler.scale_downs if sim.autoscaler else 0,
    }


def _layers(rec: SpanRecorder, ticks: int, processed: int) -> dict:
    """Per-layer times from the traced episode's spans.

    Per-tick figures average the time spent in spans that are direct
    children of the tick span; per-call figures cover every call of the
    episode, set-up included.
    """
    summary = rec.layer_summary()
    direct, setup, calls = summary["direct"], summary["setup"], summary["calls"]

    def per_tick(name: str) -> float:
        return direct.get(name, 0.0) / ticks * 1e3

    def per_call(name: str) -> float:
        count, total = calls.get(name, (0, 0.0))
        return total / count * 1e3 if count else 0.0

    covered = sum(direct.values())
    return {
        "dynamics.drift_ms": per_tick("dynamics.drift"),
        "dynamics.load_ms": per_tick("dynamics.load"),
        "dynamics.churn_ms": per_tick("dynamics.churn"),
        "overlay.refresh_ms": per_tick("overlay.refresh"),
        "overlay.record_ms": per_tick("overlay.record"),
        "overlay.install_ms": per_call("overlay.install"),
        "overlay.uninstall_ms": per_call("overlay.uninstall"),
        "optimizer.optimize_ms": per_call("optimizer.optimize"),
        "optimizer.calls": calls.get("optimizer.optimize", (0, 0.0))[0],
        "reopt.step_all_ms": per_call("reopt.step_all"),
        "reopt.calls": calls.get("reopt.step_all", (0, 0.0))[0],
        "reopt.evacuate_ms": per_tick("reopt.evacuate"),
        "dataplane.step_ms": per_tick("dataplane.step"),
        "dataplane.us_per_tuple": (
            direct.get("dataplane.step", 0.0) * 1e6 / processed if processed else 0.0
        ),
        "control.step_ms": per_tick("control.step"),
        "scaling.step_ms": per_tick("scaling.step"),
        "simulator.self_ms": (summary["tick_s"] - covered) / ticks * 1e3,
        "setup.overlay_build_s": setup.get("setup.overlay_build", 0.0),
        "setup.install_s": setup.get("optimizer.optimize", 0.0)
        + setup.get("overlay.install", 0.0),
        "trace.coverage": covered / summary["tick_s"],
    }


def run_episode(
    name: str, seed: int, ticks: int, builds: int, trace: bool, spans_out=None
) -> dict:
    """Run one episode; returns its samples, checks and figures."""
    if not trace:
        return _episode(name, seed, ticks, builds, None)
    rec = SpanRecorder()
    rec.install()
    try:
        out = _episode(name, seed, ticks, builds, rec)
    finally:
        rec.uninstall()
    out["layers"] = _layers(rec, ticks, out["counts"]["dataplane.processed"])
    out["span_problems"] = rec.check_nesting()[:5]
    if spans_out:
        rec.write_jsonl(spans_out)
    return out


def _episode(name: str, seed: int, ticks: int, builds: int, rec) -> dict:
    setup_s: list[float] = []
    workload = None
    for _ in range(builds):
        workload = None
        gc.collect()
        if rec is not None:
            rec.clear()
        probes = [probe_ms() for _ in range(SETUP_PROBES)]
        t0 = perf_counter()
        workload = BUILD[name](seed)
        # The first tick compiles the data plane; it belongs to set-up.
        workload.tick()
        elapsed = perf_counter() - t0
        probes += [probe_ms() for _ in range(SETUP_PROBES)]
        setup_s.append(scale(elapsed, probes))

    sim, plane = workload.simulation, workload.data_plane
    first = len(sim.series.records)
    before = _counters(workload)
    gc.collect()
    tick_ms: list[float] = []
    host_ms: list[float] = []
    failed = 0
    errors: list[str] = []
    for i in range(ticks):
        if rec is not None:
            rec.tick_id = i + 1
            root = rec.open(TICK)
        t0 = perf_counter()
        try:
            workload.tick()
            raised = False
        except Exception:  # a failed operation is counted, not fatal
            raised = True
            errors.append(traceback.format_exc())
        t1 = perf_counter()
        if rec is not None:
            rec.close(root)
        tick_ms.append((t1 - t0) * 1e3)
        # Conservation is checked after every tick, outside its span.
        if raised or not plane.accounting()["balanced"]:
            failed += 1
        host_ms.append(probe_ms())

    after = _counters(workload)
    delta = {k: after[k] - before[k] for k in after}
    timed = sim.series.records[first:]
    delivering = [r.latency_p95 for r in timed if r.delivered]
    handled = delta["processed"] + delta["dropped"]
    decided = delta["accepts"] + delta["rejects"]
    acct = plane.accounting()
    return {
        "setup_s": setup_s,
        "tick_ms": tick_ms,
        "host_ms": host_ms,
        "ops": ticks,
        "failed": failed,
        "errors": errors[:3],
        "digest": record_digest(sim.series.records),
        "quality": {
            "network_usage": (
                sum(r.network_usage for r in timed) / len(timed) if timed else 0.0
            ),
            "delivery_latency_p95_ms": (
                sum(delivering) / len(delivering) if delivering else 0.0
            ),
            "processed_frac": delta["processed"] / handled if handled else 0.0,
        },
        "counts": {
            "dynamics.failures": sum(r.failures for r in timed),
            "reopt.migrations": sum(r.migrations for r in timed),
            "reopt.accept_ratio": delta["accepts"] / decided if decided else 0.0,
            "dataplane.processed": delta["processed"],
            "dataplane.dropped": delta["dropped"],
            "dataplane.redelivered": delta["redelivered"],
            "dataplane.in_flight_end": acct["in_flight"],
            "dataplane.buffered_end": acct["buffered"],
            "dataplane.recompiles": sum(r.recompiles for r in timed),
            "control.calibrations": delta["calibrations"],
            "control.triggers": delta["triggers"],
            "scaling.scale_ups": delta["scale_ups"],
            "scaling.scale_downs": delta["scale_downs"],
        },
    }
