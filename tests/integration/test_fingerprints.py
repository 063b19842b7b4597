"""Behaviour fingerprints of the standing scenarios.

Each case runs one standing scenario for a fixed number of ticks at a
small size and hashes its ``TickRecord`` stream: SHA-256 over one JSON
line per record (``TickRecord.to_dict()``, sorted keys, every float
rendered with ``%.9g``).  The digests are committed below, so any change
that alters what the simulator does — a placement decision, a dropped
tuple, a priced admission — changes a digest, while a refactor or a
speedup that keeps behaviour leaves every digest as it is.

A change that alters behaviour on purpose re-records the affected
digests in its own commit and says why.  Float rendering rounds to nine
significant digits, so the digests depend on the NumPy/SciPy versions
only where those change a value in its ninth digit; CI pins the versions
the digests were recorded with.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.runtime.dataplane import DataPlane, RuntimeConfig
from repro.sbon.metrics import TickRecord
from repro.sbon.simulator import Simulation
from repro.scaling import AutoScaler, AutoScalerConfig
from repro.workloads.scenarios import (
    chaos_scenario,
    cpu_hotspot_scenario,
    selectivity_drift_scenario,
    tenant_churn_scenario,
)


def canonical_line(record) -> str:
    """One record as a canonical JSON line (sorted keys, %.9g floats)."""
    fields = {
        key: ("%.9g" % value) if isinstance(value, float) else value
        for key, value in record.to_dict().items()
    }
    return json.dumps(fields, sort_keys=True)


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(canonical_line(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def chaos_armed(seed: int = 0) -> Simulation:
    """``chaos_scenario`` with reliable transport, controller, autoscaler.

    The fixture's overlay and (not yet stepped) dynamics processes are
    reused; only the data plane is rebuilt with the reliable transport,
    which the fixture itself cannot arm.
    """
    base = chaos_scenario(
        num_nodes=40, num_circuits=4, node_capacity=20.0, seed=seed
    ).simulation
    plane = DataPlane(
        base.overlay, RuntimeConfig(seed=seed + 4, node_capacity=20.0, reliable=True)
    )
    return Simulation(
        base.overlay,
        load_process=base.load_process,
        latency_drift=base.latency_drift,
        churn=base.churn,
        config=base.config,
        data_plane=plane,
        control=True,
        autoscaler=AutoScaler(
            base.overlay,
            plane,
            AutoScalerConfig(budget=8.0, breach_ticks=2, cold_ticks=3, cooldown=4),
        ),
    )


def flash_crowd() -> Simulation:
    return cpu_hotspot_scenario(
        num_chains=4,
        lambda_spike=5.0,
        spike_begin=8,
        spike_ramp=4,
        spike_hold=12,
        autoscale=AutoScalerConfig(
            budget=200.0, breach_ticks=2, cold_ticks=4, cooldown=6, k_max=8
        ),
    ).simulation


def run(sim: Simulation, ticks: int, scalar: bool = False, before_tick=None):
    step = sim.step_scalar if scalar else sim.step
    for _ in range(ticks):
        if before_tick is not None:
            before_tick()
        step()
        assert sim.data_plane.accounting()["balanced"]
    return sim.series.records


def run_tenant_churn(ticks: int):
    scenario = tenant_churn_scenario(num_nodes=40, initial_circuits=10, seed=1)
    return run(scenario.simulation, ticks, before_tick=scenario.churn_tick)


CASES = {
    "chaos_vectorized": lambda: run(chaos_armed(), 60),
    "chaos_scalar": lambda: run(chaos_armed(), 60, scalar=True),
    "flash_crowd": lambda: run(flash_crowd(), 45),
    "tenant_churn": lambda: run_tenant_churn(40),
    "selectivity_drift": lambda: run(
        selectivity_drift_scenario(num_nodes=24, num_chains=4).simulation, 45
    ),
}

#: Recorded at the behaviour of the simulator before the single-fast-path
#: cleanup (numpy 2.4.6, scipy 1.17.1, CPython 3.11).  The two chaos
#: twins agree record for record, so their digests are equal.
DIGESTS = {
    "chaos_vectorized": "87285553fc1cdb4807c465d272e36d8f13597090e591d778722cdd94c1bfb952",
    "chaos_scalar": "87285553fc1cdb4807c465d272e36d8f13597090e591d778722cdd94c1bfb952",
    "flash_crowd": "0694a36f48ed292adb29e515f0a8d80a9c35c3b2d7823272fc7ff2e2b232c932",
    "tenant_churn": "8f440f608f5edc2abd25af82eed224e08660338e80fb75ab3d8e8ec41aa77ab2",
    "selectivity_drift": "d2db34c0242f7305cd8af125b803dacbf08801c9984e8b1e85c575b2297cdf18",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fingerprint_unchanged(case):
    assert digest(CASES[case]()) == DIGESTS[case]


def test_canonical_line_is_stable():
    """Key order and float rendering are fixed by the format itself."""
    record = TickRecord(
        tick=3, network_usage=1.0 / 3.0, mean_load=0.5, max_load=2.0 / 3.0
    )
    line = canonical_line(record)
    fields = json.loads(line)
    assert list(fields) == sorted(fields)
    assert fields["network_usage"] == "0.333333333"
    assert fields["max_load"] == "0.666666667"
    assert fields["tick"] == 3
