"""Span recording around the layers' public entry points.

The wrappers are installed on the *classes*, not on instances, because
``Simulation`` builds a fresh ``Reoptimizer`` for every pass.  They only
time the call and delegate, so a traced run must produce exactly the
records of an untraced one; the benchmark checks that through the
behaviour digest.

Spans are kept in memory as parallel lists and written out once, when
the run ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

from repro.control.controller import Controller
from repro.core.optimizer import IntegratedOptimizer
from repro.core.reoptimizer import Reoptimizer
from repro.network.dynamics import ChurnProcess, LatencyDriftProcess, LoadProcess
from repro.runtime.dataplane import DataPlane
from repro.sbon.overlay import Overlay
from repro.scaling import AutoScaler

#: (class, method, span name).  ``Overlay.install`` delegates to
#: ``install_circuit``, so wrapping the latter also catches installs that
#: arrive already placed.
ENTRY_POINTS = (
    (LoadProcess, "step", "dynamics.load"),
    (Overlay, "set_background_loads", "dynamics.load"),
    (Overlay, "set_background_cost", "dynamics.load"),
    (LatencyDriftProcess, "step", "dynamics.drift"),
    (ChurnProcess, "step", "dynamics.churn"),
    (Overlay, "apply_liveness", "dynamics.churn"),
    (Overlay, "refresh_cost_space", "overlay.refresh"),
    (Overlay, "loads", "overlay.record"),
    (Overlay, "total_network_usage", "overlay.record"),
    (Overlay, "install_circuit", "overlay.install"),
    (Overlay, "uninstall", "overlay.uninstall"),
    (Overlay, "build", "setup.overlay_build"),
    (IntegratedOptimizer, "optimize", "optimizer.optimize"),
    (Reoptimizer, "step_all", "reopt.step_all"),
    (Reoptimizer, "evacuate", "reopt.evacuate"),
    (DataPlane, "step", "dataplane.step"),
    (Controller, "step", "control.step"),
    (AutoScaler, "step", "scaling.step"),
)

#: Root span the episode opens around each timed tick.
TICK = "tick"


class SpanRecorder:
    """In-memory span log: name, start, end, parent span and tick id.

    Tick id 0 marks spans opened during set-up.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ticks: list[int] = []
        self.tick_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[type, str, object]] = []

    def clear(self) -> None:
        """Forget every span recorded so far (the wrappers stay)."""
        for log in (self.names, self.starts, self.ends, self.parents, self.ticks):
            log.clear()
        self.tick_id = 0
        self._stack.clear()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(perf_counter())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ticks.append(self.tick_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for cls, attr, name in ENTRY_POINTS:
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Restore the original methods."""
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "tick": self.ticks[i],
                        }
                    )
                    + "\n"
                )

    def check_nesting(self) -> list[str]:
        """Violations of "a child span lies within its parent's interval,
        and a parent's children together never exceed it"."""
        problems: list[str] = []
        child_sum = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            dur = self.ends[i] - self.starts[i]
            if not dur >= 0.0:
                problems.append(f"span {i} ({self.names[i]}) has no valid end")
                continue
            if parent < 0:
                continue
            if self.starts[i] < self.starts[parent] or self.ends[i] > self.ends[parent]:
                problems.append(
                    f"span {i} ({self.names[i]}) leaves its parent "
                    f"{parent} ({self.names[parent]})"
                )
            child_sum[parent] += dur
        for i, total in enumerate(child_sum):
            # Adjacent children can tie their parent's interval exactly;
            # allow the rounding of the summed differences.
            if total > self.ends[i] - self.starts[i] + 1e-9:
                problems.append(f"children of span {i} ({self.names[i]}) exceed it")
        return problems

    def layer_summary(self) -> dict:
        """Totals over the timed ticks and per-call figures.

        Returns ``tick_s`` (sum of root tick spans), ``ticks``,
        ``direct`` (name -> seconds spent in spans that are direct
        children of a tick span), ``setup`` (name -> seconds spent in
        spans opened at tick id 0 outside any other span) and
        ``calls`` (name -> (count, seconds) over every span of that
        name, set-up included).
        """
        tick_s = 0.0
        ticks = 0
        direct: dict[str, float] = {}
        setup: dict[str, float] = {}
        calls: dict[str, list] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            entry = calls.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += dur
            parent = self.parents[i]
            if name == TICK:
                tick_s += dur
                ticks += 1
            elif parent >= 0 and self.names[parent] == TICK:
                direct[name] = direct.get(name, 0.0) + dur
            elif parent < 0 and self.ticks[i] == 0:
                setup[name] = setup.get(name, 0.0) + dur
        return {
            "tick_s": tick_s,
            "ticks": ticks,
            "direct": direct,
            "setup": setup,
            "calls": {k: tuple(v) for k, v in calls.items()},
        }
