"""Autoscaling controller over key-partitioned operator replicas.

The :class:`AutoScaler` closes the *vertical* loop the placement
controller cannot: when one operator's measured CPU cost outgrows any
single node's budget, no migration helps — the operator itself must
split.  Each tick the autoscaler folds the data plane's per-operator
measured CPU (:attr:`~repro.runtime.dataplane.DataPlane.tick_op_cpu`)
into a per-family EWMA and compares the *per-replica* share against a
budget:

* **scale up** — after ``breach_ticks`` consecutive ticks with the
  per-replica EWMA above ``up_threshold * budget``, the family is
  re-split to ``ceil(ewma / (target_util * budget))`` replicas (capped
  at ``k_max``), with the *new* replicas placed on the least-CPU alive
  nodes so the split spreads instead of herding onto the hot host;
* **scale down** — after ``cold_ticks`` consecutive ticks below
  ``down_threshold * budget`` per replica, the family shrinks toward
  the same sizing target (folding back to the single base at k=1).

The hysteresis band (``down_threshold`` well under ``up_threshold``
over ``target_util``) plus a per-family ``cooldown`` prevents flapping.
Decisions are pure functions of measured state — no RNG — so twin
simulations stepped through :meth:`~repro.sbon.simulator.Simulation.
step` and :meth:`~repro.sbon.simulator.Simulation.step_scalar` make
identical scaling decisions on identical ticks.

Rewrites go through :func:`repro.core.rewriting.replicate_operator`
(which preserves the family's exact link rates) and are installed with
:meth:`repro.sbon.overlay.Overlay.replace_circuit`; the data plane
detects the replaced circuit on its next sync and migrates in-flight
tuples and per-key operator state onto the new replica homes.

Observability: ``scale_up`` / ``scale_down`` structured events (with
the service, old/new k, and the trigger reason) when an
:class:`~repro.obs.events.EventLog` is attached, plus a per-family
``replica_count`` keyed gauge when a registry is attached — both at
decision rate, never inside the tuple hot loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.query.operators import ServiceKind
from repro.core.rewriting import replica_families, replicate_operator

__all__ = ["AutoScalerConfig", "AutoScaler"]

_SCALABLE = (ServiceKind.JOIN, ServiceKind.AGGREGATE)


@dataclass(frozen=True)
class AutoScalerConfig:
    """Policy knobs of the scaling loop.

    Attributes:
        budget: CPU cost units per tick one replica is sized for — the
            same currency as ``LoadModel`` costs and the controller's
            overload limit.
        up_threshold: per-replica EWMA fraction of ``budget`` above
            which a tick counts as a breach.
        down_threshold: fraction below which a tick counts as cold;
            keep well under ``target_util`` for hysteresis.
        breach_ticks: consecutive breach ticks required to scale up.
        cold_ticks: consecutive cold ticks required to scale down.
        cooldown: ticks after any scale event during which the family
            holds its k (counters keep accumulating).
        reopt_hold: ticks after a scale event during which the family's
            members are reported by :meth:`AutoScaler.frozen_services`
            so the re-optimizer leaves them in place while per-key
            state and in-flight tuples settle onto the new replica
            homes.  Defaults to 0 (off): the placement pass is itself
            CPU-aware (measured CPU is calibrated into the cost
            space), so freezing it measurably *delays* overload relief
            on the flash-crowd benchmark — enable only for
            latency-dominated deployments where placement churn after
            scale events is the binding concern.
        k_max: replica-count ceiling per family.
        target_util: sizing target — after a scale event each replica
            should carry about ``target_util * budget``.
        alpha: EWMA smoothing weight for the family CPU measurement.
    """

    budget: float = 200.0
    up_threshold: float = 1.0
    down_threshold: float = 0.35
    breach_ticks: int = 3
    cold_ticks: int = 5
    cooldown: int = 10
    reopt_hold: int = 0
    k_max: int = 8
    target_util: float = 0.7
    alpha: float = 0.4

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them.
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ValueError("budget must be positive and finite")
        if not (math.isfinite(self.up_threshold) and self.up_threshold > 0):
            raise ValueError("up_threshold must be positive and finite")
        if not 0 < self.target_util <= 1:
            raise ValueError("target_util must be in (0, 1]")
        if not 0 <= self.down_threshold < self.up_threshold:
            raise ValueError("down_threshold must be in [0, up_threshold)")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.reopt_hold < 0:
            raise ValueError("reopt_hold must be >= 0")
        if not self.breach_ticks >= 1:
            raise ValueError("breach_ticks must be >= 1")
        if not self.cold_ticks >= 1:
            raise ValueError("cold_ticks must be >= 1")
        if not self.cooldown >= 0:
            raise ValueError("cooldown must be >= 0")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")


class AutoScaler:
    """Watches measured per-family CPU; splits hot operators, folds cold ones.

    Attributes:
        events: optional :class:`~repro.obs.events.EventLog`; receives
            ``scale_up`` / ``scale_down`` structured events.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            receives the per-family ``replica_count`` keyed gauge.
        scale_ups / scale_downs: cumulative decision counters.
    """

    def __init__(self, overlay, data_plane, config: AutoScalerConfig | None = None):
        self.overlay = overlay
        self.data_plane = data_plane
        self.config = config or AutoScalerConfig()
        self.events = None
        self.registry = None
        self.tick = 0
        self.scale_ups = 0
        self.scale_downs = 0
        # Per-(circuit, base) policy state.  Keys survive scale events:
        # the family is tracked under its base id at every k.
        self._ewma: dict[tuple[str, str], float] = {}
        self._breach: dict[tuple[str, str], int] = {}
        self._cold: dict[tuple[str, str], int] = {}
        self._hold_until: dict[tuple[str, str], int] = {}
        self._reopt_hold_until: dict[tuple[str, str], int] = {}

    # -- candidate discovery -------------------------------------------

    def _candidates(self) -> list[tuple[object, str, int, list[str]]]:
        """Every scalable family: (circuit, base, k, member sids).

        Unreplicated joins/aggregates are k=1 families of themselves;
        replicated ones list their replicas plus the merge relay.
        """
        out = []
        for circuit in self.overlay.circuits.values():
            families = replica_families(circuit)
            for base, fam in families.items():
                members = [sid for sid in fam["replicas"] if sid is not None]
                if fam["merge"] is not None:
                    members.append(fam["merge"])
                out.append((circuit, base, fam["count"], members))
            has_in: set[str] = set()
            has_out: set[str] = set()
            for link in circuit.links:
                has_in.add(link.target)
                has_out.add(link.source)
            for sid, service in circuit.services.items():
                if (
                    service.replica is None
                    and service.kind in _SCALABLE
                    and not service.is_pinned
                    and sid in has_in
                    and sid in has_out
                ):
                    out.append((circuit, sid, 1, [sid]))
        return out

    def frozen_services(self) -> set[tuple[str, str]]:
        """Member sids of families still inside a ``reopt_hold`` window.

        The simulator feeds these to the re-optimizer (its ``frozen``
        set) so a freshly re-split family is not migrated while its
        per-key state and in-flight tuples are still settling onto the
        new replica homes — without the hold-down the two control loops
        can fight over the same operators: a scale-up spreads replicas
        onto cold nodes and the very next placement pass herds them
        back.  Empty unless ``config.reopt_hold`` > 0 (see the config
        docstring for why the default leaves the placement pass free).
        """
        out: set[tuple[str, str]] = set()
        if not self._reopt_hold_until:
            return out
        for circuit, base, _k, members in self._candidates():
            if self.tick < self._reopt_hold_until.get((circuit.name, base), 0):
                for sid in members:
                    out.add((circuit.name, sid))
        return out

    def _family_cpu(self, circuit_name: str, members: list[str]) -> float | None:
        """Summed measured CPU of the family's arena rows this tick."""
        dp = self.data_plane
        cpu = dp.tick_op_cpu
        total = 0.0
        for sid in members:
            row = dp._op_index.get((circuit_name, sid))
            if row is None or row >= cpu.size:
                return None  # not compiled yet this tick
            total += float(cpu[row])
        return total

    def _spread_hints(
        self, circuit, base: str, old_k: int, new_k: int, members: list[str]
    ) -> list[int | None]:
        """Placement for the re-split: keep surviving replicas home,
        put *new* replicas on the least-CPU alive nodes."""
        if old_k > 1:
            kept = [circuit.placement.get(sid) for sid in members[:old_k]]
        else:
            kept = [circuit.placement.get(base)]
        kept = kept[:new_k]
        need = new_k - len(kept)
        if need <= 0:
            return kept
        node_cpu = np.asarray(self.data_plane.tick_node_cpu, dtype=float)
        alive = self.overlay.alive_mask()
        order = np.argsort(node_cpu, kind="stable")
        used = {n for n in kept if n is not None}
        fresh: list[int | None] = []
        for node in order:
            node = int(node)
            if not alive[node] or node in used:
                continue
            fresh.append(node)
            used.add(node)
            if len(fresh) == need:
                break
        while len(fresh) < need:
            fresh.append(None)  # fall back to the base host
        return kept + fresh

    # -- the decision loop ---------------------------------------------

    def step(self) -> int:
        """One decision pass; returns the number of scale events applied."""
        self.tick += 1
        cfg = self.config
        scaled = 0
        gauge_keys: list[tuple] = []
        gauge_vals: list[float] = []
        for circuit, base, k, members in self._candidates():
            key = (circuit.name, base)
            measured = self._family_cpu(circuit.name, members)
            if measured is None:
                gauge_keys.append(key)
                gauge_vals.append(float(k))
                continue
            prev = self._ewma.get(key)
            ewma = (
                measured
                if prev is None
                else cfg.alpha * measured + (1.0 - cfg.alpha) * prev
            )
            self._ewma[key] = ewma
            per_replica = ewma / k
            if per_replica > cfg.up_threshold * cfg.budget:
                self._breach[key] = self._breach.get(key, 0) + 1
                self._cold[key] = 0
            elif k > 1 and per_replica < cfg.down_threshold * cfg.budget:
                self._cold[key] = self._cold.get(key, 0) + 1
                self._breach[key] = 0
            else:
                self._breach[key] = 0
                self._cold[key] = 0

            k_new = k
            reason = None
            if self.tick >= self._hold_until.get(key, 0):
                target = max(
                    1, math.ceil(ewma / (cfg.target_util * cfg.budget))
                )
                if self._breach.get(key, 0) >= cfg.breach_ticks and k < cfg.k_max:
                    k_new = min(cfg.k_max, max(k + 1, target))
                    reason = "cpu_breach"
                elif self._cold.get(key, 0) >= cfg.cold_ticks and k > 1:
                    k_new = max(1, min(k - 1, target))
                    reason = "cold"
            if k_new != k and reason is not None:
                hints = (
                    self._spread_hints(circuit, base, k, k_new, members)
                    if k_new > 1
                    else None
                )
                result = replicate_operator(circuit, base, k_new, placement=hints)
                if result.applied:
                    self.overlay.replace_circuit(result.circuit)
                    scaled += 1
                    self._hold_until[key] = self.tick + cfg.cooldown
                    if cfg.reopt_hold > 0:
                        self._reopt_hold_until[key] = (
                            self.tick + cfg.reopt_hold
                        )
                    self._breach[key] = 0
                    self._cold[key] = 0
                    if k_new > k:
                        self.scale_ups += 1
                    else:
                        self.scale_downs += 1
                    if self.events is not None:
                        self.events.emit(
                            self.tick,
                            "scale_up" if k_new > k else "scale_down",
                            circuit=circuit.name,
                            service=base,
                            k_from=k,
                            k_to=k_new,
                            reason=reason,
                            family_cpu=round(ewma, 3),
                        )
                    k = k_new
            gauge_keys.append(key)
            gauge_vals.append(float(k))
        if self.registry is not None and gauge_keys:
            self.registry.keyed_gauge(
                "replica_count",
                ("circuit", "service"),
                help="key-partitioned replicas per operator family",
            ).set(gauge_keys, np.asarray(gauge_vals))
        return scaled
