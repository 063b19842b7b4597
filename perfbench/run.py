"""End-to-end simulator benchmark: tick latency and placement quality.

Usage, from the repository root::

    python3 perfbench/run.py --workload chaos [--seed 0] [--seconds 36] [--trace 0]

Workloads are ``chaos``, ``flash_crowd`` and ``tenant_churn`` (see
``workloads.py`` for why each was chosen); ``--workload all`` runs each
in turn in its own process and exits non-zero if any of them does.
The seed defaults to 0.

One client runs a closed loop: each ``Simulation`` tick starts when the
previous one has returned.  The run is one fresh process for one
workload, with the BLAS/OpenMP thread variables pinned to 1 before
NumPy loads.  Seed ``n`` stands for ``K`` workload instances
(:func:`instance_seeds`).  Each instance runs as an episode
(``episode.py``) that builds the workload and times a fixed number of
ticks.  Whole cycles over the instances repeat while the next one is expected
to end within ``--seconds`` (at least three cycles untraced).  Every
episode of one instance does identical work, so its behaviour digest
and quality metrics must repeat exactly.

Times are reported at a fixed reference host speed: other tenants of
the host slow the same tick by up to 1.7x for minutes at a time, so a
fixed probe is timed after every tick and around every build, and each
time is scaled by how much slower than the reference the probe ran
then (``hostspeed.py``).

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` each instance's untraced episode is followed by a traced
one, and the run prints the per-layer metrics; the traced episode wraps
the layers' public entry points (``spans.py``) and must reproduce the
untraced digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (timed ticks), ``failed`` (ticks that raised
or broke conservation) and ``metrics``.  The exit code is 0 only if the
run is correct with no failed tick.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"

WORKLOADS = ("chaos", "flash_crowd", "tenant_churn")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 36
#: Timed ticks per episode: at least 200, so that each episode's p95 has
#: ten ticks beyond it.
TICKS = {"chaos": 200, "flash_crowd": 300, "tenant_churn": 200}
SIZES = {
    "chaos": "1000 nodes / 100 circuits",
    "flash_crowd": "145 nodes / 48 join chains",
    "tenant_churn": "300 nodes / 60 circuits, 2 installs + 2 uninstalls per tick",
}
#: Builds per episode: set-up is timed on each, and the last is kept.
#: ``flash_crowd`` builds in tens of milliseconds, so it repeats more.
BUILDS = {"chaos": 1, "flash_crowd": 9, "tenant_churn": 1}
#: Instances (workload seeds) per run; see :func:`instance_seeds`.
INSTANCES = {"chaos": 1, "flash_crowd": 3, "tenant_churn": 3}
#: Untraced cycles per run at least, so that each tick's median over an
#: instance's episodes outvotes one episode hit by a stall.
MIN_CYCLES = 3
#: A run must finish within 180 s, so ``--seconds`` is capped here.
MAX_SECONDS = 120.0
#: Named layer spans must cover at least this share of the tick.
MIN_COVERAGE = 0.90

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "tick_ms_p50": "ms",
    "tick_ms_p95": "ms",
    "ticks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "network_usage": "cost",
    "delivery_latency_p95_ms": "ms",
    "processed_frac": "ratio",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "dynamics.drift_ms": "ms",
    "dynamics.load_ms": "ms",
    "dynamics.churn_ms": "ms",
    "dynamics.failures": "count",
    "overlay.refresh_ms": "ms",
    "overlay.record_ms": "ms",
    "overlay.install_ms": "ms/call",
    "overlay.uninstall_ms": "ms/call",
    "optimizer.optimize_ms": "ms/call",
    "optimizer.calls": "count",
    "reopt.step_all_ms": "ms/call",
    "reopt.calls": "count",
    "reopt.evacuate_ms": "ms",
    "reopt.accept_ratio": "ratio",
    "reopt.migrations": "count",
    "dataplane.step_ms": "ms",
    "dataplane.us_per_tuple": "us",
    "dataplane.processed": "count",
    "dataplane.dropped": "count",
    "dataplane.redelivered": "count",
    "dataplane.in_flight_end": "count",
    "dataplane.buffered_end": "count",
    "dataplane.recompiles": "count",
    "control.step_ms": "ms",
    "control.calibrations": "count",
    "control.triggers": "count",
    "scaling.step_ms": "ms",
    "scaling.scale_ups": "count",
    "scaling.scale_downs": "count",
    "simulator.self_ms": "ms",
    "setup.overlay_build_s": "s",
    "setup.install_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def instance_seeds(workload: str, seed: int) -> list[int]:
    """Workload seeds of the instances one run measures.

    Seed ``n`` covers instances ``K*n`` to ``K*n + K - 1``, so every
    run averages over ``K`` different inputs and a change is judged on
    more than one draw of the workload.
    """
    k = INSTANCES[workload]
    return [seed * k + i for i in range(k)]


def run_episodes(workload: str, seed: int, seconds: float, ticks: int, trace: bool) -> list:
    """Whole cycles over the run's instances, one episode each.

    An untraced run makes at least :data:`MIN_CYCLES` cycles, a traced run at least
    one; another cycle starts only if it is expected to end within
    ``seconds``.  A traced run follows each instance's untraced episode
    with a traced one, so the wrappers are checked against the same
    instance and the tracing overhead is measured on interleaved pairs.
    Each result is tagged with its ``cycle``, ``instance`` and
    ``traced``.
    """
    plan = [
        (instance, traced)
        for instance in instance_seeds(workload, seed)
        for traced in ((False, True) if trace else (False,))
    ]
    # Imported here: the thread variables must be set before NumPy loads.
    from episode import run_episode

    min_cycles = 1 if trace else MIN_CYCLES
    episodes: list[dict] = []
    start = perf_counter()
    for cycle in itertools.count():
        cycle_start = perf_counter()
        for instance, traced in plan:
            spans_out = None
            if traced:
                SPANS_DIR.mkdir(exist_ok=True)
                spans_out = SPANS_DIR / f"spans_{workload}_seed{instance}.jsonl"
            result = run_episode(
                workload, instance, ticks, BUILDS[workload], traced, spans_out
            )
            result.update(cycle=cycle, instance=instance, traced=traced)
            episodes.append(result)
        now = perf_counter()
        if cycle + 1 >= min_cycles and now - start + (now - cycle_start) > min(
            seconds, MAX_SECONDS
        ):
            break
    return episodes


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (NumPy's default method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(episodes: list[dict], trace: bool) -> dict:
    """Aggregate episodes into metrics, the run digest and problems.

    Deterministic figures (digest, quality, counts) come from each
    instance's first episode and must repeat exactly in every other
    episode of that instance; quality and counts are averaged over the
    instances.  Each untraced tick is taken at the reference host speed
    (:func:`hostspeed.scale_ticks`); tick ``i`` does the same work in
    every episode of an instance, so its time is the median over them,
    which a stall in one episode does not move.  The tick-time metrics
    are taken over these medians and averaged over the instances.
    """
    # Imported here: the thread variables must be set before NumPy loads.
    from hostspeed import scale_ticks

    problems: list[str] = []
    reference: dict[int, dict] = {}
    for ep in episodes:
        ref = reference.setdefault(ep["instance"], ep)
        for key in ("digest", "quality", "counts"):
            if ep[key] != ref[key]:
                problems.append(f"episodes of instance {ep['instance']} disagree on {key}")
        problems.extend(f"tick raised:\n{err}" for err in ep["errors"])
    refs = list(reference.values())
    untraced = [ep for ep in episodes if not ep["traced"]]
    traced = [ep for ep in episodes if ep["traced"]]
    for ep in traced:
        problems.extend(ep["span_problems"])
        coverage = ep["layers"]["trace.coverage"]
        if coverage < MIN_COVERAGE:
            problems.append(f"layer spans cover {coverage:.3f} of the tick (< {MIN_COVERAGE})")

    def mean_of(key: str) -> dict:
        return {
            name: statistics.fmean(ref[key][name] for ref in refs) for name in refs[0][key]
        }

    if trace:
        metrics = mean_of("counts")
        for name in traced[0]["layers"]:
            metrics[name] = statistics.fmean(ep["layers"][name] for ep in traced)

        def mean_tick(eps: list[dict]) -> float:
            return statistics.fmean(
                t for ep in eps for t in scale_ticks(ep["tick_ms"], ep["host_ms"])
            )

        metrics["trace.overhead_frac"] = mean_tick(traced) / mean_tick(untraced) - 1.0
    else:
        by_instance: dict[int, list[dict]] = {}
        for ep in untraced:
            by_instance.setdefault(ep["instance"], []).append(ep)
        scaled = [
            [
                statistics.median(times)
                for times in zip(*(scale_ticks(ep["tick_ms"], ep["host_ms"]) for ep in eps))
            ]
            for eps in by_instance.values()
        ]

        def mean_quantile(q: float) -> float:
            return statistics.fmean(quantile(ticks, q) for ticks in scaled)

        metrics = {
            "setup_s": statistics.median(s for ep in untraced for s in ep["setup_s"]),
            "tick_ms_p50": mean_quantile(0.50),
            "tick_ms_p95": mean_quantile(0.95),
            "ticks_per_s": sum(len(ticks) for ticks in scaled)
            / (sum(sum(ticks) for ticks in scaled) / 1e3),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **mean_of("quality"),
        }
    digest = hashlib.sha256("\n".join(ref["digest"] for ref in refs).encode()).hexdigest()
    probe = statistics.median(h for ep in untraced for h in ep["host_ms"])
    return {"metrics": metrics, "digest": digest, "problems": problems, "probe_ms": probe}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end simulator benchmark (closed loop, one client)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"measuring time (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--ticks", type=int, default=None,
                        help="timed ticks per episode (default: the workload's)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, *(argv if argv is not None else sys.argv[1:]),
                 "--workload", workload],
                cwd=ROOT,
            ).returncode
            for workload in WORKLOADS
        ]
        return max(codes)
    ticks = args.ticks if args.ticks is not None else TICKS[args.workload]
    if ticks < 1:
        parser.error("--ticks must be at least 1")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    episodes = run_episodes(args.workload, args.seed, args.seconds, ticks, bool(args.trace))
    summary = summarize(episodes, bool(args.trace))
    metrics, digest, problems = summary["metrics"], summary["digest"], summary["problems"]
    attempted = sum(ep["ops"] for ep in episodes)
    failed = sum(ep["failed"] for ep in episodes)
    units = PER_LAYER if args.trace else END_TO_END

    print(
        f"workload {args.workload} ({SIZES[args.workload]}) seed {args.seed}: "
        "closed loop, one client; "
        f"{len(episodes)} episodes ({episodes[-1]['cycle'] + 1} cycles) x {ticks} timed ticks"
        + (" (alternating untraced/traced)" if args.trace else "")
    )
    for name, unit in units.items():
        print(f"  {name:26s} {metrics[name]:14.6g} {unit}")
    from hostspeed import REFERENCE_MS

    print(
        f"host probe median {summary['probe_ms']:.4f} ms; times above are at the "
        f"reference probe time of {REFERENCE_MS} ms"
        + (" (per-layer times are wall times)" if args.trace else "")
    )
    print(f"ops {attempted} ops_failed {failed}")
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    if args.ticks is None and str(args.seed) in recorded:
        same = "same as" if recorded[str(args.seed)] == digest else "differs from"
        print(f"digest sha256 {digest} ({same} the recorded digest)")
    else:
        print(f"digest sha256 {digest} (none recorded for this seed and length)")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
