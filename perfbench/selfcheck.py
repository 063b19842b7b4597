"""The benchmark's own test: every workload briefly, on a second seed.

Usage, from the repository root::

    python3 perfbench/selfcheck.py [--seed 1] [--ticks 30]

For each workload it runs ``run.py`` untraced and traced with short
episodes and requires a correct result with no failed tick.  The traced
run also proves the span wrappers unobservable (same digest as the
untraced episode), properly nested and covering at least 90% of the
tick.  It finally checks that ``BENCHMARK.json`` names exactly the
workloads and metrics ``run.py`` prints, with the same units.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def check_run(workload: str, seed: int, ticks: int, trace: int) -> None:
    cmd = [
        sys.executable, str(run.HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--ticks", str(ticks), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
        )
    result = json.loads(lines[-1])
    expected = run.PER_LAYER if trace else run.END_TO_END
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise SystemExit(f"{workload} trace={trace}: {lines[-1]}")
    if set(result["metrics"]) != set(expected):
        raise SystemExit(f"{workload} trace={trace}: metric names differ from run.py")
    print(f"ok {workload} seed {seed} trace {trace}: {result['attempted']} ticks, 0 failed")


def check_manifest() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} != {run.WORKLOADS}")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != table:
            raise SystemExit(f"BENCHMARK.json {key} does not match run.py")
    print("ok BENCHMARK.json matches run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ticks", type=int, default=30)
    args = parser.parse_args()
    check_manifest()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, args.seed, args.ticks, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
