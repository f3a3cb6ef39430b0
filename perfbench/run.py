"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tune-redis --seed 1 --seconds 30 --trace 0

``--trace 0`` measures every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced over the same
campaigns and reports every per-layer metric instead.  Human-readable lines
(host fingerprint, each metric with its unit, any failed check) come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every process runs the program from ``src/`` of the checkout this file sits
in, with BLAS/OpenMP pools pinned to one thread and no ``REPRO_*`` setting
inherited, so the program runs with its defaults.  Scratch stores live in
``.perfbench_work/`` (removed at exit); the full result, host fingerprint
and span dump of each run are kept in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostinfo import THREAD_VARIABLES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up is sampled this many times per untraced run (extra processes
#: beside the measuring one); ``setup_s`` is the median.
SETUP_SAMPLES = 3
#: Hard deadline for one whole run, below the 180 s the harness allows.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result (not a failed check)."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def spawn(config: dict, deadline: float) -> tuple:
    """Run one worker; return ``(start_clock, its JSON result)``."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        stdout=subprocess.PIPE, cwd=str(ROOT), env=worker_env(), text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return start, json.loads(lines[-1])


def declared_metrics(trace: int) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json declares for the mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path.name} not found at the checkout root")
    spec = json.loads(path.read_text(encoding="utf-8"))
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False) -> dict:
    """One benchmark run; returns the result line plus its details."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            "no program source at src/repro; run from a full checkout")
    units = declared_metrics(trace)
    deadline = time.perf_counter() + DEADLINE_S
    work_root = ROOT / ".perfbench_work"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    workdir = work_root / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    config = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "workdir": str(workdir),
        "spans": str(out_dir / f"{stem}.spans.jsonl.gz") if trace else None,
    }
    load_start = os.getloadavg()
    try:
        setup_walls = []
        probes = 0 if trace or smoke else SETUP_SAMPLES - 1
        for _ in range(probes):
            start, probe = spawn(dict(config, mode="setup"), deadline)
            setup_walls.append(probe["setup_done_at"] - start)
        start, result = spawn(dict(config, mode="run"), deadline)
        setup_walls.append(result["setup_done_at"] - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run's directory is still there

    values = dict(result["metrics"], setup_s=statistics.median(setup_walls))
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    problems = list(result["problems"])
    public = {
        "correct": not problems and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    host = dict(result["host"], loadavg_start=list(load_start),
                loadavg_end=list(os.getloadavg()))
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "host": host,
        "setup_samples_s": setup_walls, "problems": problems,
        "campaign_ids": result["campaign_ids"],
        "cells": result.get("cells", []), "result": public,
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own self-test")
    args = parser.parse_args(argv)
    try:
        details = measure(args.workload, args.seed, args.seconds, args.trace,
                          smoke=args.smoke)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    public = details["result"]
    print(f"# host {json.dumps(details['host'], sort_keys=True)}")
    for name, metric in public["metrics"].items():
        print(f"# {args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in details["problems"]:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps(public))
    return 0


if __name__ == "__main__":
    sys.exit(main())
