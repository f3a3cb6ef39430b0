"""Fast self-test of the benchmark itself (about a minute).

Runs every workload in its tiny smoke size and checks that:

* every metric ``BENCHMARK.json`` declares is emitted, with its unit, in
  both the untraced and the traced mode, and every run's checks pass;
* the same seed reproduces ``quality_gap_pct``, ``choice_cov_pct`` and
  ``core_hours`` exactly;
* a different seed yields different campaign IDs.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

from run import ROOT, declared_metrics, measure
from workloads import WORKLOADS

DETERMINISTIC = ("quality_gap_pct", "choice_cov_pct", "core_hours")


def check_workload(name: str) -> list:
    problems = []

    def run(seed: int, trace: int) -> dict:
        details = measure(name, seed, 1, trace, smoke=True)
        result = details["result"]
        if not result["correct"]:
            problems.append(f"seed {seed} trace {trace}: checks failed: "
                            f"{details['problems']}")
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        if units != declared_metrics(trace):
            problems.append(f"trace {trace}: emitted {units}, declared "
                            f"{declared_metrics(trace)}")
        return details

    first = run(1, 0)
    run(1, 1)
    again = run(1, 0)
    other = run(2, 0)
    for metric in DETERMINISTIC:
        a = first["result"]["metrics"][metric]["value"]
        b = again["result"]["metrics"][metric]["value"]
        if a != b:
            problems.append(f"{metric} not reproduced by seed 1: {a!r} != {b!r}")
    if set(first["campaign_ids"]) & set(other["campaign_ids"]):
        problems.append("seeds 1 and 2 share campaign IDs")
    return problems


def main() -> int:
    failed = False
    for name in WORKLOADS:
        problems = check_workload(name)
        for problem in problems:
            print(f"FAIL {name}: {problem}")
        if not problems:
            print(f"ok   {name}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    print(f"perfbench self-test in {ROOT}")
    sys.exit(main())
