"""One benchmark process: set up a workload, then (optionally) run it.

Started by ``run.py`` with thread pools pinned and the program's ``src`` on
``PYTHONPATH``; takes one JSON argument and prints one JSON object as its
last line of output.  ``mode="setup"`` stops once set-up is done, which is
how the orchestrator samples set-up time several times per run.

The worker reports the ``time.perf_counter()`` reading at which set-up
finished.  On Linux that clock is system-wide (``CLOCK_MONOTONIC``), so
the orchestrator subtracts the reading it took before starting the process
and obtains set-up time from process start.
"""

import time

import json
import resource
import statistics
import sys
from pathlib import Path

#: Re-submits over each finished store: they check resume, and in a traced
#: run their median wall is ``campaigns.resume_s``.
RESUBMITS = 3


def _resubmit(workload, loop, root, times):
    """Re-submit over the finished store ``times`` times; ``(walls, problems)``.

    Every re-submit must skip everything; the first one's records are also
    compared with the first pass's.
    """
    walls, problems = [], []
    for _ in range(times):
        wall, report = workload.resume(loop, root)
        found = workload.replay_problems(report, payloads=not walls)
        problems.extend(p for p in found if p not in problems)
        walls.append(wall)
    return walls, problems


def _timed_run(workload, workdir):
    """The untraced run: every end-to-end metric but ``setup_s``."""
    from workloads import median_cell_mean, quality_metrics

    loop = workload.run_pass(workload.cells, workdir, "sweep")
    _, problems = _resubmit(workload, loop, None, RESUBMITS)
    problems = loop.problems + problems + workload.cross_check(loop)
    metrics = {
        "tune_s": median_cell_mean(loop.cell_walls),
        "campaigns_per_min": 60.0 * (loop.attempted - loop.failed) / loop.wall,
        "done_frac": (loop.attempted - loop.failed) / loop.attempted,
    }
    metrics.update(quality_metrics(loop))
    return loop, metrics, problems


def _traced_run(workload, workdir, spans_path):
    """Untraced, traced, untraced again: three passes over the same cells.

    ``trace.overhead_pct`` compares the traced pass with the mean of the
    two untraced passes around it, which cancels a linear drift of host
    speed and halves the first pass's warm-up.
    """
    from layers import Tracer, layer_metrics

    cells = workload.cells[: max(1, len(workload.cells) // 3)]
    before = workload.run_pass(cells, workdir, "before")
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        traced = workload.run_pass(cells, workdir, "traced", tracer.root)
        resume_walls, found = _resubmit(workload, traced, tracer.root,
                                        RESUBMITS)
        pass_wall = time.perf_counter() - start
    after = workload.run_pass(cells, workdir, "after")
    passes = (before, traced, after)
    problems = [p for loop in passes for p in loop.problems] + found
    if not before.outcomes == traced.outcomes == after.outcomes:
        problems.append("traced results differ from untraced results")
    metrics = layer_metrics(tracer, pass_wall=pass_wall,
                            untraced_wall=(before.wall + after.wall) / 2,
                            loop_wall=traced.wall,
                            retries=sum(loop.retries for loop in passes))
    metrics["campaigns.resume_s"] = statistics.median(resume_walls)
    if spans_path:
        tracer.dump(spans_path)
    attempted = sum(loop.attempted for loop in passes)
    failed = sum(loop.failed for loop in passes)
    return attempted, failed, metrics, problems


def main(config: dict) -> dict:
    start = time.perf_counter()
    import repro  # noqa: F401 - the import is what is timed
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS

    build_start = time.perf_counter()
    workload = WORKLOADS[config["workload"]](
        config["seed"], config["seconds"], smoke=config["smoke"]
    )
    workload.setup()
    setup_done_at = time.perf_counter()
    out = {
        "setup_done_at": setup_done_at,
        "import_s": import_s,
        "build_s": setup_done_at - build_start,
    }
    if config["mode"] == "setup":
        return out

    import hostinfo

    workdir = Path(config["workdir"])
    if config["trace"]:
        attempted, failed, metrics, problems = _traced_run(
            workload, workdir, config.get("spans"))
        metrics["setup.import_s"] = import_s
        metrics["apps.build_s"] = out["build_s"]
    else:
        loop, metrics, problems = _timed_run(workload, workdir)
        attempted, failed = loop.attempted, loop.failed
        out["cells"] = [{"cell": str(cell), "walls_s": walls}
                        for cell, walls in loop.cell_walls.items()]
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out.update(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        problems=problems,
        campaign_ids=workload.campaign_ids(),
        host=hostinfo.fingerprint(),
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
