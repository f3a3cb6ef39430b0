"""The benchmark's three workloads, run from outside the program.

Each workload is a closed loop: one caller in one process submits one
campaign (or one sweep) at a time, with ``jobs=1``.  Its inputs are derived
from the workload seed only; the program receives nothing but the generated
campaign specs.  The amount of work is a fixed function of ``--seconds``
(never of measured time), so the result-guarding metrics repeat exactly
for a fixed seed.

* ``tune-redis`` — the library path of ROADMAP's named baseline:
  ``DarwinGame.tune`` on bench-scale redis / m5.8xlarge plus the 100-run
  evaluation, for several ``(env_seed, tuner_seed)`` pairs, with no store.
* ``sweep-table1`` — the Table-1 grid (DarwinGame on all four apps, test
  scale) through ``repro.api.submit_grid`` into a fresh JSONL store.
* ``compare-baselines`` — the paper's non-DarwinGame strategies on the
  small Table-1 spaces, many seeds, through the same ``submit_grid`` path.

See README.md in this directory for why each was chosen.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

VM = "m5.8xlarge"
EVAL_RUNS = 100
BASELINES = ("Optimal", "Exhaustive", "BLISS", "OpenTuner", "ActiveHarmony")
BASELINE_APPS = ("gromacs", "lammps")


@dataclass
class LoopResult:
    """What one pass over a workload's campaigns produced."""

    wall: float
    cell_walls: Dict[object, List[float]]
    outcomes: List[dict]
    quality: List[tuple]  # (cell, app model, best_index, cov_percent, core_hours)
    attempted: int
    failed: int
    retries: int = 0
    store: Optional[Path] = None
    problems: List[str] = field(default_factory=list)


def _call(root: Optional[Callable], fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``, under the tracer's root span when tracing."""
    if root is None:
        return fn(*args, **kwargs)
    return root(fn, *args, **kwargs)


def _distinct_ints(rng: random.Random, n: int) -> List[int]:
    seen: List[int] = []
    while len(seen) < n:
        value = rng.randrange(2**31)
        if value not in seen:
            seen.append(value)
    return seen


def median_cell_mean(per_cell: Dict[object, List[float]]) -> float:
    """Median over cells of the mean value within a cell.

    A cell is one seed's campaigns; averaging inside the cell first keeps
    the median away from the boundary between apps or strategies of very
    different cost or quality.
    """
    return statistics.median(
        sum(values) / len(values) for values in per_cell.values()
    )


class Workload:
    """Common shape: set up, run a campaign pass, resume over the store."""

    name = ""
    #: Host seconds one cell takes on the reference host (2-core x86).
    cell_cost_s = 1.0
    #: Share of ``--seconds`` the campaign pass is sized to take.
    loop_share = 0.85

    def __init__(self, seed: int, seconds: float, smoke: bool = False):
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}/{seed}")
        if smoke:
            self.n_cells = 2
        else:
            self.n_cells = max(
                2, round(self.loop_share * seconds / self.cell_cost_s)
            )

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, cells, workdir: Path, tag: str,
                 root: Optional[Callable] = None) -> LoopResult:
        raise NotImplementedError

    def resume(self, loop: LoopResult, root: Optional[Callable] = None):
        """Re-submit the finished campaigns over their store once.

        Returns ``(wall_seconds, report)``; see :meth:`replay_problems`.
        """
        raise NotImplementedError

    def replay_problems(self, report, *, payloads: bool) -> List[str]:
        """What a re-submit did wrong.

        It must skip every campaign and, checked when ``payloads`` (the
        comparison costs several re-submits), return records whose stable
        payloads equal the first pass's.
        """
        first = self._records
        problems = []
        if report.executed:
            problems.append(f"re-submit executed {report.executed} campaign(s)")
        if report.skipped != len(first):
            problems.append(f"re-submit skipped {report.skipped} of {len(first)}")
        if payloads and [r.stable_payload() for r in report.records] != [
            r.stable_payload() for r in first
        ]:
            problems.append("re-submitted records differ from the first pass")
        return problems

    def cross_check(self, loop: LoopResult) -> List[str]:
        return []

    def campaign_ids(self) -> List[str]:
        raise NotImplementedError


# -- tune-redis ---------------------------------------------------------------


class TuneRedis(Workload):
    name = "tune-redis"
    cell_cost_s = 2.3

    def setup(self) -> None:
        from repro import VMSpec, make_application

        self.scale = "test" if self.smoke else "bench"
        self.cells = [
            tuple(_distinct_ints(self.rng, 2)) for _ in range(self.n_cells)
        ]
        self.vm = VMSpec.preset(VM)
        self.app = make_application("redis", scale=self.scale)
        self.app.optimal

    def spec(self, env_seed: int, tuner_seed: int):
        from repro import CampaignSpec

        return CampaignSpec(app="redis", strategy="DarwinGame", vm=VM,
                            scale=self.scale, seed=env_seed,
                            eval_runs=EVAL_RUNS, tuner_seed=tuner_seed)

    def campaign_ids(self) -> List[str]:
        return [self.spec(e, t).campaign_id for e, t in self.cells]

    def _campaign(self, env_seed: int, tuner_seed: int):
        from repro import CloudEnvironment, DarwinGame, DarwinGameConfig

        env = CloudEnvironment(self.vm, seed=env_seed)
        result = DarwinGame(DarwinGameConfig(seed=tuner_seed)).tune(self.app, env)
        evaluation = env.measure_choice(self.app, result.best_index,
                                        runs=EVAL_RUNS)
        return result, evaluation

    def run_pass(self, cells, workdir, tag, root=None) -> LoopResult:
        from repro import CampaignRecord, open_store

        loop = LoopResult(wall=0.0, cell_walls={}, outcomes=[], quality=[],
                          attempted=len(cells), failed=0)
        records = []
        start = time.perf_counter()
        for env_seed, tuner_seed in cells:
            t0 = time.perf_counter()
            try:
                result, evaluation = _call(root, self._campaign,
                                           env_seed, tuner_seed)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                loop.failed += 1
                loop.problems.append(
                    f"campaign ({env_seed}, {tuner_seed}) failed: {exc!r}")
                continue
            loop.cell_walls[(env_seed, tuner_seed)] = [time.perf_counter() - t0]
            loop.outcomes.append({
                "best_index": result.best_index,
                "core_hours": result.core_hours,
                "tuning_seconds": result.tuning_seconds,
                "evaluation": asdict(evaluation),
            })
            loop.quality.append(((env_seed, tuner_seed), self.app,
                                 result.best_index, evaluation.cov_percent,
                                 result.core_hours))
            records.append(CampaignRecord(
                spec=self.spec(env_seed, tuner_seed), status="done",
                best_index=result.best_index, core_hours=result.core_hours,
                tuning_seconds=result.tuning_seconds, evaluation=evaluation,
                result=result,
            ))
        loop.wall = time.perf_counter() - start
        # Checkpoint the finished campaigns (untimed) so a resume over them
        # can be measured like the sweeps' resumes.
        loop.store = workdir / f"{tag}.jsonl"
        store = open_store(loop.store)
        for record in records:
            store.append(record)
        self._records = records
        return loop

    def resume(self, loop, root=None):
        from repro import CampaignRunner, open_store

        specs = [record.spec for record in self._records]
        start = time.perf_counter()
        report = _call(root, CampaignRunner(store=open_store(loop.store)).run,
                       specs)
        return time.perf_counter() - start, report

    def cross_check(self, loop) -> List[str]:
        """The library path must pick what ``run_strategy`` picks."""
        from repro.experiments.protocol import run_strategy

        checked = self.cells if self.smoke else self.cells[:1]
        problems = []
        for (env_seed, tuner_seed), outcome in zip(checked, loop.outcomes):
            run = run_strategy(self.app, "DarwinGame", vm=self.vm,
                               seed=env_seed, tuner_seed=tuner_seed,
                               eval_runs=EVAL_RUNS)
            if (run.best_index != outcome["best_index"]
                    or asdict(run.evaluation) != outcome["evaluation"]):
                problems.append(
                    f"library winner {outcome['best_index']} != run_strategy "
                    f"winner {run.best_index} for seeds ({env_seed}, "
                    f"{tuner_seed})")
        return problems


# -- sweeps through repro.api.submit_grid ------------------------------------


class Sweep(Workload):
    """A grid submitted through ``repro.api.submit_grid`` into JSONL."""

    def grid(self, seeds):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.campaigns.runner import cached_application

        self.cells = _distinct_ints(self.rng, self.n_cells)
        grid = self.grid(self.cells)
        # Build and oracle-scan every app into the process app cache, where
        # the sweep's campaigns find them.
        for app in grid.apps:
            cached_application(app, grid.scale).optimal

    def campaign_ids(self) -> List[str]:
        return [spec.campaign_id for spec in self.grid(self.cells).specs()]

    def run_pass(self, cells, workdir, tag, root=None) -> LoopResult:
        from repro.api import SweepOptions, submit_grid
        from repro.campaigns.runner import cached_application

        grid = self.grid(cells)
        store = workdir / f"{tag}.jsonl"
        finished: List[tuple] = []

        def progress(done, total, record):
            finished.append((time.perf_counter(), record.spec.seed))

        start = time.perf_counter()
        report = _call(root, submit_grid, grid,
                       SweepOptions(store=store, jobs=1),
                       progress=progress).result()
        wall = time.perf_counter() - start

        cell_walls: Dict[object, List[float]] = {}
        previous = start
        for stamp, seed in finished:
            cell_walls.setdefault(seed, []).append(stamp - previous)
            previous = stamp
        loop = LoopResult(
            wall=wall, cell_walls=cell_walls,
            outcomes=[record.stable_payload() for record in report.records],
            quality=[], attempted=report.executed, failed=0,
            retries=report.retries, store=store,
        )
        for record in report.records:
            if not record.ok:
                loop.failed += 1
                loop.problems.append(
                    f"campaign {record.campaign_id} {record.status}: "
                    f"{record.error}")
                continue
            loop.quality.append((
                record.spec.seed,
                cached_application(record.spec.app, record.spec.scale),
                record.best_index, record.evaluation.cov_percent,
                record.core_hours,
            ))
        self._grid, self._records = grid, report.records
        return loop

    def resume(self, loop, root=None):
        from repro.api import SweepOptions, submit_grid

        start = time.perf_counter()
        report = _call(root, submit_grid, self._grid,
                       SweepOptions(store=loop.store, jobs=1)).result()
        return time.perf_counter() - start, report


class SweepTable1(Sweep):
    name = "sweep-table1"
    cell_cost_s = 1.4  # four campaigns: redis, gromacs, ffmpeg, lammps

    def grid(self, seeds):
        from repro.experiments.table1 import table1_grid

        return table1_grid(scale="test", seeds=tuple(seeds),
                           eval_runs=EVAL_RUNS)


class CompareBaselines(Sweep):
    name = "compare-baselines"
    cell_cost_s = 0.08  # ten campaigns: five strategies x two apps

    def grid(self, seeds):
        from repro import CampaignGrid

        return CampaignGrid(apps=BASELINE_APPS, strategies=BASELINES,
                            seeds=tuple(seeds), scale="test",
                            eval_runs=EVAL_RUNS)


WORKLOADS = {cls.name: cls for cls in (TuneRedis, SweepTable1, CompareBaselines)}


def quality_metrics(loop: LoopResult) -> Dict[str, float]:
    """The result-guarding metrics: deterministic for a fixed seed.

    ``quality_gap_pct`` and ``choice_cov_pct`` are medians over cells of
    the cell's mean.  Per campaign both are heavy-tailed across seeds (most
    bench redis tunes land within 4.8-5.6 % of the optimum, a few at 9 %;
    one Table-1 choice in seventy can have a CoV several times the rest),
    so a mean over a run's campaigns moves by a quarter from seed to seed
    while the median holds.  ``core_hours`` is the total.
    """
    if not loop.quality:
        return {"quality_gap_pct": 0.0, "choice_cov_pct": 0.0,
                "core_hours": 0.0}
    gaps: Dict[object, List[float]] = {}
    covs: Dict[object, List[float]] = {}
    for cell, app, index, cov, _ in loop.quality:
        gaps.setdefault(cell, []).append(app.optimality_gap_percent(index))
        covs.setdefault(cell, []).append(cov)
    return {
        "quality_gap_pct": median_cell_mean(gaps),
        "choice_cov_pct": median_cell_mean(covs),
        "core_hours": sum(q[4] for q in loop.quality),
    }
