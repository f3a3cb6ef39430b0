"""Outside-in span tracer over the public entry points of each engine layer.

The benchmark measures the program from outside: it never edits program
source.  For a traced run it replaces each layer's public entry point with
a thin wrapper that records one span ``(layer, start, end, parent)`` per
call, keeps every span in memory, and restores the original attribute when
the run ends.  A layer's *self time* is the duration of its spans minus the
time covered by their child spans, so nested layers (a scheduler asking the
record book for scores, a simulated round drawing trajectories) are never
counted twice.

Per-player calls (``RecordBook.get`` / ``assign_region``, ~10^5 per tune)
are deliberately left unwrapped: wrapping them would cost more than they
measure.  The per-call cost of the wrappers that remain is calibrated on a
no-op at install time and subtracted from the self times; the raw cost is
reported as ``trace.overhead_pct``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Wrapped entry points: ``(layer, module, "Class.attr" or "function")``.
#: Every class of :mod:`repro.formats` that defines a scheduler method is
#: added by :func:`_format_targets`.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.book", "repro.core.records", "RecordBook.record_game"),
    ("core.book", "repro.core.records", "RecordBook.combined_rank_order"),
    ("core.book", "repro.core.records", "RecordBook.mean_execution_scores"),
    ("core.book", "repro.core.records", "RecordBook.consistency_scores"),
    ("cloud.simulate", "repro.cloud.environment",
     "CloudEnvironment.run_colocated_batch"),
    ("cloud.draw", "repro.cloud.interference",
     "InterferenceProcess.sample_trajectories"),
    ("cloud.solo", "repro.cloud.environment", "CloudEnvironment.run_solo"),
    ("cloud.solo", "repro.cloud.environment", "CloudEnvironment.run_solo_batch"),
    ("cloud.evaluate", "repro.cloud.environment",
     "CloudEnvironment.measure_choice"),
    ("apps.surface", "repro.apps.model", "ApplicationModel.true_time"),
    ("apps.surface", "repro.apps.model", "ApplicationModel.sensitivity"),
    ("apps.surface", "repro.apps.constrained",
     "ConstrainedApplication.true_time"),
    ("apps.surface", "repro.apps.constrained",
     "ConstrainedApplication.sensitivity"),
    ("tuners.self", "repro.tuners.base", "Tuner.tune"),
    ("campaigns.execute", "repro.campaigns.runner", "execute_campaign"),
    ("campaigns.runner", "repro.campaigns.runner", "CampaignRunner.run"),
    ("campaigns.store_append", "repro.campaigns.store.jsonl",
     "CampaignStore.append"),
    ("campaigns.store_read", "repro.campaigns.store.base", "ResultStore.lookup"),
    ("campaigns.store_read", "repro.campaigns.store.base",
     "ResultStore.completed_ids"),
    ("campaigns.store_read", "repro.campaigns.store.base", "ResultStore.load"),
    ("api.validate", "repro.api", "validate_grid"),
    ("api.validate", "repro.campaigns.spec", "CampaignGrid.specs"),
    ("api.validate", "repro.campaigns.spec", "CampaignSpec.campaign_id"),
)

#: Scheduler protocol methods of the :mod:`repro.formats` state machines.
FORMAT_METHODS = ("next_lineup", "pairings", "advance")
FORMAT_MODULES = (
    "repro.formats.swiss",
    "repro.formats.double_elimination",
    "repro.formats.barrage",
    "repro.formats.round_robin",
    "repro.formats.single_elimination",
)

#: Layers whose self time is reported as ``<layer>_s``, in report order.
TIMED_LAYERS = (
    "apps.surface",
    "formats.schedule",
    "core.book",
    "cloud.simulate",
    "cloud.draw",
    "cloud.solo",
    "cloud.evaluate",
    "tuners.self",
    "campaigns.execute",
    "campaigns.store_append",
    "campaigns.store_read",
    "campaigns.runner",
    "api.validate",
)

#: Span name of the benchmark's own per-campaign / per-sweep root spans.
ROOT = "workload"


def _format_targets() -> List[Tuple[str, str, str]]:
    targets = []
    for module_name in FORMAT_MODULES:
        module = importlib.import_module(module_name)
        for cls_name, cls in sorted(vars(module).items()):
            if not inspect.isclass(cls) or cls.__module__ != module_name:
                continue
            for method in FORMAT_METHODS:
                if method in vars(cls):
                    targets.append(
                        ("formats.schedule", module_name, f"{cls_name}.{method}")
                    )
    return targets


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Use as a context manager: entering installs every wrapper, leaving
    restores every original attribute (also on error).
    """

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        # Spans as (layer_id, start, end, parent_position); -1 = no parent.
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = [-1]
        self.counts: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.child_cost = 0.0
        self.span_cost = 0.0

    # -- recording -------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, layer: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``observe(args, result)`` updates the layer's counters after the
        call returns; it runs outside the span.
        """
        layer_id = self._layer_id(layer)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            position = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(position)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[position] = (layer_id, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def root(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` under one benchmark-owned root span."""
        return self.wrap(ROOT, fn)(*args, **kwargs)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _install_target(self, layer: str, module_name: str, path: str) -> None:
        owner_name, _, attr = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            # A program change moved this entry point: say so and trace the
            # rest, rather than lose every layer of the run.
            print(f"perfbench: {module_name}.{path} not found; not traced "
                  f"in {layer}", file=sys.stderr)
            return
        observer = _OBSERVERS.get(path)
        observe = functools.partial(observer, self) if observer else None
        if isinstance(original, property):
            replacement = property(self.wrap(layer, original.fget))
        elif inspect.isgeneratorfunction(original):
            # Enumerate inside the span; callers iterate a list instead.
            def enumerate_all(*args, _fn=original, **kwargs):
                return list(_fn(*args, **kwargs))

            listed = self.wrap(layer, functools.wraps(original)(enumerate_all))
            replacement = functools.wraps(original)(
                lambda *args, **kwargs: iter(listed(*args, **kwargs))
            )
        else:
            replacement = self.wrap(layer, original, observe)
        self._patch(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        self._calibrate()
        for layer, module_name, path in TARGETS + tuple(_format_targets()):
            self._install_target(layer, module_name, path)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrapper-cost calibration ------------------------------------------

    def _calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Per-call wrapper cost, measured on a no-op method.

        ``span_cost`` is the part of a wrapper inside its own span (charged
        to the wrapped layer); ``child_cost`` the part outside it, which
        lands in the caller's self time.  The no-op is called like the
        wrapped entry points are (a method, a positional and a keyword
        argument).  Both are medians over ``repeats`` calibration loops and
        are subtracted from self times.
        """
        class Target:
            def noop(self, value, label=None):
                return None

        target = Target()
        noop = Target.noop

        def bare_loop():
            for _ in range(calls):
                noop(target, 1, label="x")

        probe = Tracer()
        wrapped = probe.wrap("calibration.child", noop)

        def wrapped_loop():
            for _ in range(calls):
                wrapped(target, 1, label="x")

        parent = probe.wrap("calibration.parent", wrapped_loop)
        child_costs, span_costs = [], []
        for _ in range(repeats):
            probe.spans.clear()
            start = time.perf_counter()
            bare_loop()
            bare = time.perf_counter() - start
            parent()
            _, p_start, p_end, _ = probe.spans[0]
            durations = [end - start for _, start, end, _ in probe.spans[1:]]
            child_costs.append(
                (p_end - p_start - sum(durations) - bare) / calls
            )
            span_costs.append(statistics.median(durations))
        self.child_cost = max(0.0, statistics.median(child_costs))
        self.span_cost = max(0.0, statistics.median(span_costs))

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Wrapper-corrected self time per layer, in seconds."""
        n = len(self.spans)
        child_time = [0.0] * n
        children = [0] * n
        for layer_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                children[parent] += 1
        totals: Dict[str, float] = {}
        for position, (layer_id, start, end, _) in enumerate(self.spans):
            own = (end - start - child_time[position]
                   - children[position] * self.child_cost - self.span_cost)
            layer = self.layers[layer_id]
            totals[layer] = totals.get(layer, 0.0) + own
        return {layer: max(0.0, value) for layer, value in totals.items()}

    def span_count(self, layer: str) -> int:
        layer_id = self._layer_ids.get(layer)
        return sum(1 for span in self.spans if span[0] == layer_id)

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip), at the end of a run."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"layers": self.layers,
                                     "child_cost_s": self.child_cost,
                                     "span_cost_s": self.span_cost}) + "\n")
            for layer_id, start, end, parent in self.spans:
                handle.write(f"[{layer_id},{start:.9f},{end:.9f},{parent}]\n")


# -- counters fed by the wrappers --------------------------------------------


def _on_record_game(tracer, args, result):
    tracer.count("core.games")
    tracer.count("core.evaluations", len(args[1]))


def _on_colocated_batch(tracer, args, result):
    tracer.count("cloud.batches")
    tracer.count("cloud.games", len(result))
    tracer.count("cloud.early_terminated",
                 sum(1 for outcome in result if outcome.early_terminated))


def _on_solo(tracer, args, result):
    tracer.count("cloud.solo_runs")


def _on_solo_batch(tracer, args, result):
    tracer.count("cloud.solo_runs", len(result))


def _on_append(tracer, args, result):
    tracer.count("campaigns.appends")


#: ``observer(tracer, call_args, result)`` per wrapped entry point.
_OBSERVERS = {
    "RecordBook.record_game": _on_record_game,
    "CloudEnvironment.run_colocated_batch": _on_colocated_batch,
    "CloudEnvironment.run_solo": _on_solo,
    "CloudEnvironment.run_solo_batch": _on_solo_batch,
    "CampaignStore.append": _on_append,
}


def layer_metrics(tracer: Tracer, *, pass_wall: float, untraced_wall: float,
                  loop_wall: float, retries: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json).

    ``pass_wall`` is the traced pass's wall; ``loop_wall`` / ``untraced_wall``
    are the traced and untraced walls of the same campaign loop, whose
    ratio is the tracing overhead.
    """
    self_times = tracer.self_times()
    metrics = {f"{layer}_s": self_times.get(layer, 0.0) for layer in TIMED_LAYERS}
    counts = tracer.counts
    games = counts.get("cloud.games", 0)
    metrics.update({
        "formats.calls": tracer.span_count("formats.schedule"),
        "core.games": counts.get("core.games", 0),
        "core.evaluations": counts.get("core.evaluations", 0),
        "cloud.batches": counts.get("cloud.batches", 0),
        "cloud.early_term_frac": (
            counts.get("cloud.early_terminated", 0) / games if games else 0.0
        ),
        "cloud.solo_runs": counts.get("cloud.solo_runs", 0),
        "campaigns.appends": counts.get("campaigns.appends", 0),
        "campaigns.retries": retries,
        "trace.overhead_pct": 100.0 * (loop_wall - untraced_wall) / untraced_wall,
        "trace.unattributed_s": max(
            0.0, pass_wall - sum(self_times.get(l, 0.0) for l in TIMED_LAYERS)
        ),
    })
    return metrics
