"""Where the traced run hooks each layer, and the per-layer metrics.

:func:`install` wraps the public entry points of every layer on the
ROADMAP list (graphs, views, factor, core search and candidates,
problems, runtime kernel and delivery, faults, dynamic, artifacts,
experiments) at the attributes their callers resolve them through.
:func:`layer_metrics` turns one traced pass into the ``per_layer``
metrics named in ``BENCHMARK.json``; :data:`PER_LAYER` is that list,
and the benchmark's tests hold the two in step.
"""

from __future__ import annotations

import contextlib
import sys
from collections.abc import Iterator
from typing import Any

from tracing import Tracer, layer_of

FAMILIES = ("boundaries", "costs", "dynamic", "figures", "lemmas", "resilience", "theorems")
SELF_LAYERS = ("graphs", "views", "factor", "core", "problems", "runtime", "dynamic", "experiments")

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("runtime.executions", "count"),
    ("runtime.rounds", "count"),
    ("runtime.messages", "count"),
    ("runtime.execute_s", "s"),
    ("runtime.inbox_calls", "count"),
    ("runtime.inbox_s", "s"),
    ("core.search_trials", "count"),
    ("core.search_s", "s"),
    ("core.search_yield", "ratio"),
    ("core.reconstruct_s", "s"),
    ("core.candidate_attempts", "count"),
    ("core.candidates_kept", "count"),
    ("core.candidate_yield", "ratio"),
    ("core.candidates_s", "s"),
    ("graphs.built", "count"),
    ("graphs.build_s", "s"),
    ("views.all_views_calls", "count"),
    ("views.all_views_s", "s"),
    ("views.refine_s", "s"),
    ("views.intern_trees", "count"),
    ("factor.quotient_calls", "count"),
    ("factor.quotient_s", "s"),
    ("factor.prime_s", "s"),
    ("problems.check_s", "s"),
    ("faults.injected", "count"),
    ("dynamic.update_s", "s"),
    ("dynamic.reuse_fraction", "ratio"),
    ("artifacts.hits", "count"),
    ("artifacts.misses", "count"),
    ("artifacts.hit_ratio", "ratio"),
    *((f"experiments.family_s.{family}", "s") for family in FAMILIES),
    ("experiments.dispatch_s", "s"),
    ("experiments.store_writes", "count"),
    ("experiments.store_bytes", "bytes"),
    ("experiments.resume_s", "s"),
    ("experiments.merge_s", "s"),
    *((f"{layer}.self_s", "s") for layer in SELF_LAYERS),
    ("untraced_share", "ratio"),
    ("trace_overhead_s", "s"),
)


def artifact_counts() -> tuple[int, int]:
    """Process-lifetime memory-tier hits and misses, all kinds."""
    from repro.artifacts.store import memory_stats

    stats = memory_stats().values()
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


def intern_trees() -> int:
    from repro.views import intern_stats

    return intern_stats()["trees"]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; :meth:`Tracer.uninstall` undoes it."""
    import repro.experiments  # noqa: F401  (every module the hooks reach)
    from repro.core import assignment_search, candidates, practical
    from repro.dynamic.maintain import DynamicViewMaintainer
    from repro.experiments import fabric
    from repro.experiments.base import ExperimentSpec, get_spec
    from repro.experiments.store import ResultStore
    from repro.factor import prime, quotient
    from repro.faults.delivery import FaultyDelivery
    from repro.graphs import csr
    from repro.graphs.labeled_graph import LabeledGraph
    from repro.runtime import engine
    from repro.views import local_views

    count = tracer.count
    function, method = tracer.patch_function, tracer.patch_method

    method(LabeledGraph, "__init__", "graphs.build")
    method(csr.CSRGraph, "__init__", "graphs.csr")

    function(local_views.all_views, "views.all_views")
    function(csr.refine, "views.refine")
    function(csr.refine_step, "views.refine")

    function(quotient.finite_view_graph, "factor.quotient")
    function(quotient.infinite_view_graph, "factor.infinite")
    for fn in (prime.is_prime, prime.all_factors, prime.prime_factors):
        function(fn, "factor.prime")

    function(assignment_search.smallest_successful_assignment, "core.search")
    function(assignment_search.smallest_successful_extension, "core.search")
    function(practical.quotient_from_view, "core.reconstruct")
    function(
        candidates.enumerate_candidates,
        "core.candidates",
        after=lambda result, _args: count("core.candidates_kept", len(result)),
    )
    function(candidates._try_candidate, "core.candidate_attempt")

    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.problems."):
            continue
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module_name:
                for attribute in ("is_instance", "is_valid_output"):
                    if attribute in value.__dict__:
                        method(value, attribute, "problems.check")

    def engine_counts(result: Any, _args: tuple) -> None:
        metrics = result.metrics
        count("runtime.executions")
        count("runtime.rounds", metrics.rounds)
        count("runtime.messages", metrics.messages_sent)
        count("faults.injected", metrics.faults_injected)

    def trial(result: Any, _args: tuple) -> None:
        count("core.search_trials")
        if result.successful:
            count("core.search_successes")

    function(engine.execute, "runtime.execute")
    method(engine.ExecutionEngine, "run", "runtime.execute", after=engine_counts)
    # Every execution the search module starts is one trial.
    tracer.patch(assignment_search, "execute", tracer.counter(assignment_search.execute, trial))
    for delivery in (engine.BroadcastDelivery, engine.PortDelivery, FaultyDelivery):
        method(delivery, "inbox", "runtime.inbox")

    def reuse(stats: Any, _args: tuple) -> None:
        count("dynamic.reused", stats.reused)
        count("dynamic.recomputed", stats.recomputed)

    method(DynamicViewMaintainer, "update", "dynamic.update", after=reuse)

    method(ExperimentSpec, "run", lambda spec, *_a, **_k: f"experiments.task.{spec.family}")
    method(ResultStore, "append", "experiments.store")
    function(fabric.merge_stores, "experiments.merge")

    def task_family(payload: tuple) -> str:
        _key, _task_id, kind, spec, _seed, _fingerprint = payload
        if kind == "experiment":
            family = get_spec(spec["experiment_id"]).family
        else:
            family = fabric.get_kernel(spec["kernel"]).__module__.rsplit(".", 1)[-1]
        return f"experiments.task.{family}"

    tracer.patch(fabric, "_run_fabric_task", tracer.wrap(fabric._run_fabric_task, task_family))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Hooks installed for the body; then this process's artifact and
    intern-table counts are added to the tracer."""
    install(tracer)
    hits_before, misses_before = artifact_counts()
    try:
        yield
    finally:
        tracer.uninstall()
    hits, misses = artifact_counts()
    tracer.count("artifacts.hits", hits - hits_before)
    tracer.count("artifacts.misses", misses - misses_before)
    tracer.count("views.intern_trees", intern_trees())


def layer_metrics(tracer: Tracer, wall: float, extras: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (``trace_overhead_s``
    is filled in by the caller, which also times untraced passes)."""
    spans = tracer.totals()
    covered = sum(entry["covered"] for entry in spans.values())
    counts = tracer.counts

    def span(name: str, key: str = "incl") -> float:
        return spans.get(name, {}).get(key, 0.0)

    def layer(name: str, key: str) -> float:
        return sum(entry[key] for n, entry in spans.items() if layer_of(n) == name)

    def stat(name: str) -> float:
        return counts.get(name, 0)

    families = {f: span(f"experiments.task.{f}") for f in FAMILIES}
    dispatch_wall = extras.get("dispatch_wall_s", 0.0)
    hits, misses = stat("artifacts.hits"), stat("artifacts.misses")
    reused, recomputed = stat("dynamic.reused"), stat("dynamic.recomputed")
    return {
        "runtime.executions": stat("runtime.executions"),
        "runtime.rounds": stat("runtime.rounds"),
        "runtime.messages": stat("runtime.messages"),
        "runtime.execute_s": span("runtime.execute"),
        "runtime.inbox_calls": span("runtime.inbox", "count"),
        "runtime.inbox_s": span("runtime.inbox"),
        "core.search_trials": stat("core.search_trials"),
        "core.search_s": span("core.search"),
        "core.search_yield": _ratio(stat("core.search_successes"), stat("core.search_trials")),
        "core.reconstruct_s": span("core.reconstruct"),
        "core.candidate_attempts": span("core.candidate_attempt", "count"),
        "core.candidates_kept": stat("core.candidates_kept"),
        "core.candidate_yield": _ratio(
            stat("core.candidates_kept"), span("core.candidate_attempt", "count")
        ),
        "core.candidates_s": span("core.candidates"),
        "graphs.built": span("graphs.build", "count"),
        "graphs.build_s": layer("graphs", "layer_incl"),
        "views.all_views_calls": span("views.all_views", "count"),
        "views.all_views_s": span("views.all_views"),
        "views.refine_s": span("views.refine"),
        "views.intern_trees": stat("views.intern_trees"),
        "factor.quotient_calls": span("factor.quotient", "count"),
        "factor.quotient_s": span("factor.quotient"),
        "factor.prime_s": span("factor.prime"),
        "problems.check_s": span("problems.check"),
        "faults.injected": stat("faults.injected"),
        "dynamic.update_s": span("dynamic.update"),
        "dynamic.reuse_fraction": _ratio(reused, reused + recomputed),
        "artifacts.hits": hits,
        "artifacts.misses": misses,
        "artifacts.hit_ratio": _ratio(hits, hits + misses),
        **{f"experiments.family_s.{f}": seconds for f, seconds in families.items()},
        "experiments.dispatch_s": (
            dispatch_wall - sum(families.values()) if dispatch_wall else 0.0
        ),
        "experiments.store_writes": span("experiments.store", "count"),
        "experiments.store_bytes": extras.get("store_bytes", 0),
        "experiments.resume_s": extras.get("resume_s", 0.0),
        "experiments.merge_s": extras.get("merge_s", 0.0),
        **{f"{name}.self_s": layer(name, "self") for name in SELF_LAYERS},
        "untraced_share": 1.0 - _ratio(covered, wall),
    }
