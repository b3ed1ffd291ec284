"""Experiment ABL — ablations of the design choices in DESIGN.md.

* **Assignment search order**: the paper's lexicographic
  smallest-assignment order vs the deterministic-pseudorandom order.
  Any predetermined order satisfies Lemma 1; the ablation quantifies the
  exponential-vs-expected-constant trial gap, and also confirms both
  orders yield *valid* (though possibly different) outputs.
* **Refinement vs explicit views** for the quotient partition: the two
  ways to compute view equivalence, same partition, very different cost.
"""

from __future__ import annotations

import time

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.analysis.sweeps import SweepRow, format_table
from repro.core.assignment_search import smallest_successful_assignment
from repro.core.infinity import AInfinitySolver
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.problems.mis import MISProblem
from repro.runtime.engine import collect_engine_metrics
from repro.runtime.simulation import simulate_with_assignment
from repro.views.local_views import view_partition
from repro.views.refinement import refinement_partition
from benchmarks.conftest import lifted_colored_c3


def _count_trials(algorithm, graph, order, strategy):
    """Trials used by a search strategy: each is one engine execution."""
    with collect_engine_metrics() as totals:
        assignment = smallest_successful_assignment(
            algorithm, graph, order, max_length=64, strategy=strategy
        )
    return totals.executions, assignment


def test_search_order_ablation(report, benchmark):
    def run():
        rows = []
        algorithm = AnonymousMISAlgorithm()
        for name, graph in [
            ("path-2", with_uniform_input(path_graph(2))),
            ("path-3", with_uniform_input(path_graph(3))),
            ("cycle-3", with_uniform_input(cycle_graph(3))),
        ]:
            order = list(graph.nodes)
            lex_trials, lex_assignment = _count_trials(
                algorithm, graph, order, "lexicographic"
            )
            prg_trials, prg_assignment = _count_trials(algorithm, graph, order, "prg")
            for assignment in (lex_assignment, prg_assignment):
                assert simulate_with_assignment(algorithm, graph, assignment).successful
            rows.append(
                SweepRow(
                    name,
                    {
                        "lex trials": lex_trials,
                        "prg trials": prg_trials,
                        "lex t": max(len(b) for b in lex_assignment.values()),
                        "prg t": max(len(b) for b in prg_assignment.values()),
                    },
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    report(
        format_table(
            "ABL — assignment search order: paper's lexicographic vs "
            "deterministic-pseudorandom (both valid per Lemma 1)",
            ["lex trials", "prg trials", "lex t", "prg t"],
            rows,
        )
    )


def test_refinement_vs_views_ablation(report, benchmark):
    def run():
        rows = []
        for n in (8, 12, 16):
            g = with_uniform_input(cycle_graph(n))
            start = time.perf_counter()
            by_views = sorted(map(sorted, view_partition(g, n)))
            views_ms = (time.perf_counter() - start) * 1000
            start = time.perf_counter()
            by_refinement = sorted(map(sorted, refinement_partition(g)))
            refinement_ms = (time.perf_counter() - start) * 1000
            assert by_views == by_refinement
            rows.append(
                SweepRow(
                    f"cycle-{n}",
                    {
                        "views ms": views_ms,
                        "refinement ms": refinement_ms,
                        "partitions equal": True,
                    },
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    report(
        format_table(
            "ABL — explicit views vs color refinement for the view "
            "partition (identical partitions)",
            ["views ms", "refinement ms", "partitions equal"],
            rows,
        )
    )


def test_strategy_output_validity_cross_check(benchmark):
    """Both strategies produce valid (potentially different) outputs for
    the same derandomized solve."""
    _base, lift, _proj = lifted_colored_c3(2)
    problem, algorithm = MISProblem(), AnonymousMISAlgorithm()

    def run():
        lex = AInfinitySolver(problem, algorithm, strategy="lexicographic").solve(lift)
        prg = AInfinitySolver(problem, algorithm, strategy="prg").solve(lift)
        return lex, prg

    lex, prg = benchmark.pedantic(run, rounds=1)
    plain = lift.with_only_layers(["input"])
    assert problem.is_valid_output(plain, lex.outputs)
    assert problem.is_valid_output(plain, prg.outputs)
