"""Differential battery: the prefix-replay assignment search against a
fresh ``execute()`` per trial.

The reference below is the search as it is defined: enumerate the
extensions in the lexicographic order and run each one's simulation
from round 0.  Both must agree on the assignment found, on ``None``, on
:class:`SearchBudgetExceeded`, and on the number of trials.  The
search's trials are counted as executions absorbed by
:func:`collect_engine_metrics`, one per trial.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.core.assignment_search import (
    SearchBudgetExceeded,
    enumerate_extensions,
    smallest_successful_assignment,
    smallest_successful_extension,
)
from repro.dynamic import ChurnPlan, apply_churn
from repro.exceptions import DerandomizationError, OutputAlreadySetError
from repro.faults import FaultPlan, inject_faults
from repro.graphs.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import collect_engine_metrics, execute


def _two_bit_algorithm() -> FunctionAlgorithm:
    """Two bits a round, so rounds do not line up with single bits: a
    node decides once the bits it had drawn by the last round differ
    from every neighbor's."""

    def step(state, received, bits):
        drawn, decided = state
        if decided:
            return state
        return (drawn + bits, bool(drawn) and all(other != drawn for other in received))

    return FunctionAlgorithm(
        init=lambda label, degree: ("", False),
        msg=lambda state: state[0],
        step=step,
        out=lambda state: state[0] if state[1] else None,
        bits_per_round=2,
        name="two-bit-distinct",
    )


ALGORITHMS = {
    "mis": AnonymousMISAlgorithm,
    "coloring": VertexColoringAlgorithm,
    "2-hop-coloring": TwoHopColoringAlgorithm,
    "two-bit": _two_bit_algorithm,
}


def _graph(kind: str, n: int, seed: int):
    if kind == "path":
        plain = path_graph(n)
    elif kind == "cycle":
        plain = cycle_graph(max(n, 3))
    elif kind == "complete":
        plain = complete_graph(3 + n % 2)
    else:
        plain = random_connected_graph(n, 0.0, seed=seed)
    plain = with_uniform_input(plain)
    return apply_two_hop_coloring(plain, greedy_two_hop_coloring(plain))


def naive_extension(algorithm, graph, order, prefix, target_length, budget):
    """``(outcome, trials)``: the first successful extension, ``None``, or
    ``"budget"``, with one fresh execution per trial."""
    tried = 0
    for assignment in enumerate_extensions(prefix, order, target_length):
        if tried >= budget:
            return "budget", tried
        tried += 1
        if execute(algorithm, graph, assignment=assignment).successful:
            return assignment, tried
    return None, tried


def naive_assignment(algorithm, graph, order, max_length, budget):
    """The length-by-length search with its shared budget, naively."""
    trials = 0
    remaining = budget
    for target_length in range(1, max_length + 1):
        found, tried = naive_extension(
            algorithm, graph, order, {v: "" for v in order}, target_length, remaining
        )
        trials += tried
        if found == "budget":
            return "budget", trials
        remaining -= min(1 << (len(order) * target_length), remaining)
        if found is not None:
            return found, trials
        if remaining <= 0:
            return "budget", trials
    return "exhausted", trials


def counted(search, *args, **kwargs):
    """``(outcome, trials)`` of the search under test."""
    with collect_engine_metrics() as totals:
        try:
            outcome = search(*args, **kwargs)
        except SearchBudgetExceeded:
            outcome = "budget"
        except DerandomizationError as error:
            if "no successful assignment" not in str(error):
                raise
            outcome = "exhausted"
    return outcome, totals.executions


graphs = st.tuples(
    st.sampled_from(["path", "cycle", "complete", "tree"]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=1000),
)


@given(
    graphs,
    st.sampled_from(sorted(ALGORITHMS)),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=15), min_size=5, max_size=5),
    st.integers(min_value=0, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_extension_search_matches_naive(graph_params, name, target, prefix_bits, budget):
    graph = _graph(*graph_params)
    algorithm = ALGORITHMS[name]()
    order = list(graph.nodes)
    # A_*'s Update-Bits shape: each node already holds some of its bits.
    prefix = {}
    for v, raw in zip(order, prefix_bits):
        length = raw % (target + 1)
        prefix[v] = format(raw, "04b")[:length]
    expected = naive_extension(algorithm, graph, order, prefix, target, budget)
    actual = counted(
        smallest_successful_extension,
        algorithm,
        graph,
        order,
        prefix,
        target,
        budget=budget,
    )
    assert actual == expected


@given(
    graphs,
    st.sampled_from(sorted(ALGORITHMS)),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=40, deadline=None)
def test_assignment_search_matches_naive(graph_params, name, max_length, budget):
    graph = _graph(*graph_params)
    algorithm = ALGORITHMS[name]()
    order = list(graph.nodes)
    expected = naive_assignment(algorithm, graph, order, max_length, budget)
    actual = counted(
        smallest_successful_assignment,
        algorithm,
        graph,
        order,
        max_length=max_length,
        budget=budget,
    )
    assert actual == expected


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_long_search_on_k4_matches_naive(name):
    # Hundreds of consecutive trials, so most rewind to a late round.
    graph = _graph("complete", 1, 0)
    algorithm = ALGORITHMS[name]()
    order = list(graph.nodes)
    expected = naive_assignment(algorithm, graph, order, 6, 1000)
    actual = counted(
        smallest_successful_assignment, algorithm, graph, order, max_length=6, budget=1000
    )
    assert actual == expected
    assert actual[1] > 100


def _k3_case():
    graph = _graph("complete", 0, 0)
    return TwoHopColoringAlgorithm(), graph, list(graph.nodes)


def test_search_inside_an_empty_fault_plan_matches_naive():
    algorithm, graph, order = _k3_case()
    expected = naive_assignment(algorithm, graph, order, 4, 10_000)
    with inject_faults(FaultPlan()) as injection:
        actual = counted(
            smallest_successful_assignment, algorithm, graph, order, max_length=4
        )
    assert actual == expected
    # Every trial ran as its own wrapped execution.
    assert len(injection.execution_traces) == actual[1]


def test_search_inside_an_empty_churn_context_matches_naive():
    algorithm, graph, order = _k3_case()
    expected = naive_assignment(algorithm, graph, order, 4, 10_000)
    with apply_churn(ChurnPlan()) as churn:
        actual = counted(
            smallest_successful_assignment, algorithm, graph, order, max_length=4
        )
    assert actual == expected
    assert len(churn.execution_logs) == actual[1]


def _revoking_algorithm() -> FunctionAlgorithm:
    """On a path of three nodes, the ends decide "a" in round 1 and
    change it to "b" if they draw a 1 in round 3; the middle node
    decides once it has drawn two 1s in a row."""

    def out(state):
        degree, drawn = state
        if degree == 1:
            return ("b" if drawn[2:3] == "1" else "a") if drawn else None
        return "m" if "11" in drawn else None

    return FunctionAlgorithm(
        init=lambda label, degree: (degree, ""),
        msg=lambda state: state[1],
        step=lambda state, received, bits: (state[0], state[1] + bits),
        out=out,
        bits_per_round=1,
    )


def test_a_revoked_output_raises_at_the_same_trial():
    algorithm = _revoking_algorithm()
    graph = with_uniform_input(path_graph(3))
    order = list(graph.nodes)
    prefix = {v: "" for v in order}

    def completed_before_raising(search):
        with collect_engine_metrics() as totals:
            with pytest.raises(OutputAlreadySetError):
                search()
        return totals.executions

    # The first trial fails cleanly; the second draws the revoking 1.
    # Only completed executions are absorbed, so both count one.
    naive = completed_before_raising(
        lambda: naive_extension(algorithm, graph, order, prefix, 3, 100)
    )
    replayed = completed_before_raising(
        lambda: smallest_successful_extension(algorithm, graph, order, prefix, 3)
    )
    assert naive == replayed == 1
