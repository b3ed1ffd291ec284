"""PrefixReplay answers exactly what a fresh execute() answers, for any
sequence of assignments, and counts one execution per answer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.exceptions import SimulationError
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.runtime.engine import collect_engine_metrics, execute
from repro.runtime.replay import PrefixReplay

GRAPH = with_uniform_input(cycle_graph(4))

bitstrings = st.text("01", max_size=7)
assignments = st.lists(bitstrings, min_size=4, max_size=4).map(
    lambda strings: dict(zip(GRAPH.nodes, strings))
)


@given(st.sampled_from([AnonymousMISAlgorithm, TwoHopColoringAlgorithm]),
       st.lists(assignments, min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_any_sequence_of_assignments(make_algorithm, sequence):
    # Arbitrary order and mixed lengths, so the funded rounds change too.
    algorithm = make_algorithm()
    replay = PrefixReplay(algorithm, GRAPH)
    for assignment in sequence:
        expected = execute(algorithm, GRAPH, assignment=assignment).successful
        assert replay.successful(assignment) == expected


def test_a_rejected_bitstring_leaves_the_replay_consistent():
    algorithm = AnonymousMISAlgorithm()
    graph = with_uniform_input(path_graph(2))
    first, second = graph.nodes
    replay = PrefixReplay(algorithm, graph)
    # Equal bits never break the symmetry; different first bits do.
    assert not replay.successful({first: "0000", second: "0000"})
    # The first node's tape takes its new bits before the second's are
    # rejected; the replay must not mistake that for a replayed trial.
    with pytest.raises(SimulationError, match="only 0/1"):
        replay.successful({first: "1000", second: "00x0"})
    retry = {first: "1000", second: "0000"}
    assert execute(algorithm, graph, assignment=retry).successful
    assert replay.successful(retry)


def test_each_answer_is_one_execution_with_the_rounds_it_stepped():
    algorithm = AnonymousMISAlgorithm()
    graph = with_uniform_input(path_graph(2))
    left, right = graph.nodes
    replay = PrefixReplay(algorithm, graph)
    with collect_engine_metrics() as totals:
        replay.successful({left: "0000", right: "0000"})
        first_rounds = totals.rounds
        # Only the last round's bits changed: one round is stepped.
        replay.successful({left: "0000", right: "0001"})
    assert totals.executions == 2
    assert first_rounds == 4
    assert totals.rounds == first_rounds + 1


def test_missing_nodes_and_deterministic_algorithms_are_rejected_like_execute():
    from repro.algorithms.greedy_by_color import GreedyMISByColor

    with pytest.raises(SimulationError, match="does not cover"):
        PrefixReplay(AnonymousMISAlgorithm(), GRAPH).successful({GRAPH.nodes[0]: "0"})
    assignment = {v: "0" for v in GRAPH.nodes}
    with pytest.raises(SimulationError, match="require a randomized"):
        PrefixReplay(GreedyMISByColor(), GRAPH).successful(assignment)
