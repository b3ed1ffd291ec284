"""Tests for the unified execution engine (``repro.runtime.engine``).

The kernel's contract is delivery-agnostic: the same funding rule, the
same irrevocability enforcement, the same trace levels and the same
metrics must hold whether messages move by anonymous broadcast or by
port numbering.  The contract tests here are therefore parametrized
over both disciplines — one behavior, two wirings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from repro.exceptions import (
    OutputAlreadySetError,
    RuntimeModelError,
    SimulationError,
)
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import (
    BroadcastDelivery,
    EngineMetricsTotals,
    ExecutionEngine,
    ExecutionMetrics,
    ExecutionPolicy,
    PortDelivery,
    RoundHook,
    _infer_delivery,
    _trace_level,
    collect_engine_metrics,
    execute,
)
from repro.runtime.port_model import PortAwareAlgorithm
from repro.runtime.tape import FixedTape


def _uniform(graph, value=0):
    return graph.with_layer("input", {v: value for v in graph.nodes})


# ----------------------------------------------------------------------
# Two algorithms with identical observable behavior, one per discipline.
# ----------------------------------------------------------------------


def broadcast_counter(stop_at: int, bits: int = 0, out=None):
    """Count rounds; decide after ``stop_at`` (or per custom ``out``)."""
    out = out or (lambda s: s if s >= stop_at else None)
    return FunctionAlgorithm(
        init=lambda label, deg: 0,
        msg=lambda s: s,
        step=lambda s, received, b: s + 1,
        out=out,
        bits_per_round=bits,
        name="counter",
    )


@dataclass(frozen=True)
class _PortCounterState:
    count: int


class PortCounter(PortAwareAlgorithm):
    """The port-model twin of :func:`broadcast_counter`."""

    name = "port-counter"

    def __init__(self, stop_at: int, bits: int = 0, out=None) -> None:
        self.stop_at = stop_at
        self.bits_per_round = bits
        self.out = out or (lambda s: s if s >= stop_at else None)

    def init_state(self, input_label, degree: int):
        return _PortCounterState(count=0)

    def messages(self, state: _PortCounterState, degree: int):
        return [state.count] * degree

    def transition(self, state: _PortCounterState, received, bits: str):
        return replace(state, count=state.count + 1)

    def output(self, state: _PortCounterState):
        return self.out(state.count)


MODELS = ["broadcast", "port"]


def make_counter(model: str, stop_at: int, bits: int = 0, out=None):
    if model == "broadcast":
        return broadcast_counter(stop_at, bits=bits, out=out)
    return PortCounter(stop_at, bits=bits, out=out)


def make_engine(model: str, algorithm, graph, tapes, policy=None, hooks=()):
    delivery = BroadcastDelivery() if model == "broadcast" else PortDelivery()
    return ExecutionEngine(
        algorithm, graph, tapes, delivery=delivery, policy=policy, hooks=hooks
    )


# ----------------------------------------------------------------------
# Policy and trace-level validation
# ----------------------------------------------------------------------


class TestExecutionPolicy:
    def test_rejects_unknown_trace_level(self):
        with pytest.raises(RuntimeModelError, match="trace level"):
            ExecutionPolicy(trace="verbose")

    def test_rejects_negative_round_budget(self):
        with pytest.raises(RuntimeModelError, match="nonnegative"):
            ExecutionPolicy(max_rounds=-1)

    def test_trace_level_normalization(self):
        assert _trace_level(None) == "full"
        assert _trace_level(None, default="off") == "off"
        assert _trace_level(True) == "full"
        assert _trace_level(False) == "off"
        assert _trace_level("outputs") == "outputs"
        with pytest.raises(RuntimeModelError, match="trace level"):
            _trace_level("everything")


@pytest.mark.parametrize("model", MODELS)
class TestPolicyEdgeCases:
    """Degenerate budgets: zero rounds allowed, zero rounds funded."""

    def test_max_rounds_zero_runs_no_round(self, model):
        g = _uniform(path_graph(3))
        engine = make_engine(
            model, make_counter(model, 5), g, {v: FixedTape("") for v in g.nodes}
        )
        result = engine.run(max_rounds=0)
        assert result.rounds == 0
        assert not result.all_decided
        assert result.outputs == {}
        assert result.metrics.messages_sent == 0

    def test_max_rounds_zero_keeps_init_decisions(self, model):
        # stop_at=0 decides at state initialization, before any round.
        g = _uniform(path_graph(3))
        engine = make_engine(
            model, make_counter(model, 0), g, {v: FixedTape("") for v in g.nodes}
        )
        result = engine.run(max_rounds=0)
        assert result.rounds == 0
        assert result.all_decided
        assert result.outputs == {v: 0 for v in g.nodes}

    def test_tapes_funding_exactly_zero_rounds(self, model):
        # One node's tape cannot fund even the first round: the funding
        # rule stops the run before any state mutation, without raising.
        g = _uniform(path_graph(3))
        algorithm = make_counter(model, stop_at=5, bits=2)
        tapes = {0: FixedTape("00"), 1: FixedTape("0"), 2: FixedTape("0000")}
        engine = make_engine(model, algorithm, g, tapes)
        result = engine.run(max_rounds=100)
        assert result.rounds == 0  # min_v floor(|b(v)| / 2) == 0
        assert not result.all_decided
        assert result.metrics.bits_drawn == 0
        for v in g.nodes:
            state = engine.state_of(v)
            count = state if model == "broadcast" else state.count
            assert count == 0  # no torn round


# ----------------------------------------------------------------------
# The delivery-agnostic kernel contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS)
class TestKernelContract:
    def test_missing_tape_rejected(self, model):
        g = _uniform(path_graph(2))
        with pytest.raises(RuntimeModelError, match="no bit source"):
            make_engine(model, make_counter(model, 1), g, {0: FixedTape("")})

    def test_run_stops_before_unfunded_round(self, model):
        """The paper's ``l = min length`` funding rule, both disciplines:
        the run executes exactly the funded rounds and never mutates
        state with a partially funded round."""
        g = _uniform(path_graph(3))
        algorithm = make_counter(model, stop_at=100, bits=1)
        tapes = {0: FixedTape("00000"), 1: FixedTape("000"), 2: FixedTape("0000")}
        engine = make_engine(model, algorithm, g, tapes)
        result = engine.run(max_rounds=100)
        assert result.rounds == 3  # min_v floor(|b(v)| / bits_per_round)
        assert not result.all_decided
        # Every node took exactly 3 transitions — no torn round.
        for v in g.nodes:
            state = engine.state_of(v)
            count = state if model == "broadcast" else state.count
            assert count == 3

    def test_step_without_funding_raises(self, model):
        g = _uniform(path_graph(2))
        engine = make_engine(
            model,
            make_counter(model, 5, bits=1),
            g,
            {v: FixedTape("") for v in g.nodes},
        )
        with pytest.raises(RuntimeModelError, match="exhausted"):
            engine.step()

    def test_changed_output_names_node_values_and_round(self, model):
        flipper = make_counter(model, 0, out=lambda count: count)
        g = _uniform(path_graph(2))
        engine = make_engine(model, flipper, g, {v: FixedTape("") for v in g.nodes})
        with pytest.raises(
            OutputAlreadySetError, match=r"from 0 to 1 in round 1"
        ):
            engine.step()

    def test_output_reverting_to_none_raises(self, model):
        fickle = make_counter(model, 0, out=lambda count: 0 if count == 0 else None)
        g = _uniform(path_graph(2))
        engine = make_engine(model, fickle, g, {v: FixedTape("") for v in g.nodes})
        with pytest.raises(OutputAlreadySetError, match=r"to None in round 1"):
            engine.step()

    def test_trace_level_off(self, model):
        g = _uniform(path_graph(2))
        engine = make_engine(
            model,
            make_counter(model, 2),
            g,
            {v: FixedTape("") for v in g.nodes},
            policy=ExecutionPolicy(trace="off"),
        )
        assert engine.run(max_rounds=5).trace is None

    def test_trace_level_outputs(self, model):
        g = _uniform(path_graph(2))
        engine = make_engine(
            model,
            make_counter(model, 2),
            g,
            {v: FixedTape("") for v in g.nodes},
            policy=ExecutionPolicy(trace="outputs"),
        )
        trace = engine.run(max_rounds=5).trace
        assert trace.num_rounds == 2
        assert trace.output_round(0) == 2  # round accounting still works
        for record in trace.rounds:
            assert record.sent == {} and record.bits == {}  # but no payloads

    def test_trace_level_full_records_messages_and_bits(self, model):
        g = _uniform(path_graph(2))
        engine = make_engine(
            model,
            make_counter(model, 2, bits=1),
            g,
            {v: FixedTape("11") for v in g.nodes},
        )
        trace = engine.run(max_rounds=5).trace
        assert trace.num_rounds == 2
        for record in trace.rounds:
            assert set(record.sent) == set(g.nodes)
            assert all(bits == "1" for bits in record.bits.values())

    def test_metrics_on_a_known_run(self, model):
        g = _uniform(cycle_graph(4))
        engine = make_engine(
            model,
            make_counter(model, 3, bits=1),
            g,
            {v: FixedTape("11111") for v in g.nodes},
        )
        result = engine.run(max_rounds=10)
        metrics = result.metrics
        assert metrics.rounds == 3
        # 4 nodes of degree 2, one payload per edge-endpoint per round.
        assert metrics.messages_sent == 3 * 8
        assert metrics.bits_drawn == 3 * 4
        assert metrics.decided_per_round == [0, 0, 0, 4]
        assert metrics.nodes_decided == 4
        assert metrics.wall_s >= 0.0

    def test_decided_at_init_lands_in_round_zero(self, model):
        g = _uniform(path_graph(2))
        instant = make_counter(model, 0)
        engine = make_engine(model, instant, g, {v: FixedTape("") for v in g.nodes})
        result = engine.run(max_rounds=5)
        assert result.rounds == 0
        assert result.metrics.decided_per_round == [2]

    def test_hooks_fire_per_round_and_bracket_run(self, model):
        events = []

        class Probe(RoundHook):
            def on_start(self, engine):
                events.append("start")

            def on_round(self, engine, new_outputs):
                events.append(("round", engine.rounds, dict(new_outputs)))

            def on_finish(self, engine, result):
                events.append(("finish", result.rounds))

        g = _uniform(path_graph(2))
        engine = make_engine(
            model,
            make_counter(model, 2),
            g,
            {v: FixedTape("") for v in g.nodes},
            hooks=[Probe()],
        )
        engine.run(max_rounds=5)
        assert events[0] == "start"
        assert events[-1] == ("finish", 2)
        round_events = [e for e in events if isinstance(e, tuple) and e[0] == "round"]
        assert [e[1] for e in round_events] == [1, 2]
        assert round_events[-1][2] == {0: 2, 1: 2}


# ----------------------------------------------------------------------
# Metrics collection
# ----------------------------------------------------------------------


class TestMetricsCollection:
    def _run_once(self):
        g = _uniform(path_graph(2))
        engine = make_engine(
            "broadcast", broadcast_counter(2), g, {v: FixedTape("") for v in g.nodes}
        )
        engine.run(max_rounds=5)

    def test_collector_totals(self):
        with collect_engine_metrics() as totals:
            self._run_once()
            self._run_once()
        assert totals.executions == 2
        assert totals.rounds == 4
        assert totals.nodes_decided == 4

    def test_collectors_nest(self):
        with collect_engine_metrics() as outer:
            self._run_once()
            with collect_engine_metrics() as inner:
                self._run_once()
        assert inner.executions == 1
        assert outer.executions == 2

    def test_an_inner_collector_equal_to_the_outer_one_closes_alone(self):
        # Opened together, the two totals compare equal until the inner
        # one closes; closing it must not close the outer one instead.
        with collect_engine_metrics() as outer:
            with collect_engine_metrics() as inner:
                self._run_once()
            self._run_once()
        assert inner.executions == 1
        assert outer.executions == 2

    def test_absorb_and_as_dict(self):
        totals = EngineMetricsTotals()
        totals.absorb(
            ExecutionMetrics(
                rounds=3, messages_sent=10, bits_drawn=6,
                decided_per_round=[0, 2], wall_s=0.5,
            )
        )
        payload = totals.as_dict(include_wall=False)
        assert payload == {
            "executions": 1,
            "rounds": 3,
            "messages_sent": 10,
            "bits_drawn": 6,
            "nodes_decided": 2,
            "faults_injected": 0,
        }
        assert totals.as_dict()["wall_s"] == 0.5


# ----------------------------------------------------------------------
# The execute() entry point
# ----------------------------------------------------------------------


class TestExecute:
    def test_rejects_multiple_randomness_sources(self):
        g = _uniform(path_graph(2))
        algorithm = broadcast_counter(1, bits=1)
        with pytest.raises(SimulationError, match="assignment and seed"):
            execute(algorithm, g, assignment={0: "0", 1: "0"}, seed=3)

    def test_randomized_without_source_rejected(self):
        g = _uniform(path_graph(2))
        with pytest.raises(SimulationError, match="pass seed=, assignment= or tapes="):
            execute(broadcast_counter(1, bits=1), g)

    def test_assignment_must_cover_all_nodes(self):
        g = _uniform(path_graph(2))
        with pytest.raises(SimulationError, match="does not cover"):
            execute(broadcast_counter(1, bits=1), g, assignment={0: "0"})

    def test_assignment_requires_randomized_algorithm(self):
        g = _uniform(path_graph(2))
        with pytest.raises(SimulationError, match="bits_per_round >= 1"):
            execute(broadcast_counter(1), g, assignment={0: "0", 1: "0"})

    def test_assignment_funds_min_rounds_and_defaults_trace_off(self):
        g = _uniform(path_graph(2))
        algorithm = broadcast_counter(100, bits=1)
        result = execute(algorithm, g, assignment={0: "0000", 1: "00"})
        assert result.rounds == 2
        assert not result.all_decided
        assert result.trace is None  # bulk-search default

    def test_seeded_run_replays_through_its_assignment(self):
        g = _uniform(path_graph(3))
        algorithm = FunctionAlgorithm(
            init=lambda label, deg: "",
            msg=lambda s: s,
            step=lambda s, received, bits: s + bits,
            out=lambda s: s if len(s) >= 3 else None,
            bits_per_round=1,
            name="bit-collector",
        )
        seeded = execute(algorithm, g, seed=9)
        assert seeded.all_decided
        replay = execute(
            algorithm, g, assignment=seeded.trace.assignment()
        )
        assert replay.outputs == seeded.outputs
        assert replay.rounds == seeded.rounds

    def test_deterministic_runs_need_no_source(self):
        g = _uniform(path_graph(2))
        result = execute(broadcast_counter(2), g)
        assert result.all_decided and result.rounds == 2
        assert result.successful  # alias of all_decided

    def test_require_decided_message_mentions_seed(self):
        g = _uniform(path_graph(2))
        algorithm = broadcast_counter(100, bits=1)
        with pytest.raises(SimulationError, match=r"within 3 rounds .* with seed 5"):
            execute(algorithm, g, seed=5, max_rounds=3, require_decided=True)

    def test_require_decided_message_without_seed(self):
        g = _uniform(path_graph(2))
        with pytest.raises(SimulationError, match=r"within 3 rounds on"):
            execute(
                broadcast_counter(100), g, max_rounds=3, require_decided=True
            )

    def test_delivery_inferred_from_algorithm_type(self):
        assert isinstance(_infer_delivery(broadcast_counter(1)), BroadcastDelivery)
        assert isinstance(_infer_delivery(PortCounter(1)), PortDelivery)

    def test_delivery_inferred_for_duck_typed_algorithms(self):
        class DuckPort:
            bits_per_round = 0
            name = "duck"

            def init_state(self, label, degree):
                return 0

            def messages(self, state, degree):
                return [None] * degree

            def transition(self, state, received, bits):
                return state + 1

            def output(self, state):
                return state if state >= 1 else None

        assert isinstance(_infer_delivery(DuckPort()), PortDelivery)
        g = _uniform(path_graph(2))
        result = execute(DuckPort(), g, max_rounds=5)
        assert result.all_decided

    def test_execute_runs_port_algorithms_natively(self):
        g = _uniform(path_graph(2))
        result = execute(PortCounter(2), g, max_rounds=5)
        assert result.all_decided and result.rounds == 2

    def test_explicit_policy_wins(self):
        g = _uniform(path_graph(2))
        result = execute(
            broadcast_counter(2),
            g,
            policy=ExecutionPolicy(max_rounds=1, trace="off"),
        )
        assert result.rounds == 1 and not result.all_decided
        assert result.trace is None

    def test_port_arity_violation_names_the_node(self):
        class Broken(PortCounter):
            def messages(self, state, degree):
                return [0]  # wrong arity on any node of degree != 1

        g = _uniform(path_graph(3))
        with pytest.raises(RuntimeModelError, match=r"produced 1 messages for 2 ports"):
            execute(Broken(5), g, max_rounds=3)


class TestOutputLabeling:
    def test_labeling_requires_all_decided(self):
        g = _uniform(path_graph(2))
        result = execute(broadcast_counter(100), g, max_rounds=2)
        with pytest.raises(RuntimeModelError, match="did not decide"):
            result.output_labeling()

    def test_labeling_copies_outputs(self):
        g = _uniform(path_graph(2))
        result = execute(broadcast_counter(1), g)
        labeling = result.output_labeling()
        assert labeling == result.outputs
        labeling[0] = "mutated"
        assert result.outputs[0] == 1
