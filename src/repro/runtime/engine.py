"""The unified execution engine: one round kernel, pluggable delivery.

Every execution in this library — broadcast or port-numbered, seeded or
induced by a bit assignment — runs the *same* synchronous round kernel:

    state init -> message emit -> delivery -> bit draw -> transition
               -> irrevocable-output check -> trace/metrics

What varies between the paper's models is only **how messages move**,
captured by a :class:`DeliveryDiscipline`:

* :class:`BroadcastDelivery` — every node broadcasts one message; each
  node receives the canonically sorted tuple of its neighbors' messages
  (the anonymous multiset of Section 1.1).
* :class:`PortDelivery` — every node emits one payload per port and
  receives payloads indexed by its own ports (the port-numbering model
  of Section 1.3).

The kernel is configured by an :class:`ExecutionPolicy` (round limit,
tape-funding rule, trace level) and reports an :class:`ExecutionMetrics`
record on every result.  :class:`SynchronousScheduler
<repro.runtime.scheduler.SynchronousScheduler>` and :class:`PortScheduler
<repro.runtime.port_model.PortScheduler>` are thin shims over this class
— they can never drift apart again because there is nothing left in them
to drift.

:func:`execute` is the high-level entry point the rest of the library
uses; it picks the delivery discipline from the algorithm type and the
bit sources from whichever of ``seed`` / ``assignment`` / ``tapes`` is
given.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping, Sequence
from typing import Any

from repro.exceptions import (
    OutputAlreadySetError,
    RuntimeModelError,
    SimulationError,
)
from repro.graphs.labeled_graph import LabeledGraph, Node, _freeze
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.tape import BitSource, FixedTape, RandomTape, RecordingTape
from repro.runtime.trace import ExecutionTrace, RoundRecord

TRACE_LEVELS = ("off", "outputs", "full")


def _message_sort_key(message: Any) -> str:
    return repr(_freeze(message))


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionPolicy:
    """Kernel configuration, orthogonal to the delivery discipline.

    Attributes
    ----------
    max_rounds:
        Default round budget for :meth:`ExecutionEngine.run` (a ``run``
        call may override it).
    stop_before_unfunded:
        The tape-funding rule.  ``True`` (the paper's ``l = min length``
        convention for simulations induced by an assignment, Section 2.2)
        stops *before* any round some node's tape cannot pay for, so
        state is never mutated by a partially funded round.  ``False``
        skips the check; a dry :class:`~repro.runtime.tape.FixedTape`
        then raises mid-round from ``draw`` — only useful for tests that
        exercise that failure mode.
    trace:
        ``"full"`` records messages, bits and new outputs per round;
        ``"outputs"`` records only the round's newly decided outputs
        (cheap round accounting, e.g. ``trace.output_round``);
        ``"off"`` records nothing (``result.trace is None``).
    """

    max_rounds: int = 10_000
    stop_before_unfunded: bool = True
    trace: str = "full"

    def __post_init__(self) -> None:
        if self.trace not in TRACE_LEVELS:
            raise RuntimeModelError(
                f"unknown trace level {self.trace!r}; expected one of {TRACE_LEVELS}"
            )
        if self.max_rounds < 0:
            raise RuntimeModelError(
                f"max_rounds must be nonnegative, got {self.max_rounds}"
            )


def _trace_level(record_trace: "bool | str | None", default: str = "full") -> str:
    """Normalize a ``record_trace`` flag (bool or level name) to a level."""
    if record_trace is None:
        return default
    if record_trace is True:
        return "full"
    if record_trace is False:
        return "off"
    if record_trace in TRACE_LEVELS:
        return record_trace
    raise RuntimeModelError(
        f"unknown trace level {record_trace!r}; expected a bool or one of {TRACE_LEVELS}"
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


@dataclass
class ExecutionMetrics:
    """Instrumentation record for one execution.

    ``decided_per_round[r]`` is the number of nodes that first produced
    their output in round ``r`` (index 0 = decided at initialization);
    the entries sum to the number of decided nodes.  ``messages_sent``
    counts point-to-point payload deliveries (one broadcast by a node of
    degree ``d`` counts ``d``, as does one payload per port), making
    broadcast and port executions directly comparable.
    ``faults_injected`` counts the fault events the :mod:`repro.faults`
    subsystem injected into this execution (0 for bare runs and for
    runs under an empty plan).
    """

    rounds: int = 0
    messages_sent: int = 0
    bits_drawn: int = 0
    decided_per_round: list[int] = field(default_factory=list)
    faults_injected: int = 0
    wall_s: float = 0.0

    @property
    def nodes_decided(self) -> int:
        return sum(self.decided_per_round)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "bits_drawn": self.bits_drawn,
            "nodes_decided": self.nodes_decided,
            "decided_per_round": list(self.decided_per_round),
            "faults_injected": self.faults_injected,
            "wall_s": self.wall_s,
        }


@dataclass
class EngineMetricsTotals:
    """Aggregate of every execution observed by a metrics collector."""

    executions: int = 0
    rounds: int = 0
    messages_sent: int = 0
    bits_drawn: int = 0
    nodes_decided: int = 0
    faults_injected: int = 0
    wall_s: float = 0.0

    def absorb(self, metrics: ExecutionMetrics) -> None:
        self.executions += 1
        self.rounds += metrics.rounds
        self.messages_sent += metrics.messages_sent
        self.bits_drawn += metrics.bits_drawn
        self.nodes_decided += metrics.nodes_decided
        self.faults_injected += metrics.faults_injected
        self.wall_s += metrics.wall_s

    def as_dict(self, include_wall: bool = True) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "executions": self.executions,
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "bits_drawn": self.bits_drawn,
            "nodes_decided": self.nodes_decided,
            "faults_injected": self.faults_injected,
        }
        if include_wall:
            payload["wall_s"] = self.wall_s
        return payload


_COLLECTORS: list[EngineMetricsTotals] = []


@contextmanager
def collect_engine_metrics() -> Iterator[EngineMetricsTotals]:
    """Accumulate the metrics of every engine run inside the ``with``.

    Collectors nest: each active collector absorbs every execution that
    completes while it is open.  The experiment runner wraps each
    experiment in one of these to attach a per-experiment ``metrics``
    block to ``RESULTS_experiments.json``.
    """
    totals = EngineMetricsTotals()
    _COLLECTORS.append(totals)
    try:
        yield totals
    finally:
        # By identity: nested collectors that saw the same runs compare equal.
        _COLLECTORS[:] = [other for other in _COLLECTORS if other is not totals]


class RoundHook:
    """Observer of kernel progress; subclass and override what you need.

    ``on_round`` fires after every completed round (also for manual
    ``step()`` calls); ``on_start``/``on_finish`` bracket ``run()``.
    """

    def on_start(self, engine: "ExecutionEngine") -> None:  # pragma: no cover
        pass

    def on_round(
        self, engine: "ExecutionEngine", new_outputs: dict[Node, Any]
    ) -> None:  # pragma: no cover
        pass

    def on_finish(
        self, engine: "ExecutionEngine", result: "ExecutionResult"
    ) -> None:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# Delivery disciplines
# ----------------------------------------------------------------------


class DeliveryDiscipline(ABC):
    """How one round's emitted messages reach their receivers."""

    name: str = "delivery"

    @abstractmethod
    def emit(
        self, algorithm: Any, states: Mapping[Node, Any], graph: LabeledGraph
    ) -> dict[Node, Any]:
        """Each node's outbox for this round (validated)."""

    @abstractmethod
    def inbox(
        self, outboxes: Mapping[Node, Any], node: Node, graph: LabeledGraph
    ) -> tuple[Any, ...]:
        """The tuple handed to ``node``'s transition this round."""


class _Broadcasts(dict):
    """One round's broadcast outboxes.  Each sender's sort key is
    computed once, at its first delivery, instead of once per receiver."""

    __slots__ = ("_keys",)

    def sort_keys(self) -> dict[Node, str]:
        try:
            return self._keys
        except AttributeError:
            self._keys = {u: _message_sort_key(m) for u, m in self.items()}
            return self._keys


class BroadcastDelivery(DeliveryDiscipline):
    """Anonymous broadcast: the sorted multiset of neighbor messages.

    Sorting the neighbors stably by their messages' keys yields the same
    tuple as sorting the messages themselves.  The keys are cached per
    sender, never per message value: ``1``, ``True`` and ``1.0`` are
    equal but their keys differ."""

    name = "broadcast"

    def emit(self, algorithm, states, graph):
        outboxes = _Broadcasts()
        for v in graph.nodes:
            outboxes[v] = algorithm.message(states[v])
        return outboxes

    def inbox(self, outboxes, node, graph):
        neighbors = graph.neighbors(node)
        if isinstance(outboxes, _Broadcasts):
            keys = outboxes.sort_keys()
        else:
            keys = {u: _message_sort_key(outboxes[u]) for u in neighbors}
        return tuple(map(outboxes.__getitem__, sorted(neighbors, key=keys.__getitem__)))


class PortDelivery(DeliveryDiscipline):
    """Port-numbered delivery: one payload per port, indexed by the
    receiver's own port numbering."""

    name = "port"

    def emit(self, algorithm, states, graph):
        outboxes = {
            v: list(algorithm.messages(states[v], graph.degree(v)))
            for v in graph.nodes
        }
        for v in graph.nodes:
            if len(outboxes[v]) != graph.degree(v):
                raise RuntimeModelError(
                    f"node {v!r} produced {len(outboxes[v])} messages for "
                    f"{graph.degree(v)} ports"
                )
        return outboxes

    def inbox(self, outboxes, node, graph):
        return tuple(
            outboxes[u][graph.neighbor_to_port(u, node)]
            for u in graph.ports(node)
        )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class ExecutionResult:
    """Outcome of running an algorithm on a graph.

    Attributes
    ----------
    outputs:
        Output per node; nodes that never decided are absent.
    rounds:
        Rounds actually executed.
    all_decided:
        Whether every node produced an output (a *successful* run).
    trace:
        Full per-round record (``None`` when tracing was disabled).
    metrics:
        Instrumentation for the run (``None`` only for results built by
        code outside the engine).
    """

    outputs: dict[Node, Any]
    rounds: int
    all_decided: bool
    trace: ExecutionTrace | None
    metrics: ExecutionMetrics | None = None

    @property
    def successful(self) -> bool:
        """The paper's success notion: every node decided within the
        rounds the run could fund (alias of ``all_decided``)."""
        return self.all_decided

    def output_labeling(self) -> dict[Node, Any]:
        """The output labeling ``o``; raises if some node is undecided."""
        if not self.all_decided:
            missing = self.rounds  # for the message only
            raise RuntimeModelError(
                f"execution did not decide every node within {missing} rounds"
            )
        return dict(self.outputs)


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


class ExecutionEngine:
    """The single synchronous round kernel behind every scheduler."""

    def __init__(
        self,
        algorithm: Any,
        graph: LabeledGraph,
        tapes: Mapping[Node, BitSource],
        delivery: DeliveryDiscipline,
        policy: ExecutionPolicy | None = None,
        hooks: Sequence[RoundHook] = (),
    ) -> None:
        missing = [v for v in graph.nodes if v not in tapes]
        if missing:
            raise RuntimeModelError(f"no bit source for nodes {missing!r}")
        self._algorithm = algorithm
        self._graph = graph
        self._tapes = dict(tapes)
        self._delivery = delivery
        self._policy = policy or ExecutionPolicy()
        self._hooks = list(hooks)
        self._states: dict[Node, Any] = {
            v: algorithm.init_state(graph.label(v), graph.degree(v))
            for v in graph.nodes
        }
        self._outputs: dict[Node, Any] = {}
        self._rounds = 0
        self._trace = (
            ExecutionTrace(algorithm.name) if self._policy.trace != "off" else None
        )
        self._metrics = ExecutionMetrics()
        self._payloads_per_round = sum(graph.degree(v) for v in graph.nodes)
        # Outputs may be decided already at round 0 (initialization).
        initial = self._note_outputs({})
        self._metrics.decided_per_round.append(len(initial))

    # ------------------------------------------------------------------

    @property
    def algorithm(self) -> Any:
        return self._algorithm

    @property
    def graph(self) -> LabeledGraph:
        return self._graph

    @property
    def delivery(self) -> DeliveryDiscipline:
        return self._delivery

    @property
    def policy(self) -> ExecutionPolicy:
        return self._policy

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def all_decided(self) -> bool:
        return len(self._outputs) == self._graph.num_nodes

    @property
    def metrics(self) -> ExecutionMetrics:
        return self._metrics

    def state_of(self, node: Node) -> Any:
        return self._states[node]

    def add_hook(self, hook: RoundHook) -> None:
        self._hooks.append(hook)

    def swap_graph(self, new_graph: LabeledGraph) -> None:
        """Replace the topology between rounds (dynamic networks).

        The node set must be invariant — states, tapes and outputs are
        keyed by node and survive the swap untouched; only delivery (and
        the per-round payload accounting) sees the new edges, starting
        with the next ``step()``.  Called by the topology hooks of
        :mod:`repro.dynamic`; the kernel itself knows nothing about
        churn semantics.
        """
        if new_graph.nodes != self._graph.nodes:
            raise RuntimeModelError(
                "swap_graph requires an invariant node set: "
                f"{self._graph.num_nodes} nodes became {new_graph.num_nodes} "
                "or the node identities changed"
            )
        self._graph = new_graph
        self._payloads_per_round = sum(
            new_graph.degree(v) for v in new_graph.nodes
        )

    def can_fund_round(self) -> bool:
        """Whether every node's tape can pay for one more round."""
        need = self._algorithm.bits_per_round
        return all(tape.remaining(need) for tape in self._tapes.values())

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute one synchronous round."""
        if self._policy.stop_before_unfunded and not self.can_fund_round():
            raise RuntimeModelError(
                "cannot step: some node's bit tape is exhausted"
            )
        graph, algorithm = self._graph, self._algorithm
        outboxes = self._emit()
        bits_drawn: dict[Node, str] = {}
        new_states: dict[Node, Any] = {}
        for v in graph.nodes:
            received = self._delivery.inbox(outboxes, v, graph)
            bits = self._tapes[v].draw(algorithm.bits_per_round)
            bits_drawn[v] = bits
            new_states[v] = algorithm.transition(self._states[v], received, bits)
        self._states = new_states
        self._rounds += 1
        new_outputs = self._note_outputs(bits_drawn)
        self._metrics.rounds += 1
        self._metrics.messages_sent += self._payloads_per_round
        self._metrics.bits_drawn += algorithm.bits_per_round * graph.num_nodes
        self._metrics.decided_per_round.append(len(new_outputs))
        if self._trace is not None:
            record = (
                RoundRecord(self._rounds, dict(outboxes), bits_drawn, new_outputs)
                if self._policy.trace == "full"
                else RoundRecord(self._rounds, {}, {}, new_outputs)
            )
            self._trace.rounds.append(record)
        for hook in self._hooks:
            hook.on_round(self, new_outputs)

    def _emit(self) -> Mapping[Node, Any]:
        """This round's outboxes (a replaying engine reuses recorded ones)."""
        return self._delivery.emit(self._algorithm, self._states, self._graph)

    def _note_outputs(self, bits_drawn: dict[Node, str]) -> dict[Node, Any]:
        """Register newly decided nodes, enforcing irrevocability.

        The single source of truth for output enforcement: an output may
        never change once set — not to a different value and not back to
        ``None`` — and violations name the node, both values and the
        round, whichever delivery discipline is running.
        """
        new_outputs: dict[Node, Any] = {}
        for v in self._graph.nodes:
            value = self._algorithm.output(self._states[v])
            if v in self._outputs:
                if value is None or value != self._outputs[v]:
                    raise OutputAlreadySetError(
                        f"node {v!r} changed its irrevocable output from "
                        f"{self._outputs[v]!r} to {value!r} in round {self._rounds}"
                    )
            elif value is not None:
                self._outputs[v] = value
                new_outputs[v] = value
        return new_outputs

    def run(self, max_rounds: int | None = None) -> ExecutionResult:
        """Run until all nodes decide, tapes run dry, or the round limit."""
        if max_rounds is None:
            max_rounds = self._policy.max_rounds
        if max_rounds < 0:
            raise RuntimeModelError(f"max_rounds must be nonnegative, got {max_rounds}")
        # wall_s is a metrics-only field, stripped from canonical results.
        start = time.perf_counter()  # repro-lint: disable=DET001 -- wall-time metric only
        for hook in self._hooks:
            hook.on_start(self)
        while (
            not self.all_decided
            and self._rounds < max_rounds
            and (not self._policy.stop_before_unfunded or self.can_fund_round())
        ):
            self.step()
        self._metrics.wall_s += time.perf_counter() - start  # repro-lint: disable=DET001 -- wall-time metric only
        result = ExecutionResult(
            outputs=dict(self._outputs),
            rounds=self._rounds,
            all_decided=self.all_decided,
            trace=self._trace,
            metrics=self._metrics,
        )
        for collector in _COLLECTORS:
            collector.absorb(self._metrics)
        for hook in self._hooks:
            hook.on_finish(self, result)
        return result


# ----------------------------------------------------------------------
# The high-level entry point
# ----------------------------------------------------------------------

# Ambient fault injection (see repro.faults.context).  The engine knows
# nothing about fault semantics: repro.faults registers a zero-argument
# provider here on import, and execute() asks it for the active
# injection, if any, letting that injection wrap the resolved delivery,
# tapes and hooks.  When repro.faults is never imported the provider
# stays None and execute() pays a single `is None` check.
_INJECTION_PROVIDER: Any | None = None


def register_injection_provider(provider: Any) -> None:
    """Install the callable yielding the active fault injection (or
    ``None``).  Called once by :mod:`repro.faults.context` on import."""
    global _INJECTION_PROVIDER
    _INJECTION_PROVIDER = provider


# Ambient topology churn (see repro.dynamic.context), same shape as the
# fault provider: repro.dynamic registers a zero-argument provider on
# import, and execute() asks it for the active churn context, if any,
# letting that context append its per-execution TopologyHook.  Faults
# and churn compose: fault decisions key on (round, receiver, sender)
# and never on the edge set, so the two wrappers are orthogonal.
_TOPOLOGY_PROVIDER: Any | None = None


def register_topology_provider(provider: Any) -> None:
    """Install the callable yielding the active churn context (or
    ``None``).  Called once by :mod:`repro.dynamic.context` on import."""
    global _TOPOLOGY_PROVIDER
    _TOPOLOGY_PROVIDER = provider


def _ambient_context_active() -> bool:
    """Whether an execute() call made now would be wrapped by an ambient
    fault injection or churn context."""
    return any(
        provider is not None and provider() is not None
        for provider in (_INJECTION_PROVIDER, _TOPOLOGY_PROVIDER)
    )


def _funded_rounds(
    algorithm: Any, graph: LabeledGraph, assignment: Mapping[Node, str]
) -> int:
    """Check that ``assignment`` can induce a simulation and return the
    rounds it funds, ``l = min_v floor(|b(v)| / bits_per_round)``."""
    missing = [v for v in graph.nodes if v not in assignment]
    if missing:
        raise SimulationError(f"assignment does not cover nodes {missing!r}")
    bits_per_round = algorithm.bits_per_round
    if bits_per_round == 0:
        raise SimulationError(
            "simulations induced by an assignment require a randomized "
            "algorithm (bits_per_round >= 1); deterministic algorithms "
            "run via execute() with no randomness source"
        )
    return min(len(assignment[v]) // bits_per_round for v in graph.nodes)


def _infer_delivery(algorithm: Any) -> DeliveryDiscipline:
    from repro.runtime.port_model import PortAwareAlgorithm

    if isinstance(algorithm, PortAwareAlgorithm):
        return PortDelivery()
    if isinstance(algorithm, AnonymousAlgorithm):
        return BroadcastDelivery()
    # Duck-typed algorithms (tests build minimal ones): port-aware ones
    # have per-port `messages`, broadcast ones a single `message`.
    if hasattr(algorithm, "messages") and not hasattr(algorithm, "message"):
        return PortDelivery()
    return BroadcastDelivery()


def execute(
    algorithm: Any,
    graph: LabeledGraph,
    *,
    tapes: Mapping[Node, BitSource] | None = None,
    assignment: Mapping[Node, str] | None = None,
    seed: int | None = None,
    delivery: DeliveryDiscipline | None = None,
    max_rounds: int | None = None,
    record_trace: "bool | str | None" = None,
    require_decided: bool = False,
    policy: ExecutionPolicy | None = None,
    hooks: Sequence[RoundHook] = (),
) -> ExecutionResult:
    """Run ``algorithm`` on ``graph`` through the unified kernel.

    Randomness comes from exactly one of:

    * ``seed`` — a seeded randomized execution with per-node recording
      tapes, so ``result.trace.assignment()`` replays it;
    * ``assignment`` — the paper's *simulation induced by b* (Section
      2.2): each node replays its fixed bitstring and the run lasts at
      most ``l = min_v floor(|b(v)| / bits_per_round)`` rounds;
    * ``tapes`` — explicit per-node :class:`~repro.runtime.tape.BitSource`s;
    * none of them — a deterministic run (``bits_per_round == 0``).

    ``delivery`` defaults to the discipline matching the algorithm type
    (port-aware algorithms get :class:`PortDelivery`, broadcast ones
    :class:`BroadcastDelivery`).  ``record_trace`` accepts a bool or a
    trace level; it defaults to ``"off"`` for assignment-induced
    simulations (they run in bulk inside searches) and ``"full"``
    otherwise.  ``require_decided=True`` raises
    :class:`~repro.exceptions.SimulationError` unless every node decided
    — the Las-Vegas contract for seeded and deterministic runs.
    """
    given = [name for name, value in
             (("tapes", tapes), ("assignment", assignment), ("seed", seed))
             if value is not None]
    if len(given) > 1:
        raise SimulationError(
            f"pass at most one randomness source, got {' and '.join(given)}"
        )

    bits_per_round = algorithm.bits_per_round
    funded_limit: int | None = None
    if assignment is not None:
        funded_limit = _funded_rounds(algorithm, graph, assignment)
        tapes = {v: FixedTape(assignment[v]) for v in graph.nodes}
    elif seed is not None:
        tapes = {
            v: RecordingTape(RandomTape(seed * 1_000_003 + index))
            for index, v in enumerate(graph.nodes)
        }
    elif tapes is None:
        if bits_per_round != 0:
            raise SimulationError(
                f"{algorithm.name} is randomized (bits_per_round="
                f"{bits_per_round}); pass seed=, assignment= or tapes="
            )
        tapes = {v: FixedTape("") for v in graph.nodes}

    if policy is None:
        trace = _trace_level(
            record_trace, default="off" if assignment is not None else "full"
        )
        policy = ExecutionPolicy(trace=trace)
    limit = policy.max_rounds if max_rounds is None else max_rounds
    if funded_limit is not None:
        limit = funded_limit if max_rounds is None else min(limit, funded_limit)

    delivery = delivery or _infer_delivery(algorithm)
    if _INJECTION_PROVIDER is not None:
        injection = _INJECTION_PROVIDER()
        if injection is not None:
            delivery, tapes, hooks = injection.wrap(delivery, tapes, graph, hooks)
    if _TOPOLOGY_PROVIDER is not None:
        churn = _TOPOLOGY_PROVIDER()
        if churn is not None:
            hooks = [*hooks, churn.hook_for(graph)]

    engine = ExecutionEngine(
        algorithm,
        graph,
        tapes,
        delivery=delivery,
        policy=policy,
        hooks=hooks,
    )
    result = engine.run(max_rounds=limit)
    if require_decided and not result.all_decided:
        suffix = f" with seed {seed}" if seed is not None else ""
        raise SimulationError(
            f"{algorithm.name} did not terminate within {limit} rounds "
            f"on {graph!r}{suffix}"
        )
    return result
