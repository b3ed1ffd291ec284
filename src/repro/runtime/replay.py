"""Prefix replay: the simulations induced by a sequence of assignments.

An assignment search (:mod:`repro.core.assignment_search`) asks, for
one assignment ``b`` after another, whether the simulation induced by
``b`` is successful (Section 2.2).  In the lexicographic order,
consecutive assignments differ only in their low bits, so their
simulations agree on every round before the first round whose bit
chunk changed for some node.

:class:`PrefixReplay` answers exactly
``execute(algorithm, graph, assignment=b).successful`` for each ``b`` in
turn.  For the current assignment it keeps a stack of per-round
snapshots: the node states, the decided outputs, and the next round's
outboxes with their sort keys.  For the next assignment it rewinds to
the first round whose chunk changed for any node and steps only the
rounds after it.  The rounds are stepped by :meth:`ExecutionEngine.step
<repro.runtime.engine.ExecutionEngine.step>` and the outcome is decided
by :meth:`ExecutionEngine.run <repro.runtime.engine.ExecutionEngine.run>`,
so the rules are the kernel's own:

* every node decided means success;
* running out of funded rounds means failure;
* an irrevocable output that changes still raises
  :class:`~repro.exceptions.OutputAlreadySetError`.

The rounds it skips are the ones a fresh run would recompute with the
same states and the same bits; algorithms are pure state machines
(:mod:`repro.runtime.algorithm`), so the result is the same.  Each
answer is absorbed by the active :func:`collect_engine_metrics
<repro.runtime.engine.collect_engine_metrics>` collectors as one
execution, with the rounds actually stepped.  Memory is one snapshot
per funded round; nothing is kept of earlier prefixes.

An ambient fault injection or churn context carries per-execution
delivery and hook state.  While one is active, every answer is a plain
:func:`~repro.runtime.engine.execute` call.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.runtime.engine import (
    ExecutionEngine,
    ExecutionMetrics,
    ExecutionPolicy,
    _ambient_context_active,
    _funded_rounds,
    _infer_delivery,
    execute,
)
from repro.runtime.tape import FixedTape


class _Snapshot:
    """The engine after some round: states, outputs, and the outboxes
    the next round emits (filled in when that round first runs)."""

    __slots__ = ("states", "outputs", "outboxes")

    def __init__(self, states: dict[Node, Any], outputs: dict[Node, Any]) -> None:
        self.states = states
        self.outputs = outputs
        self.outboxes: Mapping[Node, Any] | None = None


class _RewindableEngine(ExecutionEngine):
    """An engine that snapshots every round and rewinds to any of them."""

    def __init__(
        self, algorithm: Any, graph: LabeledGraph, tapes: Mapping[Node, FixedTape]
    ) -> None:
        super().__init__(
            algorithm,
            graph,
            tapes,
            delivery=_infer_delivery(algorithm),
            policy=ExecutionPolicy(trace="off"),
        )
        self._snapshots = [_Snapshot(self._states, dict(self._outputs))]

    @property
    def snapshot_rounds(self) -> int:
        """The last round with a snapshot."""
        return len(self._snapshots) - 1

    def step(self) -> None:
        super().step()
        self._snapshots.append(_Snapshot(self._states, dict(self._outputs)))

    def _emit(self) -> Mapping[Node, Any]:
        snapshot = self._snapshots[self._rounds]
        if snapshot.outboxes is None:
            snapshot.outboxes = super()._emit()
        return snapshot.outboxes

    def rewind(self, rounds: int) -> None:
        """Return to the state after ``rounds`` rounds, with fresh metrics."""
        del self._snapshots[rounds + 1 :]
        snapshot = self._snapshots[rounds]
        self._states = snapshot.states
        self._outputs = dict(snapshot.outputs)
        self._rounds = rounds
        self._metrics = ExecutionMetrics(decided_per_round=[len(snapshot.outputs)])


def _shared_chunks(old: str, new: str, bits_per_round: int) -> int:
    """How many whole leading chunks of ``bits_per_round`` bits agree."""
    if old == new:
        return len(new) // bits_per_round
    same = 0
    for a, b in zip(old, new):
        if a != b:
            break
        same += 1
    return same // bits_per_round


class PrefixReplay:
    """The successes of the simulations of ``algorithm`` on ``graph``
    induced by one assignment after another, replaying shared rounds."""

    def __init__(self, algorithm: Any, graph: LabeledGraph) -> None:
        self._algorithm = algorithm
        self._graph = graph
        self._engine: _RewindableEngine | None = None
        # Each node's tape holds its bits of the current assignment.
        self._tapes: dict[Node, FixedTape] = {}

    def successful(self, assignment: Mapping[Node, str]) -> bool:
        """Exactly ``execute(algorithm, graph, assignment=assignment).successful``."""
        algorithm, graph = self._algorithm, self._graph
        if _ambient_context_active():
            return execute(algorithm, graph, assignment=assignment).successful
        funded = _funded_rounds(algorithm, graph, assignment)
        engine = self._engine
        if engine is None:
            self._tapes = {v: FixedTape(assignment[v]) for v in graph.nodes}
            engine = self._engine = _RewindableEngine(algorithm, graph, self._tapes)
        else:
            bits_per_round = algorithm.bits_per_round
            rounds = min(engine.snapshot_rounds, funded)
            for v, tape in self._tapes.items():
                rounds = min(rounds, _shared_chunks(tape.bits, assignment[v], bits_per_round))
            # The snapshots kept hold for the old and the new bits alike, so
            # a bitstring rejected below leaves the replay consistent.
            engine.rewind(rounds)
            for v, tape in self._tapes.items():
                tape.rewind(assignment[v], rounds * bits_per_round)
        return engine.run(max_rounds=funded).successful
