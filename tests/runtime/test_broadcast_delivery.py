"""Broadcast delivery keys each sender once per round; the inbox must be
exactly the messages sorted by ``repr(_freeze(message))``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, FaultyDelivery
from repro.graphs.builders import complete_graph
from repro.graphs.labeled_graph import _freeze
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import BroadcastDelivery


def reference_freeze(value):
    """``_freeze`` without its fast path for atoms."""
    if isinstance(value, (list, tuple)):
        return tuple(reference_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, reference_freeze(v)) for k, v in value.items()))
    if isinstance(value, set):
        return tuple(sorted(reference_freeze(v) for v in value))
    return value


def reference_inbox(outboxes, node, graph):
    return tuple(
        sorted(
            (outboxes[u] for u in graph.neighbors(node)),
            key=lambda message: repr(reference_freeze(message)),
        )
    )


IDENTITY = FunctionAlgorithm(
    init=lambda label, degree: label,
    msg=lambda state: state,
    step=lambda state, received, bits: state,
    out=lambda state: None,
)

ADVERSARIAL = {
    "equal numbers": [1, True, 1.0, 0, False, 0.0],
    "list vs tuple": [[1, 2], (1, 2), [1, 2], (1, [2])],
    "containers": [{"b": 1, "a": [2]}, {"a": (2,), "b": True}, {3, 1, 2}, {1, 2, 3}],
    "nested": [((1, (2, 3)), "x"), ((1, [2, 3]), "x"), (("1",), None), ((None,),)],
    "duplicates": ["m", "m", ("m",), "m", b"m", None, None],
}


def assert_same_inboxes(messages, delivery):
    graph = complete_graph(len(messages))
    states = dict(zip(graph.nodes, messages))
    outboxes = delivery.emit(IDENTITY, states, graph)
    for node in graph.nodes:
        expected = reference_inbox(states, node, graph)
        for actual in (
            delivery.inbox(outboxes, node, graph),
            delivery.inbox(dict(outboxes), node, graph),
        ):
            assert actual == expected
            # The same objects in the same order, not merely equal ones.
            assert all(a is b for a, b in zip(actual, expected, strict=True))


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_broadcast_inbox_matches_the_sorted_messages(case):
    assert_same_inboxes(ADVERSARIAL[case], BroadcastDelivery())


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_faulty_broadcast_inbox_under_an_empty_plan_is_unchanged(case):
    assert_same_inboxes(ADVERSARIAL[case], FaultyDelivery(BroadcastDelivery(), FaultPlan()))


def test_equal_messages_keep_their_own_keys():
    # 1 == True == 1.0, but their keys "1" < "1.0" < "True" differ, so a
    # key cached by value would put them in the order they were first seen.
    graph = complete_graph(4)
    states = dict(zip(graph.nodes, ["z", True, 1.0, 1]))
    delivery = BroadcastDelivery()
    inbox = delivery.inbox(delivery.emit(IDENTITY, states, graph), 0, graph)
    assert [type(m) for m in inbox] == [int, float, bool]


atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2, 2, allow_nan=False),
    st.text("ab", max_size=2),
    st.binary(max_size=2),
)
messages = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text("xy", max_size=2), inner, max_size=3),
        st.sets(st.integers(0, 5), max_size=3),
    ),
    max_leaves=8,
)


@given(st.lists(messages, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_random_messages(batch):
    for message in batch:
        assert repr(_freeze(message)) == repr(reference_freeze(message))
    assert_same_inboxes(batch, BroadcastDelivery())
