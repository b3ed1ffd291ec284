"""Searching for successful simulations in the assignment order.

``A_∞`` needs the globally smallest successful assignment (Section 2.2);
``A_*``'s Update-Bits needs the smallest successful *p-extension* of a
prefix assignment (Section 3.1).  Both reduce to enumerating, for a
fixed target length, all fillings of the free suffix bits in
lexicographic order of the node-ordered tuple — which is a plain binary
counter over the free bits with the first node's bits most significant.

The search is exponential in ``(#nodes × target length)`` — that is the
honest cost of the paper's construction, and one of the things our
benchmarks measure.  Its cost is trials × cost per trial.  An extension
search runs its trials through a
:class:`~repro.runtime.replay.PrefixReplay`, which rewinds each
simulation to the first round whose bits changed and steps only the
rounds after it, instead of running every trial from round 0.  In the
lexicographic order consecutive assignments differ only in their low
bits, so most trials step only their last rounds; the trials
themselves are unchanged (``docs/PERFORMANCE.md``, *Prefix-replay
search*).  A budget guard raises
:class:`SearchBudgetExceeded` rather than hanging.  An alternative
``"prg"`` strategy enumerates candidate fillings in a *deterministic
pseudorandom* order instead: every node still computes the same
predetermined order (all Lemma 1 needs), but the expected number of
trials drops from exponential to ``O(1 / p_success)`` — our ablation
experiment quantifies the difference.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping, Sequence

from repro.exceptions import DerandomizationError
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import execute
from repro.runtime.replay import PrefixReplay

Assignment = dict[Node, str]


class SearchBudgetExceeded(DerandomizationError):
    """The assignment search hit its trial budget before finding success."""


def enumerate_extensions(
    prefix: Mapping[Node, str],
    node_order: Sequence[Node],
    target_length: int,
    strategy: str = "lexicographic",
    prg_seed: int = 0,
    limit: int | None = None,
) -> Iterator[Assignment]:
    """Yield the ``target_length``-extensions of ``prefix`` in a
    predetermined total order.

    ``"lexicographic"`` yields them in the paper's assignment order
    (smallest first).  ``"prg"`` yields them in a fixed pseudorandom
    order (deduplicated), still deterministic for given inputs.
    ``limit`` caps the number of yielded assignments.
    """
    free_counts = []
    for v in node_order:
        current = prefix.get(v, "")
        if len(current) > target_length:
            raise DerandomizationError(
                f"prefix of node {v!r} has length {len(current)} > target "
                f"{target_length}; not extendable"
            )
        free_counts.append(target_length - len(current))
    total_free = sum(free_counts)

    def build(filling: str) -> Assignment:
        assignment: Assignment = {}
        position = 0
        for v, count in zip(node_order, free_counts):
            assignment[v] = prefix.get(v, "") + filling[position : position + count]
            position += count
        return assignment

    space = 1 << total_free
    if strategy == "lexicographic":
        indices: Iterator[int] = iter(range(space))
    elif strategy == "prg":
        indices = _prg_indices(space, prg_seed)
    else:
        raise DerandomizationError(f"unknown search strategy {strategy!r}")

    yielded = 0
    for index in indices:
        if limit is not None and yielded >= limit:
            return
        filling = format(index, f"0{total_free}b") if total_free else ""
        yield build(filling)
        yielded += 1


def _prg_indices(space: int, seed: int) -> Iterator[int]:
    """A deterministic pseudorandom enumeration of ``range(space)`` without
    replacement (rejection sampling backed by a seen-set; for very large
    spaces callers bound the draw count via their budget)."""
    rng = random.Random(seed)
    seen: set = set()
    while len(seen) < space:
        index = rng.randrange(space)
        if index in seen:
            continue
        seen.add(index)
        yield index


def smallest_successful_extension(
    algorithm: AnonymousAlgorithm,
    graph: LabeledGraph,
    node_order: Sequence[Node],
    prefix: Mapping[Node, str],
    target_length: int,
    budget: int = 1_000_000,
    strategy: str = "lexicographic",
) -> Assignment | None:
    """The first successful ``target_length``-extension of ``prefix`` in the
    chosen predetermined order, or ``None`` when no extension of this
    length succeeds.  Raises :class:`SearchBudgetExceeded` when the
    budget runs out with candidates still untried."""
    successful = PrefixReplay(algorithm, graph).successful
    tried = 0
    exhausted = True
    for assignment in enumerate_extensions(
        prefix, node_order, target_length, strategy=strategy
    ):
        if tried >= budget:
            exhausted = False
            break
        tried += 1
        if successful(assignment):
            return assignment
    if not exhausted:
        raise SearchBudgetExceeded(
            f"no successful extension of length {target_length} within "
            f"{budget} trials (space not exhausted)"
        )
    return None


def smallest_successful_assignment(
    algorithm: AnonymousAlgorithm,
    graph: LabeledGraph,
    node_order: Sequence[Node],
    max_length: int = 64,
    budget: int = 1_000_000,
    strategy: str = "lexicographic",
) -> Assignment:
    """The first successful assignment in the strategy's predetermined
    order.

    ``"lexicographic"`` is the paper's total order: lengths
    ``t = 1, 2, ...`` in turn, lexicographic within a length — the result
    is the globally smallest successful assignment.  ``"prg"`` trades
    minimality for tractability while keeping determinism: lengths double
    (``4, 8, 16, ...``) and within each length a bounded number of
    pseudorandomly-ordered assignments is tried; at an adequate length a
    random assignment succeeds with high probability, so the expected
    trial count is small.  Any such predetermined rule satisfies Lemma 1.

    The budget is shared across lengths.  Raises
    :class:`SearchBudgetExceeded` if it runs out, and
    :class:`DerandomizationError` if ``max_length`` is exhausted (which,
    for a Las-Vegas algorithm, means the cap was simply too small)."""
    if strategy == "prg":
        return _prg_assignment_search(
            algorithm, graph, node_order, max_length=max_length, budget=budget
        )
    remaining = budget
    empty: dict[Node, str] = {v: "" for v in node_order}
    for target_length in range(1, max_length + 1):
        try:
            found = smallest_successful_extension(
                algorithm,
                graph,
                node_order,
                empty,
                target_length,
                budget=remaining,
                strategy=strategy,
            )
        except SearchBudgetExceeded:
            raise SearchBudgetExceeded(
                f"assignment search exceeded its budget of {budget} trials "
                f"at length {target_length}"
            ) from None
        space = 1 << (len(list(node_order)) * target_length)
        remaining -= min(space, remaining)
        if found is not None:
            return found
        if remaining <= 0:
            raise SearchBudgetExceeded(
                f"assignment search exceeded its budget of {budget} trials "
                f"after length {target_length}"
            )
    raise DerandomizationError(
        f"no successful assignment up to length {max_length}; "
        "raise max_length (Las-Vegas success has probability 1, so some "
        "finite length works)"
    )


def _prg_assignment_search(
    algorithm: AnonymousAlgorithm,
    graph: LabeledGraph,
    node_order: Sequence[Node],
    max_length: int,
    budget: int,
    trials_per_length: int = 128,
) -> Assignment:
    empty: dict[Node, str] = {v: "" for v in node_order}
    tried = 0
    target_length = 4
    while target_length <= max_length:
        for assignment in enumerate_extensions(
            empty,
            node_order,
            target_length,
            strategy="prg",
            prg_seed=target_length,
            limit=trials_per_length,
        ):
            if tried >= budget:
                raise SearchBudgetExceeded(
                    f"prg assignment search exceeded its budget of {budget} trials"
                )
            tried += 1
            if execute(algorithm, graph, assignment=assignment).successful:
                return assignment
        target_length *= 2
    raise DerandomizationError(
        f"prg search found no successful assignment up to length {max_length}; "
        "raise max_length"
    )
