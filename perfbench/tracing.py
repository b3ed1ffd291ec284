"""Per-layer spans and counts for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps
the public functions of each layer for timing wrappers at the module
and class attributes their callers resolve them through (for example
``repro.core.candidates.all_views`` and ``BroadcastDelivery.inbox``),
and puts the originals back on :meth:`Tracer.uninstall`.  The untraced
run never constructs a tracer.

A span is ``(name, parent, start, end)``; spans live in flat arrays so
that the ~10^6 delivery spans of a search-heavy pass stay a few tens of
megabytes.  :func:`aggregate` turns a span list into additive per-name
totals, so spans can be folded into the totals in batches.

The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections.abc import Callable, Iterable
from typing import Any

clock = time.perf_counter

# Spans of this layer are containers (one experiment, one fabric task),
# not library work: ``untraced_share`` counts their self time as
# uncovered, the way the registry's unattributed time was reported.
CONTAINER_LAYER = "experiments"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _new_totals() -> dict[str, float]:
    return {"count": 0, "incl": 0.0, "self": 0.0, "layer_incl": 0.0, "covered": 0.0}


def aggregate(
    names: Iterable[str],
    parents: Iterable[int],
    starts: Iterable[float],
    ends: Iterable[float],
) -> dict[str, dict[str, float]]:
    """Per-name totals of a span forest.

    Parents precede their children (``parent < index``; ``-1`` is a
    root).  For each name:

    * ``count`` — spans recorded;
    * ``incl`` — duration of the spans with no ancestor of the same
      name, so recursion is not counted twice;
    * ``self`` — duration minus the durations of direct children (one
      thread: children never overlap each other);
    * ``layer_incl`` — duration of the spans with no ancestor in the
      same layer;
    * ``covered`` — duration of library spans (layer other than
      :data:`CONTAINER_LAYER`) with no library ancestor; summed over
      names it is the part of the wall time some layer accounts for.
    """
    names = list(names)
    parents = list(parents)
    durations = [end - start for start, end in zip(starts, ends)]
    child_time = [0.0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[index]
    totals: dict[str, dict[str, float]] = {}
    for index, name in enumerate(names):
        layer = layer_of(name)
        library = layer != CONTAINER_LAYER
        same_name = same_layer = library_above = False
        parent = parents[index]
        while parent >= 0:
            ancestor = names[parent]
            same_name = same_name or ancestor == name
            ancestor_layer = layer_of(ancestor)
            same_layer = same_layer or ancestor_layer == layer
            library_above = library_above or ancestor_layer != CONTAINER_LAYER
            parent = parents[parent]
        entry = totals.setdefault(name, _new_totals())
        entry["count"] += 1
        entry["self"] += durations[index] - child_time[index]
        if not same_name:
            entry["incl"] += durations[index]
        if not same_layer:
            entry["layer_incl"] += durations[index]
        if library and not library_above:
            entry["covered"] += durations[index]
    return totals


def merge_into(
    target: dict[str, dict[str, float]], source: dict[str, dict[str, float]]
) -> None:
    """Add one :func:`aggregate` result into another."""
    for name, entry in source.items():
        into = target.setdefault(name, _new_totals())
        for key, value in entry.items():
            into[key] += value


def patch_targets(original: Any) -> list[tuple[Any, str]]:
    """Every ``(module, attribute)`` of the ``repro`` package bound to
    ``original``."""
    targets = []
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".", 1)[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                targets.append((module, attribute))
    return targets


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self._reset()

    def _reset(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.done: dict[str, dict[str, float]] = {}

    # -- recording ---------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _name_id(self, name: str) -> int:
        found = self.name_ids.get(name)
        if found is None:
            found = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(
        self,
        fn: Callable[..., Any],
        name: "str | Callable[..., str]",
        after: "Callable[[Any, tuple], None] | None" = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``name`` may be computed from the
        arguments; ``after(result, args)`` records counts."""
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = fixed if fixed is not None else name(*args, **kwargs)
            stack = self.stack
            index = len(self.span_start)
            self.span_name.append(self._name_id(span_name))
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(clock())
            self.span_end.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[index] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(
        self, fn: Callable[..., Any], after: Callable[[Any, tuple], None]
    ) -> Callable[..., Any]:
        """``fn`` with a count hook and no span (for per-call tallies)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return wrapper

    # -- installing ----------------------------------------------------

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_method(
        self,
        cls: type,
        attribute: str,
        name: "str | Callable[..., str]",
        after: "Callable[[Any, tuple], None] | None" = None,
    ) -> None:
        self.patch(cls, attribute, self.wrap(cls.__dict__[attribute], name, after))

    def patch_function(
        self,
        fn: Callable[..., Any],
        name: "str | Callable[..., str]",
        after: "Callable[[Any, tuple], None] | None" = None,
    ) -> None:
        """Wrap ``fn`` at every ``repro`` module attribute bound to it."""
        wrapper = self.wrap(fn, name, after)
        for module, attribute in patch_targets(fn):
            self.patch(module, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------

    def _fold(self) -> None:
        """Move finished spans into ``done`` and free the arrays (only
        when no span is open)."""
        if self.stack:
            raise RuntimeError("cannot fold spans while a span is open")
        merge_into(
            self.done,
            aggregate(
                (self.names[i] for i in self.span_name),
                self.span_parent,
                self.span_start,
                self.span_end,
            ),
        )
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del spans[:]

    def totals(self) -> dict[str, dict[str, float]]:
        self._fold()
        return self.done
