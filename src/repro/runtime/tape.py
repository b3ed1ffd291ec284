"""Bit tapes — the explicit randomness model.

A :class:`BitSource` hands a node its random bits round by round.  Three
implementations cover the reproduction's needs:

* :class:`RandomTape` — a seeded pseudo-random source for genuine
  randomized executions.
* :class:`FixedTape` — replays a predetermined bitstring; running every
  node from a fixed tape is exactly the paper's "simulation induced by
  the assignment b" (Section 2.2).
* :class:`RecordingTape` — wraps another source and records what was
  drawn, so a random execution can be replayed or lifted later.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.exceptions import SimulationError


class BitSource(ABC):
    """Supplier of random bits for one node."""

    @abstractmethod
    def draw(self, count: int) -> str:
        """The next ``count`` bits as a string over ``{'0','1'}``."""

    @abstractmethod
    def remaining(self, count: int) -> bool:
        """Whether ``count`` more bits are available."""


class RandomTape(BitSource):
    """Unbounded seeded random bits."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def draw(self, count: int) -> str:
        if count < 0:
            raise SimulationError(f"cannot draw {count} bits")
        return "".join(str(self._rng.getrandbits(1)) for _ in range(count))

    def remaining(self, count: int) -> bool:
        return True


class FixedTape(BitSource):
    """Replays a fixed bitstring; exhausting it ends the simulation."""

    def __init__(self, bits: str) -> None:
        self._bits = ""
        self.rewind(bits, 0)

    def rewind(self, bits: str, position: int) -> None:
        """Replay ``bits`` from ``position`` on (a prefix replay re-points
        one tape per node at each new assignment)."""
        if bits != self._bits and any(c not in "01" for c in bits):
            raise SimulationError(f"bitstring may contain only 0/1, got {bits!r}")
        self._bits = bits
        self._position = position

    @property
    def bits(self) -> str:
        return self._bits

    def draw(self, count: int) -> str:
        if not self.remaining(count):
            raise SimulationError(
                f"tape exhausted: needed {count} bits at position {self._position} "
                f"of {len(self._bits)}"
            )
        chunk = self._bits[self._position : self._position + count]
        self._position += count
        return chunk

    def remaining(self, count: int) -> bool:
        return self._position + count <= len(self._bits)

    @property
    def consumed(self) -> int:
        return self._position


class RecordingTape(BitSource):
    """Wraps a source and records every bit drawn."""

    def __init__(self, inner: BitSource) -> None:
        self._inner = inner
        self._record: list[str] = []

    def draw(self, count: int) -> str:
        chunk = self._inner.draw(count)
        self._record.append(chunk)
        return chunk

    def remaining(self, count: int) -> bool:
        return self._inner.remaining(count)

    @property
    def recorded(self) -> str:
        return "".join(self._record)
