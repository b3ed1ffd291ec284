"""Recompute ``pins.json``, the canonical digests the benchmark checks.

Run from the repository root, only when a canonical output is meant to
change (the same rule as for ``tests/runtime/golden``)::

    python3 perfbench/pin.py

It takes a few minutes: every shipped derand-k4 seed and every astar-c4
voltage choice is solved once, at both sizes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import workloads  # noqa: E402  (needs src on the path)


def derand_pins(size: str) -> dict[str, dict[str, str]]:
    from repro.core.derandomize import derandomize_pipeline
    from repro.experiments.theorems import _bundles

    bundles = _bundles()
    instance = workloads.derand_instance(size)
    pins = {}
    for seed in range(workloads.SHIPPED_SEEDS):
        pins[str(seed)] = {
            name: workloads.derand_digest(
                instance, derandomize_pipeline(bundles[name], instance, seed=seed)
            )
            for name in workloads.BUNDLES
        }
    return pins


def astar_pins(size: str) -> dict[str, str]:
    from repro.algorithms.luby_mis import AnonymousMISAlgorithm
    from repro.core.a_star import AStarSolver
    from repro.graphs.lifts import lift_graph
    from repro.problems.mis import MISProblem

    base = workloads.astar_base(size)
    pins = {}
    for index, voltages in enumerate(workloads.lift_voltages(base)):
        lift, _projection = lift_graph(base, 2, voltages=voltages)
        solver = AStarSolver(
            MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=base.num_nodes
        )
        outputs, diagnostics = solver.solve(lift, max_phases=32)
        pins[str(index)] = workloads.astar_digest(lift, outputs, diagnostics)
    return pins


def main() -> int:
    pins = {
        "derand-k4": {size: derand_pins(size) for size in workloads.SIZES},
        "astar-c4": {size: astar_pins(size) for size in workloads.SIZES},
    }
    workloads.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
