"""The three benchmark workloads and the correctness oracle of each pass.

A workload builds its inputs from the seed (:meth:`Workload.inputs`)
and runs one pass over them as a few parts (:meth:`Workload.parts`),
each timed on its own (:meth:`Workload.run_part`) and checking every
item it produces.  The program under test only ever sees the
generated inputs.  ``size="small"`` is the same pass on a smaller
instance: it is the warm-up before the timed passes and the smoke test
of the benchmark's own tests.

Why each workload exists, and which layers it stresses, is written up
in ``WORKLOADS.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
OUT = HERE / ".out"
GOLDEN = Path("tests/runtime/golden/experiments_canonical.json")
SIZES = ("full", "small")

# derand-k4 maps ``--seed`` onto this many shipped stage-1 seeds, each
# with a pinned digest, so every seed the benchmark accepts is checked
# against a recorded canonical payload.
SHIPPED_SEEDS = 32
BUNDLES = ("2-hop-coloring", "mis", "coloring")
SMALL_EXPERIMENTS = ("figure1", "figure2")
# The fault-injection grid of the fabric workload, and its points.
DROP_GRID = "resilience-drop-grid"
DROP_GRID_POINTS = 324
# The fabric workload runs its tasks as this many static shards.
SHARDS = 4


@dataclass
class Outcome:
    """What one part or pass did: items attempted and failed, plus its
    own measurements that the traced run reports (``extras``)."""

    attempted: int = 0
    failed: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {what} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for name, value in other.extras.items():
            self.extras[name] = self.extras.get(name, 0) + value


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict[str, Any]:
    return json.loads(PINS.read_text())


def golden_entries() -> dict[str, str]:
    """The golden registry entries, each as its canonical JSON text."""
    entries = json.loads(GOLDEN.read_text())
    return {entry["experiment_id"]: _entry_text(entry) for entry in entries}


def _entry_text(entry: dict[str, Any]) -> str:
    return json.dumps(entry, indent=2, sort_keys=True)


class Workload:
    name = ""
    # Imported by the fresh interpreter that times set-up imports.
    modules: tuple[str, ...] = ()

    def inputs(self, seed: int, size: str) -> Any:
        raise NotImplementedError

    def parts(self, inputs: Any) -> list[Any]:
        """One pass, as the inputs of its parts, run in this order."""
        return [inputs]

    def run_part(self, part: Any) -> Outcome:
        raise NotImplementedError


def run_pass(workload: Workload, inputs: Any) -> Outcome:
    """Every part of one pass, untimed (the warm-up)."""
    outcome = Outcome()
    for part in workload.parts(inputs):
        outcome.add(workload.run_part(part))
    return outcome


# -- derand-k4 -----------------------------------------------------------


def derand_instance(size: str) -> Any:
    from repro.graphs.builders import complete_graph, cycle_graph, with_uniform_input

    return with_uniform_input(complete_graph(4) if size == "full" else cycle_graph(3))


def derand_digest(instance: Any, result: Any) -> str:
    """The ``derandomized-run`` payload of one pipeline result, hashed."""
    from repro.artifacts.encoders import encode_derandomized_run, project_pipeline

    payload = encode_derandomized_run(project_pipeline(instance, result))
    return hashlib.sha256(payload).hexdigest()


class DerandK4(Workload):
    """Theorem 1's pipeline with the exact lexicographic search."""

    name = "derand-k4"
    modules = ("repro.core.derandomize", "repro.experiments.theorems")

    def inputs(self, seed: int, size: str) -> dict[str, Any]:
        from repro.experiments.theorems import _bundles

        stage1 = seed % SHIPPED_SEEDS
        return {
            "instance": derand_instance(size),
            "stage1_seed": stage1,
            "bundles": _bundles(),
            "pins": load_pins()[self.name][size][str(stage1)],
        }

    def run_part(self, inputs: dict[str, Any]) -> Outcome:
        from repro.core.derandomize import derandomize_pipeline

        outcome = Outcome()
        instance = inputs["instance"]
        for name in BUNDLES:
            bundle = inputs["bundles"][name]
            try:
                result = derandomize_pipeline(
                    bundle, instance, seed=inputs["stage1_seed"], strategy="lexicographic"
                )
            except Exception:
                outcome.crashed(f"derandomize_pipeline({name})")
                continue
            outcome.check(
                bundle.problem.is_valid_output(instance, result.outputs)
                and result.stage2.reconstructions_agreed
                and result.quotient_size == instance.num_nodes
                and derand_digest(instance, result) == inputs["pins"][name],
                f"{name} pipeline at stage-1 seed {inputs['stage1_seed']}",
            )
        return outcome


# -- astar-c4 --------------------------------------------------------------


def lift_voltages(base: Any) -> list[dict[Any, tuple[int, int]]]:
    """Every fiber-2 voltage assignment of a cycle base that gives a
    connected lift: an odd number of edges swap the two sheets."""
    edges = list(base.edges())
    choices = []
    for count in range(1, len(edges) + 1, 2):
        for swapped in itertools.combinations(edges, count):
            choices.append({e: ((1, 0) if e in swapped else (0, 1)) for e in edges})
    return choices


def astar_base(size: str) -> Any:
    from repro.graphs.builders import cycle_graph, with_uniform_input
    from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring

    plain = with_uniform_input(cycle_graph(4 if size == "full" else 3))
    return apply_two_hop_coloring(plain, greedy_two_hop_coloring(plain))


def astar_digest(lift: Any, outputs: Any, diagnostics: Any) -> str:
    return digest(
        {
            "outputs": [[repr(v), outputs[v]] for v in lift.nodes],
            "phase_selections": [list(s) for s in diagnostics.phase_selections],
        }
    )


class AStarC4(Workload):
    """Figure 3's A_* on a fiber-2 lift of the greedily 2-hop-colored C4.

    The seed picks the lift's voltages.  A_* works on views, which the
    covering map preserves, so every voltage choice must give the same
    outputs and selections: one digest is pinned per voltage choice and
    they coincide."""

    name = "astar-c4"
    modules = ("repro.core.a_star", "repro.problems.mis", "repro.algorithms.luby_mis")

    def inputs(self, seed: int, size: str) -> dict[str, Any]:
        from repro.graphs.lifts import lift_graph

        base = astar_base(size)
        choices = lift_voltages(base)
        index = random.Random(seed).randrange(len(choices))
        lift, _projection = lift_graph(base, 2, voltages=choices[index])
        return {
            "lift": lift,
            "base_nodes": base.num_nodes,
            "pin": load_pins()[self.name][size][str(index)],
        }

    def run_part(self, inputs: dict[str, Any]) -> Outcome:
        from repro.algorithms.luby_mis import AnonymousMISAlgorithm
        from repro.core.a_star import AStarSolver
        from repro.problems.mis import MISProblem

        outcome = Outcome()
        lift, n = inputs["lift"], inputs["base_nodes"]
        problem = MISProblem()
        solver = AStarSolver(problem, AnonymousMISAlgorithm(), max_candidate_nodes=n)
        try:
            outputs, diagnostics = solver.solve(lift, max_phases=32)
        except Exception:
            outcome.crashed("AStarSolver.solve")
            return outcome
        by_phase: dict[int, set] = {}
        for phase, size, encoding in diagnostics.phase_selections:
            by_phase.setdefault(phase, set()).add((size, encoding))
        final = by_phase.get(max(by_phase, default=0), set())
        outcome.check(
            problem.is_valid_output(lift.with_only_layers(["input"]), outputs)
            and all(len(selections) == 1 for selections in by_phase.values())
            and {size for size, _encoding in final} == {n}
            and astar_digest(lift, outputs, diagnostics) == inputs["pin"],
            "A_* outputs, per-phase agreement, final quotient size and digest",
        )
        return outcome


# -- fabric-drop-grid ----------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    from repro.experiments.__main__ import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _summary_count(text: str, field_name: str) -> int:
    found = re.search(rf"\b{field_name}=(\d+)", text)
    return int(found.group(1)) if found else -1


class FabricDropGrid(Workload):
    """The registry and the drop-rate grid as a sharded sweep: each
    shard is a serial ``fabric run`` into a fresh store and a resume
    pass; then ``fabric merge`` folds the shard stores."""

    name = "fabric-drop-grid"
    modules = ("repro.experiments",)

    def inputs(self, seed: int, size: str) -> dict[str, Any]:
        # The fabric runs at base_seed=0 so that its merged entries can
        # be compared with the golden: the seed changes nothing here.
        golden = golden_entries()
        if size == "full":
            return {
                "selection": ["--all", "--grid", DROP_GRID],
                "shards": SHARDS,
                "golden": golden,
                "golden_text": GOLDEN.read_text(),
                "grid_points": DROP_GRID_POINTS,
            }
        return {
            "selection": list(SMALL_EXPERIMENTS),
            "shards": 1,
            "golden": {eid: golden[eid] for eid in SMALL_EXPERIMENTS},
            "golden_text": None,
            "grid_points": 0,
        }

    def parts(self, inputs: dict[str, Any]) -> list[dict[str, Any]]:
        workdir = OUT / f"fabric-{os.getpid()}"
        shards = inputs["shards"]
        stores = [workdir / f"shard-{i}.jsonl" for i in range(1, shards + 1)]
        runs = [
            {**inputs, "shard": f"{i}/{shards}", "store": store}
            for i, store in enumerate(stores, start=1)
        ]
        return [*runs, {**inputs, "merge": stores, "workdir": workdir}]

    def run_part(self, part: dict[str, Any]) -> Outcome:
        if "merge" in part:
            return self._merge(part)
        outcome = Outcome()
        store = part["store"]
        store.parent.mkdir(parents=True, exist_ok=True)
        store.unlink(missing_ok=True)
        run = ["fabric", "run", *part["selection"], "--shard", part["shard"], "--jobs", "1"]
        run += ["--store", str(store)]
        try:
            start = time.perf_counter()
            first_code, first = _cli(run)
            resumed = time.perf_counter()
            resume_code, resume = _cli(run)
            outcome.extras.update(
                dispatch_wall_s=resumed - start,
                resume_s=time.perf_counter() - resumed,
                store_bytes=store.stat().st_size,
            )
        except Exception:
            outcome.crashed(f"fabric run --shard {part['shard']}")
            return outcome
        outcome.check(
            (first_code, resume_code) == (0, 0)
            and _summary_count(first, "ran") == _summary_count(first, "total") > 0
            and _summary_count(resume, "ran") == 0,
            f"shard {part['shard']}: exit codes, fresh run ran every task, resume ran=0",
        )
        return outcome

    def _merge(self, part: dict[str, Any]) -> Outcome:
        outcome = Outcome()
        merged = part["workdir"] / "merged.json"
        try:
            start = time.perf_counter()
            code, _ = _cli(["fabric", "merge", *map(str, part["merge"]), "--out", str(merged)])
            outcome.extras["merge_s"] = time.perf_counter() - start
            payload = json.loads(merged.read_text())
        except Exception:
            outcome.crashed("fabric merge")
            return outcome
        finally:
            shutil.rmtree(part["workdir"], ignore_errors=True)
        produced = {entry["experiment_id"]: entry for entry in payload["results"]}
        for eid, expected in part["golden"].items():
            entry = produced.get(eid)
            outcome.check(
                entry is not None and entry["passed"] and _entry_text(entry) == expected,
                f"merged fabric entry {eid} against the golden",
            )
        if part["golden_text"] is not None:
            text = json.dumps(payload["results"], indent=2, sort_keys=True) + "\n"
            outcome.check(text == part["golden_text"], "merged registry bytes against the golden")
        grid_rows = sum(len(rows) for rows in payload["grids"].values())
        outcome.check(
            code == 0 and len(produced) == len(part["golden"]) and grid_rows == part["grid_points"],
            "merge exit code, merged experiment count and grid rows",
        )
        return outcome


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (DerandK4(), AStarC4(), FabricDropGrid())
}
