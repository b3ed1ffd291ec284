"""Tests of the benchmark itself (not of the library).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_self_time_on_a_synthetic_span_tree():
    # experiments.task [0, 10]
    #   core.search [1, 4]
    #     runtime.execute [2, 3]
    #   runtime.execute [5, 9]
    #     runtime.inbox [6, 7]
    #     runtime.execute [7, 8]   (nested same name)
    names = [
        "experiments.task.x",
        "core.search",
        "runtime.execute",
        "runtime.execute",
        "runtime.inbox",
        "runtime.execute",
    ]
    parents = [-1, 0, 1, 0, 3, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
    totals = tracing.aggregate(names, parents, starts, ends)

    assert totals["experiments.task.x"]["self"] == pytest.approx(10 - 3 - 4)
    assert totals["core.search"]["self"] == pytest.approx(3 - 1)
    # 1 (under search) + (4 - 1 - 1) (outer execute) + 1 (inner execute)
    assert totals["runtime.execute"]["self"] == pytest.approx(1 + 2 + 1)
    assert totals["runtime.inbox"]["self"] == pytest.approx(1)
    # Self times partition the root's interval.
    assert sum(t["self"] for t in totals.values()) == pytest.approx(10)

    # The nested execute is not counted twice in the inclusive time ...
    assert totals["runtime.execute"]["incl"] == pytest.approx(1 + 4)
    assert totals["runtime.execute"]["count"] == 3
    # ... nor in its layer's, which excludes the inbox under the execute.
    assert totals["runtime.inbox"]["layer_incl"] == 0
    # Library spans cover 3 + 4 of the container's 10 seconds.
    assert sum(t["covered"] for t in totals.values()) == pytest.approx(7)


def test_tracer_wrappers_record_nested_spans_and_restore():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = tracing.Tracer()
    original = Box.__dict__["outer"]
    tracer.patch_method(Box, "outer", "core.outer", after=lambda r, a: tracer.count("seen", r))
    tracer.patch_method(Box, "inner", "views.inner")
    assert Box().outer() == 2
    assert Box().outer() == 2
    tracer.uninstall()
    assert Box.__dict__["outer"] is original

    totals = tracer.totals()
    assert totals["core.outer"]["count"] == 2
    assert totals["views.inner"]["count"] == 2
    assert totals["core.outer"]["self"] <= totals["core.outer"]["incl"]
    assert tracer.counts == {"seen": 4}


def test_a_pass_starts_only_if_it_ends_by_the_deadline():
    soon = run.clock() + 10.0
    assert not run.finished(0, [], [], soon - 100.0)  # always one pass
    assert not run.finished(0, [1.0, 2.0, 1.5], [], soon)
    assert run.finished(0, [1.0, 20.0, 30.0], [], soon)  # the next would overrun
    assert not run.finished(1, [1.0], [], soon - 100.0)  # a traced pass is owed
    # Passes alternate, and each kind is predicted from its own medians.
    assert not run.finished(1, [1.0], [30.0], soon)  # the next is untraced
    assert run.finished(1, [1.0, 1.0], [30.0], soon)  # the next is traced


@pytest.mark.parametrize("interval", [0.05, 0.001])
def test_reference_samples_inside_a_block_are_taken_out_of_its_time(monkeypatch, interval):
    # At 1 ms every sample outlasts the interval: none may nest in another.
    monkeypatch.setattr(reference, "INTERVAL", interval)
    start = run.clock()
    with reference.sampling() as window:
        while run.clock() - start < 0.5:
            pass
    elapsed = run.clock() - start
    assert len(window.samples) >= 3
    assert window.cost_wall == pytest.approx(sum(wall for wall, _cpu in window.samples))
    assert 0 < window.cost_wall < elapsed < 1.0
    assert max(wall for wall, _cpu in window.samples) < 0.4
    samples = reference.boundary() + window.samples
    assert reference.medians(samples)[0] > 0
    # The walk visits every entry of the cycle before it returns.
    v, steps = reference.CYCLE[0], 1
    while v != 0:
        v, steps = reference.CYCLE[v], steps + 1
    assert steps == len(reference.CYCLE)


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_at_small_size(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", trace, "--size", "small")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else layers.PER_LAYER
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(expected)


def test_a_failed_check_counts_in_failed_frac(monkeypatch):
    pins = workloads.load_pins()
    for seeds in pins["derand-k4"]["small"].values():
        seeds["mis"] = "0" * 64  # a different canonical payload
    monkeypatch.setattr(workloads, "load_pins", lambda: pins)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "derand-k4", "--seed", "3", "--seconds", "0",
                         "--size", "small"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert 0 < result["failed"] / result["attempted"] < 1


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "derand-k4", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
