"""The repository benchmark: one workload, timed, checked and reported.

Run from the repository root::

    python3 perfbench/run.py --workload derand-k4 --seed 0 --seconds 39 --trace 0

``--trace 0`` times untraced passes and reports the ``end_to_end``
metrics of ``BENCHMARK.json``: a pass is a workload's parts in order,
and a pass starts only if, at the median length of the passes before
it, it ends within ``--seconds``.  The reference kernel of
``reference.py`` is timed between the parts and every half second
inside them; ``wall_ref`` and ``cpu_ref`` express each part's time in
units of the kernel's median time over those samples and sum the
parts' medians over the run.  ``--trace 1`` alternates untraced and
traced passes and reports the ``per_layer`` metrics, including the
tracing overhead.  Every pass checks its outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A table with sample counts and the failed
fraction goes to standard error.  ``WORKLOADS.md`` describes the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

clock = time.perf_counter
SETUP_REPEATS = 5

END_TO_END: tuple[tuple[str, str], ...] = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb(reference_mb: float, child_mb: float) -> float:
    """Peak resident set of this process, less the ``reference_mb`` the
    reference kernel holds, plus ``child_mb``, that of the largest
    child (an interpreter that timed imports)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own - reference_mb + child_mb


def time_import(modules: tuple[str, ...]) -> float:
    """Import the workload's modules in a fresh interpreter, and return
    its peak resident set in MB.  That is read from its own
    ``/proc/self/status`` (``VmHWM``): the children's ``ru_maxrss``
    would count this process's memory, which the child shares until
    it runs ``exec``."""
    code = "import sys; sys.path.insert(0, 'src')\n" + "".join(
        f"import {module}\n" for module in modules
    ) + (
        "print(next(line for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')).split()[1])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True)
    return int(done.stdout.split()[-1]) / 1024.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "small"),
        default="full",
        help="small: the warm-up instance, for smoke tests",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    for needed in (root / "src" / "repro", root / "tests" / "runtime" / "golden"):
        if not needed.is_dir():
            print(f"perfbench: {needed} is missing; run from the repository root",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(root / "src"))

    import reference
    import workloads
    from repro.views import clear_caches

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    for module in workload.modules:
        __import__(module)

    # Set-up: imports in a fresh interpreter, input generation, and one
    # pass at the small size as warm-up.  Repeated, each between two
    # boundary samples of the reference kernel; the median is kept, in
    # seconds at the kernel's nominal speed.
    attempted = failed = 0
    setups, setup_walls, child_mb = [], [], 0.0
    before = reference.boundary()
    for _ in range(SETUP_REPEATS):
        clear_caches()
        start = clock()
        child_mb = max(child_mb, time_import(workload.modules))
        inputs = workload.inputs(args.seed, args.size)
        warm = workloads.run_pass(workload, workload.inputs(args.seed, "small"))
        setup_walls.append(clock() - start)
        after = reference.boundary()
        ref_wall, _ref_cpu = reference.medians(before + after)
        setups.append(setup_walls[-1] * reference.NOMINAL_S / ref_wall)
        before = after
        attempted += warm.attempted
        failed += warm.failed

    # A pass runs the workload's parts in order, each timed on its own
    # while the reference kernel is sampled inside and on both sides of
    # it; a part's wall and CPU time, less the samples' own, are divided
    # by the kernel's median, and wall_ref and cpu_ref sum the parts'
    # medians over the run.
    walls, lengths, traced_walls, layer_runs = [], [], [], []
    parts = workload.parts(inputs)
    part_walls: list[list[float]] = [[] for _ in parts]
    part_cpus: list[list[float]] = [[] for _ in parts]
    part_wall_refs: list[list[float]] = [[] for _ in parts]
    part_cpu_refs: list[list[float]] = [[] for _ in parts]
    deadline = clock() + args.seconds
    while True:
        traced = args.trace == 1 and len(walls) > len(traced_walls)
        clear_caches()
        gc.collect()
        pass_start = clock()
        if traced:
            wall, outcome, layer_values = traced_pass(workload, inputs)
            traced_walls.append(wall)
            layer_runs.append(layer_values)
        else:
            outcome = workloads.Outcome()
            before = reference.boundary()
            for index, part in enumerate(parts):
                with reference.sampling() as window:
                    cpu_start, start = cpu_seconds(), clock()
                    outcome.add(workload.run_part(part))
                    wall = clock() - start - window.cost_wall
                    cpu = cpu_seconds() - cpu_start - window.cost_cpu
                after = reference.boundary()
                ref_wall, ref_cpu = reference.medians(before + window.samples + after)
                part_walls[index].append(wall)
                part_cpus[index].append(cpu)
                part_wall_refs[index].append(wall / ref_wall)
                part_cpu_refs[index].append(cpu / ref_cpu)
                before = after
            walls.append(sum(samples[-1] for samples in part_walls))
            lengths.append(clock() - pass_start)
        attempted += outcome.attempted
        failed += outcome.failed
        if finished(args.trace, lengths, traced_walls, deadline):
            break

    shutil.rmtree(workloads.OUT, ignore_errors=True)
    if args.trace == 0:
        values = {
            "wall_ref": sum(map(statistics.median, part_wall_refs)),
            "setup_s": statistics.median(setups),
            "cpu_ref": sum(map(statistics.median, part_cpu_refs)),
            "peak_rss_mb": peak_rss_mb(reference.RSS_MB, child_mb),
        }
        units = dict(END_TO_END)
    else:
        import layers

        values = {
            name: statistics.median(run[name] for run in layer_runs)
            for name, _unit in layers.PER_LAYER
            if name != "trace_overhead_s"
        }
        values["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = dict(layers.PER_LAYER)
    report(args, walls, part_walls, part_cpus, part_wall_refs, traced_walls, setup_walls,
           attempted, failed, values, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def finished(trace: int, lengths: list, traced_lengths: list, deadline: float) -> bool:
    """Whether the timed passes are over: each kind of pass has run
    once, and the next one, at the median length of its kind so far,
    would end after the deadline."""
    if not lengths or (trace == 1 and not traced_lengths):
        return False
    if trace == 1 and len(lengths) > len(traced_lengths):
        upcoming = traced_lengths
    else:
        upcoming = lengths
    return clock() + statistics.median(upcoming) > deadline


def traced_pass(workload, inputs):
    import layers
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    with layers.traced(tracer):
        start = clock()
        outcome = workloads.run_pass(workload, inputs)
        wall = clock() - start
    values = layers.layer_metrics(tracer, wall, outcome.extras)
    return wall, outcome, values


def report(args, walls, part_walls, part_cpus, part_wall_refs, traced_walls, setup_walls,
           attempted, failed, values, units) -> None:
    """The human-readable summary, on standard error, with the plain
    seconds of the untraced passes beside the metrics."""
    err = sys.stderr
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}", file=err)
    print(f"  untraced passes: {len(walls)}  traced passes: {len(traced_walls)}  "
          f"set-ups: {len(setup_walls)}", file=err)
    print(f"  failed_frac: {failed}/{attempted} = {failed / attempted:.4f}", file=err)
    part_medians = [statistics.median(samples) for samples in part_walls if samples]
    if part_medians:
        cpu_seconds_median = sum(map(statistics.median, part_cpus))
        print(f"  seconds: wall {sum(part_medians):.4f}  cpu {cpu_seconds_median:.4f}",
              file=err)
    part_ref_medians = [statistics.median(samples) for samples in part_wall_refs if samples]
    for label, samples in (("pass wall_s", walls), ("part wall_s medians", part_medians),
                           ("part wall_ref medians", part_ref_medians),
                           ("traced pass wall_s", traced_walls),
                           ("setup wall_s", setup_walls)):
        if samples:
            print(f"  {label}: " + " ".join(f"{s:.4f}" for s in samples), file=err)
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:>14.6g} {unit}", file=err)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
