"""droptrack benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ref-sweep --seed 7 --seconds 50 --trace 0

With ``--trace 0`` it repeats the workload's operation (a whole sweep
written to disk, or one ``droptrack eval`` call per sequence) within a
budget of ``--seconds``, then times a few fresh set-up processes, and
prints the end-to-end metrics. Their times are paced (see speed.py):
scaled to a fixed machine speed by probes taken while they run. With
``--trace 1`` it runs the operation once untraced and twice with spans
around every layer boundary, checks the trace, and prints the per-layer
metrics of the first traced pass. Every
operation goes through the correctness gate. The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads
from program import ROOT, MissingProgram, import_droptrack
from workloads import Part

WORKLOADS = ("ref-sweep", "eval-stored")
SETUP_RUNS = 5
TRACED_PASSES = 2
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SCRIPT = Path(__file__).resolve().parent / "setup_probe.py"


def sweep_op(modules, workload, config) -> list[tuple[Part, str | None]]:
    """`droptrack sweep`: run the grid and write the report files."""
    pipeline = modules["pipeline"]
    units = len(workload.cells)
    frames = units * sum(workload.lengths.values())
    try:
        report = pipeline.run_sweep(config)
        pipeline.write_report(report, workload.out_dir)
        data = (workload.out_dir / "sweep.json").read_bytes()
    except Exception:
        traceback.print_exc()
        return [(Part(units, frames, b""), "sweep raised")]
    return [(Part(units, frames, data), workloads.check_sweep(workload, data))]


def eval_op(modules, workload) -> list[tuple[Part, str | None]]:
    """`droptrack eval` in-process, once per sequence, stdout captured."""
    results = []
    for seq_id, length in workload.lengths.items():
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = modules["cli"].main(workloads.eval_argv(workload, seq_id))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        data = buf.getvalue().encode()
        results.append((Part(1, length, data),
                        workloads.check_eval(workload, seq_id, code, data)))
    return results


class Gate:
    """Counts failed units: a failed check, output that differs from the
    run's first operation, or (for the default seed) a digest that differs
    from the recorded one."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.first: list[bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def judge(self, results: list[tuple[Part, str | None]]) -> int:
        """Record one operation; returns the frames it completed correctly."""
        if self.first is None:
            self.first = [part.data for part, _ in results]
        got = workloads.digest(part.data for part, _ in results)
        ok_frames = 0
        for (part, error), first in zip(results, self.first):
            self.attempted += part.units
            if error is None and part.data != first:
                error = "output differs from the first operation of this run"
            if error is None and self.expected not in (None, got):
                error = f"digest {got} != expected {self.expected}"
            if error is None:
                ok_frames += part.frames
            else:
                self.failed += part.units
                self.errors.append(error)
        return ok_frames


def _speed_probe() -> float:
    return statistics.median(speed.probe() for _ in range(3))


def time_setup(config_path: Path) -> tuple[float, float] | None:
    """Wall and paced seconds from spawning a fresh set-up process to its
    ready line. Probes just before and after it give the machine speed."""
    before = _speed_probe()
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(SETUP_SCRIPT), str(config_path)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith("ready"):
        return None
    k = (before + _speed_probe()) / 2.0
    return elapsed, elapsed * speed.PROBE_REF_S / k


def untraced_run(op, gate, workload, seconds) -> tuple[dict, list[str]]:
    rates, wall_rates = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        with speed.PacedClock() as clock:
            results = op()
        wall = perf_counter() - t0
        ok_frames = gate.judge(results)
        if ok_frames:
            rates.append(ok_frames / clock.paced_s)
            wall_rates.append(ok_frames / clock.wall_s)
        # Stop before an operation that would likely end past the budget;
        # the first one always runs.
        if perf_counter() - start + wall > seconds:
            break
    # Children so far are only those the program started (a process pool);
    # the set-up processes below come after this reading.
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setups = [time_setup(workload.config_path) for _ in range(SETUP_RUNS)]
    problems = [] if None not in setups else ["a set-up process failed"]
    setup_wall, setup_paced = (0.0, 0.0) if problems else map(statistics.median,
                                                               zip(*setups))
    print(f"operations {len(rates)}; unpaced: frames_per_s "
          f"{statistics.median(wall_rates) if wall_rates else 0.0} 1/s, "
          f"setup_s {setup_wall} s")
    metrics = {
        "frames_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "setup_s": (setup_paced, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_ratio": ((gate.attempted - gate.failed) / gate.attempted, "ratio"),
    }
    return metrics, problems


def traced_run(op, gate, modules, trace_path) -> tuple[dict, list[str]]:
    problems = []
    t0 = perf_counter()
    gate.judge(op())
    untraced_wall = perf_counter() - t0

    walls, summaries = [], []
    for _ in range(TRACED_PASSES):
        tracer = spans.Tracer()
        tracer.patch(modules)
        try:
            traced_op = tracer.wrap(spans.ROOT, op)
            t0 = perf_counter()
            results = traced_op()
            walls.append(perf_counter() - t0)
        finally:
            unrestored = tracer.restore()
        gate.judge(results)
        if unrestored:
            problems.append(f"traced functions not restored: {unrestored}")
        summaries.append(tracer.summary())
    tracer.dump(trace_path)

    for summary in summaries:
        gap = summary.self_time_gap()
        if abs(gap) > 1e-6 + 1e-9 * summary.top_s:
            problems.append(f"self times miss the traced wall time by {gap} s")
    metrics = summaries[0].layer_metrics()
    for summary in summaries[1:]:
        again = summary.layer_metrics()
        moved = [name for name, (value, unit) in metrics.items()
                 if spans.is_count(name, unit) and again[name][0] != value]
        if moved:
            problems.append(f"counts differ between traced passes: {moved}")
    metrics["trace.overhead_ratio"] = (statistics.median(walls) / untraced_wall - 1.0,
                                       "ratio")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        modules = import_droptrack()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = workloads.prepare(args.workload, args.seed, work)
        if workload.cells:
            config = modules["pipeline"].config_from_json(workload.config_path)
            op = lambda: sweep_op(modules, workload, config)  # noqa: E731
        else:
            op = lambda: eval_op(modules, workload)  # noqa: E731
        expected = (workloads.EXPECTED_SHA256[args.workload]
                    if args.seed == workloads.DEFAULT_SEED else None)
        gate = Gate(expected)
        if args.trace:
            trace_path = WORK_ROOT / f"spans-{args.workload}-{args.seed}.json"
            metrics, problems = traced_run(op, gate, modules, trace_path)
        else:
            metrics, problems = untraced_run(op, gate, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in (gate.errors + problems)[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    correct = gate.failed == 0 and not problems
    print(f"digest {workloads.digest(gate.first or [])}")
    print(f"fail_ratio {gate.failed / max(1, gate.attempted)} "
          f"({gate.failed} of {gate.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
