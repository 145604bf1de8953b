"""Span tracer for the benchmark's traced pass.

The program calls its layers through module globals (and through the
class, for ``Tracker.step``), so replacing those attributes for the length
of a pass puts a span around every call without touching the program.
Spans are kept per thread in memory and written out at the end. A span's
self time is its duration minus the time covered by its child spans.

``footprint_intersection_area`` runs about a million times per pass, so
it is not kept as individual spans: each call only adds to its caller's
child time and to per-caller counters.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (droptrack module, attribute) of every call boundary the traced pass
# records.
TRACED = (
    ("pipeline", "run_once"), ("pipeline", "load_sequences"),
    ("pipeline", "gt_detect"), ("pipeline", "noisy_detect"),
    ("pipeline", "hota_pooled"), ("pipeline", "clear_pooled"),
    ("pipeline", "estimate_draw_multi"), ("pipeline", "build_schedule"),
    ("pipeline", "write_report"),
    ("tracker", "predict"), ("tracker", "associate"), ("tracker", "update"),
    ("tracker", "Tracker.step"),
    ("metrics", "build_frame_tables"),
    ("cli", "main"), ("cli", "hota"), ("cli", "clear_mot"),
    ("cli", "parse_kitti_labels"), ("cli", "read_frame_outputs"),
)
OVERLAP = ("geometry", "footprint_intersection_area")
ROOT = "bench.op"

# Work counts taken from a traced call's result.
_RESULT_COUNTS = {
    "metrics.build_frame_tables": ("metrics.pairs",
                                   lambda tables: sum(t.sim.size for t in tables)),
    "pipeline.gt_detect": ("detectors.boxes_out", len),
    "pipeline.noisy_detect": ("detectors.boxes_out", len),
    "pipeline.load_sequences": ("kitti_io.label_rows",
                                lambda seqs: sum(len(s.labels) for s in seqs)),
    "cli.parse_kitti_labels": ("kitti_io.label_rows", lambda seq: len(seq.labels)),
    "cli.read_frame_outputs": ("kitti_io.output_rows",
                               lambda outs: sum(len(o.entries) for o in outs)),
}

# Geometry calls are attributed to the nearest enclosing span of one of
# these modules.
_CALLER_MODULES = ("tracker", "metrics")


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # [child seconds, caller module, span id]
        self.spans: list[tuple] = []  # (name, start, end, id, parent id)
        self.started = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.overlap: dict = {}  # caller module -> [calls, seconds, nonzero]
        self.top_s = 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState()
                self._states.append(state)
            self._local.state = state
            return state

    def wrap(self, name: str, fn):
        count = _RESULT_COUNTS.get(name)
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            caller = module if module in _CALLER_MODULES else (parent and parent[1])
            frame = [0.0, caller, state.started]
            state.started += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is None:
                    state.top_s += duration
                else:
                    parent[0] += duration
                state.calls[name] += 1
                state.self_s[name] += duration - frame[0]
                state.spans.append((name, start, end, frame[2],
                                    parent[2] if parent else -1))
            if count is not None:
                state.counts[count[0]] += count[1](result)
            return result
        return traced

    def wrap_overlap(self, fn):
        local = self._local

        @functools.wraps(fn)
        def traced(a, b):
            try:
                state = local.state
            except AttributeError:
                state = self._state()
            start = perf_counter()
            area = fn(a, b)
            duration = perf_counter() - start
            if state.stack:
                frame = state.stack[-1]
                frame[0] += duration
                caller = frame[1]
            else:
                state.top_s += duration
                caller = None
            stats = state.overlap.get(caller)
            if stats is None:
                stats = state.overlap[caller] = [0, 0.0, 0]
            stats[0] += 1
            stats[1] += duration
            if area > 0.0:
                stats[2] += 1
            return area
        return traced

    def patch(self, modules: dict) -> None:
        """Replace every traced attribute; `restore` puts them back."""
        targets = [(name, path, False) for name, path in TRACED] + [(*OVERLAP, True)]
        for module, path, is_overlap in targets:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._patched.append((owner, attr, fn, f"{module}.{path}"))
            setattr(owner, attr, self.wrap_overlap(fn) if is_overlap
                    else self.wrap(f"{module}.{path}", fn))

    def restore(self) -> list[str]:
        """Put the original attributes back; returns any left replaced."""
        for owner, attr, fn, _ in reversed(self._patched):
            setattr(owner, attr, fn)
        return [name for owner, attr, fn, name in self._patched
                if getattr(owner, attr) is not fn]

    def dump(self, path) -> None:
        """Write every kept span, one list per thread."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "id", "parent"],
                       "threads": [state.spans for state in self._states]}, fh)

    def summary(self) -> "Summary":
        return Summary(self._states)


class Summary:
    """Spans and counters of one traced pass, merged over threads."""

    def __init__(self, states: list[_ThreadState]):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        self.overlap: dict = defaultdict(lambda: [0, 0.0, 0])
        self.top_s = 0.0
        self.remainder_s = _uncovered(states)
        for state in states:
            self.calls.update(state.calls)
            self.counts.update(state.counts)
            self.top_s += state.top_s
            for name, seconds in state.self_s.items():
                self.self_s[name] += seconds
            for name, start, end, _, _ in state.spans:
                self.total_s[name] += end - start
                self.durations[name].append(end - start)
            for caller, stats in state.overlap.items():
                merged = self.overlap[caller]
                for i, value in enumerate(stats):
                    merged[i] += value

    def self_time_gap(self) -> float:
        """Sum of all self times minus the time of the outermost spans.

        Zero up to rounding when every span closed inside its parent.
        """
        overlap_s = sum(stats[1] for stats in self.overlap.values())
        return sum(self.self_s.values()) + overlap_s - self.top_s

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The benchmark's per-layer metrics as name -> (value, unit)."""
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        out: dict[str, tuple[float, str]] = {}

        total = [sum(stats[i] for stats in self.overlap.values()) for i in range(3)]
        for suffix, (n, seconds, hits) in [("", total)] + [
                (f".{caller}", self.overlap.get(caller, (0, 0.0, 0)))
                for caller in _CALLER_MODULES]:
            out[f"geometry.overlap_calls{suffix}"] = (n, "count")
            out[f"geometry.overlap_s{suffix}"] = (seconds, "s")
            out[f"geometry.overlap_hit_ratio{suffix}"] = (hits / n if n else 0.0, "ratio")

        out["metrics.tables_calls"] = (calls["metrics.build_frame_tables"], "count")
        out["metrics.tables_s"] = (total_s["metrics.build_frame_tables"], "s")
        out["metrics.pairs"] = (self.counts["metrics.pairs"], "count")
        out["metrics.hota_s"] = (self_s["pipeline.hota_pooled"] + self_s["cli.hota"], "s")
        out["metrics.clear_s"] = (self_s["pipeline.clear_pooled"]
                                  + self_s["cli.clear_mot"], "s")

        steps = self.durations["tracker.Tracker.step"]
        out["tracker.steps"] = (calls["tracker.Tracker.step"], "count")
        out["tracker.step_us_p50"] = (1e6 * _quantile(steps, 0.50), "us")
        out["tracker.step_us_p99"] = (1e6 * _quantile(steps, 0.99), "us")
        for op in ("predict", "associate", "update"):
            out[f"tracker.{op}_calls"] = (calls[f"tracker.{op}"], "count")
            out[f"tracker.{op}_s"] = (total_s[f"tracker.{op}"], "s")

        cells = self.durations["pipeline.run_once"]
        out["pipeline.cells"] = (calls["pipeline.run_once"], "count")
        out["pipeline.cell_s_p50"] = (_quantile(cells, 0.50), "s")
        out["pipeline.cell_s_max"] = (max(cells, default=0.0), "s")
        out["pipeline.self_s"] = (self_s["pipeline.run_once"], "s")
        out["pipeline.report_s"] = (total_s["pipeline.write_report"], "s")

        out["detectors.calls"] = (calls["pipeline.gt_detect"]
                                  + calls["pipeline.noisy_detect"], "count")
        out["detectors.boxes_out"] = (self.counts["detectors.boxes_out"], "count")
        out["detectors.self_s"] = (self_s["pipeline.gt_detect"]
                                   + self_s["pipeline.noisy_detect"], "s")

        out["kitti_io.labels_s"] = (total_s["pipeline.load_sequences"]
                                    + total_s["cli.parse_kitti_labels"], "s")
        out["kitti_io.label_rows"] = (self.counts["kitti_io.label_rows"], "count")
        out["kitti_io.outputs_s"] = (total_s["cli.read_frame_outputs"], "s")
        out["kitti_io.output_rows"] = (self.counts["kitti_io.output_rows"], "count")

        out["schedule.s"] = (total_s["pipeline.build_schedule"], "s")
        out["energy.s"] = (total_s["pipeline.estimate_draw_multi"], "s")
        out["cli.self_s"] = (self_s["cli.main"], "s")
        out["trace.remainder_s"] = (self.remainder_s, "s")
        return out


def _uncovered(states: list[_ThreadState]) -> float:
    """Time inside ROOT spans that no traced call on any thread covers.

    Worker-thread spans run concurrently, so the covered part is the union
    of the intervals of ROOT's children on every thread.
    """
    roots, children = [], []
    for state in states:
        root_ids = {span[3] for span in state.spans if span[0] == ROOT}
        roots += [span[1:3] for span in state.spans if span[0] == ROOT]
        children += [span[1:3] for span in state.spans
                     if span[0] != ROOT and (span[4] == -1 or span[4] in root_ids)]
    uncovered = 0.0
    for root_start, root_end in roots:
        reached = root_start
        for start, end in sorted(children):
            start, end = max(start, reached), min(end, root_end)
            if end > start:
                uncovered += start - reached
                reached = end
        uncovered += root_end - reached
    return uncovered


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the median for q = 0.5); 0.0 for no samples."""
    if not values:
        return 0.0
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def is_count(name: str, unit: str) -> bool:
    """Per-layer metrics that must repeat exactly between passes of a seed."""
    return unit == "count" or name.startswith("geometry.overlap_hit_ratio")
