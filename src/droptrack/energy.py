"""Duty-cycle system-draw model, power-log summarization, and yield.

The draw model has two levels: active during inference, idle otherwise.
A processed frame occupies max(cycle_time, inference_time) of wall clock,
so heavy models stretch the cycle and dropping frames saves relatively
less for them. A dropped frame occupies exactly one idle cycle.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass

from .tracker import _pairwise_sum


@dataclass(frozen=True)
class EnergyParams:
    idle_draw: float
    active_draw: float
    inference_time: float
    cycle_time: float = 0.1

    def __post_init__(self):
        # Every check is written so that NaN fails it.
        if not 0.0 <= self.idle_draw <= self.active_draw < math.inf:
            raise ValueError("need 0 <= idle_draw <= active_draw < inf")
        for name in ("inference_time", "cycle_time"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


# Documentation fixtures for the four detector-class presets used in the
# demos; calibrated against published full-rate draw levels, not measured.
ENERGY_PRESETS: dict[str, EnergyParams] = {
    "point_rcnn": EnergyParams(idle_draw=145.0, active_draw=304.0,
                               inference_time=0.13),
    "pv_rcnn": EnergyParams(idle_draw=145.0, active_draw=314.0,
                            inference_time=0.15),
    "second": EnergyParams(idle_draw=145.0, active_draw=395.0,
                           inference_time=0.05),
    "pointpillars": EnergyParams(idle_draw=145.0, active_draw=315.0,
                                 inference_time=0.04),
}


def frame_energy_and_time(params: EnergyParams, is_processed: bool) -> tuple[float, float]:
    """(joules, seconds) one frame contributes to the run."""
    if is_processed:
        slot = max(params.cycle_time, params.inference_time)
        energy = params.active_draw * params.inference_time \
            + params.idle_draw * max(0.0, params.cycle_time - params.inference_time)
        return energy, slot
    return params.idle_draw * params.cycle_time, params.cycle_time


def estimate_draw_multi(params: EnergyParams,
                        schedules: list[tuple[bool, ...]]) -> float:
    """Average system draw in watts over the wall clock of the schedules
    (each a sequence's processed flags), run back to back.

    Always within [idle_draw, active_draw]; the division can round a hair
    outside the mathematical sandwich, so the result is clamped.
    """
    if not schedules:
        raise ValueError("need at least one schedule")
    e_proc, t_proc = frame_energy_and_time(params, True)
    e_drop, t_drop = frame_energy_and_time(params, False)
    energy = 0.0
    duration = 0.0
    for flags in schedules:
        n_proc = sum(flags)
        n_drop = len(flags) - n_proc
        energy += n_proc * e_proc + n_drop * e_drop
        duration += n_proc * t_proc + n_drop * t_drop
    return min(max(energy / duration, params.idle_draw), params.active_draw)


@dataclass(frozen=True)
class PowerLog:
    """Power samples in watts and their times in seconds, in log order."""
    samples: tuple[float, ...]
    timestamps: tuple[float, ...]

    def __post_init__(self):
        # Every check is written so that NaN fails it.
        if not self.samples:
            raise ValueError("power log must be nonempty")
        if len(self.timestamps) != len(self.samples):
            raise ValueError("need one timestamp per power sample")
        if not all(0.0 <= s < math.inf for s in self.samples):
            raise ValueError("power samples must be nonnegative and finite")
        if not all(-math.inf < b < math.inf and a <= b for a, b
                   in zip((-math.inf,) + self.timestamps, self.timestamps)):
            raise ValueError("timestamps must be finite and nondecreasing")


def summarize_power_log(log: PowerLog) -> float:
    """Median of 1-second window means.

    Window k holds the samples with floor(timestamp_s) == k: a second with
    no sample has no window, and a partial window at either end is
    averaged over its own samples. The median shrugs off short spikes.
    Bit for bit numpy's `median` of the windows' `mean`s.
    """
    windows: dict[int, list[float]] = {}
    for t, watts in zip(log.timestamps, log.samples):
        windows.setdefault(math.floor(t), []).append(watts)
    return statistics.median(_pairwise_sum(w) / len(w)
                             for w in windows.values())


def read_power_log_csv(path) -> PowerLog:
    """Load `timestamp_s,watts` rows under a header naming each once: no
    row longer than it, finite numbers, no watts below 0 and no timestamp
    below the one before; else a ValueError naming path:line."""
    watts, times = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if not {"timestamp_s", "watts"} <= set(header):
            raise ValueError(f"{path}: expected header with 'timestamp_s' "
                             f"and 'watts' columns")
        for key in ("timestamp_s", "watts"):
            if header.count(key) > 1:
                raise ValueError(f"{path}:{reader.line_num}: header names "
                                 f"{key!r} twice")
        for row in reader:
            if None in row:  # DictReader's key for fields past the header
                raise ValueError(f"{path}:{reader.line_num}: more fields "
                                 f"than the header's {len(header)}")
            for key in ("timestamp_s", "watts"):
                try:
                    number = float(row[key])
                except (TypeError, ValueError):
                    number = math.nan
                if not math.isfinite(number):
                    raise ValueError(f"{path}:{reader.line_num}: bad {key} "
                                     f"value {row[key]!r}")
                row[key] = number
            if row["watts"] < 0.0:
                raise ValueError(f"{path}:{reader.line_num}: watts "
                                 f"{row['watts']} is below 0")
            if times and row["timestamp_s"] < times[-1]:
                raise ValueError(f"{path}:{reader.line_num}: timestamp_s "
                                 f"{row['timestamp_s']} is below {times[-1]}")
            times.append(row["timestamp_s"])
            watts.append(row["watts"])
    return PowerLog(samples=tuple(watts), timestamps=tuple(times))


def yield_metric(baseline: tuple[float, float],
                 variant: tuple[float, float]) -> float | None:
    """Watts saved per HOTA point given (draw, hota) pairs; None when the
    two HOTA values are equal.

    The baseline is the same variant's full-rate row by construction of
    the caller.
    """
    baseline_draw, baseline_hota = baseline
    variant_draw, variant_hota = variant
    if baseline_hota == variant_hota:
        return None
    return (baseline_draw - variant_draw) / (baseline_hota - variant_hota)
