"""Duty-cycle system-draw model, power-log summarization, and yield.

The draw model has two levels: active during inference, idle otherwise.
A processed frame occupies max(cycle_time, inference_time) of wall clock,
so heavy models stretch the cycle and dropping frames saves relatively
less for them. A dropped frame occupies exactly one idle cycle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .schedule import Schedule, processed_count


@dataclass(frozen=True)
class EnergyParams:
    idle_draw: float
    active_draw: float
    inference_time: float
    cycle_time: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.idle_draw <= self.active_draw:
            raise ValueError("need 0 <= idle_draw <= active_draw")
        if self.inference_time <= 0.0:
            raise ValueError("inference_time must be positive")
        if self.cycle_time <= 0.0:
            raise ValueError("cycle_time must be positive")


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


def estimate_draw(params: EnergyParams, schedule: Schedule) -> float:
    """Average system draw in watts over the schedule's wall clock."""
    return estimate_draw_multi(params, [schedule])


def estimate_draw_multi(params: EnergyParams,
                        schedules: list[Schedule]) -> float:
    """Pooled average draw over several sequences run back to back.

    Always within [idle_draw, active_draw]; the division can round a hair
    outside the mathematical sandwich, so the result is clamped.
    """
    if not schedules:
        raise ValueError("need at least one schedule")
    e_proc, t_proc = frame_energy_and_time(params, True)
    e_drop, t_drop = frame_energy_and_time(params, False)
    energy = 0.0
    duration = 0.0
    for schedule in schedules:
        n_proc = processed_count(schedule)
        n_drop = schedule.sequence_length - n_proc
        energy += n_proc * e_proc + n_drop * e_drop
        duration += n_proc * t_proc + n_drop * t_drop
    return min(max(energy / duration, params.idle_draw), params.active_draw)


@dataclass(frozen=True)
class PowerLog:
    samples: tuple[float, ...]
    sample_rate: float

    def __post_init__(self):
        if not self.samples:
            raise ValueError("power log must be nonempty")
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be positive")
        if any(s < 0.0 for s in self.samples):
            raise ValueError("power samples must be nonnegative")


def summarize_power_log(log: PowerLog) -> float:
    """Median of 1-second window averages.

    The median makes the summary robust to short spikes; a trailing
    partial window is averaged over its own length.
    """
    window = max(1, int(round(log.sample_rate)))
    samples = np.asarray(log.samples, dtype=float)
    means = [float(samples[start:start + window].mean())
             for start in range(0, len(samples), window)]
    return float(np.median(means))


def read_power_log_csv(path, sample_rate: float = 100.0) -> PowerLog:
    """Load `timestamp_s,watts` rows (header required)."""
    watts = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "watts" not in reader.fieldnames:
            raise ValueError(f"{path}: expected header with a 'watts' column")
        for row in reader:
            try:
                watts.append(float(row["watts"]))
            except (TypeError, ValueError):
                raise ValueError(f"{path}:{reader.line_num}: bad watts value "
                                 f"{row['watts']!r}") from None
    return PowerLog(samples=tuple(watts), sample_rate=sample_rate)


class UndefinedYieldError(ValueError):
    """Raised when baseline and variant HOTA coincide (zero denominator)."""


@dataclass(frozen=True)
class YieldRecord:
    baseline_draw: float
    variant_draw: float
    baseline_hota: float
    variant_hota: float
    yield_value: float


def yield_metric(baseline: tuple[float, float],
                 variant: tuple[float, float]) -> YieldRecord:
    """Watts saved per HOTA point given (draw, hota) pairs.

    The baseline is the same variant's full-rate row by construction of
    the caller.
    """
    baseline_draw, baseline_hota = baseline
    variant_draw, variant_hota = variant
    if baseline_hota == variant_hota:
        raise UndefinedYieldError(
            "yield undefined: baseline and variant HOTA are equal")
    value = (baseline_draw - variant_draw) / (baseline_hota - variant_hota)
    return YieldRecord(baseline_draw=baseline_draw, variant_draw=variant_draw,
                       baseline_hota=baseline_hota, variant_hota=variant_hota,
                       yield_value=value)
