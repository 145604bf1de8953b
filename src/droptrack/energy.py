"""Duty-cycle system-draw model and yield.

The draw model has two levels: active during inference, idle otherwise. A
processed frame occupies max(FRAME_PERIOD, inference_time) of wall clock,
so heavy models stretch the frame and dropping frames saves relatively
less for them. A dropped frame occupies one idle FRAME_PERIOD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schedule import FRAME_PERIOD


@dataclass(frozen=True)
class EnergyParams:
    idle_draw: float
    active_draw: float
    inference_time: float

    def __post_init__(self):
        # Every check is written so that NaN fails it.
        if not 0.0 <= self.idle_draw <= self.active_draw < math.inf:
            raise ValueError("need 0 <= idle_draw <= active_draw < inf")
        if not 0.0 < self.inference_time < math.inf:
            raise ValueError("inference_time must be positive and finite")


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
        slot = max(FRAME_PERIOD, params.inference_time)
        energy = params.active_draw * params.inference_time \
            + params.idle_draw * max(0.0, FRAME_PERIOD - params.inference_time)
        return energy, slot
    return params.idle_draw * FRAME_PERIOD, FRAME_PERIOD


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
