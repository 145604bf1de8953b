"""
Duty-cycle energy model and yield
=================================

System draw is modeled per 100 ms frame slot: a processed frame burns
active watts for the inference time and idles for the rest of the slot;
a dropped frame idles the whole slot. Heavy models whose inference
exceeds the cycle time stretch their slot instead of overlapping work.
"""

from droptrack import (ENERGY_PRESETS, DropPattern, EnergyParams,
                       build_schedule, estimate_draw_multi, yield_metric)

LENGTH = 1000
TARGETS = [(100, DropPattern(1, 1)), (90, DropPattern(9, 10)),
           (75, DropPattern(3, 4)), (50, DropPattern(1, 2)),
           (25, DropPattern(1, 4)), (10, DropPattern(1, 10))]

print(f"{'model':<14}" + "".join(f"{t:>8}%" for t, _ in TARGETS))
for name, params in sorted(ENERGY_PRESETS.items()):
    draws = [estimate_draw_multi(params, [build_schedule(p, LENGTH)])
             for _, p in TARGETS]
    print(f"{name:<14}" + "".join(f"{d:>9.1f}" for d in draws))

# Stretching: with inference at 150 ms the processed slot grows to
# 150 ms, so dropping frames saves relatively less wall-clock idle time.
heavy = EnergyParams(idle_draw=145.0, active_draw=314.0, inference_time=0.15)
light = EnergyParams(idle_draw=145.0, active_draw=395.0, inference_time=0.05)
for tag, params in (("stretching 150ms", heavy), ("within-cycle 50ms", light)):
    full, half = (estimate_draw_multi(params, [build_schedule(p, LENGTH)])
                  for p in (DropPattern(1, 1), DropPattern(1, 2)))
    print(f"{tag}: {full:.1f} W -> {half:.1f} W at 50% "
          f"({100 * (full - half) / full:.1f}% saved)")

# Yield: watts saved per point of tracking quality given up, always
# against the same model's own full-rate row. Example numbers from a
# published measurement of the SECOND detector at 50%: draw fell from
# 270 W to 194 W while HOTA fell from 77.1 to 72.0.
baseline, variant = (270.0, 77.1), (194.0, 72.0)
print(f"\nyield example: ({baseline[0]:.0f} - {variant[0]:.0f}) / "
      f"({baseline[1]:.1f} - {variant[1]:.1f}) = "
      f"{yield_metric(baseline, variant):.2f} W per point")
