"""
Frame-drop schedules
====================

A drop pattern n/m processes the first n frames of every m-frame block
and drops the rest. This script walks through building schedules,
counting processed frames, and the mismatch between the nominal target
and what a finite sequence actually achieves.
"""

from droptrack import (TARGET_PATTERNS, DropPattern, build_schedule,
                       effective_target, parse_pattern, processed_count,
                       processed_count_closed_form, trigger_next)

# The six named targets map onto fixed patterns.
print("named targets:")
for target, (n, m) in sorted(TARGET_PATTERNS.items(), reverse=True):
    print(f"  {target:>3}% -> {n}/{m}")

# A schedule is just the pattern unrolled over a sequence length.
pattern = parse_pattern("3/4")
schedule = build_schedule(pattern, 12)
flags = "".join("P" if f else "." for f in schedule.flags)
print(f"\n3/4 over 12 frames: {flags}")
print(f"processed {processed_count(schedule)} of {schedule.sequence_length}")

# Frame counts rarely divide evenly by m, so the effective percentage
# drifts from the nominal one. The closed form needs no unrolling:
# floor(L/m)*n + min(L mod m, n).
for length in (20, 21, 99, 1059):
    sched = build_schedule(DropPattern(9, 10), length)
    closed = processed_count_closed_form(DropPattern(9, 10), length)
    assert processed_count(sched) == closed
    print(f"9/10 over {length:>4} frames: {closed:>4} processed, "
          f"effective {effective_target(sched):.2f}%")

# A schedule can be re-armed on demand: trigger_next(schedule, i) forces
# frame i + 1 to run detection (and changes nothing if it already does).
sched = build_schedule(DropPattern(1, 4), 12)
before = "".join("P" if f else "." for f in sched.flags)
sched = trigger_next(sched, 5)
after = "".join("P" if f else "." for f in sched.flags)
print(f"\ntrigger at frame 5: {before} -> {after}")
