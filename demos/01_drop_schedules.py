"""
Frame-drop schedules
====================

A drop pattern n/m processes the first n frames of every m-frame block
and drops the rest. This script walks through building schedules,
counting processed frames, and the mismatch between the nominal target
and what a finite sequence actually achieves.
"""

from droptrack import (TARGET_PATTERNS, DropPattern, build_schedule,
                       effective_target, parse_pattern, processed_count)

# The six named targets map onto fixed patterns.
print("named targets:")
for target, (n, m) in sorted(TARGET_PATTERNS.items(), reverse=True):
    print(f"  {target:>3}% -> {n}/{m}")


def unrolled(schedule):
    """The schedule frame by frame: P for processed, . for dropped."""
    return "".join("P" if schedule.is_processed(i) else "."
                   for i in range(schedule.sequence_length))


# A schedule is just a pattern and a sequence length.
pattern = parse_pattern("3/4")
schedule = build_schedule(pattern, 12)
print(f"\n3/4 over 12 frames: {unrolled(schedule)}")
print(f"processed {processed_count(schedule)} of {schedule.sequence_length}")

# Frame counts rarely divide evenly by m, so the effective percentage
# drifts from the nominal one. The count needs no unrolling:
# floor(L/m)*n + min(L mod m, n), the number of P frames.
for length in (20, 21, 99, 1059):
    sched = build_schedule(DropPattern(9, 10), length)
    count = processed_count(sched)
    assert count == unrolled(sched).count("P")
    print(f"9/10 over {length:>4} frames: {count:>4} processed, "
          f"effective {effective_target(sched):.2f}%")
