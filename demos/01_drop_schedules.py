"""
Frame-drop schedules
====================

A drop pattern n/m processes the first n frames of every m-frame block
and drops the rest. This script walks through building schedules (one
processed flag per frame), counting processed frames, and the mismatch
between the nominal target and what a finite sequence actually achieves.
"""

from droptrack import TARGET_PATTERNS, DropPattern, build_schedule, parse_pattern

# The six named targets map onto fixed patterns.
print("named targets:")
for target, (n, m) in sorted(TARGET_PATTERNS.items(), reverse=True):
    print(f"  {target:>3}% -> {n}/{m}")


def unrolled(flags):
    """The schedule frame by frame: P for processed, . for dropped."""
    return "".join("P" if processed else "." for processed in flags)


# A schedule is its processed flags, one per frame of the sequence.
pattern = parse_pattern("3/4")
flags = build_schedule(pattern, 12)
print(f"\n3/4 over 12 frames: {unrolled(flags)}")
print(f"processed {sum(flags)} of {len(flags)}")

# Frame counts rarely divide evenly by m, so the effective percentage
# drifts from the nominal one. The count is the sum of the flags, which
# is floor(L/m)*n + min(L mod m, n): each full block gives n, and the
# partial block at the end gives its first min(L mod m, n) frames.
for length in (20, 21, 99, 1059):
    flags = build_schedule(DropPattern(9, 10), length)
    count = sum(flags)
    assert count == (length // 10) * 9 + min(length % 10, 9)
    print(f"9/10 over {length:>4} frames: {count:>4} processed, "
          f"effective {100.0 * count / length:.2f}%")
