"""Deterministic frame-drop schedules.

A schedule marks which frames of a sequence get a detector pass.
Patterns are "process n out of every m consecutive frames"; within each
block of m the first n indices are processed, so frame 0 is always
processed and a tracker can initialize. A schedule is its processed
flags, one per frame, so a count of processed frames is a sum of flags.
Frames are `FRAME_PERIOD` apart, processed or dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

FRAME_PERIOD = 0.1  # seconds: KITTI's LiDAR, and so its labels, run at 10 Hz

# Named processing targets and the n/m pattern each one stands for.
TARGET_PATTERNS: dict[int, tuple[int, int]] = {
    100: (1, 1),
    90: (9, 10),
    75: (3, 4),
    50: (1, 2),
    25: (1, 4),
    10: (1, 10),
}


@dataclass(frozen=True)
class DropPattern:
    """Process `n` out of every `m` consecutive frames."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.n > self.m:
            raise ValueError("pattern requires 1 <= n <= m")

    def __str__(self) -> str:
        return f"{self.n}/{self.m}"


def parse_pattern(text: str) -> DropPattern:
    """Parse "n/m" strings or named targets like "75" into a DropPattern.
    A bad text raises ValueError giving the reason, without the text."""
    left, slash, right = text.strip().partition("/")
    try:
        n_m = (int(left), int(right)) if slash else TARGET_PATTERNS[int(left)]
    except ValueError:
        raise ValueError("expected 'n/m' or a named target") from None
    except KeyError:
        known = ", ".join(str(t) for t in TARGET_PATTERNS)
        raise ValueError(f"unknown target; named targets are {known}") \
            from None
    return DropPattern(*n_m)


def build_schedule(pattern: DropPattern, sequence_length: int) -> tuple[bool, ...]:
    """The processed flags of `pattern` over `sequence_length` frames:
    frame i gets a detector pass iff (i mod m) < n."""
    if sequence_length < 1:
        raise ValueError("sequence_length must be positive")
    return tuple(i % pattern.m < pattern.n for i in range(sequence_length))
