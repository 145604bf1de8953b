"""
Tracking through dropped frames
===============================

The tracker runs every frame. On processed frames it associates
detections and updates its Kalman states; on dropped frames it emits
pure constant-velocity predictions and leaves every lifecycle counter
untouched. With noiseless input the velocity estimate becomes exact
after the third update, so predictions across a gap land on the truth.
"""

from droptrack import (FRAME_PERIOD, Detection, OrientedBox, Tracker,
                       TrackerConfig)

config = TrackerConfig(process_noise=0.0, measurement_noise=0.0)
tracker = Tracker(config)

VX = 3.0  # m/s along x, 10 Hz frames -> 0.3 m per frame


def truth_box(frame):
    return OrientedBox(cx=VX * FRAME_PERIOD * frame, cy=0.0, cz=0.75,
                       length=4.5, width=1.8, height=1.5, yaw=0.0)


DROPPED = set(range(4, 9))  # five-frame detection outage

print(f"{'frame':>5} {'mode':<9} {'emitted cx':>10} {'truth cx':>9} "
      f"{'error':>9} hits misses")
for frame in range(13):
    if frame in DROPPED:
        output = tracker.step(None)
        mode = "dropped"
    else:
        output = tracker.step([Detection(box=truth_box(frame), score=1.0)])
        mode = "processed"
    entry = output.entries[0]
    state = tracker.live_tracks()[0]
    err = abs(entry.box.cx - truth_box(frame).cx)
    print(f"{frame:>5} {mode:<9} {entry.box.cx:>10.4f} "
          f"{truth_box(frame).cx:>9.4f} {err:>9.2e} "
          f"{state.hits:>4} {state.consecutive_misses:>6}")

# The id never changed and the gap predictions are exact to rounding.
ids = {e.track_id for e in [output.entries[0]]}
print(f"\ntrack id at the end: {output.entries[0].track_id} "
      f"(provenance {output.entries[0].provenance})")

# Contrast: a processed frame with an empty detection list DOES count
# misses; after enough of them the track is deleted and its id retired.
empty_tracker = Tracker(config)
empty_tracker.step([Detection(box=truth_box(0), score=1.0)])
for frame in range(1, 5):
    out = empty_tracker.step([])
    print(f"processed-but-empty frame {frame}: "
          f"{len(out.entries)} entries, "
          f"{len(empty_tracker.live_tracks())} live tracks")
