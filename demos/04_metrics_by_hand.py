"""
Tracking metrics on a hand-checkable instance
=============================================

Two ground-truth objects over four frames; the tracker output follows
them perfectly but swaps its two ids after frame 1. Small enough that
every number below can be verified with pencil and paper.
"""

from droptrack import (FrameOutput, LabeledObject, OrientedBox, TrackEntry,
                       build_frame_tables, clear_mot, hota)


def box(cx, cy):
    return OrientedBox(cx=cx, cy=cy, cz=1.0, length=2.0, width=2.0,
                       height=2.0, yaw=0.0)


labels = []
outputs = []
for frame in range(4):
    labels += [
        LabeledObject(frame_index=frame, track_id=1, box=box(frame, 0.0)),
        LabeledObject(frame_index=frame, track_id=2, box=box(frame, 10.0)),
    ]
    # Output ids 11/12 swap lanes after frame 1.
    top, bottom = (11, 12) if frame < 2 else (12, 11)
    outputs.append(FrameOutput((
        TrackEntry(track_id=top, box=box(frame, 0.0), score=1.0,
                   provenance="updated"),
        TrackEntry(track_id=bottom, box=box(frame, 10.0), score=1.0,
                   provenance="updated"),
    )))

clear = clear_mot(build_frame_tables(labels, outputs))
print("CLEAR:")
print(f"  TP {clear.tp}, FP {clear.fp}, FN {clear.fn}, "
      f"id switches {clear.id_switches}")
# 8 matches, 2 switches: MOTA = 1 - (0 + 0 + 2)/8 = 75%.
print(f"  MOTA {clear.mota:.2f}%  MOTP {clear.motp:.2f}%")
assert (clear.tp, clear.fp, clear.fn, clear.id_switches) == (8, 0, 0, 2)
assert abs(clear.mota - 75.0) < 1e-9

result = hota(build_frame_tables(labels, outputs))
print("\nHOTA:")
# Every gt id co-occurs with its dominant pred id on 2 of 4 frames:
# association Jaccard 2/(4+4-2) = 1/3 for all matched pairs, so
# AssA = 100/3 and DetA = 100 at every alpha.
print(f"  HOTA {result.hota:.4f}  DetA {result.det_a:.4f}  "
      f"AssA {result.ass_a:.4f}")
print(f"  (100 * sqrt(1/3) = {100 * (1 / 3) ** 0.5:.4f})")

print("\nfirst three alpha rows (alpha, hota, det_a, ass_a):")
for row in result.per_alpha[:3]:
    print("  " + ", ".join(f"{v:.4f}" for v in row))

# The printed numbers are the hand-derived ones, at every alpha.
for alpha, hota_a, det_a, ass_a in result.per_alpha:
    assert det_a == 100.0, alpha
    assert abs(hota_a - 100 * (1 / 3) ** 0.5) < 1e-9, alpha
assert result.det_a == 100.0
assert abs(result.hota - 100 * (1 / 3) ** 0.5) < 1e-9
