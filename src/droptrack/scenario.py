"""Bundled synthetic reference scenario.

Seven constant-velocity cars over 200 frames `FRAME_PERIOD` apart: four
present from frame 0, three entering mid-sequence, one lateral mover whose
path crosses the lanes (timed so no two ground-truth boxes ever overlap).
Entry frames are chosen so that each coarser drop pattern delays at least
one track birth a little longer, which makes the performance-vs-target
curve strictly ordered instead of relying on ties.

The scenario is the dataset for acceptance runs: no external data needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import LabeledObject, OrientedBox
from .kitti_io import SequenceData
from .schedule import FRAME_PERIOD

FRAME_COUNT = 200

# KITTI tracking validation-split lengths, used as a scheduler fixture for
# comparing per-target processed-frame totals against published counts.
KITTI_VAL_SEQUENCE_LENGTHS: dict[str, int] = {
    "0001": 447, "0006": 270, "0008": 390, "0010": 294, "0012": 78,
    "0013": 340, "0014": 106, "0015": 376, "0016": 209, "0018": 339,
    "0019": 1059,
}


@dataclass(frozen=True)
class ReferenceCar:
    track_id: int
    first_frame: int
    last_frame: int
    x0: float
    y0: float
    vx: float
    vy: float
    yaw: float
    length: float
    width: float
    height: float

    def box_at(self, frame_index: int) -> OrientedBox:
        t = (frame_index - self.first_frame) * FRAME_PERIOD
        return OrientedBox(cx=self.x0 + self.vx * t, cy=self.y0 + self.vy * t,
                           cz=self.height / 2.0, length=self.length,
                           width=self.width, height=self.height, yaw=self.yaw)


REFERENCE_CARS: tuple[ReferenceCar, ...] = (
    ReferenceCar(1, 0, 199, 0.0, 0.0, 3.0, 0.0, 0.0, 4.5, 1.8, 1.5),
    ReferenceCar(2, 0, 199, 60.0, 4.0, -2.7, 0.0, math.pi, 4.6, 1.8, 1.5),
    # Crosses every lane at x = -2, west of where the lane traffic sits
    # while it passes; ground-truth boxes must never overlap.
    ReferenceCar(3, 0, 199, -2.0, -20.0, 0.0, 2.5, math.pi / 2.0, 4.5, 1.8, 1.5),
    ReferenceCar(4, 0, 199, 2.0, 8.2, 2.8, 0.0, 0.0, 4.4, 1.8, 1.5),
    ReferenceCar(5, 41, 170, 50.0, -6.0, -2.6, 0.0, math.pi, 4.5, 1.8, 1.5),
    ReferenceCar(6, 63, 199, -8.0, 12.0, 3.2, 0.0, 0.0, 4.7, 1.9, 1.5),
    ReferenceCar(7, 59, 185, 70.0, -2.0, -3.0, 0.0, math.pi, 4.5, 1.8, 1.5),
)


def reference_scenario() -> SequenceData:
    labels = []
    for car in REFERENCE_CARS:
        for frame in range(car.first_frame, car.last_frame + 1):
            labels.append(LabeledObject(frame_index=frame,
                                        track_id=car.track_id,
                                        box=car.box_at(frame)))
    labels.sort(key=lambda lab: (lab.frame_index, lab.track_id))
    return SequenceData(sequence_id="reference", frame_count=FRAME_COUNT,
                        labels=tuple(labels))
