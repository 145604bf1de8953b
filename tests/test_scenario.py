"""The built-in constant-velocity scenario and the sequence-length fixture."""

import itertools

import pytest

from droptrack.geometry import iou_3d
from droptrack.kitti_io import SequenceData
from droptrack.scenario import (
    FRAME_COUNT,
    KITTI_VAL_SEQUENCE_LENGTHS,
    REFERENCE_CARS,
    reference_scenario,
)
from droptrack.schedule import FRAME_PERIOD


class TestReferenceScenario:
    def test_shape(self):
        seq = reference_scenario()
        assert isinstance(seq, SequenceData)
        assert seq.sequence_id == "reference"
        assert seq.frame_count == FRAME_COUNT == 200
        expected = sum(car.last_frame - car.first_frame + 1
                       for car in REFERENCE_CARS)
        assert len(seq.labels) == expected == 1194

    def test_labels_sorted_and_within_bounds(self):
        seq = reference_scenario()
        keys = [(lab.frame_index, lab.track_id) for lab in seq.labels]
        assert keys == sorted(keys)
        assert all(0 <= lab.frame_index < FRAME_COUNT for lab in seq.labels)

    def test_constant_velocity_motion(self):
        car = REFERENCE_CARS[0]
        b0 = car.box_at(0)
        b10 = car.box_at(10)
        assert b10.cx - b0.cx == pytest.approx(car.vx * 10 * FRAME_PERIOD)
        assert b10.cy - b0.cy == pytest.approx(car.vy * 10 * FRAME_PERIOD)
        assert b10.yaw == b0.yaw
        assert (b10.length, b10.width, b10.height) \
            == (b0.length, b0.width, b0.height)

    def test_no_ground_truth_overlap_anywhere(self):
        # Metric correctness arguments assume gt boxes never collide, so
        # every same-frame pair must have exactly zero 3D IoU.
        seq = reference_scenario()
        worst = 0.0
        for frame_labels in seq.labels_by_frame():
            for a, b in itertools.combinations(frame_labels, 2):
                worst = max(worst, iou_3d(a.box, b.box))
        assert worst == 0.0

    def test_entry_frames_stagger_birth_penalties(self):
        spans = {car.track_id: (car.first_frame, car.last_frame)
                 for car in REFERENCE_CARS}
        assert spans[5] == (41, 170)
        assert spans[6] == (63, 199)
        assert spans[7] == (59, 185)
        assert all(first == 0 for tid, (first, _) in spans.items()
                   if tid <= 4)

    def test_every_frame_has_ground_truth(self):
        seq = reference_scenario()
        assert all(len(rows) >= 4 for rows in seq.labels_by_frame())


class TestSequenceLengthFixture:
    def test_eleven_validation_sequences(self):
        assert len(KITTI_VAL_SEQUENCE_LENGTHS) == 11
        assert KITTI_VAL_SEQUENCE_LENGTHS["0012"] == 78
        assert KITTI_VAL_SEQUENCE_LENGTHS["0019"] == 1059

    def test_total_frames(self):
        assert sum(KITTI_VAL_SEQUENCE_LENGTHS.values()) == 3908

    def test_all_positive(self):
        assert all(v > 0 for v in KITTI_VAL_SEQUENCE_LENGTHS.values())
