"""Synthetic detectors: identity behavior, noise statistics, reproducibility."""

import math

import numpy as np
import pytest

from droptrack.detectors import (
    NoiseProfile,
    SceneContext,
    gt_detect,
    noisy_detect,
    scene_context,
)
from droptrack.geometry import LabeledObject, OrientedBox, iou_3d


def make_label(track_id=1, frame_index=0, cx=0.0, cy=0.0):
    box = OrientedBox(cx=cx, cy=cy, cz=0.75, length=4.2, width=1.8,
                      height=1.5, yaw=0.3)
    return LabeledObject(frame_index=frame_index, track_id=track_id, box=box)


class TestGtDetect:
    def test_empty_frame(self):
        assert gt_detect([]) == []

    def test_identity_copies(self):
        labels = [make_label(track_id=i, cx=5.0 * i) for i in range(1, 4)]
        dets = gt_detect(labels)
        assert len(dets) == 3
        for lab, det in zip(labels, dets):
            assert det.box == lab.box
            assert det.score == 1.0
            # Rotated self-clipping is exact only up to rounding.
            assert iou_3d(det.box, lab.box) > 1.0 - 1e-9


class TestNoiseProfileValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            NoiseProfile(detection_probability=1.5)
        with pytest.raises(ValueError):
            NoiseProfile(detection_probability=-0.1)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            NoiseProfile(false_positives_per_frame=-1.0)
        with pytest.raises(ValueError):
            NoiseProfile(center_sigma=-0.5)

    @pytest.mark.parametrize("field,value", [
        ("center_sigma", math.nan), ("yaw_sigma", math.inf),
        ("false_positives_per_frame", math.nan),
        ("false_positives_per_frame", math.inf),
    ])
    def test_non_finite_rates_rejected(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} must be nonnegative and finite"):
            NoiseProfile(**{field: value})

    def test_score_range_ordering(self):
        with pytest.raises(ValueError):
            NoiseProfile(score_range=(0.9, 0.1))
        with pytest.raises(ValueError):
            NoiseProfile(score_range=(-0.2, 0.5))


class TestNoisyDetect:
    def test_degenerate_profile_equals_gt_detect(self):
        labels = sorted((make_label(track_id=i, cx=6.0 * i)
                         for i in range(1, 5)), key=lambda lab: lab.track_id)
        profile = NoiseProfile()
        dets = noisy_detect(labels, profile, frame_index=7, sequence_id="s")
        ref = gt_detect(labels)
        assert dets == ref

    def test_zero_probability_empty(self):
        labels = [make_label(track_id=i) for i in range(1, 4)]
        profile = NoiseProfile(detection_probability=0.0)
        assert noisy_detect(labels, profile, frame_index=0) == []

    def test_reproducible_byte_for_byte(self):
        labels = [make_label(track_id=i, cx=4.0 * i) for i in range(1, 6)]
        profile = NoiseProfile(detection_probability=0.8, center_sigma=0.3,
                               extent_sigma=0.1, yaw_sigma=0.05,
                               false_positives_per_frame=1.0,
                               score_range=(0.2, 0.9), rng_seed=42)
        scene = scene_context(labels)
        a = noisy_detect(labels, profile, 3, "seq", scene)
        b = noisy_detect(labels, profile, 3, "seq", scene)
        assert a == b

    def test_streams_differ_by_frame_and_sequence(self):
        labels = [make_label(track_id=i, cx=4.0 * i) for i in range(1, 6)]
        profile = NoiseProfile(center_sigma=0.5, rng_seed=1)
        scene = scene_context(labels)
        base = noisy_detect(labels, profile, 3, "seq", scene)
        assert noisy_detect(labels, profile, 4, "seq", scene) != base
        assert noisy_detect(labels, profile, 3, "other", scene) != base

    def test_noise_independent_of_other_frames(self):
        # The draw for frame k depends only on (seed, sequence, k), so a
        # variant that drops different frames sees identical noise on the
        # frames both variants share.
        labels = [make_label(track_id=i, cx=4.0 * i) for i in range(1, 6)]
        profile = NoiseProfile(center_sigma=0.4, rng_seed=9)
        scene = scene_context(labels)
        lone = noisy_detect(labels, profile, 11, "seq", scene)
        for earlier in (0, 5, 10):
            noisy_detect(labels, profile, earlier, "seq", scene)
        again = noisy_detect(labels, profile, 11, "seq", scene)
        assert lone == again

    def test_detection_probability_law_of_large_numbers(self):
        profile = NoiseProfile(detection_probability=0.9, rng_seed=123)
        labels = [make_label(track_id=i, cx=3.0 * i) for i in range(1, 11)]
        scene = scene_context(labels)
        emitted = 0
        total = 0
        for frame in range(1000):
            dets = noisy_detect(labels, profile, frame, "lln", scene)
            emitted += len(dets)
            total += len(labels)
        assert total == 10000
        assert emitted / total == pytest.approx(0.9, abs=0.01)

    def test_score_range_respected(self):
        profile = NoiseProfile(score_range=(0.25, 0.75),
                               false_positives_per_frame=2.0, rng_seed=5)
        labels = [make_label(track_id=i, cx=3.0 * i) for i in range(1, 6)]
        scene = scene_context(labels)
        for frame in range(50):
            for det in noisy_detect(labels, profile, frame, "sc", scene):
                assert 0.25 <= det.score <= 0.75

    def test_false_positives_inside_region(self):
        profile = NoiseProfile(detection_probability=0.0,
                               false_positives_per_frame=3.0, rng_seed=2)
        labels = [make_label(track_id=1, cx=0.0), make_label(track_id=2, cx=40.0)]
        scene = scene_context(labels)
        seen = 0
        for frame in range(100):
            for det in noisy_detect(labels, profile, frame, "fp", scene):
                seen += 1
                assert scene.x_range[0] <= det.box.cx <= scene.x_range[1]
                assert scene.y_range[0] <= det.box.cy <= scene.y_range[1]
        assert seen > 100

    def test_perturbed_boxes_stay_valid(self):
        profile = NoiseProfile(center_sigma=1.0, extent_sigma=3.0,
                               yaw_sigma=4.0, rng_seed=8)
        labels = [make_label(track_id=i) for i in range(1, 4)]
        for frame in range(200):
            for det in noisy_detect(labels, profile, frame, "v"):
                assert det.box.length >= 0.05
                assert det.box.width >= 0.05
                assert det.box.height >= 0.05
                assert -math.pi < det.box.yaw <= math.pi

    def test_boxes_hold_plain_floats(self):
        # The tracker runs on plain floats; a numpy scalar in a box would
        # turn its arithmetic into numpy-scalar arithmetic.
        profile = NoiseProfile(detection_probability=0.9, center_sigma=0.5,
                               extent_sigma=0.5, yaw_sigma=0.2,
                               false_positives_per_frame=2.0,
                               score_range=(0.5, 1.0), rng_seed=4)
        labels = [make_label(track_id=i, cx=3.0 * i) for i in range(1, 5)]
        dets = [det for frame in range(20)
                for det in noisy_detect(labels, profile, frame, "f")]
        assert len(dets) > 80
        for det in dets:
            assert type(det.score) is float
            for name in ("cx", "cy", "cz", "length", "width", "height",
                         "yaw"):
                assert type(getattr(det.box, name)) is float, name


class TestSceneContext:
    def test_bounds_include_margin(self):
        labels = [make_label(track_id=1, cx=0.0, cy=-5.0),
                  make_label(track_id=2, cx=30.0, cy=5.0)]
        scene = scene_context(labels, margin=10.0)
        assert scene.x_range == (-10.0, 40.0)
        assert scene.y_range == (-15.0, 15.0)

    def test_extent_pool_from_labels(self):
        labels = [make_label(track_id=1), make_label(track_id=2, cx=8.0)]
        scene = scene_context(labels)
        assert scene.extent_pool == ((4.2, 1.8, 1.5, 0.75),)

    def test_empty_labels_fallback(self):
        scene = scene_context([])
        assert scene.x_range == (-50.0, 50.0)
        assert isinstance(scene, SceneContext)
