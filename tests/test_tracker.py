"""Kalman tracking through dropped frames: filter math, association,
lifecycle, and the prediction-only output path."""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droptrack import geometry, tracker
from droptrack.geometry import (Detection, LabeledObject, OrientedBox,
                                wrap_angle)
from droptrack.kitti_io import SequenceData
from droptrack.pipeline import config_from_dict, run_once
from droptrack.schedule import FRAME_PERIOD, DropPattern, build_schedule
from droptrack.tracker import (
    MATCH_EPS,
    PROVENANCE_PREDICTED,
    PROVENANCE_UPDATED,
    Tracker,
    TrackerConfig,
    TrackState,
    associate,
    conflict_free,
    gated_assignment,
    predict,
    update,
)

from oracles import (StatusTracker, eligible_triples, enumerate_assignment,
                     full_covariance, reference_associate,
                     textbook_kalman_predict, textbook_kalman_update)
from strategies import any_yaw, box_pairs, finite_coord, random_boxes


def make_box(cx=0.0, cy=0.0, cz=0.75, yaw=0.0, length=4.5, width=1.8,
             height=1.5):
    return OrientedBox(cx=cx, cy=cy, cz=cz, length=length, width=width,
                       height=height, yaw=yaw)


def make_detection(cx=0.0, cy=0.0, cz=0.75, yaw=0.0, score=1.0):
    return Detection(box=make_box(cx=cx, cy=cy, cz=cz, yaw=yaw), score=score)


def make_state(cx=0.0, cy=0.0, cz=0.75, vx=0.0, vy=0.0, vz=0.0):
    mean = [cx, cy, cz, 0.0, 4.5, 1.8, 1.5, vx, vy, vz]
    return TrackState(track_id=1, mean=mean, var=[1.0] * 10, cross=[0.0] * 3)


def zero_noise_config(**kwargs):
    defaults = dict(process_noise=0.0, measurement_noise=0.0,
                    min_hits_to_confirm=1, max_misses_to_delete=2)
    defaults.update(kwargs)
    return TrackerConfig(**defaults)


class TestConfigValidation:
    def test_bad_cycle_time(self):
        # The frame period is FRAME_PERIOD, not a setting: any cycle_time
        # is refused.
        with pytest.raises(TypeError, match="cycle_time"):
            TrackerConfig(cycle_time=FRAME_PERIOD)

    @pytest.mark.parametrize("field,value", [
        ("process_noise", math.nan), ("measurement_noise", math.inf),
    ])
    def test_non_finite_value_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrackerConfig(**{field: value})

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            TrackerConfig(min_hits_to_confirm=0)
        with pytest.raises(ValueError):
            TrackerConfig(max_misses_to_delete=0)

    def test_bad_gate(self):
        with pytest.raises(ValueError):
            TrackerConfig(gate_iou_min=1.5)

    def test_negative_noise(self):
        with pytest.raises(ValueError):
            TrackerConfig(process_noise=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("cycle_time", 0.0), ("process_noise", -1.0), ("gate_iou_min", 5.0),
    ])
    def test_fields_cannot_be_assigned_after_validation(self, field, value):
        # Validation runs once, at construction; predict relies on it. Nor
        # can a removed setting such as cycle_time be attached afterwards:
        # predict steps by FRAME_PERIOD.
        config = TrackerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, value)


class TestPredict:
    def test_constant_velocity_step(self):
        state = make_state(vx=2.0)
        out = predict(state, TrackerConfig())
        assert out.mean[0] == pytest.approx(0.2, abs=1e-12)
        assert out.mean[1] == 0.0
        assert out.hits == state.hits
        assert out.consecutive_misses == state.consecutive_misses

    def test_zero_velocity_box_fixed_covariance_grows(self):
        state = make_state()
        out = predict(state, TrackerConfig())
        assert np.allclose(out.mean, state.mean)
        assert sum(out.var) > sum(state.var)

    def test_five_small_steps_equal_one_large_in_mean(self):
        # Five predicts move the mean by 5 * FRAME_PERIOD * v.
        cfg = TrackerConfig()
        state = make_state(cx=1.0, cy=-2.0, cz=0.5, vx=2.0, vy=-1.0, vz=0.5)
        stepped = state
        for _ in range(5):
            stepped = predict(stepped, cfg)
        want = state.mean[:]
        for k in range(3):
            want[k] += 5 * FRAME_PERIOD * state.mean[k + 7]
        assert stepped.mean[0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(stepped.mean, want, atol=1e-12)

    def test_yaw_and_extents_unchanged(self):
        state = make_state(vx=5.0, vy=-2.0)
        out = predict(state, TrackerConfig())
        assert np.allclose(out.mean[3:7], state.mean[3:7])


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        cfg = TrackerConfig()
        state = make_state(cx=3.0, cy=-1.0)
        det = make_detection(cx=3.0, cy=-1.0)
        out = update(state, det, cfg)
        assert np.allclose(out.mean[:7], state.mean[:7], atol=1e-12)
        assert sum(out.var[:7]) < sum(state.var[:7])

    def test_counters_after_update(self):
        state = make_state()
        state.consecutive_misses = 2
        out = update(state, make_detection(), TrackerConfig())
        assert out.hits == state.hits + 1
        assert out.consecutive_misses == 0

    def test_zero_measurement_noise_snaps_to_detection(self):
        cfg = zero_noise_config()
        state = make_state(cx=1.0, cy=2.0)
        det = make_detection(cx=1.7, cy=2.4, cz=0.9)
        out = update(state, det, cfg)
        b = det.box
        assert np.allclose(out.mean[:7],
                           [b.cx, b.cy, b.cz, b.yaw, b.length, b.width, b.height],
                           atol=1e-9)

    def test_scalar_textbook_shift(self):
        # One observed component with prior variance 1, measurement noise 1,
        # innovation 1: the posterior moves halfway.
        cfg = TrackerConfig(measurement_noise=1.0)
        mean = [0.0, 0.0, 0.75, 0.0, 4.5, 1.8, 1.5, 0.0, 0.0, 0.0]
        var = [1.0, 1.0, 1.0, 0.5, 0.25, 0.25, 0.25, 100.0, 100.0, 100.0]
        state = TrackState(track_id=1, mean=mean, var=var, cross=[0.0] * 3)
        det = make_detection(cx=1.0)
        out = update(state, det, cfg)
        assert out.mean[0] == pytest.approx(0.5, abs=1e-12)

    def test_yaw_innovation_wraps(self):
        # Prior just below +pi, measurement just above -pi: the innovation
        # must be the short +0.1 rad path, so a partial-gain update stays
        # near the pi boundary instead of swinging toward zero.
        cfg = TrackerConfig(measurement_noise=1.0)
        mean = [0.0, 0.0, 0.75, math.pi - 0.05, 4.5, 1.8, 1.5, 0.0, 0.0, 0.0]
        state = TrackState(track_id=1, mean=mean, var=[1.0] * 10,
                           cross=[0.0] * 3)
        det = Detection(box=make_box(yaw=-math.pi + 0.05), score=1.0)
        out = update(state, det, cfg)
        from droptrack.geometry import wrap_angle
        assert abs(wrap_angle(out.mean[3] - math.pi)) < 0.06


@st.composite
def score_matrices(draw):
    """(scores, sparse): up to 6×6 scores with zeros, ties, a negative
    score and values at and just below each gate. A sparse draw keeps at
    most one entry per row and column and sets the others to -1, below
    every gate, so its eligible pairs are conflict-free."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    value = st.one_of(
        st.sampled_from([0.0, -0.5, 0.1, 0.1 - MATCH_EPS, 0.1 - 1e-11,
                         0.35, 0.35 - 1e-13, 0.5, 0.9]),
        st.floats(min_value=0.0, max_value=1.0))
    scores = np.array(draw(st.lists(value, min_size=n * m, max_size=n * m)),
                      dtype=float).reshape(n, m)
    sparse = draw(st.booleans())
    if sparse:
        cols = draw(st.permutations(range(m)))
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        mask = np.zeros((n, m), dtype=bool)
        for i, j in zip(range(n), cols):
            mask[i, j] = keep[i]
        scores[~mask] = -1.0
    return scores, sparse


@st.composite
def tied_matrices(draw):
    """Up to 8×8 scores from four values, tall, wide and square, so many
    pair lists tie on (count, total)."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    values = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9]),
                           min_size=n * m, max_size=n * m))
    return np.array(values).reshape(n, m)


class TestAssignment:
    def test_singleton_above_gate(self):
        scores = np.array([[0.9]])
        assert gated_assignment(scores.shape, eligible_triples(
            scores, scores >= 0.1 - MATCH_EPS)) == [(0, 0)]

    def test_singleton_below_gate(self):
        scores = np.array([[0.05]])
        assert gated_assignment(scores.shape, eligible_triples(
            scores, scores >= 0.1 - MATCH_EPS)) == []

    def test_empty(self):
        scores = np.zeros((0, 3))
        assert gated_assignment(scores.shape, eligible_triples(
            scores, scores >= 0.1 - MATCH_EPS)) == []

    def test_known_three_by_three(self):
        scores = np.array([[0.9, 0.3, 0.0],
                           [0.4, 0.8, 0.2],
                           [0.0, 0.25, 0.7]])
        got = set(gated_assignment(scores.shape, eligible_triples(
            scores, scores >= 0.1 - MATCH_EPS)))
        assert got == enumerate_assignment(scores, 0.1)
        assert got == {(0, 0), (1, 1), (2, 2)}

    def test_count_beats_score(self):
        # Greedy on raw score would take the 0.6 pair and strand the other
        # row; the count-first objective must find two matches.
        scores = np.array([[0.6, 0.5],
                           [0.55, 0.0]])
        got = set(gated_assignment(scores.shape, eligible_triples(
            scores, scores >= 0.1 - MATCH_EPS)))
        assert got == {(0, 1), (1, 0)}

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.randoms(use_true_random=False))
    def test_matches_enumeration(self, n, m, rnd):
        # Hypothesis deliberately generates tied scores, where the optimal
        # matching is not unique; compare the (count, total) objective and
        # validity rather than the exact pair set.
        scores = np.array([[rnd.random() for _ in range(m)]
                           for _ in range(n)])
        got = gated_assignment(scores.shape, eligible_triples(
            scores, scores >= 0.3 - MATCH_EPS))
        expected = enumerate_assignment(scores, 0.3)
        assert len({i for i, _ in got}) == len(got)
        assert len({j for _, j in got}) == len(got)
        assert all(scores[i][j] >= 0.3 - 1e-12 for i, j in got)
        assert len(got) == len(expected)
        got_total = sum(scores[i][j] for i, j in got)
        exp_total = sum(scores[i][j] for i, j in expected)
        assert got_total == pytest.approx(exp_total, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(score_matrices(), st.sampled_from([0.0, 0.1, 0.35]))
    def test_front_door_equals_solver(self, drawn, gate):
        # The front door returns the solver's pair list on count-first
        # weights built here with numpy, order included, whether or not it
        # settles the pairs without the solver.
        scores, sparse = drawn
        eligible = scores >= gate - MATCH_EPS
        pairs = eligible_triples(scores, eligible)
        if sparse:
            assert conflict_free(pairs)
        want = []
        if pairs:
            base = 1.0 + float(scores[eligible].sum())
            weights = np.where(eligible, base + scores, 0.0).tolist()
            want = [(r, c) for r, c in tracker._max_sum_assignment(weights)
                    if eligible[r, c]]
        assert gated_assignment(scores.shape, pairs) == want

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3)])
    def test_constant_matrix_gives_identity(self, shape):
        scores = np.full(shape, 0.5)
        assert gated_assignment(scores.shape, eligible_triples(
            scores, scores >= 0.1 - MATCH_EPS)) \
            == [(i, i) for i in range(min(shape))]

    def test_tall_tied_matrix_gives_scipys_pairs(self):
        # Four pair lists tie on (count, total); scipy 1.17.1 returns this
        # one.
        scores = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.9]])
        assert gated_assignment(scores.shape, eligible_triples(
            scores, scores >= 0.1 - MATCH_EPS)) \
            == [(1, 1), (2, 0)]

    def test_pairs_equal_scipys(self):
        # scipy is a test oracle only: the pair list, order included, is
        # the one its linear_sum_assignment gives on the same weights.
        lsa = pytest.importorskip("scipy.optimize").linear_sum_assignment

        @settings(max_examples=500, deadline=None)
        @given(st.one_of(score_matrices().map(lambda drawn: drawn[0]),
                         tied_matrices()),
               st.sampled_from([0.0, 0.1, 0.35, 0.5]))
        def check(scores, gate):
            eligible = scores >= gate - MATCH_EPS
            want = []
            if eligible.any():
                base = 1.0 + float(scores[eligible].sum())
                weights = np.where(eligible, base + scores, 0.0)
                rows, cols = lsa(weights, maximize=True)
                want = [(int(r), int(c)) for r, c in zip(rows, cols)
                        if eligible[r, c]]
            assert gated_assignment(scores.shape,
                                    eligible_triples(scores, eligible)) == want
        check()

    def test_runtime_imports_no_scipy(self, tmp_path):
        # scipy is never loaded, and numpy only on a noisy variant's first
        # draw: eval, energy and a gt-only sweep run without it.
        # The noisy sweep at the end shows numpy is seen when it is loaded.
        row = "Car 0 0 -10 0 0 50 50 1.50 1.80 4.20 2.00 1.65 10.00 0.10"
        rows = "".join(f"{f} 1 {row}\n" for f in range(4))
        (tmp_path / "0000.txt").write_text(rows)
        (tmp_path / "out.txt").write_text(rows)
        (tmp_path / "noisy.json").write_text(json.dumps({
            "variants": ["noisy:p"],
            "profiles": {"p": {"center_sigma": 0.1}}}))
        code = """
import contextlib, io, sys
from pathlib import Path
import droptrack.cli
from droptrack.tracker import gated_assignment
pairs = [(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.7)]
assert gated_assignment((2, 2), pairs) == [(0, 1), (1, 0)]
work = Path(sys.argv[1])
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert droptrack.cli.main([str(a) for a in argv]) == 0, argv
def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})
run("eval", "--labels", work / "0000.txt", "--outputs", work / "out.txt")
run("energy", "--preset", "second", "--pattern", "1/2")
run("sweep", "--pattern", "1/2", "--out", work / "gt")
print(loaded())
run("sweep", "--pattern", "1/2", "--config", work / "noisy.json")
print(loaded())
"""
        src = Path(tracker.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              cwd=src, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n['numpy']\n"

    def test_associate_splits_leftovers(self):
        cfg = TrackerConfig()
        tracks = [make_state(cx=0.0), make_state(cx=50.0)]
        tracks[1].track_id = 2
        detections = [make_detection(cx=0.2), make_detection(cx=200.0)]
        pairs, un_t, un_d = associate(tracks, detections, cfg)
        assert pairs == [(0, 0)]
        assert un_t == [1]
        assert un_d == [1]

    def test_gate_zero_never_pairs_boxes_that_do_not_overlap(self):
        # Detection 1 is 50 m from both tracks; detection 2 sits on track
        # 2's footprint, 10 m above it, so the two overlap from above but
        # not in 3D. A pair that does not overlap scores 0, which a gate of
        # 0 would admit; it is still never matched.
        tracks = [make_state(cx=0.0), make_state(cx=20.0)]
        tracks[1].track_id = 2
        detections = [make_detection(cx=0.2), make_detection(cx=50.0),
                      make_detection(cx=20.0, cz=10.75)]
        cfg = TrackerConfig(gate_iou_min=0.0)
        assert associate(tracks, detections, cfg) == ([(0, 0)], [1], [1, 2])

    def test_associate_empty_inputs(self):
        cfg = TrackerConfig()
        pairs, un_t, un_d = associate([], [make_detection()], cfg)
        assert (pairs, un_t, un_d) == ([], [], [0])
        pairs, un_t, un_d = associate([make_state()], [], cfg)
        assert (pairs, un_t, un_d) == ([], [0], [])


def run_frames(tracker, detections_by_frame, n_frames):
    """detections_by_frame: frame -> list | None (None = dropped)."""
    outputs = []
    for f in range(n_frames):
        outputs.append(tracker.step(detections_by_frame.get(f)))
    return outputs


def moving_detections(n_frames, vx=3.0, dt=0.1):
    return {f: [make_detection(cx=vx * dt * f)] for f in range(n_frames)}


class TestStepLifecycle:
    def test_steady_state_single_id(self):
        tracker = Tracker(zero_noise_config())
        outputs = run_frames(tracker, moving_detections(10), 10)
        ids = {e.track_id for out in outputs for e in out.entries}
        assert len(ids) == 1
        assert all(len(out.entries) == 1 for out in outputs)
        assert all(out.entries[0].provenance == PROVENANCE_UPDATED
                   for out in outputs)

    def test_dropped_frames_emit_predictions(self):
        tracker = Tracker(zero_noise_config())
        dets = moving_detections(8)
        for f in (4, 5, 6):
            dets[f] = None
        outputs = run_frames(tracker, dets, 8)
        the_id = outputs[0].entries[0].track_id
        for f in (4, 5, 6):
            entry = outputs[f].entries[0]
            assert entry.track_id == the_id
            assert entry.provenance == PROVENANCE_PREDICTED
            # CV extrapolation must continue the true motion exactly.
            assert entry.box.cx == pytest.approx(0.3 * f, abs=1e-9)
        assert outputs[7].entries[0].provenance == PROVENANCE_UPDATED

    def test_zero_noise_gap_recovery_within_micron(self):
        tracker = Tracker(zero_noise_config())
        dets = moving_detections(12)
        for f in range(5, 10):
            dets[f] = None
        outputs = run_frames(tracker, dets, 12)
        for f in range(5, 10):
            assert outputs[f].entries[0].box.cx \
                == pytest.approx(0.3 * f, abs=1e-6)

    def test_miss_budget_exhaustion(self):
        tracker = Tracker(zero_noise_config(max_misses_to_delete=2))
        dets = {0: [make_detection()], 1: [make_detection()],
                2: [], 3: [], 4: [], 5: []}
        outputs = run_frames(tracker, dets, 6)
        # Confirmed at frame 0; misses at 2, 3 reach the budget, the third
        # processed miss at frame 4 exceeds it.
        assert len(outputs[2].entries) == 1
        assert len(outputs[3].entries) == 1
        assert outputs[4].entries == ()
        assert outputs[5].entries == ()

    def test_tentative_track_dies_on_first_miss(self):
        cfg = zero_noise_config(min_hits_to_confirm=3)
        tracker = Tracker(cfg)
        assert tracker.step([make_detection()]).entries == ()
        assert tracker.live_tracks()[0].hits == 1
        tracker.step([])
        assert tracker.live_tracks() == []

    def test_confirmation_threshold(self):
        cfg = zero_noise_config(min_hits_to_confirm=3)
        tracker = Tracker(cfg)
        outputs = run_frames(tracker, moving_detections(5), 5)
        assert outputs[0].entries == ()
        assert outputs[1].entries == ()
        assert len(outputs[2].entries) == 1
        assert len(outputs[3].entries) == 1

    def test_dropped_frame_changes_no_counters(self):
        tracker = Tracker(zero_noise_config(min_hits_to_confirm=2))
        tracker.step([make_detection()])
        before = [(t.track_id, t.hits, t.consecutive_misses)
                  for t in tracker.live_tracks()]
        tracker.step(None)
        tracker.step(None)
        after = [(t.track_id, t.hits, t.consecutive_misses)
                 for t in tracker.live_tracks()]
        assert before == after

    def test_processed_empty_frame_counts_misses(self):
        tracker = Tracker(zero_noise_config())
        tracker.step([make_detection()])
        tracker.step([])
        assert tracker.live_tracks()[0].consecutive_misses == 1

    def test_ids_never_reused(self):
        tracker = Tracker(zero_noise_config(max_misses_to_delete=1))
        seen = set()
        dets = {0: [make_detection()], 1: [make_detection()],
                2: [], 3: [],          # kill the first track
                4: [make_detection()], 5: [make_detection()]}
        outputs = run_frames(tracker, dets, 6)
        first = outputs[0].entries[0].track_id
        second = outputs[4].entries[0].track_id
        assert first != second
        for out in outputs:
            for e in out.entries:
                seen.add(e.track_id)
        assert seen == {first, second}

    def test_full_rate_restoration_under_drops(self):
        tracker = Tracker(zero_noise_config())
        dets = moving_detections(12)
        for f in range(12):
            if f % 4 != 0:
                dets[f] = None
        outputs = run_frames(tracker, dets, 12)
        assert len(outputs) == 12
        assert all(len(out.entries) == 1 for out in outputs)

    def test_two_crossing_objects_keep_ids(self):
        cfg = zero_noise_config()
        tracker = Tracker(cfg)
        outputs = []
        for f in range(10):
            dets = [make_detection(cx=0.3 * f, cy=2.0),
                    make_detection(cx=3.0 - 0.3 * f, cy=-2.0)]
            outputs.append(tracker.step(dets))
        first_ids = sorted(e.track_id for e in outputs[0].entries)
        for out in outputs:
            assert sorted(e.track_id for e in out.entries) == first_ids
            by_id = {e.track_id: e.box.cy for e in out.entries}
            assert by_id[first_ids[0]] == pytest.approx(2.0, abs=1e-6)
            assert by_id[first_ids[1]] == pytest.approx(-2.0, abs=1e-6)


@st.composite
def detection_streams(draw):
    """Frames of detections: each frame is dropped (None) or processed.
    On a processed frame, each of up to three constant-velocity objects
    that is present may be detected, with jitter, or missed, and random
    clutter boxes may join; a processed frame may be empty."""
    n_frames = draw(st.integers(min_value=1, max_value=14))
    step = st.floats(min_value=-1.5, max_value=1.5)
    objects = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=n_frames - 1),
        st.integers(min_value=1, max_value=n_frames),
        finite_coord, finite_coord, step, step, any_yaw), max_size=3))
    jitter = st.floats(min_value=-0.5, max_value=0.5)
    frames = []
    for f in range(n_frames):
        if draw(st.booleans()):
            frames.append(None)
            continue
        dets = []
        for first, life, x, y, dx, dy, yaw in objects:
            if first <= f < first + life and draw(st.booleans()):
                k = f - first
                dets.append(make_detection(
                    cx=x + k * dx + draw(jitter), cy=y + k * dy + draw(jitter),
                    yaw=yaw, score=draw(st.floats(0.0, 1.0))))
        dets += [Detection(box=b, score=0.5)
                 for b in draw(st.lists(random_boxes, max_size=2))]
        frames.append(dets)
    return frames


class TestStatusLifecycleOracle:
    @settings(max_examples=300, deadline=None)
    @given(detection_streams(), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3))
    def test_matches_stored_status_tracker(self, frames, min_hits,
                                           max_misses):
        cfg = TrackerConfig(min_hits_to_confirm=min_hits,
                            max_misses_to_delete=max_misses)
        got, want = Tracker(cfg), StatusTracker(cfg)
        for dets in frames:
            assert got.step(dets) == want.step(dets)
            assert [(t.track_id, t.hits, t.consecutive_misses)
                    for t in got.live_tracks()] \
                == [(t.track_id, t.hits, t.consecutive_misses)
                    for t in want.live_tracks()]


class TestVelocityConvergence:
    def test_exact_velocity_after_three_updates(self):
        # Birth knows nothing about velocity; the first follow-up update
        # recovers half of it (position var 1, velocity var 100, dt 0.1),
        # the second recovers it exactly because the zero-noise filter has
        # collapsed position uncertainty by then.
        cfg = zero_noise_config()
        tracker = Tracker(cfg)
        tracker.step([make_detection(cx=0.0)])
        tracker.step([make_detection(cx=0.3)])
        half = tracker.live_tracks()[0].mean[7]
        assert half == pytest.approx(1.5, abs=1e-9)
        tracker.step([make_detection(cx=0.6)])
        exact = tracker.live_tracks()[0].mean[7]
        assert exact == pytest.approx(3.0, abs=1e-9)


class TestIouGateCliff:
    """A track is born with zero velocity, so across one gap of m frames
    its box stays where its car was. A car of length L moving along its
    length at v is then d = v·m·Δt ahead, at IoU (L − d)/(L + d) with the
    unmoved box, which the gate g admits exactly when m ≤ m* =
    ⌊L(1 − g)/((1 + g)·v·Δt)⌋. Once matched, the track has a velocity and
    keeps its car; past m* every processed frame births a new track."""

    LENGTH = 4.5
    FRAMES = 200

    @pytest.mark.parametrize("measurement_noise", [0.01, 0.05])
    @pytest.mark.parametrize("speed", [3.0, 6.0, 9.0, 12.0, 15.0])
    def test_one_id_up_to_the_cliff_then_one_per_processed_frame(
            self, speed, measurement_noise):
        config = config_from_dict({
            "patterns": ["1/1"],
            "tracker": {"measurement_noise": measurement_noise}})
        cfg = config.tracker
        step = speed * FRAME_PERIOD
        sequence = SequenceData("car", self.FRAMES, tuple(
            LabeledObject(f, 1, make_box(cx=step * f, length=self.LENGTH))
            for f in range(self.FRAMES)))
        m_star = math.floor(self.LENGTH * (1.0 - cfg.gate_iou_min)
                            / ((1.0 + cfg.gate_iou_min) * step))
        assert m_star >= 1
        for m in range(1, m_star + 3):
            pattern = DropPattern(1, m)
            _, outputs = run_once(config, "gt", pattern, [sequence])
            updated = [[entry.track_id for entry in out.entries
                        if entry.provenance == PROVENANCE_UPDATED]
                       for out, processed in zip(
                           outputs["car"],
                           build_schedule(pattern, self.FRAMES))
                       if processed]
            assert all(len(ids) == 1 for ids in updated), m
            ids = [track_id for (track_id,) in updated]
            want = [1] * len(ids) if m <= m_star \
                else list(range(1, len(ids) + 1))
            assert ids == want, (m, m_star)


class TestCovariancePsd:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_filter_runs_stay_psd(self, rnd):
        cfg = TrackerConfig(process_noise=rnd.uniform(0.0, 0.5),
                            measurement_noise=rnd.uniform(0.0, 0.5))
        state = make_state(cx=rnd.uniform(-5, 5), vx=rnd.uniform(-3, 3))
        for _ in range(12):
            state = predict(state, cfg)
            assert np.linalg.eigvalsh(full_covariance(state)).min() >= -1e-9
            if rnd.random() < 0.7:
                det = make_detection(cx=state.mean[0] + rnd.uniform(-1, 1),
                                     cy=state.mean[1] + rnd.uniform(-1, 1))
                state = update(state, det, cfg)
                assert np.linalg.eigvalsh(full_covariance(state)).min() \
                    >= -1e-9


def random_filter_state(data):
    """A track state with random variances, a random position–velocity
    correlation per axis and a random mean."""
    var = data.draw(st.lists(st.floats(0.0, 100.0), min_size=10, max_size=10))
    cross = [data.draw(st.floats(-1.0, 1.0)) * math.sqrt(var[k] * var[k + 7])
             for k in range(3)]
    mean = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=10,
                              max_size=10))
    mean[3] = data.draw(st.floats(-math.pi, math.pi))
    return TrackState(track_id=1, mean=mean, var=var, cross=cross)


def assert_state_close(state, want_mean, want_cov):
    diff = np.array(state.mean) - want_mean
    diff[3] = wrap_angle(diff[3])
    assert np.abs(diff).max() <= 1e-12
    assert np.abs(full_covariance(state) - want_cov).max() <= 1e-12


class TestPredictMatchesTextbook:
    """predict's per-axis blocks against the full-matrix F P Fᵀ + dt q I,
    dt = FRAME_PERIOD."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([0.0, 1e-3, 0.5]))
    def test_matches_reference(self, data, q):
        state = random_filter_state(data)
        want_mean, want_cov = textbook_kalman_predict(
            np.array(state.mean), full_covariance(state), FRAME_PERIOD, q)
        out = predict(state, TrackerConfig(process_noise=q))
        assert_state_close(out, want_mean, want_cov)
        assert all(type(x) is float for x in out.mean + out.var + out.cross)


class TestUpdateMatchesTextbook:
    """update's per-axis gain against the textbook H/S/solve update."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([0.0, 1e-3, 0.5]),
           st.sampled_from([0.0, 1e-6, 0.05, 1.0]))
    def test_repeated_updates_match_reference(self, data, q, r):
        # Zero noise collapses updated axes to rounding residue within a
        # few rounds, so both the pseudo-inverse cutoff and the collapsed-S
        # rule are reached.
        cfg = TrackerConfig(process_noise=q, measurement_noise=r)
        state = random_filter_state(data)
        for _ in range(data.draw(st.integers(1, 8))):
            if data.draw(st.booleans()):
                state = predict(state, cfg)
            offset = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=7,
                                        max_size=7))
            m = state.mean
            box = OrientedBox(m[0] + offset[0], m[1] + offset[1],
                              m[2] + offset[2],
                              length=max(0.1, m[4] + offset[4]),
                              width=max(0.1, m[5] + offset[5]),
                              height=max(0.1, m[6] + offset[6]),
                              yaw=wrap_angle(m[3] + offset[3]))
            z = np.array([box.cx, box.cy, box.cz, box.yaw, box.length,
                          box.width, box.height])
            want_mean, want_cov = textbook_kalman_update(
                np.array(m), full_covariance(state), z, r)
            state = update(state, Detection(box=box, score=1.0), cfg)
            assert_state_close(state, want_mean, want_cov)

    def test_position_velocity_coupling_accepted(self):
        # A position–velocity covariance moves the velocity on a position
        # innovation.
        state = make_state()
        state.cross[0] = 0.5
        out = update(state, make_detection(cx=1.0), TrackerConfig())
        assert out.mean[7] != 0.0
        assert out.mean[8] == 0.0


class TestAssociatePrefilter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(box_pairs(), max_size=4),
           st.lists(random_boxes, max_size=3),
           st.lists(st.sampled_from([0.0, 2 * math.pi, -2 * math.pi,
                                     4 * math.pi]), min_size=4, max_size=4),
           st.sampled_from([0.0, 0.1, 0.5]))
    def test_matches_per_pair_loop(self, pairs, extra, turns, gate):
        # Track yaws off by whole turns also pin that `TrackState.box()`
        # needs no wrap of its own.
        tracks = [TrackState(track_id=n + 1, var=[1.0] * 10, cross=[0.0] * 3,
                             mean=[a.cx, a.cy, a.cz, a.yaw + turn, a.length,
                                   a.width, a.height, 0.0, 0.0, 0.0])
                  for n, ((a, _), turn) in enumerate(zip(pairs, turns))]
        detections = [Detection(box=b, score=1.0)
                      for b in [b for _, b in pairs] + extra]
        cfg = TrackerConfig(gate_iou_min=gate)
        seen = []
        front_door = tracker.gated_assignment

        def capturing(shape, triples):
            seen.append((shape, triples))
            return front_door(shape, triples)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracker, "gated_assignment", capturing)
            got = associate(tracks, detections, cfg)
        scores, *want = reference_associate(tracks, detections, cfg)
        assert list(got) == want
        # The oracle's matrix, gated, row-major; a pair that does not
        # overlap is never eligible. Its scores are read only when two
        # eligible pairs share a row or a column: then the solver gets
        # each one's exact score, as a float.
        rows, cols = np.nonzero((scores > 0) & (scores >= gate - MATCH_EPS))
        triples = [(i, j, float(scores[i, j]))
                   for i, j in zip(rows.tolist(), cols.tolist())]
        if not conflict_free(triples):
            assert seen == [(scores.shape, triples)]
            assert all(type(x) is float for _, _, x in seen[0][1])

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        """Each exact overlap (`footprint_intersection_area`) call, and
        each `gated_assignment` call, as they happen."""
        calls = {"overlap": [], "front_door": []}
        overlap, front_door = (geometry.footprint_intersection_area,
                               tracker.gated_assignment)

        def counting_overlap(a, b):
            calls["overlap"].append((a, b))
            return overlap(a, b)

        def capturing(shape, triples):
            calls["front_door"].append((shape, triples))
            return front_door(shape, triples)
        monkeypatch.setattr(geometry, "footprint_intersection_area",
                            counting_overlap)
        monkeypatch.setattr(tracker, "gated_assignment", capturing)
        return calls

    @staticmethod
    def tracks_at(*xs):
        tracks = [make_state(cx=x) for x in xs]
        for n, t in enumerate(tracks):
            t.track_id = n + 1
        return tracks

    def test_conflict_free_aligned_frame_makes_no_exact_call(self,
                                                             exact_calls):
        # Each track has its detection 0.2 m ahead and no other within
        # reach: every pair is certified, and no two share a row or column.
        tracks = self.tracks_at(0.0, 10.0, 20.0)
        detections = [make_detection(cx=x + 0.2) for x in (0.0, 10.0, 20.0)]
        got = associate(tracks, detections, TrackerConfig())
        assert exact_calls == {"overlap": [], "front_door": []}
        assert got == ([(0, 0), (1, 1), (2, 2)], [], [])
        _, *want = reference_associate(tracks, detections, TrackerConfig())
        assert list(got) == want

    def test_detection_overlapping_two_tracks_is_scored_exactly(
            self, exact_calls):
        # The detection at 0.4 m overlaps both tracks, so the frame has a
        # conflict: both pairs get an exact score, and the solver gets the
        # oracle's row-major triples.
        tracks = self.tracks_at(0.0, 1.2)
        detections = [make_detection(cx=0.4)]
        cfg = TrackerConfig()
        got = associate(tracks, detections, cfg)
        assert len(exact_calls["overlap"]) == 2
        scores, *want = reference_associate(tracks, detections, cfg)
        assert exact_calls["front_door"] == [
            ((2, 1), [(0, 0, scores[0, 0]), (1, 0, scores[1, 0])])]
        assert list(got) == want == [[(0, 0)], [1], []]
