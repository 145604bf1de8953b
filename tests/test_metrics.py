"""CLEAR and HOTA scoring: hand-computable cases, definitional invariants,
and spot agreement with the exhaustive oracles."""

import math

import pytest

from droptrack.geometry import LabeledObject, OrientedBox
from droptrack.metrics import (
    ALPHA_GRID,
    NoGroundTruthError,
    build_frame_tables,
    clear_mot,
    clear_pooled,
    hota,
    hota_pooled,
)
from droptrack.tracker import FrameOutput, TrackEntry

from oracles import oracle_clear, oracle_hota, random_tracking_instance


def square_box(cx=0.0, cy=0.0):
    return OrientedBox(cx=cx, cy=cy, cz=1.0, length=2.0, width=2.0,
                       height=2.0, yaw=0.0)


def make_labels(spec):
    """spec: {frame: [(gt_id, cx, cy), ...]}"""
    return [LabeledObject(frame_index=f, track_id=tid,
                          box=square_box(cx, cy))
            for f, rows in sorted(spec.items())
            for tid, cx, cy in rows]


def make_outputs(spec, n_frames):
    """spec: {frame: [(pred_id, cx, cy), ...]}; emits one FrameOutput per
    frame index below n_frames, empty when the frame is absent."""
    outputs = []
    for f in range(n_frames):
        entries = tuple(
            TrackEntry(track_id=pid, box=square_box(cx, cy), score=1.0,
                       provenance="updated")
            for pid, cx, cy in spec.get(f, []))
        outputs.append(FrameOutput(frame_index=f, entries=entries))
    return outputs


def perfect_instance(n_frames=5, n_objects=2):
    spec = {f: [(i + 1, 10.0 * i + 0.5 * f, 3.0 * i) for i in range(n_objects)]
            for f in range(n_frames)}
    return make_labels(spec), make_outputs(spec, n_frames)


class TestPerfectTracking:
    def test_hota_exactly_100(self):
        labels, outputs = perfect_instance()
        res = hota(labels, outputs)
        assert res.hota == 100.0
        assert res.det_a == 100.0
        assert res.ass_a == 100.0

    def test_clear_exactly_100(self):
        labels, outputs = perfect_instance()
        res = clear_mot(labels, outputs)
        assert res.mota == 100.0
        assert res.motp == 100.0
        assert res.id_switches == 0
        assert res.fp == 0 and res.fn == 0
        assert res.tp == res.gt_total == 10

    def test_per_alpha_rows_all_perfect(self):
        labels, outputs = perfect_instance()
        res = hota(labels, outputs)
        assert len(res.per_alpha) == 19
        for alpha, h, d, a in res.per_alpha:
            assert (h, d, a) == (100.0, 100.0, 100.0)


class TestClearClosedForms:
    def test_one_of_ten_missed(self):
        # 10 GT instances over 5 frames, prediction absent once.
        spec = {f: [(1, 0.0, 0.0), (2, 8.0, 0.0)] for f in range(5)}
        labels = make_labels(spec)
        out_spec = {f: [(11, 0.0, 0.0), (12, 8.0, 0.0)] for f in range(5)}
        out_spec[3] = [(11, 0.0, 0.0)]
        outputs = make_outputs(out_spec, 5)
        res = clear_mot(labels, outputs)
        assert res.gt_total == 10
        assert res.fn == 1 and res.fp == 0 and res.id_switches == 0
        assert res.mota == pytest.approx(90.0, abs=1e-12)

    def test_id_swap_two_objects(self):
        # Two objects, two frames; predicted ids trade places in frame 1.
        labels = make_labels({0: [(1, 0.0, 0.0), (2, 10.0, 0.0)],
                              1: [(1, 0.0, 0.0), (2, 10.0, 0.0)]})
        outputs = make_outputs({0: [(21, 0.0, 0.0), (22, 10.0, 0.0)],
                                1: [(22, 0.0, 0.0), (21, 10.0, 0.0)]}, 2)
        res = clear_mot(labels, outputs)
        assert res.id_switches == 2
        assert res.tp == 4 and res.fn == 0 and res.fp == 0
        assert res.mota == pytest.approx(50.0, abs=1e-12)
        assert res.motp == pytest.approx(100.0, abs=1e-12)

    def test_below_threshold_is_miss_plus_clutter(self):
        labels = make_labels({0: [(1, 0.0, 0.0)]})
        outputs = make_outputs({0: [(9, 0.8, 0.0)]}, 1)  # IoU 0.4286
        res = clear_mot(labels, outputs)
        assert (res.tp, res.fn, res.fp) == (0, 1, 1)
        assert res.mota == pytest.approx(-100.0, abs=1e-12)
        loose = clear_mot(labels, outputs, match_threshold=0.4)
        assert loose.tp == 1
        assert loose.motp == pytest.approx(100.0 * 1.2 / 2.8, abs=1e-9)

    def test_match_exactly_at_threshold(self):
        # Offset 2/3 on 2x2 squares gives IoU 0.5; the epsilon slack must
        # keep the boundary case matched despite float rounding.
        labels = make_labels({0: [(1, 0.0, 0.0)]})
        outputs = make_outputs({0: [(9, 2.0 / 3.0, 0.0)]}, 1)
        res = clear_mot(labels, outputs)
        assert res.tp == 1
        assert res.motp == pytest.approx(50.0, abs=1e-9)

    def test_carryover_prefers_continuity(self):
        # Frame 1 offers a better-overlapping new candidate, but the
        # previous partner still clears the threshold, so CLEAR keeps it:
        # no switch, the newcomer counts as clutter.
        labels = make_labels({0: [(1, 0.0, 0.0)], 1: [(1, 0.0, 0.0)]})
        outputs = make_outputs({0: [(5, 0.4, 0.0)],
                                1: [(5, 0.5, 0.0), (6, 0.0, 0.0)]}, 2)
        res = clear_mot(labels, outputs)
        assert res.id_switches == 0
        assert (res.tp, res.fp, res.fn) == (2, 1, 0)
        # Frame-1 TP overlap is the carried pair's 1.5/2.5, not 1.0.
        expected_motp = 100.0 * ((1.6 / 2.4) + (1.5 / 2.5)) / 2.0
        assert res.motp == pytest.approx(expected_motp, abs=1e-9)

    def test_switch_after_gap(self):
        # Object matched by pred 5, lost for one frame, re-acquired by
        # pred 6: one identity switch via the last-match memory.
        labels = make_labels({f: [(1, 0.0, 0.0)] for f in range(3)})
        outputs = make_outputs({0: [(5, 0.0, 0.0)],
                                2: [(6, 0.0, 0.0)]}, 3)
        res = clear_mot(labels, outputs)
        assert res.id_switches == 1
        assert res.fn == 1


class TestHota:
    def test_empty_predictions_score_zero(self):
        labels = make_labels({f: [(1, 0.0, 0.0)] for f in range(4)})
        outputs = make_outputs({}, 4)
        res = hota(labels, outputs)
        assert res.hota == 0.0
        assert res.det_a == 0.0
        assert res.ass_a == 0.0

    def test_four_frame_swap_matches_oracle_exactly(self):
        labels = make_labels({f: [(1, 0.0, 0.0), (2, 10.0, 0.0)]
                              for f in range(4)})
        out_spec = {f: [(21, 0.0, 0.0), (22, 10.0, 0.0)] for f in range(4)}
        out_spec[3] = [(22, 0.0, 0.0), (21, 10.0, 0.0)]
        outputs = make_outputs(out_spec, 4)
        res = hota(labels, outputs)
        oh, od, oa, per_alpha = oracle_hota(labels, outputs)
        assert res.hota == oh
        assert res.det_a == od
        assert res.ass_a == oa
        assert res.per_alpha == tuple(per_alpha)
        # Frozen closed form: every alpha matches all 8 boxes (TP=8). The
        # dominant pairs carry alignment 3/(4+4-3)=3/5 over 3 frames each,
        # the crossover pairs 1/(4+4-1)=1/7 once each, so AssA is
        # (2*3*(3/5) + 2*1*(1/7)) / 8 = 17/35.
        assert res.det_a == 100.0
        assert res.ass_a == pytest.approx(100.0 * 17.0 / 35.0, abs=1e-9)
        assert res.hota == pytest.approx(100.0 * math.sqrt(17.0 / 35.0),
                                         abs=1e-9)

    def test_sqrt_consistency_as_stored(self):
        labels, outputs = random_tracking_instance(404)
        res = hota(labels, outputs)
        for alpha, h, d, a in res.per_alpha:
            assert h == math.sqrt(d * a)

    def test_alpha_grid(self):
        assert len(ALPHA_GRID) == 19
        assert ALPHA_GRID[0] == pytest.approx(0.05)
        assert ALPHA_GRID[-1] == pytest.approx(0.95)
        steps = [round(b - a, 10) for a, b in zip(ALPHA_GRID, ALPHA_GRID[1:])]
        assert set(steps) == {0.05}

    def test_permutation_invariance(self):
        labels, outputs = random_tracking_instance(7)
        remap = {}
        renamed = []
        for out in outputs:
            entries = []
            for e in out.entries:
                pid = remap.setdefault(e.track_id, 5000 - len(remap) * 13)
                entries.append(TrackEntry(track_id=pid, box=e.box,
                                          score=e.score,
                                          provenance=e.provenance))
            renamed.append(FrameOutput(frame_index=out.frame_index,
                                       entries=tuple(entries)))
        a = hota(labels, outputs)
        b = hota(labels, renamed)
        assert b.hota == pytest.approx(a.hota, abs=1e-12)
        assert b.det_a == pytest.approx(a.det_a, abs=1e-12)
        assert b.ass_a == pytest.approx(a.ass_a, abs=1e-12)
        ca = clear_mot(labels, outputs)
        cb = clear_mot(labels, renamed)
        assert (cb.tp, cb.fp, cb.fn, cb.id_switches) \
            == (ca.tp, ca.fp, ca.fn, ca.id_switches)
        assert cb.motp == pytest.approx(ca.motp, abs=1e-12)

    def test_removing_matched_entry_never_helps(self):
        labels, outputs = perfect_instance()
        damaged = []
        for out in outputs:
            entries = out.entries
            if out.frame_index == 2:
                entries = entries[1:]
            damaged.append(FrameOutput(frame_index=out.frame_index,
                                       entries=entries))
        full = hota(labels, outputs)
        less = hota(labels, damaged)
        for (_, _, d_full, _), (_, _, d_less, _) in zip(full.per_alpha,
                                                        less.per_alpha):
            assert d_less <= d_full
        assert less.hota < full.hota


class TestNoGroundTruth:
    def test_hota_raises(self):
        outputs = make_outputs({0: [(1, 0.0, 0.0)]}, 1)
        with pytest.raises(NoGroundTruthError):
            hota([], outputs)

    def test_clear_raises(self):
        outputs = make_outputs({0: [(1, 0.0, 0.0)]}, 1)
        with pytest.raises(NoGroundTruthError):
            clear_mot([], outputs)


class TestTableValidation:
    def test_duplicate_gt_id_in_frame(self):
        labels = [LabeledObject(frame_index=0, track_id=1, box=square_box()),
                  LabeledObject(frame_index=0, track_id=1,
                                box=square_box(cx=5.0))]
        with pytest.raises(ValueError, match="duplicate ground-truth"):
            build_frame_tables(labels, make_outputs({}, 1))

    def test_duplicate_output_frame(self):
        outputs = make_outputs({}, 1) + make_outputs({}, 1)
        with pytest.raises(ValueError, match="duplicate output"):
            build_frame_tables([], outputs)

    def test_duplicate_pred_id_in_frame(self):
        entry = TrackEntry(track_id=3, box=square_box(), score=1.0,
                           provenance="updated")
        outputs = [FrameOutput(frame_index=0, entries=(entry, entry))]
        with pytest.raises(ValueError, match="duplicate track id"):
            build_frame_tables([], outputs)

    def test_missing_output_frame(self):
        labels = make_labels({0: [(1, 0.0, 0.0)], 3: [(1, 0.0, 0.0)]})
        outputs = make_outputs({0: [(1, 0.0, 0.0)]}, 1)
        with pytest.raises(ValueError, match="missing"):
            build_frame_tables(labels, outputs)


class TestPooling:
    def test_duplicated_sequence_keeps_ratios(self):
        labels, outputs = random_tracking_instance(11)
        single_h = hota(labels, outputs)
        single_c = clear_mot(labels, outputs)
        tables = build_frame_tables(labels, outputs)
        pooled_h = hota_pooled([tables, tables])
        pooled_c = clear_pooled([tables, tables])
        assert pooled_h.hota == pytest.approx(single_h.hota, abs=1e-12)
        assert pooled_h.det_a == pytest.approx(single_h.det_a, abs=1e-12)
        assert pooled_h.ass_a == pytest.approx(single_h.ass_a, abs=1e-12)
        assert pooled_c.mota == single_c.mota
        assert pooled_c.motp == single_c.motp
        assert pooled_c.tp == 2 * single_c.tp
        assert pooled_c.gt_total == 2 * single_c.gt_total

    def test_id_collisions_across_sequences_stay_separate(self):
        # Both sequences reuse gt id 1 / pred id 5. Pooling must treat them
        # as different identities: the result has to match a single merged
        # sequence in which the second object pair is relabeled and placed
        # far away (so per-frame matchings decompose).
        seq_a_labels = make_labels({f: [(1, 0.0, 0.0)] for f in range(3)})
        seq_a_out = make_outputs({f: [(5, 0.1, 0.0)] for f in range(3)}, 3)
        seq_b_labels = make_labels({f: [(1, 1000.0, 0.0)] for f in range(3)})
        b_spec = {0: [(5, 1000.1, 0.0)], 1: [], 2: [(5, 1000.1, 0.0)]}
        seq_b_out = make_outputs(b_spec, 3)

        pooled = hota_pooled([build_frame_tables(seq_a_labels, seq_a_out),
                              build_frame_tables(seq_b_labels, seq_b_out)])

        merged_labels = seq_a_labels + [
            LabeledObject(frame_index=lab.frame_index, track_id=2,
                          box=lab.box) for lab in seq_b_labels]
        merged_outputs = []
        for fa, fb in zip(seq_a_out, seq_b_out):
            entries = list(fa.entries) + [
                TrackEntry(track_id=6, box=e.box, score=e.score,
                           provenance=e.provenance) for e in fb.entries]
            merged_outputs.append(FrameOutput(frame_index=fa.frame_index,
                                              entries=tuple(entries)))
        merged = hota(merged_labels, merged_outputs)
        assert pooled.hota == pytest.approx(merged.hota, abs=1e-12)
        assert pooled.det_a == pytest.approx(merged.det_a, abs=1e-12)
        assert pooled.ass_a == pytest.approx(merged.ass_a, abs=1e-12)


class TestOracleSpotChecks:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 99, 256])
    def test_exact_agreement(self, seed):
        labels, outputs = random_tracking_instance(seed)
        res = hota(labels, outputs)
        oh, od, oa, _ = oracle_hota(labels, outputs)
        assert (res.hota, res.det_a, res.ass_a) == (oh, od, oa)
        cres = clear_mot(labels, outputs)
        om, op, otp, ofp, ofn, oid, ogt = oracle_clear(labels, outputs)
        assert (cres.mota, cres.motp) == (om, op)
        assert (cres.tp, cres.fp, cres.fn, cres.id_switches, cres.gt_total) \
            == (otp, ofp, ofn, oid, ogt)
