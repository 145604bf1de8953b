"""CLEAR and HOTA scoring: hand-computable cases, definitional invariants,
and spot agreement with the exhaustive oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droptrack import geometry, metrics, tracker
from droptrack.geometry import SIMILARITY_FNS, LabeledObject, OrientedBox
from droptrack.metrics import (
    ALPHA_GRID,
    MATCH_EPS,
    NoGroundTruthError,
    build_frame_tables,
    clear_mot,
    clear_pooled,
    hota,
    hota_pooled,
)
from droptrack.pipeline import config_from_dict, load_sequences, run_once
from droptrack.schedule import DropPattern
from droptrack.tracker import FrameOutput, TrackEntry

from oracles import (dense_frame_table, oracle_clear, oracle_hota,
                     per_alpha_hota_pooled, random_tracking_instance,
                     reference_frame_tables)
from strategies import box_pairs, random_boxes


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
        res = hota(build_frame_tables(labels, outputs))
        assert res.hota == 100.0
        assert res.det_a == 100.0
        assert res.ass_a == 100.0

    def test_clear_exactly_100(self):
        labels, outputs = perfect_instance()
        res = clear_mot(build_frame_tables(labels, outputs))
        assert res.mota == 100.0
        assert res.motp == 100.0
        assert res.id_switches == 0
        assert res.fp == 0 and res.fn == 0
        assert res.tp == res.gt_total == 10

    def test_per_alpha_rows_all_perfect(self):
        labels, outputs = perfect_instance()
        res = hota(build_frame_tables(labels, outputs))
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
        res = clear_mot(build_frame_tables(labels, outputs))
        assert res.gt_total == 10
        assert res.fn == 1 and res.fp == 0 and res.id_switches == 0
        assert res.mota == pytest.approx(90.0, abs=1e-12)

    def test_id_swap_two_objects(self):
        # Two objects, two frames; predicted ids trade places in frame 1.
        labels = make_labels({0: [(1, 0.0, 0.0), (2, 10.0, 0.0)],
                              1: [(1, 0.0, 0.0), (2, 10.0, 0.0)]})
        outputs = make_outputs({0: [(21, 0.0, 0.0), (22, 10.0, 0.0)],
                                1: [(22, 0.0, 0.0), (21, 10.0, 0.0)]}, 2)
        res = clear_mot(build_frame_tables(labels, outputs))
        assert res.id_switches == 2
        assert res.tp == 4 and res.fn == 0 and res.fp == 0
        assert res.mota == pytest.approx(50.0, abs=1e-12)
        assert res.motp == pytest.approx(100.0, abs=1e-12)

    def test_below_threshold_is_miss_plus_clutter(self):
        labels = make_labels({0: [(1, 0.0, 0.0)]})
        outputs = make_outputs({0: [(9, 0.8, 0.0)]}, 1)  # IoU 0.4286
        res = clear_mot(build_frame_tables(labels, outputs))
        assert (res.tp, res.fn, res.fp) == (0, 1, 1)
        assert res.mota == pytest.approx(-100.0, abs=1e-12)
        loose = clear_mot(build_frame_tables(labels, outputs),
                          match_threshold=0.4)
        assert loose.tp == 1
        assert loose.motp == pytest.approx(100.0 * 1.2 / 2.8, abs=1e-9)

    def test_match_exactly_at_threshold(self):
        # Offset 2/3 on 2x2 squares gives IoU 0.5; the epsilon slack must
        # keep the boundary case matched despite float rounding.
        labels = make_labels({0: [(1, 0.0, 0.0)]})
        outputs = make_outputs({0: [(9, 2.0 / 3.0, 0.0)]}, 1)
        res = clear_mot(build_frame_tables(labels, outputs))
        assert res.tp == 1
        assert res.motp == pytest.approx(50.0, abs=1e-9)

    def test_carryover_prefers_continuity(self):
        # Frame 1 offers a better-overlapping new candidate, but the
        # previous partner still clears the threshold, so CLEAR keeps it:
        # no switch, the newcomer counts as clutter.
        labels = make_labels({0: [(1, 0.0, 0.0)], 1: [(1, 0.0, 0.0)]})
        outputs = make_outputs({0: [(5, 0.4, 0.0)],
                                1: [(5, 0.5, 0.0), (6, 0.0, 0.0)]}, 2)
        res = clear_mot(build_frame_tables(labels, outputs))
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
        res = clear_mot(build_frame_tables(labels, outputs))
        assert res.id_switches == 1
        assert res.fn == 1


class TestHota:
    def test_empty_predictions_score_zero(self):
        labels = make_labels({f: [(1, 0.0, 0.0)] for f in range(4)})
        outputs = make_outputs({}, 4)
        res = hota(build_frame_tables(labels, outputs))
        assert res.hota == 0.0
        assert res.det_a == 0.0
        assert res.ass_a == 0.0

    def test_four_frame_swap_matches_oracle_exactly(self):
        labels = make_labels({f: [(1, 0.0, 0.0), (2, 10.0, 0.0)]
                              for f in range(4)})
        out_spec = {f: [(21, 0.0, 0.0), (22, 10.0, 0.0)] for f in range(4)}
        out_spec[3] = [(22, 0.0, 0.0), (21, 10.0, 0.0)]
        outputs = make_outputs(out_spec, 4)
        res = hota(build_frame_tables(labels, outputs))
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
        res = hota(build_frame_tables(labels, outputs))
        for alpha, h, d, a in res.per_alpha:
            assert h == math.sqrt(d * a)

    def test_alpha_grid(self):
        # Exactly k/20 for k = 1..19, as plain floats.
        assert ALPHA_GRID == tuple(k / 20.0 for k in range(1, 20))
        assert all(type(a) is float for a in ALPHA_GRID)

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
        a = hota(build_frame_tables(labels, outputs))
        b = hota(build_frame_tables(labels, renamed))
        assert b.hota == pytest.approx(a.hota, abs=1e-12)
        assert b.det_a == pytest.approx(a.det_a, abs=1e-12)
        assert b.ass_a == pytest.approx(a.ass_a, abs=1e-12)
        ca = clear_mot(build_frame_tables(labels, outputs))
        cb = clear_mot(build_frame_tables(labels, renamed))
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
        full = hota(build_frame_tables(labels, outputs))
        less = hota(build_frame_tables(labels, damaged))
        for (_, _, d_full, _), (_, _, d_less, _) in zip(full.per_alpha,
                                                        less.per_alpha):
            assert d_less <= d_full
        assert less.hota < full.hota


class TestNoGroundTruth:
    def test_hota_raises(self):
        outputs = make_outputs({0: [(1, 0.0, 0.0)]}, 1)
        with pytest.raises(NoGroundTruthError):
            hota(build_frame_tables([], outputs))

    def test_clear_raises(self):
        outputs = make_outputs({0: [(1, 0.0, 0.0)]}, 1)
        with pytest.raises(NoGroundTruthError):
            clear_mot(build_frame_tables([], outputs))


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
        single_h = hota(build_frame_tables(labels, outputs))
        single_c = clear_mot(build_frame_tables(labels, outputs))
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

    def test_motp_sums_sequences_left_to_right(self):
        # One matched pair per sequence, so each sequence's IoU sum is its
        # one IoU. A compensated sum (Python 3.12's sum() of floats) gives
        # the correctly rounded 8.54 here; left to right gives 8.54 + 1 ulp.
        ious = [0.76, 0.822, 0.798, 0.78, 0.81, 0.97, 0.754, 0.716, 0.86,
                0.619, 0.651]
        tables = [[dense_frame_table((1,), (1,), np.array([[iou]]))]
                  for iou in ious]
        result = clear_pooled(tables)
        assert result.tp == 11
        assert math.fsum(ious) == 8.54
        assert result.motp == 77.63636363636365  # 100 * 8.540000000000001 / 11
        assert result.motp != 100.0 * (math.fsum(ious) / 11)

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
        merged = hota(build_frame_tables(merged_labels, merged_outputs))
        assert pooled.hota == pytest.approx(merged.hota, abs=1e-12)
        assert pooled.det_a == pytest.approx(merged.det_a, abs=1e-12)
        assert pooled.ass_a == pytest.approx(merged.ass_a, abs=1e-12)


class TestOracleSpotChecks:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 99, 256])
    def test_exact_agreement(self, seed):
        labels, outputs = random_tracking_instance(seed)
        res = hota(build_frame_tables(labels, outputs))
        oh, od, oa, _ = oracle_hota(labels, outputs)
        assert (res.hota, res.det_a, res.ass_a) == (oh, od, oa)
        cres = clear_mot(build_frame_tables(labels, outputs))
        om, op, otp, ofp, ofn, oid, ogt = oracle_clear(labels, outputs)
        assert (cres.mota, cres.motp) == (om, op)
        assert (cres.tp, cres.fp, cres.fn, cres.id_switches, cres.gt_total) \
            == (otp, ofp, ofn, oid, ogt)


def has_conflict(table):
    """Whether a row or column has two pairs at the lowest alpha."""
    eligible = table.sim >= ALPHA_GRID[0] - MATCH_EPS
    return bool(eligible.size) and (eligible.sum(axis=0).max() > 1
                                    or eligible.sum(axis=1).max() > 1)


def swap_instance():
    """demos/04's instance: two lanes, output ids swap after frame 1."""
    spec = {f: [(1, float(f), 0.0), (2, float(f), 10.0)] for f in range(4)}
    out_spec = {f: [(11, float(f), 0.0), (12, float(f), 10.0)] if f < 2
                else [(12, float(f), 0.0), (11, float(f), 10.0)]
                for f in range(4)}
    return make_labels(spec), make_outputs(out_spec, 4)


def conflicted_instance():
    """Four frames; on frame 2 two ground-truth boxes overlap one
    prediction."""
    labels = make_labels({f: [(1, 0.0, 0.0)] for f in range(4)}
                         | {2: [(1, 0.0, 0.0), (2, 0.5, 0.0)]})
    return labels, make_outputs({f: [(5, 0.1, 0.0)] for f in range(4)}, 4)


class TestConflictFreeFrames:
    """A frame whose pairs at the lowest alpha share no row or column is
    settled without the assignment front door; any other frame goes
    through it once per alpha."""

    @pytest.fixture
    def front_door_calls(self, monkeypatch):
        calls = []
        real = metrics.gated_assignment

        def counting(shape, pairs):
            calls.append(shape)
            return real(shape, pairs)
        monkeypatch.setattr(metrics, "gated_assignment", counting)
        return calls

    @pytest.mark.parametrize("instance", [
        swap_instance, *[lambda seed=seed: random_tracking_instance(seed)
                         for seed in (0, 1, 2, 3, 7)]],
        ids=["demo04", "seed0", "seed1", "seed2", "seed3", "seed7"])
    def test_conflict_free_tables_need_no_solver(self, front_door_calls,
                                                 instance):
        tables = build_frame_tables(*instance())
        assert not any(has_conflict(t) for t in tables)
        res = hota_pooled([tables])
        assert front_door_calls == []
        assert res == per_alpha_hota_pooled([tables])

    def test_one_conflicted_frame_is_solved_at_each_alpha(self,
                                                          front_door_calls):
        tables = build_frame_tables(*conflicted_instance())
        assert [has_conflict(t) for t in tables] == [False, False, True, False]
        res = hota_pooled([tables])
        assert front_door_calls == [(2, 1)] * len(ALPHA_GRID)
        assert res == per_alpha_hota_pooled([tables])

    def test_hungarian_runs_only_while_a_conflict_stays(self,
                                                        hungarian_runs):
        # demos/04: each frame's pairs share no row or column, in HOTA and
        # in CLEAR's rematching after the swap.
        tables = build_frame_tables(*swap_instance())
        hota(tables)
        clear_mot(tables)
        assert hungarian_runs == []
        # The conflicted frame needs the solver at each alpha that both of
        # its pairs pass, and at no other.
        tables = build_frame_tables(*conflicted_instance())
        hota(tables)
        both = sum(tables[2].sim.min() >= a - MATCH_EPS for a in ALPHA_GRID)
        assert both >= 1
        assert hungarian_runs == [(2, 1)] * both


# Similarities at each alpha and just below it: the gate admits alpha,
# alpha - 1e-13 and alpha - MATCH_EPS itself, but not alpha - 1e-11. Also
# repeated values (tied scores), zero, and anything in [0, 1].
SIM_VALUES = st.one_of(
    st.just(0.0),
    st.sampled_from(ALPHA_GRID).flatmap(lambda a: st.sampled_from(
        [float(a), a - 1e-13, a - MATCH_EPS, a - 1e-11])),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.floats(min_value=0.0, max_value=1.0))


@st.composite
def frame_table(draw):
    gt_ids = tuple(sorted(draw(st.sets(st.integers(0, 5), max_size=4))))
    pred_ids = tuple(sorted(draw(st.sets(st.integers(0, 6), max_size=5))))
    return draw(table_of(gt_ids, pred_ids))


@st.composite
def wide_frame_table(draw):
    """A table whose HOTA sums numpy takes pairwise: 1-3 rows of 8-20
    columns, or one column of 8-20 rows."""
    n, m = draw(st.sampled_from([((1, 3), (8, 20)), ((8, 20), (1, 1))]))
    n, m = draw(st.integers(*n)), draw(st.integers(*m))
    gt_ids = tuple(sorted(draw(st.sets(st.integers(0, 24), min_size=n,
                                       max_size=n))))
    pred_ids = tuple(sorted(draw(st.sets(st.integers(0, 24), min_size=m,
                                         max_size=m))))
    return draw(table_of(gt_ids, pred_ids))


@st.composite
def table_of(draw, gt_ids, pred_ids):
    sim = np.array(draw(st.lists(SIM_VALUES,
                                 min_size=len(gt_ids) * len(pred_ids),
                                 max_size=len(gt_ids) * len(pred_ids))),
                   dtype=float).reshape(len(gt_ids), len(pred_ids))
    # Blank some rows and columns: ids with no overlap at all. (Slices, so
    # that an index drawn for an empty axis selects nothing.)
    for i in draw(st.sets(st.integers(0, max(0, len(gt_ids) - 1)))):
        sim[i:i + 1, :] = 0.0
    for j in draw(st.sets(st.integers(0, max(0, len(pred_ids) - 1)))):
        sim[:, j:j + 1] = 0.0
    return dense_frame_table(gt_ids, pred_ids, sim)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(frame_table(), min_size=1, max_size=5),
                min_size=1, max_size=3))
def test_hota_matches_per_alpha_solver(tables_per_seq):
    if not any(t.gt_ids for tables in tables_per_seq for t in tables):
        for fn in (hota_pooled, per_alpha_hota_pooled):
            with pytest.raises(NoGroundTruthError):
                fn(tables_per_seq)
        return
    # Dataclass equality: hota, det_a, ass_a and every per_alpha row.
    assert hota_pooled(tables_per_seq) == per_alpha_hota_pooled(tables_per_seq)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(frame_table(), wide_frame_table()),
                         min_size=1, max_size=4), min_size=1, max_size=2)
       .filter(lambda seqs: any(t.gt_ids for ts in seqs for t in ts)))
def test_hota_matches_per_alpha_solver_on_wide_tables(tables_per_seq):
    assert hota_pooled(tables_per_seq) == per_alpha_hota_pooled(tables_per_seq)


# Values for numpy's sum order: zeros, which a table leaves out, and
# values over many magnitudes, so that another order changes last bits.
SUM_VALUES = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0),
                       st.floats(min_value=1e-9, max_value=1e-3))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.lists(
           SUM_VALUES, min_size=n, max_size=n)),
       st.sampled_from(["row", "column", "rows", "columns"]))
def test_sums_match_numpy_bit_for_bit(values, layout):
    """`_pairwise_sum` is np.sum; `_axis_sums` of a table's triples is
    `sum(axis=1)` and `sum(axis=0)` of its dense matrix, in a one-row and
    a one-column matrix, and in a 3-row and a 2-column one, from 1 to 300
    entries a line (numpy's pairwise block is 128)."""
    assert tracker._pairwise_sum(values).hex() == float(np.sum(values)).hex()
    dense = np.array(values)
    if layout == "row":
        dense = dense.reshape(1, -1)
    elif layout == "column":
        dense = dense.reshape(-1, 1)
    elif layout == "rows":
        dense = np.stack([dense, dense[::-1], np.roll(dense, 1)])
    else:
        dense = np.stack([dense, dense[::-1]], axis=1)
    table = dense_frame_table(tuple(range(dense.shape[0])),
                              tuple(range(dense.shape[1])), dense)
    rows, cols = metrics._axis_sums(*dense.shape, table.pairs)
    assert [x.hex() for x in rows] == \
        [x.hex() for x in dense.sum(axis=1).tolist()]
    assert [x.hex() for x in cols] == \
        [x.hex() for x in dense.sum(axis=0).tolist()]


# --- bounds prefilter ----------------------------------------------------

@st.composite
def box_sequence(draw):
    """Labels and outputs over 1-4 frames. A frame may be empty, labelled
    with no output, or hold edge-case pairs among random boxes; ids are
    drawn, so tables must sort them."""
    labels, outputs = [], []
    for f in range(draw(st.integers(1, 4))):
        pairs = draw(st.lists(box_pairs(), max_size=3))
        gt = [a for a, _ in pairs] + draw(st.lists(random_boxes, max_size=2))
        pred = [b for _, b in pairs] + draw(st.lists(random_boxes, max_size=2))
        if draw(st.booleans()):
            pred = []
        gt_ids = draw(st.lists(st.integers(0, 40), min_size=len(gt),
                               max_size=len(gt), unique=True))
        pred_ids = draw(st.lists(st.integers(0, 40), min_size=len(pred),
                                 max_size=len(pred), unique=True))
        labels += [LabeledObject(frame_index=f, track_id=i, box=b)
                   for i, b in zip(gt_ids, gt)]
        outputs.append(FrameOutput(frame_index=f, entries=tuple(
            TrackEntry(track_id=j, box=b, score=1.0, provenance="updated")
            for j, b in zip(pred_ids, pred))))
    return labels, outputs


@settings(max_examples=300, deadline=None)
@given(box_sequence())
def test_frame_tables_bit_identical_to_per_pair_loop(sequence):
    labels, outputs = sequence
    for similarity in SIMILARITY_FNS:
        got = build_frame_tables(labels, outputs, similarity)
        want = reference_frame_tables(labels, outputs, similarity)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.gt_ids, g.pred_ids) == (w.gt_ids, w.pred_ids)
            assert g.sim.shape == w.sim.shape
            assert np.array_equal(g.sim, w.sim)


@settings(max_examples=400, deadline=None)
@given(box_pairs())
def test_prefilter_never_rejects_an_overlapping_pair(pair):
    a, b = pair
    labels = [LabeledObject(frame_index=0, track_id=0, box=a)]
    outputs = [FrameOutput(frame_index=0, entries=(
        TrackEntry(track_id=0, box=b, score=1.0, provenance="updated"),))]
    overlap = geometry.footprint_intersection_area
    for similarity, sim_fn in SIMILARITY_FNS.items():
        exact = sim_fn(a, b)
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return overlap(x, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "footprint_intersection_area", counting)
            (table,) = build_frame_tables(labels, outputs, similarity)
        assert table.sim[0, 0] == exact
        if exact > 0.0:
            assert calls == [(a, b)]


class TestPrefilterMechanism:
    def test_exact_overlap_runs_only_on_pairs_within_bounds(self, monkeypatch):
        cfg = config_from_dict({"dataset": {"kind": "reference"},
                                "patterns": ["1/2"]})
        (seq,) = load_sequences(cfg)
        _, by_sequence = run_once(cfg, "gt", DropPattern(1, 2), [seq])
        outputs = by_sequence[seq.sequence_id]
        calls = []
        overlap = geometry.footprint_intersection_area

        def counting(a, b):
            calls.append((a, b))
            return overlap(a, b)
        monkeypatch.setattr(geometry, "footprint_intersection_area", counting)
        tables = build_frame_tables(list(seq.labels), outputs, "3d-iou")

        pairs = sum(t.sim.size for t in tables)
        overlapping = sum(int(np.count_nonzero(t.sim)) for t in tables)
        assert overlapping <= len(calls) < pairs / 4
        for a, b in calls:
            assert math.hypot(a.cx - b.cx, a.cy - b.cy) <= \
                a.footprint_radius + b.footprint_radius
            (alo, ahi), (blo, bhi) = a.z_interval, b.z_interval
            assert min(ahi, bhi) - max(alo, blo) > 0.0
