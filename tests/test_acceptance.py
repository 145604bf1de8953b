"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the summary
lines on passing runs as well). Each test is independent and prints
`[acceptance] criterion N (<label>): PASS/FAIL`.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from droptrack.energy import EnergyParams, estimate_draw_multi, yield_metric
from droptrack.geometry import OrientedBox, bev_iou
from droptrack.metrics import build_frame_tables, clear_mot, hota
from droptrack.pipeline import (config_from_dict, render_sweep_csv,
                                render_sweep_json, run_sweep, write_report)
from droptrack.schedule import (FRAME_PERIOD, TARGET_PATTERNS, DropPattern,
                                build_schedule, parse_pattern)
from droptrack.tracker import (MATCH_EPS, Detection, Tracker, TrackerConfig,
                               gated_assignment)

from oracles import (eligible_triples, enumerate_assignment, mc_bev_iou,
                     oracle_clear, oracle_hota, random_tracking_instance,
                     simulate_draw_1ms)


@contextmanager
def _criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {num} ({label}): PASS ({elapsed:.1f} s)")


def test_c01_metric_oracle_equivalence():
    with _criterion(1, "hota/clear exact vs exhaustive oracles"):
        t0 = time.perf_counter()
        for seed in range(1000):
            labels, outputs = random_tracking_instance(seed)
            got = hota(build_frame_tables(labels, outputs))
            exp_h, exp_d, exp_a, exp_alpha = oracle_hota(labels, outputs)
            assert got.hota == exp_h
            assert got.det_a == exp_d
            assert got.ass_a == exp_a
            assert got.per_alpha == exp_alpha
            clr = clear_mot(build_frame_tables(labels, outputs))
            exp = oracle_clear(labels, outputs)
            assert (clr.mota, clr.motp, clr.tp, clr.fp, clr.fn,
                    clr.id_switches, clr.gt_total) == exp
        assert time.perf_counter() - t0 < 60.0


def test_c02_geometry_oracle():
    with _criterion(2, "bev_iou vs monte-carlo oracle"):
        t0 = time.perf_counter()

        def flat(cx, cy, length, width, yaw=0.0):
            return OrientedBox(cx=cx, cy=cy, cz=0.0, length=length,
                               width=width, height=1.0, yaw=yaw)

        # Analytic axis-aligned cases are exact in double arithmetic.
        assert bev_iou(flat(0, 0, 2, 2), flat(0, 0, 2, 2)) == 1.0
        assert bev_iou(flat(0, 0, 2, 2), flat(10, 0, 2, 2)) == 0.0
        assert bev_iou(flat(0, 0, 2, 2), flat(2, 0, 2, 2)) == 0.0
        assert bev_iou(flat(0, 0, 2, 2), flat(1, 0, 2, 2)) == 1.0 / 3.0
        assert bev_iou(flat(0, 0, 4, 4), flat(0, 0, 1, 1)) == 1.0 / 16.0
        rotated = bev_iou(flat(0, 0, 1, 1), flat(0, 0, 1, 1, math.pi / 4))
        assert abs(rotated - math.sqrt(2) / 2) < 1e-12

        worst = 0.0
        for i in range(1000):
            rng = np.random.default_rng(7000 + i)
            a = flat(rng.uniform(-3, 3), rng.uniform(-3, 3),
                     rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0),
                     rng.uniform(-math.pi, math.pi))
            b = flat(rng.uniform(-3, 3), rng.uniform(-3, 3),
                     rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0),
                     rng.uniform(-math.pi, math.pi))
            err = abs(bev_iou(a, b) - mc_bev_iou(a, b, seed=i))
            worst = max(worst, err)
            assert err <= 1e-2
        assert time.perf_counter() - t0 < 120.0


# Published trade-off rows for four lidar detectors at the six processing
# targets (100/90/75/50/25/10 percent): measured HOTA, median system draw
# in watts, and the printed draw-per-HOTA-point yield column.
REPORTED_TRADEOFFS = {
    "point_rcnn": {
        "hota": (72.3, 71.0, 69.5, 66.8, 56.5, 42.7),
        "draw": (304.0, 290.0, 271.0, 240.0, 204.0, 180.0),
        "yield": (None, 11.3, 12.1, 11.7, 6.4, 4.2),
    },
    "pv_rcnn": {
        "hota": (77.9, 77.3, 75.5, 72.6, 62.5, 46.1),
        "draw": (314.0, 306.0, 286.0, 253.0, 210.0, 178.0),
        "yield": (None, 14.6, 12.1, 11.7, 6.8, 4.3),
    },
    "second": {
        "hota": (77.1, 75.7, 73.6, 72.0, 60.9, 44.5),
        "draw": (270.0, 254.0, 228.0, 194.0, 172.0, 156.0),
        "yield": (None, 11.7, 12.1, 15.0, 6.1, 3.5),
    },
    "pointpillars": {
        "hota": (74.9, 74.0, 72.5, 70.2, 59.4, 42.8),
        "draw": (213.0, 208.0, 199.0, 184.0, 164.0, 155.0),
        "yield": (None, 6.5, 6.2, 6.2, 3.2, 1.8),
    },
}


def test_c03_yield_arithmetic_matches_reported_rows():
    with _criterion(3, "yield recomputation from published rows"):
        for model, rows in REPORTED_TRADEOFFS.items():
            baseline = (rows["draw"][0], rows["hota"][0])
            for k, printed in enumerate(rows["yield"]):
                if printed is None:
                    continue
                got = yield_metric(baseline,
                                   (rows["draw"][k], rows["hota"][k]))
                assert abs(got - printed) <= 1.5, (model, k, got, printed)
        second_half = yield_metric((270.0, 77.1), (194.0, 72.0))
        assert abs(second_half - 14.9) <= 0.1


def test_c04_gt_trend_on_reference_scenario():
    with _criterion(4, "gt degradation trend on reference scenario"):
        t0 = time.perf_counter()
        config = config_from_dict({
            "dataset": {"kind": "reference"},
            "patterns": [100, 90, 75, 50, 25, 10],
            "variants": ["gt"],
            "tracker": {"process_noise": 0.0, "measurement_noise": 0.0},
        })
        rows = run_sweep(config)
        assert [row.target for row in rows] \
            == ["100", "90", "75", "50", "25", "10"]

        full = rows[0]
        assert full.hota >= 99.0
        hotas = [row.hota for row in rows]
        assert all(a >= b for a, b in zip(hotas, hotas[1:]))

        for row in rows:
            if int(row.target) > 50:
                continue
            mota_decline = (full.mota - row.mota) / full.mota
            motp_decline = (full.motp - row.motp) / full.motp
            assert motp_decline < mota_decline, row.target
        assert time.perf_counter() - t0 < 60.0


def test_c05_prediction_bridges_five_frame_gap():
    with _criterion(5, "exact prediction across a 5-frame drop gap"):
        config = TrackerConfig(process_noise=0.0, measurement_noise=0.0)
        tracker = Tracker(config)
        vx, dt = 3.0, FRAME_PERIOD

        def truth(frame):
            return OrientedBox(cx=vx * dt * frame, cy=0.0, cz=0.75,
                               length=4.5, width=1.8, height=1.5, yaw=0.0)

        dropped = range(4, 9)
        track_ids = set()
        for frame in range(13):
            if frame in dropped:
                before = [(t.track_id, t.hits, t.consecutive_misses)
                          for t in tracker.live_tracks()]
                out = tracker.step(None)
                after = [(t.track_id, t.hits, t.consecutive_misses)
                         for t in tracker.live_tracks()]
                assert before == after
                assert [e.provenance for e in out.entries] == ["predicted"]
            else:
                out = tracker.step([Detection(box=truth(frame), score=1.0)])
                assert [e.provenance for e in out.entries] == ["updated"]
            assert len(out.entries) == 1
            entry = out.entries[0]
            track_ids.add(entry.track_id)
            expected = truth(frame)
            assert abs(entry.box.cx - expected.cx) < 1e-6
            assert abs(entry.box.cy - expected.cy) < 1e-6
            assert abs(entry.box.cz - expected.cz) < 1e-6
        assert len(track_ids) == 1


def test_c06_energy_model_matches_simulation():
    with _criterion(6, "duty-cycle draw vs 1 ms event simulation"):
        rng = np.random.default_rng(606)
        # The first 30 cases stretch the frame: inference outlasts
        # FRAME_PERIOD (100 ms).
        for case in range(100):
            if case < 30:
                infer_ms = int(rng.integers(101, 301))
            else:
                infer_ms = int(rng.integers(1, 101))
            idle = float(rng.uniform(20.0, 200.0))
            active = idle + float(rng.uniform(5.0, 300.0))
            params = EnergyParams(idle_draw=idle, active_draw=active,
                                  inference_time=infer_ms / 1000.0)
            m = int(rng.integers(1, 11))
            pattern = DropPattern(int(rng.integers(1, m + 1)), m)
            schedule = build_schedule(pattern, int(rng.integers(10, 200)))
            draw = estimate_draw_multi(params, [schedule])
            assert abs(draw - simulate_draw_1ms(params, schedule)) <= 0.1
            assert idle <= draw <= active


def test_c07_scheduler_closed_form_and_named_targets():
    with _criterion(7, "processed-count closed form, named targets"):
        for m in range(1, 13):
            for n in range(1, m + 1):
                pattern = DropPattern(n, m)
                for length in range(1, 201):
                    flags = build_schedule(pattern, length)
                    expected = (length // m) * n + min(length % m, n)
                    assert len(flags) == length
                    assert sum(flags) == expected
                    processed = [i for i, flag in enumerate(flags) if flag]
                    assert processed == [i for i in range(length)
                                         if i % m < n]
                    assert len(processed) == expected
        assert TARGET_PATTERNS == {100: (1, 1), 90: (9, 10), 75: (3, 4),
                                   50: (1, 2), 25: (1, 4), 10: (1, 10)}
        for target, (n, m) in TARGET_PATTERNS.items():
            assert parse_pattern(str(target)) == DropPattern(n, m)


def test_c08_sweep_determinism(tmp_path):
    with _criterion(8, "byte-identical repeated sweeps"):
        config_data = {
            "dataset": {"kind": "reference"},
            "patterns": ["1/1", "1/2", "1/10"],
            "variants": ["gt", "noisy:field"],
            "profiles": {"field": {"detection_probability": 0.9,
                                   "center_sigma": 0.25,
                                   "yaw_sigma": 0.05,
                                   "false_positives_per_frame": 0.2,
                                   "score_range": [0.5, 1.0]}},
            "tracker": {"measurement_noise": 0.05},
            "energy": {"default": {"preset": "second"}},
            "rng_seed": 12345,
        }
        first = run_sweep(config_from_dict(config_data))
        second = run_sweep(config_from_dict(config_data))
        assert render_sweep_csv(first) == render_sweep_csv(second)
        assert render_sweep_json(first) == render_sweep_json(second)
        paths_a = write_report(first, tmp_path / "a")
        paths_b = write_report(second, tmp_path / "b")
        for name in paths_a:
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes()


def test_c09_assignment_matches_permutation_search():
    with _criterion(9, "gated assignment vs permutation search"):
        for seed in range(500):
            rng = np.random.default_rng(seed)
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            scores = rng.uniform(0.0, 1.0, shape)
            gate = 0.0 if seed % 2 == 0 else 0.35
            assert set(gated_assignment(scores.shape, eligible_triples(
                scores, scores >= gate - MATCH_EPS))) \
                == enumerate_assignment(scores, gate)
