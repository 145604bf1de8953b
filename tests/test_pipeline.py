"""Sweep orchestration: config validation, row assembly, determinism."""

import hashlib
import json

import pytest

import droptrack.metrics as metrics
import droptrack.pipeline as pipeline
from droptrack.pipeline import (
    ComputationError,
    ConfigError,
    MetricsRow,
    config_from_dict,
    config_from_json,
    render_sweep_csv,
    render_sweep_json,
    run_once,
    run_sweep,
    target_label,
    variant_detector,
    write_report,
)
from droptrack.detectors import NoiseProfile
from droptrack.kitti_io import read_frame_outputs
from droptrack.pipeline import write_cell_outputs
from droptrack.schedule import DropPattern


BASE_CONFIG = {
    "dataset": {"kind": "reference"},
    "patterns": ["1/1", "1/2"],
    "variants": ["gt"],
    "tracker": {"process_noise": 0.0, "measurement_noise": 0.0},
    "energy": {"default": {"preset": "second"}},
}


# The config in README's "Config file" section.
README_CONFIG = {
    "dataset": {"kind": "reference"},
    "patterns": ["1/1", "9/10", "3/4", "1/2", "1/4", "1/10"],
    "variants": ["gt", "noisy:field"],
    "profiles": {
        "field": {"detection_probability": 0.92, "center_sigma": 0.15,
                  "false_positives_per_frame": 0.1, "score_range": [0.5, 1.0]}
    },
    "tracker": {"measurement_noise": 0.05},
    "tracker_overrides": {"1/10": {"min_hits_to_confirm": 1}},
    "energy": {"default": {"preset": "second"}},
    "rng_seed": 7,
}


def make_config(**overrides):
    data = json.loads(json.dumps(BASE_CONFIG))
    data.update(overrides)
    return config_from_dict(data)


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = config_from_dict({"patterns": ["1/1"]})
        assert cfg.variants == ("gt",)
        assert cfg.patterns == (DropPattern(1, 1),)
        assert cfg.dataset == {"kind": "reference"}
        assert cfg.similarity == "3d-iou"
        assert cfg.clear_threshold == 0.5

    def test_named_targets_accepted(self):
        cfg = config_from_dict({"patterns": [90, "75"]})
        assert cfg.patterns == (DropPattern(9, 10), DropPattern(3, 4))

    def test_patterns_required(self):
        with pytest.raises(ConfigError, match="pattern"):
            config_from_dict({})
        with pytest.raises(ConfigError, match="pattern"):
            config_from_dict({"patterns": []})

    def test_bad_pattern_string(self):
        with pytest.raises(ConfigError):
            config_from_dict({"patterns": ["4/3"]})

    def test_unknown_dataset_kind(self):
        with pytest.raises(ConfigError, match="dataset"):
            config_from_dict({"patterns": ["1/1"],
                              "dataset": {"kind": "waymo"}})

    def test_kitti_requires_path(self):
        with pytest.raises(ConfigError, match="path"):
            config_from_dict({"patterns": ["1/1"],
                              "dataset": {"kind": "kitti"}})

    def test_variant_shape_enforced(self):
        with pytest.raises(ConfigError, match="variant"):
            config_from_dict({"patterns": ["1/1"], "variants": ["perfect"]})

    def test_noisy_variant_requires_profile(self):
        with pytest.raises(ConfigError, match="undefined.*profile"):
            config_from_dict({"patterns": ["1/1"],
                              "variants": ["noisy:mid"]})

    def test_profile_parsing(self):
        cfg = config_from_dict({
            "patterns": ["1/1"],
            "variants": ["gt", "noisy:mid"],
            "profiles": {"mid": {"detection_probability": 0.9,
                                 "center_sigma": 0.2}},
        })
        assert cfg.profiles["mid"].detection_probability == 0.9

    def test_score_range_is_a_pair_of_floats(self):
        # A frozen profile from a config hashes, and equals the same
        # profile built in code.
        cfg = config_from_dict(README_CONFIG)
        field = cfg.profiles["field"]
        assert field.score_range == (0.5, 1.0)
        assert type(field.score_range[1]) is float
        coded = NoiseProfile(detection_probability=0.92, center_sigma=0.15,
                             false_positives_per_frame=0.1,
                             score_range=(0.5, 1.0))
        assert field == coded
        assert hash(field) == hash(coded)

    def test_bad_profile_field_value(self):
        with pytest.raises(ConfigError, match="profile"):
            config_from_dict({
                "patterns": ["1/1"],
                "profiles": {"bad": {"detection_probability": 2.0}},
            })

    def test_jobs_one_is_the_only_tolerated_extra_key(self):
        cfg = config_from_dict({"patterns": ["1/1"], "jobs": 1})
        assert cfg == config_from_dict({"patterns": ["1/1"]})
        for jobs in (2, True, 1.0, "1"):
            with pytest.raises(ConfigError, match=r"unknown config keys \['jobs'\]"):
                config_from_dict({"patterns": ["1/1"], "jobs": jobs})
        with pytest.raises(ConfigError,
                           match=r"unknown config keys \['seed', 'variant'\]"):
            config_from_dict({"patterns": ["1/1"], "jobs": 1, "variant": "gt",
                              "seed": 1})

    def test_unknown_tracker_field(self):
        with pytest.raises(ConfigError, match="unknown tracker"):
            config_from_dict({"patterns": ["1/1"],
                              "tracker": {"kalman_flavor": "ukf"}})

    def test_unknown_energy_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            config_from_dict({"patterns": ["1/1"],
                              "energy": {"default": {"preset": "gpu9000"}}})

    def test_explicit_energy_params(self):
        cfg = config_from_dict({
            "patterns": ["1/1"],
            "energy": {"default": {"idle_draw": 100.0, "active_draw": 200.0,
                                   "inference_time": 0.05}},
        })
        assert cfg.energy["default"].active_draw == 200.0

    def test_config_from_json_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            config_from_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            config_from_json(bad)

    def test_tracker_overrides(self):
        cfg = config_from_dict({
            "patterns": ["1/1", "1/4"],
            "tracker": {"min_hits_to_confirm": 3},
            "tracker_overrides": {"1/4": {"min_hits_to_confirm": 1}},
        })
        for pattern, hits in ((DropPattern(1, 1), 3), (DropPattern(1, 4), 1)):
            tracker = cfg.tracker_overrides.get(pattern, cfg.tracker)
            assert tracker.min_hits_to_confirm == hits
        with pytest.raises(ConfigError, match="unknown fields"):
            config_from_dict({"patterns": ["1/1"],
                              "tracker_overrides": {"1/4": {"nope": 1}}})

    def test_target_labels(self):
        assert target_label(DropPattern(1, 1)) == "100"
        assert target_label(DropPattern(9, 10)) == "90"
        assert target_label(DropPattern(2, 5)) == "2/5"


class TestRunOnce:
    def test_reference_full_rate(self):
        cfg = make_config(patterns=["1/1"])
        cell = run_once(cfg, "gt", DropPattern(1, 1))
        row = cell.row
        assert row.variant == "gt"
        assert row.target == "100"
        assert row.effective_target == 100.0
        assert row.processed_frames == 200
        assert row.hota > 99.0
        assert row.mota > 99.0
        assert row.draw_watts == pytest.approx(270.0, abs=1e-9)
        assert row.yield_w_per_pt is None
        assert set(cell.outputs_per_sequence) == {"reference"}
        assert len(cell.outputs_per_sequence["reference"]) == 200

    def test_draw_absent_without_energy_config(self):
        cfg = config_from_dict({"patterns": ["1/1"],
                                "tracker": {"process_noise": 0.0,
                                            "measurement_noise": 0.0}})
        cell = run_once(cfg, "gt", DropPattern(1, 1))
        assert cell.row.draw_watts is None

    @pytest.mark.parametrize("variant", ["oracle", "noisy:nope"])
    def test_unknown_variant_rejected(self, variant):
        cfg = make_config()
        with pytest.raises(ConfigError, match=f"variant {variant!r}"):
            run_once(cfg, variant, DropPattern(1, 1))

    def test_half_rate_processes_half(self):
        cfg = make_config()
        cell = run_once(cfg, "gt", DropPattern(1, 2))
        assert cell.row.processed_frames == 100
        assert cell.row.effective_target == 50.0
        assert cell.row.hota < 100.0

    def test_frame_tables_built_once_per_sequence(self, monkeypatch):
        # HOTA and CLEAR score the same tables; the reference scenario is
        # one sequence.
        build = metrics.build_frame_tables
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)
        monkeypatch.setattr(metrics, "build_frame_tables", counting)
        run_once(make_config(), "gt", DropPattern(1, 2))
        assert len(calls) == 1


class TestRunSweep:
    def test_row_grid_and_yield_placement(self):
        cfg = make_config(patterns=["1/1", "1/2", "1/4"])
        report = run_sweep(cfg)
        assert len(report.rows) == 3
        by_target = {row.target: row for row in report.rows}
        assert set(by_target) == {"100", "50", "25"}
        assert by_target["100"].yield_w_per_pt is None
        for target in ("50", "25"):
            row = by_target[target]
            base = by_target["100"]
            expected = (base.draw_watts - row.draw_watts) \
                / (base.hota - row.hota)
            assert row.yield_w_per_pt == pytest.approx(expected, abs=1e-12)

    def test_row_order_follows_config(self):
        cfg = make_config(patterns=["1/2", "1/1"])
        report = run_sweep(cfg)
        assert [row.target for row in report.rows] == ["50", "100"]

    def test_yield_needs_energy(self):
        cfg = config_from_dict({"patterns": ["1/1", "1/2"],
                                "tracker": {"process_noise": 0.0,
                                            "measurement_noise": 0.0}})
        report = run_sweep(cfg)
        assert all(row.yield_w_per_pt is None for row in report.rows)
        assert all(row.draw_watts is None for row in report.rows)

    def test_noisy_sweep_deterministic_and_seed_sensitive(self):
        noisy = {
            "patterns": ["1/1"],
            "variants": ["noisy:mid"],
            "profiles": {"mid": {"detection_probability": 0.85,
                                 "center_sigma": 0.25,
                                 "false_positives_per_frame": 0.3,
                                 "score_range": [0.3, 1.0]}},
            "tracker": {"measurement_noise": 0.05},
        }
        a = run_sweep(config_from_dict(noisy))
        b = run_sweep(config_from_dict(noisy))
        assert render_sweep_json(a) == render_sweep_json(b)
        reseeded = dict(noisy, rng_seed=99)
        c = run_sweep(config_from_dict(reseeded))
        assert c.rows[0].hota != a.rows[0].hota

    def test_cell_failure_names_the_cell(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")
        monkeypatch.setattr(pipeline, "hota_pooled", boom)
        cfg = make_config(patterns=["1/2"])
        with pytest.raises(ComputationError, match=r"variant=gt pattern=1/2"):
            run_sweep(cfg)


class TestSharedDetections:
    """A variant's cells share its detector, whose detections do not depend
    on the pattern."""

    def test_sweep_equals_cells_detected_alone(self, monkeypatch):
        cfg = config_from_dict(dict(README_CONFIG,
                                    patterns=["1/1", "9/10", "1/2", "1/10"]))
        shared = render_sweep_json(run_sweep(cfg))
        cells = {(variant, pattern): output_digest(cell)
                 for variant, pattern, cell
                 in pipeline.run_cells(cfg, pipeline.load_sequences(cfg))}

        alone = pipeline.run_once

        def own_detector(config, variant, pattern, sequences=None,
                         detect=None):
            return alone(config, variant, pattern, sequences)
        monkeypatch.setattr(pipeline, "run_once", own_detector)
        assert render_sweep_json(run_sweep(cfg)) == shared
        for (variant, pattern), digest in cells.items():
            assert output_digest(alone(cfg, variant, pattern)) == digest

    @pytest.mark.parametrize("patterns, frames", [
        (README_CONFIG["patterns"], 200), (["1/2", "1/4"], 100)])
    def test_each_processed_frame_detected_once(self, monkeypatch, patterns,
                                                frames):
        calls = {"gt": [], "noisy": []}

        def counting(name, detect):
            def wrapper(labels, *args):
                calls[name].append(args[1] if args else None)
                return detect(labels, *args)
            return wrapper
        monkeypatch.setattr(pipeline, "gt_detect",
                            counting("gt", pipeline.gt_detect))
        monkeypatch.setattr(pipeline, "noisy_detect",
                            counting("noisy", pipeline.noisy_detect))
        run_sweep(config_from_dict(dict(README_CONFIG, patterns=patterns)))
        # Frames no pattern processes are never detected.
        assert len(calls["gt"]) == frames
        assert len(calls["noisy"]) == frames
        assert len(set(calls["noisy"])) == frames

    def test_scene_context_only_for_noisy_misses(self, monkeypatch):
        built = []
        context = pipeline.scene_context

        def counting(labels):
            built.append(labels)
            return context(labels)
        monkeypatch.setattr(pipeline, "scene_context", counting)
        cfg = config_from_dict(README_CONFIG)
        sequences = pipeline.load_sequences(cfg)
        run_once(cfg, "gt", DropPattern(1, 2), sequences)
        assert built == []
        run_once(cfg, "noisy:field", DropPattern(1, 2), sequences)
        # From the whole sequence's labels, never from one frame's.
        assert built == [list(sequences[0].labels)]
        detect = variant_detector(cfg, "noisy:field")
        run_once(cfg, "noisy:field", DropPattern(1, 2), sequences, detect)
        run_once(cfg, "noisy:field", DropPattern(1, 4), sequences, detect)
        assert len(built) == 2


class TestReports:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = make_config()
        a = run_sweep(cfg)
        b = run_sweep(make_config())
        assert render_sweep_csv(a) == render_sweep_csv(b)
        assert render_sweep_json(a) == render_sweep_json(b)
        tradeoff = [write_report(r, tmp_path / name)["tradeoff_csv"]
                    for r, name in ((a, "a"), (b, "b"))]
        assert tradeoff[0].read_bytes() == tradeoff[1].read_bytes()

    def test_write_report_files(self, tmp_path):
        report = run_sweep(make_config(patterns=["1/1"]))
        paths = write_report(report, tmp_path / "out")
        assert sorted(p.name for p in paths.values()) \
            == ["sweep.csv", "sweep.json", "tradeoff.csv"]
        payload = json.loads(paths["sweep_json"].read_text())
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["variant"] == "gt"
        assert row["yield_w_per_pt"] is None
        header = paths["sweep_csv"].read_text().splitlines()[0]
        assert header.startswith("variant,target,effective_target,hota")
        assert paths["tradeoff_csv"].read_text() == (
            "variant,target,draw_watts,hota\n"
            f"gt,100,270.000000,{row['hota']:.6f}\n")

    def test_csv_blank_for_missing_yield(self):
        row = MetricsRow(variant="gt", target="100", effective_target=100.0,
                         hota=99.5, det_a=99.5, ass_a=99.5, mota=99.0,
                         motp=100.0, processed_frames=200, draw_watts=None)
        report = pipeline.SweepReport(rows=(row,))
        body = render_sweep_csv(report).splitlines()[1]
        assert body.endswith(",,")

    def test_cell_outputs_round_trip(self, tmp_path):
        cfg = make_config(patterns=["1/2"])
        cell = run_once(cfg, "gt", DropPattern(1, 2))
        write_cell_outputs(cell, tmp_path)
        stored = read_frame_outputs(tmp_path / "reference.txt")
        original = cell.outputs_per_sequence["reference"]
        assert len(stored) == len(original) == 200
        provs = {e.provenance for out in stored for e in out.entries}
        assert provs == {"updated", "predicted"}


def output_digest(result):
    """sha256 over every output entry of a cell: (frame, id, provenance,
    score, cx, cy, cz, length, width, height, yaw), floats by repr, so one
    changed bit changes it."""
    h = hashlib.sha256()
    for seq_id in sorted(result.outputs_per_sequence):
        for out in result.outputs_per_sequence[seq_id]:
            for e in out.entries:
                b = e.box
                h.update(repr((out.frame_index, e.track_id, e.provenance,
                               e.score, b.cx, b.cy, b.cz, b.length, b.width,
                               b.height, b.yaw)).encode() + b"\n")
    return h.hexdigest()


class TestOutputsPinned:
    """Every output bit of two reference cells with the README tracker
    settings. The filter does plain float arithmetic, so these hold under
    any BLAS build or kernel (CI reruns them with OPENBLAS_CORETYPE set);
    `gt` draws no random numbers."""

    @pytest.mark.parametrize("pattern, digest", [
        ("1/2", "66fb09f302b4ba8550a08f6a"
                "48edaea7c103881b92d66df90ac55bff63a22692"),
        ("1/10", "7fe4a2ac91a7c31b7f76c077"
                 "04faaafdcb84b26b43a3b75c384ca7613f4f0bc8"),
    ])
    def test_gt_output_digest(self, pattern, digest):
        cfg = config_from_dict({
            "patterns": [pattern],
            "tracker": {"measurement_noise": 0.05},
            "tracker_overrides": {"1/10": {"min_hits_to_confirm": 1}}})
        result = run_once(cfg, "gt", cfg.patterns[0])
        assert output_digest(result) == digest
