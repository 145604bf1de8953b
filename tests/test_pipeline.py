"""Sweep orchestration: config validation, row assembly, determinism."""

import hashlib
import json
import types
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import droptrack
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
from droptrack.detectors import NoiseProfile, noisy_detect, scene_context
from droptrack.energy import ENERGY_PRESETS, estimate_draw_multi
from droptrack.kitti_io import read_frame_outputs
from droptrack.pipeline import write_cell_outputs
from droptrack.scenario import reference_scenario
from droptrack.schedule import DropPattern, build_schedule


BASE_CONFIG = {
    "dataset": {"kind": "reference"},
    "patterns": ["1/1", "1/2"],
    "variants": ["gt"],
    "tracker": {"process_noise": 0.0, "measurement_noise": 0.0},
    "energy": {"default": {"preset": "second"}},
}


# The config in README's "Config file" section, plus a 1/10 override equal
# to the default tracker, which the README drops; the results are the same.
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


def test_star_import_binds_no_module():
    # A star import would otherwise shadow a caller's own `metrics`.
    assert not [name for name in droptrack.__all__
                if isinstance(getattr(droptrack, name), types.ModuleType)]


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = config_from_dict({"patterns": ["1/1"]})
        assert cfg.variants == ("gt",)
        assert cfg.patterns == (DropPattern(1, 1),)
        assert cfg.dataset == {"kind": "reference"}

    def test_named_targets_accepted(self):
        cfg = config_from_dict({"patterns": [90, "75"]})
        assert cfg.patterns == (DropPattern(9, 10), DropPattern(3, 4))

    def test_config_root_must_be_object(self):
        with pytest.raises(ConfigError,
                           match="config root must be a JSON object"):
            config_from_dict([1])

    def test_patterns_required(self):
        with pytest.raises(ConfigError, match="pattern"):
            config_from_dict({})
        with pytest.raises(ConfigError, match="pattern"):
            config_from_dict({"patterns": []})

    def test_bad_pattern_string(self):
        with pytest.raises(ConfigError):
            config_from_dict({"patterns": ["4/3"]})

    @pytest.mark.parametrize("field, data", [
        ("rng_seed", {"rng_seed": 10 ** 5000}),
        ("tracker.process_noise", {"tracker": {"process_noise": 10 ** 5000}}),
    ], ids=["seed", "float-field"])
    def test_integer_past_the_digit_limit_is_a_config_error(self, field,
                                                            data):
        # Only a Python caller can pass one: the JSON reader refuses the
        # literal. The refusal names the field and the integer's size.
        with pytest.raises(ConfigError) as info:
            config_from_dict({"patterns": ["1/1"], **data})
        assert str(info.value).startswith(f"{field}: expected ")
        assert str(info.value).endswith(
            "got an integer of more than 4300 digits")

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
            with pytest.raises(ConfigError,
                               match=r'unknown config keys \["jobs"\]'):
                config_from_dict({"patterns": ["1/1"], "jobs": jobs})
        with pytest.raises(ConfigError,
                           match=r'unknown config keys \["seed", "variant"\]'):
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
        with pytest.raises(ConfigError, match='field "nope"'):
            config_from_dict({"patterns": ["1/1"],
                              "tracker_overrides": {"1/4": {"nope": 1}}})

    def test_target_labels(self):
        assert target_label(DropPattern(1, 1)) == "100"
        assert target_label(DropPattern(9, 10)) == "90"
        assert target_label(DropPattern(2, 5)) == "2/5"


class TestRunOnce:
    def test_reference_full_rate(self):
        cfg = make_config(patterns=["1/1"])
        row, outputs = run_once(cfg, "gt", DropPattern(1, 1))
        assert row.variant == "gt"
        assert row.target == "100"
        assert row.effective_target == 100.0
        assert row.processed_frames == 200
        assert row.hota > 99.0
        assert row.mota > 99.0
        assert row.draw_watts == pytest.approx(270.0, abs=1e-9)
        assert row.yield_w_per_pt is None
        assert set(outputs) == {"reference"}
        assert len(outputs["reference"]) == 200

    def test_repeated_sequence_id_rejected(self):
        # Detections and outputs are keyed by sequence id: a second
        # sequence under the first one's id would be detected from its
        # labels, and only one sequence's outputs would come back.
        seq = reference_scenario()
        other = replace(seq, frame_count=10, labels=tuple(
            lab for lab in seq.labels if lab.frame_index < 10))
        with pytest.raises(ComputationError,
                           match="sequence id 'reference' repeats"):
            run_once(make_config(), "gt", DropPattern(1, 1), [seq, other])
        _, outputs = run_once(make_config(), "gt", DropPattern(1, 1),
                              [seq, replace(other, sequence_id="other")])
        assert {k: len(v) for k, v in outputs.items()} \
            == {"reference": 200, "other": 10}

    def test_draw_absent_without_energy_config(self):
        cfg = config_from_dict({"patterns": ["1/1"],
                                "tracker": {"process_noise": 0.0,
                                            "measurement_noise": 0.0}})
        row, _ = run_once(cfg, "gt", DropPattern(1, 1))
        assert row.draw_watts is None

    @pytest.mark.parametrize("variant", ["oracle", "noisy:nope"])
    def test_unknown_variant_rejected(self, variant):
        cfg = make_config()
        with pytest.raises(ConfigError, match=f'variant "{variant}"'):
            run_once(cfg, variant, DropPattern(1, 1))

    def test_half_rate_processes_half(self):
        cfg = make_config()
        row, _ = run_once(cfg, "gt", DropPattern(1, 2))
        assert row.processed_frames == 100
        assert row.effective_target == 50.0
        assert row.hota < 100.0

    def test_schedules_with_partial_blocks_pool_over_sequences(self,
                                                                tmp_path):
        # 9/10 over 21 and 7 frames: each sequence ends in a partial block,
        # processing 19 and 7 frames, 26 of 28 in all.
        for seq_id, length in (("a", 21), ("b", 7)):
            (tmp_path / f"{seq_id}.txt").write_text("".join(
                f"{f} 1 Car 0 0 -10 0 0 50 50 1.50 1.80 4.20 2.00 1.65 "
                f"{10.0 + f:.2f} 0.10\n" for f in range(length)))
        cfg = make_config(dataset={"kind": "kitti", "path": str(tmp_path)})
        row, outputs = run_once(cfg, "gt", DropPattern(9, 10))
        assert {k: len(v) for k, v in outputs.items()} == {"a": 21, "b": 7}
        predicted = [(k, f) for k, v in sorted(outputs.items())
                     for f, out in enumerate(v) for e in out.entries
                     if e.provenance == "predicted"]
        assert predicted == [("a", 9), ("a", 19)]
        assert row.processed_frames == 26
        assert row.effective_target == 100 * 26 / 28
        assert row.draw_watts == estimate_draw_multi(
            ENERGY_PRESETS["second"],
            [build_schedule(DropPattern(9, 10), n) for n in (21, 7)])

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
        rows = run_sweep(cfg)
        assert len(rows) == 3
        by_target = {row.target: row for row in rows}
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
        rows = run_sweep(cfg)
        assert [row.target for row in rows] == ["50", "100"]

    def test_yield_needs_energy(self):
        cfg = config_from_dict({"patterns": ["1/1", "1/2"],
                                "tracker": {"process_noise": 0.0,
                                            "measurement_noise": 0.0}})
        rows = run_sweep(cfg)
        assert all(row.yield_w_per_pt is None for row in rows)
        assert all(row.draw_watts is None for row in rows)

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
        assert c[0].hota != a[0].hota

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

    def test_sweep_equals_cells_detected_alone(self, tmp_path, monkeypatch):
        cfg = config_from_dict(dict(README_CONFIG,
                                    patterns=["1/1", "9/10", "1/2", "1/10"]))
        # Each cell's exact output bits, by its directory under outputs_dir.
        digests = {"shared": {}, "alone": {}}
        write = pipeline.write_cell_outputs

        def digesting(outputs, out_dir):
            root, *cell_dir = out_dir.relative_to(tmp_path).parts
            digests[root][tuple(cell_dir)] = output_digest(outputs)
            write(outputs, out_dir)
        monkeypatch.setattr(pipeline, "write_cell_outputs", digesting)
        shared = render_sweep_json(run_sweep(cfg,
                                             outputs_dir=tmp_path / "shared"))

        alone = pipeline.run_once

        def own_detector(config, variant, pattern, sequences=None,
                         detect=None):
            return alone(config, variant, pattern, sequences)
        monkeypatch.setattr(pipeline, "run_once", own_detector)
        assert render_sweep_json(run_sweep(
            cfg, outputs_dir=tmp_path / "alone")) == shared
        assert len(digests["shared"]) == 8
        assert digests["alone"] == digests["shared"]

    @pytest.mark.parametrize("patterns, frames", [
        (README_CONFIG["patterns"], 200), (["1/2", "1/4"], 100)])
    def test_each_processed_frame_detected_once(self, monkeypatch, patterns,
                                                frames):
        calls = {"gt": [], "noisy": []}

        def counting(name, detect):
            def wrapper(labels, *args):
                calls[name].append(args[2] if args else None)
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

    @settings(max_examples=25, deadline=None)
    @example(seed=0, frame=0)
    @example(seed=2**63, frame=101)
    @example(seed=2**64 - 1, frame=199)
    @given(seed=st.integers(0, 2**64 - 1), frame=st.integers(0, 199))
    def test_run_seed_reaches_the_draw_unchanged(self, seed, frame):
        # The config's rng_seed is the one noise seed: a noisy variant
        # draws with it as given, with no offset and no modulus.
        cfg = config_from_dict(dict(README_CONFIG, rng_seed=seed))
        seq = reference_scenario()
        direct = noisy_detect(seq.labels_by_frame()[frame],
                              cfg.profiles["field"], seed, frame,
                              seq.sequence_id, scene_context(list(seq.labels)))
        assert variant_detector(cfg, "noisy:field")(seq, frame) == direct

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


def test_readme_sweep_runs_no_hungarian(hungarian_runs):
    # Every frame the README sweep matches, in the tracker, HOTA and
    # CLEAR, is conflict-free, so the gated assignment never needs the
    # solver.
    assert len(run_sweep(config_from_dict(README_CONFIG))) == 12
    assert hungarian_runs == []


class TestReports:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = make_config()
        a = run_sweep(cfg)
        b = run_sweep(make_config())
        assert render_sweep_csv(a) == render_sweep_csv(b)
        assert render_sweep_json(a) == render_sweep_json(b)
        for name in ("sweep_csv", "sweep_json"):
            written = [write_report(r, tmp_path / d)[name].read_bytes()
                       for r, d in ((a, "a"), (b, "b"))]
            assert written[0] == written[1]

    def test_write_report_files(self, tmp_path):
        rows = run_sweep(make_config(patterns=["1/1"]))
        paths = write_report(rows, tmp_path / "out")
        assert sorted(p.name for p in paths.values()) \
            == ["sweep.csv", "sweep.json"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) \
            == ["sweep.csv", "sweep.json"]
        payload = json.loads(paths["sweep_json"].read_text())
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["variant"] == "gt"
        assert row["yield_w_per_pt"] is None
        header = paths["sweep_csv"].read_text().splitlines()[0]
        assert header.startswith("variant,target,effective_target,hota")

    def test_csv_blank_for_missing_yield(self):
        row = MetricsRow(variant="gt", target="100", effective_target=100.0,
                         hota=99.5, det_a=99.5, ass_a=99.5, mota=99.0,
                         motp=100.0, processed_frames=200, draw_watts=None)
        body = render_sweep_csv((row,)).splitlines()[1]
        assert body.endswith(",,")

    def test_cell_outputs_round_trip(self, tmp_path):
        cfg = make_config(patterns=["1/2"])
        _, outputs = run_once(cfg, "gt", DropPattern(1, 2))
        write_cell_outputs(outputs, tmp_path)
        stored = read_frame_outputs(tmp_path / "reference.txt")
        original = outputs["reference"]
        assert len(stored) == len(original) == 200
        provs = {e.provenance for out in stored for e in out.entries}
        assert provs == {"updated", "predicted"}


def output_digest(outputs_per_sequence):
    """sha256 over every output entry of a cell: (frame, id, provenance,
    score, cx, cy, cz, length, width, height, yaw), floats by repr, so one
    changed bit changes it."""
    h = hashlib.sha256()
    for seq_id in sorted(outputs_per_sequence):
        for f, out in enumerate(outputs_per_sequence[seq_id]):
            for e in out.entries:
                b = e.box
                h.update(repr((f, e.track_id, e.provenance,
                               e.score, b.cx, b.cy, b.cz, b.length, b.width,
                               b.height, b.yaw)).encode() + b"\n")
    return h.hexdigest()


class TestOutputsPinned:
    """Every output bit of three reference cells: two `gt` cells with the
    README tracker settings, and a cell with the README noise profile and
    `min_hits_to_confirm` 2, whose clutter starts tentative tracks that
    die. The filter does plain float arithmetic, so these hold under any
    BLAS build or kernel (CI reruns them with OPENBLAS_CORETYPE set); `gt`
    draws no random numbers, and the noisy detector draws from numpy's
    seeded generator, not through BLAS."""

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
        _, outputs = run_once(cfg, "gt", cfg.patterns[0])
        assert output_digest(outputs) == digest

    def test_noisy_output_digest(self):
        # Confirmation after 2 hits, so a clutter track dies tentative
        # (14 do here) and its one-hit frames are never output.
        cfg = config_from_dict({
            "patterns": ["1/2"],
            "variants": ["noisy:field"],
            "profiles": README_CONFIG["profiles"],
            "tracker": {"measurement_noise": 0.05, "min_hits_to_confirm": 2},
            "rng_seed": 7})
        _, outputs = run_once(cfg, "noisy:field", cfg.patterns[0])
        entries = [e for frames in outputs.values() for out in frames
                   for e in out.entries]
        assert len(entries) == 1180
        assert sum(e.provenance == "predicted" for e in entries) == 637
        assert output_digest(outputs) == (
            "040dea68c044fe976e2a0f518ad80d9f35098711aabb26b529fc233541fdeb8e")
