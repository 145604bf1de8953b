"""Command-line interface: subcommand flows and exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from droptrack import metrics
from droptrack.cli import (EXIT_COMPUTE, EXIT_CONFIG, EXIT_DATASET, EXIT_OK,
                           main)
from droptrack.kitti_io import parse_kitti_labels, read_frame_outputs
from droptrack.metrics import build_frame_tables, clear_pooled, hota_pooled
from droptrack.tracker import Tracker


CONFIG = {
    "dataset": {"kind": "reference"},
    "patterns": ["1/1", "1/2"],
    "variants": ["gt"],
    "tracker": {"process_noise": 0.0, "measurement_noise": 0.0},
    "energy": {"default": {"preset": "second"}},
}


def write_config(tmp_path, **overrides):
    data = dict(CONFIG, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def kitti_label_row(frame, tid, x=2.0, z=10.0):
    fields = [str(frame), str(tid), "Car", "0", "0", "-10",
              "0", "0", "50", "50",
              "1.50", "1.80", "4.20",
              f"{x:.2f}", "1.65", f"{z:.2f}", "0.10"]
    return " ".join(fields)


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def sweep_argv(tmp_path, **overrides):
    return ["sweep", "--config", str(write_config(tmp_path, **overrides))]


def score_range_argv(tmp_path, score_range):
    """sweep with a noisy variant whose profile has this score_range."""
    return sweep_argv(tmp_path, variants=["noisy:p"],
                      profiles={"p": {"score_range": score_range}})


def bad_manifest_argv(tmp_path):
    (tmp_path / "0000.txt").write_text(kitti_label_row(0, 1) + "\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{broken")
    return sweep_argv(tmp_path, dataset={"kind": "kitti", "path": str(tmp_path),
                                         "manifest": str(manifest)})


def eval_argv(tmp_path, output_row=None, label_row=None, sidecar=None,
              extra=()):
    """eval over a 4-frame label file and matching outputs.

    A given output_row or label_row becomes line 5 of its file; a given
    sidecar is written, as JSON, beside the outputs.
    """
    rows = "".join(kitti_label_row(f, 1) + "\n" for f in range(4))
    labels = tmp_path / "0000.txt"
    labels.write_text(rows + (label_row + "\n" if label_row else ""))
    outputs = tmp_path / "out.txt"
    outputs.write_text(rows + (output_row + "\n" if output_row else ""))
    if sidecar is not None:
        (tmp_path / "out.txt.meta.json").write_text(json.dumps(sidecar))
    return ["eval", "--labels", str(labels), "--outputs", str(outputs),
            *extra]


def kitti_sweep_argv(tmp_path, manifest=None, **overrides):
    """sweep over one 4-frame label file, with an optional manifest."""
    (tmp_path / "0000.txt").write_text(
        "".join(kitti_label_row(f, 1) + "\n" for f in range(4)))
    dataset = {"kind": "kitti", "path": str(tmp_path)}
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        dataset["manifest"] = str(tmp_path / "manifest.json")
    return sweep_argv(tmp_path, dataset=dataset, **overrides)


def power_log_argv(tmp_path, text):
    log = tmp_path / "log.csv"
    log.write_text(text)
    return ["energy", "--log", str(log)]


def out_file_argv(tmp_path, command, flag="--out"):
    """`command` with `flag` naming an existing regular file."""
    out = tmp_path / "out-is-a-file"
    out.write_text("")
    if command == "report":
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"rows": []}))
        return ["report", "--sweep", str(sweep), "--out", str(out)]
    return [command, "--pattern", "1/1", flag, str(out)]


def profile_argv(tmp_path, *names):
    """sweep over one noisy variant per profile name, writing each cell's
    outputs under tmp_path/out/cells."""
    profiles = {name: {"detection_probability": 0.5} for name in names}
    return [*sweep_argv(tmp_path, variants=[f"noisy:{n}" for n in names],
                        profiles=profiles),
            "--outputs", str(tmp_path / "out" / "cells")]


def bad_sweep_row_argv(tmp_path, **fields):
    """report over a sweep.json whose second row has the given fields."""
    row = {"variant": "gt", "target": "100", "effective_target": 100.0,
           "hota": 90.0, "det_a": 90.0, "ass_a": 90.0, "mota": 90.0,
           "motp": 90.0, "processed_frames": 200, "draw_watts": None,
           "yield_w_per_pt": None}
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"rows": [row, dict(row, **fields)]}))
    return ["report", "--sweep", str(sweep), "--out", str(tmp_path / "out")]


ENERGY_MODEL = ["energy", "--idle-draw", "150", "--active-draw", "350",
                "--inference-time", "0.05"]


def dataset_typo_argv(tmp_path):
    """sweep over one label file, with the manifest field misspelt."""
    (tmp_path / "0000.txt").write_text(kitti_label_row(0, 1) + "\n")
    (tmp_path / "m.json").write_text(json.dumps({"0000": 2}))
    return sweep_argv(tmp_path, dataset={"kind": "kitti", "path": str(tmp_path),
                                         "manfest": str(tmp_path / "m.json")})


def label_file_argv(tmp_path, **fields):
    """sweep over one label file in tmp_path, with these dataset fields."""
    (tmp_path / "0000.txt").write_text(kitti_label_row(0, 1) + "\n")
    return sweep_argv(tmp_path, dataset={"kind": "kitti", "path": str(tmp_path),
                                         **fields})


@pytest.mark.parametrize("build, code, needle", [
    (lambda p: sweep_argv(p, similarity="nope"), EXIT_CONFIG, "similarity"),
    (lambda p: sweep_argv(p, tracker_overrides={"bogus": {}}), EXIT_CONFIG,
     "tracker_overrides['bogus']"),
    (lambda p: sweep_argv(p, tracker_overrides={"1/2": {"cycle_time": -1}}),
     EXIT_CONFIG, "cycle_time"),
    (lambda p: sweep_argv(p) + ["--jobs", "2"], EXIT_CONFIG, "--jobs"),
    (bad_manifest_argv, EXIT_DATASET, "manifest.json"),
    (lambda p: eval_argv(p, kitti_label_row(250, 1)), EXIT_DATASET,
     "out.txt:5:"),
    (lambda p: eval_argv(p, kitti_label_row(-1, 1)), EXIT_DATASET,
     "out.txt:5:"),
    (lambda p: eval_argv(p, kitti_label_row(0, 1).replace("0", "x", 1)),
     EXIT_DATASET, "out.txt:5:"),
    # Config values of the wrong JSON type.
    (lambda p: sweep_argv(p, tracker=5), EXIT_CONFIG, "tracker"),
    (lambda p: sweep_argv(p, tracker_overrides={"1/2": 5}), EXIT_CONFIG,
     "tracker_overrides['1/2']"),
    (lambda p: sweep_argv(p, tracker_overrides=[1]), EXIT_CONFIG,
     "tracker_overrides"),
    (lambda p: sweep_argv(p, profiles=[1]), EXIT_CONFIG, "profiles"),
    (lambda p: sweep_argv(p, energy=[1]), EXIT_CONFIG, "energy"),
    (lambda p: sweep_argv(p, clear_threshold="abc"), EXIT_CONFIG,
     "clear_threshold"),
    (lambda p: sweep_argv(p, rng_seed="x"), EXIT_CONFIG, "rng_seed"),
    (lambda p: sweep_argv(p, class_set="Car"), EXIT_CONFIG, "class_set"),
    # Dataset errors.
    (lambda p: eval_argv(p, label_row=kitti_label_row(1, -1)), EXIT_DATASET,
     "0000.txt:5:"),
    (lambda p: eval_argv(p, extra=["--frame-count", "2"]), EXIT_DATASET,
     "0000.txt:3:"),
    (lambda p: kitti_sweep_argv(p, manifest={"0000": 2}), EXIT_DATASET,
     "0000.txt:3:"),
    (lambda p: eval_argv(p, kitti_label_row(3, 1)), EXIT_DATASET,
     "out.txt:5:"),
    # A score, the 18th field, must be finite on every kept row.
    (lambda p: eval_argv(p, kitti_label_row(3, 2) + " nan"), EXIT_DATASET,
     "out.txt:5: score nan is not finite"),
    (lambda p: eval_argv(p, kitti_label_row(3, 2) + " -inf"), EXIT_DATASET,
     "out.txt:5: score -inf is not finite"),
    (lambda p: eval_argv(p, label_row=kitti_label_row(3, 2) + " inf"),
     EXIT_DATASET, "0000.txt:5: score inf is not finite"),
    (lambda p: eval_argv(p, sidecar=[1]), EXIT_DATASET, "out.txt.meta.json"),
    (lambda p: eval_argv(p, sidecar={"provenance": {"0": 5}}), EXIT_DATASET,
     "out.txt.meta.json"),
    # A provenance entry must be "updated" or "predicted" and name a row.
    (lambda p: eval_argv(p, sidecar={"provenance": {"0": {"1": 5}}}),
     EXIT_DATASET, "out.txt.meta.json: frame 0 id 1:"),
    (lambda p: eval_argv(p, sidecar={"provenance": {"2": {"1": "bogus"}}}),
     EXIT_DATASET, "out.txt.meta.json: frame 2 id 1:"),
    (lambda p: eval_argv(p, sidecar={"frame_count": 4, "provenance": {
        "0": {"1": "updated", "7": "predicted"}}}),
     EXIT_DATASET, "out.txt.meta.json: frame 0 id 7:"),
    # A sidecar's frame_count must cover the output rows and stay within
    # the frames read.
    (lambda p: eval_argv(p, sidecar={"frame_count": 2}), EXIT_DATASET,
     "out.txt.meta.json: frame_count 2"),
    (lambda p: eval_argv(p, sidecar={"frame_count": 99}), EXIT_DATASET,
     "out.txt.meta.json: frame_count 99"),
    # A manifest frame count must be an integer, not a boolean, and every
    # manifest key must name a label file.
    (lambda p: kitti_sweep_argv(p, manifest={"0000": True}), EXIT_DATASET,
     "manifest.json: bad frame count for '0000'"),
    (lambda p: kitti_sweep_argv(p, manifest={"000": 50}), EXIT_DATASET,
     "manifest key '000'"),
    # Command-line argument errors.
    (lambda p: ENERGY_MODEL + ["--pattern", "3/2"], EXIT_CONFIG, "--pattern"),
    (lambda p: ENERGY_MODEL + ["--length", "0"], EXIT_CONFIG, "--length"),
    (lambda p: ["energy", "--idle-draw", "300", "--active-draw", "100",
                "--inference-time", "0.05"], EXIT_CONFIG, "--idle-draw"),
    (lambda p: power_log_argv(p, "timestamp_s,power\n0,1\n"), EXIT_CONFIG,
     "log.csv"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\n0.01,abc\n"),
     EXIT_CONFIG, "log.csv:3:"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\n0.01,nan\n"),
     EXIT_CONFIG, "log.csv:3:"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,inf\n0.01,1\n"),
     EXIT_CONFIG, "log.csv:2:"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\n0.5,-5\n"),
     EXIT_CONFIG, "log.csv:3: watts -5.0 is below 0"),
    # Timestamps are read: each a finite number, none below the one before.
    (lambda p: power_log_argv(p, "watts\n1\n2\n"), EXIT_CONFIG,
     "log.csv: expected header with 'timestamp_s' and 'watts' columns"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\nabc,1\n"),
     EXIT_CONFIG, "log.csv:3: bad timestamp_s value 'abc'"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n,1\n0.01,1\n"),
     EXIT_CONFIG, "log.csv:2: bad timestamp_s value ''"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\nnan,1\n"),
     EXIT_CONFIG, "log.csv:3: bad timestamp_s value 'nan'"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0.02,1\n0.01,1\n"),
     EXIT_CONFIG, "log.csv:3: timestamp_s 0.01 is below 0.02"),
    (lambda p: eval_argv(p, extra=["--frame-count", "0"]), EXIT_CONFIG,
     "--frame-count"),
    # A failing cell names itself: a label set with no object of the
    # configured class has no ground truth to score.
    (lambda p: kitti_sweep_argv(p, class_set=["Van"]),
     EXIT_COMPUTE, "variant=gt pattern=1/1"),
    # The reference scenario is scoped to class_set at load like a label
    # file, so a scope without its cars leaves no ground truth either.
    (lambda p: sweep_argv(p, class_set=["Van"]),
     EXIT_COMPUTE, "variant=gt pattern=1/1"),
    # A CLEAR threshold outside (0, 1] would gate nothing, every
    # overlapping pair passing it, or would match nothing.
    (lambda p: eval_argv(p, extra=["--clear-threshold", "nan"]), EXIT_CONFIG,
     "--clear-threshold"),
    (lambda p: eval_argv(p, extra=["--clear-threshold", "-1"]), EXIT_CONFIG,
     "--clear-threshold"),
    (lambda p: eval_argv(p, extra=["--clear-threshold", "0"]), EXIT_CONFIG,
     "--clear-threshold"),
    (lambda p: eval_argv(p, extra=["--clear-threshold", "2"]), EXIT_CONFIG,
     "--clear-threshold"),
    (lambda p: sweep_argv(p, clear_threshold=0), EXIT_CONFIG,
     "clear_threshold"),
    (lambda p: sweep_argv(p, clear_threshold=2), EXIT_CONFIG,
     "clear_threshold"),
    # An --out that cannot be written is a bad argument.
    (lambda p: out_file_argv(p, "sweep"), EXIT_CONFIG, "out-is-a-file"),
    (lambda p: out_file_argv(p, "sweep", "--outputs"), EXIT_CONFIG,
     "out-is-a-file"),
    (lambda p: out_file_argv(p, "report"), EXIT_CONFIG, "out-is-a-file"),
    # A sweep.json row field of the wrong type, named by file, row and field.
    (lambda p: bad_sweep_row_argv(p, hota="abc"), EXIT_CONFIG,
     "sweep.json: rows[1].hota"),
    (lambda p: bad_sweep_row_argv(p, hota=None), EXIT_CONFIG,
     "sweep.json: rows[1].hota"),
    (lambda p: bad_sweep_row_argv(p, processed_frames=1.5), EXIT_CONFIG,
     "sweep.json: rows[1].processed_frames"),
    # Energy flags go through the config's energy reader: a non-finite
    # value, or a preset beside another model flag, is refused.
    (lambda p: ["energy", "--idle-draw", "145", "--active-draw", "395",
                "--inference-time", "inf", "--pattern", "1/2"], EXIT_CONFIG,
     "inference_time"),
    (lambda p: ["energy", "--idle-draw", "145", "--active-draw", "inf",
                "--inference-time", "0.05"], EXIT_CONFIG, "active_draw"),
    (lambda p: ENERGY_MODEL + ["--cycle-time", "inf"], EXIT_CONFIG,
     "cycle_time"),
    (lambda p: ["energy", "--preset", "second", "--idle-draw", "100",
                "--cycle-time", "0.2"], EXIT_CONFIG, "idle_draw"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\n")
     + ["--preset", "second", "--idle-draw", "1"], EXIT_CONFIG, "--preset"),
    (lambda p: sweep_argv(p, energy={"default": {"preset": "second",
                                                 "cycle_time": 0.5}}),
     EXIT_CONFIG, "cycle_time"),
    (dataset_typo_argv, EXIT_CONFIG, "manfest"),
    # A kitti dataset reads its path; the reference scenario reads no file,
    # so a path or manifest given for it is refused, not ignored.
    (lambda p: sweep_argv(p, dataset={"kind": "kitti", "path": None}),
     EXIT_CONFIG, "dataset.path: expected a string, got null"),
    (lambda p: sweep_argv(p, dataset={"kind": "reference", "path": "zzz"}),
     EXIT_CONFIG, "dataset.path: a reference dataset reads no files"),
    (lambda p: sweep_argv(p, dataset={"kind": "reference",
                                      "manifest": "m.json"}),
     EXIT_CONFIG, "dataset.manifest: a reference dataset reads no files"),
    # An empty kitti path would read the current directory, and an empty
    # manifest would be dropped as no manifest.
    (lambda p: label_file_argv(p, path=""), EXIT_CONFIG,
     'dataset.path: expected a non-empty string, got ""'),
    (lambda p: label_file_argv(p, manifest=""), EXIT_CONFIG,
     'dataset.manifest: expected a non-empty string, got ""'),
    # energy refuses the flags of the mode it is not in.
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\n")
     + ["--pattern", "1/2", "--length", "7"], EXIT_CONFIG, "--pattern"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\n")
     + ["--length", "7"], EXIT_CONFIG, "--length"),
    # A misspelt top-level key is refused by name, not run without it; of
    # `jobs`, only the value 1 every run uses is accepted.
    (lambda p: sweep_argv(p, tracker_overide={"1/2": {"min_hits_to_confirm": 1}}),
     EXIT_CONFIG, "unknown config keys ['tracker_overide']"),
    (lambda p: sweep_argv(p, jobs=2), EXIT_CONFIG,
     "unknown config keys ['jobs']"),
    # An energy key must name a variant: default, gt or a defined profile.
    (lambda p: sweep_argv(p, energy={"defualt": {"preset": "second"}}),
     EXIT_CONFIG, "energy['defualt']"),
    (lambda p: sweep_argv(p, energy={"noisy:field": {"preset": "second"}}),
     EXIT_CONFIG, "energy['noisy:field']"),
    # A pattern or variant named twice would run or override it twice.
    (lambda p: sweep_argv(p, patterns=["1/2", "50"]), EXIT_CONFIG,
     "patterns[1]: '50' repeats pattern 1/2"),
    (lambda p: ["sweep", "--pattern", "1/2", "--pattern", "50"], EXIT_CONFIG,
     "'50' repeats pattern 1/2"),
    (lambda p: sweep_argv(p, variants=["gt", "gt"]), EXIT_CONFIG,
     "variants[1]: 'gt'"),
    (lambda p: sweep_argv(p, tracker_overrides={
        "1/2": {"min_hits_to_confirm": 3}, "50": {"min_hits_to_confirm": 1}}),
     EXIT_CONFIG, "tracker_overrides['50']: pattern 1/2"),
    # A score range is an array of exactly two numbers.
    (lambda p: score_range_argv(p, [True, True]), EXIT_CONFIG,
     "profiles['p'].score_range[0]: expected a finite number, got true"),
    (lambda p: score_range_argv(p, [0.5]), EXIT_CONFIG,
     "profiles['p'].score_range: expected an array of 2 numbers"),
    (lambda p: score_range_argv(p, [0.5, 1.0, 1.0]), EXIT_CONFIG,
     "profiles['p'].score_range: expected an array of 2 numbers"),
    (lambda p: score_range_argv(p, ["a", 1.0]), EXIT_CONFIG,
     "profiles['p'].score_range[0]: expected a finite number"),
    # A negative birth variance gives the filter a covariance no state has.
    (lambda p: sweep_argv(p, tracker={"birth_velocity_var": -100}),
     EXIT_CONFIG, "tracker: birth_velocity_var must be nonnegative and finite"),
    # A variant is refused before any cell runs.
    (lambda p: sweep_argv(p, variants=["noisy:nope"]), EXIT_CONFIG,
     "variant 'noisy:nope' references undefined profile 'nope'"),
    (lambda p: sweep_argv(p, variants=["oracle"]), EXIT_CONFIG,
     "variant 'oracle' must be 'gt' or 'noisy:<profile>'"),
    # A profile name is one directory of the cell outputs: with ':' as '_',
    # "a:b" would share "a_b"'s, and a path would leave --outputs.
    (lambda p: profile_argv(p, "a:b", "a_b"), EXIT_CONFIG,
     "profiles['a:b']: a profile name may not contain"),
    (lambda p: profile_argv(p, "../../../escaped"), EXIT_CONFIG,
     "profiles['../../../escaped']: a profile name may not contain"),
], ids=["similarity", "override-key", "override-value", "jobs-flag",
        "manifest", "output-frame-past-end", "output-frame-negative",
        "output-frame-not-int", "tracker-not-object",
        "override-body-not-object", "overrides-not-object",
        "profiles-not-object", "energy-not-object", "clear-threshold-string",
        "rng-seed-string", "class-set-string", "label-track-id-negative",
        "frame-count-below-labels", "manifest-count-below-labels",
        "output-duplicate-id", "output-score-nan", "output-score-minus-inf",
        "label-score-inf", "sidecar-not-object",
        "sidecar-provenance-entry-not-object",
        "sidecar-provenance-not-string", "sidecar-provenance-unknown",
        "sidecar-provenance-without-row", "sidecar-frame-count-below-rows",
        "sidecar-frame-count-above-frames", "manifest-count-boolean",
        "manifest-key-without-labels", "energy-pattern",
        "energy-length", "energy-draw-order", "power-log-no-watts",
        "power-log-bad-watts",
        "power-log-nan-watts", "power-log-inf-watts",
        "power-log-negative-watts",
        "power-log-no-timestamp", "power-log-bad-timestamp",
        "power-log-empty-timestamp", "power-log-nan-timestamp",
        "power-log-timestamp-decreases", "eval-frame-count-zero",
        "run-cell-failure", "reference-class-set-empty",
        "eval-clear-threshold-nan",
        "eval-clear-threshold-negative", "eval-clear-threshold-zero",
        "eval-clear-threshold-above-one", "clear-threshold-zero",
        "clear-threshold-above-one", "sweep-out-is-file", "outputs-is-file",
        "report-out-is-file", "sweep-row-hota-string", "sweep-row-hota-null",
        "sweep-row-frames-fraction", "energy-inference-time-inf",
        "energy-active-draw-inf", "energy-cycle-time-inf",
        "energy-preset-with-draw", "energy-log-with-preset",
        "energy-entry-preset-with-field", "dataset-unknown-field",
        "dataset-kitti-path-null", "dataset-reference-path",
        "dataset-reference-manifest", "dataset-kitti-path-empty",
        "dataset-kitti-manifest-empty",
        "energy-log-with-pattern", "energy-log-with-length",
        "config-unknown-key",
        "config-jobs-not-one", "energy-key-typo",
        "energy-key-undefined-profile", "patterns-repeat",
        "pattern-flags-repeat", "variants-repeat", "overrides-repeat",
        "score-range-booleans", "score-range-short", "score-range-long",
        "score-range-string", "tracker-birth-variance-negative",
        "variant-undefined-profile", "variant-unknown",
        "profile-name-colon", "profile-name-path"])
def test_bad_input_exit_code_names_the_culprit(tmp_path, capsys, build, code,
                                               needle):
    assert exit_code(build(tmp_path)) == code
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--outputs"],
                         ids=["out", "outputs"])
def test_unusable_out_fails_before_any_cell(tmp_path, capsys, monkeypatch,
                                            flag):
    def no_cell(*args):
        raise AssertionError("a cell was computed")
    monkeypatch.setattr(Tracker, "step", no_cell)
    argv = out_file_argv(tmp_path, "sweep", flag) + ["--pattern", "50"]
    assert exit_code(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out-is-a-file" in captured.err


class TestRun:
    """Cells run by the sweep command, and its flags."""

    def test_single_cell(self, capsys):
        code = main(["sweep", "--pattern", "1/1", "--variant", "gt"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("variant,target,")
        assert len(lines) == 2
        assert lines[1].startswith("gt,100,100.000000,")

    def test_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, patterns=["1/2"])
        code = main(["sweep", "--config", str(cfg), "--outputs",
                     str(tmp_path / "cells")])
        assert code == EXIT_OK
        out_file = tmp_path / "cells" / "gt" / "1of2" / "reference.txt"
        assert out_file.exists()
        assert (tmp_path / "cells" / "gt" / "1of2"
                / "reference.txt.meta.json").exists()

    def test_named_target_flag(self, capsys):
        code = main(["sweep", "--pattern", "50", "--variant", "gt"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.split(",")[1] == "50"

    def test_bad_target_rejected_by_parser(self, capsys):
        assert main(["sweep", "--pattern", "42"]) == EXIT_CONFIG
        assert "unknown target 42; named targets are" \
            in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


# sha256 of the README config's sweep.json: the seed-7 ref-sweep digest.
README_SWEEP_SHA256 = \
    "07bc1527210a5323375ef15552efae75281457edfd68566945d84b7818801a25"


def test_readme_sweep_reproduces_its_report_and_cell_outputs(tmp_path,
                                                             capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "readme.json"
    cfg.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
    trees = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--outputs", str(out / "cells")]) == EXIT_OK
        trees.append({path.relative_to(out): path.read_bytes()
                      for path in out.rglob("*") if path.is_file()})
    assert hashlib.sha256(trees[0][Path("sweep.json")]).hexdigest() \
        == README_SWEEP_SHA256
    # 12 cells, each one sequence's outputs and their sidecar.
    assert len(trees[0]) == 3 + 12 * 2
    assert trees[0] == trees[1]


class TestSweep:
    def test_grid_with_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.json").exists()
        assert (out / "tradeoff.csv").exists()
        assert stdout.count("wrote ") == 3
        data_rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert len(data_rows) == 2

    def test_seed_override_changes_noisy_results(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, patterns=["1/1"], variants=["noisy:p"],
            profiles={"p": {"detection_probability": 0.8,
                            "center_sigma": 0.3}},
            tracker={"measurement_noise": 0.05})
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["sweep", "--config", str(cfg), "--seed", "7"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first != second

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["sweep", "--config", str(bad)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_dataset_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           dataset={"kind": "kitti",
                                    "path": str(tmp_path / "absent")})
        assert main(["sweep", "--config", str(cfg)]) == EXIT_DATASET
        assert "dataset error" in capsys.readouterr().err


class TestEval:
    def test_metrics_on_stored_outputs(self, tmp_path, capsys):
        labels = tmp_path / "0000.txt"
        labels.write_text("\n".join(
            kitti_label_row(f, 1, x=2.0 + 0.1 * f) for f in range(4)) + "\n")
        run_out = tmp_path / "run"
        cfg = write_config(tmp_path, patterns=["1/1"],
                           dataset={"kind": "kitti", "path": str(tmp_path)})
        assert main(["sweep", "--config", str(cfg), "--outputs",
                     str(run_out)]) == EXIT_OK
        capsys.readouterr()
        code = main(["eval",
                     "--labels", str(labels),
                     "--outputs", str(run_out / "gt" / "1of1" / "0000.txt")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "hota 100.000000" in out
        assert "mota 100.000000" in out
        assert "id_switches 0" in out

    def test_frame_tables_built_once(self, tmp_path, capsys, monkeypatch):
        # HOTA and CLEAR score the same tables.
        build = metrics.build_frame_tables
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)
        monkeypatch.setattr(metrics, "build_frame_tables", counting)
        assert main(eval_argv(tmp_path)) == EXIT_OK
        assert len(calls) == 1

    def test_similarity_flag_scores_both_metrics(self, tmp_path, capsys):
        # Outputs sit 0.3 m beside and 0.6 m below the 1.5 m tall labels:
        # bird's-eye IoU about 0.84, 3D IoU under the 0.5 CLEAR threshold.
        labels = tmp_path / "0000.txt"
        labels.write_text("".join(kitti_label_row(f, 1, x=0.3 * f) + "\n"
                                  for f in range(4)))
        outputs = tmp_path / "out.txt"
        outputs.write_text("".join(
            kitti_label_row(f, 7, x=0.3 * f + 0.3).replace(" 1.65 ",
                                                           " 2.25 ") + "\n"
            for f in range(4)))
        printed = {}
        for similarity in ("bev-iou", "3d-iou"):
            assert main(["eval", "--labels", str(labels), "--outputs",
                         str(outputs), "--similarity", similarity]) == EXIT_OK
            printed[similarity] = capsys.readouterr().out
        tables = build_frame_tables(list(parse_kitti_labels(labels).labels),
                                    read_frame_outputs(outputs), "bev-iou")
        h, c = hota_pooled([tables]), clear_pooled([tables])
        assert printed["bev-iou"] == (
            f"hota {h.hota:.6f}\ndet_a {h.det_a:.6f}\nass_a {h.ass_a:.6f}\n"
            f"mota {c.mota:.6f}\nmotp {c.motp:.6f}\n"
            f"tp {c.tp} fp {c.fp} fn {c.fn} id_switches {c.id_switches}\n")
        assert printed["3d-iou"] != printed["bev-iou"]

    def test_boxes_that_do_not_overlap_never_match(self, tmp_path, capsys):
        # The prediction sits 50 m behind the ground truth: their IoU is
        # 0, which the gate 1e-12 - MATCH_EPS would admit.
        labels = tmp_path / "0000.txt"
        labels.write_text(kitti_label_row(0, 1, z=10.0) + "\n")
        outputs = tmp_path / "out.txt"
        outputs.write_text(kitti_label_row(0, 1, z=60.0) + "\n")
        assert main(["eval", "--labels", str(labels), "--outputs",
                     str(outputs), "--frame-count", "1",
                     "--clear-threshold", "1e-12"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mota -100.000000" in out
        assert "tp 0 fp 1 fn 1 id_switches 0" in out

    def test_no_ground_truth_is_compute_error(self, tmp_path, capsys):
        labels = tmp_path / "empty.txt"
        labels.write_text("")
        outputs = tmp_path / "outputs.txt"
        outputs.write_text("")
        code = main(["eval", "--labels", str(labels),
                     "--outputs", str(outputs), "--frame-count", "3"])
        assert code == EXIT_COMPUTE
        assert "computation error" in capsys.readouterr().err

    def test_missing_labels_is_dataset_error(self, tmp_path, capsys):
        outputs = tmp_path / "outputs.txt"
        outputs.write_text("")
        code = main(["eval", "--labels", str(tmp_path / "absent.txt"),
                     "--outputs", str(outputs)])
        assert code == EXIT_DATASET
        assert "dataset error" in capsys.readouterr().err

    def test_labels_directory_is_dataset_error(self, tmp_path, capsys):
        outputs = tmp_path / "outputs.txt"
        outputs.write_text("")
        code = main(["eval", "--labels", str(tmp_path),
                     "--outputs", str(outputs)])
        assert code == EXIT_DATASET
        assert "dataset error" in capsys.readouterr().err


class TestEnergy:
    def test_preset_model(self, capsys):
        code = main(["energy", "--preset", "second",
                     "--pattern", "1/2", "--length", "100"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("estimated_draw_watts ")
        # second preset: (395*0.05 + 145*0.05)/0.1 = 270 W processed slots,
        # 145 W dropped slots, half each -> 207.5 W.
        assert float(out.split()[1]) == pytest.approx(207.5, abs=1e-9)

    def test_explicit_params(self, capsys):
        code = main(["energy", "--idle-draw", "150", "--active-draw", "350",
                     "--inference-time", "0.05"])
        assert code == EXIT_OK
        watts = float(capsys.readouterr().out.split()[1])
        assert watts == pytest.approx(250.0, abs=1e-9)

    def test_missing_params_is_config_error(self, capsys):
        assert main(["energy", "--idle-draw", "150"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_log_summary(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        rows = ["timestamp_s,watts"]
        rows += [f"{i / 100.0:.2f},{200.0 + (i % 2)}" for i in range(300)]
        log.write_text("\n".join(rows) + "\n")
        code = main(["energy", "--log", str(log)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("median_draw_watts ")
        assert float(out.split()[1]) == pytest.approx(200.5, abs=0.5)

    def test_log_windows_come_from_timestamps(self, tmp_path, capsys):
        # 10 Hz, 3 s at 100 W then 1 s at 1000 W, twice: six of the eight
        # 1 s windows read 100 W. Windows of 100 samples read 325 W.
        log = tmp_path / "log.csv"
        rows = ["timestamp_s,watts"]
        rows += [f"{i / 10:.1f},{1000 if i % 40 >= 30 else 100}"
                 for i in range(80)]
        log.write_text("\n".join(rows) + "\n")
        assert main(["energy", "--log", str(log)]) == EXIT_OK
        assert capsys.readouterr().out == "median_draw_watts 100.000000\n"

    def test_missing_log_is_config_error(self, tmp_path, capsys):
        code = main(["energy", "--log", str(tmp_path / "absent.csv")])
        assert code == EXIT_CONFIG
        assert "cannot read power log" in capsys.readouterr().err


class TestReport:
    def test_rerender_from_sweep_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, patterns=["1/1"])
        first = tmp_path / "first"
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(first)]) == EXIT_OK
        second = tmp_path / "second"
        code = main(["report", "--sweep", str(first / "sweep.json"),
                     "--out", str(second)])
        assert code == EXIT_OK
        assert (second / "sweep.csv").read_text() \
            == (first / "sweep.csv").read_text()
        assert (second / "tradeoff.csv").read_text() \
            == (first / "tradeoff.csv").read_text()

    def test_round_trip_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        first = tmp_path / "first"
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(first)]) == EXIT_OK
        names = ("sweep.csv", "sweep.json", "tradeoff.csv")
        assert capsys.readouterr().out == (first / "sweep.csv").read_text() \
            + "".join(f"wrote {first / name}\n" for name in names)
        second = tmp_path / "second"
        assert main(["report", "--sweep", str(first / "sweep.json"),
                     "--out", str(second)]) == EXIT_OK
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_bad_sweep_file(self, tmp_path, capsys):
        bad = tmp_path / "sweep.json"
        bad.write_text("[]")
        code = main(["report", "--sweep", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
