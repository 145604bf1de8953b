"""Command-line interface: subcommand flows and exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from droptrack import metrics
from droptrack.cli import (EXIT_COMPUTE, EXIT_CONFIG, EXIT_DATASET, EXIT_OK,
                           main)
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


def kitti_label_row(frame, tid, x=2.0, z=10.0, kind="Car"):
    fields = [str(frame), str(tid), kind, "0", "0", "-10",
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


def kitti_sweep_argv(tmp_path, manifest=None, kind="Car", **overrides):
    """sweep over one 4-frame label file of `kind` objects, with an
    optional manifest."""
    (tmp_path / "0000.txt").write_text(
        "".join(kitti_label_row(f, 1, kind=kind) + "\n" for f in range(4)))
    dataset = {"kind": "kitti", "path": str(tmp_path)}
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        dataset["manifest"] = str(tmp_path / "manifest.json")
    return sweep_argv(tmp_path, dataset=dataset, **overrides)


def out_file_argv(tmp_path, flag="--out"):
    """sweep with `flag` naming an existing regular file."""
    out = tmp_path / "out-is-a-file"
    out.write_text("")
    return ["sweep", "--pattern", "1/1", flag, str(out)]


def profile_argv(tmp_path, *names):
    """sweep over one noisy variant per profile name, writing each cell's
    outputs under tmp_path/out/cells."""
    profiles = {name: {"detection_probability": 0.5} for name in names}
    return [*sweep_argv(tmp_path, variants=[f"noisy:{n}" for n in names],
                        profiles=profiles),
            "--outputs", str(tmp_path / "out" / "cells")]


# A 3,000-character key, name or pattern, which a refusal cuts to 40.
LONG = "x" * 3000

ENERGY_MODEL = ["energy", "--idle-draw", "150", "--active-draw", "350",
                "--inference-time", "0.05"]


def dataset_typo_argv(tmp_path):
    """sweep over one label file, with the manifest field misspelt."""
    (tmp_path / "0000.txt").write_text(kitti_label_row(0, 1) + "\n")
    (tmp_path / "m.json").write_text(json.dumps({"0000": 2}))
    return sweep_argv(tmp_path, dataset={"kind": "kitti", "path": str(tmp_path),
                                         "manfest": str(tmp_path / "m.json")})


def config_root_argv(tmp_path):
    """sweep over a config file whose JSON root is an array."""
    path = tmp_path / "config.json"
    path.write_text("[1]")
    return ["sweep", "--config", str(path)]


def not_utf8(argv, path):
    """argv, with the file at path overwritten by bytes that are not
    UTF-8."""
    Path(path).write_bytes(b"\xff\n")
    return argv


def holding(argv, path, text):
    """argv, with the file at path overwritten by text."""
    Path(path).write_text(text)
    return argv


def label_file_argv(tmp_path, **fields):
    """sweep over one label file in tmp_path, with these dataset fields."""
    (tmp_path / "0000.txt").write_text(kitti_label_row(0, 1) + "\n")
    return sweep_argv(tmp_path, dataset={"kind": "kitti", "path": str(tmp_path),
                                         **fields})


@pytest.mark.parametrize("build, code, needle", [
    # 3D IoU is the one scoring rule and CLEAR matches at the fixed 0.5, so
    # similarity and clear_threshold are unknown keys.
    (lambda p: sweep_argv(p, similarity="nope"), EXIT_CONFIG,
     'unknown config keys ["similarity"]'),
    (lambda p: sweep_argv(p, tracker_overrides={"bogus": {}}), EXIT_CONFIG,
     'tracker_overrides["bogus"]'),
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
     'tracker_overrides["1/2"]'),
    (lambda p: sweep_argv(p, tracker_overrides=[1]), EXIT_CONFIG,
     "tracker_overrides"),
    (lambda p: sweep_argv(p, profiles=[1]), EXIT_CONFIG, "profiles"),
    (lambda p: sweep_argv(p, energy=[1]), EXIT_CONFIG, "energy"),
    (lambda p: sweep_argv(p, clear_threshold="abc"), EXIT_CONFIG,
     'unknown config keys ["clear_threshold"]'),
    (lambda p: sweep_argv(p, rng_seed="x"), EXIT_CONFIG, "rng_seed"),
    # A seed outside [0, 2**64) would draw the noise of the seed it is
    # congruent to: -1 and 2**65 - 1 that of 2**64 - 1.
    (lambda p: sweep_argv(p, rng_seed=-1), EXIT_CONFIG,
     "rng_seed: expected an integer in [0, 2**64), got -1"),
    (lambda p: sweep_argv(p, rng_seed=2**64), EXIT_CONFIG,
     "rng_seed: expected an integer in [0, 2**64)"),
    # The config's rng_seed is the one noise seed: no flag or profile field
    # sets another.
    (lambda p: ["sweep", "--seed", "7"], EXIT_CONFIG,
     "unrecognized arguments: --seed 7"),
    (lambda p: sweep_argv(p, variants=["noisy:p"],
                          profiles={"p": {"rng_seed": 1}}),
     EXIT_CONFIG, 'unknown profiles["p"] field "rng_seed"'),
    # Car is the one tracked class, so class_set is an unknown key.
    (lambda p: sweep_argv(p, class_set="Car"), EXIT_CONFIG, "class_set"),
    (config_root_argv, EXIT_CONFIG, "config root must be a JSON object"),
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
     EXIT_DATASET, 'out.txt.meta.json: frame "0" id "7":'),
    # A row of another type is skipped, so no sidecar entry may name it.
    (lambda p: eval_argv(p, kitti_label_row(0, 2, kind="Pedestrian"),
                         sidecar={"provenance": {"0": {"2": "updated"}}}),
     EXIT_DATASET,
     'out.txt.meta.json: frame "0" id "2": provenance for no output row'),
    # A sidecar's frame_count must cover the output rows and stay within
    # the frames read.
    (lambda p: eval_argv(p, sidecar={"frame_count": 2}), EXIT_DATASET,
     "out.txt.meta.json: frame_count 2"),
    (lambda p: eval_argv(p, sidecar={"frame_count": 99}), EXIT_DATASET,
     "out.txt.meta.json: frame_count 99"),
    # A manifest frame count must be an integer, not a boolean, and every
    # manifest key must name a label file.
    (lambda p: kitti_sweep_argv(p, manifest={"0000": True}), EXIT_DATASET,
     'manifest.json: bad frame count for "0000"'),
    (lambda p: kitti_sweep_argv(p, manifest={"000": 50}), EXIT_DATASET,
     'manifest key "000"'),
    # Command-line argument errors.
    (lambda p: ENERGY_MODEL + ["--pattern", "3/2"], EXIT_CONFIG, "--pattern"),
    (lambda p: ENERGY_MODEL + ["--length", "0"], EXIT_CONFIG, "--length"),
    (lambda p: ["energy", "--idle-draw", "300", "--active-draw", "100",
                "--inference-time", "0.05"], EXIT_CONFIG, "--idle-draw"),
    (lambda p: eval_argv(p, extra=["--frame-count", "0"]), EXIT_CONFIG,
     "--frame-count"),
    # A failing cell names itself: a label set with no Car has no ground
    # truth to score.
    (lambda p: kitti_sweep_argv(p, kind="Van"),
     EXIT_COMPUTE, "variant=gt pattern=1/1"),
    # CLEAR matches at the fixed 0.5: a threshold is refused, whatever its
    # value, as an unknown eval flag or config key.
    (lambda p: eval_argv(p, extra=["--clear-threshold", "nan"]), EXIT_CONFIG,
     "unrecognized arguments: --clear-threshold"),
    (lambda p: eval_argv(p, extra=["--clear-threshold", "-1"]), EXIT_CONFIG,
     "unrecognized arguments: --clear-threshold"),
    (lambda p: eval_argv(p, extra=["--clear-threshold", "0"]), EXIT_CONFIG,
     "unrecognized arguments: --clear-threshold"),
    (lambda p: eval_argv(p, extra=["--clear-threshold", "2"]), EXIT_CONFIG,
     "unrecognized arguments: --clear-threshold"),
    (lambda p: sweep_argv(p, clear_threshold=0), EXIT_CONFIG,
     'unknown config keys ["clear_threshold"]'),
    (lambda p: sweep_argv(p, clear_threshold=2), EXIT_CONFIG,
     'unknown config keys ["clear_threshold"]'),
    # An --out that cannot be written is a bad argument.
    (out_file_argv, EXIT_CONFIG, "out-is-a-file"),
    (lambda p: out_file_argv(p, "--outputs"), EXIT_CONFIG, "out-is-a-file"),
    # Energy flags go through the config's energy reader: a non-finite
    # value, or a preset beside another model flag, is refused.
    (lambda p: ["energy", "--idle-draw", "145", "--active-draw", "395",
                "--inference-time", "inf", "--pattern", "1/2"], EXIT_CONFIG,
     "inference_time"),
    (lambda p: ["energy", "--idle-draw", "145", "--active-draw", "inf",
                "--inference-time", "0.05"], EXIT_CONFIG, "active_draw"),
    # The frame period is FRAME_PERIOD, so --cycle-time is an unknown flag.
    (lambda p: ENERGY_MODEL + ["--cycle-time", "inf"], EXIT_CONFIG,
     "unrecognized arguments: --cycle-time inf"),
    (lambda p: ["energy", "--preset", "second", "--idle-draw", "100",
                "--inference-time", "0.2"], EXIT_CONFIG, "idle_draw"),
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
    # A misspelt top-level key is refused by name, not run without it; of
    # `jobs`, only the value 1 every run uses is accepted.
    (lambda p: sweep_argv(p, tracker_overide={"1/2": {"min_hits_to_confirm": 1}}),
     EXIT_CONFIG, 'unknown config keys ["tracker_overide"]'),
    (lambda p: sweep_argv(p, jobs=2), EXIT_CONFIG,
     'unknown config keys ["jobs"]'),
    # An energy key must name a variant: default, gt or a defined profile.
    (lambda p: sweep_argv(p, energy={"defualt": {"preset": "second"}}),
     EXIT_CONFIG, 'energy["defualt"]'),
    (lambda p: sweep_argv(p, energy={"noisy:field": {"preset": "second"}}),
     EXIT_CONFIG, 'energy["noisy:field"]'),
    # A pattern or variant named twice would run or override it twice.
    (lambda p: sweep_argv(p, patterns=["1/2", "50"]), EXIT_CONFIG,
     'patterns[1]: "50" repeats pattern "1/2"'),
    (lambda p: ["sweep", "--pattern", "1/2", "--pattern", "50"], EXIT_CONFIG,
     '"50" repeats pattern "1/2"'),
    (lambda p: sweep_argv(p, variants=["gt", "gt"]), EXIT_CONFIG,
     'variants[1]: "gt"'),
    (lambda p: sweep_argv(p, tracker_overrides={
        "1/2": {"min_hits_to_confirm": 3}, "50": {"min_hits_to_confirm": 1}}),
     EXIT_CONFIG, 'tracker_overrides["50"]: pattern "1/2"'),
    # A score range is an array of exactly two numbers.
    (lambda p: score_range_argv(p, [True, True]), EXIT_CONFIG,
     'profiles["p"].score_range[0]: expected a finite number, got true'),
    (lambda p: score_range_argv(p, [0.5]), EXIT_CONFIG,
     'profiles["p"].score_range: expected an array of 2 numbers'),
    (lambda p: score_range_argv(p, [0.5, 1.0, 1.0]), EXIT_CONFIG,
     'profiles["p"].score_range: expected an array of 2 numbers'),
    (lambda p: score_range_argv(p, ["a", 1.0]), EXIT_CONFIG,
     'profiles["p"].score_range[0]: expected a finite number'),
    # The birth covariance is a constant: a birth variance, negative or
    # not, is refused by name before its value is read.
    (lambda p: sweep_argv(p, tracker={"birth_velocity_var": -100}),
     EXIT_CONFIG, 'unknown tracker field "birth_velocity_var"'),
    # A variant is refused before any cell runs.
    (lambda p: sweep_argv(p, variants=["noisy:nope"]), EXIT_CONFIG,
     'variant "noisy:nope" references undefined profile "nope"'),
    (lambda p: sweep_argv(p, variants=["oracle"]), EXIT_CONFIG,
     'variant "oracle" must be \'gt\' or \'noisy:<profile>\''),
    # A profile name is one directory of the cell outputs: with ':' as '_',
    # "a:b" would share "a_b"'s, and a path would leave --outputs.
    (lambda p: profile_argv(p, "a:b", "a_b"), EXIT_CONFIG,
     'profiles["a:b"]: a profile name may not contain'),
    (lambda p: profile_argv(p, "../../../escaped"), EXIT_CONFIG,
     'profiles["../../../escaped"]: a profile name may not contain'),
    # A file that is not UTF-8 is refused like one that cannot be read.
    (lambda p: not_utf8(sweep_argv(p), p / "config.json"), EXIT_CONFIG,
     "config.json: 'utf-8' codec can't decode"),
    (lambda p: not_utf8(eval_argv(p), p / "0000.txt"), EXIT_DATASET,
     "0000.txt: 'utf-8' codec can't decode"),
    (lambda p: not_utf8(eval_argv(p), p / "out.txt"), EXIT_DATASET,
     "out.txt: 'utf-8' codec can't decode"),
    (lambda p: not_utf8(eval_argv(p), p / "out.txt.meta.json"),
     EXIT_DATASET, "out.txt.meta.json: 'utf-8' codec can't decode"),
    (lambda p: not_utf8(kitti_sweep_argv(p, manifest={"0000": 4}),
                        p / "manifest.json"),
     EXIT_DATASET, "manifest.json: 'utf-8' codec can't decode"),
    # Invalid JSON, or a JSON root that is not an object, is refused like
    # a file that cannot be read, naming the file.
    (config_root_argv, EXIT_CONFIG, "config.json"),
    (lambda p: kitti_sweep_argv(p, manifest=[]), EXIT_DATASET,
     "manifest.json"),
    (lambda p: holding(eval_argv(p), p / "out.txt.meta.json", "{broken"),
     EXIT_DATASET, "out.txt.meta.json: not valid JSON"),
    (lambda p: holding(sweep_argv(p), p / "config.json",
                       "[" * 100_000 + "]" * 100_000),
     EXIT_CONFIG, "config.json: JSON nested too deeply"),
    # A key named twice, at any depth, is refused, not read as its last
    # value.
    (lambda p: holding(sweep_argv(p), p / "config.json",
                       '{"patterns": ["1/1"], "variants": ["gt"], '
                       '"patterns": ["1/10"]}'),
     EXIT_CONFIG, 'config.json: key "patterns" repeats'),
    (lambda p: holding(sweep_argv(p), p / "config.json",
                       '{"patterns": ["1/1"], "tracker": '
                       '{"gate_iou_min": 0.5, "gate_iou_min": 0.1}}'),
     EXIT_CONFIG, 'config.json: key "gate_iou_min" repeats'),
    (lambda p: holding(kitti_sweep_argv(p, manifest={"0000": 4}),
                       p / "manifest.json", '{"0000": 4, "0000": 5}'),
     EXIT_DATASET, 'manifest.json: key "0000" repeats'),
    (lambda p: holding(eval_argv(p), p / "out.txt.meta.json",
                       '{"provenance": {"0": {"1": "predicted"}, '
                       '"0": {"1": "updated"}}}'),
     EXIT_DATASET, 'out.txt.meta.json: key "0" repeats'),
    # An integer literal past Python's digit limit is invalid JSON.
    (lambda p: holding(sweep_argv(p), p / "config.json",
                       '{"rng_seed": 1' + "0" * 5000 + "}"),
     EXIT_CONFIG, "config.json: not valid JSON"),
    (lambda p: holding(eval_argv(p), p / "out.txt.meta.json",
                       '{"frame_count": 1' + "0" * 5000 + "}"),
     EXIT_DATASET, "out.txt.meta.json: not valid JSON"),
    # An integer given for a float field must fit a float.
    (lambda p: sweep_argv(p, tracker={"process_noise": 10 ** 400}),
     EXIT_CONFIG, "tracker.process_noise: expected a finite number"),
    (lambda p: score_range_argv(p, [0.5, 10 ** 400]), EXIT_CONFIG,
     'profiles["p"].score_range[1]: expected a finite number'),
    # An empty variant names none, so it is refused, not run as the
    # default.
    (lambda p: ["sweep", "--variant", ""], EXIT_CONFIG,
     'variant "" must be \'gt\' or \'noisy:<profile>\''),
    # energy reads no power log: --log is an unknown flag.
    (lambda p: ["energy", "--log", "log.csv"], EXIT_CONFIG,
     "unrecognized arguments: --log"),
    # The sidecar is always <outputs>.meta.json: --sidecar is an unknown
    # flag.
    (lambda p: eval_argv(p, extra=["--sidecar", "x"]), EXIT_CONFIG,
     "unrecognized arguments: --sidecar x"),
    # Frames are FRAME_PERIOD apart: no tracker, override or energy entry
    # sets a cycle time, even the one every run uses.
    (lambda p: sweep_argv(p, tracker={"cycle_time": 0.1}), EXIT_CONFIG,
     'unknown tracker field "cycle_time"'),
    (lambda p: sweep_argv(p, tracker_overrides={"1/2": {"cycle_time": 0.1}}),
     EXIT_CONFIG, 'unknown tracker_overrides["1/2"] field "cycle_time"'),
    (lambda p: sweep_argv(p, energy={"default": {
        "idle_draw": 145, "active_draw": 395, "inference_time": 0.05,
        "cycle_time": 0.1}}),
     EXIT_CONFIG, 'unknown energy["default"] field "cycle_time"'),
    (lambda p: ENERGY_MODEL + ["--cycle-time", "0.1"], EXIT_CONFIG,
     "unrecognized arguments: --cycle-time 0.1"),
    # energy and sweep refuse a bad pattern with one reason.
    (lambda p: ENERGY_MODEL + ["--pattern", "3/2"], EXIT_CONFIG,
     'argument --pattern: invalid pattern "3/2": pattern requires '
     '1 <= n <= m'),
    (lambda p: ["sweep", "--pattern", "3/2"], EXIT_CONFIG,
     'invalid pattern "3/2": pattern requires 1 <= n <= m'),
], ids=["similarity", "override-key", "override-value", "jobs-flag",
        "manifest", "output-frame-past-end", "output-frame-negative",
        "output-frame-not-int", "tracker-not-object",
        "override-body-not-object", "overrides-not-object",
        "profiles-not-object", "energy-not-object", "clear-threshold-string",
        "rng-seed-string", "rng-seed-negative", "rng-seed-past-u64",
        "seed-flag-removed", "profile-seed-removed",
        "class-set-string",
        "config-root-not-object", "label-track-id-negative",
        "frame-count-below-labels", "manifest-count-below-labels",
        "output-duplicate-id", "output-score-nan", "output-score-minus-inf",
        "label-score-inf", "sidecar-not-object",
        "sidecar-provenance-entry-not-object",
        "sidecar-provenance-not-string", "sidecar-provenance-unknown",
        "sidecar-provenance-without-row",
        "sidecar-provenance-for-skipped-row", "sidecar-frame-count-below-rows",
        "sidecar-frame-count-above-frames", "manifest-count-boolean",
        "manifest-key-without-labels", "energy-pattern",
        "energy-length", "energy-draw-order", "eval-frame-count-zero",
        "run-cell-failure",
        "eval-clear-threshold-nan",
        "eval-clear-threshold-negative", "eval-clear-threshold-zero",
        "eval-clear-threshold-above-one", "clear-threshold-zero",
        "clear-threshold-above-one", "sweep-out-is-file", "outputs-is-file",
        "energy-inference-time-inf",
        "energy-active-draw-inf", "energy-cycle-time-inf",
        "energy-preset-with-draw", "energy-entry-preset-with-field",
        "dataset-unknown-field",
        "dataset-kitti-path-null", "dataset-reference-path",
        "dataset-reference-manifest", "dataset-kitti-path-empty",
        "dataset-kitti-manifest-empty",
        "config-unknown-key",
        "config-jobs-not-one", "energy-key-typo",
        "energy-key-undefined-profile", "patterns-repeat",
        "pattern-flags-repeat", "variants-repeat", "overrides-repeat",
        "score-range-booleans", "score-range-short", "score-range-long",
        "score-range-string", "tracker-birth-variance-negative",
        "variant-undefined-profile", "variant-unknown",
        "profile-name-colon", "profile-name-path", "config-not-utf8",
        "labels-not-utf8", "outputs-not-utf8",
        "sidecar-not-utf8", "manifest-not-utf8", "config-root-names-file",
        "manifest-root-array", "sidecar-not-json", "config-json-too-deep",
        "config-key-repeats", "tracker-key-repeats", "manifest-key-repeats",
        "sidecar-frame-key-repeats", "config-int-too-long",
        "sidecar-int-too-long", "tracker-float-overflow",
        "score-range-float-overflow", "variant-empty", "energy-log-removed",
        "eval-sidecar-removed", "tracker-cycle-time-removed",
        "override-cycle-time-removed", "energy-entry-cycle-time-removed",
        "energy-cycle-time-flag-removed", "energy-pattern-reason",
        "sweep-pattern-reason"])
def test_bad_input_exit_code_names_the_culprit(tmp_path, capsys, build, code,
                                               needle):
    assert exit_code(build(tmp_path)) == code
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("build, flag", [
    (lambda p: ["sweep", "--config", ""], "--config"),
    (lambda p: ["sweep", "--pattern", "1/2", "--out", ""], "--out"),
    (lambda p: ["sweep", "--pattern", "1/2", "--outputs", ""], "--outputs"),
    (lambda p: [*eval_argv(p), "--labels", ""], "--labels"),
    (lambda p: [*eval_argv(p), "--outputs", ""], "--outputs"),
], ids=["sweep-config", "sweep-out", "sweep-outputs", "eval-labels",
        "eval-outputs"])
def test_empty_path_flag_is_refused(tmp_path, capsys, monkeypatch, build,
                                    flag):
    # "" would name the current directory: read as a file, or written into.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert exit_code(build(tmp_path)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f'argument {flag}: expected a non-empty path, got ""' \
        in captured.err
    assert captured.out == ""
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("build, code, needle", [
    (lambda p: sweep_argv(p, tracker={"process_noise": 10 ** 400}),
     EXIT_CONFIG, "tracker.process_noise: expected a finite number, got 1"),
    (lambda p: sweep_argv(p, rng_seed=10 ** 4000), EXIT_CONFIG,
     "rng_seed: expected an integer in [0, 2**64), got 1"),
    (lambda p: holding(sweep_argv(p), p / "config.json",
                       '{"rng_seed": 1' + "0" * 5000 + "}"),
     EXIT_CONFIG, "config.json: not valid JSON: an integer literal has more "
                  "than"),
    (lambda p: eval_argv(p, sidecar={"provenance": {"0": {"1": "x" * 5000}}}),
     EXIT_DATASET, "out.txt.meta.json: frame 0 id 1: provenance must be"),
    # A key, name or pattern of 3,000 characters is cut like a value.
    (lambda p: sweep_argv(p, variants=["noisy:p"],
                          profiles={"p": {LONG: 1}}),
     EXIT_CONFIG, 'unknown profiles["p"] field "xxx'),
    (lambda p: sweep_argv(p, **{LONG: 1}), EXIT_CONFIG,
     'unknown config keys ["xxx'),
    (lambda p: sweep_argv(p, dataset={"kind": "reference", LONG: 1}),
     EXIT_CONFIG, 'dataset: unknown fields ["xxx'),
    (lambda p: sweep_argv(p, dataset={"kind": LONG}), EXIT_CONFIG,
     'unknown dataset kind "xxx'),
    (lambda p: sweep_argv(p, profiles={LONG + "/": {}}), EXIT_CONFIG,
     'profiles["xxx'),
    (lambda p: sweep_argv(p, tracker_overrides={LONG: {}}), EXIT_CONFIG,
     'tracker_overrides["xxx'),
    (lambda p: sweep_argv(p, energy={LONG: {"preset": "second"}}),
     EXIT_CONFIG, 'energy["xxx'),
    (lambda p: sweep_argv(p, energy={"default": {"preset": LONG}}),
     EXIT_CONFIG, 'energy["default"]: unknown energy preset "xxx'),
    (lambda p: sweep_argv(p, energy={"default": {"preset": "second",
                                                 LONG: 1}}),
     EXIT_CONFIG, 'energy["default"]: a preset takes no other fields'),
    (lambda p: sweep_argv(p, variants=[LONG]), EXIT_CONFIG,
     'variant "xxx'),
    (lambda p: sweep_argv(p, variants=[f"noisy:{LONG}"]), EXIT_CONFIG,
     'variant "noisy:xxx'),
    (lambda p: sweep_argv(p, variants=[LONG, LONG]), EXIT_CONFIG,
     'variants[1]: "xxx'),
    (lambda p: sweep_argv(p, patterns=["9" * 3000]), EXIT_CONFIG,
     'invalid pattern "999'),
    (lambda p: sweep_argv(p, patterns=["1/" + "9" * 3000,
                                       "01/" + "9" * 3000]),
     EXIT_CONFIG, 'patterns[1]: "01/999'),
    (lambda p: sweep_argv(p, tracker_overrides={
        "1/" + "9" * 3000: {}, "01/" + "9" * 3000: {}}),
     EXIT_CONFIG, 'already has an override'),
    (lambda p: holding(sweep_argv(p), p / "config.json",
                       f'{{"{LONG}": 1, "{LONG}": 2}}'),
     EXIT_CONFIG, 'config.json: key "xxx'),
    (lambda p: kitti_sweep_argv(p, manifest={"0000": 4, LONG: 1}),
     EXIT_DATASET, 'manifest key "xxx'),
    (lambda p: kitti_sweep_argv(p, manifest={"0000": 4, LONG: 0}),
     EXIT_DATASET, 'bad frame count for "xxx'),
    (lambda p: eval_argv(p, sidecar={"provenance": {LONG: {LONG: "updated"}}}),
     EXIT_DATASET, 'out.txt.meta.json: frame "xxx'),
], ids=["float-field", "seed", "int-literal", "provenance", "field-name",
        "config-key", "dataset-field", "dataset-kind", "profile-name",
        "override-key", "energy-key", "preset-name", "preset-other-field",
        "variant", "variant-profile", "variant-repeat", "pattern",
        "pattern-repeat", "override-repeat",
        "json-key-repeat", "manifest-key", "manifest-count-key",
        "sidecar-key"])
def test_refusal_echoes_a_short_excerpt(tmp_path, capsys, build, code,
                                        needle):
    # A refusal names the culprit without printing a long value whole, or
    # advice about the interpreter's digit limit.
    assert exit_code(build(tmp_path)) == code
    err = capsys.readouterr().err
    assert needle in err
    assert len(err) - len(str(tmp_path)) < 200
    assert "set_int_max_str_digits" not in err


def test_energy_pattern_refusal_echoes_a_short_excerpt(capsys):
    # argparse prints its usage first; the refusal is the last line.
    assert exit_code(["energy", "--preset", "second",
                      "--pattern", "9" * 3000]) == EXIT_CONFIG
    refusal = capsys.readouterr().err.splitlines()[-1]
    assert refusal.startswith('droptrack energy: error: argument --pattern: '
                              'invalid pattern "999')
    assert len(refusal) < 200


@pytest.mark.parametrize("flag", ["--out", "--outputs"],
                         ids=["out", "outputs"])
def test_unusable_out_fails_before_any_cell(tmp_path, capsys, monkeypatch,
                                            flag):
    def no_cell(*args):
        raise AssertionError("a cell was computed")
    monkeypatch.setattr(Tracker, "step", no_cell)
    argv = out_file_argv(tmp_path, flag) + ["--pattern", "50"]
    assert exit_code(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out-is-a-file" in captured.err


def test_noisy_variant_without_numpy_fails_before_any_cell(tmp_path, capsys,
                                                           monkeypatch):
    def no_cell(*args):
        raise AssertionError("a cell was computed")
    monkeypatch.setattr(Tracker, "step", no_cell)
    monkeypatch.setitem(sys.modules, "numpy", None)  # as if not installed
    out = tmp_path / "r"
    argv = [*sweep_argv(tmp_path, variants=["gt", "noisy:p"],
                        profiles={"p": {}}), "--out", str(out)]
    assert exit_code(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert 'variant "noisy:p"' in captured.err and "numpy" in captured.err
    assert not out.exists()


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
        assert 'invalid pattern "42": unknown target; named targets are' \
            in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


# sha256 of the README config's sweep.json: the seed-7 ref-sweep digest.
README_SWEEP_SHA256 = \
    "07bc1527210a5323375ef15552efae75281457edfd68566945d84b7818801a25"


def write_readme_config(tmp_path):
    """The README's ```json config, written to tmp_path/readme.json."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "readme.json"
    cfg.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
    return cfg


def test_readme_sweep_reproduces_its_report_and_cell_outputs(tmp_path,
                                                             capsys):
    cfg = write_readme_config(tmp_path)
    trees = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--outputs", str(out / "cells")]) == EXIT_OK
        trees.append({path.relative_to(out): path.read_bytes()
                      for path in out.rglob("*") if path.is_file()})
    assert hashlib.sha256(trees[0][Path("sweep.json")]).hexdigest() \
        == README_SWEEP_SHA256
    # The two report files, and 12 cells, each one sequence's outputs and
    # their sidecar.
    assert sorted(str(p) for p in trees[0] if p.parent == Path(".")) \
        == ["sweep.csv", "sweep.json"]
    assert len(trees[0]) == 2 + 12 * 2
    assert trees[0] == trees[1]


def test_noisy_variant_with_broken_numpy_fails_before_any_cell(tmp_path):
    # A numpy that is found but fails to import: the README sweep, whose
    # gt cells come first, is refused before any cell runs. --out and
    # --outputs are made before the check, so they exist, empty.
    fake = tmp_path / "fake" / "numpy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text('raise ImportError("broken numpy")\n')
    cfg = write_readme_config(tmp_path)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tmp_path / "fake"), str(src)]))
    done = subprocess.run(
        [sys.executable, "-m", "droptrack.cli", "sweep", "--config", str(cfg),
         "--out", "r", "--outputs", "r/cells"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert "noisy:field" in done.stderr and "numpy" in done.stderr
    assert done.stdout == ""
    assert not [path for path in (tmp_path / "r" / "cells").rglob("*")
                if path.is_file()]


def test_commands_read_and_write_utf8_whatever_the_locale(tmp_path):
    # A read or write that falls back on the locale's encoding raises
    # EncodingWarning, here an error, so each command must name UTF-8.
    (tmp_path / "labels").mkdir()
    labels = tmp_path / "labels" / "0000.txt"
    labels.write_text("".join(kitti_label_row(f, 1, x=2.0 + 0.1 * f) + "\n"
                              for f in range(4)))
    cfg = write_config(tmp_path, patterns=["1/1", "1/2"], dataset={
        "kind": "kitti", "path": str(tmp_path / "labels")})
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (["sweep", "--config", str(cfg), "--out", "r",
                  "--outputs", "r/cells"],
                 ["eval", "--labels", str(labels),
                  "--outputs", "r/cells/gt/1of2/0000.txt"]):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "droptrack.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_OK, (argv, done.stderr)
        assert "EncodingWarning" not in done.stderr


class TestSweep:
    def test_grid_with_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        names = ("sweep.csv", "sweep.json")
        assert sorted(p.name for p in out.iterdir()) == list(names)
        # The table, then one line per written file.
        assert capsys.readouterr().out == (out / "sweep.csv").read_text() \
            + "".join(f"wrote {out / name}\n" for name in names)
        data_rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert len(data_rows) == 2

    def test_report_files_hold_the_same_rows(self, tmp_path, capsys):
        # Each sweep.json row, printed as sweep.csv prints a row (floats to
        # 6 decimals, null as blank), is that file's row.
        def printed(value):
            if value is None:
                return ""
            return f"{value:.6f}" if isinstance(value, float) else str(value)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_readme_config(tmp_path)),
                     "--out", str(out)]) == EXIT_OK
        with open(out / "sweep.csv", newline="", encoding="utf-8") as f:
            csv_rows = list(csv.DictReader(f))
        json_rows = json.loads((out / "sweep.json").read_text())["rows"]
        assert len(json_rows) == len(csv_rows) == 12
        for json_row, csv_row in zip(json_rows, csv_rows):
            assert {name: printed(value)
                    for name, value in json_row.items()} == csv_row

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

    def test_sweep_rows_round_trip_through_eval(self, tmp_path, capsys):
        # Beside each frame's moving Car, a Pedestrian and a DontCare row
        # that both readers skip; the Car is on the last frame, so eval
        # reads the length the sweep read.
        labels_dir = tmp_path / "labels"
        labels_dir.mkdir()
        labels = labels_dir / "0000.txt"
        labels.write_text("".join(
            kitti_label_row(f, 1, x=2.0 + 0.4 * f) + "\n"
            + kitti_label_row(f, 2, x=-4.0, z=20.0, kind="Pedestrian") + "\n"
            + kitti_label_row(f, -1, x=6.0, z=40.0, kind="DontCare") + "\n"
            for f in range(30)))
        cfg = write_config(tmp_path, dataset={"kind": "kitti",
                                              "path": str(labels_dir)})
        assert main(["sweep", "--config", str(cfg), "--pattern", "1/1",
                     "--pattern", "1/4", "--out", str(tmp_path / "r"),
                     "--outputs", str(tmp_path / "cells")]) == EXIT_OK
        rows = json.loads((tmp_path / "r" / "sweep.json").read_text())["rows"]
        assert [row["target"] for row in rows] == ["100", "25"]
        for row, cell in zip(rows, ("1of1", "1of4")):
            capsys.readouterr()
            assert main(["eval", "--labels", str(labels), "--outputs",
                         str(tmp_path / "cells" / "gt" / cell / "0000.txt")]
                        ) == EXIT_OK
            printed = dict(line.split(" ", 1) for line in
                           capsys.readouterr().out.splitlines()[:5])
            for name in ("hota", "det_a", "ass_a", "mota"):
                assert printed[name] == f"{row[name]:.6f}", (cell, name)
            # The output rows store each box field to 6 decimals, so the
            # IoUs eval recomputes, and the MOTP averaged from them, move
            # in their last digits: 96.155049 here against the row's
            # 96.155048 at 1/4.
            assert float(printed["motp"]) == pytest.approx(row["motp"],
                                                           abs=1e-5), cell

    def test_output_rows_of_other_types_are_skipped(self, tmp_path, capsys):
        # Beside each frame's Car, a Pedestrian 0.3 m to the side. Output
        # rows, like label rows, are scoped to Car: it is no false positive.
        cars = "".join(kitti_label_row(f, 1) + "\n" for f in range(4))
        labels = tmp_path / "0000.txt"
        labels.write_text(cars)
        outputs = tmp_path / "out.txt"
        outputs.write_text(cars + "".join(
            kitti_label_row(f, 2, x=2.3, kind="Pedestrian") + "\n"
            for f in range(4)))
        assert main(["eval", "--labels", str(labels), "--outputs",
                     str(outputs)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hota 100.000000" in out
        assert "mota 100.000000" in out
        assert "tp 4 fp 0 fn 0 id_switches 0" in out

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
