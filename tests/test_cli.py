"""Command-line interface: subcommand flows and exit codes."""

import json

import pytest

from droptrack.cli import (EXIT_COMPUTE, EXIT_CONFIG, EXIT_DATASET, EXIT_OK,
                           main)


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


ENERGY_MODEL = ["energy", "--idle-draw", "150", "--active-draw", "350",
                "--inference-time", "0.05"]


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
    (lambda p: eval_argv(p, sidecar=[1]), EXIT_DATASET, "out.txt.meta.json"),
    (lambda p: eval_argv(p, sidecar={"provenance": {"0": 5}}), EXIT_DATASET,
     "out.txt.meta.json"),
    # Command-line argument errors.
    (lambda p: ENERGY_MODEL + ["--pattern", "3/2"], EXIT_CONFIG, "--pattern"),
    (lambda p: ENERGY_MODEL + ["--length", "0"], EXIT_CONFIG, "--length"),
    (lambda p: ["energy", "--idle-draw", "300", "--active-draw", "100",
                "--inference-time", "0.05"], EXIT_CONFIG, "--idle-draw"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\n")
     + ["--sample-rate", "0"], EXIT_CONFIG, "--sample-rate"),
    (lambda p: power_log_argv(p, "timestamp_s,power\n0,1\n"), EXIT_CONFIG,
     "log.csv"),
    (lambda p: power_log_argv(p, "timestamp_s,watts\n0,1\n0.01,abc\n"),
     EXIT_CONFIG, "log.csv:3:"),
    (lambda p: eval_argv(p, extra=["--frame-count", "0"]), EXIT_CONFIG,
     "--frame-count"),
    # A failing cell names itself under `run` as under `sweep`: a label set
    # with no object of the configured class has no ground truth to score.
    (lambda p: ["run", *kitti_sweep_argv(p, class_set=["Van"])[1:]],
     EXIT_COMPUTE, "variant=gt pattern=1/1"),
], ids=["similarity", "override-key", "override-value", "jobs-flag",
        "manifest", "output-frame-past-end", "output-frame-negative",
        "output-frame-not-int", "tracker-not-object",
        "override-body-not-object", "overrides-not-object",
        "profiles-not-object", "energy-not-object", "clear-threshold-string",
        "rng-seed-string", "class-set-string", "label-track-id-negative",
        "frame-count-below-labels", "manifest-count-below-labels",
        "output-duplicate-id", "sidecar-not-object",
        "sidecar-provenance-entry-not-object", "energy-pattern",
        "energy-length", "energy-draw-order", "energy-sample-rate",
        "power-log-no-watts", "power-log-bad-watts", "eval-frame-count-zero",
        "run-cell-failure"])
def test_bad_input_exit_code_names_the_culprit(tmp_path, capsys, build, code,
                                               needle):
    assert exit_code(build(tmp_path)) == code
    assert needle in capsys.readouterr().err


class TestRun:
    def test_single_cell(self, capsys):
        code = main(["run", "--pattern", "1/1", "--variant", "gt"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("variant,target,")
        assert len(lines) == 2
        assert lines[1].startswith("gt,100,100.000000,")

    def test_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, patterns=["1/2"])
        code = main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "cells")])
        assert code == EXIT_OK
        out_file = tmp_path / "cells" / "gt" / "1of2" / "reference.txt"
        assert out_file.exists()
        assert (tmp_path / "cells" / "gt" / "1of2"
                / "reference.txt.meta.json").exists()

    def test_named_target_flag(self, capsys):
        code = main(["run", "--target", "50", "--variant", "gt"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.split(",")[1] == "50"

    def test_bad_target_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "--target", "42"])

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


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
        assert main(["run", "--config", str(cfg), "--out",
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
