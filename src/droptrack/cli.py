"""Command-line entry point.

Subcommands: run (every cell's row; --out writes each cell's outputs),
sweep (the grid and its report files), eval (metrics on stored
outputs), energy (power log or draw model), report (re-render sweep.json).

Exit codes: 0 success, 2 configuration error, 3 dataset error,
4 computation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .energy import (ENERGY_PRESETS, estimate_draw_multi, read_power_log_csv,
                     summarize_power_log)
from .geometry import SIMILARITY_FNS
from .kitti_io import DatasetError, parse_kitti_labels, read_frame_outputs
from . import metrics
from .metrics import NoGroundTruthError, clear_mot, hota
from .pipeline import (ComputationError, ConfigError, SweepReport,
                       clear_threshold, config_from_dict, energy_params,
                       load_sequences, output_dir, read_config_json,
                       read_sweep_json, render_sweep_csv, run_cells, run_sweep,
                       write_cell_outputs, write_report)
from .schedule import TARGET_PATTERNS, build_schedule, parse_pattern

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_COMPUTE = 4


def _positive(convert):
    """Argument type: convert, then require a finite value above zero."""
    def parse(text):
        value = convert(text)
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droptrack",
        description="Tracking-under-frame-dropping evaluation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON run configuration")
        p.add_argument("--pattern", action="append", default=None,
                       metavar="N/M", help="drop pattern, repeatable")
        p.add_argument("--target", action="append", default=None,
                       choices=[str(t) for t in TARGET_PATTERNS],
                       help="named processing target, repeatable")
        p.add_argument("--variant", default=None,
                       help="detector variant (gt or noisy:<profile>)")
        p.add_argument("--seed", type=int, default=None, metavar="U64")
        p.add_argument("--out", type=Path, default=None, metavar="DIR")

    run_p = sub.add_parser("run", help="evaluate every (variant, pattern) cell")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="evaluate the full grid")
    add_common(sweep_p)

    eval_p = sub.add_parser("eval", help="metrics for stored outputs")
    eval_p.add_argument("--labels", type=Path, required=True)
    eval_p.add_argument("--outputs", type=Path, required=True)
    eval_p.add_argument("--sidecar", type=Path, default=None)
    eval_p.add_argument("--frame-count", type=_positive(int), default=None)
    eval_p.add_argument("--similarity", default="3d-iou",
                        choices=sorted(SIMILARITY_FNS))
    eval_p.add_argument("--clear-threshold", type=float, default=0.5)

    energy_p = sub.add_parser("energy", help="power log summary or draw model")
    energy_p.add_argument("--log", type=Path, default=None,
                          help="CSV power log (timestamp_s,watts)")
    energy_p.add_argument("--sample-rate", type=_positive(float), default=None,
                          help="log samples per second, with --log "
                               "(default 100)")
    energy_p.add_argument("--preset", choices=sorted(ENERGY_PRESETS),
                          default=None)
    energy_p.add_argument("--idle-draw", type=float, default=None)
    energy_p.add_argument("--active-draw", type=float, default=None)
    energy_p.add_argument("--inference-time", type=float, default=None)
    energy_p.add_argument("--cycle-time", type=float, default=None)
    energy_p.add_argument("--pattern", type=parse_pattern, default=None,
                          metavar="N/M", help="drop pattern (default 1/1)")
    energy_p.add_argument("--length", type=_positive(int), default=None,
                          help="schedule length in frames (default 1000)")

    report_p = sub.add_parser("report", help="rewrite the report files "
                                             "from sweep.json")
    report_p.add_argument("--sweep", type=Path, required=True,
                          help="sweep.json produced by the sweep command")
    report_p.add_argument("--out", type=Path, required=True)
    return parser


def _load_config(args):
    """Merge the JSON config (if any) with command-line overrides."""
    raw = read_config_json(args.config) if args.config is not None else {}
    if args.pattern or args.target:
        raw["patterns"] = list(args.pattern or []) + list(args.target or [])
    raw.setdefault("patterns", ["1/1"])
    if args.variant:
        raw["variants"] = [args.variant]
    if args.seed is not None:
        raw["rng_seed"] = args.seed
    return config_from_dict(raw)


def _check_out(args) -> None:
    """Fail on an unusable --out before any cell is computed."""
    if args.out is not None:
        with output_dir(args.out):
            pass


def _cmd_run(args) -> int:
    config = _load_config(args)
    _check_out(args)
    sequences = load_sequences(config)
    rows = []
    for variant, pattern, result in run_cells(config, sequences):
        rows.append(result.row)
        if args.out is not None:
            cell_dir = Path(args.out) / variant.replace(":", "_") / \
                f"{pattern.n}of{pattern.m}"
            write_cell_outputs(result, cell_dir)
    print(render_sweep_csv(SweepReport(rows=tuple(rows))), end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    _check_out(args)
    report = run_sweep(config)
    print(render_sweep_csv(report), end="")
    if args.out is not None:
        paths = write_report(report, args.out)
        for name in sorted(paths):
            print(f"wrote {paths[name]}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    threshold = clear_threshold(args.clear_threshold, "--clear-threshold")
    sequence = parse_kitti_labels(args.labels, sequence_id=args.labels.stem,
                                  frame_count=args.frame_count)
    outputs = read_frame_outputs(args.outputs, args.sidecar,
                                 frame_count=sequence.frame_count)
    tables = metrics.build_frame_tables(list(sequence.labels), outputs,
                                        args.similarity)
    hota_res = hota(tables)
    clear_res = clear_mot(tables, threshold)
    print(f"hota {hota_res.hota:.6f}")
    print(f"det_a {hota_res.det_a:.6f}")
    print(f"ass_a {hota_res.ass_a:.6f}")
    print(f"mota {clear_res.mota:.6f}")
    print(f"motp {clear_res.motp:.6f}")
    print(f"tp {clear_res.tp} fp {clear_res.fp} fn {clear_res.fn} "
          f"id_switches {clear_res.id_switches}")
    return EXIT_OK


# The energy flags that set the draw model, named as in a config entry.
_MODEL_FLAGS = ("preset", "idle_draw", "active_draw", "inference_time",
                "cycle_time")


def _given(args, names) -> str:
    """The flags among `names` that were given, as typed, comma-separated."""
    return ", ".join("--" + name.replace("_", "-") for name in names
                     if getattr(args, name) is not None)


def _cmd_energy(args) -> int:
    model = {name: getattr(args, name) for name in _MODEL_FLAGS
             if getattr(args, name) is not None}
    if args.log is not None:
        flags = _given(args, _MODEL_FLAGS + ("pattern", "length"))
        if flags:
            raise ConfigError(f"--log takes no model or schedule flags, "
                              f"got [{flags}]")
        sample_rate = 100.0 if args.sample_rate is None else args.sample_rate
        try:
            log = read_power_log_csv(args.log, sample_rate=sample_rate)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read power log {args.log}: {exc}") \
                from None
        print(f"median_draw_watts {summarize_power_log(log):.6f}")
        return EXIT_OK
    if args.sample_rate is not None:
        raise ConfigError("--sample-rate applies only to --log")
    params = energy_params(model, f"energy [{_given(args, _MODEL_FLAGS)}]")
    pattern = parse_pattern("1/1") if args.pattern is None else args.pattern
    schedule = build_schedule(pattern, 1000 if args.length is None
                              else args.length)
    print(f"estimated_draw_watts {estimate_draw_multi(params, [schedule]):.6f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    paths = write_report(read_sweep_json(args.sweep), args.out)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "eval": _cmd_eval,
    "energy": _cmd_energy,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except (ComputationError, NoGroundTruthError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
