"""Command-line entry point.

Subcommands: run (single cell), sweep (variant × pattern grid), eval
(metrics on stored outputs), energy (log summarization or model
estimation), report (rewrite a stored sweep's report files).

Exit codes: 0 success, 2 configuration error, 3 dataset error,
4 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .energy import (ENERGY_PRESETS, EnergyParams, estimate_draw,
                     read_power_log_csv, summarize_power_log)
from .kitti_io import DatasetError, parse_kitti_labels, read_frame_outputs
from .metrics import SIMILARITY_FNS, NoGroundTruthError, clear_mot, hota
from .pipeline import (ComputationError, ConfigError, MetricsRow, SweepReport,
                       config_from_dict, load_sequences, read_config_json,
                       render_sweep_csv, run_once, run_sweep,
                       write_cell_outputs, write_report)
from .schedule import build_schedule, parse_pattern

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
                       choices=["100", "90", "75", "50", "25", "10"],
                       help="named processing target, repeatable")
        p.add_argument("--variant", default=None,
                       help="detector variant (gt or noisy:<profile>)")
        p.add_argument("--seed", type=int, default=None, metavar="U64")
        p.add_argument("--out", type=Path, default=None, metavar="DIR")

    run_p = sub.add_parser("run", help="evaluate one (variant, pattern) cell")
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
    energy_p.add_argument("--sample-rate", type=_positive(float), default=100.0)
    energy_p.add_argument("--preset", choices=sorted(ENERGY_PRESETS),
                          default=None)
    energy_p.add_argument("--idle-draw", type=float, default=None)
    energy_p.add_argument("--active-draw", type=float, default=None)
    energy_p.add_argument("--inference-time", type=float, default=None)
    energy_p.add_argument("--cycle-time", type=float, default=0.1)
    energy_p.add_argument("--pattern", type=parse_pattern, default="1/1",
                          metavar="N/M")
    energy_p.add_argument("--length", type=_positive(int), default=1000,
                          help="schedule length in frames")

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


def _cmd_run(args) -> int:
    config = _load_config(args)
    sequences = load_sequences(config)
    rows = []
    for variant in config.variants:
        for pattern in config.patterns:
            result = run_once(config, variant, pattern, sequences)
            rows.append(result.row)
            if args.out is not None:
                cell_dir = Path(args.out) / variant.replace(":", "_") / \
                    f"{pattern.n}of{pattern.m}"
                write_cell_outputs(result, cell_dir)
    print(render_sweep_csv(SweepReport(rows=tuple(rows))), end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    report = run_sweep(config)
    print(render_sweep_csv(report), end="")
    if args.out is not None:
        paths = write_report(report, args.out)
        for name in sorted(paths):
            print(f"wrote {paths[name]}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    sequence = parse_kitti_labels(args.labels, sequence_id=args.labels.stem,
                                  frame_count=args.frame_count)
    outputs = read_frame_outputs(args.outputs, args.sidecar,
                                 frame_count=sequence.frame_count)
    labels = list(sequence.labels)
    hota_res = hota(labels, outputs, args.similarity)
    clear_res = clear_mot(labels, outputs, args.clear_threshold,
                          args.similarity)
    print(f"hota {hota_res.hota:.6f}")
    print(f"det_a {hota_res.det_a:.6f}")
    print(f"ass_a {hota_res.ass_a:.6f}")
    print(f"mota {clear_res.mota:.6f}")
    print(f"motp {clear_res.motp:.6f}")
    print(f"tp {clear_res.tp} fp {clear_res.fp} fn {clear_res.fn} "
          f"id_switches {clear_res.id_switches}")
    return EXIT_OK


def _cmd_energy(args) -> int:
    if args.log is not None:
        try:
            log = read_power_log_csv(args.log, sample_rate=args.sample_rate)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read power log {args.log}: {exc}") \
                from None
        print(f"median_draw_watts {summarize_power_log(log):.6f}")
        return EXIT_OK
    if args.preset is not None:
        params = ENERGY_PRESETS[args.preset]
    else:
        missing = [name for name in ("idle_draw", "active_draw", "inference_time")
                   if getattr(args, name) is None]
        if missing:
            raise ConfigError(
                f"energy model needs --preset or explicit {missing}")
        try:
            params = EnergyParams(idle_draw=args.idle_draw,
                                  active_draw=args.active_draw,
                                  inference_time=args.inference_time,
                                  cycle_time=args.cycle_time)
        except ValueError as exc:
            raise ConfigError(
                f"--idle-draw/--active-draw/--inference-time/--cycle-time: "
                f"{exc}") from None
    schedule = build_schedule(args.pattern, args.length)
    print(f"estimated_draw_watts {estimate_draw(params, schedule):.6f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        payload = json.loads(args.sweep.read_text())
        rows = tuple(MetricsRow(**row) for row in payload["rows"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load sweep report {args.sweep}: {exc}") \
            from None
    paths = write_report(SweepReport(rows=rows), args.out)
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
