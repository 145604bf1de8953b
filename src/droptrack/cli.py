"""Command-line entry point.

Subcommands: sweep (the grid, its report files and, with --outputs, each
cell's tracker outputs), eval (metrics on stored outputs), energy (the
modeled draw of one drop pattern).

Exit codes: 0 success, 2 configuration error, 3 dataset error,
4 computation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .energy import ENERGY_PRESETS, estimate_draw_multi
from .kitti_io import (DatasetError, parse_kitti_labels, read_frame_outputs,
                       read_json_object)
from . import metrics
from .metrics import NoGroundTruthError, clear_mot, hota
from .pipeline import (ComputationError, ConfigError, config_from_dict,
                       energy_params, output_dir, read_pattern,
                       render_sweep_csv, run_sweep, write_report)
from .schedule import DropPattern, build_schedule

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


def _pattern(text: str) -> DropPattern:
    """Argument type: a drop pattern, refused as the config refuses it."""
    try:
        return read_pattern(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _path(text: str) -> Path:
    """Argument type: a Path, but not "", the current directory."""
    if not text:
        raise argparse.ArgumentTypeError('expected a non-empty path, got ""')
    return Path(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droptrack",
        description="Tracking-under-frame-dropping evaluation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="evaluate the full grid")
    sweep_p.add_argument("--config", type=_path, default=None,
                         help="JSON run configuration")
    sweep_p.add_argument("--pattern", action="append", default=None,
                         metavar="N/M", help="drop pattern or named target, "
                                             "repeatable")
    sweep_p.add_argument("--variant", default=None,
                         help="detector variant (gt or noisy:<profile>)")
    sweep_p.add_argument("--out", type=_path, default=None, metavar="DIR",
                         help="write sweep.csv and sweep.json")
    sweep_p.add_argument("--outputs", type=_path, default=None, metavar="DIR",
                         help="write each cell's tracker outputs to "
                              "DIR/<variant>/<n>of<m>/<sequence>.txt")

    eval_p = sub.add_parser("eval", help="metrics for stored outputs")
    eval_p.add_argument("--labels", type=_path, required=True)
    eval_p.add_argument("--outputs", type=_path, required=True)
    eval_p.add_argument("--frame-count", type=_positive(int), default=None)

    energy_p = sub.add_parser("energy", help="modeled draw of a drop pattern")
    energy_p.add_argument("--preset", choices=sorted(ENERGY_PRESETS),
                          default=None)
    energy_p.add_argument("--idle-draw", type=float, default=None)
    energy_p.add_argument("--active-draw", type=float, default=None)
    energy_p.add_argument("--inference-time", type=float, default=None)
    energy_p.add_argument("--pattern", type=_pattern, default=None,
                          metavar="N/M", help="drop pattern (default 1/1)")
    energy_p.add_argument("--length", type=_positive(int), default=None,
                          help="schedule length in frames (default 1000)")
    return parser


def _load_config(args):
    """Merge the JSON config (if any) with command-line overrides."""
    raw = {} if args.config is None \
        else read_json_object(args.config, "config", ConfigError)
    if args.pattern:
        raw["patterns"] = args.pattern
    raw.setdefault("patterns", ["1/1"])
    if args.variant is not None:
        raw["variants"] = [args.variant]
    return config_from_dict(raw)


def _check_out(args) -> None:
    """Fail on an unusable --out or --outputs before any cell is computed."""
    for out in (args.out, args.outputs):
        if out is not None:
            with output_dir(out):
                pass


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    _check_out(args)
    report = run_sweep(config, outputs_dir=args.outputs)
    print(render_sweep_csv(report), end="")
    if args.out is not None:
        paths = write_report(report, args.out)
        for name in sorted(paths):
            print(f"wrote {paths[name]}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    sequence = parse_kitti_labels(args.labels, frame_count=args.frame_count)
    outputs = read_frame_outputs(args.outputs, sequence.frame_count)
    tables = metrics.build_frame_tables(list(sequence.labels), outputs)
    hota_res = hota(tables)
    clear_res = clear_mot(tables)
    print(f"hota {hota_res.hota:.6f}")
    print(f"det_a {hota_res.det_a:.6f}")
    print(f"ass_a {hota_res.ass_a:.6f}")
    print(f"mota {clear_res.mota:.6f}")
    print(f"motp {clear_res.motp:.6f}")
    print(f"tp {clear_res.tp} fp {clear_res.fp} fn {clear_res.fn} "
          f"id_switches {clear_res.id_switches}")
    return EXIT_OK


# The energy flags that set the draw model, named as in a config entry.
_MODEL_FLAGS = ("preset", "idle_draw", "active_draw", "inference_time")


def _cmd_energy(args) -> int:
    model = {name: getattr(args, name) for name in _MODEL_FLAGS
             if getattr(args, name) is not None}
    given = ", ".join("--" + name.replace("_", "-") for name in model)
    params = energy_params(model, f"energy [{given}]")
    pattern = DropPattern(1, 1) if args.pattern is None else args.pattern
    flags = build_schedule(pattern, 1000 if args.length is None
                           else args.length)
    print(f"estimated_draw_watts {estimate_draw_multi(params, [flags]):.6f}")
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "eval": _cmd_eval,
    "energy": _cmd_energy,
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
