"""Run and sweep orchestration.

A cell = (detector variant, drop pattern) evaluated over every sequence of
the dataset: schedule → per-frame detect/track loop → pooled metrics →
modeled draw. A sweep is the cross-product of configured variants and
patterns, with yield computed against the same variant's full-rate row.

Reports are byte-deterministic: fixed float formatting, sorted JSON keys,
no timestamps. Two runs with the same config and seed produce identical
files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .detectors import NoiseProfile, gt_detect, noisy_detect, scene_context
from .energy import (ENERGY_PRESETS, EnergyParams, UndefinedYieldError,
                     estimate_draw_multi, yield_metric)
from .geometry import DEFAULT_CLASS_SET, SIMILARITY_FNS
from .kitti_io import SequenceData, load_label_dir, load_manifest, \
    write_frame_outputs
from . import metrics
from .metrics import clear_pooled, hota_pooled
from .schedule import (DropPattern, Schedule, TARGET_PATTERNS, build_schedule,
                       parse_pattern, processed_count)
from .scenario import reference_scenario
from .tracker import FrameOutput, Tracker, TrackerConfig


class ConfigError(Exception):
    """Invalid run configuration."""


class ComputationError(Exception):
    """A sweep cell failed; the message names the offending cell."""


_PATTERN_TO_TARGET = {pattern: target for target, pattern in TARGET_PATTERNS.items()}


def target_label(pattern: DropPattern) -> str:
    """Named percentage when the pattern is one of the standard six."""
    target = _PATTERN_TO_TARGET.get((pattern.n, pattern.m))
    return str(target) if target is not None else str(pattern)


@dataclass(frozen=True)
class RunConfig:
    dataset: dict
    variants: tuple[str, ...]
    patterns: tuple[DropPattern, ...]
    profiles: dict[str, NoiseProfile]
    tracker: TrackerConfig
    tracker_overrides: dict[DropPattern, TrackerConfig]
    energy: dict[str, EnergyParams]
    class_set: frozenset[str] = DEFAULT_CLASS_SET
    similarity: str = "3d-iou"
    clear_threshold: float = 0.5
    rng_seed: int = 0


# JSON names of the Python types json.loads returns. An integer may stand
# for a float; NaN, infinity and booleans pass for nothing.
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a finite number"}
# The Python type of each dataclass field annotation a config object sets.
_FIELD_TYPES = {"float": float, "int": int, "str": str,
                "tuple[float, float]": list}


def _typed(value, kind: type, where: str):
    """value itself, or a ConfigError naming `where` if its type is wrong."""
    if not (type(value) is kind or kind is float and type(value) is int) \
            or type(value) is float and not math.isfinite(value):
        raise ConfigError(f"{where}: expected {_JSON_NAMES[kind]}, "
                          f"got {json.dumps(value)}")
    return value


def _string_array(data: dict, key: str, default: list) -> list[str]:
    return [_typed(v, str, f"{key}[{i}]")
            for i, v in enumerate(_typed(data.get(key, default), list, key))]


def _from_object(cls, body, where: str):
    """cls(**body) for a JSON object whose fields are each type-checked."""
    types = {f.name: _FIELD_TYPES[f.type] for f in fields(cls)}
    for name, value in _typed(body, dict, where).items():
        if name not in types:
            raise ConfigError(f"unknown {where} field {name!r}")
        _typed(value, types[name], f"{where}.{name}")
    try:
        return cls(**body)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_energy_entry(entry, where: str) -> EnergyParams:
    if isinstance(entry, dict) and "preset" in entry:
        name = _typed(entry["preset"], str, f"{where}.preset")
        if name not in ENERGY_PRESETS:
            raise ConfigError(f"{where}: unknown energy preset {name!r}; "
                              f"known: {sorted(ENERGY_PRESETS)}")
        return ENERGY_PRESETS[name]
    return _from_object(EnergyParams, entry, where)


_TRACKER_FIELDS = {f.name for f in fields(TrackerConfig)}


def config_from_dict(data: dict) -> RunConfig:
    """Validate a JSON config object; every bad field is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")

    dataset = data.get("dataset", {"kind": "reference"})
    if not isinstance(dataset, dict) or "kind" not in dataset:
        raise ConfigError("dataset must be an object with a 'kind' field")
    if dataset["kind"] not in ("reference", "kitti"):
        raise ConfigError(f"unknown dataset kind {dataset['kind']!r}")
    if dataset["kind"] == "kitti" and "path" not in dataset:
        raise ConfigError("kitti dataset requires a 'path' field")
    for key in ("path", "manifest"):
        if dataset.get(key) is not None:
            _typed(dataset[key], str, f"dataset.{key}")

    raw_patterns = data.get("patterns")
    if not raw_patterns:
        raise ConfigError("config requires at least one pattern")
    try:
        patterns = tuple(parse_pattern(str(p))
                         for p in _typed(raw_patterns, list, "patterns"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    variants = tuple(_string_array(data, "variants", ["gt"]))
    if not variants:
        raise ConfigError("config requires at least one variant")

    profiles = {name: _from_object(NoiseProfile, body, f"profiles[{name!r}]")
                for name, body in _typed(data.get("profiles", {}), dict,
                                         "profiles").items()}
    for variant in variants:
        if variant == "gt":
            continue
        if not variant.startswith("noisy:"):
            raise ConfigError(f"variant {variant!r} must be 'gt' or 'noisy:<profile>'")
        profile = variant.split(":", 1)[1]
        if profile not in profiles:
            raise ConfigError(f"variant {variant!r} references undefined "
                              f"profile {profile!r}")

    tracker = _from_object(TrackerConfig, data.get("tracker", {}), "tracker")
    overrides = {}
    for key, body in _typed(data.get("tracker_overrides", {}), dict,
                            "tracker_overrides").items():
        where = f"tracker_overrides[{key!r}]"
        try:
            pattern = parse_pattern(str(key))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        unknown = set(_typed(body, dict, where)) - _TRACKER_FIELDS
        if unknown:
            raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
        overrides[pattern] = _from_object(TrackerConfig,
                                          {**asdict(tracker), **body}, where)

    similarity = data.get("similarity", "3d-iou")
    known = sorted(SIMILARITY_FNS)
    if similarity not in known:
        raise ConfigError(f"similarity {similarity!r}: expected one of {known}")

    energy = {key: _parse_energy_entry(body, f"energy[{key!r}]")
              for key, body in _typed(data.get("energy", {}), dict,
                                      "energy").items()}

    return RunConfig(
        dataset=dataset,
        variants=variants,
        patterns=patterns,
        profiles=profiles,
        tracker=tracker,
        tracker_overrides=overrides,
        energy=energy,
        class_set=frozenset(_string_array(data, "class_set",
                                          sorted(DEFAULT_CLASS_SET))),
        similarity=similarity,
        clear_threshold=float(_typed(data.get("clear_threshold", 0.5), float,
                                     "clear_threshold")),
        rng_seed=_typed(data.get("rng_seed", 0), int, "rng_seed"),
    )


def read_config_json(path) -> dict:
    """The JSON object in a config file; any read failure is a ConfigError."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def config_from_json(path) -> RunConfig:
    return config_from_dict(read_config_json(path))


def load_sequences(config: RunConfig) -> list[SequenceData]:
    dataset = config.dataset
    if dataset["kind"] == "reference":
        return [reference_scenario()]
    manifest = None
    if dataset.get("manifest"):
        manifest = load_manifest(dataset["manifest"])
    return load_label_dir(dataset["path"], manifest=manifest,
                          class_set=config.class_set)


def tracker_config_for(config: RunConfig, pattern: DropPattern) -> TrackerConfig:
    return config.tracker_overrides.get(pattern, config.tracker)


@dataclass(frozen=True)
class MetricsRow:
    variant: str
    target: str
    effective_target: float
    hota: float
    det_a: float
    ass_a: float
    mota: float
    motp: float
    processed_frames: int
    draw_watts: float | None
    yield_w_per_pt: float | None = None


@dataclass(frozen=True)
class CellResult:
    row: MetricsRow
    outputs_per_sequence: dict[str, list[FrameOutput]]
    schedules: dict[str, Schedule]


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[MetricsRow, ...]


def _profile_rng_seed(profile: NoiseProfile, config: RunConfig) -> NoiseProfile:
    # The run-level seed shifts every profile stream so sweeps with a new
    # seed redraw noise without editing each profile.
    return replace(profile, rng_seed=(profile.rng_seed + config.rng_seed) % 2**64)


def run_once(config: RunConfig, variant: str, pattern: DropPattern,
             sequences: list[SequenceData] | None = None) -> CellResult:
    """One (variant, pattern) cell; a failure in it is a ComputationError."""
    if sequences is None:
        sequences = load_sequences(config)
    tracker_cfg = tracker_config_for(config, pattern)

    profile = None
    if variant.startswith("noisy:"):
        profile = _profile_rng_seed(config.profiles[variant.split(":", 1)[1]],
                                    config)
    elif variant != "gt":
        raise ConfigError(f"unknown variant {variant!r}")

    try:
        tables_per_seq = []
        outputs_per_sequence: dict[str, list[FrameOutput]] = {}
        schedules: dict[str, Schedule] = {}
        for seq in sequences:
            schedule = build_schedule(pattern, seq.frame_count)
            schedules[seq.sequence_id] = schedule
            frames = seq.labels_by_frame()
            scene = scene_context(list(seq.labels))
            tracker = Tracker(tracker_cfg)
            outputs: list[FrameOutput] = []
            for frame_index in range(seq.frame_count):
                detections = None
                if schedule.is_processed(frame_index):
                    if profile is None:
                        detections = gt_detect(frames[frame_index],
                                               config.class_set)
                    else:
                        detections = noisy_detect(frames[frame_index], profile,
                                                  frame_index, seq.sequence_id,
                                                  scene, config.class_set)
                outputs.append(tracker.step(frame_index, detections))
            outputs_per_sequence[seq.sequence_id] = outputs
            # Looked up at call time, so the benchmark's traced pass sees it.
            tables_per_seq.append(metrics.build_frame_tables(
                list(seq.labels), outputs, config.similarity))

        hota_res = hota_pooled(tables_per_seq)
        clear_res = clear_pooled(tables_per_seq, config.clear_threshold)

        total_frames = sum(s.sequence_length for s in schedules.values())
        total_processed = sum(processed_count(s) for s in schedules.values())

        params = config.energy.get(variant, config.energy.get("default"))
        draw = estimate_draw_multi(params, list(schedules.values())) \
            if params is not None else None
    except Exception as exc:
        raise ComputationError(f"cell variant={variant} pattern={pattern} "
                               f"failed: {exc}") from exc

    row = MetricsRow(
        variant=variant,
        target=target_label(pattern),
        # Pooled over sequences, so not one schedule's effective_target.
        effective_target=100.0 * total_processed / total_frames,
        hota=hota_res.hota,
        det_a=hota_res.det_a,
        ass_a=hota_res.ass_a,
        mota=clear_res.mota,
        motp=clear_res.motp,
        processed_frames=total_processed,
        draw_watts=draw,
    )
    return CellResult(row=row, outputs_per_sequence=outputs_per_sequence,
                      schedules=schedules)


def run_sweep(config: RunConfig,
              sequences: list[SequenceData] | None = None) -> SweepReport:
    if sequences is None:
        sequences = load_sequences(config)
    by_cell = {}
    for variant in config.variants:
        for pattern in config.patterns:
            by_cell[(variant, pattern)] = run_once(config, variant, pattern,
                                                   sequences)

    rows = []
    for variant in config.variants:
        baseline = by_cell.get((variant, DropPattern(1, 1)))
        for pattern in config.patterns:
            row = by_cell[(variant, pattern)].row
            if (pattern != DropPattern(1, 1) and baseline is not None
                    and row.draw_watts is not None
                    and baseline.row.draw_watts is not None):
                try:
                    record = yield_metric(
                        (baseline.row.draw_watts, baseline.row.hota),
                        (row.draw_watts, row.hota))
                    row = replace(row, yield_w_per_pt=record.yield_value)
                except UndefinedYieldError:
                    pass
            rows.append(row)
    return SweepReport(rows=tuple(rows))


# --- report persistence ---------------------------------------------------

_CSV_COLUMNS = ("variant", "target", "effective_target", "hota", "det_a",
                "ass_a", "mota", "motp", "processed_frames", "draw_watts",
                "yield_w_per_pt")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def render_sweep_csv(report: SweepReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in report.rows:
        writer.writerow([_fmt(getattr(row, col)) for col in _CSV_COLUMNS])
    return buf.getvalue()


def render_tradeoff_csv(report: SweepReport) -> str:
    """Long-format performance-vs-draw table for plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("variant", "target", "draw_watts", "hota"))
    for row in report.rows:
        writer.writerow((row.variant, row.target, _fmt(row.draw_watts),
                         _fmt(row.hota)))
    return buf.getvalue()


def render_sweep_json(report: SweepReport) -> str:
    payload = {"rows": [
        {col: (None if getattr(row, col) is None
               else (float(_fmt(getattr(row, col)))
                     if isinstance(getattr(row, col), float)
                     else getattr(row, col)))
         for col in _CSV_COLUMNS}
        for row in report.rows
    ]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report(report: SweepReport, out_dir) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "sweep_csv": out_dir / "sweep.csv",
        "sweep_json": out_dir / "sweep.json",
        "tradeoff_csv": out_dir / "tradeoff.csv",
    }
    paths["sweep_csv"].write_text(render_sweep_csv(report))
    paths["sweep_json"].write_text(render_sweep_json(report))
    paths["tradeoff_csv"].write_text(render_tradeoff_csv(report))
    return paths


def write_cell_outputs(result: CellResult, out_dir) -> None:
    """Persist one cell's per-sequence tracker outputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seq_id, outputs in sorted(result.outputs_per_sequence.items()):
        write_frame_outputs(outputs, out_dir / f"{seq_id}.txt")
