"""Sweep orchestration.

A cell = (detector variant, drop pattern) evaluated over every sequence of
the dataset: schedule → per-frame detect/track loop → pooled metrics →
modeled draw, giving one MetricsRow. A sweep is the rows of the configured
variants × patterns, with yield against the same variant's full-rate row;
the cells of a variant share one detector, which detects each frame once.
A sweep may also write each cell's tracker outputs as the cell ends.

Reports are byte-deterministic: fixed float formatting, sorted JSON keys,
no timestamps. Two runs with the same config and seed produce identical
files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .detectors import NoiseProfile, gt_detect, noisy_detect, scene_context
from .energy import (ENERGY_PRESETS, EnergyParams, estimate_draw_multi,
                     yield_metric)
from .geometry import DEFAULT_CLASS_SET, SIMILARITY_FNS, Detection
from .kitti_io import SequenceData, load_label_dir, load_manifest, \
    write_frame_outputs
from . import metrics
from .metrics import clear_pooled, hota_pooled
from .schedule import (DropPattern, TARGET_PATTERNS, build_schedule,
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
# The Python type of each dataclass field annotation a config object or a
# report row sets; an optional field also takes null, and a pair is an
# array of two numbers.
_FIELD_TYPES = {"float": float, "int": int, "str": str,
                "tuple[float, float]": tuple, "float | None": float}


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


def _field_value(value, annotation: str, where: str):
    """A JSON field value as its dataclass field stores it: an integer given
    for a float is a float, a pair is a tuple of two floats."""
    if value is None and annotation.endswith("| None"):
        return None
    kind = _FIELD_TYPES[annotation]
    if kind is not tuple:
        return kind(_typed(value, kind, where))
    items = _typed(value, list, where)
    if len(items) != 2:
        raise ConfigError(f"{where}: expected an array of 2 numbers, "
                          f"got {json.dumps(value)}")
    return tuple(float(_typed(item, float, f"{where}[{i}]"))
                 for i, item in enumerate(items))


def _from_object(cls, body, where: str):
    """cls(**body) for a JSON object whose fields are each type-checked."""
    annotations = {f.name: f.type for f in fields(cls)}
    values = {}
    for name, value in _typed(body, dict, where).items():
        if name not in annotations:
            raise ConfigError(f"unknown {where} field {name!r}")
        values[name] = _field_value(value, annotations[name],
                                    f"{where}.{name}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def energy_params(entry, where: str) -> EnergyParams:
    """The draw model an entry gives: {"preset": name} alone, or the
    EnergyParams fields; a bad entry is a ConfigError naming `where`."""
    if isinstance(entry, dict) and "preset" in entry:
        others = sorted(set(entry) - {"preset"})
        if others:
            raise ConfigError(f"{where}: a preset takes no other fields, "
                              f"got {others}")
        name = _typed(entry["preset"], str, f"{where}.preset")
        if name not in ENERGY_PRESETS:
            raise ConfigError(f"{where}: unknown energy preset {name!r}; "
                              f"known: {sorted(ENERGY_PRESETS)}")
        return ENERGY_PRESETS[name]
    return _from_object(EnergyParams, entry, where)


def clear_threshold(value, where: str) -> float:
    """A CLEAR match threshold, a number in (0, 1]; else a ConfigError."""
    value = float(_typed(value, float, where))
    # At 0 or below, CLEAR's gate would admit every overlapping pair.
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{where} must lie in (0, 1], got {value!r}")
    return value


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_DATASET_FIELDS = {"kind", "path", "manifest"}
_TRACKER_FIELDS = {f.name for f in fields(TrackerConfig)}


def config_from_dict(data: dict) -> RunConfig:
    """Validate a JSON config object; every bad field is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    # `"jobs": 1` asks for the one thread every run uses; configs written
    # while a thread pool existed carry it.
    unknown = set(data) - _CONFIG_KEYS
    if type(data.get("jobs")) is int and data["jobs"] == 1:
        unknown.discard("jobs")
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    dataset = data.get("dataset", {"kind": "reference"})
    if not isinstance(dataset, dict) or "kind" not in dataset:
        raise ConfigError("dataset must be an object with a 'kind' field")
    unknown = set(dataset) - _DATASET_FIELDS
    if unknown:
        raise ConfigError(f"dataset: unknown fields {sorted(unknown)}")
    if dataset["kind"] not in ("reference", "kitti"):
        raise ConfigError(f"unknown dataset kind {dataset['kind']!r}")
    # The reference scenario is built in code, so a file it would not read
    # is refused rather than ignored.
    files = sorted(set(dataset) - {"kind"})
    if dataset["kind"] == "reference" and files:
        raise ConfigError(f"dataset.{files[0]}: a reference dataset reads "
                          f"no files")
    if dataset["kind"] == "kitti":
        if "path" not in dataset:
            raise ConfigError("dataset.path: a kitti dataset requires a path")
        _typed(dataset["path"], str, "dataset.path")
        if dataset.get("manifest") is not None:
            _typed(dataset["manifest"], str, "dataset.manifest")
        # An empty path would read the current directory, and an empty
        # manifest would be no manifest: neither names a file.
        for field in ("path", "manifest"):
            if dataset.get(field) == "":
                raise ConfigError(f'dataset.{field}: expected a non-empty '
                                  f'string, got ""')

    raw_patterns = data.get("patterns")
    if not raw_patterns:
        raise ConfigError("config requires at least one pattern")
    patterns = []
    for i, raw in enumerate(_typed(raw_patterns, list, "patterns")):
        try:
            pattern = parse_pattern(str(raw))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if pattern in patterns:
            raise ConfigError(f"patterns[{i}]: {str(raw)!r} repeats "
                              f"pattern {pattern}")
        patterns.append(pattern)

    variants = _string_array(data, "variants", ["gt"])
    if not variants:
        raise ConfigError("config requires at least one variant")
    for i, variant in enumerate(variants):
        if variant in variants[:i]:
            raise ConfigError(f"variants[{i}]: {variant!r} is named twice")

    profiles = {}
    for name, body in _typed(data.get("profiles", {}), dict,
                             "profiles").items():
        where = f"profiles[{name!r}]"
        # The name becomes one directory of a sweep's cell outputs, with
        # ':' written as '_': a path separator or ':' would let two
        # variants share a directory, or leave the outputs directory.
        if any(char in name for char in "/\\:\0"):
            raise ConfigError(f"{where}: a profile name may not contain "
                              f"'/', '\\', ':' or a NUL character")
        profiles[name] = _from_object(NoiseProfile, body, where)
    tracker = _from_object(TrackerConfig, data.get("tracker", {}), "tracker")
    overrides = {}
    for key, body in _typed(data.get("tracker_overrides", {}), dict,
                            "tracker_overrides").items():
        where = f"tracker_overrides[{key!r}]"
        try:
            pattern = parse_pattern(str(key))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if pattern in overrides:
            raise ConfigError(f"{where}: pattern {pattern} already has an "
                              f"override")
        unknown = set(_typed(body, dict, where)) - _TRACKER_FIELDS
        if unknown:
            raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
        overrides[pattern] = _from_object(TrackerConfig,
                                          {**asdict(tracker), **body}, where)

    similarity = data.get("similarity", "3d-iou")
    known = sorted(SIMILARITY_FNS)
    if similarity not in known:
        raise ConfigError(f"similarity {similarity!r}: expected one of {known}")

    # A draw model for every variant, or for one variant.
    energy_keys = {"default", "gt"} | {f"noisy:{name}" for name in profiles}
    energy = {}
    for key, body in _typed(data.get("energy", {}), dict, "energy").items():
        if key not in energy_keys:
            raise ConfigError(f"energy[{key!r}]: expected 'default', 'gt' "
                              f"or 'noisy:<profile>' of a defined profile")
        energy[key] = energy_params(body, f"energy[{key!r}]")

    config = RunConfig(
        dataset=dataset,
        variants=tuple(variants),
        patterns=tuple(patterns),
        profiles=profiles,
        tracker=tracker,
        tracker_overrides=overrides,
        energy=energy,
        class_set=frozenset(_string_array(data, "class_set",
                                          sorted(DEFAULT_CLASS_SET))),
        similarity=similarity,
        clear_threshold=clear_threshold(data.get("clear_threshold", 0.5),
                                        "clear_threshold"),
        rng_seed=_typed(data.get("rng_seed", 0), int, "rng_seed"),
    )
    for variant in config.variants:
        variant_detector(config, variant)  # a bad variant is a ConfigError
    return config


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
        # The same class scope as the label files get in kitti_io.
        seq = reference_scenario()
        return [replace(seq, labels=tuple(
            lab for lab in seq.labels if lab.class_label in config.class_set))]
    manifest = None
    if dataset.get("manifest") is not None:
        manifest = load_manifest(dataset["manifest"])
    return load_label_dir(dataset["path"], manifest=manifest,
                          class_set=config.class_set)


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


def variant_detector(config: RunConfig, variant: str):
    """detect(seq, frame_index): the variant's detections on that frame.

    Detections never depend on the drop pattern, so the cells of a variant
    over the same sequences share one detector, which detects each frame
    and builds each sequence's per-frame labels once. A bad variant is a
    ConfigError naming it."""
    profile = None
    if variant.startswith("noisy:"):
        name = variant.split(":", 1)[1]
        if name not in config.profiles:
            raise ConfigError(f"variant {variant!r} references undefined "
                              f"profile {name!r}")
        # The run-level seed shifts every profile stream so sweeps with a
        # new seed redraw noise without editing each profile.
        seed = (config.profiles[name].rng_seed + config.rng_seed) % 2**64
        profile = replace(config.profiles[name], rng_seed=seed)
    elif variant != "gt":
        raise ConfigError(f"variant {variant!r} must be 'gt' or 'noisy:<profile>'")
    detected: dict[tuple[str, int], list[Detection]] = {}
    per_sequence = {}  # sequence_id -> (labels by frame, scene)

    def detect(seq: SequenceData, frame_index: int) -> list[Detection]:
        key = (seq.sequence_id, frame_index)
        if key not in detected:
            # The scene comes from the whole sequence's labels, never from
            # one frame's; only a noisy variant builds it.
            if seq.sequence_id not in per_sequence:
                scene = None if profile is None \
                    else scene_context(list(seq.labels))
                per_sequence[seq.sequence_id] = (seq.labels_by_frame(), scene)
            frames, scene = per_sequence[seq.sequence_id]
            # Looked up at call time, so the benchmark's traced pass sees them.
            detected[key] = gt_detect(frames[frame_index]) if profile is None \
                else noisy_detect(frames[frame_index], profile, frame_index,
                                  seq.sequence_id, scene)
        return detected[key]
    return detect


def run_once(config: RunConfig, variant: str, pattern: DropPattern,
             sequences: list[SequenceData] | None = None,
             detect=None) -> tuple[MetricsRow, dict[str, list[FrameOutput]]]:
    """One cell: its row and tracker outputs by sequence id, or a
    ComputationError. `detect` is from variant_detector, else made here."""
    if sequences is None:
        sequences = load_sequences(config)
    if detect is None:
        detect = variant_detector(config, variant)
    tracker_cfg = config.tracker_overrides.get(pattern, config.tracker)

    try:
        schedules = [build_schedule(pattern, seq.frame_count)
                     for seq in sequences]
        outputs_per_sequence: dict[str, list[FrameOutput]] = {}
        tables_per_seq = []
        for seq, schedule in zip(sequences, schedules):
            tracker = Tracker(tracker_cfg)
            outputs = [tracker.step(i, detect(seq, i)
                                    if schedule.is_processed(i) else None)
                       for i in range(seq.frame_count)]
            outputs_per_sequence[seq.sequence_id] = outputs
            # Looked up at call time, so the benchmark's traced pass sees it.
            tables_per_seq.append(metrics.build_frame_tables(
                list(seq.labels), outputs, config.similarity))

        hota_res = hota_pooled(tables_per_seq)
        clear_res = clear_pooled(tables_per_seq, config.clear_threshold)

        total_frames = sum(s.sequence_length for s in schedules)
        total_processed = sum(processed_count(s) for s in schedules)

        params = config.energy.get(variant, config.energy.get("default"))
        draw = estimate_draw_multi(params, schedules) \
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
    return row, outputs_per_sequence


def run_sweep(config: RunConfig, sequences: list[SequenceData] | None = None,
              outputs_dir=None) -> tuple[MetricsRow, ...]:
    """Every cell's row, with yield against its variant's 1/1 row. A
    variant's cells share one detector, dropped when the next variant
    starts. With outputs_dir, each cell's tracker outputs are written to
    outputs_dir/<variant, ':' as '_'>/<n>of<m>/ as the cell ends."""
    if sequences is None:
        sequences = load_sequences(config)
    rows = []
    for variant in config.variants:
        detect = variant_detector(config, variant)
        # Rows only, so each cell's tracker outputs are freed when it ends.
        by_pattern = {}
        for pattern in config.patterns:
            row, outputs = run_once(config, variant, pattern, sequences,
                                    detect)
            if outputs_dir is not None:
                cell_dir = Path(outputs_dir) / variant.replace(":", "_") \
                    / f"{pattern.n}of{pattern.m}"
                write_cell_outputs(outputs, cell_dir)
            by_pattern[pattern] = row
        baseline = by_pattern.get(DropPattern(1, 1))
        for pattern, row in by_pattern.items():
            if (pattern != DropPattern(1, 1) and baseline is not None
                    and row.draw_watts is not None
                    and baseline.draw_watts is not None):
                row = replace(row, yield_w_per_pt=yield_metric(
                    (baseline.draw_watts, baseline.hota),
                    (row.draw_watts, row.hota)))
            rows.append(row)
    return tuple(rows)


# --- report persistence ---------------------------------------------------

_CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


# tradeoff.csv: the long-format performance-vs-draw table for plotting.
_TRADEOFF_COLUMNS = ("variant", "target", "draw_watts", "hota")


def render_sweep_csv(rows: tuple[MetricsRow, ...],
                     columns: tuple[str, ...] = _CSV_COLUMNS) -> str:
    """The rows as CSV, one column per MetricsRow field named."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in columns])
    return buf.getvalue()


def render_sweep_json(rows: tuple[MetricsRow, ...]) -> str:
    """Every row field, a float rounded as the CSV prints it."""
    records = [{col: float(_fmt(value)) if isinstance(value, float) else value
                for col, value in asdict(row).items()} for row in rows]
    return json.dumps({"rows": records}, sort_keys=True, indent=2) + "\n"


def read_sweep_json(path) -> tuple[MetricsRow, ...]:
    """The rows of a sweep.json; a read failure or bad row is a ConfigError."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load sweep report {path}: {exc}") from None
    rows = _typed(_typed(payload, dict, str(path)).get("rows"), list,
                  f"{path}: rows")
    return tuple(_from_object(MetricsRow, row, f"{path}: rows[{i}]")
                 for i, row in enumerate(rows))


@contextmanager
def output_dir(out_dir):
    """Create out_dir and yield it as a Path; an OSError, whether from the
    creation or from writes in the with-block, is a ConfigError naming it."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield out_dir
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from None


def write_report(rows: tuple[MetricsRow, ...], out_dir) -> dict[str, Path]:
    """Write sweep.csv, sweep.json and tradeoff.csv; a failure is a ConfigError."""
    with output_dir(out_dir) as out_dir:
        paths = {
            "sweep_csv": out_dir / "sweep.csv",
            "sweep_json": out_dir / "sweep.json",
            "tradeoff_csv": out_dir / "tradeoff.csv",
        }
        paths["sweep_csv"].write_text(render_sweep_csv(rows))
        paths["sweep_json"].write_text(render_sweep_json(rows))
        paths["tradeoff_csv"].write_text(
            render_sweep_csv(rows, _TRADEOFF_COLUMNS))
    return paths


def write_cell_outputs(outputs: dict[str, list[FrameOutput]], out_dir) -> None:
    """Write each sequence's tracker outputs to out_dir/<sequence id>.txt,
    with its sidecar; a failure is a ConfigError."""
    with output_dir(out_dir) as out_dir:
        for seq_id, frames in sorted(outputs.items()):
            write_frame_outputs(frames, out_dir / f"{seq_id}.txt")
