"""Seeded inputs and output checks for the benchmark workloads.

Everything the program receives is generated here from the workload seed:
a run config, a KITTI-format label directory with its manifest, and stored
tracker outputs with provenance sidecars. The generator uses only the
standard library (string-seeded ``random.Random``, whose stream Python
keeps stable), so one seed always gives byte-identical files. It keeps its
own copy of the reference cars so that a change to the program cannot
change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 7

# sha256 of the program's output for DEFAULT_SEED: sweep.json for ref-sweep,
# the concatenated stdout of every eval call for eval-stored. The ref-sweep
# digest is the one `droptrack sweep` writes for the README config.
EXPECTED_SHA256 = {
    "ref-sweep": "07bc1527210a5323375ef15552efae75281457edfd68566945d84b7818801a25",
    "eval-stored": "04bbedb5393e97dfaeca257777d04b6d2f096506947135ed41c426ccf19fe53c",
}

TILE_FRAMES = 200
FRAME_DT = 0.1

# (track_id, first_frame, last_frame, x0, y0, vx, vy, yaw, length, width,
# height): the 200-frame reference scenario's seven cars.
REFERENCE_CARS = (
    (1, 0, 199, 0.0, 0.0, 3.0, 0.0, 0.0, 4.5, 1.8, 1.5),
    (2, 0, 199, 60.0, 4.0, -2.7, 0.0, math.pi, 4.6, 1.8, 1.5),
    (3, 0, 199, -2.0, -20.0, 0.0, 2.5, math.pi / 2.0, 4.5, 1.8, 1.5),
    (4, 0, 199, 2.0, 8.2, 2.8, 0.0, 0.0, 4.4, 1.8, 1.5),
    (5, 41, 170, 50.0, -6.0, -2.6, 0.0, math.pi, 4.5, 1.8, 1.5),
    (6, 63, 199, -8.0, 12.0, 3.2, 0.0, 0.0, 4.7, 1.9, 1.5),
    (7, 59, 185, 70.0, -2.0, -3.0, 0.0, math.pi, 4.5, 1.8, 1.5),
)

# KITTI tracking validation-split lengths: 3,908 frames over 11 sequences.
KITTI_VAL_SEQUENCE_LENGTHS = {
    "0001": 447, "0006": 270, "0008": 390, "0010": 294, "0012": 78,
    "0013": 340, "0014": 106, "0015": 376, "0016": 209, "0018": 339,
    "0019": 1059,
}

# The README's run config; ref-sweep uses it with jobs 1 and rng_seed = seed.
_README_SHARED = {
    "tracker": {"measurement_noise": 0.05},
    "tracker_overrides": {"1/10": {"min_hits_to_confirm": 1}},
    "energy": {"default": {"preset": "second"}},
}
_FIELD_PROFILE = {"detection_probability": 0.92, "center_sigma": 0.15,
                  "false_positives_per_frame": 0.1, "score_range": [0.5, 1.0]}
_NAMED_TARGETS = {"1/1": "100", "9/10": "90", "3/4": "75", "1/2": "50",
                  "1/4": "25", "1/10": "10"}

# Stored-output corruption for eval-stored, per ground-truth object-frame
# unless noted.
_DROPOUT = 0.10
_ID_SWITCH = 0.02
_CENTER_JITTER = 0.2
_CLUTTER_PER_FRAME = 0.05
_PREDICTED_SHARE = 0.3
_FRESH_ID_BASE = 100_000


@dataclass(frozen=True)
class Part:
    """One operation's unit of output: a sweep's cells or one eval call."""

    units: int
    frames: int
    data: bytes


@dataclass
class Workload:
    """Generated inputs for one run, plus what the outputs must satisfy."""

    config_path: Path
    out_dir: Path
    label_dir: Path | None = None
    lengths: dict[str, int] | None = None
    cells: tuple[tuple[str, str], ...] = ()
    eval_counts: dict[str, tuple[int, int]] | None = None


def _rng(seed: int, *key) -> random.Random:
    return random.Random(":".join(["droptrack-bench", str(seed), *map(str, key)]))


def _wrap_angle(theta: float) -> float:
    wrapped = math.remainder(theta, 2.0 * math.pi)
    return wrapped + 2.0 * math.pi if wrapped <= -math.pi else wrapped


def _camera_fields(cx, cy, cz, length, width, height, yaw) -> str:
    # Inverse of the program's camera -> ground-plane map (KITTI boxes are
    # anchored at their bottom face, camera x right, y down, z forward).
    ry = _wrap_angle(-yaw - math.pi / 2.0)
    return (f"{height:.6f} {width:.6f} {length:.6f} {-cy:.6f} "
            f"{height / 2.0 - cz:.6f} {cx:.6f} {ry:.6f}")


def tiled_objects(length: int, phase: int) -> list[list[tuple]]:
    """Per frame, the reference cars at reference frame (f + phase) mod 200.

    Each 200-frame tile gets its own track ids, so a car that wraps around
    is a new object. Objects are (track_id, cx, cy, cz, length, width,
    height, yaw).
    """
    frames = []
    for frame in range(length):
        tile, ref = divmod(frame + phase, TILE_FRAMES)
        objects = []
        for car_id, first, last, x0, y0, vx, vy, yaw, l, w, h in REFERENCE_CARS:
            if first <= ref <= last:
                t = (ref - first) * FRAME_DT
                objects.append((tile * 10 + car_id, x0 + vx * t, y0 + vy * t,
                                h / 2.0, l, w, h, yaw))
        frames.append(objects)
    return frames


def _write_labels(seed: int, work: Path) -> tuple[Path, dict[str, list]]:
    label_dir = work / "labels"
    label_dir.mkdir()
    phases = _rng(seed, "phase")
    truth = {}
    for seq_id, length in KITTI_VAL_SEQUENCE_LENGTHS.items():
        frames = tiled_objects(length, phases.randrange(TILE_FRAMES))
        rows = [f"{f} {obj[0]} Car 0 0 0 -1 -1 -1 -1 {_camera_fields(*obj[1:])}"
                for f, objects in enumerate(frames) for obj in objects]
        (label_dir / f"{seq_id}.txt").write_text("\n".join(rows) + "\n")
        truth[seq_id] = frames
    (work / "manifest.json").write_text(
        json.dumps(KITTI_VAL_SEQUENCE_LENGTHS, sort_keys=True, indent=2) + "\n")
    return label_dir, truth


def _write_outputs(seed: int, seq_id: str, frames: list[list[tuple]],
                   path: Path) -> tuple[int, int]:
    """Stored tracker outputs derived from ground truth; returns
    (ground-truth objects, output entries) for the CLEAR count check."""
    rng = _rng(seed, "outputs", seq_id)
    id_map: dict[int, int] = {}
    next_id = _FRESH_ID_BASE
    rows = []
    provenance: dict[str, dict[str, str]] = {}
    n_truth = 0
    for frame, objects in enumerate(frames):
        n_truth += len(objects)
        entries = []
        for track_id, cx, cy, cz, l, w, h, yaw in objects:
            if rng.random() < _ID_SWITCH:
                id_map[track_id] = next_id
                next_id += 1
            if rng.random() < _DROPOUT:
                continue
            entries.append((id_map.get(track_id, track_id),
                            cx + rng.gauss(0.0, _CENTER_JITTER),
                            cy + rng.gauss(0.0, _CENTER_JITTER), cz, l, w, h, yaw))
        if rng.random() < _CLUTTER_PER_FRAME:
            entries.append((next_id, rng.uniform(-10.0, 100.0),
                            rng.uniform(-25.0, 35.0), 0.75, 4.5, 1.8, 1.5,
                            rng.uniform(-math.pi, math.pi)))
            next_id += 1
        frame_prov = {}
        for entry in sorted(entries):
            score = rng.uniform(0.5, 1.0)
            rows.append(f"{frame} {entry[0]} Car 0 0 0 -1 -1 -1 -1 "
                        f"{_camera_fields(*entry[1:])} {score:.6f}")
            frame_prov[str(entry[0])] = ("predicted" if rng.random() < _PREDICTED_SHARE
                                         else "updated")
        if frame_prov:
            provenance[str(frame)] = frame_prov
    path.write_text("\n".join(rows) + "\n")
    sidecar = {"frame_count": len(frames), "provenance": provenance}
    Path(f"{path}.meta.json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    return n_truth, len(rows)


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Generate the inputs of workload `name` for `seed` under `work`."""
    out_dir = work / "out"
    config_path = work / "config.json"
    if name == "ref-sweep":
        config = {
            "dataset": {"kind": "reference"},
            "patterns": ["1/1", "9/10", "3/4", "1/2", "1/4", "1/10"],
            "variants": ["gt", "noisy:field"],
            "profiles": {"field": _FIELD_PROFILE},
            **_README_SHARED,
            "rng_seed": seed % 2**64,
            "jobs": 1,
        }
        workload = Workload(config_path, out_dir,
                            lengths={"reference": TILE_FRAMES})
        workload.cells = tuple((variant, pattern) for variant in config["variants"]
                               for pattern in config["patterns"])
    elif name == "eval-stored":
        label_dir, truth = _write_labels(seed, work)
        # Only the set-up probe reads this config: it loads the label set
        # the way `droptrack sweep` would.
        config = {
            "dataset": {"kind": "kitti", "path": str(label_dir),
                        "manifest": str(work / "manifest.json")},
            "patterns": ["1/1"],
        }
        workload = Workload(config_path, out_dir, label_dir=label_dir,
                            lengths=dict(KITTI_VAL_SEQUENCE_LENGTHS))
        out_dir.mkdir()
        workload.eval_counts = {
            seq_id: _write_outputs(seed, seq_id, frames, out_dir / f"{seq_id}.txt")
            for seq_id, frames in truth.items()}
    else:
        raise ValueError(f"unknown workload {name!r}")
    config_path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return workload


def eval_argv(workload: Workload, seq_id: str) -> list[str]:
    return ["eval", "--labels", str(workload.label_dir / f"{seq_id}.txt"),
            "--outputs", str(workload.out_dir / f"{seq_id}.txt"),
            "--frame-count", str(workload.lengths[seq_id])]


def _processed(length: int, pattern: str) -> int:
    n, m = map(int, pattern.split("/"))
    return (length // m) * n + min(length % m, n)


def check_sweep(workload: Workload, data: bytes) -> str | None:
    """Checks on sweep.json that hold for every seed; None when it passes."""
    try:
        rows = json.loads(data)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"sweep.json unreadable: {exc}"
    got = [(row.get("variant"), row.get("target")) for row in rows]
    want = [(variant, _NAMED_TARGETS[pattern]) for variant, pattern in workload.cells]
    if got != want:
        return f"sweep.json cells {got} != {want}"
    for row, (_, pattern) in zip(rows, workload.cells):
        processed = sum(_processed(n, pattern) for n in workload.lengths.values())
        if row["processed_frames"] != processed:
            return (f"{pattern}: processed_frames {row['processed_frames']} "
                    f"!= {processed}")
        for key in ("hota", "det_a", "ass_a", "motp"):
            if not 0.0 <= row[key] <= 100.0:
                return f"{pattern}: {key} {row[key]} outside [0, 100]"
        if not row["mota"] <= 100.0 or not row["draw_watts"] > 0.0:
            return f"{pattern}: mota {row['mota']} / draw {row['draw_watts']}"
    return None


def check_eval(workload: Workload, seq_id: str, code: int, stdout: bytes) -> str | None:
    """CLEAR must account for every ground-truth object and output entry."""
    if code != 0:
        return f"eval {seq_id} exited {code}"
    lines = stdout.decode().splitlines()
    keys = [line.split()[0] for line in lines]
    if keys != ["hota", "det_a", "ass_a", "mota", "motp", "tp"]:
        return f"eval {seq_id}: unexpected output {lines!r}"
    counts = dict(zip(lines[-1].split()[::2], map(int, lines[-1].split()[1::2])))
    n_truth, n_out = workload.eval_counts[seq_id]
    if counts["tp"] + counts["fn"] != n_truth or counts["tp"] + counts["fp"] != n_out:
        return (f"eval {seq_id}: tp/fp/fn {counts} do not add up to "
                f"{n_truth} objects and {n_out} entries")
    return None


def digest(chunks) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()
