"""KITTI-tracking-format ingestion and output persistence.

Label rows are whitespace-delimited:
  frame track_id type truncated occluded alpha bbox_left bbox_top
  bbox_right bbox_bottom height width length x y z rotation_y [score]

The 3D fields use the camera frame (x right, y down, z forward) with the
box anchored at its bottom face. Ingestion converts once into the
package's ground-plane frame (x forward, y left, z up, center-anchored):

  cx = z          cy = -x          cz = height/2 - y
  yaw = wrap(-rotation_y - pi/2)

All interior math uses the converted form; writing inverts the map. This
is the only module that touches the camera convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .geometry import DEFAULT_CLASS_SET, LabeledObject, OrientedBox, wrap_angle
from .tracker import FrameOutput, TrackEntry, PROVENANCE_UPDATED


class DatasetError(Exception):
    """Malformed or inconsistent dataset input."""


@dataclass(frozen=True)
class SequenceData:
    sequence_id: str
    frame_count: int
    labels: tuple[LabeledObject, ...]

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError("frame_count must be positive")
        for lab in self.labels:
            if lab.frame_index >= self.frame_count:
                raise ValueError(
                    f"label frame {lab.frame_index} outside sequence "
                    f"of {self.frame_count} frames")

    def labels_by_frame(self) -> list[list[LabeledObject]]:
        frames: list[list[LabeledObject]] = [[] for _ in range(self.frame_count)]
        for lab in self.labels:
            frames[lab.frame_index].append(lab)
        return frames


def _box_from_camera(h: float, w: float, length: float, x: float, y: float,
                     z: float, rotation_y: float) -> OrientedBox:
    return OrientedBox(cx=z, cy=-x, cz=h / 2.0 - y, length=length, width=w,
                       height=h, yaw=wrap_angle(-rotation_y - math.pi / 2.0))


def _box_to_camera(box: OrientedBox) -> tuple[float, ...]:
    x = -box.cy
    y = box.height / 2.0 - box.cz
    z = box.cx
    rotation_y = wrap_angle(-box.yaw - math.pi / 2.0)
    return box.height, box.width, box.length, x, y, z, rotation_y


def _parse_rows(lines: list[str], origin: str,
                class_set: frozenset[str] | None = None,
                frame_count: int | None = None):
    """Parse 17/18-field rows into (line, frame, track_id, type, box, score).

    Blank lines are skipped and the score defaults to 1.0. With a
    class_set, rows of other types and DontCare rows come back with box
    None: their geometry and track id (-1 for DontCare) go unchecked.
    A malformed row, a row at or past frame_count or a repeated (frame,
    track id) raises DatasetError naming origin:line.
    """
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) not in (17, 18):
            raise DatasetError(
                f"{origin}:{lineno}: expected 17 or 18 fields, got {len(fields)}")
        kind = fields[2]
        try:
            frame = int(fields[0])
            track_id = int(fields[1])
            h, w, length = (float(fields[10]), float(fields[11]),
                            float(fields[12]))
            x, y, z = float(fields[13]), float(fields[14]), float(fields[15])
            rotation_y = float(fields[16])
            score = float(fields[17]) if len(fields) == 18 else 1.0
            if frame < 0:
                raise ValueError("negative frame index")
            if frame_count is not None and frame >= frame_count:
                raise ValueError(f"frame {frame} outside sequence of "
                                 f"{frame_count} frames")
            box = None
            if class_set is None or (kind != "DontCare" and kind in class_set):
                if track_id < 0:
                    raise ValueError("negative track id")
                if (frame, track_id) in seen:
                    raise ValueError(f"duplicate (frame, id) {(frame, track_id)}")
                seen.add((frame, track_id))
                box = _box_from_camera(h, w, length, x, y, z, rotation_y)
        except ValueError as exc:
            raise DatasetError(f"{origin}:{lineno}: {exc}") from None
        yield lineno, frame, track_id, kind, box, score


def parse_kitti_labels(source, sequence_id: str = "",
                       frame_count: int | None = None,
                       class_set: frozenset[str] = DEFAULT_CLASS_SET) -> SequenceData:
    """Parse a label file (path or open text stream) into SequenceData.

    Rows outside class_set and DontCare rows are skipped; anything else
    malformed raises with its line number. Rows may arrive out of frame
    order; they are re-sorted.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
        origin = getattr(source, "name", "<stream>")
    else:
        origin = str(source)
        try:
            lines = Path(source).read_text().splitlines()
        except OSError as exc:
            raise DatasetError(f"cannot read labels {origin}: {exc}") from None

    labels: list[LabeledObject] = []
    max_frame = -1
    for _, frame, track_id, kind, box, _ in _parse_rows(lines, origin,
                                                        class_set, frame_count):
        max_frame = max(max_frame, frame)
        if box is None:
            continue
        labels.append(LabeledObject(frame_index=frame, track_id=track_id,
                                    box=box, class_label=kind))

    labels.sort(key=lambda lab: (lab.frame_index, lab.track_id))

    if frame_count is None:
        frame_count = max_frame + 1 if max_frame >= 0 else 1
    return SequenceData(sequence_id=sequence_id, frame_count=frame_count,
                        labels=tuple(labels))


def write_kitti_labels(labels: list[LabeledObject], path) -> None:
    """Inverse of parse_kitti_labels for ground-truth fixtures."""
    rows = []
    for lab in sorted(labels, key=lambda l: (l.frame_index, l.track_id)):
        h, w, length, x, y, z, ry = _box_to_camera(lab.box)
        rows.append(
            f"{lab.frame_index} {lab.track_id} {lab.class_label} 0 0 0 "
            f"-1 -1 -1 -1 "
            f"{h:.6f} {w:.6f} {length:.6f} {x:.6f} {y:.6f} {z:.6f} {ry:.6f}")
    Path(path).write_text("\n".join(rows) + ("\n" if rows else ""))


def write_frame_outputs(outputs: list[FrameOutput], path,
                        sidecar_path=None) -> None:
    """Persist tracker outputs as KITTI rows plus a provenance sidecar."""
    path = Path(path)
    if sidecar_path is None:
        sidecar_path = path.with_suffix(path.suffix + ".meta.json")
    rows = []
    provenance: dict[str, dict[str, str]] = {}
    frame_count = 0
    for out in sorted(outputs, key=lambda o: o.frame_index):
        frame_count = max(frame_count, out.frame_index + 1)
        frame_prov: dict[str, str] = {}
        for entry in sorted(out.entries, key=lambda e: e.track_id):
            h, w, length, x, y, z, ry = _box_to_camera(entry.box)
            rows.append(
                f"{out.frame_index} {entry.track_id} Car 0 0 0 "
                f"-1 -1 -1 -1 "
                f"{h:.6f} {w:.6f} {length:.6f} {x:.6f} {y:.6f} {z:.6f} "
                f"{ry:.6f} {entry.score:.6f}")
            frame_prov[str(entry.track_id)] = entry.provenance
        if frame_prov:
            provenance[str(out.frame_index)] = frame_prov
    path.write_text("\n".join(rows) + ("\n" if rows else ""))
    sidecar = {"frame_count": frame_count, "provenance": provenance}
    Path(sidecar_path).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def read_frame_outputs(path, sidecar_path=None,
                       frame_count: int | None = None) -> list[FrameOutput]:
    """Load stored tracker outputs; provenance comes from the sidecar when
    present, defaulting to measurement-updated."""
    path = Path(path)
    if sidecar_path is None:
        candidate = path.with_suffix(path.suffix + ".meta.json")
        sidecar_path = candidate if candidate.exists() else None
    provenance: dict[str, dict[str, str]] = {}
    if sidecar_path is not None:
        try:
            sidecar = json.loads(Path(sidecar_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DatasetError(
                f"cannot read sidecar {sidecar_path}: {exc}") from None
        valid = isinstance(sidecar, dict)
        provenance = sidecar.get("provenance", {}) if valid else {}
        stored_count = sidecar.get("frame_count", 0) if valid else 0
        if not (valid and isinstance(provenance, dict)
                and all(isinstance(v, dict) for v in provenance.values())
                and type(stored_count) is int and stored_count >= 0):
            raise DatasetError(f"{sidecar_path}: expected an object with an "
                               f"integer frame_count and provenance objects")
        if frame_count is None:
            frame_count = sidecar.get("frame_count")

    try:
        text = path.read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read outputs {path}: {exc}") from None
    entries_by_frame: dict[int, list[TrackEntry]] = {}
    for _, frame, track_id, _, box, score in _parse_rows(
            text.splitlines(), str(path), frame_count=frame_count):
        prov = provenance.get(str(frame), {}).get(str(track_id),
                                                  PROVENANCE_UPDATED)
        entries_by_frame.setdefault(frame, []).append(
            TrackEntry(track_id=track_id, box=box, score=score, provenance=prov))

    if frame_count is None:
        frame_count = max(entries_by_frame) + 1 if entries_by_frame else 1
    return [FrameOutput(frame_index=f,
                        entries=tuple(entries_by_frame.get(f, ())))
            for f in range(frame_count)]


def load_manifest(path) -> dict[str, int]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read manifest {path}: {exc}") from None
    if not isinstance(data, dict):
        raise DatasetError(f"{path}: manifest must be a JSON object")
    out = {}
    for key, value in data.items():
        if not isinstance(value, int) or value < 1:
            raise DatasetError(f"{path}: bad frame count for {key!r}")
        out[str(key)] = value
    return out


def load_label_dir(directory, manifest: dict[str, int] | None = None,
                   class_set: frozenset[str] = DEFAULT_CLASS_SET) -> list[SequenceData]:
    """Load every *.txt label file in a directory as one sequence each."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"{directory}: not a directory")
    sequences = []
    for label_file in sorted(directory.glob("*.txt")):
        seq_id = label_file.stem
        count = manifest.get(seq_id) if manifest else None
        sequences.append(parse_kitti_labels(label_file, sequence_id=seq_id,
                                            frame_count=count,
                                            class_set=class_set))
    if not sequences:
        raise DatasetError(f"{directory}: no *.txt label files found")
    return sequences
