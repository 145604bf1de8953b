"""KITTI-tracking-format ingestion and output persistence.

It reads every input file: labels, outputs, sidecars and manifests
here, the config through `read_json_object`.

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
import sys
from dataclasses import dataclass
from pathlib import Path

from .geometry import LabeledObject, OrientedBox, wrap_angle
from .tracker import (PROVENANCE_PREDICTED, PROVENANCE_UPDATED, FrameOutput,
                      TrackEntry)


_HALF_PI = math.pi / 2.0

# The one KITTI object type a run loads, tracks, scores and writes.
TRACKED_CLASS = "Car"


class DatasetError(Exception):
    """Malformed or inconsistent dataset input."""


def excerpt(value) -> str:
    """value as JSON, cut to 40 characters with the cut marked. An integer
    past the interpreter's digit limit, which JSON cannot print, is named
    by that limit, as is a value holding one."""
    try:
        text = json.dumps(value)
    except ValueError:
        what = "an" if isinstance(value, int) else "a value with an"
        return f"{what} integer of more than " \
            f"{sys.get_int_max_str_digits()} digits"
    return text if len(text) <= 40 else \
        f"{text[:40]}... ({len(text)} characters)"


def read_text(path, what: str, error: type[Exception] = DatasetError) -> str:
    """The text of an input file; one that cannot be read or is not UTF-8
    raises `error` naming `what` and the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def read_json_object(path, what: str,
                     error: type[Exception] = DatasetError) -> dict:
    """The JSON object in an input file; read_text's failures, invalid or
    too deeply nested JSON, an object that names a key twice, or a root
    that is not an object raise `error` naming the path."""
    def unique_keys(pairs):
        if len(data := dict(pairs)) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs)
                       if k in dict(pairs[:i]))
            raise error(f"cannot read {what} {path}: key {excerpt(key)} "
                        f"repeats")
        return data

    text = read_text(path, what, error)
    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"cannot read {what} {path}: not valid JSON: {exc}") \
            from None
    except ValueError:  # json.loads refuses an integer past the digit limit
        raise error(f"cannot read {what} {path}: not valid JSON: an integer "
                    f"literal has more than {sys.get_int_max_str_digits()} "
                    f"digits") from None
    except RecursionError:
        raise error(f"cannot read {what} {path}: JSON nested too deeply") \
            from None
    if not isinstance(data, dict):
        raise error(f"{what} root must be a JSON object: {path}")
    return data


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


def _format_row(frame: int, track_id: int, box: OrientedBox) -> str:
    """The 17 KITTI label fields of one TRACKED_CLASS box, inverting the
    camera-to-ground map `_parse_rows` applies."""
    x, y = -box.cy, box.height / 2.0 - box.cz
    rotation_y = wrap_angle(-box.yaw - _HALF_PI)
    return (f"{frame} {track_id} {TRACKED_CLASS} 0 0 0 -1 -1 -1 -1 "
            f"{box.height:.6f} {box.width:.6f} {box.length:.6f} "
            f"{x:.6f} {y:.6f} {box.cx:.6f} {rotation_y:.6f}")


def _parse_rows(lines: list[str], origin: str,
                frame_count: int | None = None
                ) -> list[tuple[int, int, OrientedBox | None, float]]:
    """Parse 17/18-field rows into (frame, track_id, box, score).

    Blank lines are skipped and the score defaults to 1.0. Only
    TRACKED_CLASS rows are kept: rows of any other type, DontCare
    included, come back with box None, their geometry, track id (-1 for
    DontCare) and score unchecked.
    A malformed row, a row at or past frame_count, a kept row with a
    non-finite score or a repeated (frame, track id) raises DatasetError
    naming origin:line.
    """
    rows = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) not in (17, 18):
            raise DatasetError(
                f"{origin}:{lineno}: expected 17 or 18 fields, got {len(fields)}")
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
            if fields[2] == TRACKED_CLASS:
                if track_id < 0:
                    raise ValueError("negative track id")
                if not -math.inf < score < math.inf:  # NaN fails it too
                    raise ValueError(f"score {score} is not finite")
                if (frame, track_id) in seen:
                    raise ValueError(f"duplicate (frame, id) {(frame, track_id)}")
                seen.add((frame, track_id))
                # cx, cy, cz, length, width, height, yaw (module docstring).
                box = OrientedBox(z, -x, h / 2.0 - y, length, w, h,
                                  -rotation_y - _HALF_PI)
        except ValueError as exc:
            raise DatasetError(f"{origin}:{lineno}: {exc}") from None
        rows.append((frame, track_id, box, score))
    return rows


def parse_kitti_labels(path, frame_count: int | None = None) -> SequenceData:
    """Parse a label file into SequenceData, its sequence id the file's stem.

    Only TRACKED_CLASS rows become labels: rows of any other type,
    DontCare included, are skipped, though they still count toward the
    frame count read from the file. Anything malformed raises with its
    line number. Rows may arrive out of frame order; they are re-sorted.
    """
    rows = _parse_rows(read_text(path, "labels").splitlines(), str(path),
                       frame_count)
    # (frame, id) is unique among kept rows, so sorting never compares boxes.
    kept = sorted((frame, track_id, box)
                  for frame, track_id, box, _ in rows if box is not None)
    labels = tuple(LabeledObject(frame, track_id, box)
                   for frame, track_id, box in kept)

    if frame_count is None:
        frame_count = max((row[0] for row in rows), default=0) + 1
    return SequenceData(sequence_id=Path(path).stem, frame_count=frame_count,
                        labels=labels)


def write_kitti_labels(labels: list[LabeledObject], path) -> None:
    """Inverse of parse_kitti_labels for ground-truth fixtures."""
    rows = [_format_row(lab.frame_index, lab.track_id, lab.box)
            for lab in sorted(labels, key=lambda l: (l.frame_index, l.track_id))]
    Path(path).write_text("\n".join(rows) + ("\n" if rows else ""),
                          encoding="utf-8")


def write_frame_outputs(outputs: list[FrameOutput], path) -> None:
    """Persist a sequence's tracker outputs, output i being frame i, as
    KITTI rows plus a <path>.meta.json sidecar."""
    path = Path(path)
    rows = []
    provenance: dict[str, dict[str, str]] = {}
    for frame, out in enumerate(outputs):
        frame_prov: dict[str, str] = {}
        for entry in sorted(out.entries, key=lambda e: e.track_id):
            rows.append(_format_row(frame, entry.track_id, entry.box)
                        + f" {entry.score:.6f}")
            frame_prov[str(entry.track_id)] = entry.provenance
        if frame_prov:
            provenance[str(frame)] = frame_prov
    path.write_text("\n".join(rows) + ("\n" if rows else ""),
                    encoding="utf-8")
    sidecar = {"frame_count": len(outputs), "provenance": provenance}
    path.with_suffix(path.suffix + ".meta.json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")


def read_frame_outputs(path, frame_count: int | None = None
                       ) -> list[FrameOutput]:
    """Load stored tracker outputs, with provenance from the <path>.meta.json
    sidecar if there is one, else measurement-updated.

    As in parse_kitti_labels, only TRACKED_CLASS rows become outputs:
    rows of any other type are skipped.

    Every sidecar provenance entry must be "updated" or "predicted" and
    name the (frame, id) of an output row; otherwise DatasetError names
    the sidecar, the frame and the id. A stated frame_count must lie past
    the last output row and not past a given frame_count; trailing frames
    without rows are allowed.
    """
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".meta.json")
    provenance: dict[str, dict[str, str]] = {}
    stated_count = None
    if sidecar_path.exists():
        sidecar = read_json_object(sidecar_path, "sidecar")
        provenance = sidecar.get("provenance", {})
        stated_count = sidecar.get("frame_count")
        if not (isinstance(provenance, dict)
                and all(isinstance(v, dict) for v in provenance.values())
                and (stated_count is None
                     or type(stated_count) is int and stated_count >= 0)):
            raise DatasetError(f"{sidecar_path}: expected an object with an "
                               f"integer frame_count and provenance objects")

    entries_by_frame: dict[int, list[TrackEntry]] = {}
    for frame, track_id, box, score in _parse_rows(
            read_text(path, "outputs").splitlines(), str(path), frame_count):
        if box is None:
            continue
        # Each row takes its sidecar entry out, so what is left names no row.
        prov = provenance.get(str(frame), {}).pop(str(track_id),
                                                  PROVENANCE_UPDATED)
        if prov not in (PROVENANCE_UPDATED, PROVENANCE_PREDICTED):
            raise DatasetError(
                f"{sidecar_path}: frame {frame} id {track_id}: provenance "
                f"must be \"{PROVENANCE_UPDATED}\" or "
                f"\"{PROVENANCE_PREDICTED}\", got {excerpt(prov)}")
        entries_by_frame.setdefault(frame, []).append(
            TrackEntry(track_id, box, score, prov))
    rowless = [(frame, track_id) for frame, ids in provenance.items()
               for track_id in ids]
    if rowless:
        frame, track_id = map(excerpt, rowless[0])
        raise DatasetError(f"{sidecar_path}: frame {frame} id {track_id}: "
                           f"provenance for no output row")

    last_frame = max(entries_by_frame, default=-1)
    if stated_count is not None:
        if stated_count <= last_frame:
            raise DatasetError(f"{sidecar_path}: frame_count {stated_count} "
                               f"does not cover output frame {last_frame}")
        if frame_count is not None and stated_count > frame_count:
            raise DatasetError(f"{sidecar_path}: frame_count {stated_count} "
                               f"exceeds the {frame_count} frames read")
    if frame_count is None:
        frame_count = stated_count if stated_count is not None \
            else max(last_frame + 1, 1)
    return [FrameOutput(tuple(entries_by_frame.get(f, ())))
            for f in range(frame_count)]


def load_manifest(path) -> dict[str, int]:
    out = {}
    for key, value in read_json_object(path, "manifest").items():
        if type(value) is not int or value < 1:
            raise DatasetError(f"{path}: bad frame count for {excerpt(key)}")
        out[str(key)] = value
    return out


def load_label_dir(directory, manifest: dict[str, int] | None = None
                   ) -> list[SequenceData]:
    """Load every *.txt label file in a directory as one sequence each."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"{directory}: not a directory")
    label_files = sorted(directory.glob("*.txt"))
    unknown = sorted(set(manifest or ()) - {f.stem for f in label_files})
    if unknown:
        raise DatasetError(f"{directory}: manifest key {excerpt(unknown[0])} "
                           f"names no label file")
    sequences = []
    for label_file in label_files:
        count = manifest.get(label_file.stem) if manifest else None
        sequences.append(parse_kitti_labels(label_file, frame_count=count))
    if not sequences:
        raise DatasetError(f"{directory}: no *.txt label files found")
    return sequences
