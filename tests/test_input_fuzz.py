"""Random malformed input: only the documented error types may escape.

Config dicts must fail with ConfigError (exit 2) and label, output and
sidecar files with DatasetError (exit 3); any other exception would reach
the user as a traceback.
"""

import json
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from droptrack.detectors import NoiseProfile
from droptrack.energy import EnergyParams
from droptrack.kitti_io import DatasetError, parse_kitti_labels, \
    read_frame_outputs
from droptrack.pipeline import ConfigError, RunConfig, config_from_dict
from droptrack.tracker import TrackerConfig

TOP_KEYS = ("dataset", "patterns", "variants", "profiles", "tracker",
            "tracker_overrides", "energy", "class_set", "similarity",
            "clear_threshold", "rng_seed")
NESTED_KEYS = sorted({f.name for cls in (TrackerConfig, NoiseProfile,
                                         EnergyParams) for f in fields(cls)}
                     | {"kind", "path", "manifest", "preset", "p", "1/2",
                        "frame_count", "provenance", "0", "1"})
WORDS = ("1/1", "1/2", "90", "gt", "noisy:p", "3d-iou", "bev-iou", "Car",
         "second", "kitti", "reference")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-2.0, 2.0) | st.sampled_from(WORDS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NESTED_KEYS) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(TOP_KEYS), json_values, max_size=5),
       st.booleans())
def test_config_from_dict_raises_only_config_error(data, with_pattern):
    if with_pattern:
        data.setdefault("patterns", ["1/1"])
    try:
        assert isinstance(config_from_dict(data), RunConfig)
    except ConfigError:
        pass


def _row(frame, track_id, kind="Car"):
    return (f"{frame} {track_id} {kind} 0 0 -10 0 0 50 50 "
            f"1.50 1.80 4.20 2.00 1.65 10.00 0.10")


VALID_ROWS = [_row(f, t) for f in range(3) for t in (1, 2)] \
    + [_row(1, -1, "DontCare"), _row(2, 3, "Pedestrian")]
TOKENS = ("x", "", "-1", "-7", "0", "5", "2.5", "nan", "inf", "-inf",
          "1e400", "0.0", "Car", "DontCare")


@st.composite
def corrupted_rows(draw):
    """Valid rows with a few tokens replaced, dropped, added or rows doubled."""
    rows = [row.split() for row in VALID_ROWS]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        action = draw(st.sampled_from(("replace", "drop", "add", "double")))
        index = draw(st.integers(0, len(row) - 1)) if row else 0
        token = draw(st.sampled_from(TOKENS))
        if action == "replace" and row:
            row[index] = token
        elif action == "drop" and row:
            del row[index]
        elif action == "add":
            row.insert(index, token)
        else:
            rows.append(list(row))
    return "\n".join(" ".join(row) for row in rows) + "\n"


@settings(max_examples=300, deadline=None)
@given(corrupted_rows(), st.none() | st.integers(1, 6))
def test_label_parsing_raises_only_dataset_error(text, frame_count):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.txt"
        path.write_text(text)
        try:
            parse_kitti_labels(path, frame_count=frame_count)
        except DatasetError:
            pass


@settings(max_examples=300, deadline=None)
@given(corrupted_rows(), st.none() | st.integers(1, 6),
       st.none() | json_values)
def test_output_reading_raises_only_dataset_error(text, frame_count, sidecar):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.txt"
        path.write_text(text)
        if sidecar is not None:
            Path(f"{path}.meta.json").write_text(json.dumps(sidecar))
        try:
            read_frame_outputs(path, frame_count=frame_count)
        except DatasetError:
            pass
