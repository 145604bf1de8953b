"""Label-file ingestion, output persistence, and the camera-frame mapping."""

import json
import math

import pytest

from droptrack.geometry import OrientedBox
from droptrack.kitti_io import (
    DatasetError,
    SequenceData,
    load_label_dir,
    load_manifest,
    parse_kitti_labels,
    read_frame_outputs,
    write_frame_outputs,
    write_kitti_labels,
)
from droptrack.tracker import FrameOutput, TrackEntry


def car_row(frame=0, track_id=1, kind="Car", h=1.5, w=1.8, length=4.2,
            x=2.0, y=1.65, z=10.0, ry=0.1, score=None):
    row = (f"{frame} {track_id} {kind} 0 0 -1.5 100.0 150.0 200.0 250.0 "
           f"{h} {w} {length} {x} {y} {z} {ry}")
    if score is not None:
        row += f" {score}"
    return row


def labels_file(tmp_path, text):
    """The path of a label file under tmp_path holding text."""
    path = tmp_path / "source.txt"
    path.write_text(text)
    return path


class TestParse:
    def test_empty_file_with_explicit_length(self, tmp_path):
        path = tmp_path / "0001.txt"
        path.write_text("")
        seq = parse_kitti_labels(path, frame_count=10)
        assert seq.frame_count == 10
        assert seq.labels == ()
        assert seq.sequence_id == "0001"

    def test_single_car_row_identity(self, tmp_path):
        seq = parse_kitti_labels(labels_file(tmp_path, car_row()))
        assert len(seq.labels) == 1
        lab = seq.labels[0]
        assert lab.frame_index == 0
        assert lab.track_id == 1
        # Camera (x right, y down, z forward) to ground plane (x forward,
        # y left, z up), with the bottom-anchored y lifted to mid-height.
        assert lab.box.cx == pytest.approx(10.0)
        assert lab.box.cy == pytest.approx(-2.0)
        assert lab.box.cz == pytest.approx(1.5 / 2.0 - 1.65)
        assert lab.box.length == pytest.approx(4.2)
        assert lab.box.width == pytest.approx(1.8)
        assert lab.box.height == pytest.approx(1.5)
        assert lab.box.yaw == pytest.approx(-0.1 - math.pi / 2.0)

    def test_class_and_dontcare_filter(self, tmp_path):
        text = "\n".join([
            car_row(frame=0, track_id=1),
            car_row(frame=0, track_id=2, kind="Pedestrian"),
            car_row(frame=1, track_id=-1, kind="DontCare"),
        ])
        seq = parse_kitti_labels(labels_file(tmp_path, text))
        assert len(seq.labels) == 1
        # The filtered rows still extend the observed frame range.
        assert seq.frame_count == 2

    def test_rows_resorted(self, tmp_path):
        text = "\n".join([
            car_row(frame=3, track_id=1),
            car_row(frame=0, track_id=2),
            car_row(frame=0, track_id=1, x=5.0),
        ])
        seq = parse_kitti_labels(labels_file(tmp_path, text))
        keys = [(lab.frame_index, lab.track_id) for lab in seq.labels]
        assert keys == [(0, 1), (0, 2), (3, 1)]
        assert seq.frame_count == 4

    def test_malformed_row_reports_line_number(self, tmp_path):
        text = car_row() + "\n1 2 Car too few fields\n"
        with pytest.raises(DatasetError, match=":2:"):
            parse_kitti_labels(labels_file(tmp_path, text))

    def test_non_numeric_field_reports_line_number(self, tmp_path):
        bad = car_row().replace("10.0", "ten")
        with pytest.raises(DatasetError, match=":1:"):
            parse_kitti_labels(labels_file(tmp_path, bad))

    def test_negative_frame_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="negative frame"):
            parse_kitti_labels(labels_file(tmp_path, car_row(frame=-4)))

    def test_duplicate_frame_id_rejected(self, tmp_path):
        text = "\n".join([car_row(), car_row(x=3.0)])
        with pytest.raises(DatasetError, match="duplicate"):
            parse_kitti_labels(labels_file(tmp_path, text))

    def test_score_column_tolerated(self, tmp_path):
        seq = parse_kitti_labels(labels_file(tmp_path, car_row(score=0.87)))
        assert len(seq.labels) == 1

    def test_blank_lines_skipped(self, tmp_path):
        text = "\n\n" + car_row() + "\n\n"
        seq = parse_kitti_labels(labels_file(tmp_path, text))
        assert len(seq.labels) == 1

    def test_missing_file_is_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read labels"):
            parse_kitti_labels(tmp_path / "absent.txt")

    def test_directory_is_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read labels"):
            parse_kitti_labels(tmp_path)


class TestSequenceData:
    def test_frame_bounds_enforced(self, tmp_path):
        seq = parse_kitti_labels(labels_file(tmp_path, car_row(frame=5)))
        with pytest.raises(ValueError):
            SequenceData(sequence_id="x", frame_count=3, labels=seq.labels)

    def test_frame_count_must_be_positive(self):
        with pytest.raises(ValueError, match="frame_count must be positive"):
            SequenceData("x", 0, ())

    def test_labels_by_frame(self, tmp_path):
        text = "\n".join([car_row(frame=0), car_row(frame=2, track_id=2)])
        seq = parse_kitti_labels(labels_file(tmp_path, text))
        per_frame = seq.labels_by_frame()
        assert [len(rows) for rows in per_frame] == [1, 0, 1]


class TestRoundTrips:
    def test_label_round_trip_within_tenth_millimeter(self, tmp_path):
        src = "\n".join([
            car_row(frame=0, track_id=1, x=1.234567, y=1.5, z=22.875,
                    ry=-2.5),
            car_row(frame=1, track_id=2, x=-7.25, y=1.8, z=5.125, ry=3.0),
        ])
        seq = parse_kitti_labels(labels_file(tmp_path, src))
        path = tmp_path / "labels.txt"
        write_kitti_labels(list(seq.labels), path)
        again = parse_kitti_labels(path)
        assert len(again.labels) == len(seq.labels)
        for a, b in zip(seq.labels, again.labels):
            assert (a.frame_index, a.track_id) == (b.frame_index, b.track_id)
            for attr in ("cx", "cy", "cz", "length", "width", "height"):
                assert getattr(b.box, attr) \
                    == pytest.approx(getattr(a.box, attr), abs=1e-4)
            assert b.box.yaw == pytest.approx(a.box.yaw, abs=1e-4)

    def test_parse_write_parse_fixed_point(self, tmp_path):
        src = "\n".join([car_row(), car_row(frame=1, track_id=2, x=-3.5)])
        first = parse_kitti_labels(labels_file(tmp_path, src))
        p1 = tmp_path / "a.txt"
        write_kitti_labels(list(first.labels), p1)
        second = parse_kitti_labels(p1)
        p2 = tmp_path / "b.txt"
        write_kitti_labels(list(second.labels), p2)
        assert p1.read_text() == p2.read_text()

    def make_outputs(self):
        def entry(track_id, cx, prov):
            box = OrientedBox(cx=cx, cy=-1.25, cz=0.61, length=4.6,
                              width=1.85, height=1.48, yaw=0.73)
            return TrackEntry(track_id=track_id, box=box, score=0.91,
                              provenance=prov)
        return [
            FrameOutput((entry(1, 10.0, "updated"),)),
            FrameOutput((entry(1, 10.3, "predicted"),
                         entry(2, 40.0, "updated"))),
            FrameOutput(()),
        ]

    def test_output_round_trip(self, tmp_path):
        outputs = self.make_outputs()
        path = tmp_path / "track.txt"
        write_frame_outputs(outputs, path)
        loaded = read_frame_outputs(path)
        assert len(loaded) == 3
        assert loaded[2].entries == ()
        for orig, back in zip(outputs, loaded):
            assert len(back.entries) == len(orig.entries)
            for a, b in zip(orig.entries, back.entries):
                assert b.track_id == a.track_id
                assert b.provenance == a.provenance
                assert b.score == pytest.approx(a.score, abs=1e-6)
                for attr in ("cx", "cy", "cz", "length", "width", "height"):
                    assert getattr(b.box, attr) \
                        == pytest.approx(getattr(a.box, attr), abs=1e-4)
                assert b.box.yaw == pytest.approx(a.box.yaw, abs=1e-4)

    def test_sidecar_frame_count_bounds(self, tmp_path):
        # Rows reach frame 1 and the sidecar states 3: frame 2 is a trailing
        # empty frame, allowed up to the frame count being read.
        path = tmp_path / "track.txt"
        write_frame_outputs(self.make_outputs(), path)
        assert len(read_frame_outputs(path, frame_count=3)) == 3
        assert len(read_frame_outputs(path, frame_count=5)) == 5
        with pytest.raises(DatasetError, match="meta.json: frame_count 3"):
            read_frame_outputs(path, frame_count=2)
        sidecar = tmp_path / "track.txt.meta.json"
        sidecar.write_text(json.dumps({"frame_count": 1}))
        with pytest.raises(DatasetError, match="meta.json: frame_count 1"):
            read_frame_outputs(path)

    def test_empty_outputs_write_valid_sidecar(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_frame_outputs([], path)
        assert path.read_text() == ""
        sidecar = json.loads((tmp_path / "empty.txt.meta.json").read_text())
        assert sidecar == {"frame_count": 0, "provenance": {}}

    def test_provenance_defaults_without_sidecar(self, tmp_path):
        outputs = self.make_outputs()
        path = tmp_path / "track.txt"
        write_frame_outputs(outputs, path)
        (tmp_path / "track.txt.meta.json").unlink()
        loaded = read_frame_outputs(path, frame_count=3)
        flat = [e.provenance for out in loaded for e in out.entries]
        assert set(flat) == {"updated"}

    def test_missing_outputs_file_is_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read outputs"):
            read_frame_outputs(tmp_path / "absent.txt")

    def test_corrupt_sidecar_is_dataset_error(self, tmp_path):
        outputs = self.make_outputs()
        path = tmp_path / "track.txt"
        write_frame_outputs(outputs, path)
        (tmp_path / "track.txt.meta.json").write_text("{not json")
        with pytest.raises(DatasetError, match="cannot read sidecar"):
            read_frame_outputs(path)


class TestManifestAndDirs:
    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"0001": 447, "0006": 270}))
        assert load_manifest(path) == {"0001": 447, "0006": 270}

    def test_manifest_rejects_bad_values(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"0001": 0}))
        with pytest.raises(DatasetError):
            load_manifest(path)
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(DatasetError):
            load_manifest(path)
        path.write_text(json.dumps({"0001": True}))
        with pytest.raises(DatasetError, match='"0001"'):
            load_manifest(path)

    def test_load_label_dir(self, tmp_path):
        (tmp_path / "0001.txt").write_text(car_row() + "\n")
        (tmp_path / "0002.txt").write_text(car_row(frame=4) + "\n")
        manifest = {"0001": 100}
        seqs = load_label_dir(tmp_path, manifest)
        assert [s.sequence_id for s in seqs] == ["0001", "0002"]
        assert seqs[0].frame_count == 100
        assert seqs[1].frame_count == 5

    def test_load_label_dir_requires_files(self, tmp_path):
        with pytest.raises(DatasetError, match="no .*label files"):
            load_label_dir(tmp_path)

    def test_load_label_dir_requires_directory(self, tmp_path):
        with pytest.raises(DatasetError, match="not a directory"):
            load_label_dir(tmp_path / "missing")
