"""Overlap geometry: exact hand cases, one frozen rotation value, invariants."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droptrack.geometry import (
    _CERT_RANGE,
    MIN_EXTENT,
    Detection,
    LabeledObject,
    OrientedBox,
    bev_iou,
    footprint_intersection_area,
    iou_3d,
    iou_3d_at_least,
    wrap_angle,
)
from droptrack.metrics import FrameTable
from droptrack.tracker import FrameOutput, TrackEntry, TrackState

from oracles import (ReferenceBox, reference_footprint,
                     reference_intersection_area)
from strategies import (EDGE_OFFSETS, any_yaw, clip_pairs, finite_coord,
                        random_boxes)


def make_box(cx=0.0, cy=0.0, cz=1.0, length=4.0, width=2.0, height=1.5,
             yaw=0.0):
    return OrientedBox(cx=cx, cy=cy, cz=cz, length=length, width=width,
                       height=height, yaw=yaw)


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(1.0) == 1.0
        assert wrap_angle(-3.0) == -3.0

    def test_wraps_multiples(self):
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi, abs=1e-12)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_range_and_equivalence(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi + 1e-15
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)

    # OrientedBox wraps its yaw, so callers pass unwrapped angles; that is
    # safe only because wrapping twice changes nothing.
    @settings(max_examples=500)
    @given(st.floats(min_value=-1e6, max_value=1e6))
    @example(math.pi)
    @example(-math.pi)
    @example(3 * math.pi)
    @example(-3 * math.pi)
    @example(math.nextafter(-math.pi, 0.0))
    def test_idempotent(self, theta):
        w = wrap_angle(theta)
        assert wrap_angle(w) == w


class TestExactCases:
    def test_identical_boxes(self):
        a = make_box()
        assert bev_iou(a, a) == 1.0
        assert iou_3d(a, a) == 1.0

    def test_disjoint_boxes(self):
        a = make_box(cx=0.0)
        b = make_box(cx=100.0)
        assert bev_iou(a, b) == 0.0
        assert iou_3d(a, b) == 0.0

    def test_two_by_two_squares_offset_one(self):
        a = make_box(length=2.0, width=2.0)
        b = make_box(cx=1.0, length=2.0, width=2.0)
        assert bev_iou(a, b) == pytest.approx(2.0 / 6.0, abs=1e-12)

    def test_unit_cubes_half_z_offset(self):
        a = OrientedBox(0, 0, 0.5, 1, 1, 1, 0.0)
        b = OrientedBox(0, 0, 1.0, 1, 1, 1, 0.0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_touching_footprints_do_not_overlap(self):
        a = make_box(length=2.0, width=2.0)
        b = make_box(cx=2.0, length=2.0, width=2.0)
        assert bev_iou(a, b) == 0.0

    def test_disjoint_z_intervals(self):
        a = OrientedBox(0, 0, 0.0, 2, 2, 1, 0.0)
        b = OrientedBox(0, 0, 5.0, 2, 2, 1, 0.0)
        assert iou_3d(a, b) == 0.0

    def test_contained_box(self):
        outer = make_box(length=4.0, width=4.0)
        inner = make_box(length=1.0, width=1.0)
        assert bev_iou(outer, inner) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_rotated_45_degrees(self):
        # Coaxial unit squares, one rotated 45 degrees: the intersection is
        # a regular octagon of area 2(sqrt(2)-1) and the IoU reduces to
        # sqrt(2)/2. Cross-checked against the Monte-Carlo oracle in the
        # acceptance suite.
        a = OrientedBox(0, 0, 0.5, 1, 1, 1, 0.0)
        b = OrientedBox(0, 0, 0.5, 1, 1, 1, math.pi / 4)
        octagon = 2.0 * (math.sqrt(2.0) - 1.0)
        assert footprint_intersection_area(a, b) == pytest.approx(octagon, abs=1e-12)
        assert bev_iou(a, b) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_yaw_pi_equals_yaw_zero_overlap(self):
        # A 180-degree-flipped rectangle covers the same footprint.
        a = make_box()
        b = make_box(yaw=math.pi)
        assert bev_iou(a, b) == pytest.approx(1.0, abs=1e-9)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_boxes, random_boxes)
    def test_symmetry(self, a, b):
        assert bev_iou(a, b) == pytest.approx(bev_iou(b, a), abs=1e-9)
        assert iou_3d(a, b) == pytest.approx(iou_3d(b, a), abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(random_boxes, random_boxes)
    def test_bounds(self, a, b):
        for value in (bev_iou(a, b), iou_3d(a, b)):
            assert 0.0 <= value <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(random_boxes)
    def test_self_similarity(self, a):
        assert bev_iou(a, a) == pytest.approx(1.0, abs=1e-9)
        assert iou_3d(a, a) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(random_boxes, random_boxes, finite_coord, finite_coord)
    def test_translation_invariance(self, a, b, tx, ty):
        def shift(box):
            return OrientedBox(cx=box.cx + tx, cy=box.cy + ty, cz=box.cz,
                               length=box.length, width=box.width,
                               height=box.height, yaw=box.yaw)
        assert bev_iou(shift(a), shift(b)) == pytest.approx(bev_iou(a, b), abs=1e-7)

    @settings(max_examples=100, deadline=None)
    @given(random_boxes, random_boxes, any_yaw)
    def test_joint_rotation_invariance(self, a, b, phi):
        c, s = math.cos(phi), math.sin(phi)

        def rot(box):
            return OrientedBox(cx=c * box.cx - s * box.cy,
                               cy=s * box.cx + c * box.cy,
                               cz=box.cz, length=box.length, width=box.width,
                               height=box.height, yaw=box.yaw + phi)
        assert bev_iou(rot(a), rot(b)) == pytest.approx(bev_iou(a, b), abs=1e-7)

    @settings(max_examples=100, deadline=None)
    @given(random_boxes, random_boxes)
    def test_equal_z_interval_reduces_3d_to_bev(self, a, b):
        bb = OrientedBox(cx=b.cx, cy=b.cy, cz=a.cz, length=b.length,
                         width=b.width, height=a.height, yaw=b.yaw)
        assert iou_3d(a, bb) == pytest.approx(bev_iou(a, bb), abs=1e-12)


# Yaws on both sides of 0 and of ±pi, where the heading's sign flips.
_EDGE_YAWS = st.one_of(any_yaw, st.sampled_from([
    0.0, 1e-12, -1e-12, 1e-6, -1e-6, math.pi, -math.pi, math.pi - 1e-9,
    -math.pi + 1e-9, math.nextafter(math.pi, 0.0),
    math.nextafter(-math.pi, 0.0)]))
_EXTENTS = st.one_of(st.sampled_from([MIN_EXTENT, MIN_EXTENT * 1.5, 1.8, 4.5]),
                     st.floats(min_value=MIN_EXTENT, max_value=8.0))
# Centre coordinates within 20 m either side of the bound on the
# coordinates the certificate's error analysis covers.
_FAR = st.tuples(st.sampled_from([1.0, -1.0]),
                 st.floats(min_value=_CERT_RANGE - 20.0,
                           max_value=_CERT_RANGE + 20.0)
                 ).map(lambda t: t[0] * t[1])
# The fraction of the touching distance a centre offset covers: up to and
# just past touching, either way.
_FRACTIONS = st.one_of(
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=-1.2, max_value=1.2),
    st.tuples(st.sampled_from([1.0, -1.0]), EDGE_OFFSETS).map(
        lambda t: t[0] + t[1]))
_GATES = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                   st.floats(min_value=0.0, max_value=1.0))


@st.composite
def certificate_pairs(draw):
    """(a, b, gate): a centred near the origin or, one time in five, near
    the certified coordinate range's bound; b offset from a along and
    across a's heading, turned a little, half a turn or at random, and
    stacked on a with its vertical interval overlapping, just touching or
    just apart. b has a's extents half the time. The gate is one of note,
    any, or a multiple of the exact score from 0 to 1.5, mostly below 0.6,
    where pairs certify."""
    yaw = draw(_EDGE_YAWS)
    la, wa = draw(_EXTENTS), draw(_EXTENTS)
    lb, wb = ((la, wa) if draw(st.booleans())
              else (draw(_EXTENTS), draw(_EXTENTS)))
    ha, hb = (draw(st.sampled_from([0.5, 1.0, 1.5, 3.25])) for _ in range(2))
    cx, cy = draw(finite_coord), draw(finite_coord)
    far = draw(st.sampled_from([None, None, None, None, "x", "y"]))
    if far == "x":
        cx = draw(_FAR)
    elif far == "y":
        cy = draw(_FAR)
    a = OrientedBox(cx, cy, draw(st.integers(-8, 8)) / 4.0, la, wa, ha, yaw)
    along = draw(_FRACTIONS) * (la + lb) / 2.0
    across = draw(_FRACTIONS) * (wa + wb) / 2.0
    c, s = math.cos(yaw), math.sin(yaw)
    twist = draw(st.sampled_from([0.0, 1e-12, -1e-9, 1e-6, math.pi,
                                  math.pi / 2, draw(any_yaw)]))
    stack = draw(st.sampled_from(["overlap", "overlap", "touch", "gap"]))
    if stack == "overlap":
        dz = draw(st.floats(min_value=-1.0, max_value=1.0)) * (ha + hb) / 2.0
    else:
        # Dyadic heights and centres: touching intervals meet exactly.
        dz = draw(st.sampled_from([1.0, -1.0])) * (ha + hb) / 2.0
        if stack == "gap":
            dz += math.copysign(draw(st.sampled_from([1e-15, 1e-9, 0.5])), dz)
    b = OrientedBox(a.cx + along * c - across * s, a.cy + along * s + across * c,
                    a.cz + dz, lb, wb, hb, yaw + twist)
    if draw(st.booleans()):
        return a, b, draw(_GATES)
    return a, b, min(1.0, iou_3d(a, b) * draw(st.one_of(
        st.floats(0.0, 0.6), st.floats(0.0, 1.5))))


class TestCertificate:
    """`iou_3d_at_least` is sound: when it certifies a pair, the exact
    score passes the gate and is above 0."""

    @settings(max_examples=2000, deadline=None)
    @given(certificate_pairs())
    def test_certified_pairs_pass_the_gate(self, drawn):
        a, b, gate = drawn
        if iou_3d_at_least(a, b, gate):
            # The gate itself, without association's MATCH_EPS slack.
            x = iou_3d(a, b)
            assert x >= gate and x > 0.0

    @settings(max_examples=300, deadline=None)
    @given(clip_pairs(), _GATES)
    def test_certified_clip_pairs_pass_the_gate(self, pair, gate):
        a, b = pair
        if iou_3d_at_least(a, b, gate):
            x = iou_3d(a, b)
            assert x >= gate and x > 0.0

    # Two aligned boxes, b narrower and 1 m ahead: the midpoint is 1 m deep
    # in a and 0.8 m deep in b, and the certified gates end between
    # 0.16228553 and 0.1622855389; without the rounding margins they would
    # end at 0.16228553894 (and near 0.279 with the larger depth).
    NEAR = (OrientedBox(0.0, 0.0, 1.0, 4.0, 2.0, 1.5, 0.0),
            OrientedBox(1.0, 0.0, 1.0, 4.0, 1.6, 1.5, 0.0))

    def test_just_inside_the_certified_region(self):
        a, b = self.NEAR
        assert iou_3d_at_least(a, b, 0.16228553)
        assert iou_3d(a, b) >= 0.16228553

    def test_just_outside_the_certified_region(self):
        # Fails if the margins go, or if the disk takes the larger depth.
        assert not iou_3d_at_least(*self.NEAR, 0.1622855389)

    def test_disk_takes_the_smaller_depth(self):
        # A 1 m cube inside a 10 m square: the midpoint is 3 m deep in a
        # but outside b. A disk of the larger depth would certify an IoU
        # of 0.39; the exact one is 0.01.
        a = OrientedBox(0.0, 0.0, 0.5, 10.0, 10.0, 1.0, 0.0)
        b = OrientedBox(4.0, 0.0, 0.5, 1.0, 1.0, 1.0, 0.0)
        assert iou_3d(a, b) < 0.1
        assert not iou_3d_at_least(a, b, 0.1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coordinate_range(self, sign):
        # The bound M of two identical 4 x 2 boxes is their centre
        # coordinate plus twice 2 + 1 m: within the range at 65,529 m, past
        # it at 65,531 m, along either axis.
        for cx, cy in ((sign * 65529.0, 0.0), (0.0, sign * 65529.0)):
            box = make_box(cx=cx, cy=cy)
            assert abs(cx) + abs(cy) + 6.0 < _CERT_RANGE
            assert iou_3d_at_least(box, box, 0.1)
        for cx, cy in ((sign * 65531.0, 0.0), (0.0, sign * 65531.0)):
            box = make_box(cx=cx, cy=cy)
            assert abs(cx) + abs(cy) + 6.0 > _CERT_RANGE
            assert not iou_3d_at_least(box, box, 0.1)
            assert iou_3d(box, box) == 1.0

    def test_stacked_boxes_are_never_certified(self):
        a = make_box()
        for dz in (1.5, -1.5, 1.5 + 1e-9):
            b = make_box(cz=a.cz + dz)
            assert iou_3d(a, b) == 0.0
            assert not iou_3d_at_least(a, b, 0.0)


class TestValidation:
    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_box(length=0.0)
        with pytest.raises(ValueError):
            make_box(width=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_box(cx=float("nan"))
        with pytest.raises(ValueError):
            make_box(height=float("inf"))

    def test_yaw_normalized_on_construction(self):
        box = make_box(yaw=3 * math.pi)
        assert box.yaw == pytest.approx(math.pi, abs=1e-12)

    def test_detection_score_bounds(self):
        with pytest.raises(ValueError):
            Detection(box=make_box(), score=1.5)
        with pytest.raises(ValueError):
            Detection(box=make_box(), score=-0.1)

    def test_labeled_object_indices(self):
        with pytest.raises(ValueError):
            LabeledObject(frame_index=-1, track_id=1, box=make_box())
        with pytest.raises(ValueError):
            LabeledObject(frame_index=0, track_id=-2, box=make_box())

    def test_derived_quantities(self):
        box = make_box(cz=2.0, length=4.0, width=2.0, height=1.0)
        assert box.footprint_area == 8.0
        # iou_3d's volume and vertical interval, as it computes them.
        assert box.length * box.width * box.height == 8.0
        half = box.height / 2.0
        assert (box.cz - half, box.cz + half) == (1.5, 2.5)


class TestFootprint:
    @pytest.mark.parametrize("yaw", [0.0, 0.3, math.pi / 2, 2.5, math.pi,
                                     -0.7, -math.pi / 2, -3.0])
    def test_rectangle_corners_counter_clockwise(self, yaw):
        box = make_box(cx=3.5, cy=-1.25, length=4.2, width=1.8, yaw=yaw)
        corners = box.footprint()
        assert isinstance(corners, list) and len(corners) == 4
        assert all(type(x) is float and type(y) is float for x, y in corners)
        signed = 0.5 * sum(x0 * y1 - y0 * x1 for (x0, y0), (x1, y1)
                           in zip(corners, corners[1:] + corners[:1]))
        assert signed > 0.0
        assert signed == pytest.approx(box.length * box.width, rel=1e-12)
        assert sum(x for x, _ in corners) / 4 == pytest.approx(box.cx, abs=1e-12)
        assert sum(y for _, y in corners) / 4 == pytest.approx(box.cy, abs=1e-12)


def _hex_corners(corners):
    return [(x.hex(), y.hex()) for x, y in corners]


class TestListClipOracle:
    """The clip on unpacked locals against the list-of-vertex clip, bit for
    bit: the same IEEE operations in the same order. The oracle still
    returns 0 early for footprints whose bounding circles are apart, so the
    clip must give 0 on those pairs by itself."""

    @settings(max_examples=3000, deadline=None)
    @given(clip_pairs())
    def test_area_bits(self, pair):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            assert footprint_intersection_area(x, y).hex() == \
                reference_intersection_area(x, y).hex()

    @settings(max_examples=500, deadline=None)
    @given(clip_pairs())
    def test_footprint_bits(self, pair):
        for box in pair:
            assert _hex_corners(box.footprint()) == \
                _hex_corners(reference_footprint(box))


# Values a box field may be given: NaN, infinities, signed zeros, negatives,
# subnormals, the float extremes, ordinary values and ints.
_FIELD_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5e-324,
                 5e-324, 1e-310, 2.2250738585072014e-308, 1.5, -7.25,
                 1.7976931348623157e308, -1.7976931348623157e308, 3 * math.pi,
                 0, 2, -3, True]
_FIELDS = ("cx", "cy", "cz", "length", "width", "height", "yaw")


def _outcome(cls, values):
    """(fields, None) for an accepted box, (None, message) for a refusal."""
    try:
        box = cls(*values)
    except ValueError as exc:
        return None, str(exc)
    return [getattr(box, name) for name in _FIELDS], None


class TestFieldWalkOracle:
    """The one chained comparison accepts and refuses what the per-field
    `isfinite` walk did, with the same message."""

    @pytest.mark.parametrize("field", range(len(_FIELDS)))
    def test_each_value_in_each_field(self, field):
        for value in _FIELD_VALUES:
            values = [1.0, -2.0, 0.5, 4.0, 1.8, 1.5, 0.3]
            values[field] = value
            assert repr(_outcome(OrientedBox, values)) == \
                repr(_outcome(ReferenceBox, values)), (field, value)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_FIELD_VALUES), st.floats()),
                    min_size=7, max_size=7))
    def test_any_floats(self, values):
        assert repr(_outcome(OrientedBox, values)) == \
            repr(_outcome(ReferenceBox, values))


class TestRecords:
    def test_replace_wraps_and_validates(self):
        box = make_box()
        turned = dataclasses.replace(box, yaw=7.0)
        assert turned.yaw == wrap_angle(7.0)
        assert (turned.cx, turned.length) == (box.cx, box.length)
        with pytest.raises(ValueError, match="length must be strictly positive"):
            dataclasses.replace(box, length=-1.0)
        with pytest.raises(ValueError, match="cy must be finite"):
            dataclasses.replace(box, cy=math.nan)
        # The other slot-setter records check on replace as on construction.
        label = LabeledObject(0, 1, box)
        assert dataclasses.replace(label, track_id=2) == \
            LabeledObject(frame_index=0, track_id=2, box=box)
        with pytest.raises(ValueError, match="frame_index must be nonnegative"):
            dataclasses.replace(label, frame_index=-1)
        with pytest.raises(ValueError, match="track_id must be nonnegative"):
            dataclasses.replace(label, track_id=-1)
        detection = Detection(box, 0.5)
        assert dataclasses.replace(detection, score=1.0) == Detection(box, 1.0)
        with pytest.raises(ValueError, match=r"score must lie in \[0, 1\]"):
            dataclasses.replace(detection, score=1.5)
        with pytest.raises(ValueError, match=r"score must lie in \[0, 1\]"):
            dataclasses.replace(detection, score=math.nan)
        entry = TrackEntry(1, box, 0.5, "updated")
        assert dataclasses.replace(entry, provenance="predicted") == \
            TrackEntry(track_id=1, box=box, score=0.5, provenance="predicted")

    def test_fields_are_frozen(self):
        box = make_box()
        for record, name in ((box, "cx"), (box, "yaw"),
                             (Detection(box, 0.5), "score"),
                             (LabeledObject(0, 1, box), "track_id"),
                             (TrackEntry(1, box, 0.5, "updated"), "box")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
            assert getattr(record, name) is not None

    def test_slotted(self):
        box = make_box()
        records = [box, Detection(box=box, score=0.5),
                   LabeledObject(frame_index=0, track_id=1, box=box),
                   TrackEntry(track_id=1, box=box, score=0.5,
                              provenance="updated"),
                   TrackState(1, [0.0] * 10, [1.0] * 10, [0.0] * 3),
                   FrameOutput(()), FrameTable((), (), [])]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
        assert box == make_box() and hash(box) == hash(make_box())
