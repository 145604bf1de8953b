"""Oriented 3D boxes and their overlap geometry.

Boxes live in a right-handed ground-plane frame: x/y span the ground,
z points up, yaw rotates the footprint about the vertical axis. The
footprint overlap is computed exactly by clipping one rectangle against
the other (Sutherland-Hodgman) on plain floats: a polygon is a list of
(x, y) pairs from footprint through clipping to area, and no geometry or
array library is involved. The 3D overlap is footprint area times
vertical overlap.

Every overlap is a fixed sequence of IEEE double operations, so its bits
do not depend on the interpreter. In particular the shoelace area adds
its terms one at a time, left to right from 0.0, in vertex order: it
does not call `sum()`, which uses compensated summation from Python 3.12
on and would give other last bits there.

`candidate_pairs` walks the (row, column) pairs of two box lists in
row-major order and is the one place a pair is skipped by its bounds: a
pair whose footprints' bounding circles are apart cannot overlap and gets
no exact call. `pair_similarities` scores its candidates by `iou_3d`, the
one scoring rule, for association and for evaluation alike, and returns
only the pairs that overlap. The exact functions only clip; `iou_3d`
first takes the vertical overlap, which its volume needs, and returns 0
without clipping when there is none.

`iou_3d_at_least(a, b, gate)` proves `iou_3d(a, b) >= gate` and
`iou_3d(a, b) > 0` without clipping, for a caller that needs only the
gate decision; when it returns False, nothing is proved and the caller
makes the exact call. The proof: let m be the midpoint of the two
centres and ρ the smaller of m's depths inside the two footprints. The
disk of radius ρ about m lies inside both footprints, so I >= πρ²·dz,
with `dz` the vertical overlap exactly as `iou_3d` computes it, and
IoU = I / (Va + Vb - I) is at least the gate when
I·(1 + gate) >= gate·(Va + Vb). The margins cover rounding. Let M be the
largest centre coordinate of the pair plus the half-length and
half-width of both boxes, so that every footprint and clipped coordinate
is below M, and u = 2⁻⁵³. The computed corners, clip edges and clipped
vertices lie within 300·u·M (about 2⁻⁴⁵·M) of the exact ones, so the
computed polygon still holds the disk once ρ is shrunk by
`_CERT_ROUNDING`·M = 2⁻³⁶·M. Each shoelace term is below 2M², so the
computed area of the (at most eight-vertex) polygon is off by less than
200·u·M², well under `_CERT_ROUNDING`·M², which the area bound
subtracts; π is taken as 3.14159 below it. The gate inequality must hold
with the relative margin `_CERT_REL` (2⁻⁴⁰, which covers the few
roundings of the volumes and of the quotient) and with `_CERT_TINY`
added to the gate, which keeps the quotient from underflowing to 0. The
analysis assumes that nothing overflows or underflows: the certificate
returns False when M or `dz` exceeds `_CERT_RANGE` (2¹⁶ m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# Intersection areas below this are treated as zero: polygon clipping on
# touching edges produces slivers of this magnitude.
_AREA_EPS = 1e-12

# Floor on the extents of boxes the detector and tracker emit: noise can push
# an extent to zero or below, and every emitted box must stay a valid
# OrientedBox.
MIN_EXTENT = 0.05

_INF = math.inf

# The certificate's margins (see the module docstring).
_CERT_RANGE = 2.0 ** 16
_CERT_ROUNDING = 2.0 ** -36
_CERT_REL = 1.0 + 2.0 ** -40
_CERT_TINY = 2.0 ** -900


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def _slot_setters(cls) -> tuple:
    """The slot `__set__` of each of `cls`'s fields, in field order.

    A record built per frame, row or output entry is a `slots=True`
    dataclass; a frozen one is `init=False`, and its `__init__` runs its
    checks, then sets each field with these, at about half the cost of
    the generated one's `object.__setattr__`. Parameters keep the field
    names, so `dataclasses.replace` still checks; hot callers pass them by
    position.
    """
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class OrientedBox:
    """A yaw-rotated 3D bounding box, center convention on all axes.

    The vertical extent spans [cz - height/2, cz + height/2]. Length runs
    along the heading (yaw), width across it. Dimensions must be strictly
    positive and finite; yaw is normalized to (-pi, pi] at construction.

    Validation is one chained comparison, which NaN fails like any
    out-of-range value; only a box that fails it has its fields walked for
    the `ValueError` message. A non-number raises the comparison's
    `TypeError`. An int beyond float range passes as a dimension or
    coordinate; as a yaw it raises `OverflowError`, from the wrap.
    """

    cx: float
    cy: float
    cz: float
    length: float
    width: float
    height: float
    yaw: float

    def __init__(self, cx, cy, cz, length, width, height, yaw):
        if not (0.0 < length < _INF and 0.0 < width < _INF
                and 0.0 < height < _INF and -_INF < cx < _INF
                and -_INF < cy < _INF and -_INF < cz < _INF
                and -_INF < yaw < _INF):
            _check_fields(cx, cy, cz, length, width, height, yaw)
        _set_cx(self, cx)
        _set_cy(self, cy)
        _set_cz(self, cz)
        _set_length(self, length)
        _set_width(self, width)
        _set_height(self, height)
        _set_yaw(self, wrap_angle(yaw))

    def footprint(self) -> list[tuple[float, float]]:
        """The four (x, y) corners of the ground-plane rectangle, counter-clockwise.

        Corner k is (cx + x c - y s, cy + x s + y c) for the local corner
        (x, y) = (±dx, ±dy). Negation is exact, so the four products of
        dx and dy with c and s give every corner's terms.
        """
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        dx, dy = self.length / 2.0, self.width / 2.0
        dxc, dxs, dyc, dys = dx * c, dx * s, dy * c, dy * s
        cx, cy = self.cx, self.cy
        return [(cx + dxc - dys, cy + dxs + dyc), (cx - dxc - dys, cy - dxs + dyc),
                (cx - dxc + dys, cy - dxs - dyc), (cx + dxc + dys, cy + dxs - dyc)]

    @property
    def footprint_radius(self) -> float:
        """Radius of the footprint's bounding circle about (cx, cy)."""
        return math.hypot(self.length, self.width) / 2.0

    @property
    def footprint_area(self) -> float:
        return self.length * self.width


(_set_cx, _set_cy, _set_cz, _set_length, _set_width, _set_height,
 _set_yaw) = _slot_setters(OrientedBox)


def _check_fields(cx, cy, cz, length, width, height, yaw) -> None:
    """Raise the ValueError that names the first invalid field of a box."""
    for name, value in (("length", length), ("width", width),
                        ("height", height)):
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
    for name, value in (("cx", cx), ("cy", cy), ("cz", cz), ("yaw", yaw)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, slots=True, init=False)
class Detection:
    """A detector output: a box plus confidence."""

    box: OrientedBox
    score: float

    def __init__(self, box, score):
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {score!r}")
        _set_detection_box(self, box)
        _set_detection_score(self, score)


_set_detection_box, _set_detection_score = _slot_setters(Detection)


@dataclass(frozen=True, slots=True, init=False)
class LabeledObject:
    """One ground-truth annotation: a box with identity at a frame."""

    frame_index: int
    track_id: int
    box: OrientedBox

    def __init__(self, frame_index, track_id, box):
        if frame_index < 0:
            raise ValueError("frame_index must be nonnegative")
        if track_id < 0:
            raise ValueError("track_id must be nonnegative")
        _set_label_frame_index(self, frame_index)
        _set_label_track_id(self, track_id)
        _set_label_box(self, box)


(_set_label_frame_index, _set_label_track_id,
 _set_label_box) = _slot_setters(LabeledObject)


def footprint_intersection_area(a: OrientedBox, b: OrientedBox) -> float:
    """Exact overlap area of the two yaw-rotated footprint rectangles.

    Clips a's footprint against each edge of b's in turn (Sutherland-
    Hodgman; both are counter-clockwise), then takes the shoelace area of
    what is left, its terms summed left to right.
    """
    poly = a.footprint()
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = b.footprint()
    for ax, ay, bx, by in ((x0, y0, x1, y1), (x1, y1, x2, y2),
                           (x2, y2, x3, y3), (x3, y3, x0, y0)):
        ex, ey = bx - ax, by - ay
        clipped = []
        px, py = poly[-1]
        # Signed distance proxy: positive means left of (inside) the edge.
        fp = ex * (py - ay) - ey * (px - ax)
        for cur in poly:
            qx, qy = cur
            fq = ex * (qy - ay) - ey * (qx - ax)
            if fq >= 0.0:
                if fp < 0.0:
                    t = fp / (fp - fq)
                    clipped.append((px + t * (qx - px), py + t * (qy - py)))
                clipped.append(cur)
            elif fp >= 0.0:
                t = fp / (fp - fq)
                clipped.append((px + t * (qx - px), py + t * (qy - py)))
            px, py, fp = qx, qy, fq
        if not clipped:
            return 0.0
        poly = clipped
    if len(poly) < 3:
        return 0.0
    # Shoelace terms over the vertex pairs (0, 1), (1, 2), ..., (n-1, 0).
    first_x, first_y = px, py = poly[0]
    twice_area = 0.0
    for qx, qy in poly[1:]:
        twice_area += px * qy - py * qx
        px, py = qx, qy
    twice_area += px * first_y - py * first_x
    area = 0.5 * abs(twice_area)
    return area if area > _AREA_EPS else 0.0


def bev_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection-over-union of the two ground-plane footprints.

    Symmetric in its arguments and always in [0, 1].
    """
    inter = footprint_intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    union = a.footprint_area + b.footprint_area - inter
    return min(inter / union, 1.0)


def iou_3d(a: OrientedBox, b: OrientedBox) -> float:
    """Volumetric intersection-over-union of two oriented boxes.

    The intersection volume is the footprint overlap area times the
    overlap of the vertical intervals; the union is the usual
    inclusion-exclusion of the two box volumes.
    """
    a_half, b_half = a.height / 2.0, b.height / 2.0
    dz = (min(a.cz + a_half, b.cz + b_half)
          - max(a.cz - a_half, b.cz - b_half))
    if dz <= 0.0:
        return 0.0
    inter_area = footprint_intersection_area(a, b)
    if inter_area == 0.0:
        return 0.0
    inter = inter_area * dz
    union = (a.length * a.width * a.height + b.length * b.width * b.height
             - inter)
    return min(inter / union, 1.0)


def iou_3d_at_least(a: OrientedBox, b: OrientedBox, gate: float) -> bool:
    """True only if `iou_3d(a, b) >= gate` and `iou_3d(a, b) > 0`, proved
    by the disk certificate of the module docstring without clipping.
    False proves nothing: the caller makes the exact call."""
    # `iou_3d`'s vertical overlap, operation for operation: the same bits.
    a_half, b_half = a.height / 2.0, b.height / 2.0
    dz = (min(a.cz + a_half, b.cz + b_half)
          - max(a.cz - a_half, b.cz - b_half))
    if not 0.0 < dz <= _CERT_RANGE:
        return False
    ax, ay, bx, by = a.cx, a.cy, b.cx, b.cy
    la, wa, lb, wb = (a.length / 2.0, a.width / 2.0,
                      b.length / 2.0, b.width / 2.0)
    reach = max(abs(ax), abs(ay), abs(bx), abs(by)) + la + wa + lb + wb
    if not reach <= _CERT_RANGE:
        return False
    # The midpoint lies h from a's centre and -h from b's; its depth in a
    # footprint is the smaller of its distances to the long and short
    # edges, read off h's components along and across the heading.
    hx, hy = (bx - ax) / 2.0, (by - ay) / 2.0
    ca, sa, cb, sb = (math.cos(a.yaw), math.sin(a.yaw),
                      math.cos(b.yaw), math.sin(b.yaw))
    rho = min(la - abs(hx * ca + hy * sa), wa - abs(hy * ca - hx * sa),
              lb - abs(hx * cb + hy * sb), wb - abs(hy * cb - hx * sb)
              ) - _CERT_ROUNDING * reach
    if rho <= 0.0:
        return False
    area = 3.14159 * rho * rho - _CERT_ROUNDING * reach * reach
    if not area > _AREA_EPS:
        return False
    vol = a.length * a.width * a.height + b.length * b.width * b.height
    return area * dz >= vol * ((gate + _CERT_TINY) * _CERT_REL / (1.0 + gate))


def candidate_pairs(rows: list[OrientedBox], cols: list[OrientedBox]):
    """The (row, row box, column, column box) of each pair that may
    overlap, row-major: a pair whose footprints' bounding circles are
    apart, `hypot(ax - bx, ay - by) > ra + rb`, does not overlap and is
    skipped."""
    hypot = math.hypot
    col_circles = [(j, b, b.cx, b.cy, b.footprint_radius)
                   for j, b in enumerate(cols)]
    for i, a in enumerate(rows):
        ax, ay, ar = a.cx, a.cy, a.footprint_radius
        for j, b, bx, by, br in col_circles:
            if hypot(ax - bx, ay - by) <= ar + br:
                yield i, a, j, b


def pair_similarities(rows: list[OrientedBox], cols: list[OrientedBox]
                      ) -> list[tuple[int, int, float]]:
    """The (row, column, sim) triples of the pairs that overlap, `sim > 0`
    being `iou_3d` of the pair, in row-major order.

    Each of `candidate_pairs` gets one exact call and is kept if it scores
    above 0, so a pair missing from the list does not overlap.
    """
    return [(i, j, x) for i, a, j, b in candidate_pairs(rows, cols)
            if (x := iou_3d(a, b)) > 0.0]
