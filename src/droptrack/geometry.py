"""Oriented 3D boxes and their overlap geometry.

Boxes live in a right-handed ground-plane frame: x/y span the ground,
z points up, yaw rotates the footprint about the vertical axis. The
footprint overlap is computed exactly by clipping one rectangle against
the other (Sutherland-Hodgman) on plain floats: a polygon is a list of
(x, y) pairs from footprint through clipping to area, and no geometry or
array library is involved. The 3D overlap is footprint area times
vertical overlap.

`overlap_bounds` is the one definition of a box's bounds: the bounding
circle of its footprint and, for the 3D IoU, its vertical interval. The
exact functions return 0 for a pair whose circles are apart or whose
intervals do not overlap, so a caller may skip such a pair and score it
0 without a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Intersection areas below this are treated as zero: polygon clipping on
# touching edges produces slivers of this magnitude.
_AREA_EPS = 1e-12

# Object classes a run detects, tracks and scores unless configured otherwise.
DEFAULT_CLASS_SET = frozenset({"Car"})

# Floor on the extents of boxes the detector and tracker emit: noise can push
# an extent to zero or below, and every emitted box must stay a valid
# OrientedBox.
MIN_EXTENT = 0.05


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(frozen=True)
class OrientedBox:
    """A yaw-rotated 3D bounding box, center convention on all axes.

    The vertical extent spans [cz - height/2, cz + height/2]. Length runs
    along the heading (yaw), width across it. Dimensions must be strictly
    positive and finite; yaw is normalized to (-pi, pi] at construction.
    """

    cx: float
    cy: float
    cz: float
    length: float
    width: float
    height: float
    yaw: float

    def __post_init__(self):
        for name in ("length", "width", "height"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
        for name in ("cx", "cy", "cz", "yaw"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    def footprint(self) -> list[tuple[float, float]]:
        """The four (x, y) corners of the ground-plane rectangle, counter-clockwise."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        dx, dy = self.length / 2.0, self.width / 2.0
        return [(self.cx + x * c - y * s, self.cy + x * s + y * c)
                for x, y in ((dx, dy), (-dx, dy), (-dx, -dy), (dx, -dy))]

    @property
    def z_interval(self) -> tuple[float, float]:
        half = self.height / 2.0
        return self.cz - half, self.cz + half

    @property
    def footprint_radius(self) -> float:
        """Radius of the footprint's bounding circle about (cx, cy)."""
        return math.hypot(self.length, self.width) / 2.0

    @property
    def footprint_area(self) -> float:
        return self.length * self.width

    @property
    def volume(self) -> float:
        return self.length * self.width * self.height


@dataclass(frozen=True)
class Detection:
    """A detector output: a box plus confidence."""

    box: OrientedBox
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score!r}")


@dataclass(frozen=True)
class LabeledObject:
    """One ground-truth annotation: a box with identity at a frame."""

    frame_index: int
    track_id: int
    box: OrientedBox
    class_label: str = "Car"

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be nonnegative")
        if self.track_id < 0:
            raise ValueError("track_id must be nonnegative")


def _polygon_area(poly: list[tuple[float, float]]) -> float:
    """Shoelace area of a simple polygon given as (x, y) vertices."""
    if len(poly) < 3:
        return 0.0
    pairs = zip(poly, poly[1:] + poly[:1])
    return 0.5 * abs(sum(x0 * y1 - y0 * x1 for (x0, y0), (x1, y1) in pairs))


def _clip_polygon(subject: list, clipper: list) -> list:
    """Sutherland-Hodgman clip of `subject` against convex `clipper`.

    Both polygons are lists of (x, y) vertices with counter-clockwise
    winding. Returns the clipped polygon vertices, possibly empty.
    """
    output = subject
    n = len(clipper)
    for i in range(n):
        if not output:
            break
        ax, ay = clipper[i]
        bx, by = clipper[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        input_pts = output
        output = []
        prev = input_pts[-1]
        # Signed distance proxy: positive means left of (inside) the edge.
        f_prev = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in input_pts:
            f_cur = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if f_cur >= 0.0:
                if f_prev < 0.0:
                    t = f_prev / (f_prev - f_cur)
                    output.append((prev[0] + t * (cur[0] - prev[0]),
                                   prev[1] + t * (cur[1] - prev[1])))
                output.append(cur)
            elif f_prev >= 0.0:
                t = f_prev / (f_prev - f_cur)
                output.append((prev[0] + t * (cur[0] - prev[0]),
                               prev[1] + t * (cur[1] - prev[1])))
            prev, f_prev = cur, f_cur
    return output


def footprint_intersection_area(a: OrientedBox, b: OrientedBox) -> float:
    """Exact overlap area of the two yaw-rotated footprint rectangles."""
    # Cheap separation test on bounding circles before clipping.
    if math.hypot(a.cx - b.cx, a.cy - b.cy) > \
            a.footprint_radius + b.footprint_radius:
        return 0.0
    clipped = _clip_polygon(a.footprint(), b.footprint())
    area = _polygon_area(clipped)
    return area if area > _AREA_EPS else 0.0


def overlap_bounds(box: OrientedBox, similarity: str
                   ) -> tuple[float, float, float, float, float]:
    """`(cx, cy, r, zlo, zhi)`: bounds outside which a similarity is 0.

    Both similarities return 0 when `hypot(ax - bx, ay - by) > ra + rb`,
    `r` being the footprint's bounding-circle radius; `3d-iou` also when
    `min(ahi, bhi) - max(alo, blo) <= 0`. Any other similarity gets an
    unbounded z interval, so that test passes for it.
    """
    zlo, zhi = box.z_interval if similarity == "3d-iou" else (-math.inf, math.inf)
    return box.cx, box.cy, box.footprint_radius, zlo, zhi


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
    alo, ahi = a.z_interval
    blo, bhi = b.z_interval
    dz = min(ahi, bhi) - max(alo, blo)
    if dz <= 0.0:
        return 0.0
    inter_area = footprint_intersection_area(a, b)
    if inter_area == 0.0:
        return 0.0
    inter = inter_area * dz
    union = a.volume + b.volume - inter
    return min(inter / union, 1.0)


# Box similarity functions by the name configs and the command line use.
SIMILARITY_FNS = {"3d-iou": iou_3d, "bev-iou": bev_iou}
