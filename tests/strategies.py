"""Hypothesis strategies for boxes, including pairs on the edge of overlap.

`box_pairs` draws (a, b) pairs that sit where a bounds test could go
wrong: identical boxes, centres exactly (up to rounding) the sum of the
bounding-circle radii apart, vertical intervals that just touch, and
rotated footprints whose edges just touch. `clip_pairs` adds the pairs
where a rectangle clip could go wrong: corners that coincide, a box
turned by pi/2 or pi against the other, and tiny or large extents.
"""

import math
from dataclasses import replace

from hypothesis import strategies as st

from droptrack.geometry import OrientedBox

finite_coord = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
box_dim = st.floats(min_value=0.2, max_value=8.0, allow_nan=False)
any_yaw = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)

random_boxes = st.builds(
    OrientedBox,
    cx=finite_coord, cy=finite_coord,
    cz=st.floats(min_value=-3.0, max_value=3.0),
    length=box_dim, width=box_dim, height=box_dim,
    yaw=any_yaw,
)

# Offsets from an edge, either way: none, rounding-sized, and small gaps
# or overlaps from 5e-10 to 1e-6.
EDGE_OFFSETS = st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 5e-10,
                                -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-6, -1e-6])

# Dyadic heights and centres, so that touching intervals meet exactly.
_DYADIC_HEIGHT = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.25])
_DYADIC_CZ = st.integers(min_value=-8, max_value=8).map(lambda k: k / 4.0)


@st.composite
def box_pairs(draw):
    a = draw(random_boxes)
    b = draw(random_boxes)
    kind = draw(st.sampled_from(["identical", "circle", "z_touch", "edge",
                                 "random"]))
    if kind == "identical":
        return a, replace(a)
    if kind == "circle":
        # Centres the sum of the radii apart, give or take an edge offset.
        phi = draw(any_yaw)
        d = (math.hypot(a.length, a.width) + math.hypot(b.length, b.width)) / 2.0
        d += draw(EDGE_OFFSETS)
        return a, replace(b, cx=a.cx + d * math.cos(phi),
                          cy=a.cy + d * math.sin(phi), cz=a.cz)
    if kind == "z_touch":
        # Overlapping footprints; b sits on top of a or hangs below it, so
        # min(ahi, bhi) - max(alo, blo) is exactly 0 before the offset.
        a = replace(a, cz=draw(_DYADIC_CZ), height=draw(_DYADIC_HEIGHT))
        hb = draw(_DYADIC_HEIGHT)
        side = draw(st.sampled_from([1.0, -1.0]))
        cz = a.cz + side * (a.height / 2.0 + hb / 2.0) + draw(EDGE_OFFSETS)
        return a, replace(b, cx=a.cx + draw(st.floats(-0.5, 0.5)), cy=a.cy,
                          cz=cz, height=hb)
    if kind == "edge":
        # b shares a's heading (up to a tiny twist) and is shifted along or
        # across it so that the two footprints touch along an edge.
        along = draw(st.booleans())
        gap = (a.length + b.length) / 2.0 if along else (a.width + b.width) / 2.0
        gap += draw(EDGE_OFFSETS)
        c, s = math.cos(a.yaw), math.sin(a.yaw)
        dx, dy = (gap * c, gap * s) if along else (-gap * s, gap * c)
        twist = draw(st.sampled_from([0.0, 1e-12, -1e-9, 1e-6]))
        return a, replace(b, cx=a.cx + dx, cy=a.cy + dy, cz=a.cz,
                          yaw=a.yaw + twist)
    return a, b


@st.composite
def clip_pairs(draw):
    a = draw(random_boxes)
    b = draw(random_boxes)
    kind = draw(st.sampled_from(["bounds", "corner", "turn", "extent"]))
    if kind == "bounds":
        return draw(box_pairs())
    if kind == "corner":
        # A corner of b moved onto a corner of a, up to an edge offset.
        ax, ay = a.footprint()[draw(st.integers(0, 3))]
        bx, by = b.footprint()[draw(st.integers(0, 3))]
        return a, replace(b, cx=b.cx + (ax - bx) + draw(EDGE_OFFSETS),
                          cy=b.cy + (ay - by))
    if kind == "turn":
        # a copy of a, or b on a's centre, turned against a by pi/2 or pi
        # and shifted along x by nothing or by half of one of a's extents.
        turn = draw(st.sampled_from([math.pi / 2, -math.pi / 2, math.pi]))
        shift = draw(st.sampled_from([0.0, a.length / 2.0, a.width / 2.0]))
        return a, replace(b if draw(st.booleans()) else a,
                          cx=a.cx + shift, cy=a.cy, yaw=a.yaw + turn)
    # Both footprints scaled by one factor about a's centre.
    k = draw(st.sampled_from([1e-6, 1e-3, 1e3, 1e5]))
    return (replace(a, length=a.length * k, width=a.width * k),
            replace(b, cx=a.cx + (b.cx - a.cx) * k, cy=a.cy + (b.cy - a.cy) * k,
                    length=b.length * k, width=b.width * k))
