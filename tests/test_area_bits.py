"""The exact overlap and the 3D IoU give the same bits on every supported
Python.

Each pair below comes from the benchmark workloads (seed 7). Summed with
`sum()`, the shoelace area of each came out in other last bits on Python
3.12 and 3.13, whose `sum()` of floats is compensated, than on 3.10 and
3.11; across both workloads 7,506 of the 43,651 pairs that clip to a
polygon did so. The pinned bits are the plain left-to-right sum, which
`geometry` does on every version.

`geometry.py` imports only the standard library, and this file loads it
by path, so it runs without numpy and, as a script, without pytest:

    python tests/test_area_bits.py
"""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "src" / "droptrack" / "geometry.py"
_spec = importlib.util.spec_from_file_location("_droptrack_geometry_alone", _PATH)
geometry = importlib.util.module_from_spec(_spec)
# dataclasses looks the module up in sys.modules while it builds a class.
sys.modules[_spec.name] = geometry
_spec.loader.exec_module(geometry)

# cz, length, width and height of the workloads' car: 0.75, 4.5, 1.8, 1.5.
_CAR = ("0x1.8000000000000p-1", "0x1.2000000000000p+2",
        "0x1.ccccccccccccdp+0", "0x1.8000000000000p+0")

# (box a, box b, area, iou_3d): boxes as (cx, cy, cz, length, width, height,
# yaw).
PINNED = [
    # Axis-aligned, offset along x: 4 vertices.
    (("0x1.0000000000000p+1", "0x1.0666666666666p+3", "0x1.8000000000000p-1",
      "0x1.199999999999ap+2", "0x1.ccccccccccccdp+0", "0x1.8000000000000p+0",
      "0x0.0p+0"),
     ("0x1.23d70a3d70a3dp+1", "0x1.0666666666666p+3", "0x1.8000000000000p-1",
      "0x1.199999999999ap+2", "0x1.ccccccccccccdp+0", "0x1.8000000000000p+0",
      "0x0.0p+0"),
     "0x1.da9fbe76c8b44p+2", "0x1.c2bc2bc2bc2bcp-1"),
    # Heading pi/2, 3e-5 m apart across it: 5 vertices.
    (("-0x1.0000000000000p+1", "-0x1.500040b884729p+3") + _CAR
     + ("0x1.921fb54442d18p+0",),
     ("-0x1.0000000000000p+1", "-0x1.5000000000000p+3") + _CAR
     + ("0x1.921fb54442d18p+0",),
     "0x1.0332beb3de652p+3", "0x1.fffe33c43d733p-1"),
    # Heading pi, b also raised: 4 vertices.
    (("0x1.ae66666666666p+5", "-0x1.0000000000000p+1") + _CAR
     + ("0x1.921fb54442d18p+1",),
     ("0x1.ae9f16e947d09p+5", "-0x1.f79677c441ac4p+0", "0x1.b0956b0cefad7p-1")
     + _CAR[1:] + ("0x1.921fb54442d18p+1",),
     "0x1.f9ce400ef3530p+2", "0x1.aee4f5380528ap-1"),
    # Heading 3.3e-7 rad inside -pi: 4 vertices.
    (("0x1.c666666666666p+5", "-0x1.0000000000000p+1") + _CAR
     + ("-0x1.921fb286796c9p+1",),
     ("0x1.c59a6ce358299p+5", "-0x1.e751159c49774p+0") + _CAR
     + ("-0x1.921fb286796c9p+1",),
     "0x1.dfc5b83f22600p+2", "0x1.b8fd5a9da0837p-1"),
    # Heading 3.3e-7 rad below 0: 4 vertices.
    (("0x1.0333333333333p+4", "0x0.0p+0") + _CAR
     + ("-0x1.5ee4b27800000p-22",),
     ("0x1.ff09c1b54195dp+3", "0x1.32378ab0c88a4p-7") + _CAR
     + ("-0x1.5ee4b27800000p-22",),
     "0x1.e957eccda7b86p+2", "0x1.c9a691dfb416bp-1"),
]


def _box(fields):
    return geometry.OrientedBox(*map(float.fromhex, fields))


def test_area_bits_pinned():
    for a, b, area, _ in PINNED:
        assert geometry.footprint_intersection_area(_box(a), _box(b)).hex() == area


def test_iou_3d_bits_pinned():
    """`iou_3d` combines the area with the vertical overlap and the two
    volumes, each a fixed sequence of operations on the boxes' fields."""
    for a, b, _, iou in PINNED:
        assert geometry.iou_3d(_box(a), _box(b)).hex() == iou


if __name__ == "__main__":
    test_area_bits_pinned()
    test_iou_3d_bits_pinned()
    print(f"{len(PINNED)} pinned areas and 3D IoUs match on Python "
          f"{sys.version.split()[0]}")
