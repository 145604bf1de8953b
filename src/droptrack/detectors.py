"""Synthetic detector stand-ins.

Two detector variants feed the tracker: a perfect one that echoes ground
truth, and a parametric noisy one. Both are consulted only on processed
frames; the caller owns that decision.

Noise draws are keyed by (seed, sequence_id, frame_index), never by the
drop pattern, so two runs that share a frame see identical noise on it
regardless of which other frames were dropped.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .geometry import MIN_EXTENT, Detection, LabeledObject, OrientedBox

# Fallback clutter shape when a sequence has no labels to sample from.
_FALLBACK_EXTENT = (4.5, 1.8, 1.6, 0.8)


def gt_detect(labels: list[LabeledObject]) -> list[Detection]:
    """Perfect detector: one score-1.0 detection per label."""
    return [Detection(box=lab.box, score=1.0) for lab in labels]


@dataclass(frozen=True)
class NoiseProfile:
    """Quality knobs for the synthetic noisy detector."""

    detection_probability: float = 1.0
    false_positives_per_frame: float = 0.0
    center_sigma: float = 0.0
    extent_sigma: float = 0.0
    yaw_sigma: float = 0.0
    score_range: tuple[float, float] = (1.0, 1.0)
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.detection_probability <= 1.0:
            raise ValueError("detection_probability must lie in [0, 1]")
        # Written so that NaN fails it.
        for name in ("false_positives_per_frame", "center_sigma",
                     "extent_sigma", "yaw_sigma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        low, high = self.score_range
        if not (0.0 <= low <= high <= 1.0):
            raise ValueError("score_range must be an ordered pair within [0, 1]")


@dataclass(frozen=True)
class SceneContext:
    """Sequence-level placement info for false positives.

    Built once per sequence so clutter placement does not depend on which
    frame is being perturbed.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    extent_pool: tuple[tuple[float, float, float, float], ...] = \
        field(default=(_FALLBACK_EXTENT,))


def scene_context(sequence_labels: list[LabeledObject],
                  margin: float = 10.0) -> SceneContext:
    """Axis-aligned region of all label centers, expanded by `margin`."""
    if not sequence_labels:
        return SceneContext(x_range=(-50.0, 50.0), y_range=(-50.0, 50.0))
    xs = [lab.box.cx for lab in sequence_labels]
    ys = [lab.box.cy for lab in sequence_labels]
    pool = tuple(sorted({
        (lab.box.length, lab.box.width, lab.box.height, lab.box.cz)
        for lab in sequence_labels
    }))
    return SceneContext(
        x_range=(min(xs) - margin, max(xs) + margin),
        y_range=(min(ys) - margin, max(ys) + margin),
        extent_pool=pool,
    )


def _frame_rng(profile: NoiseProfile, sequence_id: str,
               frame_index: int) -> np.random.Generator:
    seq_key = zlib.crc32(sequence_id.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=profile.rng_seed,
                                spawn_key=(seq_key, frame_index))
    return np.random.default_rng(ss)


def noisy_detect(labels: list[LabeledObject], profile: NoiseProfile,
                 frame_index: int, sequence_id: str = "",
                 scene: SceneContext | None = None) -> list[Detection]:
    """Emit perturbed detections for one frame.

    Each label survives with detection_probability; survivors get
    zero-mean Gaussian jitter on center, extents, and yaw, and a score
    uniform in score_range. Poisson-many false positives are placed
    uniformly in the scene region with shapes drawn from the extent pool.
    """
    if scene is None:
        scene = scene_context(labels)
    rng = _frame_rng(profile, sequence_id, frame_index)
    out: list[Detection] = []

    # Fixed iteration order keeps the draw sequence reproducible.
    kept = sorted(labels, key=lambda lab: lab.track_id)
    low, high = profile.score_range
    for lab in kept:
        if rng.uniform() >= profile.detection_probability:
            continue
        b = lab.box
        # Plain floats, so boxes and the tracker do no numpy-scalar math.
        dc = (rng.normal(0.0, 1.0, size=3) * profile.center_sigma).tolist()
        de = (rng.normal(0.0, 1.0, size=3) * profile.extent_sigma).tolist()
        dyaw = rng.normal(0.0, 1.0) * profile.yaw_sigma
        box = OrientedBox(
            cx=b.cx + dc[0], cy=b.cy + dc[1], cz=b.cz + dc[2],
            length=max(MIN_EXTENT, b.length + de[0]),
            width=max(MIN_EXTENT, b.width + de[1]),
            height=max(MIN_EXTENT, b.height + de[2]),
            yaw=b.yaw + dyaw,
        )
        out.append(Detection(box=box, score=float(rng.uniform(low, high))))

    n_fp = int(rng.poisson(profile.false_positives_per_frame)) \
        if profile.false_positives_per_frame > 0.0 else 0
    pool = scene.extent_pool if scene.extent_pool else (_FALLBACK_EXTENT,)
    for _ in range(n_fp):
        cx = rng.uniform(*scene.x_range)
        cy = rng.uniform(*scene.y_range)
        length, width, height, cz = pool[int(rng.integers(len(pool)))]
        box = OrientedBox(cx=cx, cy=cy, cz=cz, length=length, width=width,
                          height=height, yaw=rng.uniform(-np.pi, np.pi))
        out.append(Detection(box=box, score=float(rng.uniform(low, high))))
    return out
