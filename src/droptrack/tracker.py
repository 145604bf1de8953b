"""Drop-aware tracking by detection.

A constant-velocity Kalman filter carries each track; frames without a
detector pass still produce output by extrapolating every live track one
cycle. Lifecycle counters (hits, consecutive misses) move only on frames
the detector actually processed, so one miss budget works across drop
patterns. A track is output once it has `min_hits_to_confirm` hits; an
unmatched track dies while it has fewer, or once its consecutive misses
exceed `max_misses_to_delete`.

State: `mean` is 10 floats, cx, cy, cz, yaw, length, width, height, vx,
vy, vz; the first 7 are observed, and yaw and extents follow a random
walk. Birth, process and measurement noise are diagonal and each velocity
couples only to its own position, so the covariance is one (position,
velocity) 2×2 block per axis x, y, z plus a variance for yaw and each
extent: `var` holds the 10 diagonal entries, `cross` the 3 couplings. The
filter runs per axis on these plain floats with no matrix library, and
the innovation covariance S is diagonal, so `update` inverts no matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import (MIN_EXTENT, SIMILARITY_FNS, Detection, OrientedBox,
                       pair_similarities, wrap_angle)

N_OBSERVED = 7

PROVENANCE_UPDATED = "updated"
PROVENANCE_PREDICTED = "predicted"

# Slack on every score-vs-threshold gate, here and in the metrics: a pair
# whose score equals the threshold up to rounding is eligible.
MATCH_EPS = 1e-12


@dataclass
class TrackerConfig:
    cycle_time: float = 0.1
    min_hits_to_confirm: int = 1
    max_misses_to_delete: int = 2
    gate_iou_min: float = 0.1
    association_metric: str = "3d-iou"
    process_noise: float = 1e-2
    measurement_noise: float = 1e-2
    # Birth covariance: pose/extent blocks reflect single-shot detector
    # trust; the velocity block is inflated because birth observes none.
    birth_position_var: float = 1.0
    birth_yaw_var: float = 0.5
    birth_extent_var: float = 0.25
    birth_velocity_var: float = 100.0

    def __post_init__(self):
        # Every check is written so that NaN fails it.
        if not 0.0 < self.cycle_time < math.inf:
            raise ValueError("cycle_time must be positive and finite")
        if self.min_hits_to_confirm < 1 or self.max_misses_to_delete < 1:
            raise ValueError("lifecycle thresholds must be >= 1")
        if not 0.0 <= self.gate_iou_min <= 1.0:
            raise ValueError("gate_iou_min must lie in [0, 1]")
        if self.association_metric not in SIMILARITY_FNS:
            raise ValueError(f"association_metric must be one of "
                             f"{sorted(SIMILARITY_FNS)}")
        for name in ("process_noise", "measurement_noise",
                     "birth_position_var", "birth_yaw_var",
                     "birth_extent_var", "birth_velocity_var"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


@dataclass
class TrackState:
    track_id: int
    mean: list[float]
    var: list[float]
    cross: list[float]
    hits: int = 1
    consecutive_misses: int = 0
    last_score: float = 0.0

    def box(self) -> OrientedBox:
        m = self.mean
        return OrientedBox(cx=m[0], cy=m[1], cz=m[2],
                           length=max(MIN_EXTENT, m[4]),
                           width=max(MIN_EXTENT, m[5]),
                           height=max(MIN_EXTENT, m[6]), yaw=m[3])


@dataclass(frozen=True, slots=True)
class TrackEntry:
    track_id: int
    box: OrientedBox
    score: float
    provenance: str


@dataclass(frozen=True)
class FrameOutput:
    frame_index: int
    entries: tuple[TrackEntry, ...]


def predict(state: TrackState, dt: float, config: TrackerConfig) -> TrackState:
    """Constant-velocity extrapolation, F P Fᵀ + dt q I per axis with
    F = [[1, dt], [0, 1]]; lifecycle fields untouched."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    m, var, cross = state.mean, state.var, state.cross
    dq = dt * config.process_noise
    mean, new_var, new_cross = m[:], [v + dq for v in var], cross[:]
    mean[3] = wrap_angle(m[3])
    for k in range(3):
        c, v = cross[k], var[k + N_OBSERVED]
        mean[k] = m[k] + dt * m[k + N_OBSERVED]
        new_cross[k] = nc = c + dt * v
        new_var[k] = var[k] + dt * c + nc * dt + dq
    return TrackState(state.track_id, mean, new_var, new_cross, state.hits,
                      state.consecutive_misses, state.last_score)


def update(state: TrackState, detection: Detection,
           config: TrackerConfig) -> TrackState:
    """Kalman measurement update on the 7 observed components."""
    m, var, cross = state.mean, state.var, state.cross
    b = detection.box
    innovation = [b.cx - m[0], b.cy - m[1], b.cz - m[2],
                  wrap_angle(b.yaw - m[3]), b.length - m[4],
                  b.width - m[5], b.height - m[6]]
    # S is diagonal, so axis i gets gain g = var_i * (1 / s_i) and its
    # velocity h = cross_i * (1 / s_i); the reciprocal, not a division,
    # matches an LU solve bit for bit. An axis with s_i at or below the
    # pseudo-inverse cutoff 1e-12 * max(s), and every axis once S has
    # collapsed to rounding residue, is already exact: no gain, state kept.
    r = config.measurement_noise
    s = [v + r for v in var[:N_OBSERVED]]
    top = max(s)
    cutoff = 1e-12 * top if top >= 1e-12 else math.inf
    mean, new_var, new_cross = m[:], var[:], cross[:]
    for i, e in enumerate(innovation):
        if s[i] <= cutoff:
            continue
        inv, p = 1.0 / s[i], var[i]
        g = p * inv
        a = 1.0 - g
        mean[i] = m[i] + g * e
        # Joseph form entry by entry, terms in the matrix products' order:
        # I - K H = [[a, 0], [-h, 1]] and K = [g, h] on a (position,
        # velocity) block; the two cross entries are averaged (symmetrised).
        new_var[i] = a * p * a + r * g * g
        if i < 3:
            c, v, h = cross[i], var[i + N_OBSERVED], cross[i] * inv
            vp = c - h * p
            mean[i + N_OBSERVED] = m[i + N_OBSERVED] + h * e
            new_var[i + N_OBSERVED] = v - h * c - vp * h + r * h * h
            new_cross[i] = 0.5 * ((a * c - a * p * h + r * g * h)
                                  + (vp * a + r * h * g))
    mean[3] = wrap_angle(mean[3])
    return TrackState(state.track_id, mean, new_var, new_cross,
                      hits=state.hits + 1, consecutive_misses=0,
                      last_score=detection.score)


def solve_assignment(scores: np.ndarray,
                     eligible: np.ndarray) -> list[tuple[int, int]]:
    """Gated assignment maximizing (match count, total score), in that order.

    Only pairs marked in the boolean mask `eligible` (same shape as
    `scores`) are matched; callers gate with `x >= threshold - MATCH_EPS`.
    The mask may come from another matrix than the score: HOTA gates on raw
    similarity but maximizes association-weighted similarity. The
    count-first objective is encoded by offsetting every eligible score
    with a constant larger than any achievable score sum, so the Hungarian
    solver cannot trade a match away for score.
    """
    if not eligible.any():
        return []
    base = 1.0 + float(scores[eligible].sum())
    weights = np.where(eligible, base + scores, 0.0)
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if eligible[r, c]]


def associate(tracks: list[TrackState], detections: list[Detection],
              config: TrackerConfig):
    """Split (tracks × detections) into matches and leftovers, scored by
    `pair_similarities`."""
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    scores = np.array(pair_similarities(
        [t.box() for t in tracks], [d.box for d in detections],
        config.association_metric)).reshape(len(tracks), len(detections))
    pairs = solve_assignment(scores,
                             scores >= config.gate_iou_min - MATCH_EPS)
    matched_t = {i for i, _ in pairs}
    matched_d = {j for _, j in pairs}
    unmatched_t = [i for i in range(len(tracks)) if i not in matched_t]
    unmatched_d = [j for j in range(len(detections)) if j not in matched_d]
    return pairs, unmatched_t, unmatched_d


def _birth(track_id: int, detection: Detection,
           config: TrackerConfig) -> TrackState:
    b = detection.box
    return TrackState(
        track_id=track_id,
        mean=[b.cx, b.cy, b.cz, b.yaw, b.length, b.width, b.height,
              0.0, 0.0, 0.0],
        var=[config.birth_position_var] * 3 + [config.birth_yaw_var]
        + [config.birth_extent_var] * 3 + [config.birth_velocity_var] * 3,
        cross=[0.0] * 3, last_score=detection.score)


class Tracker:
    """Sequential per-sequence tracker. Feed every frame index exactly once,
    in order; pass detections=None for dropped frames."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._tracks: list[TrackState] = []
        self._next_id = 1
        self._last_frame: int | None = None

    def live_tracks(self) -> list[TrackState]:
        """Current track states; callers must treat these as read-only."""
        return list(self._tracks)

    def step(self, frame_index: int,
             detections: list[Detection] | None) -> FrameOutput:
        # Each step predicts one cycle ahead, so a skipped index would
        # extrapolate one cycle where it needs several.
        if self._last_frame is not None and frame_index != self._last_frame + 1:
            raise ValueError(
                f"frame indices must be consecutive "
                f"(got {frame_index} after {self._last_frame})")
        self._last_frame = frame_index
        cfg = self.config

        self._tracks = [predict(t, cfg.cycle_time, cfg) for t in self._tracks]
        updated_ids: set[int] = set()

        if detections is not None:
            pairs, unmatched_t, unmatched_d = associate(
                self._tracks, detections, cfg)
            for ti, dj in pairs:
                self._tracks[ti] = update(self._tracks[ti], detections[dj], cfg)
                updated_ids.add(self._tracks[ti].track_id)
            dead = set()
            for ti in unmatched_t:
                trk = self._tracks[ti]
                trk.consecutive_misses += 1
                if (trk.hits < cfg.min_hits_to_confirm
                        or trk.consecutive_misses > cfg.max_misses_to_delete):
                    dead.add(ti)
            for dj in unmatched_d:
                self._tracks.append(_birth(self._next_id, detections[dj], cfg))
                # A birth is detection-backed, not extrapolated.
                updated_ids.add(self._next_id)
                self._next_id += 1
            self._tracks = [t for i, t in enumerate(self._tracks)
                            if i not in dead]

        entries = tuple(
            TrackEntry(track_id=t.track_id, box=t.box(), score=t.last_score,
                       provenance=(PROVENANCE_UPDATED if t.track_id in updated_ids
                                   else PROVENANCE_PREDICTED))
            for t in self._tracks if t.hits >= cfg.min_hits_to_confirm
        )
        return FrameOutput(frame_index=frame_index, entries=entries)
