"""Drop-aware tracking by detection.

A constant-velocity Kalman filter carries each track; frames without a
detector pass still produce output by extrapolating every live track one
cycle. Lifecycle counters (hits, consecutive misses) move only on frames
the detector actually processed, so one miss budget works across drop
patterns. A track is output once it has `min_hits_to_confirm` hits; an
unmatched track dies while it has fewer, or once its consecutive misses
exceed `max_misses_to_delete`.

State layout (10,): cx, cy, cz, yaw, length, width, height, vx, vy, vz.
The first 7 components are observed; yaw and extents follow a random walk.

The observed 7×7 block of every covariance is diagonal: birth, process and
measurement noise are diagonal, and each velocity couples only to its own
position. So the innovation covariance S is diagonal too, and `update`
scales columns of the covariance instead of inverting S. `update` rejects
a state that breaks this invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import (MIN_EXTENT, SIMILARITY_FNS, Detection, OrientedBox,
                       overlap_bounds, wrap_angle)

N_STATE = 10
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
        if self.cycle_time <= 0.0:
            raise ValueError("cycle_time must be positive")
        if self.min_hits_to_confirm < 1 or self.max_misses_to_delete < 1:
            raise ValueError("lifecycle thresholds must be >= 1")
        if not 0.0 <= self.gate_iou_min <= 1.0:
            raise ValueError("gate_iou_min must lie in [0, 1]")
        if self.association_metric not in SIMILARITY_FNS:
            raise ValueError(f"association_metric must be one of "
                             f"{sorted(SIMILARITY_FNS)}")
        if self.process_noise < 0.0 or self.measurement_noise < 0.0:
            raise ValueError("noise scales must be nonnegative")


@dataclass
class TrackState:
    track_id: int
    mean: np.ndarray
    covariance: np.ndarray
    hits: int = 1
    consecutive_misses: int = 0
    last_score: float = 0.0

    def box(self) -> OrientedBox:
        m = self.mean
        return OrientedBox(
            cx=float(m[0]), cy=float(m[1]), cz=float(m[2]),
            length=max(MIN_EXTENT, float(m[4])),
            width=max(MIN_EXTENT, float(m[5])),
            height=max(MIN_EXTENT, float(m[6])),
            yaw=float(m[3]),
        )


@dataclass(frozen=True)
class TrackEntry:
    track_id: int
    box: OrientedBox
    score: float
    provenance: str


@dataclass(frozen=True)
class FrameOutput:
    frame_index: int
    entries: tuple[TrackEntry, ...]


def _transition(dt: float) -> np.ndarray:
    f = np.eye(N_STATE)
    f[0, 7] = f[1, 8] = f[2, 9] = dt
    return f


_OFF_DIAGONAL = ~np.eye(N_OBSERVED, dtype=bool)


def predict(state: TrackState, dt: float, config: TrackerConfig) -> TrackState:
    """Constant-velocity extrapolation; lifecycle fields untouched."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    f = _transition(dt)
    mean = f @ state.mean
    mean[3] = wrap_angle(mean[3])
    cov = f @ state.covariance @ f.T + dt * config.process_noise * np.eye(N_STATE)
    cov = 0.5 * (cov + cov.T)
    return replace(state, mean=mean, covariance=cov)


def update(state: TrackState, detection: Detection,
           config: TrackerConfig) -> TrackState:
    """Kalman measurement update on the 7 observed components."""
    p = state.covariance
    if p[:N_OBSERVED, :N_OBSERVED][_OFF_DIAGONAL].any():
        raise ValueError("observed covariance block must be diagonal")
    b = detection.box
    z = np.array([b.cx, b.cy, b.cz, b.yaw, b.length, b.width, b.height])
    innovation = z - state.mean[:N_OBSERVED]
    innovation[3] = wrap_angle(innovation[3])

    # S is diagonal, so each gain column is that column of P over s_i. An
    # axis with s_i at or below the pseudo-inverse cutoff 1e-12 * max(s) is
    # already exact and gets no gain; so does every axis once S has
    # collapsed to rounding residue. Multiplying by the reciprocal, not
    # dividing, matches an LU solve bit for bit.
    r = config.measurement_noise
    s = p.diagonal()[:N_OBSERVED] + r
    inv_s = np.zeros(N_OBSERVED)
    if s.max() >= 1e-12:
        kept = s > 1e-12 * s.max()
        inv_s[kept] = 1.0 / s[kept]
    gain = p[:, :N_OBSERVED] * inv_s

    mean = state.mean + gain @ innovation
    mean[3] = wrap_angle(mean[3])
    ikh = np.eye(N_STATE)
    ikh[:, :N_OBSERVED] -= gain
    cov = ikh @ p @ ikh.T + (r * gain) @ gain.T
    cov = 0.5 * (cov + cov.T)
    return replace(state, mean=mean, covariance=cov, hits=state.hits + 1,
                   consecutive_misses=0, last_score=detection.score)


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
    """Split (tracks × detections) into matches and leftovers.

    A bounds prefilter rejects only pairs whose exact similarity is 0;
    every other pair is scored by `SIMILARITY_FNS`. It applies the exact
    functions' own tests, in the same expressions, to `overlap_bounds`
    taken once per box, so its decisions equal theirs.
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    metric = config.association_metric
    similarity = SIMILARITY_FNS[metric]
    det_bounds = [overlap_bounds(det.box, metric) for det in detections]
    scores = np.zeros((len(tracks), len(detections)))
    for i, trk in enumerate(tracks):
        tb = trk.box()
        ax, ay, ar, alo, ahi = overlap_bounds(tb, metric)
        for j, (bx, by, br, blo, bhi) in enumerate(det_bounds):
            if math.hypot(ax - bx, ay - by) > ar + br \
                    or min(ahi, bhi) - max(alo, blo) <= 0.0:
                continue
            scores[i, j] = similarity(tb, detections[j].box)
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
    mean = np.zeros(N_STATE)
    mean[:N_OBSERVED] = [b.cx, b.cy, b.cz, b.yaw, b.length, b.width, b.height]
    cov = np.diag([config.birth_position_var] * 3
                  + [config.birth_yaw_var]
                  + [config.birth_extent_var] * 3
                  + [config.birth_velocity_var] * 3)
    return TrackState(track_id=track_id, mean=mean, covariance=cov,
                      last_score=detection.score)


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
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"frame indices must be strictly increasing "
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
