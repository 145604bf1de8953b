"""Drop-aware tracking by detection.

A constant-velocity Kalman filter carries each track; frames without a
detector pass still produce output by extrapolating every live track one
cycle. Lifecycle counters (hits, consecutive misses) move only on frames
the detector actually processed, so one miss budget works across drop
patterns.

State layout (10,): cx, cy, cz, yaw, length, width, height, vx, vy, vz.
The first 7 components are observed; yaw and extents follow a random walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import (MIN_EXTENT, SIMILARITY_FNS, Detection, OrientedBox,
                       wrap_angle)

N_STATE = 10
N_OBSERVED = 7

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
DEAD = "dead"

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
    status: str = TENTATIVE
    last_score: float = 0.0

    def box(self) -> OrientedBox:
        m = self.mean
        return OrientedBox(
            cx=float(m[0]), cy=float(m[1]), cz=float(m[2]),
            length=max(MIN_EXTENT, float(m[4])),
            width=max(MIN_EXTENT, float(m[5])),
            height=max(MIN_EXTENT, float(m[6])),
            yaw=wrap_angle(float(m[3])),
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


_H = np.zeros((N_OBSERVED, N_STATE))
_H[:N_OBSERVED, :N_OBSERVED] = np.eye(N_OBSERVED)


def predict(state: TrackState, dt: float, config: TrackerConfig) -> TrackState:
    """Constant-velocity extrapolation; lifecycle fields untouched."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    f = _transition(dt)
    mean = f @ state.mean
    mean[3] = wrap_angle(mean[3])
    cov = f @ state.covariance @ f.T + dt * config.process_noise * np.eye(N_STATE)
    cov = 0.5 * (cov + cov.T)
    return TrackState(track_id=state.track_id, mean=mean, covariance=cov,
                      hits=state.hits, consecutive_misses=state.consecutive_misses,
                      status=state.status, last_score=state.last_score)


def _kalman_gain(cov: np.ndarray, innovation_cov: np.ndarray) -> np.ndarray:
    # solve handles the generic well-conditioned case; the pinv fallback
    # covers exactly-singular S, which occurs legitimately once a
    # zero-noise filter has collapsed its covariance.
    pht = cov @ _H.T
    # A collapsed S (zero up to rounding residue) means the observed block
    # is already exact; the exact-arithmetic gain limit is zero. Inverting
    # the residue instead would blow up on denormal singular values.
    if float(np.abs(innovation_cov).max()) < 1e-12:
        return np.zeros_like(pht)
    try:
        gain = np.linalg.solve(innovation_cov.T, pht.T).T
        if not np.all(np.isfinite(gain)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        gain = pht @ np.linalg.pinv(innovation_cov, rcond=1e-12)
    return gain


def update(state: TrackState, detection: Detection,
           config: TrackerConfig) -> TrackState:
    """Kalman measurement update on the 7 observed components."""
    if state.status == DEAD:
        raise ValueError("cannot update a dead track")
    b = detection.box
    z = np.array([b.cx, b.cy, b.cz, b.yaw, b.length, b.width, b.height])
    innovation = z - _H @ state.mean
    innovation[3] = wrap_angle(innovation[3])

    r = config.measurement_noise * np.eye(N_OBSERVED)
    s = _H @ state.covariance @ _H.T + r
    gain = _kalman_gain(state.covariance, s)

    mean = state.mean + gain @ innovation
    mean[3] = wrap_angle(mean[3])
    ikh = np.eye(N_STATE) - gain @ _H
    cov = ikh @ state.covariance @ ikh.T + gain @ r @ gain.T
    cov = 0.5 * (cov + cov.T)
    return TrackState(track_id=state.track_id, mean=mean, covariance=cov,
                      hits=state.hits + 1, consecutive_misses=0,
                      status=state.status, last_score=detection.score)


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
    """Split (tracks × detections) into matches and leftovers."""
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    similarity = SIMILARITY_FNS[config.association_metric]
    scores = np.zeros((len(tracks), len(detections)))
    for i, trk in enumerate(tracks):
        tb = trk.box()
        for j, det in enumerate(detections):
            scores[i, j] = similarity(tb, det.box)
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
    state = TrackState(track_id=track_id, mean=mean, covariance=cov,
                       hits=1, consecutive_misses=0, status=TENTATIVE,
                       last_score=detection.score)
    if state.hits >= config.min_hits_to_confirm:
        state.status = CONFIRMED
    return state


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
            for ti in unmatched_t:
                trk = self._tracks[ti]
                trk.consecutive_misses += 1
                if trk.status == TENTATIVE:
                    trk.status = DEAD
                elif trk.consecutive_misses > cfg.max_misses_to_delete:
                    trk.status = DEAD
            for dj in unmatched_d:
                self._tracks.append(_birth(self._next_id, detections[dj], cfg))
                # A birth is detection-backed, not extrapolated.
                updated_ids.add(self._next_id)
                self._next_id += 1
            for trk in self._tracks:
                if trk.status == TENTATIVE and trk.hits >= cfg.min_hits_to_confirm:
                    trk.status = CONFIRMED
            self._tracks = [t for t in self._tracks if t.status != DEAD]

        entries = tuple(
            TrackEntry(track_id=t.track_id, box=t.box(), score=t.last_score,
                       provenance=(PROVENANCE_UPDATED if t.track_id in updated_ids
                                   else PROVENANCE_PREDICTED))
            for t in self._tracks if t.status == CONFIRMED
        )
        return FrameOutput(frame_index=frame_index, entries=entries)
