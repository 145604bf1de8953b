"""Drop-aware tracking by detection.

A constant-velocity Kalman filter carries each track in one `TrackState`,
which `predict` and `update` change in place from birth to deletion.
Frames without a detector pass still produce output by extrapolating
every live track one `FRAME_PERIOD`. Lifecycle counters (hits,
consecutive misses) move only on frames the detector actually processed,
so one miss budget works across drop patterns. A track is output once it
has `min_hits_to_confirm` hits; an unmatched track dies while it has
fewer, or once its consecutive misses exceed `max_misses_to_delete`. An
output entry is `updated` on a processed frame where its track has no
miss, meaning it was matched or born there, and `predicted` otherwise.

State: `mean` is 10 floats, cx, cy, cz, yaw, length, width, height, vx,
vy, vz; the first 7 are observed, and yaw and extents follow a random
walk. Birth noise is the constant `BIRTH_VAR`, the same for every run.
Birth, process and measurement noise are diagonal and each velocity
couples only to its own position, so the covariance is one (position,
velocity) 2×2 block per axis x, y, z plus a variance for yaw and each
extent: `var` holds the 10 diagonal entries, `cross` the 3 couplings. The
filter runs per axis on these plain floats with no matrix library, and
the innovation covariance S is diagonal, so `update` inverts no matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import (MIN_EXTENT, Detection, OrientedBox, _slot_setters,
                       candidate_pairs, iou_3d, iou_3d_at_least, wrap_angle)
from .schedule import FRAME_PERIOD

N_OBSERVED = 7

PROVENANCE_UPDATED = "updated"
PROVENANCE_PREDICTED = "predicted"

# The birth covariance's diagonal, in `mean`'s order: the pose and extent
# entries reflect single-shot detector trust; the velocity entries are
# inflated because birth observes none.
BIRTH_VAR = (1.0, 1.0, 1.0, 0.5, 0.25, 0.25, 0.25, 100.0, 100.0, 100.0)

# Slack on every score-vs-threshold gate, here and in the metrics: a pair
# whose score equals the threshold up to rounding is eligible.
MATCH_EPS = 1e-12

# The 3D IoU a (track, detection) pair must reach to be matched, read by
# `associate` at call time.
GATE_IOU_MIN = 0.1


@dataclass(frozen=True)
class TrackerConfig:
    min_hits_to_confirm: int = 1
    max_misses_to_delete: int = 2
    process_noise: float = 1e-2
    measurement_noise: float = 1e-2

    def __post_init__(self):
        # Every check is written so that NaN fails it.
        if not self.min_hits_to_confirm >= 1 <= self.max_misses_to_delete:
            raise ValueError("lifecycle thresholds must be >= 1")
        for name in ("process_noise", "measurement_noise"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


@dataclass(slots=True)
class TrackState:
    track_id: int
    mean: list[float]
    var: list[float]
    cross: list[float]
    hits: int = 1
    consecutive_misses: int = 0
    last_score: float = 0.0

    def box(self) -> OrientedBox:
        m, lo = self.mean, MIN_EXTENT
        return OrientedBox(m[0], m[1], m[2], m[4] if m[4] > lo else lo,
                           m[5] if m[5] > lo else lo,
                           m[6] if m[6] > lo else lo, m[3])


@dataclass(frozen=True, slots=True, init=False)
class TrackEntry:
    track_id: int
    box: OrientedBox
    score: float
    provenance: str

    def __init__(self, track_id, box, score, provenance):
        _set_entry_track_id(self, track_id)
        _set_entry_box(self, box)
        _set_entry_score(self, score)
        _set_entry_provenance(self, provenance)


(_set_entry_track_id, _set_entry_box, _set_entry_score,
 _set_entry_provenance) = _slot_setters(TrackEntry)


@dataclass(frozen=True, slots=True)
class FrameOutput:
    """One frame's output; a sequence's outputs are a list in which output
    i is frame i."""
    entries: tuple[TrackEntry, ...]


def predict(state: TrackState, config: TrackerConfig) -> None:
    """Extrapolate `state` in place one frame, dt = `FRAME_PERIOD`: F P Fᵀ
    + dt q I per axis, F = [[1, dt], [0, 1]]; yaw's mean and counters kept."""
    dt = FRAME_PERIOD
    m, var, cross = state.mean, state.var, state.cross
    dq = dt * config.process_noise
    for k in range(3):
        c, v = cross[k], var[k + N_OBSERVED]
        m[k] += dt * m[k + N_OBSERVED]
        cross[k] = nc = c + dt * v
        var[k] = var[k] + dt * c + nc * dt + dq
    for k in range(3, 10):
        var[k] += dq


def update(state: TrackState, detection: Detection,
           config: TrackerConfig) -> None:
    """Kalman measurement update of `state` in place on the 7 observed
    components; counts the hit and keeps the detection's score."""
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
    for i, e in enumerate(innovation):
        if s[i] <= cutoff:
            continue
        inv, p = 1.0 / s[i], var[i]
        g = p * inv
        a = 1.0 - g
        m[i] += g * e
        # Joseph form entry by entry, terms in the matrix products' order:
        # I - K H = [[a, 0], [-h, 1]] and K = [g, h] on a (position,
        # velocity) block; the two cross entries are averaged (symmetrised).
        var[i] = a * p * a + r * g * g
        if i < 3:
            c, v, h = cross[i], var[i + N_OBSERVED], cross[i] * inv
            vp = c - h * p
            m[i + N_OBSERVED] += h * e
            var[i + N_OBSERVED] = v - h * c - vp * h + r * h * h
            cross[i] = 0.5 * ((a * c - a * p * h + r * g * h)
                              + (vp * a + r * h * g))
    m[3] = wrap_angle(m[3])
    state.hits += 1
    state.consecutive_misses = 0
    state.last_score = detection.score


def _max_sum_assignment(weights: list[list[float]]) -> list[tuple[int, int]]:
    """Pairs of a maximum-weight assignment of a nonempty matrix of finite
    weights: scipy's `linear_sum_assignment(weights, maximize=True)`, pair
    for pair.

    A port of scipy's solver, Crouse's shortest augmenting path (D. F.
    Crouse, "On implementing 2D rectangular assignment algorithms", IEEE
    TAES 2016), in its loop and arithmetic order: the weights are negated
    and minimised, a tall matrix is transposed and its pairs sorted back by
    row, and each row's search fills `remaining` in reverse and, among
    columns tied at the lowest path cost, takes a free one.
    """
    transpose = len(weights[0]) < len(weights)
    cost = [[-w for w in row]
            for row in (zip(*weights) if transpose else weights)]
    n_rows, n_cols = len(cost), len(cost[0])
    u, v = [0.0] * n_rows, [0.0] * n_cols
    path, col4row, row4col = [-1] * n_cols, [-1] * n_rows, [-1] * n_cols
    for cur in range(n_rows):
        remaining = list(range(n_cols - 1, -1, -1))
        shortest = [math.inf] * n_cols
        seen_cols = []
        i, sink, min_val = cur, -1, 0.0
        while sink == -1:
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest
                                            and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # Dual update: every row the search passed is matched to one of its
        # columns, all but the sink.
        u[cur] += min_val
        for j in seen_cols:
            if j != sink:
                u[row4col[j]] += min_val - shortest[j]
            v[j] -= min_val - shortest[j]
        i, j = -1, sink
        while i != cur:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    if transpose:
        return sorted((i, j) for j, i in enumerate(col4row))
    return list(enumerate(col4row))


def _sequential_sum(values) -> float:
    """Left to right from 0.0. Not sum(): from Python 3.12 it compensates
    floats."""
    total = 0.0
    for x in values:
        total += x
    return total


def _pairwise_sum(values: list[float]) -> float:
    """numpy's `pairwise_sum` of float64 values, in its order: below 8
    values left to right; up to its 128-value block, 8 running sums over
    every eighth value, added as a tree, then the leftover values; above,
    the halves, split at a multiple of 8, each summed so and added."""
    n = len(values)
    if n < 8:
        return _sequential_sum(values)
    if n <= 128:
        end = n - n % 8
        r = [_sequential_sum(values[k:end:8]) for k in range(8)]
        total = (((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7])))
        for x in values[end:]:
            total += x
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def conflict_free(pairs) -> bool:
    """True when no row and no column repeats among `pairs`, each a
    (row, column, ...) tuple."""
    return (len({p[0] for p in pairs}) == len(pairs)
            == len({p[1] for p in pairs}))


def gated_assignment(shape: tuple[int, int],
                     pairs: list[tuple[int, int, float]]
                     ) -> list[tuple[int, int]]:
    """Pairs of a gated assignment maximizing (match count, total score), in
    that order, on a `shape` matrix whose eligible entries are `pairs`,
    (row, column, score) triples in row-major order. Callers gate with `x
    >= threshold - MATCH_EPS`; HOTA gates on raw similarity but scores
    association-weighted similarity.

    Conflict-free pairs all fit in one matching, the count-first optimum,
    and are returned as they come, rows ascending. Otherwise
    `_max_sum_assignment` weighs each pair base + score, the base (1 plus
    the scores' sum, in numpy's order) outweighing any score sum, and
    every other entry 0.0; its eligible pairs are scipy's, rows ascending,
    and a constant matrix gives the identity.
    """
    if conflict_free(pairs):
        return [(i, j) for i, j, _ in pairs]
    base = 1.0 + _pairwise_sum([x for _, _, x in pairs])
    weights = [[0.0] * shape[1] for _ in range(shape[0])]
    for i, j, x in pairs:
        weights[i][j] = base + x
    eligible = {(i, j) for i, j, _ in pairs}
    return [p for p in _max_sum_assignment(weights) if p in eligible]


def associate(tracks: list[TrackState], detections: list[Detection]):
    """Split (tracks × detections) into matches and leftovers.

    A pair of `candidate_pairs` is eligible when `iou_3d_at_least`
    certifies it or its exact `iou_3d` is above 0 and passes the gate
    `GATE_IOU_MIN`: a track and a detection that do not overlap are never
    matched, whatever the gate. Scores are read only on a frame whose
    eligible pairs share a row or a column; only then are the certified
    pairs scored exactly, and `gated_assignment` gets every eligible
    pair's exact triple, row-major.
    A conflict-free frame matches all of its eligible pairs.
    """
    gate = GATE_IOU_MIN
    floor = gate - MATCH_EPS
    # (row, column, row box, column box, exact score or None if certified)
    eligible = []
    for i, a, j, b in candidate_pairs([t.box() for t in tracks],
                                      [d.box for d in detections]):
        if iou_3d_at_least(a, b, gate):
            eligible.append((i, j, a, b, None))
        elif (x := iou_3d(a, b)) > 0.0 and x >= floor:
            eligible.append((i, j, a, b, x))
    if conflict_free(eligible):
        pairs = [(i, j) for i, j, _, _, _ in eligible]
    else:
        pairs = gated_assignment(
            (len(tracks), len(detections)),
            [(i, j, iou_3d(a, b) if x is None else x)
             for i, j, a, b, x in eligible])
    matched_t = {i for i, _ in pairs}
    matched_d = {j for _, j in pairs}
    unmatched_t = [i for i in range(len(tracks)) if i not in matched_t]
    unmatched_d = [j for j in range(len(detections)) if j not in matched_d]
    return pairs, unmatched_t, unmatched_d


def _birth(track_id: int, detection: Detection) -> TrackState:
    b = detection.box
    return TrackState(
        track_id=track_id,
        mean=[b.cx, b.cy, b.cz, b.yaw, b.length, b.width, b.height,
              0.0, 0.0, 0.0],
        var=list(BIRTH_VAR), cross=[0.0] * 3, last_score=detection.score)


class Tracker:
    """Sequential per-sequence tracker. Each `step` is the next frame,
    from frame 0, and predicts one cycle ahead; pass detections=None for
    dropped frames."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._tracks: list[TrackState] = []
        self._next_id = 1

    def live_tracks(self) -> list[TrackState]:
        """Live track states; the next `step` changes them, so copy to keep."""
        return list(self._tracks)

    def step(self, detections: list[Detection] | None) -> FrameOutput:
        cfg, tracks = self.config, self._tracks
        for t in tracks:
            predict(t, cfg)
        if detections is not None:
            pairs, unmatched_t, unmatched_d = associate(tracks, detections)
            for ti, dj in pairs:
                update(tracks[ti], detections[dj], cfg)
            for ti in unmatched_t:
                tracks[ti].consecutive_misses += 1
            for dj in unmatched_d:
                tracks.append(_birth(self._next_id, detections[dj]))
                self._next_id += 1
            # Matched and born tracks are the ones with no miss.
            self._tracks = [
                t for t in tracks if t.consecutive_misses == 0
                or (t.hits >= cfg.min_hits_to_confirm
                    and t.consecutive_misses <= cfg.max_misses_to_delete)]

        entries = tuple(
            TrackEntry(t.track_id, t.box(), t.last_score,
                       PROVENANCE_UPDATED if detections is not None
                       and t.consecutive_misses == 0
                       else PROVENANCE_PREDICTED)
            for t in self._tracks if t.hits >= cfg.min_hits_to_confirm
        )
        return FrameOutput(entries)
