"""Independent reference implementations used only by tests.

Each oracle recomputes a quantity the library computes, by a different
route: Monte-Carlo sampling instead of polygon clipping, permutation
enumeration instead of the Hungarian solver, per-tick simulation instead
of the closed-form draw formula, full matrix products and a general
linear solve instead of the tracker's per-axis Kalman filter, a
per-pair loop instead of the bounds prefilter, a stored track status
instead of the hit count, a per-field `isfinite` walk instead of the
box's one chained comparison, and list-of-vertex clipping with sixteen
corner products instead of the clip on unpacked locals. The
tracking-metric oracles share only the metric DEFINITION with the
library (alpha grid, epsilon slack, count-first matching objective,
canonical accumulation order); all optimization is done by brute force
here.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from droptrack import tracker
from droptrack.energy import EnergyParams
from droptrack.geometry import (_AREA_EPS, MIN_EXTENT, Detection,
                                LabeledObject, OrientedBox, iou_3d,
                                wrap_angle)
from droptrack.metrics import (ALPHA_GRID, MATCH_EPS, FrameTable, HotaResult,
                               NoGroundTruthError)
from droptrack.schedule import FRAME_PERIOD
from droptrack.tracker import (PROVENANCE_PREDICTED, PROVENANCE_UPDATED,
                               FrameOutput, Tracker, TrackEntry, TrackState,
                               _birth, associate, gated_assignment, predict,
                               update)

_DENOM_EPS = float(np.finfo(float).eps)


# --- geometry: Monte-Carlo footprint IoU ----------------------------------

def _points_in_footprint(box: OrientedBox, pts: np.ndarray) -> np.ndarray:
    dx = pts[:, 0] - box.cx
    dy = pts[:, 1] - box.cy
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local_x = c * dx + s * dy
    local_y = -s * dx + c * dy
    return (np.abs(local_x) <= box.length / 2.0) \
        & (np.abs(local_y) <= box.width / 2.0)


# Points per draw. At 2**12 each array of a chunk (at most 64 KiB) stays
# below glibc's default 128 KiB mmap threshold, so no chunk maps fresh
# pages, and it fits in L2 cache.
_MC_CHUNK = 2**12


def mc_bev_iou(a: OrientedBox, b: OrientedBox, n_samples: int = 10**6,
               seed: int = 0) -> float:
    """Footprint IoU by uniform point sampling over the joint bounding box."""
    def corners(box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        hx, hy = box.length / 2.0, box.width / 2.0
        pts = np.array([[hx, hy], [hx, -hy], [-hx, -hy], [-hx, hy]])
        rot = np.array([[c, -s], [s, c]])
        return pts @ rot.T + [box.cx, box.cy]

    all_pts = np.vstack([corners(a), corners(b)])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    rng = np.random.default_rng(seed)
    inter = union = 0
    # Chunks drawn one after another from the one generator are the same
    # points as a single draw of n_samples.
    for start in range(0, n_samples, _MC_CHUNK):
        pts = rng.uniform(lo, hi, size=(min(_MC_CHUNK, n_samples - start), 2))
        in_a = _points_in_footprint(a, pts)
        in_b = _points_in_footprint(b, pts)
        inter += np.count_nonzero(in_a & in_b)
        union += np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return inter / union


# --- geometry: per-field box check and list-based clip --------------------

@dataclass(frozen=True)
class ReferenceBox:
    """OrientedBox with its field check as a per-field `math.isfinite` walk,
    run after the fields are set."""

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


def reference_footprint(box) -> list[tuple[float, float]]:
    """The four corners, each from its own rotation of (±dx, ±dy)."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx, dy = box.length / 2.0, box.width / 2.0
    return [(box.cx + x * c - y * s, box.cy + x * s + y * c)
            for x, y in ((dx, dy), (-dx, dy), (-dx, -dy), (dx, -dy))]


def reference_clip_polygon(subject: list, clipper: list) -> list:
    """Sutherland-Hodgman clip of `subject` against convex `clipper`, both
    counter-clockwise lists of (x, y) vertices."""
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


def reference_polygon_area(poly: list[tuple[float, float]]) -> float:
    """Shoelace area, its terms added left to right from 0.0 (what `sum()`
    did before Python 3.12 made it compensated)."""
    if len(poly) < 3:
        return 0.0
    total = 0.0
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        total += x0 * y1 - y0 * x1
    return 0.5 * abs(total)


def reference_intersection_area(a, b) -> float:
    """`footprint_intersection_area` through the three helpers above."""
    if math.hypot(a.cx - b.cx, a.cy - b.cy) > \
            a.footprint_radius + b.footprint_radius:
        return 0.0
    clipped = reference_clip_polygon(reference_footprint(a),
                                     reference_footprint(b))
    area = reference_polygon_area(clipped)
    return area if area > _AREA_EPS else 0.0


# --- assignment: exhaustive permutation search -----------------------------

def enumerate_assignment(scores: np.ndarray, gate: float) -> set[tuple[int, int]]:
    """Best gated matching by brute force: most matches first, then the
    largest score sum. Returns the matched (row, col) pairs."""
    scores = np.asarray(scores, dtype=float)
    n, m = scores.shape
    size = max(n, m)
    best_count = -1
    best_total = -math.inf
    best_pairs: set[tuple[int, int]] = set()
    for perm in itertools.permutations(range(size)):
        count = 0
        total = 0.0
        pairs = []
        for i in range(n):
            j = perm[i]
            if j < m and scores[i, j] >= gate - MATCH_EPS:
                count += 1
                total += scores[i, j]
                pairs.append((i, j))
        if count > best_count or (count == best_count and total > best_total):
            best_count = count
            best_total = total
            best_pairs = set(pairs)
    return best_pairs


def _best_weighted_matching(eligible: list[list[bool]],
                            weight: list[list[float]]):
    """All maximal-or-smaller matchings by recursion; lexicographic
    (count, weight-sum) maximum. Rows/cols are local indices."""
    n = len(eligible)
    m = len(eligible[0]) if n else 0
    best = (-1, -math.inf, [])

    def recurse(row, used_cols, count, total, pairs):
        nonlocal best
        if row == n:
            if count > best[0] or (count == best[0] and total > best[1]):
                best = (count, total, list(pairs))
            return
        recurse(row + 1, used_cols, count, total, pairs)
        for col in range(m):
            if col in used_cols or not eligible[row][col]:
                continue
            pairs.append((row, col))
            recurse(row + 1, used_cols | {col}, count + 1,
                    total + weight[row][col], pairs)
            pairs.pop()

    recurse(0, frozenset(), 0, 0.0, [])
    return best[2]


# --- tracking-metric oracles ----------------------------------------------

def _group_frames(labels, outputs):
    """(frame, sorted gt ids, sorted pred ids, sim rows) built directly
    from the raw objects; independent of the library's table builder."""
    gt_by_frame = defaultdict(dict)
    for lab in labels:
        gt_by_frame[lab.frame_index][lab.track_id] = lab.box
    frames = []
    for f, out in enumerate(outputs):
        preds = {e.track_id: e.box for e in out.entries}
        gts = gt_by_frame.get(f, {})
        gt_ids = sorted(gts)
        pred_ids = sorted(preds)
        sim = [[iou_3d(gts[gi], preds[pj]) for pj in pred_ids]
               for gi in gt_ids]
        frames.append((f, gt_ids, pred_ids, sim))
    return frames


def oracle_hota(labels, outputs):
    """Two-pass HOTA with exhaustive per-frame matchings.

    Returns (hota, det_a, ass_a, per_alpha) on the 0..100 scale, with the
    same final arithmetic as the library so exact comparison is fair.
    """
    frames = _group_frames(labels, outputs)

    gt_count: dict[int, int] = defaultdict(int)
    pred_count: dict[int, int] = defaultdict(int)
    potential: dict[tuple[int, int], float] = defaultdict(float)
    for _, gt_ids, pred_ids, sim in frames:
        for gi in gt_ids:
            gt_count[gi] += 1
        for pj in pred_ids:
            pred_count[pj] += 1
        if not gt_ids or not pred_ids:
            continue
        row_sums = [np.sum(np.asarray(r)) for r in sim]
        col_sums = list(np.sum(np.asarray(sim), axis=0))
        for i, gi in enumerate(gt_ids):
            for j, pj in enumerate(pred_ids):
                denom = row_sums[i] + col_sums[j] - sim[i][j]
                if denom > _DENOM_EPS:
                    potential[(gi, pj)] += sim[i][j] / denom

    if sum(gt_count.values()) == 0:
        raise ValueError("no ground truth")

    align = {}
    for (gi, pj), pot in potential.items():
        align[(gi, pj)] = pot / (gt_count[gi] + pred_count[pj] - pot)

    per_alpha = []
    for alpha in ALPHA_GRID:
        tp = fn = fp = 0
        matches: dict[tuple[int, int], int] = defaultdict(int)
        for _, gt_ids, pred_ids, sim in frames:
            g, p = len(gt_ids), len(pred_ids)
            if g == 0 or p == 0:
                fn += g
                fp += p
                continue
            eligible = [[sim[i][j] >= alpha - MATCH_EPS for j in range(p)]
                        for i in range(g)]
            weight = [[align.get((gt_ids[i], pred_ids[j]), 0.0) * sim[i][j]
                       for j in range(p)] for i in range(g)]
            pairs = _best_weighted_matching(eligible, weight)
            tp += len(pairs)
            fn += g - len(pairs)
            fp += p - len(pairs)
            for i, j in pairs:
                matches[(gt_ids[i], pred_ids[j])] += 1

        det_a = tp / max(1, tp + fn + fp)
        ass_num = 0.0
        for key in sorted(matches):
            mc = matches[key]
            gi, pj = key
            ass_num += mc * (mc / (gt_count[gi] + pred_count[pj] - mc))
        ass_a = ass_num / max(1, tp)
        det_pct = 100.0 * det_a
        ass_pct = 100.0 * ass_a
        per_alpha.append((float(alpha), math.sqrt(det_pct * ass_pct),
                          det_pct, ass_pct))

    hota_val = float(np.mean([r[1] for r in per_alpha]))
    det_val = float(np.mean([r[2] for r in per_alpha]))
    ass_val = float(np.mean([r[3] for r in per_alpha]))
    return hota_val, det_val, ass_val, tuple(per_alpha)


def oracle_clear(labels, outputs, match_threshold=0.5):
    """CLEAR counts with carryover-then-exhaustive matching.

    Returns (mota, motp, tp, fp, fn, idsw, gt_total).
    """
    frames = _group_frames(labels, outputs)
    tp = fp = fn = idsw = 0
    gt_total = 0
    iou_sum = 0.0
    prev: dict[int, int] = {}
    last: dict[int, int] = {}
    for _, gt_ids, pred_ids, sim in frames:
        gt_total += len(gt_ids)
        gt_index = {gi: i for i, gi in enumerate(gt_ids)}
        pr_index = {pj: j for j, pj in enumerate(pred_ids)}

        pairs: dict[int, int] = {}
        used: set[int] = set()
        for gi in gt_ids:
            pj = prev.get(gi)
            if pj is None or pj not in pr_index:
                continue
            if sim[gt_index[gi]][pr_index[pj]] >= match_threshold - MATCH_EPS:
                pairs[gi] = pj
                used.add(pj)

        rem_g = [gi for gi in gt_ids if gi not in pairs]
        rem_p = [pj for pj in pred_ids if pj not in used]
        if rem_g and rem_p:
            eligible = [[sim[gt_index[gi]][pr_index[pj]]
                         >= match_threshold - MATCH_EPS for pj in rem_p]
                        for gi in rem_g]
            weight = [[sim[gt_index[gi]][pr_index[pj]] for pj in rem_p]
                      for gi in rem_g]
            for i, j in _best_weighted_matching(eligible, weight):
                pairs[rem_g[i]] = rem_p[j]

        tp += len(pairs)
        fn += len(gt_ids) - len(pairs)
        fp += len(pred_ids) - len(pairs)
        for gi in sorted(pairs):
            pj = pairs[gi]
            iou_sum += sim[gt_index[gi]][pr_index[pj]]
            if gi in last and last[gi] != pj:
                idsw += 1
            last[gi] = pj
        prev = pairs

    if gt_total == 0:
        raise ValueError("no ground truth")
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total)
    motp = 100.0 * (iou_sum / tp) if tp > 0 else 0.0
    return mota, motp, tp, fp, fn, idsw, gt_total


# --- HOTA: one assignment per frame and alpha ------------------------------

# The library's `hota_pooled` as it stood before it settled conflict-free
# frames without the solver, kept verbatim: it solves every frame at every
# alpha, so any shortcut in the library must reproduce its results bit for
# bit.
def per_alpha_hota_pooled(tables_per_seq: list[list[FrameTable]]) -> HotaResult:
    """HOTA over all sequences; ids are keyed by (sequence index, id)."""
    frames = [([(k, gi) for gi in t.gt_ids], [(k, pj) for pj in t.pred_ids],
               t.sim) for k, tables in enumerate(tables_per_seq) for t in tables]
    gt_count = Counter(g for gts, _, _ in frames for g in gts)
    pred_count = Counter(p for _, prs, _ in frames for p in prs)
    if not gt_count:
        raise NoGroundTruthError("no ground truth; HOTA undefined")

    potential: dict[tuple[tuple[int, int], tuple[int, int]], float] = {}
    tiny = float(np.finfo(float).eps)
    for gts, prs, sim in frames:
        row = sim.sum(axis=1)
        col = sim.sum(axis=0)
        for i, g in enumerate(gts):
            for j, p in enumerate(prs):
                denom = row[i] + col[j] - sim[i, j]
                if denom > tiny:
                    potential[(g, p)] = potential.get((g, p), 0.0) \
                        + sim[i, j] / denom

    # Jaccard alignment between each (gt id, pred id) pair over the whole
    # sequence, the association weight inside matching. It does not depend
    # on alpha, so each frame's weighted score matrix is built once.
    align = {(g, p): pot / (gt_count[g] + pred_count[p] - pot)
             for (g, p), pot in potential.items()}
    weighted = []
    for gts, prs, sim in frames:
        score = np.zeros(sim.shape)
        for i, g in enumerate(gts):
            for j, p in enumerate(prs):
                score[i, j] = align.get((g, p), 0.0) * sim[i, j]
        weighted.append(score)

    per_alpha = []
    for alpha in ALPHA_GRID:
        tp = fn = fp = 0
        matches: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
        for (gts, prs, sim), score in zip(frames, weighted):
            pairs = gated_assignment(sim.shape, eligible_triples(
                score, sim >= alpha - MATCH_EPS))
            tp += len(pairs)
            fn += len(gts) - len(pairs)
            fp += len(prs) - len(pairs)
            for i, j in pairs:
                matches[(gts[i], prs[j])] = matches.get((gts[i], prs[j]), 0) + 1

        det_a = tp / max(1, tp + fn + fp)
        ass_num = 0.0
        for (g, p) in sorted(matches):
            mc = matches[(g, p)]
            ass_num += mc * (mc / (gt_count[g] + pred_count[p] - mc))
        ass_a = ass_num / max(1, tp)
        det_pct = 100.0 * det_a
        ass_pct = 100.0 * ass_a
        per_alpha.append((float(alpha), math.sqrt(det_pct * ass_pct),
                          det_pct, ass_pct))

    hota_val = float(np.mean([row[1] for row in per_alpha]))
    det_val = float(np.mean([row[2] for row in per_alpha]))
    ass_val = float(np.mean([row[3] for row in per_alpha]))
    return HotaResult(hota=hota_val, det_a=det_val, ass_a=ass_val,
                      per_alpha=tuple(per_alpha))


# --- energy: 1 ms time-stepped simulation ----------------------------------

def simulate_draw_1ms(params: EnergyParams, flags: tuple[bool, ...]) -> float:
    """Average draw from a per-millisecond timeline of the run, one frame
    per processed flag.

    Parameters are assumed to sit on a whole-millisecond grid, which the
    case generator guarantees.
    """
    ti = int(round(params.inference_time * 1000))
    tc = int(round(FRAME_PERIOD * 1000))
    ticks: list[float] = []
    for processed in flags:
        if processed:
            slot = max(tc, ti)
            ticks.extend([params.active_draw] * ti)
            ticks.extend([params.idle_draw] * (slot - ti))
        else:
            ticks.extend([params.idle_draw] * tc)
    return float(np.mean(ticks))


# --- tracker: textbook Kalman measurement update --------------------------

def full_covariance(state: TrackState) -> np.ndarray:
    """The 10×10 covariance a track state's `var` and `cross` stand for."""
    cov = np.diag(state.var)
    for k, c in enumerate(state.cross):
        cov[k, k + 7] = cov[k + 7, k] = c
    return cov


def textbook_kalman_predict(mean: np.ndarray, covariance: np.ndarray,
                            dt: float, process_noise: float):
    """The constant-velocity predict written with the full transition F:
    F x, and F P Fᵀ + dt q I symmetrised; yaw (component 3) is wrapped.
    Returns (mean, covariance)."""
    f = np.eye(len(mean))
    f[0, 7] = f[1, 8] = f[2, 9] = dt
    new_mean = f @ mean
    new_mean[3] = wrap_angle(new_mean[3])
    new_cov = f @ covariance @ f.T + dt * process_noise * np.eye(len(mean))
    return new_mean, 0.5 * (new_cov + new_cov.T)


def textbook_kalman_update(mean: np.ndarray, covariance: np.ndarray,
                           z: np.ndarray, measurement_noise: float):
    """The Kalman update written with the selection matrix H and the full
    innovation covariance S = H P Hᵀ + R, for any covariance.

    The gain solves K S = P Hᵀ with np.linalg.solve. When S is numerically
    singular (a singular value at or below 1e-12 times the largest, the
    pseudo-inverse cutoff) it is P Hᵀ pinv(S, rcond=1e-12) instead: a solve
    there would divide rounding residue by rounding residue. A collapsed S
    (every entry below 1e-12) gives zero gain. The covariance update is the
    Joseph form, symmetrised; yaw (component 3) is wrapped in the
    innovation and in the posterior mean. Returns (mean, covariance).
    """
    n_obs, n_state = len(z), len(mean)
    h = np.hstack([np.eye(n_obs), np.zeros((n_obs, n_state - n_obs))])
    r = measurement_noise * np.eye(n_obs)
    s = h @ covariance @ h.T + r
    pht = covariance @ h.T
    if np.abs(s).max() < 1e-12:
        gain = np.zeros_like(pht)
    else:
        singular_values = np.linalg.svd(s, compute_uv=False)
        if singular_values[-1] > 1e-12 * singular_values[0]:
            gain = np.linalg.solve(s.T, pht.T).T
        else:
            gain = pht @ np.linalg.pinv(s, rcond=1e-12)
    innovation = z - h @ mean
    innovation[3] = wrap_angle(innovation[3])
    new_mean = mean + gain @ innovation
    new_mean[3] = wrap_angle(new_mean[3])
    ikh = np.eye(n_state) - gain @ h
    new_cov = ikh @ covariance @ ikh.T + gain @ r @ gain.T
    return new_mean, 0.5 * (new_cov + new_cov.T)


# --- random tracking instances ---------------------------------------------

def random_tracking_instance(seed: int, max_objects: int = 3,
                             max_frames: int = 6):
    """A small random (labels, outputs) pair with jittered predictions,
    dropped detections, clutter, and occasional id swaps. Box parameters
    are continuous so metric matchings have no score ties."""
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(2, max_frames + 1))
    n_objects = int(rng.integers(1, max_objects + 1))

    tracks = []
    for obj in range(n_objects):
        x0, y0 = rng.uniform(-20, 20, size=2)
        vx, vy = rng.uniform(-3, 3, size=2)
        yaw = rng.uniform(-math.pi, math.pi)
        length = rng.uniform(3.5, 5.0)
        width = rng.uniform(1.5, 2.1)
        height = rng.uniform(1.3, 1.9)
        present = rng.uniform(size=n_frames) < 0.85
        present[int(rng.integers(n_frames))] = True
        tracks.append((obj + 1, x0, y0, vx, vy, yaw, length, width, height,
                       present))

    labels = []
    for tid, x0, y0, vx, vy, yaw, length, width, height, present in tracks:
        for f in range(n_frames):
            if not present[f]:
                continue
            box = OrientedBox(cx=x0 + vx * 0.1 * f, cy=y0 + vy * 0.1 * f,
                              cz=height / 2.0, length=length, width=width,
                              height=height, yaw=yaw)
            labels.append(LabeledObject(frame_index=f, track_id=tid, box=box))

    # A per-instance id relabeling plus an optional mid-sequence swap of two
    # predicted ids exercises the association terms.
    relabel = {tid: tid + 10 for tid, *_ in tracks}
    swap_frame = int(rng.integers(1, n_frames)) if n_objects >= 2 else None
    do_swap = bool(rng.uniform() < 0.4) and swap_frame is not None

    outputs = []
    next_fp_id = 100
    for f in range(n_frames):
        entries = []
        for lab in labels:
            if lab.frame_index != f:
                continue
            if rng.uniform() < 0.15:
                continue
            b = lab.box
            jitter = rng.normal(0.0, 0.5, size=3)
            dyaw = rng.normal(0.0, 0.15)
            box = OrientedBox(cx=b.cx + jitter[0], cy=b.cy + jitter[1],
                              cz=b.cz + 0.2 * jitter[2],
                              length=max(0.5, b.length + rng.normal(0, 0.2)),
                              width=max(0.5, b.width + rng.normal(0, 0.1)),
                              height=max(0.5, b.height + rng.normal(0, 0.1)),
                              yaw=b.yaw + dyaw)
            pid = relabel[lab.track_id]
            if do_swap and f >= swap_frame:
                if lab.track_id == 1:
                    pid = relabel[2]
                elif lab.track_id == 2:
                    pid = relabel[1]
            entries.append(TrackEntry(track_id=pid, box=box,
                                      score=float(rng.uniform(0.3, 1.0)),
                                      provenance="updated"))
        for _ in range(int(rng.poisson(0.4))):
            box = OrientedBox(cx=float(rng.uniform(-25, 25)),
                              cy=float(rng.uniform(-25, 25)),
                              cz=0.8, length=float(rng.uniform(3.5, 5.0)),
                              width=float(rng.uniform(1.5, 2.1)),
                              height=float(rng.uniform(1.3, 1.9)),
                              yaw=float(rng.uniform(-math.pi, math.pi)))
            entries.append(TrackEntry(track_id=next_fp_id, box=box,
                                      score=float(rng.uniform(0.1, 0.9)),
                                      provenance="updated"))
            next_fp_id += 1
        outputs.append(FrameOutput(tuple(entries)))
    return labels, outputs


# --- pair scoring without a prefilter --------------------------------------

def reference_frame_tables(labels: list[LabeledObject],
                           outputs: list[FrameOutput]) -> list[FrameTable]:
    """Canonical per-frame tables, one per output, ids sorted, scored by
    `iou_3d` on every pair."""
    by_frame_gt: dict[int, dict[int, OrientedBox]] = {}
    for lab in labels:
        frame = by_frame_gt.setdefault(lab.frame_index, {})
        if lab.track_id in frame:
            raise ValueError(f"duplicate ground-truth id {lab.track_id} "
                             f"in frame {lab.frame_index}")
        frame[lab.track_id] = lab.box

    by_frame_pr: list[dict[int, OrientedBox]] = []
    for frame_index, out in enumerate(outputs):
        frame = {}
        by_frame_pr.append(frame)
        for entry in out.entries:
            if entry.track_id in frame:
                raise ValueError(f"duplicate track id {entry.track_id} "
                                 f"in frame {frame_index}")
            frame[entry.track_id] = entry.box

    missing = set(by_frame_gt) - set(range(len(by_frame_pr)))
    if missing:
        raise ValueError(f"outputs missing for labeled frames {sorted(missing)}")

    tables = []
    for frame_index, pr in enumerate(by_frame_pr):
        gt = by_frame_gt.get(frame_index, {})
        gt_ids = tuple(sorted(gt))
        pred_ids = tuple(sorted(pr))
        sim = np.zeros((len(gt_ids), len(pred_ids)))
        for i, gi in enumerate(gt_ids):
            for j, pj in enumerate(pred_ids):
                sim[i, j] = iou_3d(gt[gi], pr[pj])
        tables.append(dense_frame_table(gt_ids, pred_ids, sim))
    return tables


def dense_frame_table(gt_ids, pred_ids, sim) -> FrameTable:
    """The FrameTable of a dense similarity matrix: its nonzero entries,
    as (row, column, sim) triples in row-major order."""
    return FrameTable(gt_ids, pred_ids, [
        (i, j, x) for i, row in enumerate(np.asarray(sim, dtype=float).tolist())
        for j, x in enumerate(row) if x != 0.0])


def eligible_triples(scores, eligible) -> list[tuple[int, int, float]]:
    """The (row, column, score) triples of the entries the boolean mask
    `eligible` marks, in row-major order: `gated_assignment`'s pairs for a
    dense score matrix."""
    values = np.asarray(scores, dtype=float).tolist()
    return [(i, j, values[i][j])
            for i, row in enumerate(np.asarray(eligible).tolist())
            for j, keep in enumerate(row) if keep]


def reference_associate(tracks, detections):
    """(scores, pairs, unmatched tracks, unmatched detections) from a
    per-pair loop over every (track, detection) pair, each track box
    built with an explicit yaw wrap, gated at `tracker.GATE_IOU_MIN` as
    it stands at call time."""
    scores = np.zeros((len(tracks), len(detections)))
    for i, trk in enumerate(tracks):
        m = trk.mean
        tb = OrientedBox(cx=float(m[0]), cy=float(m[1]), cz=float(m[2]),
                         length=max(MIN_EXTENT, float(m[4])),
                         width=max(MIN_EXTENT, float(m[5])),
                         height=max(MIN_EXTENT, float(m[6])),
                         yaw=wrap_angle(float(m[3])))
        for j, det in enumerate(detections):
            scores[i, j] = iou_3d(tb, det.box)
    pairs = gated_assignment(scores.shape, eligible_triples(
        scores, (scores > 0) & (scores >= tracker.GATE_IOU_MIN - MATCH_EPS)))
    matched_t = {i for i, _ in pairs}
    matched_d = {j for _, j in pairs}
    return (scores, pairs,
            [i for i in range(len(tracks)) if i not in matched_t],
            [j for j in range(len(detections)) if j not in matched_d])


# --- tracker lifecycle: a stored status ------------------------------------

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
DEAD = "dead"


class StatusTracker(Tracker):
    """The library's `Tracker` as it stood when each track stored a
    tentative/confirmed/dead status, its `step` kept verbatim but for where
    the status lives (a dict keyed by track id, beside the library's
    states) and for predict and update changing each state in place:
    confirmation computed from the hit count must reproduce its
    outputs exactly."""

    def __init__(self, config=None):
        super().__init__(config)
        self._status: dict[int, str] = {}

    def step(self, detections: list[Detection] | None) -> FrameOutput:
        cfg = self.config
        status = self._status

        for t in self._tracks:
            predict(t, cfg)
        updated_ids: set[int] = set()

        if detections is not None:
            pairs, unmatched_t, unmatched_d = associate(
                self._tracks, detections)
            for ti, dj in pairs:
                update(self._tracks[ti], detections[dj], cfg)
                updated_ids.add(self._tracks[ti].track_id)
            for ti in unmatched_t:
                trk = self._tracks[ti]
                trk.consecutive_misses += 1
                if status[trk.track_id] == TENTATIVE:
                    status[trk.track_id] = DEAD
                elif trk.consecutive_misses > cfg.max_misses_to_delete:
                    status[trk.track_id] = DEAD
            for dj in unmatched_d:
                self._tracks.append(_birth(self._next_id, detections[dj]))
                status[self._next_id] = TENTATIVE
                # A birth is detection-backed, not extrapolated.
                updated_ids.add(self._next_id)
                self._next_id += 1
            for trk in self._tracks:
                if status[trk.track_id] == TENTATIVE \
                        and trk.hits >= cfg.min_hits_to_confirm:
                    status[trk.track_id] = CONFIRMED
            self._tracks = [t for t in self._tracks
                            if status[t.track_id] != DEAD]

        entries = tuple(
            TrackEntry(track_id=t.track_id, box=t.box(), score=t.last_score,
                       provenance=(PROVENANCE_UPDATED if t.track_id in updated_ids
                                   else PROVENANCE_PREDICTED))
            for t in self._tracks if status[t.track_id] == CONFIRMED
        )
        return FrameOutput(entries)
