"""Tracking evaluation: CLEAR (MOTA/MOTP) and HOTA (DetA/AssA).

Both metrics consume the tracker's every-frame outputs, so frames whose
detection step was dropped are judged on predicted boxes.

`hota_pooled` and `clear_pooled` score one `build_frame_tables` list per
sequence, so both metrics share one table build per sequence.

Definitional constants shared with the test oracles:
  - ALPHA_GRID: the 19-point localization-threshold grid 0.05..0.95.
  - MATCH_EPS: slack on similarity-vs-threshold comparisons (defined
    with the tracker's gated assignment, which both metrics match with).
  - Matching objective: per frame, maximize match count first, then the
    summed pair score (association-weighted similarity for HOTA, raw
    similarity for CLEAR). Accumulation is canonical: frames ascending,
    ids ascending, so float sums are order-stable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .geometry import SIMILARITY_FNS, LabeledObject, OrientedBox
from .tracker import MATCH_EPS, FrameOutput, solve_assignment

ALPHA_GRID = tuple(np.arange(1, 20) / 20.0)


class NoGroundTruthError(ValueError):
    """Raised when a metric is requested for data with zero ground truth."""


@dataclass(frozen=True)
class ClearResult:
    mota: float
    motp: float
    tp: int
    fp: int
    fn: int
    id_switches: int
    gt_total: int


@dataclass(frozen=True)
class HotaResult:
    hota: float
    det_a: float
    ass_a: float
    per_alpha: tuple[tuple[float, float, float, float], ...]


@dataclass(frozen=True)
class FrameTable:
    """One frame's matching problem: sorted ids and their similarity matrix."""

    gt_ids: tuple[int, ...]
    pred_ids: tuple[int, ...]
    sim: np.ndarray


def build_frame_tables(labels: list[LabeledObject],
                       outputs: list[FrameOutput],
                       similarity="3d-iou") -> list[FrameTable]:
    """Canonical per-frame tables, frames ascending, ids sorted."""
    sim_fn = SIMILARITY_FNS[similarity]
    by_frame_gt: dict[int, dict[int, OrientedBox]] = {}
    for lab in labels:
        frame = by_frame_gt.setdefault(lab.frame_index, {})
        if lab.track_id in frame:
            raise ValueError(f"duplicate ground-truth id {lab.track_id} "
                             f"in frame {lab.frame_index}")
        frame[lab.track_id] = lab.box

    by_frame_pr: dict[int, dict[int, OrientedBox]] = {}
    for out in outputs:
        if out.frame_index in by_frame_pr:
            raise ValueError(f"duplicate output for frame {out.frame_index}")
        frame = by_frame_pr[out.frame_index] = {}
        for entry in out.entries:
            if entry.track_id in frame:
                raise ValueError(f"duplicate track id {entry.track_id} "
                                 f"in frame {out.frame_index}")
            frame[entry.track_id] = entry.box

    missing = set(by_frame_gt) - set(by_frame_pr)
    if missing:
        raise ValueError(f"outputs missing for labeled frames {sorted(missing)}")

    tables = []
    for frame_index in sorted(by_frame_pr):
        gt = by_frame_gt.get(frame_index, {})
        pr = by_frame_pr[frame_index]
        gt_ids = tuple(sorted(gt))
        pred_ids = tuple(sorted(pr))
        sim = np.zeros((len(gt_ids), len(pred_ids)))
        for i, gi in enumerate(gt_ids):
            for j, pj in enumerate(pred_ids):
                sim[i, j] = sim_fn(gt[gi], pr[pj])
        tables.append(FrameTable(gt_ids=gt_ids, pred_ids=pred_ids, sim=sim))
    return tables


# --- HOTA ---------------------------------------------------------------

def hota_pooled(tables_per_seq: list[list[FrameTable]]) -> HotaResult:
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
            pairs = solve_assignment(score, sim >= alpha - MATCH_EPS)
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


def hota(labels: list[LabeledObject], outputs: list[FrameOutput],
         similarity="3d-iou") -> HotaResult:
    return hota_pooled([build_frame_tables(labels, outputs, similarity)])


# --- CLEAR --------------------------------------------------------------

def _clear_counts(tables: list[FrameTable], match_threshold: float):
    tp = fp = fn = idsw = 0
    gt_total = 0
    iou_sum = 0.0
    prev: dict[int, int] = {}
    last: dict[int, int] = {}
    for t in tables:
        gt_total += len(t.gt_ids)
        gt_index = {gi: i for i, gi in enumerate(t.gt_ids)}
        pr_index = {pj: j for j, pj in enumerate(t.pred_ids)}

        # Keep last frame's pairs that still exist and still overlap.
        pairs: dict[int, int] = {}
        for gi in t.gt_ids:
            pj = prev.get(gi)
            if pj in pr_index and t.sim[gt_index[gi], pr_index[pj]] \
                    >= match_threshold - MATCH_EPS:
                pairs[gi] = pj

        rem_g = [gi for gi in t.gt_ids if gi not in pairs]
        used = set(pairs.values())
        rem_p = [pj for pj in t.pred_ids if pj not in used]
        if rem_g and rem_p:
            sub = t.sim[np.ix_([gt_index[gi] for gi in rem_g],
                               [pr_index[pj] for pj in rem_p])]
            for i, j in solve_assignment(sub,
                                         sub >= match_threshold - MATCH_EPS):
                pairs[rem_g[i]] = rem_p[j]

        tp += len(pairs)
        fn += len(t.gt_ids) - len(pairs)
        fp += len(t.pred_ids) - len(pairs)
        for gi in sorted(pairs):
            pj = pairs[gi]
            iou_sum += t.sim[gt_index[gi], pr_index[pj]]
            if gi in last and last[gi] != pj:
                idsw += 1
            last[gi] = pj
        prev = pairs
    return tp, fp, fn, idsw, gt_total, iou_sum


def clear_pooled(tables_per_seq: list[list[FrameTable]],
                 match_threshold: float = 0.5) -> ClearResult:
    """CLEAR over all sequences: each sequence's counts, summed."""
    counts = [_clear_counts(t, match_threshold) for t in tables_per_seq]
    # Column sums, from a zero row so that no sequences means no ground truth.
    tp, fp, fn, idsw, gt_total, iou_sum = map(
        sum, zip((0, 0, 0, 0, 0, 0.0), *counts))
    if gt_total == 0:
        raise NoGroundTruthError("no ground truth; MOTA undefined")
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total)
    motp = 100.0 * (iou_sum / tp) if tp > 0 else 0.0
    return ClearResult(mota=mota, motp=motp, tp=tp, fp=fp, fn=fn,
                       id_switches=idsw, gt_total=gt_total)


def clear_mot(labels: list[LabeledObject], outputs: list[FrameOutput],
              match_threshold: float = 0.5, similarity="3d-iou") -> ClearResult:
    return clear_pooled([build_frame_tables(labels, outputs, similarity)],
                        match_threshold)
