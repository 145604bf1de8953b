"""Tracking evaluation: CLEAR (MOTA/MOTP) and HOTA (DetA/AssA).

Both metrics consume the tracker's every-frame outputs, so frames whose
detection step was dropped are judged on predicted boxes.

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
from dataclasses import dataclass

import numpy as np

from .geometry import LabeledObject, OrientedBox, bev_iou, iou_3d
from .tracker import MATCH_EPS, FrameOutput, solve_assignment

ALPHA_GRID = tuple(np.arange(1, 20) / 20.0)

SIMILARITY_FNS = {"3d-iou": iou_3d, "bev-iou": bev_iou}


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


def _resolve_similarity(similarity):
    if callable(similarity):
        return similarity
    try:
        return SIMILARITY_FNS[similarity]
    except KeyError:
        raise ValueError(f"unknown similarity {similarity!r}; expected one of "
                         f"{sorted(SIMILARITY_FNS)} or a callable") from None


def build_frame_tables(labels: list[LabeledObject],
                       outputs: list[FrameOutput],
                       similarity="3d-iou") -> list[FrameTable]:
    """Canonical per-frame tables, frames ascending, ids sorted."""
    sim_fn = _resolve_similarity(similarity)
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


def _remap_ids(tables_per_seq: list[list[FrameTable]]) -> list[FrameTable]:
    """Concatenate sequences with ids made globally unique."""
    merged = []
    for k, tables in enumerate(tables_per_seq):
        gt_map: dict[int, int] = {}
        pr_map: dict[int, int] = {}
        for t in tables:
            for gi in t.gt_ids:
                gt_map.setdefault(gi, len(gt_map))
        for t in tables:
            for pj in t.pred_ids:
                pr_map.setdefault(pj, len(pr_map))
        merged.append((gt_map, pr_map, tables))
    out: list[FrameTable] = []
    g_off = 0
    p_off = 0
    for gt_map, pr_map, tables in merged:
        for t in tables:
            out.append(FrameTable(
                gt_ids=tuple(gt_map[g] + g_off for g in t.gt_ids),
                pred_ids=tuple(pr_map[p] + p_off for p in t.pred_ids),
                sim=t.sim,
            ))
        g_off += len(gt_map)
        p_off += len(pr_map)
    return out


# --- HOTA ---------------------------------------------------------------

def hota_from_tables(tables: list[FrameTable]) -> HotaResult:
    gt_count: dict[int, int] = {}
    pred_count: dict[int, int] = {}
    potential: dict[tuple[int, int], float] = {}

    tiny = float(np.finfo(float).eps)
    for t in tables:
        for gi in t.gt_ids:
            gt_count[gi] = gt_count.get(gi, 0) + 1
        for pj in t.pred_ids:
            pred_count[pj] = pred_count.get(pj, 0) + 1
        if not t.gt_ids or not t.pred_ids:
            continue
        row = t.sim.sum(axis=1)
        col = t.sim.sum(axis=0)
        for i, gi in enumerate(t.gt_ids):
            for j, pj in enumerate(t.pred_ids):
                denom = row[i] + col[j] - t.sim[i, j]
                if denom > tiny:
                    key = (gi, pj)
                    potential[key] = potential.get(key, 0.0) \
                        + t.sim[i, j] / denom

    if sum(gt_count.values()) == 0:
        raise NoGroundTruthError("no ground truth; HOTA undefined")

    # Jaccard alignment between each (gt id, pred id) pair over the
    # whole sequence; used as the association weight inside matching.
    align: dict[tuple[int, int], float] = {}
    for (gi, pj), pot in potential.items():
        align[(gi, pj)] = pot / (gt_count[gi] + pred_count[pj] - pot)

    per_alpha = []
    for alpha in ALPHA_GRID:
        tp = fn = fp = 0
        matches: dict[tuple[int, int], int] = {}
        for t in tables:
            g, p = len(t.gt_ids), len(t.pred_ids)
            if g == 0 or p == 0:
                fn += g
                fp += p
                continue
            score = np.zeros((g, p))
            for i, gi in enumerate(t.gt_ids):
                for j, pj in enumerate(t.pred_ids):
                    score[i, j] = align.get((gi, pj), 0.0) * t.sim[i, j]
            pairs = solve_assignment(score, t.sim >= alpha - MATCH_EPS)
            tp += len(pairs)
            fn += g - len(pairs)
            fp += p - len(pairs)
            for i, j in pairs:
                key = (t.gt_ids[i], t.pred_ids[j])
                matches[key] = matches.get(key, 0) + 1

        det_a = tp / max(1, tp + fn + fp)
        ass_num = 0.0
        for (gi, pj) in sorted(matches):
            mc = matches[(gi, pj)]
            ass_num += mc * (mc / (gt_count[gi] + pred_count[pj] - mc))
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
    return hota_from_tables(build_frame_tables(labels, outputs, similarity))


def hota_pooled(per_sequence: list[tuple[list[LabeledObject], list[FrameOutput]]],
                similarity="3d-iou") -> HotaResult:
    tables = _remap_ids([build_frame_tables(labels, outputs, similarity)
                         for labels, outputs in per_sequence])
    return hota_from_tables(tables)


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

        pairs: dict[int, int] = {}
        used_pred: set[int] = set()
        for gi in t.gt_ids:
            pj = prev.get(gi)
            if pj is None or pj not in pr_index:
                continue
            if t.sim[gt_index[gi], pr_index[pj]] >= match_threshold - MATCH_EPS:
                pairs[gi] = pj
                used_pred.add(pj)

        rem_g = [gi for gi in t.gt_ids if gi not in pairs]
        rem_p = [pj for pj in t.pred_ids if pj not in used_pred]
        if rem_g and rem_p:
            sub = np.zeros((len(rem_g), len(rem_p)))
            for i, gi in enumerate(rem_g):
                for j, pj in enumerate(rem_p):
                    sub[i, j] = t.sim[gt_index[gi], pr_index[pj]]
            eligible = sub >= match_threshold - MATCH_EPS
            for i, j in solve_assignment(sub, eligible):
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


def _clear_result(tp, fp, fn, idsw, gt_total, iou_sum) -> ClearResult:
    if gt_total == 0:
        raise NoGroundTruthError("no ground truth; MOTA undefined")
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total)
    motp = 100.0 * (iou_sum / tp) if tp > 0 else 0.0
    return ClearResult(mota=mota, motp=motp, tp=tp, fp=fp, fn=fn,
                       id_switches=idsw, gt_total=gt_total)


def clear_mot(labels: list[LabeledObject], outputs: list[FrameOutput],
              match_threshold: float = 0.5, similarity="3d-iou") -> ClearResult:
    tables = build_frame_tables(labels, outputs, similarity)
    return _clear_result(*_clear_counts(tables, match_threshold))


def clear_pooled(per_sequence: list[tuple[list[LabeledObject], list[FrameOutput]]],
                 match_threshold: float = 0.5, similarity="3d-iou") -> ClearResult:
    tp = fp = fn = idsw = 0
    gt_total = 0
    iou_sum = 0.0
    for labels, outputs in per_sequence:
        tables = build_frame_tables(labels, outputs, similarity)
        t, f, n, i, g, s = _clear_counts(tables, match_threshold)
        tp += t
        fp += f
        fn += n
        idsw += i
        gt_total += g
        iou_sum += s
    return _clear_result(tp, fp, fn, idsw, gt_total, iou_sum)
