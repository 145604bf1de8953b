"""Tracking evaluation: CLEAR (MOTA/MOTP) and HOTA (DetA/AssA).

Both metrics consume the tracker's every-frame outputs, so frames whose
detection step was dropped are judged on predicted boxes.

`hota` and `clear_mot` score one sequence's `build_frame_tables` list,
which both can share; `hota_pooled` and `clear_pooled` one per sequence.

A frame table is sparse: it holds the (row, column, sim) triples of the
pairs whose 3D IoU `sim` is above 0, as `pair_similarities` returns them, and
no entry for any other pair. A pair that does not overlap is never a
match candidate, whatever the threshold. The scoring reads only the
triples, in plain Python, with no array built per frame.

HOTA's denominators need each frame's row and column sums, whose order
sets their last bit. They are numpy's `sim.sum(axis=1)` and
`sim.sum(axis=0)` of the dense matrix, bit for bit: the dense matrix is
built, each row is summed pairwise as numpy's `pairwise_sum` does it
(left to right from 0.0 below 8 entries), and each column left to right,
except in a one-column matrix, which numpy sums pairwise. The tests
check these sums against the installed numpy.

Definitional constants shared with the test oracles:
  - ALPHA_GRID: the 19-point localization-threshold grid 0.05..0.95.
  - CLEAR_THRESHOLD: the 3D IoU at which CLEAR matches, read at call time.
  - MATCH_EPS: slack on similarity-vs-threshold comparisons (defined
    with the tracker's gated assignment, which both metrics match with).
  - Matching objective: per frame, maximize match count first, then the
    summed pair score (association-weighted similarity for HOTA, raw
    similarity for CLEAR). Accumulation is canonical: frames ascending,
    ids ascending, so float sums are order-stable.

Both match through the tracker's `gated_assignment` front door, which
settles a conflict-free set of eligible pairs (no row and no column
twice) without the Hungarian solver: the count-first optimum is then all
of them. HOTA tests each frame once, at the lowest alpha (`sim >=
ALPHA_GRID[0] - MATCH_EPS`). The eligible set only shrinks as alpha
grows, so on a conflict-free frame the optimum at every alpha is exactly
its eligible pairs. Each pair keeps its similarities on those frames,
sorted once; its match count at an alpha is how many pass that alpha's
gate, found by bisection. Only the other frames go through the front
door, once per alpha.

Alignment, the Jaccard weight of a (gt id, pred id) pair over all
frames, is read only there, so it is built only for the pairs eligible
on a conflicted frame: each one's potential is summed over every frame
that holds it, in frame order, as a full build would sum it, and a frame
holding none of them has no row and column sums taken. A run without a
conflicted frame builds no alignment.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .geometry import LabeledObject, OrientedBox, pair_similarities
from .tracker import (MATCH_EPS, FrameOutput, _pairwise_sum,
                      _sequential_sum, conflict_free, gated_assignment)

ALPHA_GRID = tuple(k / 20.0 for k in range(1, 20))
CLEAR_THRESHOLD = 0.5


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


@dataclass(frozen=True, slots=True)
class FrameTable:
    """One frame's matching problem: sorted ids and the (row, column, sim)
    triples of the pairs that overlap, row-major; a row indexes `gt_ids`,
    a column `pred_ids`."""

    gt_ids: tuple[int, ...]
    pred_ids: tuple[int, ...]
    pairs: list[tuple[int, int, float]]

    @property
    def sim(self):
        """The dense similarity matrix as a numpy array, zero where a pair
        does not overlap, built on each read. Only the benchmark's pair
        count and the tests read it; the metrics read `pairs`."""
        import numpy as np
        sim = np.zeros((len(self.gt_ids), len(self.pred_ids)))
        for i, j, x in self.pairs:
            sim[i, j] = x
        return sim


def build_frame_tables(labels: list[LabeledObject],
                       outputs: list[FrameOutput]) -> list[FrameTable]:
    """Canonical per-frame tables, one per output (output i is frame i),
    ids sorted, each table's `pairs` scored by `pair_similarities`."""
    by_frame_gt: dict[int, dict[int, OrientedBox]] = {}
    for lab in labels:
        frame = by_frame_gt.setdefault(lab.frame_index, {})
        if lab.track_id in frame:
            raise ValueError(f"duplicate ground-truth id {lab.track_id} "
                             f"in frame {lab.frame_index}")
        frame[lab.track_id] = lab.box

    missing = [f for f in by_frame_gt if f >= len(outputs)]
    if missing:
        raise ValueError(f"outputs missing for labeled frames {sorted(missing)}")

    tables = []
    for f, out in enumerate(outputs):
        gt, pr = by_frame_gt.get(f, {}), {}
        for entry in out.entries:
            if entry.track_id in pr:
                raise ValueError(f"duplicate track id {entry.track_id} "
                                 f"in frame {f}")
            pr[entry.track_id] = entry.box
        gt_ids, pred_ids = tuple(sorted(gt)), tuple(sorted(pr))
        tables.append(FrameTable(gt_ids, pred_ids, pair_similarities(
            [gt[i] for i in gt_ids], [pr[j] for j in pred_ids])))
    return tables


def _axis_sums(n_rows: int, n_cols: int,
               pairs: list[tuple[int, int, float]]
               ) -> tuple[list[float], list[float]]:
    """A table's row and column sums, bit for bit numpy's `sum(axis=1)`
    and `sum(axis=0)` of its dense matrix (see the module docstring)."""
    dense = [[0.0] * n_cols for _ in range(n_rows)]
    for i, j, x in pairs:
        dense[i][j] = x
    columns = [[row[j] for row in dense] for j in range(n_cols)]
    return ([_pairwise_sum(row) for row in dense],
            [_pairwise_sum(columns[0])] if n_cols == 1
            else [_sequential_sum(column) for column in columns])


# --- HOTA ---------------------------------------------------------------

def hota_pooled(tables_per_seq: list[list[FrameTable]]) -> HotaResult:
    """HOTA over all sequences; ids are keyed by (sequence index, id)."""
    frames = [([(k, gi) for gi in t.gt_ids], [(k, pj) for pj in t.pred_ids],
               t.pairs) for k, tables in enumerate(tables_per_seq) for t in tables]
    gt_count = Counter(g for gts, _, _ in frames for g in gts)
    pred_count = Counter(p for _, prs, _ in frames for p in prs)
    if not gt_count:
        raise NoGroundTruthError("no ground truth; HOTA undefined")

    thresholds = [alpha - MATCH_EPS for alpha in ALPHA_GRID]
    # matches[pair]: its sims on the conflict-free frames it is eligible on;
    # after the frame loop, the frames on which it is matched at each alpha.
    matches: dict[tuple[tuple[int, int], tuple[int, int]], list] = {}
    conflicted = []
    for gts, prs, triples in frames:
        pairs = [p for p in triples if p[2] >= thresholds[0]]
        if conflict_free(pairs):
            for i, j, x in pairs:
                matches.setdefault((gts[i], prs[j]), []).append(x)
        else:
            conflicted.append((gts, prs, pairs))

    # On a conflict-free frame a pair is matched at each alpha whose gate
    # its similarity passes (the same `>=` test).
    for pair, sims in matches.items():
        sims.sort()
        matches[pair] = [len(sims) - bisect_left(sims, threshold)
                         for threshold in thresholds]

    # Jaccard alignment between each (gt id, pred id) pair over all frames,
    # the association weight inside matching. Only conflicted frames read
    # it: elsewhere the matching does not depend on scores. So only the
    # pairs eligible on a conflicted frame get a potential, each summed
    # over every frame that holds it, frames and pairs in order.
    potential = dict.fromkeys(((gts[i], prs[j]) for gts, prs, pairs
                               in conflicted for i, j, _ in pairs), 0.0)
    tiny = sys.float_info.epsilon
    for gts, prs, triples in (frames if potential else ()):
        held = [(i, j, x, key) for i, j, x in triples
                if (key := (gts[i], prs[j])) in potential]
        if not held:
            continue
        # A pair whose denominator is at or below eps has a zero ratio and
        # adds nothing.
        row_sums, col_sums = _axis_sums(len(gts), len(prs), triples)
        for i, j, x, key in held:
            if (denom := row_sums[i] + col_sums[j] - x) > tiny:
                potential[key] += x / denom
    align = {(g, p): pot / (gt_count[g] + pred_count[p] - pot)
             for (g, p), pot in potential.items()}
    for gts, prs, pairs in conflicted:
        weighted = [(i, j, x, align[(gts[i], prs[j])] * x)
                    for i, j, x in pairs]
        for a, threshold in enumerate(thresholds):
            for i, j in gated_assignment((len(gts), len(prs)), [
                    (i, j, w) for i, j, x, w in weighted if x >= threshold]):
                matches.setdefault((gts[i], prs[j]),
                                   [0] * len(thresholds))[a] += 1

    keys = sorted(matches)
    pair_total = [gt_count[g] + pred_count[p] for g, p in keys]
    gt_total = sum(gt_count.values())
    pred_total = sum(pred_count.values())
    per_alpha = []
    for a, alpha in enumerate(ALPHA_GRID):
        counts = [matches[pair][a] for pair in keys]
        tp = sum(counts)
        det_pct = 100.0 * (tp / max(1, gt_total + pred_total - tp))
        ass_num = 0.0
        for mc, total in zip(counts, pair_total):
            if mc:
                ass_num += mc * (mc / (total - mc))
        ass_pct = 100.0 * (ass_num / max(1, tp))
        per_alpha.append((alpha, math.sqrt(det_pct * ass_pct),
                          det_pct, ass_pct))

    hota_val, det_val, ass_val = (_pairwise_sum(column) / len(ALPHA_GRID)
                                  for column in list(zip(*per_alpha))[1:])
    return HotaResult(hota=hota_val, det_a=det_val, ass_a=ass_val,
                      per_alpha=tuple(per_alpha))


def hota(tables: list[FrameTable]) -> HotaResult:
    return hota_pooled([tables])


# --- CLEAR --------------------------------------------------------------

def clear_pooled(tables_per_seq: list[list[FrameTable]]) -> ClearResult:
    """CLEAR over all sequences: each sequence's counts, summed. The IoU
    sum adds each sequence's own sum, left to right; not sum(), which
    from Python 3.12 compensates floats."""
    gate = CLEAR_THRESHOLD - MATCH_EPS
    tp = fp = fn = idsw = gt_total = 0
    iou_sum = 0.0
    for tables in tables_per_seq:
        seq_iou_sum = 0.0
        prev: dict[int, int] = {}
        last: dict[int, int] = {}
        for t in tables:
            gt_ids, pred_ids = t.gt_ids, t.pred_ids
            gt_total += len(gt_ids)
            # The pairs that pass the gate, by (gt id, pred id), row-major.
            gated = {(gt_ids[i], pred_ids[j]): x for i, j, x in t.pairs
                     if x >= gate}

            # Keep last frame's pairs that still exist and still pass.
            pairs = {gi: pj for gi, pj in prev.items() if (gi, pj) in gated}

            rem_g = [gi for gi in gt_ids if gi not in pairs]
            used = set(pairs.values())
            rem_p = [pj for pj in pred_ids if pj not in used]
            if rem_g and rem_p:
                row = {gi: i for i, gi in enumerate(rem_g)}
                col = {pj: j for j, pj in enumerate(rem_p)}
                eligible = [(row[gi], col[pj], x)
                            for (gi, pj), x in gated.items()
                            if gi in row and pj in col]
                for i, j in gated_assignment((len(rem_g), len(rem_p)),
                                             eligible):
                    pairs[rem_g[i]] = rem_p[j]

            tp += len(pairs)
            fn += len(gt_ids) - len(pairs)
            fp += len(pred_ids) - len(pairs)
            for gi in sorted(pairs):
                pj = pairs[gi]
                seq_iou_sum += gated[(gi, pj)]
                if gi in last and last[gi] != pj:
                    idsw += 1
                last[gi] = pj
            prev = pairs
        iou_sum += seq_iou_sum
    if gt_total == 0:
        raise NoGroundTruthError("no ground truth; MOTA undefined")
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total)
    motp = 100.0 * (iou_sum / tp) if tp > 0 else 0.0
    return ClearResult(mota=mota, motp=motp, tp=tp, fp=fp, fn=fn,
                       id_switches=idsw, gt_total=gt_total)


def clear_mot(tables: list[FrameTable]) -> ClearResult:
    return clear_pooled([tables])
