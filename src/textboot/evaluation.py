"""Instance-level precision / recall / F-measure for detector output.

Matching is the standard benchmark protocol: per image, detections are
taken in descending score order and greedily claim the unmatched ground
truth of highest IoU; the claim stands only when that IoU reaches the
threshold.  IoU is the overlap of a detection's mask with a truth
polygon's pixels, because curved-text benchmarks (CTW1500, Total-Text)
score polygons, not boxes.  Detections that claim nothing are false
positives, leftover truths are false negatives, and images aggregate by
summing counts before dividing (micro-averaging).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import AnnotationTier, Dataset, record_masks, require_tier
from .errors import DimensionMismatchError, UnknownImageError
from .geometry import Detection, mask_iou


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.iou_threshold) and 0.0 < self.iou_threshold < 1.0):
            raise ValueError(f"iou_threshold must lie in (0, 1), got {self.iou_threshold}")


@dataclass(frozen=True)
class ImageCounts:
    image_id: str
    true_positives: int
    false_positives: int
    false_negatives: int


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f_measure: float
    true_positives: int
    false_positives: int
    false_negatives: int
    per_image: tuple[ImageCounts, ...] = field(default=())

    def to_text(self) -> str:
        """Stable key=value serialization (used for run artifacts)."""
        lines = [
            f"precision={self.precision!r}",
            f"recall={self.recall!r}",
            f"f_measure={self.f_measure!r}",
            f"true_positives={self.true_positives}",
            f"false_positives={self.false_positives}",
            f"false_negatives={self.false_negatives}",
        ]
        for c in self.per_image:
            lines.append(
                f"image {c.image_id} tp={c.true_positives} fp={c.false_positives} "
                f"fn={c.false_negatives}"
            )
        return "\n".join(lines) + "\n"


def _safe_div(num: int, den: int) -> float:
    return num / den if den else 0.0


def _f_measure(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r else 0.0


def greedy_match(iou: np.ndarray, threshold: float) -> tuple[int, int, int]:
    """Match rows (detections, score-ordered) to columns (truths).

    Each row claims the still-unclaimed column of highest IoU; the claim
    counts only when IoU >= threshold.  Returns (TP, FP, FN).
    """
    iou = np.asarray(iou, dtype=float)
    n_det, n_truth = iou.shape if iou.ndim == 2 else (0, 0)
    taken = np.zeros(n_truth, dtype=bool)
    tp = 0
    for i in range(n_det):
        if taken.all() or n_truth == 0:
            break
        row = np.where(taken, -1.0, iou[i])
        j = int(np.argmax(row))
        if row[j] >= threshold:
            taken[j] = True
            tp += 1
    return tp, n_det - tp, n_truth - tp


def evaluate(
    detections: dict[str, list[Detection]], truth: Dataset, cfg: EvalConfig = EvalConfig()
) -> EvalReport:
    """Score per-image detections against a pixel-annotated dataset."""
    require_tier(truth, (AnnotationTier.STRONG,), "evaluation")
    unknown = sorted(set(detections) - {rec.image_id for rec in truth.records})
    if unknown:
        raise UnknownImageError(f"ids not in the truth ({len(unknown)}): {', '.join(unknown[:5])}")

    h, w = truth.image_height, truth.image_width
    per_image = []
    total_tp = total_fp = total_fn = 0
    for rec in sorted(truth.records, key=lambda r: r.image_id):
        dets = sorted(detections.get(rec.image_id, []), key=lambda d: -d.score)
        for d in dets:
            if d.mask.pixels.shape != (h, w):
                raise DimensionMismatchError(
                    f"{rec.image_id}: detection mask shape {d.mask.pixels.shape} does not "
                    f"match image dims {(h, w)}"
                )
        truths = record_masks(truth, rec)
        iou = np.array(
            [[mask_iou(d.mask, t) for t in truths] for d in dets], dtype=float
        ).reshape(len(dets), len(truths))
        tp, fp, fn = greedy_match(iou, cfg.iou_threshold)
        per_image.append(ImageCounts(rec.image_id, tp, fp, fn))
        total_tp += tp
        total_fp += fp
        total_fn += fn

    p = _safe_div(total_tp, total_tp + total_fp)
    r = _safe_div(total_tp, total_tp + total_fn)
    return EvalReport(
        precision=p,
        recall=r,
        f_measure=_f_measure(p, r),
        true_positives=total_tp,
        false_positives=total_fp,
        false_negatives=total_fn,
        per_image=tuple(per_image),
    )
