"""Pseudo-annotation strategies over a weakly-annotated or unlabeled pool.

Three ways to turn detector output on pool images into training labels:

* NAIVE  — keep every detection scoring strictly above a threshold.
* FILTER — additionally require the detection's box to overlap some
  weak (rectangle) annotation with IoU strictly above a threshold.
* LOCAL  — skip detection entirely: for each weak rectangle, ask the
  model for the pixels inside it (one label per rectangle, never
  rejected; an empty mask is kept and trains as negative evidence).  The
  model answers for all of an image's rectangles in one call.

A label is a :class:`~textboot.geometry.Detection`: NAIVE and FILTER keep
the detections themselves, LOCAL labels carry no confidence and score
1.0.  A :class:`PseudoSet` holds one strategy's labels for one round and
records that strategy and round once.  All selectors are pure: a fixed
model and inputs give the same output.  A PseudoSet converts back into a
pixel-annotated dataset so retraining consumes original and pseudo
annotations through one code path.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import AnnotationRecord, AnnotationTier, Dataset, Provenance, read_image, require_tier
from .geometry import AxisRect, Detection, mask_to_polygon, rect_iou


@dataclass(frozen=True)
class StrategyConfig:
    """Selection thresholds; all comparisons are strict (>)."""

    score_threshold: float = 0.5
    filter_score_threshold: float = 0.4
    filter_iou_threshold: float = 0.3

    def __post_init__(self) -> None:
        for name in ("score_threshold", "filter_score_threshold", "filter_iou_threshold"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass(frozen=True)
class PseudoSet:
    """One strategy's labels for one round, grouped per pool image and
    ordered by image id."""

    provenance: Provenance
    round_index: int
    per_image: tuple[tuple[str, tuple[Detection, ...]], ...]

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {self.round_index}")
        ids = [image_id for image_id, _ in self.per_image]
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValueError("per_image entries must be sorted by unique image id")

    @property
    def count(self) -> int:
        return sum(len(labels) for _, labels in self.per_image)


def naive_select(candidates: list[Detection], cfg: StrategyConfig) -> list[Detection]:
    """Keep candidates whose score is strictly above the threshold."""
    return [d for d in candidates if d.score > cfg.score_threshold]


def filter_select(
    candidates: list[Detection], weak_boxes: list[AxisRect], cfg: StrategyConfig
) -> list[Detection]:
    """Keep candidates scoring above the (lower) threshold that also
    overlap some weak rectangle with box IoU strictly above the cutoff."""
    return [
        d
        for d in candidates
        if d.score > cfg.filter_score_threshold
        and max((rect_iou(d.box, g) for g in weak_boxes), default=0.0) > cfg.filter_iou_threshold
    ]


def local_generate(model, image: np.ndarray, weak_boxes: list[AxisRect]) -> list[Detection]:
    """One label per weak rectangle: the model's pixels inside it.

    No thresholding and no rejection; rectangles where the model finds
    nothing still produce an empty-mask label, which trains as negative
    evidence.  The labels carry no confidence; their score is 1.0.
    """
    return [
        Detection(box=box, mask=mask, score=1.0)
        for box, mask in zip(weak_boxes, model.masks_for_boxes(image, weak_boxes))
    ]


_ALLOWED_TIERS = {
    Provenance.NAIVE: (AnnotationTier.NONE, AnnotationTier.WEAK),
    Provenance.FILTER: (AnnotationTier.WEAK,),
    Provenance.LOCAL: (AnnotationTier.WEAK,),
}


def annotate_pool(
    model,
    pool: Dataset,
    strategy: Provenance,
    cfg: StrategyConfig | None = None,
    round_index: int = 0,
    jobs: int = 1,
) -> PseudoSet:
    """Run one strategy over every pool image.

    Every pool image appears in the result, with an empty label list
    where nothing was selected.  Images are read through
    :func:`~textboot.data.read_image`; ``jobs`` > 1 processes images
    concurrently without changing the output.
    """
    cfg = cfg or StrategyConfig()
    require_tier(pool, _ALLOWED_TIERS[strategy], f"{strategy.value} strategy")

    def one(rec: AnnotationRecord) -> tuple[str, tuple[Detection, ...]]:
        image = read_image(pool, rec)
        if strategy is Provenance.LOCAL:
            labels = local_generate(model, image, list(rec.rects))
        elif strategy is Provenance.FILTER:
            labels = filter_select(model.detect(image), list(rec.rects), cfg)
        else:
            labels = naive_select(model.detect(image), cfg)
        return rec.image_id, tuple(labels)

    if jobs > 1 and len(pool.records) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool_exec:
            results = list(pool_exec.map(one, pool.records))
    else:
        results = [one(rec) for rec in pool.records]
    return PseudoSet(strategy, round_index, tuple(sorted(results, key=lambda kv: kv[0])))


def pseudo_to_dataset(pool: Dataset, pseudo: PseudoSet) -> Dataset:
    """Serialize a PseudoSet as a pixel-annotated dataset.

    Each mask becomes its component outlines.  Images with labels record
    the set's strategy and round; NAIVE and FILTER images also record each
    label's score, repeated per outline so score lists stay aligned with
    polygon lists.  Images with no labels become empty pixel-tier records,
    keeping the whole pool available to retraining as background.
    """
    by_id = dict(pseudo.per_image)
    scored = pseudo.provenance is not Provenance.LOCAL
    records = []
    for rec in pool.records:
        labels = by_id.get(rec.image_id, ())
        polygons: list = []
        scores: list[float] = []
        for d in labels:
            outlines = mask_to_polygon(d.mask)
            polygons.extend(outlines)
            scores.extend([d.score] * len(outlines))
        records.append(
            replace(
                rec,
                tier=AnnotationTier.STRONG,
                polygons=tuple(polygons),
                rects=(),
                scores=tuple(scores) if labels and scored else None,
                provenance=pseudo.provenance.value if labels else None,
                round_index=pseudo.round_index if labels else None,
            )
        )
    return Dataset(
        records=tuple(records),
        image_width=pool.image_width,
        image_height=pool.image_height,
    )
