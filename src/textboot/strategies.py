"""Pseudo-annotation strategies over a weakly-annotated or unlabeled pool.

Three ways to turn detector output on pool images into training labels:

* NAIVE  — keep every detection scoring strictly above a threshold.
* FILTER — additionally require the detection's box to overlap some
  weak (rectangle) annotation with IoU strictly above a threshold.
* LOCAL  — skip detection entirely: for each weak rectangle, ask the
  model for the pixels inside it (one annotation per rectangle, never
  rejected; an empty mask is kept and trains as negative evidence).  The
  model answers for all of an image's rectangles in one call.

All selectors are pure: a fixed model and inputs give the same output.
A PseudoSet converts back into a pixel-annotated dataset so retraining
consumes original and pseudo annotations through one code path.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import AnnotationRecord, AnnotationTier, Dataset, read_image
from .errors import TierError
from .geometry import AxisRect, BitMask, Detection, mask_bbox, mask_to_polygon, rect_iou


class Provenance(enum.Enum):
    """Which strategy produced a pseudo annotation."""

    NAIVE = "NAIVE"
    FILTER = "FILTER"
    LOCAL = "LOCAL"


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
class PseudoAnnotation:
    """One generated training instance: a box plus its pixel mask."""

    box: AxisRect
    mask: BitMask
    provenance: Provenance
    round_index: int
    score: float | None = None

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {self.round_index}")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")
        if self.mask.count > 0:
            tight = mask_bbox(self.mask)
            if (
                tight.x_min < math.floor(self.box.x_min)
                or tight.y_min < math.floor(self.box.y_min)
                or tight.x_max > math.ceil(self.box.x_max)
                or tight.y_max > math.ceil(self.box.y_max)
            ):
                raise ValueError("mask pixels extend outside the annotation box")


@dataclass(frozen=True)
class PseudoSet:
    """Pseudo annotations grouped per pool image, ordered by image id."""

    per_image: tuple[tuple[str, tuple[PseudoAnnotation, ...]], ...]

    def __post_init__(self) -> None:
        ids = [image_id for image_id, _ in self.per_image]
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValueError("per_image entries must be sorted by unique image id")

    def for_image(self, image_id: str) -> tuple[PseudoAnnotation, ...]:
        for iid, anns in self.per_image:
            if iid == image_id:
                return anns
        raise KeyError(image_id)

    @property
    def count(self) -> int:
        return sum(len(anns) for _, anns in self.per_image)

    @property
    def mean_score(self) -> float | None:
        scores = [a.score for _, anns in self.per_image for a in anns if a.score is not None]
        return float(np.mean(scores)) if scores else None


def naive_select(
    candidates: list[Detection], cfg: StrategyConfig, round_index: int = 0
) -> list[PseudoAnnotation]:
    """Keep candidates whose score is strictly above the threshold."""
    return [
        PseudoAnnotation(
            box=d.box,
            mask=d.mask,
            provenance=Provenance.NAIVE,
            round_index=round_index,
            score=d.score,
        )
        for d in candidates
        if d.score > cfg.score_threshold
    ]


def filter_select(
    candidates: list[Detection],
    weak_boxes: list[AxisRect],
    cfg: StrategyConfig,
    round_index: int = 0,
) -> list[PseudoAnnotation]:
    """Keep candidates scoring above the (lower) threshold that also
    overlap some weak rectangle with box IoU strictly above the cutoff."""
    out = []
    for d in candidates:
        if d.score <= cfg.filter_score_threshold:
            continue
        best = max((rect_iou(d.box, g) for g in weak_boxes), default=0.0)
        if best > cfg.filter_iou_threshold:
            out.append(
                PseudoAnnotation(
                    box=d.box,
                    mask=d.mask,
                    provenance=Provenance.FILTER,
                    round_index=round_index,
                    score=d.score,
                )
            )
    return out


def local_generate(
    model,
    image: np.ndarray,
    weak_boxes: list[AxisRect],
    round_index: int = 0,
) -> list[PseudoAnnotation]:
    """One annotation per weak rectangle: the model's pixels inside it.

    No thresholding and no rejection; rectangles where the model finds
    nothing still produce an empty-mask annotation, which trains as
    negative evidence.
    """
    return [
        PseudoAnnotation(box=box, mask=mask, provenance=Provenance.LOCAL, round_index=round_index)
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

    Every pool image appears in the result, with an empty annotation list
    where nothing was selected.  Images are read through
    :func:`~textboot.data.read_image`; ``jobs`` > 1 processes images
    concurrently without changing the output.
    """
    cfg = cfg or StrategyConfig()
    allowed = _ALLOWED_TIERS[strategy]
    for rec in pool.records:
        if rec.tier not in allowed:
            names = " or ".join(t.name for t in allowed)
            raise TierError(
                f"{rec.image_id}: {strategy.value} strategy needs tier {names}, got {rec.tier.name}"
            )

    def one(rec: AnnotationRecord) -> tuple[str, tuple[PseudoAnnotation, ...]]:
        image = read_image(pool, rec)
        if strategy is Provenance.LOCAL:
            anns = local_generate(model, image, list(rec.rects), round_index)
        elif strategy is Provenance.FILTER:
            anns = filter_select(model.detect(image), list(rec.rects), cfg, round_index)
        else:
            anns = naive_select(model.detect(image), cfg, round_index)
        return rec.image_id, tuple(anns)

    if jobs > 1 and len(pool.records) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool_exec:
            results = list(pool_exec.map(one, pool.records))
    else:
        results = [one(rec) for rec in pool.records]
    return PseudoSet(per_image=tuple(sorted(results, key=lambda kv: kv[0])))


def pseudo_to_dataset(pool: Dataset, pseudo: PseudoSet) -> Dataset:
    """Serialize a PseudoSet as a pixel-annotated dataset.

    Each mask becomes its component outlines; an annotation's score is
    repeated per outline so score lists stay aligned with polygon lists.
    Images with no annotations become empty pixel-tier records, keeping
    the whole pool available to retraining as background.
    """
    by_id = {iid: anns for iid, anns in pseudo.per_image}
    records = []
    for rec in pool.records:
        anns = by_id.get(rec.image_id, ())
        polygons: list = []
        scores: list[float] = []
        provenance: str | None = None
        round_index: int | None = None
        scored = False
        for a in anns:
            provenance = a.provenance.value
            round_index = a.round_index
            outlines = mask_to_polygon(a.mask)
            polygons.extend(outlines)
            if a.score is not None:
                scored = True
                scores.extend([a.score] * len(outlines))
            else:
                scores.extend([1.0] * len(outlines))
        records.append(
            replace(
                rec,
                tier=AnnotationTier.STRONG,
                polygons=tuple(polygons),
                rects=(),
                scores=tuple(scores) if scored else None,
                provenance=provenance,
                round_index=round_index,
            )
        )
    return Dataset(
        records=tuple(records),
        image_width=pool.image_width,
        image_height=pool.image_height,
    )
