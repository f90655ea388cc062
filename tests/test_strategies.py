"""Tests for the three pseudo-annotation selectors and pool annotation."""

from dataclasses import replace as dc_replace
from functools import partial

import numpy as np
import pytest

from textboot.data import (
    AnnotationRecord,
    AnnotationTier,
    Dataset,
    SceneSpec,
    downgrade_record,
    generate_synthetic,
    read_pgm,
    write_pgm,
)
from textboot.detector import DetectorModel, TrainConfig, feature_dim, train
from textboot.errors import TierError, UnknownImageError
from textboot.geometry import AxisRect, BitMask, Detection, mask_iou, rasterize, rect_iou
from textboot.orchestrator import pseudo_examples
from textboot.strategies import (
    Provenance,
    PseudoSet,
    StrategyConfig,
    annotate_pool,
    filter_select,
    local_generate,
    pseudo_to_dataset,
)
from tests.test_detector import EASY, _examples


def _rect_detection(grid_h, grid_w, x0, y0, x1, y1, score):
    px = np.zeros((grid_h, grid_w), dtype=bool)
    px[y0:y1, x0:x1] = True
    m = BitMask(px)
    return Detection(box=AxisRect(x0, y0, x1, y1), mask=m, score=score)


def _random_detections(rng, n, grid=32):
    dets = []
    for _ in range(n):
        x0 = int(rng.integers(0, grid - 2))
        y0 = int(rng.integers(0, grid - 2))
        x1 = int(rng.integers(x0 + 1, grid))
        y1 = int(rng.integers(y0 + 1, grid))
        dets.append(_rect_detection(grid, grid, x0, y0, x1, y1, float(rng.uniform())))
    return dets


def _to_none_tier(rec):
    return dc_replace(rec, tier=AnnotationTier.NONE, rects=())


def _random_boxes(rng, n, grid=32):
    boxes = []
    for _ in range(n):
        x0 = float(rng.uniform(0, grid - 1))
        y0 = float(rng.uniform(0, grid - 1))
        boxes.append(AxisRect(x0, y0, x0 + float(rng.uniform(1, 8)), y0 + float(rng.uniform(1, 8))))
    return boxes


class OracleModel:
    """Plug-in stand-in: hands back pre-set truth, proving the selectors
    only depend on the detector protocol (detect / masks_for_boxes)."""

    def __init__(self, truth_masks, detections=()):
        self.truth = list(truth_masks)
        self.detections = list(detections)

    def detect(self, image):
        return list(self.detections)

    def mask_for_box(self, image, box):
        for m in self.truth:
            rows, cols = np.nonzero(m.pixels)
            if len(rows) and np.all(
                (cols + 0.5 >= box.x_min)
                & (cols + 0.5 < box.x_max)
                & (rows + 0.5 >= box.y_min)
                & (rows + 0.5 < box.y_max)
            ):
                return m
        return BitMask(np.zeros_like(self.truth[0].pixels))

    def masks_for_boxes(self, image, boxes):
        return [self.mask_for_box(image, b) for b in boxes]


# --- naive -------------------------------------------------------------------


def _flat_pool(root, side):
    """A NONE pool of one flat ``side`` x ``side`` image, ``p0``."""
    path = root / "p0.pgm"
    write_pgm(path, np.zeros((side, side), dtype=np.uint8))
    return Dataset((AnnotationRecord("p0", str(path), AnnotationTier.NONE),), side, side)


def test_naive_preserves_order(tmp_path):
    """NAIVE keeps every proposal, whatever its score, in detect's order."""
    dets = _random_detections(np.random.default_rng(6), 10)
    ps = annotate_pool(OracleModel([], dets), _flat_pool(tmp_path, 32), Provenance.NAIVE)
    assert ps.per_image == (("p0", tuple(dets)),)


def test_naive_keeps_a_proposal_scoring_exactly_the_pixel_threshold(tmp_path):
    """A zero model gives every pixel p = 0.5: one proposal, scoring 0.5."""
    model = DetectorModel(np.zeros(feature_dim(1)), 0.0)
    pool = _flat_pool(tmp_path, 16)
    proposals = model.detect(read_pgm(pool.records[0].image_path))
    assert [d.score for d in proposals] == [0.5]
    ps = annotate_pool(model, pool, Provenance.NAIVE)
    assert ps.per_image == (("p0", tuple(proposals)),) and ps.count == 1


@pytest.mark.parametrize("value", [float("nan"), -0.1, 1.5, "0.3"])
def test_strategy_config_refuses_an_iou_bar_outside_0_1(value):
    with pytest.raises(ValueError) as ei:
        StrategyConfig(filter_iou_threshold=value)
    assert str(ei.value) == f"filter_iou_threshold must lie in [0, 1], got {value!r}"


# --- filter ------------------------------------------------------------------


def test_filter_no_weak_boxes_rejects_everything():
    dets = [_rect_detection(16, 16, 1, 1, 5, 5, 0.9)]
    assert filter_select(dets, [], StrategyConfig()) == []


def test_filter_rejects_low_overlap():
    d = _rect_detection(32, 32, 1, 1, 5, 5, 0.9)
    far = AxisRect(20.0, 20.0, 30.0, 30.0)
    near_but_small = AxisRect(4.0, 4.0, 12.0, 12.0)  # IoU with [1,5)x[1,5) is 1/79
    cfg = StrategyConfig(filter_iou_threshold=0.3)
    assert filter_select([d], [far], cfg) == []
    assert rect_iou(d.box, near_but_small) < 0.3
    assert filter_select([d], [near_but_small], cfg) == []


def test_filter_keeps_joint_pass():
    d = _rect_detection(32, 32, 2, 2, 10, 10, 0.45)
    g = AxisRect(2.0, 2.0, 11.0, 10.0)
    assert rect_iou(d.box, g) > 0.3
    kept = filter_select([d], [g], StrategyConfig())
    assert kept == [d]


def test_filter_boundaries_are_strict():
    # IoU exactly at the threshold fails: [0,3)x[0,1) vs [0,10)x[0,1) is 0.3
    d2 = _rect_detection(32, 32, 0, 0, 3, 1, 0.9)
    g2 = AxisRect(0.0, 0.0, 10.0, 1.0)
    assert rect_iou(d2.box, g2) == 0.3
    assert filter_select([d2], [g2], StrategyConfig(filter_iou_threshold=0.3)) == []


def test_filter_subset_of_naive_at_same_threshold():
    """NAIVE keeps every candidate; FILTER keeps a subset of them, in order."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        dets = _random_detections(rng, int(rng.integers(0, 8)))
        boxes = _random_boxes(rng, int(rng.integers(0, 5)))
        cfg = StrategyConfig(filter_iou_threshold=float(rng.uniform()))
        rest = iter(dets)
        assert all(d in rest for d in filter_select(dets, boxes, cfg))  # a subsequence


def test_filter_matches_double_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        dets = _random_detections(rng, int(rng.integers(0, 8)))
        boxes = _random_boxes(rng, int(rng.integers(0, 6)))
        cfg = StrategyConfig(filter_iou_threshold=float(rng.uniform()))
        expect = []
        for d in dets:
            hit = False
            for g in boxes:
                if rect_iou(d.box, g) > cfg.filter_iou_threshold:
                    hit = True
            if hit:
                expect.append(d.box)
        got = [a.box for a in filter_select(dets, boxes, cfg)]
        assert got == expect


# --- local -------------------------------------------------------------------


def test_local_empty_boxes():
    model = OracleModel([BitMask(np.zeros((8, 8), dtype=bool))])
    assert local_generate(model, np.zeros((8, 8), np.uint8), []) == []


def test_local_one_annotation_per_box_bit_equal():
    px = np.zeros((16, 16), dtype=bool)
    px[2:6, 2:6] = True
    model = OracleModel([BitMask(px)])
    boxes = [AxisRect(2.0, 2.0, 6.0, 6.0), AxisRect(9.0, 9.0, 14.0, 13.0)]
    anns = local_generate(model, np.zeros((16, 16), np.uint8), boxes)
    assert len(anns) == len(boxes)
    assert [a.box for a in anns] == boxes
    assert all(a.score == 1.0 for a in anns)
    assert anns[1].mask.count == 0  # kept even though empty


def test_local_with_oracle_model_reaches_perfect_overlap():
    rng = np.random.default_rng(9)
    for _ in range(20):
        px = np.zeros((24, 24), dtype=bool)
        x0, y0 = int(rng.integers(0, 16)), int(rng.integers(0, 16))
        w, h = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        px[y0 : y0 + h, x0 : x0 + w] = True
        truth = BitMask(px)
        model = OracleModel([truth])
        anns = local_generate(
            model, np.zeros((24, 24), np.uint8), [AxisRect(x0, y0, x0 + w, y0 + h)]
        )
        assert len(anns) == 1
        assert mask_iou(anns[0].mask, truth) == 1.0


# --- shared properties ---------------------------------------------------------


def test_strategies_are_pure():
    rng = np.random.default_rng(10)
    dets = _random_detections(rng, 6)
    boxes = _random_boxes(rng, 4)
    cfg = StrategyConfig()
    assert filter_select(dets, boxes, cfg) == filter_select(dets, boxes, cfg)


def test_pseudo_set_requires_sorted_unique_ids():
    with pytest.raises(ValueError):
        PseudoSet(Provenance.NAIVE, 0, per_image=(("b", ()), ("a", ())))
    with pytest.raises(ValueError):
        PseudoSet(Provenance.NAIVE, 0, per_image=(("a", ()), ("a", ())))
    with pytest.raises(ValueError):
        PseudoSet(Provenance.NAIVE, -1, per_image=())
    ps = PseudoSet(Provenance.NAIVE, 0, per_image=(("a", ()), ("b", ())))
    assert ps.count == 0


def test_pseudo_set_stats():
    d1 = _rect_detection(16, 16, 1, 1, 5, 5, 0.8)
    d2 = _rect_detection(16, 16, 8, 8, 12, 12, 0.6)
    ps = PseudoSet(Provenance.NAIVE, 2, per_image=(("img", (d1, d2)),))
    assert ps.count == 2
    assert dict(ps.per_image)["img"] == (d1, d2)


# --- annotate_pool -------------------------------------------------------------


@pytest.fixture(scope="module")
def weak_world(tmp_path_factory):
    """A trained model plus a weak pool derived from pixel-true scenes."""
    root = tmp_path_factory.mktemp("pool")
    ds = generate_synthetic(SceneSpec(n_images=10, seed=13, **EASY), root)
    examples = _examples(ds, root)
    model = train(None, examples[:4], TrainConfig(seed=3))
    weak_pool = Dataset(
        records=tuple(downgrade_record(r, AnnotationTier.WEAK) for r in ds.records[4:]),
        image_width=64,
        image_height=64,
    )
    return root, ds, weak_pool, model


def test_annotate_pool_empty_pool():
    model = OracleModel([BitMask(np.zeros((8, 8), dtype=bool))])
    empty = Dataset(records=(), image_width=8, image_height=8)
    ps = annotate_pool(model, empty, Provenance.NAIVE)
    assert ps.per_image == () and ps.count == 0


def test_annotate_pool_tier_rules(weak_world):
    root, _, weak_pool, model = weak_world
    none_pool = Dataset(
        records=tuple(_to_none_tier(rec) for rec in weak_pool.records),
        image_width=weak_pool.image_width,
        image_height=weak_pool.image_height,
    )
    with pytest.raises(TierError):
        annotate_pool(model, none_pool, Provenance.FILTER)
    with pytest.raises(TierError):
        annotate_pool(model, none_pool, Provenance.LOCAL)
    # NAIVE accepts both NONE and WEAK
    annotate_pool(model, none_pool, Provenance.NAIVE)
    annotate_pool(model, weak_pool, Provenance.NAIVE)


def test_annotate_pool_rejects_strong_records(weak_world):
    root, ds, _, model = weak_world
    strong_pool = Dataset(records=ds.records[4:], image_width=64, image_height=64)
    for strat in Provenance:
        with pytest.raises(TierError):
            annotate_pool(model, strong_pool, strat)


def test_annotate_pool_local_count_conservation(weak_world):
    root, _, weak_pool, model = weak_world
    ps = annotate_pool(model, weak_pool, Provenance.LOCAL)
    assert ps.count == sum(len(r.rects) for r in weak_pool.records)
    assert [iid for iid, _ in ps.per_image] == sorted(r.image_id for r in weak_pool.records)
    labels = dict(ps.per_image)
    for rec in weak_pool.records:
        assert [a.box for a in labels[rec.image_id]] == list(rec.rects)


def test_annotate_pool_deterministic_and_parallel_equal(weak_world):
    root, _, weak_pool, model = weak_world
    a = annotate_pool(model, weak_pool, Provenance.FILTER)
    b = annotate_pool(model, weak_pool, Provenance.FILTER)
    c = annotate_pool(model, weak_pool, Provenance.FILTER, jobs=4)
    assert a == b == c


# --- serialization back to a dataset -------------------------------------------


def test_pseudo_to_dataset_round_trip(weak_world):
    root, ds, weak_pool, model = weak_world
    ps = annotate_pool(model, weak_pool, Provenance.LOCAL)
    assert ps.provenance is Provenance.LOCAL and ps.round_index == 0
    out = pseudo_to_dataset(weak_pool, ps)
    labels = dict(ps.per_image)
    assert len(out.records) == len(weak_pool.records)
    for rec, src in zip(out.records, weak_pool.records):
        assert rec.tier is AnnotationTier.STRONG
        assert rec.image_id == src.image_id
        assert rec.rects == () and rec.scores is None
        anns = labels[rec.image_id]
        if any(a.mask.count for a in anns):
            assert rec.provenance == "LOCAL"
            assert rec.round_index == 0
            assert len(rec.polygons) >= 1
            # outlines rasterize back to exactly the union of the masks
            union = np.zeros((64, 64), dtype=bool)
            for a in anns:
                union |= a.mask.pixels
            back = np.zeros((64, 64), dtype=bool)
            for p in rec.polygons:
                back |= rasterize(p, 64, 64).pixels
            assert mask_iou(BitMask(back), BitMask(union)) > 0.95


def test_pseudo_to_dataset_scores_align(weak_world):
    root, _, weak_pool, model = weak_world
    ps = annotate_pool(model, weak_pool, Provenance.NAIVE)
    out = pseudo_to_dataset(weak_pool, ps)
    for rec in out.records:
        if rec.scores is not None:
            assert len(rec.scores) == len(rec.polygons)
            assert all(0.0 <= s <= 1.0 for s in rec.scores)


def test_pseudo_to_dataset_empty_set_keeps_pool_as_negatives(weak_world):
    _, _, weak_pool, _ = weak_world
    empty = PseudoSet(
        Provenance.NAIVE, 1, per_image=tuple(sorted((r.image_id, ()) for r in weak_pool.records))
    )
    out = pseudo_to_dataset(weak_pool, empty)
    assert len(out.records) == len(weak_pool.records)
    for rec in out.records:
        assert rec.tier is AnnotationTier.STRONG
        assert rec.polygons == () and rec.scores is None


def test_a_pseudo_set_that_is_not_its_pools_is_refused(weak_world):
    _, _, weak_pool, _ = weak_world
    ids = sorted(r.image_id for r in weak_pool.records)
    missing = PseudoSet(Provenance.NAIVE, 1, per_image=tuple((i, ()) for i in ids[1:]))
    foreign = PseudoSet(
        Provenance.NAIVE, 1, per_image=tuple((i, ()) for i in sorted(ids + ["elsewhere"]))
    )
    images = [read_pgm(r.image_path) for r in weak_pool.records]
    for convert in (pseudo_to_dataset, partial(pseudo_examples, images=images)):
        with pytest.raises(UnknownImageError) as ei:
            convert(weak_pool, missing)
        assert str(ei.value) == f"{ids[0]}: pool image missing from the pseudo set"
        with pytest.raises(UnknownImageError) as ei:
            convert(weak_pool, foreign)
        assert str(ei.value) == "elsewhere: pseudo-set image not in the pool"
