"""Tests for instance matching and micro-averaged P/R/F reporting."""

import numpy as np
import pytest

from textboot.data import AnnotationRecord, AnnotationTier, Dataset
from textboot.errors import (
    DimensionMismatchError,
    TierError,
    TooManyInstancesError,
    UnknownImageError,
)
from textboot.evaluation import (
    EvalConfig,
    EvalReport,
    brute_force_match,
    evaluate,
    greedy_match,
)
from textboot.geometry import AxisRect, Detection, Polygon, mask_bbox, rasterize

W = H = 32


def _rect_poly(x0, y0, x1, y1):
    return Polygon.from_pairs([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def _det_for(poly, score=0.9):
    mask = rasterize(poly, W, H)
    return Detection(box=mask_bbox(mask), mask=mask, score=score)


def _truth(*recs):
    return Dataset(records=tuple(recs), image_width=W, image_height=H)


def _rec(image_id, polys):
    return AnnotationRecord(
        image_id=image_id,
        image_path=f"{image_id}.pgm",
        tier=AnnotationTier.STRONG,
        polygons=tuple(polys),
    )


# --- config / report ----------------------------------------------------------


def test_config_validates_threshold():
    with pytest.raises(ValueError):
        EvalConfig(iou_threshold=0.0)
    with pytest.raises(ValueError):
        EvalConfig(iou_threshold=1.0)
    EvalConfig(iou_threshold=0.5)


def test_report_text_is_stable():
    r = EvalReport(0.5, 0.25, 1 / 3, 1, 1, 3)
    text = r.to_text()
    assert "precision=0.5" in text
    assert "recall=0.25" in text
    assert text.endswith("\n")
    assert r.to_text() == text


# --- matching primitives --------------------------------------------------------


def test_greedy_empty_inputs():
    assert greedy_match(np.zeros((0, 0)), 0.5) == (0, 0, 0)
    assert greedy_match(np.zeros((2, 0)), 0.5) == (0, 2, 0)
    assert greedy_match(np.zeros((0, 3)), 0.5) == (0, 0, 3)


def test_greedy_simple_table():
    iou = np.array([[0.9, 0.1], [0.8, 0.6]])
    assert greedy_match(iou, 0.5) == (2, 0, 0)
    # first row takes the shared best column, second row falls below threshold
    iou = np.array([[0.9, 0.1], [0.8, 0.2]])
    assert greedy_match(iou, 0.5) == (1, 1, 1)


def test_greedy_below_threshold_does_not_consume_truth():
    # row 0 prefers column 0 but below threshold: column 0 must stay
    # available for row 1
    iou = np.array([[0.4, 0.0], [0.6, 0.0]])
    assert greedy_match(iou, 0.5) == (1, 1, 1)


def test_brute_force_trivial_cases():
    assert brute_force_match(np.zeros((0, 0)), 0.5) == (0, 0, 0)
    assert brute_force_match(np.array([[0.7]]), 0.5) == (1, 0, 0)
    assert brute_force_match(np.array([[0.3]]), 0.5) == (0, 1, 1)


def test_brute_force_beats_greedy_on_adversarial_table():
    # greedy row order takes the shared column and strands the second row
    iou = np.array([[0.9, 0.8], [0.9, 0.0]])
    assert greedy_match(iou, 0.5) == (1, 1, 1)
    assert brute_force_match(iou, 0.5) == (2, 0, 0)


def test_brute_force_cap():
    with pytest.raises(TooManyInstancesError):
        brute_force_match(np.zeros((9, 2)), 0.5)
    with pytest.raises(TooManyInstancesError):
        brute_force_match(np.zeros((2, 9)), 0.5)


def test_greedy_within_one_of_brute_force_on_random_tables():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n_det = int(rng.integers(0, 6))
        n_truth = int(rng.integers(0, 6))
        iou = rng.uniform(size=(n_det, n_truth))
        g_tp, g_fp, g_fn = greedy_match(iou, 0.5)
        b_tp, b_fp, b_fn = brute_force_match(iou, 0.5)
        assert b_tp - 1 <= g_tp <= b_tp
        assert g_tp + g_fp == n_det and g_tp + g_fn == n_truth
        assert b_tp + b_fp == n_det and b_tp + b_fn == n_truth


def test_raising_threshold_never_increases_tp():
    rng = np.random.default_rng(18)
    for _ in range(100):
        iou = rng.uniform(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        t1, t2 = sorted(rng.uniform(size=2))
        assert greedy_match(iou, t2)[0] <= greedy_match(iou, t1)[0]


# --- evaluate -------------------------------------------------------------------


def test_perfect_detections_score_one():
    polys = [_rect_poly(2, 2, 10, 8), _rect_poly(15, 15, 28, 26)]
    truth = _truth(_rec("a", polys))
    dets = {"a": [_det_for(p) for p in polys]}
    rep = evaluate(dets, truth)
    assert (rep.precision, rep.recall, rep.f_measure) == (1.0, 1.0, 1.0)
    assert rep.true_positives == 2 and rep.false_positives == 0 and rep.false_negatives == 0


def test_half_recall_arithmetic():
    polys = [_rect_poly(2, 2, 10, 8), _rect_poly(15, 15, 28, 26)]
    truth = _truth(_rec("a", polys))
    rep = evaluate({"a": [_det_for(polys[0])]}, truth)
    assert rep.precision == 1.0
    assert rep.recall == 0.5
    assert rep.f_measure == pytest.approx(2 / 3)


def test_no_detections_on_nonempty_truth():
    truth = _truth(_rec("a", [_rect_poly(2, 2, 10, 8)]))
    rep = evaluate({}, truth)
    assert (rep.precision, rep.recall, rep.f_measure) == (0.0, 0.0, 0.0)
    assert rep.false_negatives == 1


def test_count_identities_and_harmonic_identity():
    rng = np.random.default_rng(19)
    polys_a = [_rect_poly(2, 2, 10, 8), _rect_poly(15, 15, 28, 26), _rect_poly(2, 20, 9, 30)]
    truth = _truth(_rec("a", polys_a), _rec("b", [_rect_poly(5, 5, 20, 12)]))
    dets = {
        "a": [_det_for(polys_a[0], 0.9), _det_for(_rect_poly(20, 2, 28, 9), 0.7)],
        "b": [_det_for(_rect_poly(5, 5, 20, 12), 0.8), _det_for(_rect_poly(1, 20, 6, 28), 0.6)],
    }
    rep = evaluate(dets, truth)
    n_truth = sum(len(r.polygons) for r in truth.records)
    n_det = sum(len(v) for v in dets.values())
    assert rep.true_positives + rep.false_negatives == n_truth
    assert rep.true_positives + rep.false_positives == n_det
    p, r = rep.precision, rep.recall
    assert rep.f_measure == (2 * p * r / (p + r) if p + r else 0.0)
    assert sum(c.true_positives for c in rep.per_image) == rep.true_positives


def test_image_order_invariance():
    polys = [_rect_poly(2, 2, 10, 8)]
    rec_a, rec_b = _rec("a", polys), _rec("b", polys)
    dets = {"a": [_det_for(polys[0])], "b": []}
    r1 = evaluate(dets, _truth(rec_a, rec_b))
    r2 = evaluate(dict(reversed(list(dets.items()))), _truth(rec_b, rec_a))
    assert r1 == r2
    assert [c.image_id for c in r1.per_image] == ["a", "b"]


def test_empty_truth_with_detections_gives_zero_precision():
    truth = _truth(_rec("a", []))
    rep = evaluate({"a": [_det_for(_rect_poly(2, 2, 10, 8))]}, truth)
    assert rep.precision == 0.0 and rep.recall == 0.0
    assert rep.false_positives == 1 and rep.false_negatives == 0


def test_matching_uses_masks_not_boxes():
    # curved-ish truth: L-shape whose bbox is [10,20)x[10,20)
    ell = Polygon.from_pairs([(10, 10), (20, 10), (20, 12), (12, 12), (12, 20), (10, 20)])
    truth = _truth(_rec("a", [ell]))
    # detection mask = the bbox block: box IoU 1.0, mask IoU 0.36
    det = _det_for(_rect_poly(10, 10, 20, 20))
    assert evaluate({"a": [det]}, truth, EvalConfig()).f_measure == 0.0


def test_evaluate_rejects_non_strong_truth():
    rec = AnnotationRecord(
        image_id="a",
        image_path="a.pgm",
        tier=AnnotationTier.WEAK,
        rects=(AxisRect(0, 0, 5, 5),),
    )
    with pytest.raises(TierError):
        evaluate({}, _truth(rec))


def test_evaluate_rejects_unknown_image_ids():
    truth = _truth(_rec("a", []))
    with pytest.raises(UnknownImageError, match=r"^ids not in the truth \(1\): zz$"):
        evaluate({"zz": []}, truth)
    unknown = {f"z{i}": [] for i in range(7)}
    with pytest.raises(UnknownImageError, match=r"\(7\): z0, z1, z2, z3, z4$"):
        evaluate(unknown, truth)


def test_evaluate_rejects_wrong_mask_dims():
    truth = _truth(_rec("a", [_rect_poly(2, 2, 10, 8)]))
    small = rasterize(_rect_poly(1, 1, 3, 3), 16, 16)
    det = Detection(box=mask_bbox(small), mask=small, score=0.5)
    with pytest.raises(DimensionMismatchError):
        evaluate({"a": [det]}, truth)


def test_score_order_drives_matching():
    # two detections overlap the same truth; the higher-scoring one wins it
    target = _rect_poly(4, 4, 16, 16)
    truth = _truth(_rec("a", [target]))
    good = _det_for(target, score=0.9)
    also = _det_for(_rect_poly(4, 4, 16, 14), score=0.95)  # IoU 10/12 vs truth
    rep = evaluate({"a": [good, also]}, truth)
    assert rep.true_positives == 1 and rep.false_positives == 1
