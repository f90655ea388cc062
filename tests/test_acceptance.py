"""Release gate for the package: one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE PASS`` line on success; a failed
assertion is the corresponding FAIL line.  The heavyweight bootstrap
pattern check reuses the library defaults end to end, so this file is
also the reference recipe for reproducing the headline behaviour.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from textboot.cli import main
from textboot.data import (
    AnnotationRecord,
    AnnotationTier,
    Dataset,
    SceneSpec,
    generate_synthetic,
    load_dataset,
    read_pgm,
    split_dataset,
)
from textboot.detector import TrainConfig, load_model, train
from textboot.evaluation import (
    EvalConfig,
    brute_force_match,
    evaluate,
    greedy_match,
)
from textboot.geometry import (
    AxisRect,
    BitMask,
    Detection,
    Polygon,
    mask_iou,
    polygon_area,
    rasterize,
    rect_iou,
)
from textboot.orchestrator import (
    PipelineConfig,
    Strategy,
    cross_domain_annotate,
    dataset_examples,
    run_pipeline,
)
from textboot.strategies import (
    StrategyConfig,
    filter_select,
    local_generate,
    naive_select,
)


def _announce(name: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS: {name} ({detail})")


# ---------------------------------------------------------------------------
# geometry primitives vs. brute-force reference implementations
# ---------------------------------------------------------------------------


def _reference_rect_iou(a: AxisRect, b: AxisRect) -> float:
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union if union > 0.0 else 0.0


def _reference_point_in_polygon(px: float, py: float, verts) -> bool:
    inside = False
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xc:
                inside = not inside
    return inside


def _random_rect(rng, extent: float = 24.0) -> AxisRect:
    x0, y0 = rng.uniform(0.0, extent, 2)
    w, h = rng.uniform(0.3, extent / 2, 2)
    return AxisRect(x0, y0, x0 + w, y0 + h)


def _random_star_polygon(rng, width: int, height: int) -> Polygon:
    cx = rng.uniform(width * 0.35, width * 0.65)
    cy = rng.uniform(height * 0.35, height * 0.65)
    k = int(rng.integers(3, 9))
    # jittered even spacing keeps every angular gap under pi, so the ring
    # stays star-shaped about the centre and therefore free of crossings
    spacing = 2.0 * np.pi / k
    angles = (
        spacing * np.arange(k)
        + rng.uniform(-0.4, 0.4, k) * spacing
        + rng.uniform(0.0, 2.0 * np.pi)
    )
    r_max = min(cx, cy, width - cx, height - cy) - 1.0
    radii = rng.uniform(1.5, max(r_max, 1.6), k)
    pts = [(cx + r * np.cos(a), cy + r * np.sin(a)) for r, a in zip(radii, angles)]
    return Polygon.from_pairs(pts)


def test_geometry_primitives_match_reference_oracles():
    rng = np.random.default_rng(90210)
    t0 = time.time()

    for _ in range(400):  # box overlap: exact agreement with interval arithmetic
        a, b = _random_rect(rng), _random_rect(rng)
        assert rect_iou(a, b) == pytest.approx(_reference_rect_iou(a, b), abs=1e-12)
        assert rect_iou(a, a) == pytest.approx(1.0)

    for _ in range(300):  # mask overlap: exact agreement with index-set counting
        h, w = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        pa = rng.random((h, w)) < 0.4
        pb = rng.random((h, w)) < 0.4
        sa = {(r, c) for r in range(h) for c in range(w) if pa[r, c]}
        sb = {(r, c) for r in range(h) for c in range(w) if pb[r, c]}
        union = len(sa | sb)
        expected = (len(sa & sb) / union) if union else 0.0
        assert mask_iou(BitMask(pa), BitMask(pb)) == pytest.approx(expected, abs=1e-12)

    grid_w = grid_h = 14
    for _ in range(300):  # rasterization: per-pixel even-odd oracle, bit for bit
        poly = _random_star_polygon(rng, grid_w, grid_h)
        got = rasterize(poly, grid_w, grid_h).pixels
        verts = [(p.x, p.y) for p in poly.vertices]
        for r in range(grid_h):
            for c in range(grid_w):
                assert got[r, c] == _reference_point_in_polygon(c + 0.5, r + 0.5, verts)
        # area sanity: pixel count tracks the analytic area within a perimeter bound
        area = polygon_area(poly)
        perimeter = sum(
            float(np.hypot(verts[i][0] - verts[(i + 1) % len(verts)][0],
                           verts[i][1] - verts[(i + 1) % len(verts)][1]))
            for i in range(len(verts))
        )
        assert abs(int(got.sum()) - area) <= perimeter + 4.0

    elapsed = time.time() - t0
    assert elapsed < 10.0, f"geometry oracle suite took {elapsed:.1f}s"
    _announce("geometry oracle suite", f"1000 randomized cases in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# pseudo-annotation selection rules vs. direct re-implementations
# ---------------------------------------------------------------------------


class _StubMaskModel:
    """Deterministic stand-in exposing the duck-typed detector protocol."""

    def __init__(self, height: int = 24, width: int = 24):
        self.shape = (height, width)

    def detect(self, image):  # pragma: no cover - not exercised here
        return []

    def mask_for_box(self, image, box: AxisRect) -> BitMask:
        h, w = self.shape
        rows, cols = np.mgrid[0:h, 0:w]
        in_box = (
            (cols + 0.5 >= box.x_min)
            & (cols + 0.5 < box.x_max)
            & (rows + 0.5 >= box.y_min)
            & (rows + 0.5 < box.y_max)
        )
        speckle = ((rows * 31 + cols * 17 + int(box.x_min * 3)) % 5) < 2
        return BitMask(in_box & speckle)

    def masks_for_boxes(self, image, boxes) -> list[BitMask]:
        return [self.mask_for_box(image, b) for b in boxes]


def _random_detection(rng, extent: float = 24.0) -> Detection:
    box = _random_rect(rng, extent)
    h = w = int(extent)
    rows, cols = np.mgrid[0:h, 0:w]
    inside = (
        (cols + 0.5 >= box.x_min)
        & (cols + 0.5 < box.x_max)
        & (rows + 0.5 >= box.y_min)
        & (rows + 0.5 < box.y_max)
    )
    score = float(rng.random())
    if rng.random() < 0.15:  # exercise the decision boundaries explicitly
        score = float(rng.choice([0.4, 0.5, 0.3]))
    return Detection(box=box, mask=BitMask(inside), score=score)


def _ann_key(a) -> tuple:
    return (a.box.x_min, a.box.y_min, a.box.x_max, a.box.y_max, a.score)


def test_selection_strategies_match_reference_rules():
    rng = np.random.default_rng(777)
    cfg = StrategyConfig()
    t0 = time.time()

    for _ in range(400):  # confidence+overlap gate == double-loop reference
        cands = [_random_detection(rng) for _ in range(int(rng.integers(0, 9)))]
        weak = [_random_rect(rng) for _ in range(int(rng.integers(0, 6)))]
        got = filter_select(cands, weak, cfg)
        want = [
            d
            for d in cands
            if d.score > cfg.filter_score_threshold
            and max((rect_iou(d.box, b) for b in weak), default=0.0)
            > cfg.filter_iou_threshold
        ]
        assert len(got) == len(want)
        for ann, det in zip(got, want):
            assert ann.box == det.box and ann.score == det.score
            assert np.array_equal(ann.mask.pixels, det.mask.pixels)

    for _ in range(300):  # confidence-only rule: definition, monotonicity, subsets
        cands = [_random_detection(rng) for _ in range(int(rng.integers(0, 9)))]
        got_lo = naive_select(cands, replace(cfg, score_threshold=0.3))
        got_hi = naive_select(cands, replace(cfg, score_threshold=0.6))
        assert [_ann_key(a) for a in got_lo] == [
            (d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max, d.score)
            for d in cands
            if d.score > 0.3
        ]
        lo_keys = [_ann_key(a) for a in got_lo]
        assert all(_ann_key(a) in lo_keys for a in got_hi)

    model = _StubMaskModel()
    image = np.zeros(model.shape, dtype=np.uint8)
    for _ in range(300):  # box-conditioned generation: one mask per box, bit-equal
        weak = [_random_rect(rng, extent=20.0) for _ in range(int(rng.integers(0, 6)))]
        out = local_generate(model, image, weak)
        assert len(out) == len(weak)
        for ann, box in zip(out, weak):
            assert ann.box == box
            want = model.mask_for_box(image, box)
            assert np.array_equal(ann.mask.pixels, want.pixels)

    elapsed = time.time() - t0
    assert elapsed < 10.0, f"strategy oracle suite took {elapsed:.1f}s"
    _announce("strategy oracle suite", f"1000 randomized sets in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# greedy instance matching vs. exhaustive assignment
# ---------------------------------------------------------------------------


def test_greedy_matching_tracks_exhaustive_assignment():
    rng = np.random.default_rng(4242)
    t0 = time.time()
    worst_gap = 0

    for _ in range(500):
        n_det = int(rng.integers(0, 7))
        n_tr = int(rng.integers(0, 7))
        det_boxes = [_random_rect(rng, extent=16.0) for _ in range(n_det)]
        truth_boxes = [_random_rect(rng, extent=16.0) for _ in range(n_tr)]
        iou = np.array(
            [[rect_iou(d, t) for t in truth_boxes] for d in det_boxes], dtype=float
        ).reshape(n_det, n_tr)
        g_tp, g_fp, g_fn = greedy_match(iou, 0.5)
        b_tp, b_fp, b_fn = brute_force_match(iou, 0.5)
        worst_gap = max(worst_gap, b_tp - g_tp)
        assert b_tp - g_tp <= 1, f"greedy trailed optimal by {b_tp - g_tp}"
        assert g_tp + g_fp == n_det and g_tp + g_fn == n_tr
        assert b_tp + b_fp == n_det and b_tp + b_fn == n_tr

    # count identities through the full evaluation path
    w = h = 32
    for _ in range(40):
        truths = []
        for i in range(int(rng.integers(1, 4))):
            x0, y0 = rng.uniform(2, 18, 2)
            bw, bh = rng.uniform(3, 9, 2)
            truths.append(
                Polygon.from_pairs(
                    [(x0, y0), (x0 + bw, y0), (x0 + bw, y0 + bh), (x0, y0 + bh)]
                )
            )
        record = AnnotationRecord("img", "img.pgm", AnnotationTier.STRONG, polygons=tuple(truths))
        dets = []
        for _ in range(int(rng.integers(0, 5))):
            box = _random_rect(rng, extent=20.0)
            mask = rasterize(
                Polygon.from_pairs(
                    [
                        (box.x_min, box.y_min),
                        (box.x_max, box.y_min),
                        (box.x_max, box.y_max),
                        (box.x_min, box.y_max),
                    ]
                ),
                w,
                h,
            )
            dets.append(Detection(box=box, mask=mask, score=float(rng.random())))
        report = evaluate(
            {"img": tuple(dets)},
            Dataset((record,), w, h),
            EvalConfig(iou_threshold=0.5),
        )
        counts = report.per_image[0]
        assert counts.true_positives + counts.false_positives == len(dets)
        assert counts.true_positives + counts.false_negatives == len(truths)
        assert report.true_positives + report.false_positives == len(dets)
        assert report.true_positives + report.false_negatives == len(truths)

    elapsed = time.time() - t0
    assert elapsed < 30.0
    _announce(
        "evaluation matcher suite",
        f"500 tables, max optimality gap {worst_gap} TP, identities exact, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# end-to-end bootstrap pattern at desk scale
# ---------------------------------------------------------------------------


def test_bootstrap_rounds_recover_headline_ordering(tmp_path):
    t0 = time.time()
    train_ds = generate_synthetic(SceneSpec(n_images=200, seed=101), tmp_path / "train")
    test_ds = generate_synthetic(
        SceneSpec(n_images=50, seed=202, prefix="test"), tmp_path / "test"
    )
    strong, weak_pool = split_dataset(train_ds, 0.10, seed=7)
    _, strong_pool = split_dataset(train_ds, 0.10, seed=7, downgrade=None)

    eval_cfg = EvalConfig(iou_threshold=0.35)
    best: dict[str, float] = {}
    baseline = None
    for strategy in (Strategy.NAIVE, Strategy.FILTER, Strategy.LOCAL, Strategy.FULLY):
        pool = strong_pool if strategy is Strategy.FULLY else weak_pool
        cfg = PipelineConfig(strategy=strategy, rounds=3, eval_cfg=eval_cfg)
        result = run_pipeline(
            strong, pool, test_ds, cfg, tmp_path / f"run_{strategy.name}", jobs=4
        )
        assert not result.incomplete, result.failure
        scores = [r.f_measure for r in result.reports]
        best[strategy.name] = max(scores)
        if strategy is Strategy.NAIVE:
            baseline = scores[0]
        print(f"  {strategy.name:6s} F per round: {[round(s, 4) for s in scores]}")

    assert baseline is not None
    # (a) every pseudo-annotation strategy recovers at least +0.02 F over baseline
    for name in ("NAIVE", "FILTER", "LOCAL"):
        assert best[name] >= baseline + 0.02, (
            f"{name} best {best[name]:.4f} did not improve on baseline {baseline:.4f}"
        )
    # (b) soft quality ordering of the strategies
    assert best["LOCAL"] >= best["FILTER"] >= best["NAIVE"] - 0.02
    # (c) fully-supervised training stays an upper bound
    assert best["FULLY"] >= best["LOCAL"] - 0.02

    elapsed = time.time() - t0
    assert elapsed < 900.0, f"bootstrap pattern run took {elapsed:.0f}s"
    _announce(
        "bootstrap pattern",
        "baseline {:.3f} | naive {:.3f} | filter {:.3f} | local {:.3f} | fully {:.3f} in {:.0f}s".format(
            baseline, best["NAIVE"], best["FILTER"], best["LOCAL"], best["FULLY"], elapsed
        ),
    )


# ---------------------------------------------------------------------------
# cross-domain weak adaptation
# ---------------------------------------------------------------------------


def test_cross_domain_weak_adaptation_improves(tmp_path):
    t0 = time.time()
    thin = dict(stroke_width=(4, 5), illumination=(-8.0, 8.0))
    thick = dict(stroke_width=(7, 8), illumination=(10.0, 50.0))
    train_cfg = TrainConfig(patch_radius=4)
    eval_cfg = EvalConfig(iou_threshold=0.35)

    a_train = generate_synthetic(
        SceneSpec(n_images=60, seed=301, prefix="a", **thin), tmp_path / "a_train"
    )
    a_test = generate_synthetic(
        SceneSpec(n_images=20, seed=302, prefix="atest", **thin), tmp_path / "a_test"
    )
    a_strong, a_pool = split_dataset(a_train, 0.25, seed=5)
    result = run_pipeline(
        a_strong,
        a_pool,
        a_test,
        PipelineConfig(
            strategy=Strategy.LOCAL, rounds=1, train_cfg=train_cfg, eval_cfg=eval_cfg
        ),
        tmp_path / "a_run",
        jobs=4,
    )
    assert not result.incomplete, result.failure
    best_report = result.reports[result.best_round]
    model = load_model(best_report.model_path)

    b_train = generate_synthetic(
        SceneSpec(n_images=60, seed=401, prefix="b", **thick), tmp_path / "b_train"
    )
    b_test = generate_synthetic(
        SceneSpec(n_images=30, seed=402, prefix="btest", **thick), tmp_path / "b_test"
    )
    _, b_pool = split_dataset(b_train, 0.02, seed=9)

    pseudo_path = tmp_path / "b_pseudo.manifest"
    cross_domain_annotate(best_report.model_path, b_pool, pseudo_path, jobs=4)
    examples = dataset_examples(load_dataset(pseudo_path))
    tuned = train(
        model, examples, TrainConfig(epochs=12, seed=77, patch_radius=model.patch_radius)
    )

    def instance_f(m) -> float:
        dets = {
            rec.image_id: tuple(m.detect(read_pgm(rec.image_path)))
            for rec in b_test.records
        }
        return evaluate(dets, b_test, eval_cfg).f_measure

    before = instance_f(model)
    after = instance_f(tuned)
    assert after >= before + 0.02, (
        f"adaptation gained only {after - before:+.4f} (before {before:.4f}, after {after:.4f})"
    )
    _announce(
        "cross-domain adaptation",
        f"F {before:.4f} -> {after:.4f} ({after - before:+.4f}) in {time.time() - t0:.0f}s",
    )


# ---------------------------------------------------------------------------
# run artifacts are reproducible byte for byte
# ---------------------------------------------------------------------------


def _hash_run_artifacts(run_dir) -> dict[str, str]:
    out = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name != "run_manifest.json":
            rel = str(path.relative_to(run_dir))
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_repeated_cli_runs_are_byte_identical(tmp_path):
    scene_args = ["--n-images", "24", "--seed", "881"]
    assert main(["synth", "--out", str(tmp_path / "train"), *scene_args]) == 0
    assert (
        main(
            [
                "synth",
                "--out",
                str(tmp_path / "test"),
                "--n-images",
                "6",
                "--seed",
                "882",
                "--prefix",
                "test",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "split",
                str(tmp_path / "train" / "dataset.manifest"),
                "--out",
                str(tmp_path / "splits"),
                "--strong-fraction",
                "0.4",
                "--seed",
                "3",
            ]
        )
        == 0
    )

    run_args = [
        "run",
        "--strong",
        str(tmp_path / "splits" / "strong.manifest"),
        "--pool",
        str(tmp_path / "splits" / "rest.manifest"),
        "--test",
        str(tmp_path / "test" / "dataset.manifest"),
        "--strategy",
        "local",
        "--rounds",
        "1",
        "--eval-iou",
        "0.35",
        "--seed",
        "0",
    ]
    assert main([*run_args, "--out", str(tmp_path / "run_a")]) == 0
    assert main([*run_args, "--out", str(tmp_path / "run_b")]) == 0

    hashes_a = _hash_run_artifacts(tmp_path / "run_a")
    hashes_b = _hash_run_artifacts(tmp_path / "run_b")
    assert hashes_a and hashes_a == hashes_b
    models = [name for name in hashes_a if name.endswith("model.bin")]
    assert models, "runs must produce model files"
    _announce(
        "deterministic runs",
        f"{len(hashes_a)} artifacts byte-identical across repeated invocations",
    )
