"""Tests for the patch-logistic detector: training, inference, serialization."""

import tracemalloc
import warnings

import numpy as np
import pytest

from textboot.data import AnnotationTier, SceneSpec, generate_synthetic, read_pgm
from textboot.detector import (
    DetectorModel,
    TrainConfig,
    TrainExample,
    feature_dim,
    load_model,
    patch_features,
    save_model,
    _sigmoid,
    train,
)
from textboot.errors import (
    DegenerateBoxError,
    EmptyTrainingSetError,
    ModelFormatError,
    NonFiniteLossError,
)
from textboot.geometry import AxisRect, BitMask, mask_iou, rasterize
from textboot.strategies import local_generate

EASY = dict(
    width=64,
    height=64,
    noise_level=0.0,
    stroke_width=(7, 8),
    ribbon_lift=(100, 120),
    illumination=(-5, 5),
    distractors_per_image=(0, 0),
    texture_amp=4,
    pixel_noise=3,
)


def _examples(dataset, root):
    out = []
    for rec in dataset.records:
        img = read_pgm(root / rec.image_path)
        masks = tuple(
            rasterize(p, dataset.image_width, dataset.image_height) for p in rec.polygons
        )
        out.append(TrainExample(image=img, masks=masks))
    return out


def _truth_map(example):
    return example.label_map()


@pytest.fixture(scope="module")
def easy_world(tmp_path_factory):
    """Twelve easy scenes: eight for training, four held out."""
    root = tmp_path_factory.mktemp("easy")
    ds = generate_synthetic(SceneSpec(n_images=12, seed=7, **EASY), root)
    examples = _examples(ds, root)
    model = train(None, examples[:8], TrainConfig(seed=3, patch_radius=2))
    return ds, examples, model


# --- features ---------------------------------------------------------------


def test_patch_features_shape_and_range():
    img = np.random.default_rng(0).integers(0, 256, (9, 13)).astype(np.uint8)
    X = patch_features(img, radius=2)
    assert X.shape == (9 * 13, feature_dim(2))
    assert X.dtype == np.float32
    assert X.min() >= 0.0 and X.max() <= 1.0 + 1e-6


def test_patch_features_against_loop_oracle():
    rng = np.random.default_rng(42)
    img = rng.integers(0, 256, (7, 8)).astype(np.uint8)
    r = 1
    k = 2 * r + 1
    X = patch_features(img, r)
    padded = np.pad(img.astype(np.float32) / 255.0, r, mode="edge")
    for row in range(7):
        for col in range(8):
            win = padded[row : row + k, col : col + k].reshape(-1)
            expect = np.concatenate(
                [win, [win.mean(dtype=np.float32)], [4.0 * win.var(dtype=np.float32)]]
            )
            np.testing.assert_allclose(X[row * 8 + col], expect, rtol=0, atol=1e-6)


def test_patch_features_constant_image_has_zero_variance():
    img = np.full((6, 6), 130, dtype=np.uint8)
    X = patch_features(img, radius=2)
    np.testing.assert_allclose(X[:, -1], 0.0, atol=1e-7)
    np.testing.assert_allclose(X[:, :-2], 130 / 255.0, atol=1e-7)


# --- config / example validation --------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(score_threshold_for_proposals=1.0)
    with pytest.raises(ValueError):
        TrainConfig(patch_radius=0)
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)
    TrainConfig()  # defaults are valid


def test_train_example_rejects_mismatched_mask():
    img = np.zeros((8, 8), dtype=np.uint8)
    bad = BitMask(np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError):
        TrainExample(image=img, masks=(bad,))


def test_train_rejects_empty_example_list():
    with pytest.raises(EmptyTrainingSetError):
        train(None, [], TrainConfig())


def test_train_rejects_radius_mismatch_with_base(easy_world):
    _, examples, model = easy_world
    with pytest.raises(ValueError):
        train(model, examples[:1], TrainConfig(patch_radius=model.patch_radius + 1))


def test_train_raises_on_divergence():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    m = np.zeros((16, 16), dtype=bool)
    m[4:10, 4:10] = True
    ex = TrainExample(image=img, masks=(BitMask(m),))
    with np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with pytest.raises(NonFiniteLossError):
            train(None, [ex], TrainConfig(epochs=40, learning_rate=1e308, batch_size=64))


# --- trainer against the reference loop -------------------------------------


def _reference_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_train(base, examples, cfg):
    """The original training loop: one concatenated feature matrix, masked
    sigmoid, float32 batches multiplied into float64 parameters as mixed-dtype
    products (``X[idx] @ w``, ``xb.T @ g``), and a full-data loss pass per
    epoch as the divergence check."""
    X = np.concatenate([patch_features(ex.image, cfg.patch_radius) for ex in examples], axis=0)
    y = np.concatenate([ex.label_map().reshape(-1) for ex in examples]).astype(np.float64)
    if base is not None:
        w, b = base.weights.copy(), float(base.bias)
    else:
        w, b = np.zeros(feature_dim(cfg.patch_radius), dtype=np.float64), 0.0
    rng = np.random.default_rng(cfg.seed)
    n = y.size
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = X[idx]
            g = _reference_sigmoid(xb @ w + b) - y[idx]
            w -= cfg.learning_rate * (xb.T @ g) / idx.size
            b -= cfg.learning_rate * float(g.mean())
        z = X @ w + b
        loss = float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))
        if not np.isfinite(loss):
            raise NonFiniteLossError(f"training loss diverged to {loss}")
    return w, b


def test_sigmoid_matches_reference_bit_for_bit():
    z = np.array([
        -np.inf, -1000, -745.2, -1e-300, -0.0, 0.0, 1e-300, 36.8, 745.2, 1000, np.inf,
        np.nan, -np.nan,
    ])
    assert _sigmoid(z).tobytes() == _reference_sigmoid(z).tobytes()
    z = np.random.default_rng(5).normal(0.0, 30.0, 10_000)
    assert _sigmoid(z).tobytes() == _reference_sigmoid(z).tobytes()


@pytest.mark.parametrize(
    "case, cfg",
    [
        ("fresh", TrainConfig(epochs=3, seed=11)),
        ("fine-tune", TrainConfig(epochs=2, seed=5, patch_radius=2)),
        ("ragged batches", TrainConfig(epochs=2, seed=4, batch_size=1000)),
        ("radius 1", TrainConfig(epochs=3, seed=2, patch_radius=1)),
        ("one batch per epoch", TrainConfig(epochs=3, seed=6, batch_size=20_000)),
        ("benchmark batches", TrainConfig(epochs=2, seed=9, batch_size=512)),
    ],
)
def test_train_matches_reference_loop_bit_for_bit(easy_world, case, cfg):
    _, examples, model = easy_world
    base = model if case == "fine-tune" else None
    examples = examples[:3]
    n = sum(ex.image.size for ex in examples)
    if case == "ragged batches":
        assert n % cfg.batch_size, "want a short last batch"
    if case == "one batch per epoch":
        assert cfg.batch_size > n, "want the whole data in one batch"
    got = train(base, examples, cfg)
    w, b = _reference_train(base, examples, cfg)
    assert got.weights.tobytes() == w.tobytes()
    assert got.bias == b


def test_train_peak_memory_stays_near_the_feature_matrix(easy_world):
    _, examples, _ = easy_world
    cfg = TrainConfig(epochs=1, batch_size=512)
    x_bytes = sum(ex.image.size for ex in examples) * feature_dim(cfg.patch_radius) * 4
    tracemalloc.start()
    try:
        train(None, examples, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x_bytes, f"peak {peak} B is {peak / x_bytes:.2f}x the feature matrix"


# --- training quality --------------------------------------------------------


def test_heldout_pixel_accuracy_at_least_95_percent(easy_world):
    _, examples, model = easy_world
    correct = total = 0
    for ex in examples[8:]:
        pred = model.prob_map(ex.image) >= 0.5
        truth = _truth_map(ex)
        correct += int((pred == truth).sum())
        total += truth.size
    assert correct / total >= 0.95


def test_heldout_accuracy_beats_majority_class(easy_world):
    _, examples, model = easy_world
    hits = majority = total = 0
    for ex in examples[8:]:
        pred = model.prob_map(ex.image) >= 0.5
        truth = _truth_map(ex)
        hits += int((pred == truth).sum())
        majority += int((~truth).sum())
        total += truth.size
    assert hits > majority, "model must do better than predicting background everywhere"


def test_training_is_bit_deterministic(easy_world):
    _, examples, _ = easy_world
    cfg = TrainConfig(epochs=4, seed=11)
    a = train(None, examples[:3], cfg)
    b = train(None, examples[:3], cfg)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias == b.bias


def test_seed_changes_parameters(easy_world):
    _, examples, _ = easy_world
    a = train(None, examples[:3], TrainConfig(epochs=4, seed=1))
    b = train(None, examples[:3], TrainConfig(epochs=4, seed=2))
    assert a.weights.tobytes() != b.weights.tobytes()


def test_fine_tuning_updates_metadata(easy_world):
    _, examples, model = easy_world
    cfg = TrainConfig(epochs=2, seed=5, patch_radius=model.patch_radius)
    tuned = train(model, examples[:2], cfg)
    assert tuned.rounds_seen == model.rounds_seen + 1
    assert tuned.epochs_trained == model.epochs_trained + 2
    assert tuned.seed == 5


# --- detect ------------------------------------------------------------------


def test_detect_blank_image_returns_nothing(easy_world):
    _, _, model = easy_world
    blank = np.full((64, 64), 92, dtype=np.uint8)
    assert model.detect(blank) == []


def test_detect_single_instance_good_overlap(tmp_path):
    spec = SceneSpec(n_images=10, instances_per_image=(1, 1), seed=21, **EASY)
    ds = generate_synthetic(spec, tmp_path)
    examples = _examples(ds, tmp_path)
    model = train(None, examples[:8], TrainConfig(seed=3, patch_radius=2))
    for ex, rec in zip(examples[8:], ds.records[8:]):
        dets = model.detect(ex.image)
        assert len(dets) == 1
        truth = rasterize(rec.polygons[0], 64, 64)
        assert mask_iou(dets[0].mask, truth) >= 0.7


def test_detect_two_separated_instances(tmp_path):
    spec = SceneSpec(n_images=10, instances_per_image=(2, 2), seed=37, **EASY)
    ds = generate_synthetic(spec, tmp_path)
    examples = _examples(ds, tmp_path)
    model = train(None, examples[:8], TrainConfig(seed=3, patch_radius=2))
    checked = 0
    for ex, rec in zip(examples[8:], ds.records[8:]):
        if len(rec.polygons) != 2:
            continue
        dets = model.detect(ex.image)
        assert len(dets) == 2
        truths = [rasterize(p, 64, 64) for p in rec.polygons]
        best = [max(mask_iou(d.mask, t) for d in dets) for t in truths]
        assert min(best) >= 0.7
        checked += 1
    assert checked >= 1


def test_detect_scores_sorted_and_masks_disjoint(easy_world):
    _, examples, model = easy_world
    for ex in examples[8:]:
        dets = model.detect(ex.image)
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)
        seen = np.zeros_like(dets[0].mask.pixels) if dets else None
        for d in dets:
            assert not (seen & d.mask.pixels).any()
            seen |= d.mask.pixels
            assert d.mask.count >= model.min_component_pixels


def test_detect_respects_min_component_pixels(easy_world):
    _, examples, model = easy_world
    big = DetectorModel(
        weights=model.weights,
        bias=model.bias,
        patch_radius=model.patch_radius,
        score_threshold=model.score_threshold,
        min_component_pixels=10_000,
        rounds_seen=model.rounds_seen,
        epochs_trained=model.epochs_trained,
        seed=model.seed,
    )
    assert all(big.detect(ex.image) == [] for ex in examples[8:])


# --- mask_for_box ------------------------------------------------------------


def test_mask_for_full_image_box_equals_thresholded_map(easy_world):
    _, examples, model = easy_world
    ex = examples[8]
    h, w = ex.image.shape
    got = model.mask_for_box(ex.image, AxisRect(0, 0, w, h))
    expect = model.prob_map(ex.image) >= 0.5
    assert np.array_equal(got.pixels, expect)


def test_mask_for_box_stays_inside_box(easy_world):
    _, examples, model = easy_world
    rng = np.random.default_rng(0)
    ex = examples[9]
    h, w = ex.image.shape
    for _ in range(25):
        x0, y0 = rng.uniform(0, w - 2), rng.uniform(0, h - 2)
        box = AxisRect(x0, y0, x0 + rng.uniform(1, w - x0), y0 + rng.uniform(1, h - y0))
        m = model.mask_for_box(ex.image, box)
        rows, cols = np.nonzero(m.pixels)
        for r, c in zip(rows, cols):
            assert box.x_min <= c + 0.5 < box.x_max
            assert box.y_min <= r + 0.5 < box.y_max


def test_mask_for_box_grows_monotonically(easy_world):
    _, examples, model = easy_world
    ex = examples[10]
    inner = AxisRect(20, 20, 40, 40)
    outer = AxisRect(10, 10, 55, 55)
    small = model.mask_for_box(ex.image, inner).pixels
    large = model.mask_for_box(ex.image, outer).pixels
    assert not (small & ~large).any()


def test_mask_for_box_outside_image_is_empty(easy_world):
    _, examples, model = easy_world
    m = model.mask_for_box(examples[8].image, AxisRect(1000, 1000, 1010, 1010))
    assert m.count == 0
    assert m.pixels.shape == examples[8].image.shape


def test_mask_for_degenerate_box_raises(easy_world):
    _, examples, model = easy_world
    with pytest.raises(DegenerateBoxError):
        model.mask_for_box(examples[8].image, AxisRect(5, 5, 5, 9))


def test_masks_for_boxes_equal_one_box_masks(easy_world):
    _, examples, model = easy_world
    ex = examples[9]
    boxes = [
        AxisRect(0, 0, 64, 64),
        AxisRect(3.2, 7.9, 40.5, 30.1),
        AxisRect(20, 20, 21, 21),
        AxisRect(1000, 1000, 1010, 1010),
    ]
    got = model.masks_for_boxes(ex.image, boxes)
    assert len(got) == len(boxes)
    for mask, box in zip(got, boxes):
        assert mask.pixels.tobytes() == model.mask_for_box(ex.image, box).pixels.tobytes()


def test_masks_for_boxes_computes_one_prob_map_per_image(easy_world, monkeypatch):
    _, examples, model = easy_world
    calls = []
    prob_map = DetectorModel.prob_map

    def counted(self, image):
        calls.append(image)
        return prob_map(self, image)

    monkeypatch.setattr(DetectorModel, "prob_map", counted)
    assert model.masks_for_boxes(examples[8].image, []) == []
    assert calls == []
    boxes_per_image = [[AxisRect(0, 0, 10, 10), AxisRect(5, 5, 30, 40)], [], [AxisRect(2, 2, 9, 9)]]
    for ex, boxes in zip(examples[8:], boxes_per_image):
        assert len(local_generate(model, ex.image, boxes)) == len(boxes)
    assert len(calls) == sum(1 for boxes in boxes_per_image if boxes)


def test_masks_for_boxes_rejects_degenerate_box(easy_world):
    _, examples, model = easy_world
    with pytest.raises(DegenerateBoxError):
        model.masks_for_boxes(examples[8].image, [AxisRect(0, 0, 8, 8), AxisRect(5, 5, 5, 9)])


# --- save / load -------------------------------------------------------------


def test_save_load_round_trip_is_bit_exact(easy_world, tmp_path):
    _, _, model = easy_world
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.weights.tobytes() == model.weights.tobytes()
    assert back.bias == model.bias
    assert back.patch_radius == model.patch_radius
    assert back.score_threshold == model.score_threshold
    assert back.min_component_pixels == model.min_component_pixels
    assert back.rounds_seen == model.rounds_seen
    assert back.epochs_trained == model.epochs_trained
    assert back.seed == model.seed


def test_reloaded_model_detects_identically(easy_world, tmp_path):
    _, _, model = easy_world
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    rng = np.random.default_rng(99)
    for _ in range(10):
        img = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        a, b = model.detect(img), back.detect(img)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.score == db.score
            assert da.box == db.box
            assert da.mask == db.mask


def test_load_rejects_corrupt_files(easy_world, tmp_path):
    _, _, model = easy_world
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()

    short = tmp_path / "short.bin"
    short.write_bytes(blob[:10])
    with pytest.raises(ModelFormatError):
        load_model(short)

    cut = tmp_path / "cut.bin"
    cut.write_bytes(blob[:-8])
    with pytest.raises(ModelFormatError):
        load_model(cut)

    magic = tmp_path / "magic.bin"
    magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ModelFormatError):
        load_model(magic)

    version = tmp_path / "version.bin"
    version.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(ModelFormatError):
        load_model(version)

    padded = tmp_path / "padded.bin"
    padded.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ModelFormatError):
        load_model(padded)


def test_model_validates_parameter_count():
    with pytest.raises(ValueError):
        DetectorModel(
            weights=np.zeros(5),
            bias=0.0,
            patch_radius=2,
            score_threshold=0.5,
            min_component_pixels=8,
            rounds_seen=0,
            epochs_trained=0,
            seed=0,
        )
