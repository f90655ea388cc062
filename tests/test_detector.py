"""Tests for the patch-logistic detector: training, inference, serialization."""

import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

import textboot
from textboot.data import AnnotationTier, SceneSpec, generate_synthetic, read_pgm
from textboot import detector
from textboot.detector import (
    _HEADER,
    MIN_COMPONENT_PIXELS,
    SCORE_THRESHOLD,
    DetectorModel,
    TrainConfig,
    TrainExample,
    feature_dim,
    fill_features,
    load_model,
    patch_features,
    save_model,
    _sigmoid,
    train,
)
from textboot.errors import (
    EmptyTrainingSetError,
    ModelFormatError,
    NonFiniteLossError,
)
from textboot.geometry import AxisRect, BitMask, mask_iou, rasterize
from textboot.strategies import local_generate
from tests.oracles import per_label_detect

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


def _whole_image_features(image, radius):
    """The whole-image feature path that the blocked one replaced: one
    float32 matrix, with the variance from ``ndarray.var``."""
    k = 2 * radius + 1
    padded = np.pad(image.astype(np.float32) / 255.0, radius, mode="edge")
    raw = sliding_window_view(padded, (k, k)).reshape(image.shape[0], image.shape[1], k * k)
    mean = raw.mean(axis=2, dtype=np.float32)
    var = raw.var(axis=2, dtype=np.float32)
    feats = np.concatenate([raw, mean[..., None], 4.0 * var[..., None]], axis=2)
    return feats.reshape(-1, k * k + 2)


def _float64_prob_map(model, image):
    """The map from the float64 feature matrix of the whole image: windows
    of the edge-padded image, their ``mean`` and ``var``."""
    k = 2 * model.patch_radius + 1
    padded = np.pad(image.astype(np.float64) / 255.0, model.patch_radius, mode="edge")
    raw = sliding_window_view(padded, (k, k)).reshape(image.shape[0], image.shape[1], k * k)
    feats = np.concatenate(
        [raw, raw.mean(axis=2)[..., None], 4.0 * raw.var(axis=2)[..., None]], axis=2
    )
    return _sigmoid(feats @ model.weights + model.bias)


def _random_model(rng, radius, scale=1.0):
    return DetectorModel(
        weights=rng.normal(0.0, scale, feature_dim(radius)), bias=float(rng.normal(0.0, scale))
    )


# Odd widths, one-row-block heights, an image smaller than one block and
# one-pixel-wide images whose last block would hold a single pixel.
FEATURE_SHAPES = (
    (37, 53), (81, 79), (100, 3), (3, 100), (16, 16), (9, 80), (7, 5), (17, 1), (81, 1)
)


def assert_features_match_the_whole_image_path(root):
    """Bytes of ``patch_features`` against the float32 whole-image path, and
    ``prob_map`` within 1e-12 of the float64 one, on a synthetic 80x80 world
    and on random images of odd shapes.  Returns a digest of every
    probability map."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(23)
    ds = generate_synthetic(SceneSpec(n_images=3, seed=5), root)
    images = [read_pgm(root / rec.image_path) for rec in ds.records]
    images += [
        rng.integers(0, 256, shape, dtype=np.uint8) for shape in (*FEATURE_SHAPES, (1, 1), (2, 3))
    ]
    for image in images:
        for radius in (1, 2, 3):
            want = _whole_image_features(image, radius)
            assert patch_features(image, radius).tobytes() == want.tobytes(), (image.shape, radius)
            for scale in (0.1, 1.0, 10.0):
                model = _random_model(rng, radius, scale)
                got = model.prob_map(image)
                assert got.dtype == np.float64 and got.shape == image.shape
                np.testing.assert_allclose(
                    got, _float64_prob_map(model, image), rtol=0, atol=1e-12,
                    err_msg=str((image.shape, radius, scale)),
                )
                digest.update(got.tobytes())
    return digest.hexdigest()


def test_blocked_features_match_the_whole_image_path_bit_for_bit(tmp_path):
    assert_features_match_the_whole_image_path(tmp_path)


def _on_one_blas_thread(helper, root):
    """The stdout of ``helper(root)``, a function of this module, run in a
    subprocess with OPENBLAS_NUM_THREADS=1."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(textboot.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([src, repo]))
    code = (
        "import pathlib, sys\n"
        f"from tests.test_detector import {helper} as helper\n"
        "print(helper(pathlib.Path(sys.argv[1])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root)],
        cwd=repo, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_blocked_features_match_bit_for_bit_on_one_blas_thread(tmp_path):
    """Also checks that the maps do not depend on the BLAS thread count."""
    got = _on_one_blas_thread("assert_features_match_the_whole_image_path", tmp_path / "one")
    assert got == assert_features_match_the_whole_image_path(tmp_path / "default")


def test_prob_map_rejects_an_image_that_is_not_2d():
    model = _random_model(np.random.default_rng(0), 1)
    with pytest.raises(ValueError, match="2-d"):
        model.prob_map(np.zeros((4, 4, 3), dtype=np.uint8))


@pytest.mark.parametrize(
    "shape, bound", [((80, 80), 0.5), ((200, 300), 0.25)], ids=["80x80", "200x300"]
)
def test_prob_map_peak_memory_is_a_fraction_of_the_feature_matrix(shape, bound):
    radius = TrainConfig().patch_radius
    rng = np.random.default_rng(31)
    image = rng.integers(0, 256, shape, dtype=np.uint8)
    model = _random_model(rng, radius)
    x_bytes = image.size * feature_dim(radius) * 8  # the float64 feature matrix
    tracemalloc.start()
    try:
        model.prob_map(image)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * x_bytes, f"peak {peak} B is {peak / x_bytes:.2f}x the feature matrix"


# --- config / example validation --------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
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


def test_train_raises_on_divergence(monkeypatch):
    monkeypatch.setattr(detector, "LEARNING_RATE", 1e308)
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    m = np.zeros((16, 16), dtype=bool)
    m[4:10, 4:10] = True
    ex = TrainExample(image=img, masks=(BitMask(m),))
    with np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with pytest.raises(NonFiniteLossError):
            train(None, [ex], TrainConfig(epochs=40, batch_size=64))


# --- trainer against the reference loop -------------------------------------


def _reference_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_train(base, examples, cfg):
    """The training recipe written plainly: one concatenated float32 feature
    matrix, float32 batch products with scipy's ``expit``, the gradient as
    float64 partials of 8,192-row blocks summed in order, and float64
    parameters."""
    X = np.concatenate([patch_features(ex.image, cfg.patch_radius) for ex in examples], axis=0)
    y = np.concatenate([ex.label_map().reshape(-1) for ex in examples]).astype(np.float32)
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
            g = expit(xb @ w.astype(np.float32) + np.float32(b)) - y[idx]
            grad = sum(
                (g[k : k + 8192] @ xb[k : k + 8192]).astype(np.float64)
                for k in range(0, idx.size, 8192)
            )
            w = w - detector.LEARNING_RATE / idx.size * grad
            b = b - detector.LEARNING_RATE / idx.size * float(np.sum(g, dtype=np.float64))
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
        ("three-block batches", TrainConfig(epochs=1, seed=8, batch_size=20_000)),
    ],
)
def test_train_matches_reference_loop_bit_for_bit(easy_world, case, cfg):
    _, examples, model = easy_world
    base = model if case == "fine-tune" else None
    examples = examples[:8] if case == "three-block batches" else examples[:3]
    n = sum(ex.image.size for ex in examples)
    if case == "three-block batches":
        assert n - cfg.batch_size > 8192, "want a full batch of three blocks, then two"
    if case == "ragged batches":
        assert n % cfg.batch_size, "want a short last batch"
    if case == "one batch per epoch":
        assert cfg.batch_size > n, "want the whole data in one batch"
    got = train(base, examples, cfg)
    w, b = _reference_train(base, examples, cfg)
    assert got.weights.tobytes() == w.tobytes()
    assert got.bias == b


def trained_parameter_bytes(root):
    """The weights and bias that ``train`` gives on six 80x80 scenes (38,400
    rows) at batch sizes 512, 4096 and 20,000, one hex line per batch size.
    A 20,000-row batch is long enough for one sgemv to be split across BLAS
    threads."""
    ds = generate_synthetic(SceneSpec(n_images=6, seed=5), root)
    examples = _examples(ds, root)
    lines = []
    for batch in (512, 4096, 20_000):
        model = train(None, examples, TrainConfig(epochs=2, seed=1, batch_size=batch))
        lines.append(f"{batch} {model.weights.tobytes().hex()} {model.bias.hex()}")
    return "\n".join(lines)


def test_trained_bytes_match_on_one_blas_thread(tmp_path):
    """Training in-process, on the default BLAS thread count, gives the bytes
    of a one-thread run at every batch size."""
    got = _on_one_blas_thread("trained_parameter_bytes", tmp_path / "one")
    assert got.splitlines() == trained_parameter_bytes(tmp_path / "default").splitlines()


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


def test_given_features_train_the_bytes_of_built_ones(easy_world):
    """A prefix of a larger matrix, as a run passes round 0, trains the
    model that ``train``'s own rows train, fresh and fine-tuned."""
    _, examples, model = easy_world
    cfg = TrainConfig(epochs=2, seed=5, patch_radius=2)
    rows = sum(ex.image.size for ex in examples[:5])
    X = fill_features([ex.image for ex in examples[:6]], 2)
    for base in (None, model):
        got = train(base, examples[:5], cfg, X[:rows])
        want = train(base, examples[:5], cfg)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias == want.bias


@pytest.mark.parametrize("bad", ["one row short", "another radius", "float64", "strided"])
def test_train_refuses_features_of_another_shape_or_dtype(easy_world, bad):
    _, examples, _ = easy_world
    shape = (sum(ex.image.size for ex in examples[:2]), feature_dim(2))
    features = {
        "one row short": np.zeros((shape[0] - 1, shape[1]), dtype=np.float32),
        "another radius": np.zeros((shape[0], feature_dim(3)), dtype=np.float32),
        "float64": np.zeros(shape),
        "strided": np.zeros((2 * shape[0], shape[1]), dtype=np.float32)[::2],
    }[bad]
    with pytest.raises(ValueError) as exc:
        train(None, examples[:2], TrainConfig(epochs=1, patch_radius=2), features)
    assert str(shape) in str(exc.value) and str(features.shape) in str(exc.value)


def test_seed_changes_parameters(easy_world):
    _, examples, _ = easy_world
    a = train(None, examples[:3], TrainConfig(epochs=4, seed=1))
    b = train(None, examples[:3], TrainConfig(epochs=4, seed=2))
    assert a.weights.tobytes() != b.weights.tobytes()


def test_fine_tuning_updates_metadata(easy_world):
    """Fine-tuning starts from the base model's parameters, not from zero."""
    _, examples, model = easy_world
    cfg = TrainConfig(epochs=2, seed=5, patch_radius=model.patch_radius)
    tuned, scratch = train(model, examples[:2], cfg), train(None, examples[:2], cfg)
    assert tuned.weights.tobytes() != scratch.weights.tobytes()
    assert tuned.bias != scratch.bias


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
            assert d.mask.count >= MIN_COMPONENT_PIXELS


def _det_key(d):
    b = d.box
    return (b.x_min, b.y_min, b.x_max, b.y_max), d.mask.pixels.tobytes(), d.score


def test_detect_matches_the_per_label_full_frame_oracle(easy_world):
    """Boxes, masks and score bits, in order, against one full-frame pass
    per component: on held-out scenes and on random models over noise,
    whose maps break into many components, most below the size floor."""
    _, examples, model = easy_world
    rng = np.random.default_rng(41)
    cases = [(model, ex.image) for ex in examples[8:]]
    for _ in range(40):
        radius = int(rng.integers(1, 4))
        image = rng.integers(0, 256, (int(rng.integers(1, 60)), int(rng.integers(1, 60))))
        cases.append((_random_model(rng, radius, scale=0.5), image.astype(np.uint8)))
    n_dets = 0
    for m, image in cases:
        got = m.detect(image)
        want = per_label_detect(m.prob_map(image), SCORE_THRESHOLD, MIN_COMPONENT_PIXELS)
        assert [_det_key(d) for d in got] == [_det_key(d) for d in want]
        assert all(type(v) is float for d in got for v in _det_key(d)[0])
        n_dets += len(got)
    assert n_dets >= 100


def test_detect_respects_min_component_pixels(easy_world, monkeypatch):
    _, examples, model = easy_world
    assert any(model.detect(ex.image) for ex in examples[8:])
    monkeypatch.setattr(detector, "MIN_COMPONENT_PIXELS", 10_000)
    assert all(model.detect(ex.image) == [] for ex in examples[8:])


# --- mask_for_box ------------------------------------------------------------


def test_mask_for_full_image_box_equals_thresholded_map(easy_world, monkeypatch):
    _, examples, model = easy_world
    ex = examples[8]
    h, w = ex.image.shape
    for threshold in (SCORE_THRESHOLD, 0.8):  # LOCAL thresholds as detect does
        monkeypatch.setattr(detector, "SCORE_THRESHOLD", threshold)
        got = model.mask_for_box(ex.image, AxisRect(0, 0, w, h))
        expect = model.prob_map(ex.image) >= threshold
        assert np.array_equal(got.pixels, expect), threshold


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


def test_mask_for_degenerate_box_is_empty(easy_world):
    _, examples, model = easy_world
    for box in (AxisRect(5, 5, 5, 9), AxisRect(10, 20, 30, 20), AxisRect(7, 7, 7, 7)):
        m = model.mask_for_box(examples[8].image, box)
        assert m.count == 0
        assert m.pixels.shape == examples[8].image.shape


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


def test_masks_for_boxes_gives_a_degenerate_box_an_empty_mask(easy_world):
    _, examples, model = easy_world
    image = examples[8].image
    full, degenerate = model.masks_for_boxes(image, [AxisRect(0, 0, 64, 64), AxisRect(5, 5, 5, 9)])
    assert degenerate.count == 0
    assert full == model.mask_for_box(image, AxisRect(0, 0, 64, 64)) and full.count > 0


# --- save / load -------------------------------------------------------------


def test_save_load_round_trip_is_bit_exact(easy_world, tmp_path):
    _, _, model = easy_world
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    n_params = feature_dim(model.patch_radius) + 1
    assert _HEADER.size == 16
    assert path.read_bytes()[:16] == struct.pack("<4sIQ", b"TXBM", 3, n_params)
    assert path.stat().st_size == 16 + 8 * n_params
    assert back.weights.tobytes() == model.weights.tobytes()
    assert back.bias == model.bias
    assert back.patch_radius == model.patch_radius


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

    # Whole files in the earlier formats: the first also held the two
    # inference thresholds, the second the radius and the lineage.  Each is
    # refused by its version before anything else.
    n_params = feature_dim(model.patch_radius) + 1
    params = blob[_HEADER.size :]
    older = {
        1: struct.pack("<4sIIdIIIQQ", b"TXBM", 1, model.patch_radius, 0.5, 8, 0, 26, 0, n_params),
        2: struct.pack("<4sIIIIQQ", b"TXBM", 2, model.patch_radius, 0, 26, 0, n_params),
    }
    for version, header in older.items():
        old = tmp_path / f"v{version}.bin"
        old.write_bytes(header + params)
        with pytest.raises(ModelFormatError) as ei:
            load_model(old)
        assert str(ei.value) == f"{old}: unsupported model version {version}"

    # 50 parameters, with their 400 bytes: 49 weights fit no patch radius.
    no_radius = tmp_path / "no_radius.bin"
    no_radius.write_bytes(struct.pack("<4sIQ", b"TXBM", 3, 50) + bytes(8 * 50))
    with pytest.raises(ModelFormatError) as ei:
        load_model(no_radius)
    assert str(ei.value) == f"{no_radius}: 50 parameters fit no patch radius"


def test_load_names_the_file_of_a_header_the_model_refuses(easy_world, tmp_path):
    """Non-finite parameters fail as a ModelFormatError naming the file,
    not as a model that detects nothing."""
    _, _, model = easy_world
    path = tmp_path / "model.bin"
    save_model(model, path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", float("nan")))  # the bias
    with pytest.raises(ModelFormatError) as ei:
        load_model(bad)
    assert str(ei.value) == f"{bad}: model parameters must be finite"


def test_model_validates_parameter_count():
    """The weight count is ``feature_dim(r)`` for some r >= 1, which is the radius."""
    for n in (0, 1, 5, 10, 12, 50):
        with pytest.raises(ValueError, match=rf"^{n} weights fit no patch radius >= 1$"):
            DetectorModel(weights=np.zeros(n), bias=0.0)
    for r in range(1, 7):
        assert DetectorModel(weights=np.zeros(feature_dim(r)), bias=0.0).patch_radius == r
