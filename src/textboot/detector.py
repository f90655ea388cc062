"""Trainable toy text detector: logistic regression over local patches.

Each pixel is classified from the raw intensities of its (2r+1)^2
neighbourhood plus the window mean and variance.  Proposals are
4-connected components of the thresholded probability map.  The point of
this detector is not accuracy for its own sake: it is the smallest model
that reliably improves when more (pseudo-)annotated images are added,
which is what the bootstrapping pipeline exercises.  Anything implementing
the same protocol can be dropped in behind it:

* ``train`` / ``save_model`` / ``load_model`` — fit and persist a model;
* ``detect(image)`` — scored instance proposals (NAIVE and FILTER);
* ``masks_for_boxes(image, boxes)`` — one mask per weak rectangle (LOCAL),
  with ``mask_for_box(image, box)`` as its one-box form.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .errors import DegenerateBoxError, EmptyTrainingSetError, ModelFormatError, NonFiniteLossError
from .geometry import FOUR_CONNECTED, AxisRect, BitMask, Detection, mask_bbox

MASK_PIXEL_THRESHOLD = 0.5  # symmetric point of the BCE loss; not configurable

_MAGIC = b"TXBM"
_VERSION = 1
_HEADER = struct.Struct("<4sIIdIIIQQ")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 26
    learning_rate: float = 2.0
    batch_size: int = 4096
    seed: int = 0
    score_threshold_for_proposals: float = 0.5
    min_component_pixels: int = 8
    patch_radius: int = 3

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.score_threshold_for_proposals < 1.0:
            raise ValueError("score_threshold_for_proposals must lie in (0, 1)")
        if self.min_component_pixels < 1:
            raise ValueError("min_component_pixels must be >= 1")
        if self.patch_radius < 1:
            raise ValueError("patch_radius must be >= 1")


@dataclass(frozen=True)
class TrainExample:
    """One training image with its positive instance masks."""

    image: np.ndarray
    masks: tuple[BitMask, ...]

    def __post_init__(self) -> None:
        img = np.asarray(self.image)
        if img.ndim != 2 or img.dtype != np.uint8:
            raise ValueError(f"image must be a 2-d uint8 array, got {img.dtype} {img.shape}")
        for m in self.masks:
            if m.pixels.shape != img.shape:
                raise ValueError("instance masks must match the image shape")
        object.__setattr__(self, "image", img)

    def label_map(self) -> np.ndarray:
        out = np.zeros(self.image.shape, dtype=bool)
        for m in self.masks:
            out |= m.pixels
        return out


def patch_features(image: np.ndarray, radius: int) -> np.ndarray:
    """Per-pixel feature rows, shape (H*W, (2r+1)^2 + 2), float32 in ~[0,1]."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-d, got shape {img.shape}")
    k = 2 * radius + 1
    scaled = img.astype(np.float32) / 255.0
    padded = np.pad(scaled, radius, mode="edge")
    win = sliding_window_view(padded, (k, k))
    raw = win.reshape(img.shape[0], img.shape[1], k * k)
    mean = raw.mean(axis=2, dtype=np.float32)
    var = raw.var(axis=2, dtype=np.float32)
    feats = np.concatenate([raw, mean[..., None], 4.0 * var[..., None]], axis=2)
    return feats.reshape(-1, k * k + 2)


def feature_dim(radius: int) -> int:
    return (2 * radius + 1) ** 2 + 2


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; min(z, -z) rather than -abs(z) keeps a NaN's sign.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class DetectorModel:
    """Immutable trained model plus its inference thresholds."""

    weights: np.ndarray
    bias: float
    patch_radius: int
    score_threshold: float
    min_component_pixels: int
    rounds_seen: int
    epochs_trained: int
    seed: int

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size != feature_dim(self.patch_radius):
            raise ValueError(
                f"weights must have {feature_dim(self.patch_radius)} entries for radius "
                f"{self.patch_radius}, got shape {w.shape}"
            )
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def prob_map(self, image: np.ndarray) -> np.ndarray:
        """Per-pixel text probability, float64, same shape as the image."""
        X = patch_features(image, self.patch_radius)
        z = X @ self.weights + self.bias
        return _sigmoid(z).reshape(np.asarray(image).shape)

    def detect(self, image: np.ndarray) -> list[Detection]:
        """Threshold + connected components; sorted by descending score."""
        probs = self.prob_map(image)
        fired = probs >= self.score_threshold
        labels, n = ndimage.label(fired, structure=FOUR_CONNECTED)
        dets: list[Detection] = []
        for lab in range(1, n + 1):
            comp = labels == lab
            if int(comp.sum()) < self.min_component_pixels:
                continue
            mask = BitMask(comp)
            dets.append(
                Detection(box=mask_bbox(mask), mask=mask, score=float(probs[comp].mean()))
            )
        dets.sort(key=lambda d: -d.score)
        return dets

    def masks_for_boxes(self, image: np.ndarray, boxes: list[AxisRect]) -> list[BitMask]:
        """Per box, probability >= 0.5 inside it and everything else unset.

        The probability map is computed once for all boxes, and not at all
        when there are none.
        """
        for box in boxes:
            if box.area <= 0.0:
                raise DegenerateBoxError(f"cannot annotate a zero-area box: {box}")
        if not boxes:
            return []
        probs = self.prob_map(image)
        return [_mask_in_box(probs, box) for box in boxes]

    def mask_for_box(self, image: np.ndarray, box: AxisRect) -> BitMask:
        """The one-box form of ``masks_for_boxes``."""
        return self.masks_for_boxes(image, [box])[0]


def _mask_in_box(probs: np.ndarray, box: AxisRect) -> BitMask:
    h, w = probs.shape
    keep = np.zeros((h, w), dtype=bool)
    r0, r1 = _center_span(box.y_min, box.y_max, h)
    c0, c1 = _center_span(box.x_min, box.x_max, w)
    if r0 < r1 and c0 < c1:
        keep[r0:r1, c0:c1] = probs[r0:r1, c0:c1] >= MASK_PIXEL_THRESHOLD
    return BitMask(keep)


def _center_span(lo: float, hi: float, limit: int) -> tuple[int, int]:
    """Index range of pixels whose centers fall inside [lo, hi)."""
    first = max(0, int(np.ceil(lo - 0.5)))
    last = min(limit, int(np.ceil(hi - 0.5)))
    return first, last


def train(
    base: DetectorModel | None, examples: list[TrainExample], cfg: TrainConfig
) -> DetectorModel:
    """Mini-batch gradient descent on per-pixel binary cross-entropy.

    Deterministic for a fixed (seed, data, config).  When ``base`` is
    given, optimization starts from its parameters (fine-tuning).  Raises
    NonFiniteLossError when an epoch leaves a parameter non-finite.
    """
    if not examples:
        raise EmptyTrainingSetError("training requires at least one example")
    if base is not None and cfg.patch_radius != base.patch_radius:
        raise ValueError(
            f"patch radius {cfg.patch_radius} differs from the base model's {base.patch_radius}"
        )
    radius = cfg.patch_radius

    # Filled in place: concatenating per-image blocks would hold X twice.
    X = np.empty((sum(ex.image.size for ex in examples), feature_dim(radius)), dtype=np.float32)
    row = 0
    for ex in examples:
        X[row : row + ex.image.size] = patch_features(ex.image, radius)
        row += ex.image.size
    y = np.concatenate([ex.label_map().reshape(-1) for ex in examples]).astype(np.float64)

    w = base.weights.copy() if base is not None else np.zeros(feature_dim(radius), dtype=np.float64)
    b = float(base.bias) if base is not None else 0.0

    rng = np.random.default_rng(cfg.seed)
    n = y.size
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            # numpy's own f32->f64 casts, made once; an F-ordered xb.T would change the bytes.
            xb = X.take(idx, axis=0).astype(np.float64)
            z = xb @ w + b
            g = _sigmoid(z) - y.take(idx)
            w -= cfg.learning_rate * (np.ascontiguousarray(xb.T) @ g) / idx.size
            b -= cfg.learning_rate * float(g.mean())
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise NonFiniteLossError(
                f"training diverged: non-finite parameters after epoch {epoch + 1}"
            )

    return DetectorModel(
        weights=w,
        bias=b,
        patch_radius=radius,
        score_threshold=cfg.score_threshold_for_proposals,
        min_component_pixels=cfg.min_component_pixels,
        rounds_seen=base.rounds_seen + 1 if base is not None else 0,
        epochs_trained=(base.epochs_trained if base is not None else 0) + cfg.epochs,
        seed=cfg.seed,
    )


def save_model(model: DetectorModel, path) -> None:
    """Binary layout: header struct then little-endian float64 parameters.

    Header: magic 'TXBM', version u32, patch_radius u32, score_threshold
    f64, min_component_pixels u32, rounds_seen u32, epochs_trained u32,
    seed u64, n_params u64.  Parameters are the weight vector with the
    bias appended.
    """
    params = np.concatenate([model.weights, [model.bias]]).astype("<f8")
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        model.patch_radius,
        model.score_threshold,
        model.min_component_pixels,
        model.rounds_seen,
        model.epochs_trained,
        model.seed,
        params.size,
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(params.tobytes())


def load_model(path) -> DetectorModel:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size:
        raise ModelFormatError(f"{path}: file shorter than the model header")
    magic, version, radius, thr, min_px, rounds, epochs, seed, n_params = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if magic != _MAGIC:
        raise ModelFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {version}")
    if n_params != feature_dim(radius) + 1:
        raise ModelFormatError(
            f"{path}: {n_params} parameters inconsistent with patch radius {radius}"
        )
    body = blob[_HEADER.size :]
    if len(body) != 8 * n_params:
        raise ModelFormatError(
            f"{path}: truncated parameter block ({len(body)} bytes for {n_params} params)"
        )
    params = np.frombuffer(body, dtype="<f8")
    return DetectorModel(
        weights=params[:-1].astype(np.float64),
        bias=float(params[-1]),
        patch_radius=radius,
        score_threshold=thr,
        min_component_pixels=min_px,
        rounds_seen=rounds,
        epochs_trained=epochs,
        seed=seed,
    )
