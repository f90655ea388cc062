"""Trainable toy text detector: logistic regression over local patches.

Each pixel is classified from the raw intensities of its (2r+1)^2
neighbourhood plus the window mean and variance.  Training builds those
features as rows; inference needs only their weighted sum, which is one
correlation of the image plus two box filters.  Proposals are
4-connected components of the probability map thresholded at the fixed
``SCORE_THRESHOLD``, so a model is its parameters (weights and bias).  The
point of this detector is not accuracy for its own sake: it is the
smallest model the bootstrapping pipeline can train, annotate with and
score.  Trained on more (pseudo-)annotated images it also takes more SGD
steps, and its gains in the bootstrap rounds come mostly from those steps:
at equal steps, extra labelled images move its F little.  Anything
implementing the same protocol can be dropped in behind it:

* ``train`` / ``save_model`` / ``load_model`` — fit and persist a model;
* ``detect(image)`` — scored instance proposals (NAIVE and FILTER).  NAIVE
  keeps every proposal, so ``detect`` returns only what it vouches for;
* ``masks_for_boxes(image, boxes)`` — one mask per weak rectangle (LOCAL),
  with ``mask_for_box(image, box)`` as its one-box form.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage
from scipy.special import expit

from .errors import EmptyTrainingSetError, ModelFormatError, NonFiniteLossError, require_integers
from .geometry import FOUR_CONNECTED, AxisRect, BitMask, Detection, center_span

# The same for every model: a pixel is text when p >= the threshold (the
# symmetric point of the BCE loss), and a proposal needs 8 such pixels.
SCORE_THRESHOLD = 0.5
MIN_COMPONENT_PIXELS = 8
# Image rows per feature block of ``patch_features``: the float32 variance
# temporaries stay a few rows' worth, not the image's.
_BLOCK_ROWS = 8
# Batch rows per float32 gradient product, summed in float64 in order: a
# longer sgemv splits its rows across BLAS threads and its bytes vary.
_GRAD_ROWS = 8192
# The SGD step on a batch's mean gradient, the same for every model.
LEARNING_RATE = 2.0

_MAGIC = b"TXBM"
_VERSION = 3
_HEADER = struct.Struct("<4sIQ")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 26
    batch_size: int = 4096
    seed: int = 0
    patch_radius: int = 3

    def __post_init__(self) -> None:
        require_integers(self, "epochs", "batch_size", "seed", "patch_radius")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def patch_features(image: np.ndarray, radius: int, out: np.ndarray | None = None) -> np.ndarray:
    """Per-pixel feature rows (H*W, (2r+1)^2 + 2) in ~[0,1]: ``out`` if given, else new float32."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-d, got shape {img.shape}")
    k = 2 * radius + 1
    win = sliding_window_view(np.pad(img.astype(np.float32) / 255.0, radius, mode="edge"), (k, k))
    h, w = img.shape
    out = np.empty((h * w, feature_dim(radius)), dtype=np.float32) if out is None else out
    for r0 in range(0, h, _BLOCK_ROWS):
        raw = win[r0 : r0 + _BLOCK_ROWS].reshape(-1, k * k)
        rows = out[r0 * w : (r0 + _BLOCK_ROWS) * w]
        mean = raw.mean(axis=1, dtype=np.float32)
        dev = raw - mean[:, None]  # ndarray.var's own steps, reusing the mean
        dev *= dev
        rows[:, : k * k] = raw
        rows[:, k * k] = mean
        rows[:, k * k + 1] = 4.0 * dev.mean(axis=1, dtype=np.float32)
    return out


def feature_dim(radius: int) -> int:
    return (2 * radius + 1) ** 2 + 2


def _radius_of(n_weights: int) -> int:
    """The inverse of ``feature_dim``: the radius r >= 1 of ``n_weights`` weights."""
    k = math.isqrt(max(n_weights - 2, 0))
    if k < 3 or k % 2 == 0 or k * k != n_weights - 2:
        raise ValueError(f"{n_weights} weights fit no patch radius >= 1")
    return k // 2


def fill_features(images: list[np.ndarray], radius: int) -> np.ndarray:
    """Each image's ``patch_features`` in list order, filled in place into
    one new C-contiguous float32 matrix (concatenating per-image blocks
    would hold the rows twice).  Features need no labels.  A caller that
    trains on some of the images first trains on a prefix of the matrix:
    freeing a smaller one would raise malloc's mmap threshold and leave
    later arrays of its size on the heap, growing the process.
    """
    out = np.empty((sum(image.size for image in images), feature_dim(radius)), dtype=np.float32)
    row = 0
    for image in images:
        patch_features(image, radius, out=out[row : row + image.size])
        row += image.size
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; min(z, -z) rather than -abs(z) keeps a NaN's sign.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class DetectorModel:
    """Immutable trained model: its parameters; their count fixes ``patch_radius``.

    A pixel is text when its probability is >= ``SCORE_THRESHOLD``, for
    ``detect`` and ``masks_for_boxes`` alike.
    """

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError(f"weights must be 1-d, got shape {w.shape}")
        _radius_of(w.size)
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def patch_radius(self) -> int:
        return _radius_of(self.weights.size)

    def prob_map(self, image: np.ndarray) -> np.ndarray:
        """Per-pixel text probability, float64, same shape as the image.

        One k x k correlation with the window weights plus two box filters
        for the window mean and variance, edge-padded as ``patch_features``
        pads: no feature matrix, no BLAS.
        """
        x = np.asarray(image, dtype=np.float64) / 255.0
        if x.ndim != 2:
            raise ValueError(f"image must be 2-d, got shape {x.shape}")
        k = 2 * self.patch_radius + 1
        z = ndimage.correlate(x, self.weights[: k * k].reshape(k, k), mode="nearest")
        m = ndimage.uniform_filter(x, k, mode="nearest")
        v = ndimage.uniform_filter(x * x, k, mode="nearest") - m * m
        w_mean, w_var = self.weights[k * k :]
        return _sigmoid(z + w_mean * m + w_var * 4.0 * v + self.bias)

    def detect(self, image: np.ndarray) -> list[Detection]:
        """Threshold + connected components; sorted by descending score.

        A component is sized inside its bounding box: one whose box area is
        below ``MIN_COMPONENT_PIXELS`` cannot hold that many pixels and is
        skipped unread, and only the other boxes' pixels are counted.
        """
        probs = self.prob_map(image)
        fired = probs >= SCORE_THRESHOLD
        labels, _ = ndimage.label(fired, structure=FOUR_CONNECTED)
        dets: list[Detection] = []
        for lab, (rows, cols) in enumerate(ndimage.find_objects(labels), 1):
            if (rows.stop - rows.start) * (cols.stop - cols.start) < MIN_COMPONENT_PIXELS:
                continue
            crop = labels[rows, cols] == lab
            if np.count_nonzero(crop) < MIN_COMPONENT_PIXELS:
                continue
            comp = np.zeros(labels.shape, dtype=bool)
            comp[rows, cols] = crop
            # The crop holds the component's pixels in the frame's row-major order.
            score = float(probs[rows, cols][crop].mean())
            box = AxisRect(float(cols.start), float(rows.start), float(cols.stop), float(rows.stop))
            dets.append(Detection(box=box, mask=BitMask(comp), score=score))
        dets.sort(key=lambda d: -d.score)
        return dets

    def masks_for_boxes(self, image: np.ndarray, boxes: list[AxisRect]) -> list[BitMask]:
        """Per box, the text pixels inside it and everything else unset.

        The probability map is computed once for all boxes, and not at all
        when there are none.  A box over no pixel center gets an empty mask.
        """
        if not boxes:
            return []
        probs = self.prob_map(image)
        fired = probs >= SCORE_THRESHOLD
        return [_mask_in_box(fired, box) for box in boxes]

    def mask_for_box(self, image: np.ndarray, box: AxisRect) -> BitMask:
        """The one-box form of ``masks_for_boxes``."""
        return self.masks_for_boxes(image, [box])[0]


def _mask_in_box(fired: np.ndarray, box: AxisRect) -> BitMask:
    h, w = fired.shape
    keep = np.zeros((h, w), dtype=bool)
    r0, r1 = center_span(box.y_min, box.y_max, h)
    c0, c1 = center_span(box.x_min, box.x_max, w)
    if r0 < r1 and c0 < c1:
        keep[r0:r1, c0:c1] = fired[r0:r1, c0:c1]
    return BitMask(keep)


def train(
    base: DetectorModel | None,
    examples: list[TrainExample],
    cfg: TrainConfig,
    features: np.ndarray | None = None,
) -> DetectorModel:
    """Mini-batch gradient descent on per-pixel binary cross-entropy.

    float32 batch products, float64 parameters, gradient summed in 8,192-row
    blocks.  Deterministic for a fixed (seed, data, config), whatever the
    BLAS thread count.  When ``base`` is given, optimization starts from its
    parameters (fine-tuning).  Raises NonFiniteLossError when an epoch
    leaves a parameter non-finite.

    ``features``, when given, are the examples' feature rows as
    ``fill_features`` returns them: a C-contiguous float32 array of shape
    (total pixels, ``feature_dim(cfg.patch_radius)``), read and never
    written, so a caller that trains on the same images again can pass the
    same rows (or a prefix of them) instead of having them rebuilt.  Without
    it, ``train`` builds them with the same call.  A wrong shape or dtype
    raises ValueError.
    """
    if not examples:
        raise EmptyTrainingSetError("training requires at least one example")
    if base is not None and cfg.patch_radius != base.patch_radius:
        raise ValueError(
            f"patch radius {cfg.patch_radius} differs from the base model's {base.patch_radius}"
        )
    radius = cfg.patch_radius
    shape = (sum(ex.image.size for ex in examples), feature_dim(radius))
    if features is None:
        X = fill_features([ex.image for ex in examples], radius)
    elif features.shape != shape or features.dtype != np.float32 or not features.flags.c_contiguous:
        raise ValueError(
            f"features must be a C-contiguous float32 array of shape {shape}, "
            f"got {features.dtype} {features.shape}"
        )
    else:
        X = features
    y = np.concatenate([ex.label_map().reshape(-1) for ex in examples]).astype(np.float32)

    w = base.weights.copy() if base is not None else np.zeros(feature_dim(radius), dtype=np.float64)
    b = float(base.bias) if base is not None else 0.0

    rng = np.random.default_rng(cfg.seed)
    n = y.size
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = X.take(idx, axis=0)
            g = expit(xb @ w.astype(np.float32) + np.float32(b)) - y.take(idx)
            grad = np.zeros(w.size)
            for r0 in range(0, idx.size, _GRAD_ROWS):
                grad += g[r0 : r0 + _GRAD_ROWS] @ xb[r0 : r0 + _GRAD_ROWS]
            step = LEARNING_RATE / idx.size
            w -= step * grad
            b -= step * float(g.sum(dtype=np.float64))
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise NonFiniteLossError(
                f"training diverged: non-finite parameters after epoch {epoch + 1}"
            )

    return DetectorModel(weights=w, bias=b)


def save_model(model: DetectorModel, path) -> None:
    """Binary layout: header struct then little-endian float64 parameters.

    Header (16 bytes): magic 'TXBM', version u32 (3), n_params u64.
    Parameters are the weight vector with the bias appended; their count
    fixes the patch radius.
    """
    params = np.concatenate([model.weights, [model.bias]]).astype("<f8")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, params.size))
        f.write(params.tobytes())


def load_model(path) -> DetectorModel:
    """Read a ``save_model`` file; anything else is a ModelFormatError naming ``path``."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size:
        raise ModelFormatError(f"{path}: file shorter than the model header")
    magic, version, n_params = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ModelFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {version}")
    try:
        _radius_of(n_params - 1)
    except ValueError:
        raise ModelFormatError(f"{path}: {n_params} parameters fit no patch radius") from None
    body = blob[_HEADER.size :]
    if len(body) != 8 * n_params:
        raise ModelFormatError(f"{path}: {len(body)}-byte parameter block for {n_params} params")
    params = np.frombuffer(body, dtype="<f8")
    try:
        return DetectorModel(weights=params[:-1], bias=float(params[-1]))
    except ValueError as e:
        raise ModelFormatError(f"{path}: {e}") from None
