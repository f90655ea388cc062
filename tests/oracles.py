"""Reference implementations that the tests compare the package against.

None of this is used by the package itself: each function is the slow,
obviously-correct version of something the package does another way.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from textboot.errors import TextBootError
from textboot.geometry import FOUR_CONNECTED, BitMask, Polygon

BRUTE_FORCE_CAP = 8


class TooManyInstancesError(TextBootError):
    """Exhaustive matching is capped at a small instance count."""


def brute_force_match(iou: np.ndarray, threshold: float) -> tuple[int, int, int]:
    """Exhaustive one-to-one assignment maximizing TP; bounds the greedy matcher."""
    iou = np.asarray(iou, dtype=float)
    n_det, n_truth = iou.shape if iou.ndim == 2 else (0, 0)
    if n_det > BRUTE_FORCE_CAP or n_truth > BRUTE_FORCE_CAP:
        raise TooManyInstancesError(
            f"brute force capped at {BRUTE_FORCE_CAP} instances, got {n_det}x{n_truth}"
        )

    def best(i: int, used: int) -> int:
        if i == n_det:
            return 0
        score = best(i + 1, used)  # leave detection i unmatched
        for j in range(n_truth):
            if not used & (1 << j) and iou[i, j] >= threshold:
                score = max(score, 1 + best(i + 1, used | (1 << j)))
        return score

    tp = best(0, 0)
    return tp, n_det - tp, n_truth - tp


def polygon_area(p: Polygon) -> float:
    """Shoelace area, always non-negative."""
    acc = 0.0
    verts = p.vertices
    for i, (ax, ay) in enumerate(verts):
        bx, by = verts[(i + 1) % len(verts)]
        acc += ax * by - bx * ay
    return abs(acc) / 2.0


def fill_holes_per_component(mask: BitMask) -> BitMask:
    """One label after its polygon round trip: each 4-connected component
    with its holes filled, a hole being background that cannot reach the
    border through 8-connected background."""
    labels, n = ndimage.label(mask.pixels, structure=FOUR_CONNECTED)
    out = np.zeros(mask.pixels.shape, dtype=bool)
    for k in range(1, n + 1):
        out |= ndimage.binary_fill_holes(labels == k, structure=np.ones((3, 3), dtype=bool))
    return BitMask(out)
