"""Reference implementations that the tests compare the package against.

None of this is used by the package itself: each function is the slow,
obviously-correct version of something the package does another way.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from textboot import data
from textboot.errors import TextBootError
from textboot.geometry import FOUR_CONNECTED, AxisRect, BitMask, Detection, Polygon, rasterize

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


class ValidateFirstRibbons:
    """The generator's ribbon placement with the simplicity check first:
    each candidate becomes a ``Polygon`` before its box is tested against
    the frame and the ribbons already placed.  ``rejected`` counts the
    candidates that ``Polygon`` refused.  Use it in place of
    ``data._place_ribbon``."""

    def __init__(self) -> None:
        self.rejected = 0

    def __call__(self, rng, spec, taken: list[AxisRect], tries: int = 25):
        h, w = spec.height, spec.width
        for _ in range(tries):
            poly = self._polygon(rng, spec)
            if poly is None:
                continue
            bb = poly.bounding_box()
            if bb.x_min < 1 or bb.y_min < 1 or bb.x_max > w - 1 or bb.y_max > h - 1:
                continue
            if any(data._boxes_touch(bb, other, pad=7.0) for other in taken):
                continue
            mask = rasterize(poly, w, h)
            if mask.count < 9:
                continue
            return poly, mask.pixels
        return None

    def _polygon(self, rng, spec):
        stroke = int(rng.integers(spec.stroke_width[0], spec.stroke_width[1] + 1))
        half = stroke / 2.0
        margin = half + 3.0
        if 2 * margin >= min(spec.width, spec.height):
            return None
        length = rng.uniform(0.35, 0.55) * min(spec.width, spec.height)
        kappa = rng.uniform(*data._CURVATURE) * (1.0 if rng.random() < 0.5 else -1.0)
        theta0 = rng.uniform(0.0, 2.0 * np.pi)
        x0 = rng.uniform(margin, spec.width - margin)
        y0 = rng.uniform(margin, spec.height - margin)

        n = max(9, int(length / 2.5))
        s = np.linspace(0.0, length, n)
        theta = theta0 + kappa * s
        ds = length / (n - 1)
        xs = x0 + np.concatenate([[0.0], np.cumsum(np.cos(theta[:-1]) * ds)])
        ys = y0 + np.concatenate([[0.0], np.cumsum(np.sin(theta[:-1]) * ds)])
        nx = -np.sin(theta)
        ny = np.cos(theta)
        left = np.stack([xs + half * nx, ys + half * ny], axis=1)
        right = np.stack([xs - half * nx, ys - half * ny], axis=1)
        ring = np.concatenate([left, right[::-1]], axis=0)
        try:
            return Polygon(ring)
        except ValueError:
            self.rejected += 1
            return None


def per_label_detect(probs: np.ndarray, threshold: float, min_pixels: int) -> list[Detection]:
    """Detections as full-frame passes per label: each component's mask,
    size, box and mean probability taken from the whole frame."""
    labels, n = ndimage.label(probs >= threshold, structure=FOUR_CONNECTED)
    dets = []
    for lab in range(1, n + 1):
        comp = labels == lab
        if int(comp.sum()) < min_pixels:
            continue
        rows, cols = np.nonzero(comp)
        box = AxisRect(
            float(cols.min()), float(rows.min()), float(cols.max()) + 1.0, float(rows.max()) + 1.0
        )
        dets.append(Detection(box=box, mask=BitMask(comp), score=float(probs[comp].mean())))
    dets.sort(key=lambda d: -d.score)
    return dets


def full_grid_rasterize(p: Polygon, width: int, height: int) -> np.ndarray:
    """``rasterize`` as a one-pass fill of the whole grid: every row's center
    line is tested against every edge, in or out of the polygon's span."""
    cx = np.arange(width, dtype=float) + 0.5
    cy = np.arange(height, dtype=float) + 0.5
    x1, y1 = p.vertices.T
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    edge, row = np.nonzero((y1[:, None] <= cy) != (y2[:, None] <= cy))
    t = (cy[row] - y1[edge]) / (y2[edge] - y1[edge])
    x_at = x1[edge] + t * (x2[edge] - x1[edge])
    toggled = np.searchsorted(cx, x_at, side="left")
    counts = np.bincount(row * (width + 1) + toggled, minlength=height * (width + 1))
    right_of = np.cumsum(counts.reshape(height, width + 1)[:, ::-1], axis=1)[:, ::-1]
    return (right_of[:, 1:] & 1).astype(bool)


def full_frame_mask_to_polygon(m: BitMask) -> list[Polygon]:
    """``mask_to_polygon`` with one full-frame pass per component: the
    component's own frame-sized mask, padded, walked one array lookup at a
    time."""
    if m.count == 0:
        return []
    labels, n = ndimage.label(m.pixels, structure=FOUR_CONNECTED)
    return [_trace_full_frame(labels == lab) for lab in range(1, n + 1)]


def _trace_full_frame(comp: np.ndarray) -> Polygon:
    rows, cols = np.nonzero(comp)
    r0, c0 = int(rows[0]), int(cols[0])
    padded = np.pad(comp, 1)
    # Corner (x, y) touches pixels NW=(y-1,x-1) NE=(y-1,x) SW=(y,x-1) SE=(y,x).
    # right_ahead / left_ahead pixel offsets, keyed by direction of travel.
    ahead = {
        (1, 0): ((0, 0), (-1, 0)),
        (0, 1): ((0, -1), (0, 0)),
        (-1, 0): ((-1, -1), (0, -1)),
        (0, -1): ((-1, 0), (-1, -1)),
    }
    start = (c0, r0)
    x, y = start
    dx, dy = 1, 0  # east along the top edge of the first pixel
    verts = [start]
    for _ in range(4 * (comp.shape[0] + 2) * (comp.shape[1] + 2)):
        x += dx
        y += dy
        if (x, y) == start:
            break
        (rdy, rdx), (ldy, ldx) = ahead[(dx, dy)]
        right_in = padded[y + rdy + 1, x + rdx + 1]
        left_in = padded[y + ldy + 1, x + ldx + 1]
        if not right_in:
            ndx, ndy = -dy, dx  # turn right
        elif left_in:
            ndx, ndy = dy, -dx  # turn left
        else:
            ndx, ndy = dx, dy
        if (ndx, ndy) != (dx, dy):
            verts.append((x, y))
            dx, dy = ndx, ndy
    else:
        raise RuntimeError("boundary trace failed to close")
    return Polygon(verts)
