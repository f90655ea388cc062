"""Planar geometry for text instances: polygons, boxes and binary masks.

Conventions used across the toolkit:

- Boxes are half-open in pixel units: ``AxisRect(x0, y0, x1, y1)`` covers
  pixel columns ``x0 .. x1 - 1`` and rows ``y0 .. y1 - 1`` when the
  coordinates are integers.
- Rasterization tests pixel centers ``(col + 0.5, row + 0.5)`` against the
  polygon with the even-odd rule.
- A ``Polygon`` is its vertex array: a read-only (n, 2) float64 array of
  (x, y) rows, checked once when the polygon is made.  Every function
  here reads that array as it is.
- A ``BitMask`` always covers the whole image raster.
- Mask -> polygons -> mask (:func:`mask_to_polygon`, then :func:`rasterize`
  of each outline) fills holes: it also sets every background pixel that
  cannot reach the border through 8-connected background.  Only pseudo
  manifests make that round trip; training takes pseudo masks as they are.
- Connectivity is 4-way everywhere: diagonal neighbours are separate
  components.

Every function here is pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DimensionMismatchError, EmptyMaskError

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class AxisRect:
    """Axis-aligned box, min corner inclusive, max corner exclusive."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"box coordinates must be finite, got {vals}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"box corners out of order: {vals}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True, eq=False)
class Polygon:
    """Ring of at least three vertices with no self-crossing edges.

    ``vertices`` is a read-only (n, 2) float64 array of (x, y) rows.
    Construction rejects zero-length edges and proper edge crossings.
    Degenerate rings (collinear vertices, zero area) and touching at shared
    corner points are allowed; traced mask boundaries need the latter where
    a component pinches to a single corner.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError(f"polygon needs an (n, 2) vertex array, n >= 3; got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("polygon vertices must be finite")
        _check_simple(v)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    def __eq__(self, other):
        if not isinstance(other, Polygon):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices)

    def __hash__(self):
        return hash((self.vertices + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0

    def bounding_box(self) -> AxisRect:
        return vertex_bbox(self.vertices)


def vertex_bbox(v: np.ndarray) -> AxisRect:
    """Tightest box around the rows of an (n, 2) float64 vertex array."""
    (x_min, y_min), (x_max, y_max) = v.min(axis=0), v.max(axis=0)
    return AxisRect(float(x_min), float(y_min), float(x_max), float(y_max))


def _check_simple(p: np.ndarray) -> None:
    """Reject zero-length edges and proper edge crossings of ring ``p``.  Raises ValueError."""
    n = len(p)
    q = np.concatenate((p[1:], p[:1]))  # edge k runs p[k] -> q[k]
    if (p == q).all(axis=1).any():
        raise ValueError("polygon has a zero-length edge")

    x, y = p[:, 0], p[:, 1]
    px, py = x[:, None], y[:, None]  # column vectors: edge i starts at (px[i], py[i])
    dx, dy = q[:, :1] - px, q[:, 1:] - py
    # o1[i, j] = cross(d[i], p[j] - p[i]), built in place
    o1 = y - py
    o1 *= dx
    t = x - px
    t *= dy
    o1 -= t
    # q[j] is p[j + 1], so cross(d[i], q[j] - p[i]) is o1[i, j + 1]: t becomes o1 * o2.
    np.multiply(o1[:, :-1], o1[:, 1:], out=t[:, :-1])
    np.multiply(o1[:, -1], o1[:, 0], out=t[:, -1])

    # Proper crossing: each segment's endpoints strictly straddle the other.
    # An edge and itself or a neighbour share an endpoint and never cross.
    split = t < 0
    flat = split.reshape(-1)
    flat[:: n + 1] = False  # j == i
    flat[1 :: n + 1] = False  # j == i + 1
    flat[n :: n + 1] = False  # j == i - 1
    split[0, -1] = split[-1, 0] = False  # edges 0 and n - 1 meet at p[0]
    if (split & split.T).any():
        raise ValueError("polygon edges cross")


@dataclass(frozen=True, eq=False)
class BitMask:
    """Binary pixel mask over the full image raster."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=bool)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"mask must be a 2-d array with positive dims, got shape {px.shape}")
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.pixels))

    def __eq__(self, other):
        if not isinstance(other, BitMask):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True)
class Detection:
    """One detected instance: box, image-frame mask, confidence score."""

    box: AxisRect
    mask: BitMask
    score: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")
        if self.mask.count > 0:
            tight = mask_bbox(self.mask)
            if (
                tight.x_min < math.floor(self.box.x_min)
                or tight.y_min < math.floor(self.box.y_min)
                or tight.x_max > math.ceil(self.box.x_max)
                or tight.y_max > math.ceil(self.box.y_max)
            ):
                raise ValueError("detection mask has set pixels outside its box")


def rect_iou(a: AxisRect, b: AxisRect) -> float:
    """Intersection over union of two boxes; 0.0 when the union is empty."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def center_span(lo: float, hi: float, limit: int) -> tuple[int, int]:
    """Index range of the pixels in ``0 .. limit - 1`` whose centers fall
    inside [lo, hi); empty (first >= last) when none does."""
    first = max(0, int(np.ceil(lo - 0.5)))
    last = min(limit, int(np.ceil(hi - 0.5)))
    return first, last


def rasterize(p: Polygon, width: int, height: int) -> BitMask:
    """Fill ``p`` on a ``width`` x ``height`` grid.

    A pixel ``(row, col)`` is set iff its center ``(col + 0.5, row + 0.5)``
    is inside the polygon by the even-odd rule.  Pixels outside the grid
    are simply dropped.

    One scanline pass over the rows whose center line the polygon spans:
    an edge crossing a row's center line at ``x_at`` toggles the
    ``searchsorted(cx, x_at)`` centers left of it, so a pixel is set when a
    per-row suffix count of crossings to its right is odd.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid dims must be positive, got {width}x{height}")
    out = np.zeros((height, width), dtype=bool)
    x1, y1 = p.vertices.T
    r0, r1 = center_span(y1.min(), y1.max(), height)
    if r0 >= r1:
        return BitMask(out)
    cx = np.arange(width, dtype=float) + 0.5
    cy = np.arange(r0, r1, dtype=float) + 0.5
    x2, y2 = np.concatenate((x1[1:], x1[:1])), np.concatenate((y1[1:], y1[:1]))
    edge, row = np.nonzero((y1[:, None] <= cy) != (y2[:, None] <= cy))
    t = (cy[row] - y1[edge]) / (y2[edge] - y1[edge])
    x_at = x1[edge] + t * (x2[edge] - x1[edge])
    toggled = np.searchsorted(cx, x_at, side="left")
    counts = np.bincount(row * (width + 1) + toggled, minlength=(r1 - r0) * (width + 1))
    right_of = np.cumsum(counts.reshape(r1 - r0, width + 1)[:, ::-1], axis=1)[:, ::-1]
    out[r0:r1] = right_of[:, 1:] & 1
    return BitMask(out)


def mask_iou(a: BitMask, b: BitMask) -> float:
    """Pixel IoU of two masks of the same shape; empty vs empty is 0.0."""
    if a.pixels.shape != b.pixels.shape:
        raise DimensionMismatchError(f"mask shapes differ: {a.pixels.shape} vs {b.pixels.shape}")
    inter = int(np.count_nonzero(a.pixels & b.pixels))
    union = int(np.count_nonzero(a.pixels | b.pixels))
    if union == 0:
        return 0.0
    return inter / union


def mask_bbox(m: BitMask) -> AxisRect:
    """Tightest half-open box around the set pixels."""
    rows = np.flatnonzero(m.pixels.any(axis=1))
    if rows.size == 0:
        raise EmptyMaskError("cannot take the bounding box of an empty mask")
    cols = np.flatnonzero(m.pixels.any(axis=0))
    return AxisRect(float(cols[0]), float(rows[0]), float(cols[-1]) + 1.0, float(rows[-1]) + 1.0)


def mask_to_polygon(m: BitMask) -> list[Polygon]:
    """Trace one polygon per 4-connected component of ``m``.

    The polygon follows the outer crack boundary of the component, so for
    hole-free components ``rasterize`` reproduces the component exactly.
    Interior holes are not traced and end up filled on the round trip.
    Components are emitted in scan order of their first pixel.
    """
    if m.count == 0:
        return []
    labels, _ = ndimage.label(m.pixels, structure=FOUR_CONNECTED)
    return [
        _trace_outer_boundary(labels[rows, cols] == lab, cols.start, rows.start)
        for lab, (rows, cols) in enumerate(ndimage.find_objects(labels), 1)
    ]


# Per direction of travel east, south, west, north (a right turn is the
# next one): the step (dx, dy) and the pixels right and left ahead of the
# corner reached, as (row, col) offsets from it.  Corner (x, y) touches
# pixels NW=(y-1,x-1) NE=(y-1,x) SW=(y,x-1) SE=(y,x).
_TRAVEL = (
    ((1, 0), (0, 0), (-1, 0)),
    ((0, 1), (0, -1), (0, 0)),
    ((-1, 0), (-1, -1), (0, -1)),
    ((0, -1), (-1, 0), (-1, -1)),
)


def _trace_outer_boundary(crop: np.ndarray, x0: int, y0: int) -> Polygon:
    """Walk the outer boundary of one component, inside kept on the right.

    ``crop`` is the component's bounding box, holding only its pixels, and
    its top-left pixel is ``(x0, y0)`` in the frame.  The walk reads the
    zero-padded crop as a flat byte string, so corner (x, y) is index
    ``(y + 1) * stride + x + 1`` and each step or lookup is one offset.
    """
    h, w = crop.shape
    stride = w + 2
    cells = np.pad(crop, 1).tobytes()
    steps, right, left = zip(
        *(
            (dy * stride + dx, rdy * stride + rdx, ldy * stride + ldx)
            for (dx, dy), (rdy, rdx), (ldy, ldx) in _TRAVEL
        )
    )
    # The crop's top row holds the component's first pixel in scan order.
    start = at = stride + int(crop[0].argmax()) + 1
    d = 0  # east along the top edge of the first pixel
    corners = [start]
    for _ in range(4 * (h + 2) * stride):
        at += steps[d]
        if at == start:
            break
        if not cells[at + right[d]]:
            d = (d + 1) & 3  # turn right
        elif cells[at + left[d]]:
            d = (d - 1) & 3  # turn left
        else:
            continue
        corners.append(at)
    else:
        raise RuntimeError("boundary trace failed to close")
    return Polygon([(x0 + c % stride - 1, y0 + c // stride - 1) for c in corners])
