"""Planar geometry for text instances: polygons, boxes and binary masks.

Conventions used across the toolkit:

- Boxes are half-open in pixel units: ``AxisRect(x0, y0, x1, y1)`` covers
  pixel columns ``x0 .. x1 - 1`` and rows ``y0 .. y1 - 1`` when the
  coordinates are integers.
- Rasterization tests pixel centers ``(col + 0.5, row + 0.5)`` against the
  polygon with the even-odd rule.
- A ``BitMask`` always covers the whole image raster.
- Mask -> polygons -> mask (:func:`mask_to_polygon`, then :func:`rasterize`
  of each outline) fills holes: it also sets every background pixel that
  cannot reach the border through 8-connected background.
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
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


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


class Polygon:
    """Polygon with at least three vertices and no self-crossing edges.

    Construction rejects zero-length edges and proper edge crossings.
    Degenerate rings (collinear vertices, zero area) and touching at shared
    corner points are allowed; traced mask boundaries need the latter where
    a component pinches to a single corner.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        verts = tuple(vertices)
        if len(verts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(verts)}")
        for v in verts:
            if not isinstance(v, Point):
                raise ValueError("polygon vertices must be Point instances")
        _check_simple(verts)
        object.__setattr__(self, "vertices", verts)

    def __setattr__(self, name, value):
        raise AttributeError("Polygon is immutable")

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon({list(self.vertices)!r})"

    @classmethod
    def from_pairs(cls, pairs) -> "Polygon":
        return cls(Point(float(x), float(y)) for x, y in pairs)

    def bounding_box(self) -> AxisRect:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return AxisRect(min(xs), min(ys), max(xs), max(ys))


def _check_simple(verts: tuple[Point, ...]) -> None:
    """Reject zero-length edges and proper edge crossings.  Raises ValueError."""
    n = len(verts)
    p = np.array([(v.x, v.y) for v in verts], dtype=float)
    q = np.roll(p, -1, axis=0)  # edge k runs p[k] -> q[k]
    if np.any(np.all(p == q, axis=1)):
        raise ValueError("polygon has a zero-length edge")

    d = q - p

    def orient(a_p, a_d, b):
        # sign of cross(a_d, b - a_p) for every (edge, point) pair
        rel = b[None, :, :] - a_p[:, None, :]
        return a_d[:, None, 0] * rel[:, :, 1] - a_d[:, None, 1] * rel[:, :, 0]

    o1 = orient(p, d, p)  # o1[i, j]: p[j] relative to edge i
    o2 = orient(p, d, q)  # o2[i, j]: q[j] relative to edge i

    i_idx, j_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    gap = (j_idx - i_idx) % n
    nonadjacent = (gap != 0) & (gap != 1) & (gap != n - 1)

    # Proper crossing: each segment's endpoints strictly straddle the other.
    straddle = (o1[i_idx, j_idx] * o2[i_idx, j_idx] < 0) & (o1[j_idx, i_idx] * o2[j_idx, i_idx] < 0)
    if np.any(straddle & nonadjacent):
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
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

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


def polygon_area(p: Polygon) -> float:
    """Shoelace area, always non-negative."""
    acc = 0.0
    verts = p.vertices
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        acc += a.x * b.y - b.x * a.y
    return abs(acc) / 2.0


def rect_iou(a: AxisRect, b: AxisRect) -> float:
    """Intersection over union of two boxes; 0.0 when the union is empty."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def rasterize(p: Polygon, width: int, height: int) -> BitMask:
    """Fill ``p`` on a ``width`` x ``height`` grid.

    A pixel ``(row, col)`` is set iff its center ``(col + 0.5, row + 0.5)``
    is inside the polygon by the even-odd rule.  Pixels outside the grid
    are simply dropped.

    One scanline pass: an edge crossing a row's center line at ``x_at``
    toggles the ``searchsorted(cx, x_at)`` centers left of it, so a pixel
    is set when a per-row suffix count of crossings to its right is odd.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid dims must be positive, got {width}x{height}")
    cx = np.arange(width, dtype=float) + 0.5
    cy = np.arange(height, dtype=float) + 0.5
    x1, y1 = np.array([(v.x, v.y) for v in p.vertices]).T
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    edge, row = np.nonzero((y1[:, None] <= cy) != (y2[:, None] <= cy))
    t = (cy[row] - y1[edge]) / (y2[edge] - y1[edge])
    x_at = x1[edge] + t * (x2[edge] - x1[edge])
    toggled = np.searchsorted(cx, x_at, side="left")
    counts = np.bincount(row * (width + 1) + toggled, minlength=height * (width + 1))
    right_of = np.cumsum(counts.reshape(height, width + 1)[:, ::-1], axis=1)[:, ::-1]
    return BitMask(right_of[:, 1:] & 1)


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
    rows, cols = np.nonzero(m.pixels)
    if rows.size == 0:
        raise EmptyMaskError("cannot take the bounding box of an empty mask")
    return AxisRect(
        float(cols.min()), float(rows.min()), float(cols.max()) + 1.0, float(rows.max()) + 1.0
    )


def mask_to_polygon(m: BitMask) -> list[Polygon]:
    """Trace one polygon per 4-connected component of ``m``.

    The polygon follows the outer crack boundary of the component, so for
    hole-free components ``rasterize`` reproduces the component exactly.
    Interior holes are not traced and end up filled on the round trip.
    Components are emitted in scan order of their first pixel.
    """
    if m.count == 0:
        return []
    labels, n = ndimage.label(m.pixels, structure=FOUR_CONNECTED)
    out = []
    for lab in range(1, n + 1):
        out.append(_trace_outer_boundary(labels == lab))
    return out


def _trace_outer_boundary(comp: np.ndarray) -> Polygon:
    """Walk the outer boundary of one component, inside kept on the right."""
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
    verts = [Point(float(x), float(y))]
    limit = 4 * (comp.shape[0] + 2) * (comp.shape[1] + 2)
    for _ in range(limit):
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
            verts.append(Point(float(x), float(y)))
            dx, dy = ndx, ndy
    else:
        raise RuntimeError("boundary trace failed to close")
    return Polygon(verts)
