import numpy as np
import pytest

from textboot.data import SceneSpec, generate_synthetic
from textboot.errors import DimensionMismatchError, EmptyMaskError
from textboot.geometry import (
    AxisRect,
    BitMask,
    Detection,
    Polygon,
    _check_simple,
    mask_bbox,
    mask_iou,
    mask_to_polygon,
    rasterize,
    rect_iou,
)
from tests.oracles import polygon_area


# Brute-force oracles, written straight from the stated conventions and kept
# independent of the library implementations.


def point_in_polygon_oracle(px, py, verts):
    """Even-odd rule via crossing count, one point at a time."""
    crossings = 0
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 <= py) != (y2 <= py):
            t = (py - y1) / (y2 - y1)
            x_at = x1 + t * (x2 - x1)
            if px < x_at:
                crossings += 1
    return crossings % 2 == 1


def rasterize_oracle(verts, width, height):
    out = np.zeros((height, width), dtype=bool)
    for r in range(height):
        for c in range(width):
            out[r, c] = point_in_polygon_oracle(c + 0.5, r + 0.5, verts)
    return out


def mask_iou_oracle(a, b):
    inter = 0
    union = 0
    for pa, pb in zip(a.flatten().tolist(), b.flatten().tolist()):
        if pa and pb:
            inter += 1
        if pa or pb:
            union += 1
    return 0.0 if union == 0 else inter / union


def random_star_polygon(rng, cx, cy, r_lo, r_hi, n_lo=4, n_hi=10):
    """Random simple polygon: jittered evenly spaced angles around a center.

    Keeping every angular gap below pi guarantees the ring cannot cross.
    """
    n = int(rng.integers(n_lo, n_hi + 1))
    step = 2.0 * np.pi / n
    angles = np.arange(n) * step + rng.uniform(-0.3, 0.3, n) * step
    radii = rng.uniform(r_lo, r_hi, n)
    xs = cx + radii * np.cos(angles)
    ys = cy + radii * np.sin(angles)
    return list(zip(xs.tolist(), ys.tolist()))


def test_polygon_area_examples():
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert polygon_area(square) == 1.0
    tri = Polygon([(0, 0), (4, 0), (0, 3)])
    assert polygon_area(tri) == 6.0
    collinear = Polygon([(0, 0), (1, 1), (2, 2)])
    assert polygon_area(collinear) == 0.0


def test_polygon_rejects_bad_rings():
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        Polygon([(0, 0), (0, 0), (1, 1), (0, 1)])
    # figure eight: edges properly cross
    with pytest.raises(ValueError):
        Polygon([(0, 0), (2, 2), (2, 0), (0, 2)])
    with pytest.raises(ValueError, match="finite"):
        Polygon([(0, 0), (float("nan"), 0), (1, 1)])
    with pytest.raises(ValueError, match="shape"):
        Polygon(np.arange(6.0))  # flat coordinates, not (x, y) rows


def meshgrid_check_simple(verts):
    """The n x n form of the simplicity check: (n, n, 2) offset arrays and
    meshgrid fancy-index gathers of both orientation tables."""
    n = len(verts)
    p = np.asarray(verts, dtype=float)
    q = np.roll(p, -1, axis=0)
    if np.any(np.all(p == q, axis=1)):
        raise ValueError("polygon has a zero-length edge")
    d = q - p

    def orient(a_p, a_d, b):
        rel = b[None, :, :] - a_p[:, None, :]
        return a_d[:, None, 0] * rel[:, :, 1] - a_d[:, None, 1] * rel[:, :, 0]

    o1, o2 = orient(p, d, p), orient(p, d, q)
    i_idx, j_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    gap = (j_idx - i_idx) % n
    nonadjacent = (gap != 0) & (gap != 1) & (gap != n - 1)
    straddle = (o1[i_idx, j_idx] * o2[i_idx, j_idx] < 0) & (o1[j_idx, i_idx] * o2[j_idx, i_idx] < 0)
    if np.any(straddle & nonadjacent):
        raise ValueError("polygon edges cross")


def _verdict(check, verts):
    try:
        check(verts)
    except ValueError as e:
        return str(e)
    return None


def test_check_simple_matches_the_meshgrid_oracle():
    """Free float rings, and rings on a 4x4 integer grid, where touching
    corners, collinear (overlapping) edges and zero-length edges are common."""
    rng = np.random.default_rng(17)
    seen = dict.fromkeys(
        ("simple", "polygon edges cross", "polygon has a zero-length edge",
         "touching corner", "collinear edges"), 0
    )
    for i in range(12_000):
        n = int(rng.integers(3, 10))
        pairs = rng.integers(0, 4, (n, 2)) if i % 2 else rng.uniform(-5.0, 5.0, (n, 2))
        verts = pairs.astype(float)
        got = _verdict(_check_simple, verts)
        assert got == _verdict(meshgrid_check_simple, verts), pairs.tolist()
        seen[got or "simple"] += 1
        seen["touching corner"] += got is None and len({tuple(v) for v in pairs.tolist()}) < n
        (ax, ay), (bx, by) = (np.roll(pairs, -1, 0) - pairs).T, (np.roll(pairs, -2, 0) - pairs).T
        seen["collinear edges"] += bool(np.any(ax * by - ay * bx == 0))
    assert min(seen.values()) >= 100, seen


def _swap_two(rng, verts):
    out = np.array(verts, dtype=float)
    i, j = rng.choice(len(out), 2, replace=False)
    out[[i, j]] = out[[j, i]]
    return out


def test_check_simple_matches_the_meshgrid_oracle_on_long_rings():
    """Rings as long as traced pseudo outlines (40-100 vertices) and
    ribbons (22-34): traced masks, pinch corners included, rasterized stars
    and random rings up to 120 vertices, each also with two vertices
    swapped."""
    rng = np.random.default_rng(29)
    seen = dict.fromkeys(
        ("simple", "polygon edges cross", "polygon has a zero-length edge", "pinched", "n >= 100"),
        0,
    )
    rings = []
    for i in range(400):
        if i % 2:
            m = _random_oracle_mask(rng)
        else:
            c = rng.uniform(14.0, 26.0, 2)
            verts = random_star_polygon(rng, c[0], c[1], 4.0, 14.0, n_lo=8, n_hi=60)
            m = rasterize(Polygon(verts), 40, 40).pixels
        for poly in mask_to_polygon(BitMask(m)):
            v = poly.vertices
            seen["pinched"] += len({tuple(p) for p in v.tolist()}) < len(v)
            rings += [v, _swap_two(rng, v)] if len(v) > 3 else [v]
    for i in range(600):
        n = int(rng.integers(3, 121))
        if i % 3 == 0:
            rings.append(rng.integers(0, int(rng.integers(4, 13)), (n, 2)).astype(float))
        elif i % 3 == 1:
            rings.append(rng.uniform(-5.0, 5.0, (n, 2)))
        else:
            star = random_star_polygon(rng, 0.0, 0.0, 2.0, 9.0, n_lo=max(n, 4), n_hi=max(n, 4))
            rings += [np.array(star), _swap_two(rng, star)]
    for verts in rings:
        got = _verdict(_check_simple, verts)
        assert got == _verdict(meshgrid_check_simple, verts), verts.tolist()
        seen[got or "simple"] += 1
        seen["n >= 100"] += len(verts) >= 100
    assert max(len(v) for v in rings) >= 110
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("extra", [0, 6])
def test_check_simple_finds_an_edge_crossing_the_one_after_next(extra):
    """Edge 0 of this ring crosses edge 2.  Rotating the ring moves the pair
    to every position, edge 0 against edge n - 2 (the wrap-around) among
    them; ``extra`` collinear points lengthen an edge that crosses nothing."""
    tail = np.linspace((2.0, -2.0), (0.0, -3.0), extra + 2)[1:]
    ring = np.concatenate([[(0.0, 0.0), (4.0, 0.0), (3.0, 2.0), (2.0, -2.0)], tail])
    n = len(ring)
    for k in range(n):
        for verts in (np.roll(ring, k, axis=0), np.roll(ring, k, axis=0)[::-1]):
            assert _verdict(meshgrid_check_simple, verts) == "polygon edges cross"
            assert _verdict(_check_simple, verts) == "polygon edges cross", (k, verts.tolist())
    # Without the crossing (p[2] moved below edge 0), every rotation is simple.
    ring[2] = (3.0, -1.0)
    for k in range(n):
        assert _verdict(_check_simple, np.roll(ring, k, axis=0)) is None


def test_axis_rect_validation():
    with pytest.raises(ValueError):
        AxisRect(2, 0, 1, 1)
    with pytest.raises(ValueError):
        AxisRect(0, 0, float("inf"), 1)
    r = AxisRect(1, 2, 4, 6)
    assert r.width == 3 and r.height == 4 and r.area == 12


def test_rect_iou_examples():
    a = AxisRect(0, 0, 2, 2)
    assert rect_iou(a, a) == 1.0
    assert rect_iou(a, AxisRect(5, 5, 7, 7)) == 0.0
    assert rect_iou(a, AxisRect(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0, abs=0.0)
    # zero-area union
    z = AxisRect(1, 1, 1, 1)
    assert rect_iou(z, z) == 0.0


def test_rect_iou_matches_rasterized_masks():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        coords = rng.integers(0, 30, size=8)
        x0, x1 = sorted((int(coords[0]), int(coords[1] + 31)))
        a = AxisRect(x0, min(coords[2], coords[3]), x1, max(coords[2], coords[3]) + 1)
        b = AxisRect(
            min(coords[4], coords[5]),
            min(coords[6], coords[7]),
            max(coords[4], coords[5]) + 1,
            max(coords[6], coords[7]) + 1,
        )
        ra = rasterize(_rect_poly(a), 64, 64)
        rb = rasterize(_rect_poly(b), 64, 64)
        assert rect_iou(a, b) == mask_iou(ra, rb)


def _rect_poly(r):
    return Polygon(
        [(r.x_min, r.y_min), (r.x_max, r.y_min), (r.x_max, r.y_max), (r.x_min, r.y_max)]
    )


def test_rasterize_examples():
    square = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    assert rasterize(square, 10, 10).count == 100
    far = Polygon([(50, 50), (60, 50), (55, 60)])
    assert rasterize(far, 10, 10).count == 0
    tri = Polygon([(0, 0), (4, 0), (0, 3)])
    perimeter = 4 + 3 + 5
    assert abs(rasterize(tri, 20, 20).count - 6.0) <= perimeter


def per_edge_rasterize(verts, width, height):
    """``rasterize`` as it was before its one-pass fill: every non-horizontal
    edge XORs the whole grid once.  Kept as a second oracle."""
    cx = np.arange(width, dtype=float) + 0.5
    cy = np.arange(height, dtype=float) + 0.5
    inside = np.zeros((height, width), dtype=bool)
    n = len(verts)
    for i in range(n):
        (x1, y1), (x2, y2) = verts[i], verts[(i + 1) % n]
        if y1 == y2:
            continue
        crosses = (y1 <= cy) != (y2 <= cy)
        t = (cy - y1) / (y2 - y1)
        x_at = x1 + t * (x2 - x1)
        inside ^= crosses[:, None] & (cx[None, :] < x_at[:, None])
    return inside


ORACLE_FRAMES = ((24, 24), (31, 17), (17, 31), (1, 1), (1, 9), (9, 1))


def _oracle_polygons(rng, width, height, n):
    """Star polygons and axis-aligned rectangles (horizontal edges) with free,
    integer and pixel-center vertices, placed inside, across and wholly
    outside a ``width`` x ``height`` frame."""
    snaps = (lambda v: v, np.round, lambda v: np.floor(v) + 0.5)
    for i in range(n):
        snap = snaps[i % 3]
        cx, cy = rng.uniform(-6, width + 6), rng.uniform(-6, height + 6)
        if i % 4 == 3:
            x0, x1 = sorted(snap(cx + rng.uniform(-9, 9, 2)).tolist())
            y0, y1 = sorted(snap(cy + rng.uniform(-9, 9, 2)).tolist())
            pairs = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        else:
            pairs = snap(np.array(random_star_polygon(rng, cx, cy, 0.6, 9.0))).tolist()
        try:
            yield Polygon(pairs)
        except ValueError:  # snapping merged two vertices or crossed two edges
            continue


@pytest.mark.filterwarnings("error")
def test_rasterize_against_oracle():
    rng = np.random.default_rng(11)
    seen = dict.fromkeys(
        ("inside", "across", "outside", "horizontal edge", "integer vertices", "center vertices"), 0
    )
    for width, height in ORACLE_FRAMES:
        for poly in _oracle_polygons(rng, width, height, 120):
            verts = poly.vertices.tolist()
            got = rasterize(poly, width, height).pixels
            assert np.array_equal(got, rasterize_oracle(verts, width, height)), (width, verts)
            assert np.array_equal(got, per_edge_rasterize(verts, width, height)), (width, verts)
            b = poly.bounding_box()
            if b.x_min >= 0 and b.y_min >= 0 and b.x_max <= width and b.y_max <= height:
                seen["inside"] += 1
            elif b.x_min >= width or b.y_min >= height or b.x_max <= 0 or b.y_max <= 0:
                seen["outside"] += 1
                assert not got.any()
            else:
                seen["across"] += 1
            edges = zip(verts, verts[1:] + verts[:1])
            seen["horizontal edge"] += any(v[1] == w[1] for v, w in edges)
            seen["integer vertices"] += all(x % 1 == 0 and y % 1 == 0 for x, y in verts)
            seen["center vertices"] += all(x % 1 == 0.5 and y % 1 == 0.5 for x, y in verts)
    assert min(seen.values()) >= 20, seen


@pytest.mark.filterwarnings("error")
def test_rasterize_matches_the_per_edge_loop_on_a_synthetic_world(tmp_path):
    """Every ribbon of a generated world, and the crack outline that a
    pseudo label of that ribbon would be saved as."""
    ds = generate_synthetic(SceneSpec(n_images=30, seed=4), tmp_path)
    w, h = ds.image_width, ds.image_height
    polygons = [p for r in ds.records for p in r.polygons]
    assert len(polygons) >= 30
    for ribbon in polygons:
        outlines = mask_to_polygon(rasterize(ribbon, w, h))
        for poly in [ribbon, *outlines]:
            want = per_edge_rasterize(poly.vertices.tolist(), w, h)
            assert np.array_equal(rasterize(poly, w, h).pixels, want)


def test_rasterize_count_close_to_area():
    rng = np.random.default_rng(13)
    for _ in range(200):
        verts = random_star_polygon(rng, rng.uniform(8, 24), rng.uniform(8, 24), 2.0, 8.0)
        poly = Polygon(verts)
        count = rasterize(poly, 32, 32).count
        perim = 0.0
        for i, (x1, y1) in enumerate(verts):
            x2, y2 = verts[(i + 1) % len(verts)]
            perim += ((x2 - x1) ** 2 + (y2 - y1) ** 2) ** 0.5
        assert abs(count - polygon_area(poly)) <= perim


def test_mask_iou_examples():
    full = BitMask(np.ones((10, 10), dtype=bool))
    left = np.zeros((10, 10), dtype=bool)
    left[:, :5] = True
    assert mask_iou(full, full) == 1.0
    assert mask_iou(BitMask(left), full) == 0.5
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0] = True
    b[3, 3] = True
    assert mask_iou(BitMask(a), BitMask(b)) == 0.0
    # both empty is 0 by convention
    e = BitMask(np.zeros((4, 4), dtype=bool))
    assert mask_iou(e, e) == 0.0


def test_mask_iou_against_oracle():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        a = rng.random((9, 13)) < rng.uniform(0, 1)
        b = rng.random((9, 13)) < rng.uniform(0, 1)
        assert mask_iou(BitMask(a), BitMask(b)) == mask_iou_oracle(a, b)


def test_mask_iou_dimension_and_frame_errors():
    a = BitMask(np.ones((4, 4), dtype=bool))
    b = BitMask(np.ones((4, 5), dtype=bool))
    with pytest.raises(DimensionMismatchError):
        mask_iou(a, b)


def test_translation_invariance():
    rng = np.random.default_rng(19)
    for _ in range(50):
        vals = rng.integers(0, 10, size=8)
        a = AxisRect(vals[0], vals[1], vals[0] + vals[2] + 1, vals[1] + vals[3] + 1)
        b = AxisRect(vals[4], vals[5], vals[4] + vals[6] + 1, vals[5] + vals[7] + 1)
        dx, dy = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        a2, b2 = (AxisRect(r.x_min + dx, r.y_min + dy, r.x_max + dx, r.y_max + dy) for r in (a, b))
        assert rect_iou(a, b) == rect_iou(a2, b2)
        assert rect_iou(a, b) == rect_iou(b, a)


def test_mask_bbox_examples():
    m = np.zeros((10, 10), dtype=bool)
    m[4, 3] = True
    assert mask_bbox(BitMask(m)) == AxisRect(3, 4, 4, 5)
    assert mask_bbox(BitMask(np.ones((10, 10), dtype=bool))) == AxisRect(0, 0, 10, 10)
    two = np.zeros((10, 10), dtype=bool)
    two[1, 1] = True
    two[2, 7] = True
    assert mask_bbox(BitMask(two)) == AxisRect(1, 1, 8, 3)
    with pytest.raises(EmptyMaskError):
        mask_bbox(BitMask(np.zeros((3, 3), dtype=bool)))


def test_mask_to_polygon_examples():
    assert mask_to_polygon(BitMask(np.zeros((6, 6), dtype=bool))) == []
    block = np.zeros((8, 8), dtype=bool)
    block[0:5, 0:5] = True
    polys = mask_to_polygon(BitMask(block))
    assert len(polys) == 1
    assert polys == [Polygon([(0, 0), (5, 0), (5, 5), (0, 5)])]
    two = np.zeros((8, 8), dtype=bool)
    two[0:2, 0:2] = True
    two[5:7, 5:7] = True
    assert len(mask_to_polygon(BitMask(two))) == 2


def test_mask_to_polygon_traces_in_the_frame_from_the_masks_crop():
    plus = np.zeros((7, 9), dtype=bool)  # one component touching all four crop edges
    plus[2:5, 4] = plus[3, 3:6] = True
    assert mask_to_polygon(BitMask(plus)) == [Polygon([
        (4, 2), (5, 2), (5, 3), (6, 3), (6, 4), (5, 4), (5, 5), (4, 5), (4, 4), (3, 4), (3, 3),
        (4, 3),
    ])]
    nested = np.zeros((8, 7), dtype=bool)  # an island in the hole of a ring
    nested[1:6, 1:6] = True
    nested[2:5, 2:5] = False
    nested[3, 3] = True
    assert mask_to_polygon(BitMask(nested)) == [
        Polygon([(1, 1), (6, 1), (6, 6), (1, 6)]),
        Polygon([(3, 3), (4, 3), (4, 4), (3, 4)]),
    ]


def test_mask_to_polygon_diagonal_pixels_are_two_components():
    m = np.zeros((4, 4), dtype=bool)
    m[0, 0] = True
    m[1, 1] = True
    assert len(mask_to_polygon(BitMask(m))) == 2


def test_mask_to_polygon_roundtrip_exact_on_random_blobs():
    # Hole-free blobs: rasterized random simple polygons.
    rng = np.random.default_rng(31)
    for _ in range(100):
        verts = random_star_polygon(rng, rng.uniform(6, 18), rng.uniform(6, 18), 2.5, 7.0)
        m = rasterize(Polygon(verts), 24, 24)
        if m.count == 0:
            continue
        polys = mask_to_polygon(m)
        acc = np.zeros((24, 24), dtype=bool)
        for p in polys:
            acc |= rasterize(p, 24, 24).pixels
        assert np.array_equal(acc, m.pixels)


def test_mask_to_polygon_roundtrip_iou_bound():
    rng = np.random.default_rng(37)
    for _ in range(100):
        verts = random_star_polygon(rng, rng.uniform(8, 16), rng.uniform(8, 16), 3.0, 7.5)
        m = rasterize(Polygon(verts), 24, 24)
        sizes = [c for c in _component_sizes(m.pixels)]
        if not sizes or min(sizes) < 9:
            continue
        polys = mask_to_polygon(m)
        acc = np.zeros((24, 24), dtype=bool)
        for p in polys:
            acc |= rasterize(p, 24, 24).pixels
        assert mask_iou(BitMask(acc), m) >= 0.9


def _random_oracle_mask(rng):
    h, w = int(rng.integers(1, 41)), int(rng.integers(1, 41))
    kind = int(rng.integers(0, 4))
    if kind == 0:  # speckle at a random density, empty included
        return rng.random((h, w)) < rng.choice([0.0, 0.1, 0.5, 0.9])
    m = np.zeros((h, w), dtype=bool)
    if kind == 1:  # 1-pixel-wide strokes
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.5:
                m[int(rng.integers(0, h)), int(rng.integers(0, w)) :] = True
            else:
                m[int(rng.integers(0, h)) :, int(rng.integers(0, w))] = True
        return m
    # filled boxes with holes punched in, some touching only diagonally
    for _ in range(int(rng.integers(1, 4))):
        r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        m[r0 : r0 + int(rng.integers(1, 20)), c0 : c0 + int(rng.integers(1, 20))] = True
    return m & ~(rng.random((h, w)) < (0.15 if kind == 2 else 0.0))


def test_polygon_round_trip_is_fill_holes_with_8_connected_background():
    """What a pseudo manifest records: every hole fills, but background
    that reaches the border through a diagonal step stays unset."""
    from scipy import ndimage

    rng = np.random.default_rng(43)
    for _ in range(400):
        m = _random_oracle_mask(rng)
        h, w = m.shape
        back = np.zeros((h, w), dtype=bool)
        for p in mask_to_polygon(BitMask(m)):
            back |= rasterize(p, w, h).pixels
        want = ndimage.binary_fill_holes(m, structure=np.ones((3, 3), dtype=bool))
        assert np.array_equal(back, want), m.astype(int)


def _component_sizes(pixels):
    from scipy import ndimage

    labels, n = ndimage.label(pixels, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], bool))
    return [int((labels == k).sum()) for k in range(1, n + 1)]


def test_mask_to_polygon_pinched_component():
    # One 4-connected component that touches itself at a corner.
    m = np.array(
        [
            [1, 1, 0],
            [1, 0, 1],
            [1, 1, 1],
        ],
        dtype=bool,
    )
    polys = mask_to_polygon(BitMask(m))
    assert len(polys) == 1
    acc = rasterize(polys[0], 3, 3)
    assert np.array_equal(acc.pixels, m)


def test_detection_invariants():
    m = np.zeros((6, 6), dtype=bool)
    m[2:4, 2:4] = True
    mask = BitMask(m)
    d = Detection(box=AxisRect(2, 2, 4, 4), mask=mask, score=0.5)
    assert d.score == 0.5
    with pytest.raises(ValueError):
        Detection(box=AxisRect(0, 0, 2, 2), mask=mask, score=0.5)
    with pytest.raises(ValueError):
        Detection(box=AxisRect(2, 2, 4, 4), mask=mask, score=1.5)


def test_bitmask_validation_and_equality():
    with pytest.raises(ValueError):
        BitMask(np.zeros((0, 4), dtype=bool))
    with pytest.raises(ValueError):
        BitMask(np.zeros(9, dtype=bool))
    a = BitMask(np.eye(3, dtype=bool))
    b = BitMask(np.eye(3, dtype=bool))
    assert a == b
    assert a != BitMask(~np.eye(3, dtype=bool))
