"""Property tests for the file formats, the geometry and the detector's scores.

Every readable PGM image or dataset manifest either loads or raises the
package's typed error, and every value the writers accept reads back
unchanged.  ``rasterize`` and ``mask_to_polygon`` give what their
whole-frame forms in ``tests/oracles.py`` give.  Every detection scores at
least ``SCORE_THRESHOLD``.
Examples are derandomized, no example database is kept and Hypothesis's
caches go to a temporary directory, so the suite is deterministic and
leaves nothing in the working tree.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.extra.numpy import array_shapes, arrays

from textboot.data import (
    AnnotationRecord,
    AnnotationTier,
    Dataset,
    Provenance,
    load_dataset,
    read_pgm,
    save_dataset,
    write_pgm,
)
from textboot.detector import SCORE_THRESHOLD, DetectorModel, feature_dim
from textboot.errors import ImageError, ManifestError, TextBootError
from textboot.geometry import AxisRect, BitMask, Polygon, mask_to_polygon, rasterize
from tests.oracles import full_frame_mask_to_polygon, full_grid_rasterize

# Hypothesis caches what it learns about the code under test, during
# collection already; keep that out of the working tree.  The directory is
# removed when the interpreter exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

deterministic = settings(derandomize=True, database=None, max_examples=200, deadline=None)

HEADER = b"#manifest width=16 height=16\n"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def _read_pgm_bytes(work, blob: bytes) -> np.ndarray:
    path = work / "x.pgm"
    path.write_bytes(blob)
    return read_pgm(path)


# --- PGM -------------------------------------------------------------------------


@deterministic
@given(blob=st.binary(max_size=300))
def test_read_pgm_arbitrary_bytes_loads_or_raises_image_error(work, blob):
    try:
        image = _read_pgm_bytes(work, blob)
    except ImageError:
        return
    assert image.dtype == np.uint8 and image.ndim == 2


_SEP = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"  ", b"\n# note\n", b"#"])


@deterministic
@given(
    width=st.integers(0, 12),
    height=st.integers(0, 12),
    maxval=st.sampled_from([b"255", b"0255", b"256", b"1", b"65535", b"x"]),
    seps=st.tuples(_SEP, _SEP, _SEP, _SEP),
    tail=st.binary(max_size=200),
)
def test_read_pgm_p5_header_with_random_tail(work, width, height, maxval, seps, tail):
    head = b"P5" + seps[0] + str(width).encode() + seps[1] + str(height).encode()
    blob = head + seps[2] + maxval + seps[3] + tail
    try:
        image = _read_pgm_bytes(work, blob)
    except ImageError:
        return
    assert image.dtype == np.uint8 and image.shape == (height, width)


@deterministic
@given(pixels=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=40)))
def test_write_then_read_pgm_is_identity(work, pixels):
    path = work / "round.pgm"
    write_pgm(path, pixels)
    back = read_pgm(path)
    assert back.dtype == np.uint8 and np.array_equal(back, pixels)


# --- manifests -------------------------------------------------------------------


def _load_bytes(work, blob: bytes, require_images: bool):
    path = work / "fuzz.manifest"
    path.write_bytes(HEADER + blob)
    return load_dataset(path, require_images=require_images)


@deterministic
@given(blob=st.binary(max_size=400), require_images=st.booleans())
def test_load_dataset_arbitrary_bytes_loads_or_raises_typed_error(work, blob, require_images):
    try:
        ds = _load_bytes(work, blob, require_images)
    except TextBootError:
        return
    assert isinstance(ds, Dataset)


_TOKEN = st.one_of(
    st.sampled_from([
        "a", "b", "STRONG", "WEAK", "NONE", "#c", "", " ",
        "provenance=LOCAL", "provenance=naive", "round=2", "round=-1", "round=x",
        "scores=", "scores=0.5", "scores=0.5,0.25", "bogus=1",
        "0,0,4,4", "4,4,0,0", "0,0,4,0,4,4", "0,0,4,4,4,0,0,4", "0,0,0,0,0,0",
        "1e400,0,1,1", "nan,0,1,1", "0,0,4", "1,,2,3", "0x1,2,3,4",
    ]),
    st.text(max_size=6),
)


@deterministic
@given(
    lines=st.lists(st.lists(_TOKEN, max_size=6).map("\t".join), max_size=6),
    noise=st.binary(max_size=4),
    require_images=st.booleans(),
)
def test_load_dataset_near_valid_records_load_or_raise_typed_error(
    work, lines, noise, require_images
):
    try:
        ds = _load_bytes(work, "\n".join(lines).encode("utf-8") + noise, require_images)
    except TextBootError:
        return
    assert isinstance(ds, Dataset)


_COORD = st.floats(-1e3, 1e3, allow_nan=False)
_SIDE = st.floats(0.5, 100.0)


@st.composite
def _rects(draw):
    x, y = draw(_COORD), draw(_COORD)
    return AxisRect(x, y, x + draw(_SIDE), y + draw(_SIDE))


@st.composite
def _polygons(draw):
    r = draw(_rects())
    corners = [(r.x_min, r.y_min), (r.x_max, r.y_min), (r.x_max, r.y_max), (r.x_min, r.y_max)]
    if draw(st.booleans()):
        corners = corners[:3]
    return Polygon(corners)


@st.composite
def _records(draw, directory, image_id):
    tier = draw(st.sampled_from(list(AnnotationTier)))
    polygons, rects, scores = (), (), None
    if tier is AnnotationTier.STRONG:
        polygons = tuple(draw(st.lists(_polygons(), max_size=3)))
        n = len(polygons)
        scores = draw(st.none() | st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(tuple))
    elif tier is AnnotationTier.WEAK:
        rects = tuple(draw(st.lists(_rects(), max_size=3)))
    return AnnotationRecord(
        image_id=image_id,
        image_path=str(directory / draw(st.sampled_from(["a.pgm", "sub/b.pgm", "c d.pgm"]))),
        tier=tier,
        polygons=polygons,
        rects=rects,
        scores=scores,
        provenance=draw(st.none() | st.sampled_from([p.value for p in Provenance])),
        round_index=draw(st.none() | st.integers(0, 10**6)),
    )


# A manifest field holds no tab or line break, and an id starting with '#'
# would read as a comment; save_dataset rejects those (tested below).
_ID = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
    lambda s: "\t" not in s and s.splitlines() == [s] and not s.startswith("#")
)


@deterministic
@given(data=st.data())
def test_save_then_load_dataset_is_identity(work, data):
    directory = work.resolve() / "images"
    ids = data.draw(st.lists(_ID, max_size=5, unique=True))
    records = tuple(data.draw(_records(directory, image_id)) for image_id in ids)
    ds = Dataset(records, data.draw(st.integers(1, 500)), data.draw(st.integers(1, 500)))
    path = work / "round.manifest"
    save_dataset(ds, path)
    assert load_dataset(path, require_images=False) == ds


@pytest.mark.parametrize("image_id", ["#a", "a\tb", "a\nb", "a\rb", "a\x85b", "a\u2028b"])
def test_save_dataset_rejects_an_id_that_is_not_one_field(tmp_path, image_id):
    ds = Dataset((AnnotationRecord(image_id, str(tmp_path / "a.pgm"), AnnotationTier.NONE),), 8, 8)
    with pytest.raises(ManifestError, match="image id"):
        save_dataset(ds, tmp_path / "out.manifest")


# --- polygons --------------------------------------------------------------------


@deterministic
@given(polygon=_polygons())
def test_equal_vertex_arrays_give_equal_polygons_with_equal_hashes(polygon):
    flipped = polygon.vertices.copy()
    flipped[flipped == 0.0] *= -1.0  # 0.0 <-> -0.0, every other value kept
    for twin in (Polygon(polygon.vertices), Polygon(flipped)):
        assert twin == polygon and hash(twin) == hash(polygon)


def test_negative_zero_vertices_equal_and_hash_like_zero():
    zero = Polygon([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])
    negative = Polygon([(-0.0, -0.0), (4.0, -0.0), (-0.0, 3.0)])
    assert zero == negative and hash(zero) == hash(negative)
    assert zero != Polygon([(0.0, 0.0), (4.0, 0.0), (0.0, 3.5)])


def test_polygon_vertices_are_a_read_only_copy():
    source = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])
    polygon = Polygon(source)
    source[0, 0] = 9.0
    assert polygon.vertices[0, 0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        polygon.vertices[0, 0] = 1.0
    with pytest.raises(AttributeError):
        polygon.vertices = source


@deterministic
@given(polygon=_polygons())
def test_a_polygon_survives_save_then_load_with_its_hash(work, polygon):
    record = AnnotationRecord("a", str(work / "a.pgm"), AnnotationTier.STRONG, polygons=(polygon,))
    path = work / "polygon.manifest"
    save_dataset(Dataset((record,), 16, 16), path)
    (back,) = load_dataset(path, require_images=False).records[0].polygons
    assert back == polygon and hash(back) == hash(polygon)


# --- rasterize and trace ------------------------------------------------------------


@st.composite
def _framed_polygons(draw):
    """A grid and a star or box placed inside it, across its edges or
    wholly outside it, with free, integer or pixel-center vertices."""
    width, height = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    cx = draw(st.floats(-24.0, width + 24.0))
    cy = draw(st.floats(-24.0, height + 24.0))
    if draw(st.booleans()):
        n = draw(st.integers(3, 12))
        jitter = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)))
        radii = np.array(draw(st.lists(st.floats(0.3, 20.0), min_size=n, max_size=n)))
        angles = (np.arange(n) + jitter) * (2.0 * np.pi / n)
        verts = np.stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)], axis=1)
    else:  # horizontal edges
        half_w, half_h = draw(st.floats(0.3, 20.0)), draw(st.floats(0.3, 20.0))
        verts = np.array([(cx - half_w, cy - half_h), (cx + half_w, cy - half_h),
                          (cx + half_w, cy + half_h), (cx - half_w, cy + half_h)])
    snap = draw(st.sampled_from(["free", "integer", "center"]))
    if snap == "integer":
        verts = np.round(verts)
    elif snap == "center":
        verts = np.floor(verts) + 0.5
    try:
        return width, height, Polygon(verts)
    except ValueError:  # snapping merged two vertices or crossed two edges
        reject()


@deterministic
@given(framed=_framed_polygons())
@example(framed=(8, 6, Polygon([(1.0, 7.0), (5.0, 7.0), (3.0, 9.0)])))  # below the grid
@example(framed=(8, 6, Polygon([(-4.0, -3.0), (12.0, -3.0), (4.0, 2.2)])))  # across the top
@example(framed=(8, 6, Polygon([(2.0, 0.5), (6.0, 0.5), (6.0, 5.5), (2.0, 5.5)])))  # on centers
def test_rasterize_matches_the_whole_grid_fill(framed):
    """Scanning only the rows a polygon spans sets the pixels that testing
    every row of the grid sets."""
    width, height, polygon = framed
    want = full_grid_rasterize(polygon, width, height)
    assert np.array_equal(rasterize(polygon, width, height).pixels, want)


_SEVERAL_COMPONENTS = np.array(
    [[1, 1, 0, 0, 1], [1, 0, 1, 0, 1], [1, 1, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 1, 0, 1]],
    dtype=bool,
)


@deterministic
@given(mask=arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)))
@example(mask=_SEVERAL_COMPONENTS)  # a pinched ring, a bar, diagonal neighbours, corners
@example(mask=np.ones((1, 1), dtype=bool))
def test_mask_to_polygon_matches_the_full_frame_trace(mask):
    """Tracing each component in its own crop gives the outlines, in the
    order, that tracing it in the whole frame gives."""
    m = BitMask(mask)
    assert mask_to_polygon(m) == full_frame_mask_to_polygon(m)


# --- detector ----------------------------------------------------------------------


@st.composite
def _models(draw):
    radius = draw(st.integers(1, 2))
    weight = st.floats(-30.0, 30.0, allow_nan=False)
    weights = draw(arrays(np.float64, feature_dim(radius), elements=weight))
    return DetectorModel(weights, draw(weight))


@deterministic
@given(
    model=_models(),
    image=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, min_side=3, max_side=24)),
)
@example(  # every probability is exactly the threshold: one component scoring 0.5
    model=DetectorModel(np.zeros(feature_dim(1)), 0.0),
    image=np.zeros((4, 4), dtype=np.uint8),
)
def test_every_detection_scores_at_least_the_pixel_threshold(model, image):
    """A score is the mean of pixels that each reach the threshold, so NAIVE
    and FILTER need no score bar: one below the threshold rejects nothing."""
    assert all(d.score >= SCORE_THRESHOLD for d in model.detect(image))
