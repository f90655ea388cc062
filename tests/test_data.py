import numpy as np
import pytest

from textboot.data import (
    AnnotationRecord,
    AnnotationTier,
    Dataset,
    SceneSpec,
    downgrade_to_weak,
    generate_synthetic,
    load_dataset,
    read_pgm,
    save_dataset,
    split_dataset,
    write_pgm,
)
from textboot.errors import (
    EmptyDatasetError,
    ImageError,
    ManifestError,
    TierError,
)
from textboot.geometry import AxisRect, BitMask, Polygon, mask_iou, rasterize


def tri(ox=0.0, oy=0.0):
    return Polygon.from_pairs([(ox, oy), (ox + 4, oy), (ox, oy + 3)])


def make_image(tmp_path, name, w=16, h=16, value=100):
    path = tmp_path / name
    write_pgm(path, np.full((h, w), value, dtype=np.uint8))
    return str(path)


def test_record_tier_invariants():
    with pytest.raises(TierError):
        AnnotationRecord("a", "a.pgm", AnnotationTier.WEAK, polygons=(tri(),))
    with pytest.raises(TierError):
        AnnotationRecord("a", "a.pgm", AnnotationTier.STRONG, rects=(AxisRect(0, 0, 1, 1),))
    with pytest.raises(TierError):
        AnnotationRecord("a", "a.pgm", AnnotationTier.NONE, polygons=(tri(),))
    with pytest.raises(TierError):
        AnnotationRecord("a", "a.pgm", AnnotationTier.WEAK, scores=(0.5,))
    with pytest.raises(ValueError):
        AnnotationRecord("a", "a.pgm", AnnotationTier.STRONG, polygons=(tri(),), scores=(0.5, 0.6))
    # an empty STRONG record is legal: an image with no instances
    r = AnnotationRecord("a", "a.pgm", AnnotationTier.STRONG)
    assert r.polygons == ()


def test_dataset_rejects_duplicate_ids():
    a = AnnotationRecord("a", "a.pgm", AnnotationTier.NONE)
    with pytest.raises(ValueError):
        Dataset((a, a), 16, 16)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
    p = tmp_path / "x.pgm"
    write_pgm(p, img)
    assert np.array_equal(read_pgm(p), img)


def test_read_pgm_errors_name_the_file(tmp_path):
    bad = {
        "magic.pgm": b"P2\n2 2\n255\n0000",
        "header.pgm": b"P5\n2 x\n255\n0000",
        "short.pgm": b"P5\n2 2\n255\n000",
        "depth.pgm": b"P5\n2 2\n65535\n00000000",
        "huge.pgm": b"P5\n" + b"9" * 5000 + b" 2\n255\n0000",
    }
    for name, blob in bad.items():
        (tmp_path / name).write_bytes(blob)
    for name in [*bad, "missing.pgm"]:
        with pytest.raises(ImageError, match=name):
            read_pgm(tmp_path / name)


def test_manifest_names_images_relative_to_itself(tmp_path):
    (tmp_path / "imgs").mkdir()
    path = make_image(tmp_path / "imgs", "a.pgm")
    ds = Dataset((AnnotationRecord("a", path, AnnotationTier.NONE),), 16, 16)
    mpath = tmp_path / "runs" / "r1" / "data.manifest"
    mpath.parent.mkdir(parents=True)
    save_dataset(ds, mpath)
    assert mpath.read_text().splitlines()[1] == "a\t../../imgs/a.pgm\tNONE"
    assert load_dataset(mpath) == ds


def test_manifest_roundtrip_structural(tmp_path):
    paths = [make_image(tmp_path, f"{i}.pgm") for i in range(3)]
    records = (
        AnnotationRecord("a", paths[0], AnnotationTier.STRONG, polygons=(tri(), tri(5, 5))),
        AnnotationRecord("b", paths[1], AnnotationTier.WEAK, rects=(AxisRect(1, 2, 3.5, 4),)),
        AnnotationRecord("c", paths[2], AnnotationTier.NONE),
    )
    ds = Dataset(records, 16, 16)
    mpath = tmp_path / "data.manifest"
    save_dataset(ds, mpath)
    loaded = load_dataset(mpath)
    assert loaded.image_width == 16 and loaded.image_height == 16
    assert [r.image_id for r in loaded.records] == ["a", "b", "c"]
    assert [r.tier for r in loaded.records] == [
        AnnotationTier.STRONG,
        AnnotationTier.WEAK,
        AnnotationTier.NONE,
    ]
    assert loaded.records[0].polygons == records[0].polygons
    assert loaded.records[1].rects == records[1].rects


def test_manifest_roundtrip_bytes_14_vertex(tmp_path):
    path = make_image(tmp_path, "a.pgm")
    rng = np.random.default_rng(5)
    step = 2 * np.pi / 14
    angles = np.arange(14) * step + rng.uniform(-0.2, 0.2, 14) * step
    radii = rng.uniform(3.0, 7.0, 14)
    poly = Polygon.from_pairs(
        [(8 + r * np.cos(t), 8 + r * np.sin(t)) for r, t in zip(radii, angles)]
    )
    ds = Dataset(
        (AnnotationRecord("a", path, AnnotationTier.STRONG, polygons=(poly,)),), 16, 16
    )
    m1 = tmp_path / "one.manifest"
    m2 = tmp_path / "two.manifest"
    save_dataset(ds, m1)
    save_dataset(load_dataset(m1), m2)
    assert m1.read_bytes() == m2.read_bytes()
    assert load_dataset(m2).records[0].polygons[0] == poly
    assert len(poly.vertices) == 14


def test_manifest_metadata_fields(tmp_path):
    path = make_image(tmp_path, "a.pgm")
    rec = AnnotationRecord(
        "a",
        path,
        AnnotationTier.STRONG,
        polygons=(tri(),),
        scores=(0.75,),
        provenance="LOCAL",
        round_index=2,
    )
    mpath = tmp_path / "p.manifest"
    save_dataset(Dataset((rec,), 16, 16), mpath)
    got = load_dataset(mpath).records[0]
    assert got.provenance == "LOCAL"
    assert got.round_index == 2
    assert got.scores == (0.75,)


def test_empty_manifest(tmp_path):
    mpath = tmp_path / "empty.manifest"
    save_dataset(Dataset((), 32, 24), mpath)
    ds = load_dataset(mpath)
    assert len(ds) == 0
    assert (ds.image_width, ds.image_height) == (32, 24)


def test_manifest_errors(tmp_path):
    path = make_image(tmp_path, "a.pgm")
    m = tmp_path / "bad.manifest"

    m.write_text("no header\n")
    with pytest.raises(ManifestError):
        load_dataset(m)

    m.write_text("#manifest width=16 height=16\na\ta.pgm\tWEAK\t0,0,4,0,4,4,0,4\n")
    with pytest.raises(TierError):
        load_dataset(m)

    m.write_text("#manifest width=16 height=16\na\ta.pgm\tSTRONG\t1,2,3\n")
    with pytest.raises(ManifestError) as ei:
        load_dataset(m)
    assert ei.value.line == 2
    assert str(ei.value).startswith(f"{m}: line 2: ")

    m.write_text("#manifest width=16 height=16\na\ta.pgm\tBOGUS\n")
    with pytest.raises(ManifestError):
        load_dataset(m)

    m.write_text("#manifest width=16 height=16\na\tmissing.pgm\tNONE\n")
    with pytest.raises(ImageError) as ei:
        load_dataset(m)
    assert str(ei.value) == f"{m}: line 2: image file not found: {(tmp_path / 'missing.pgm').resolve()}"

    m.write_text(f"#manifest width=16 height=16\na\t{path}\tSTRONG\t0,0,1e400,0,4,4\n")
    with pytest.raises(ManifestError):
        load_dataset(m)


def test_manifest_that_is_not_utf8_names_file_and_line(tmp_path):
    make_image(tmp_path, "a.pgm")
    m = tmp_path / "bad.manifest"
    m.write_bytes(b"#manifest width=16 height=16\na\ta.pgm\tNONE\nb\tb\xff.pgm\tNONE\n")
    with pytest.raises(ManifestError) as ei:
        load_dataset(m)
    assert ei.value.line == 3
    assert str(m) in str(ei.value)


def test_manifest_rejects_negative_round(tmp_path):
    make_image(tmp_path, "a.pgm")
    m = tmp_path / "bad.manifest"
    m.write_text("#manifest width=16 height=16\n\na\ta.pgm\tSTRONG\tround=-1\n")
    with pytest.raises(ManifestError) as ei:
        load_dataset(m)
    assert ei.value.line == 3
    with pytest.raises(ValueError):
        AnnotationRecord("a", "a.pgm", AnnotationTier.STRONG, round_index=-1)


def test_split_counts_and_determinism(tmp_path):
    def dataset_of(n):
        recs = tuple(
            AnnotationRecord(f"r{i:04d}", f"{i}.pgm", AnnotationTier.STRONG, polygons=(tri(),))
            for i in range(n)
        )
        return Dataset(recs, 16, 16)

    strong, rest = split_dataset(dataset_of(1000), 0.10, seed=1)
    assert (len(strong), len(rest)) == (100, 900)
    strong2, rest2 = split_dataset(dataset_of(1000), 0.10, seed=1)
    assert [r.image_id for r in strong.records] == [r.image_id for r in strong2.records]
    assert [r.image_id for r in rest.records] == [r.image_id for r in rest2.records]

    strong, rest = split_dataset(dataset_of(1255), 0.0996, seed=9)
    assert (len(strong), len(rest)) == (125, 1130)

    d = dataset_of(40)
    strong, rest = split_dataset(d, 0.25, seed=3)
    ids = {r.image_id for r in strong.records} | {r.image_id for r in rest.records}
    assert ids == {r.image_id for r in d.records}
    assert not ({r.image_id for r in strong.records} & {r.image_id for r in rest.records})
    assert all(r.tier is AnnotationTier.WEAK for r in rest.records)

    _, rest_none = split_dataset(d, 0.25, seed=3, downgrade=AnnotationTier.NONE)
    assert all(r.tier is AnnotationTier.NONE for r in rest_none.records)
    _, rest_keep = split_dataset(d, 0.25, seed=3, downgrade=None)
    assert all(r.tier is AnnotationTier.STRONG for r in rest_keep.records)
    assert [r.image_id for r in rest_keep.records] == [r.image_id for r in rest.records]

    with pytest.raises(EmptyDatasetError):
        split_dataset(Dataset((), 16, 16), 0.5, seed=0)
    with pytest.raises(ValueError):
        split_dataset(d, 1.0, seed=0)


def test_downgrade_to_weak():
    quad = Polygon.from_pairs([(0, 0), (4, 2), (8, 0), (4, -2)])
    square = Polygon.from_pairs([(1, 1), (3, 1), (3, 3), (1, 3)])
    r = AnnotationRecord("a", "a.pgm", AnnotationTier.STRONG, polygons=(quad, square, tri()))
    weak = downgrade_to_weak(r)
    assert weak.tier is AnnotationTier.WEAK
    assert weak.rects[0] == AxisRect(0, -2, 8, 2)
    assert weak.rects[1] == AxisRect(1, 1, 3, 3)
    assert len(weak.rects) == 3
    with pytest.raises(TierError):
        downgrade_to_weak(weak)


def test_downgraded_rect_contains_mask_pixels():
    rng = np.random.default_rng(41)
    for _ in range(25):
        step = 2 * np.pi / 8
        angles = np.arange(8) * step + rng.uniform(-0.25, 0.25, 8) * step
        radii = rng.uniform(2.0, 6.0, 8)
        poly = Polygon.from_pairs(
            [(10 + r * np.cos(t), 10 + r * np.sin(t)) for r, t in zip(radii, angles)]
        )
        rect = poly.bounding_box()
        mask = rasterize(poly, 20, 20)
        rows, cols = np.nonzero(mask.pixels)
        assert np.all(cols + 0.5 >= rect.x_min) and np.all(cols + 0.5 <= rect.x_max)
        assert np.all(rows + 0.5 >= rect.y_min) and np.all(rows + 0.5 <= rect.y_max)


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(n_images=0)
    with pytest.raises(ValueError):
        SceneSpec(n_images=1, curvature=(0.5, 0.1))
    with pytest.raises(ValueError):
        SceneSpec(n_images=1, noise_level=1.5)


def test_generator_deterministic(tmp_path):
    spec = SceneSpec(n_images=4, seed=77)
    d1 = generate_synthetic(spec, tmp_path / "one")
    d2 = generate_synthetic(spec, tmp_path / "two")
    for r1, r2 in zip(d1.records, d2.records):
        b1 = open(r1.image_path, "rb").read()
        b2 = open(r2.image_path, "rb").read()
        assert b1 == b2
        assert r1.polygons == r2.polygons
    m1 = (tmp_path / "one" / "dataset.manifest").read_bytes()
    m2 = (tmp_path / "two" / "dataset.manifest").read_bytes()
    assert m1 == m2


def test_generator_instances_match_bright_pixels(tmp_path):
    # Clean appearance: ground truth must coincide with the painted stroke.
    spec = SceneSpec(
        n_images=6,
        seed=5,
        noise_level=0.0,
        ribbon_lift=(100.0, 120.0),
        illumination=(-5.0, 5.0),
        distractors_per_image=(0, 0),
        texture_amp=4.0,
        pixel_noise=3.0,
    )
    ds = generate_synthetic(spec, tmp_path / "clean")
    total = 0
    for rec in ds.records:
        img = read_pgm(rec.image_path)
        bright = img > 150
        for poly in rec.polygons:
            gt = rasterize(poly, spec.width, spec.height)
            bb = poly.bounding_box()
            window = np.zeros_like(bright)
            r0, r1 = max(0, int(bb.y_min) - 2), min(spec.height, int(bb.y_max) + 3)
            c0, c1 = max(0, int(bb.x_min) - 2), min(spec.width, int(bb.x_max) + 3)
            window[r0:r1, c0:c1] = True
            local_bright = BitMask(bright & window)
            assert mask_iou(gt, local_bright) >= 0.9
            total += 1
    assert total >= 6


def test_generator_loadable_and_uniform(tmp_path):
    spec = SceneSpec(n_images=3, width=64, height=48, seed=2)
    ds = generate_synthetic(spec, tmp_path / "g")
    loaded = load_dataset(tmp_path / "g" / "dataset.manifest")
    assert len(loaded) == 3
    assert (loaded.image_width, loaded.image_height) == (64, 48)
    for rec in loaded.records:
        assert read_pgm(rec.image_path).shape == (48, 64)
        assert rec.tier is AnnotationTier.STRONG
