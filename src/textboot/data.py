"""Tiered datasets, manifest and PGM formats, splits, synthetic scenes.

Manifest grammar (UTF-8, line-delimited, tab-separated fields):

    #manifest width=<int> height=<int>
    <image_id>TAB<image_path>TAB<TIER>[TAB<token>]...

The first non-blank line must be the header; later lines starting with
``#`` are comments.  ``TIER`` is ``STRONG``, ``WEAK`` or ``NONE``.  Each
token is either ``key=value`` metadata (``provenance=<NAIVE|FILTER|LOCAL>``,
``round=<int >= 0>``, ``scores=<s1,s2,...>``) or a geometry list of
comma-separated numbers: exactly 4 numbers form a rectangle
``x_min,y_min,x_max,y_max`` (WEAK records only), an even count of 6 or more
forms a polygon ``x1,y1,x2,y2,...`` (STRONG records only).  ``scores``
align one-to-one with the record's polygons.  Ids and paths hold no TAB
or line break, and ids do not start with ``#``.  Image paths are resolved
relative to the manifest's directory and written back the same way, so a
manifest's bytes do not depend on where its tree lives.

Loaders reject malformed input; nothing is repaired silently.
"""

from __future__ import annotations

import enum
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDatasetError,
    ImageError,
    ManifestError,
    TextBootError,
    TierError,
    require_integers,
)
from .geometry import AxisRect, BitMask, Polygon, rasterize, vertex_bbox


class Provenance(enum.Enum):
    """The strategy that produced a pseudo label."""

    NAIVE = "NAIVE"
    FILTER = "FILTER"
    LOCAL = "LOCAL"


class AnnotationTier(enum.Enum):
    STRONG = "STRONG"
    WEAK = "WEAK"
    NONE = "NONE"


@dataclass(frozen=True)
class AnnotationRecord:
    """One image with annotations at exactly one tier."""

    image_id: str
    image_path: str
    tier: AnnotationTier
    polygons: tuple[Polygon, ...] = ()
    rects: tuple[AxisRect, ...] = ()
    scores: tuple[float, ...] | None = None
    provenance: str | None = None
    round_index: int | None = None

    def __post_init__(self) -> None:
        if not self.image_id:
            raise ValueError("image_id must be non-empty")
        if self.tier is AnnotationTier.STRONG and self.rects:
            raise TierError(f"{self.image_id}: STRONG record carries rectangles")
        if self.tier is AnnotationTier.WEAK and self.polygons:
            raise TierError(f"{self.image_id}: WEAK record carries polygons")
        if self.tier is AnnotationTier.NONE and (self.polygons or self.rects):
            raise TierError(f"{self.image_id}: NONE record carries geometry")
        if self.scores is not None:
            if self.tier is not AnnotationTier.STRONG:
                raise TierError(f"{self.image_id}: scores only belong to STRONG records")
            if len(self.scores) != len(self.polygons):
                raise ValueError(
                    f"{self.image_id}: {len(self.scores)} scores for {len(self.polygons)} polygons"
                )
            for score in self.scores:
                if not (math.isfinite(score) and 0.0 <= score <= 1.0):
                    raise ValueError(f"{self.image_id}: score must lie in [0, 1], got {score}")
        if self.provenance is not None and self.provenance not in Provenance.__members__:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.round_index is not None and self.round_index < 0:
            raise ValueError(f"{self.image_id}: round must be >= 0, got {self.round_index}")


@dataclass(frozen=True)
class Dataset:
    """Records plus uniform image dimensions."""

    records: tuple[AnnotationRecord, ...]
    image_width: int
    image_height: int

    def __post_init__(self) -> None:
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError(f"image dims must be positive, got {self.image_width}x{self.image_height}")
        seen = set()
        for r in self.records:
            if r.image_id in seen:
                raise ValueError(f"duplicate image_id {r.image_id!r}")
            seen.add(r.image_id)

    def __len__(self) -> int:
        return len(self.records)


def require_tier(d: Dataset, tiers: tuple[AnnotationTier, ...], use: str) -> None:
    """Raise TierError, naming the image, for the first record of ``d``
    whose tier is not one of ``tiers``; ``use`` says what needs them."""
    for r in d.records:
        if r.tier not in tiers:
            names = " or ".join(t.name for t in tiers)
            raise TierError(f"{r.image_id}: {use} needs tier {names}, got {r.tier.name}")


def record_masks(d: Dataset, r: AnnotationRecord) -> tuple[BitMask, ...]:
    """The pixels of each of ``r``'s polygons, in ``d``'s image frame."""
    return tuple(rasterize(p, d.image_width, d.image_height) for p in r.polygons)


_HEADER_RE = re.compile(r"^#manifest\s+width=(\d+)\s+height=(\d+)\s*$")
_KEY_RE = re.compile(r"^([a-z_]+)=(.*)$", re.DOTALL)


def _format_floats(vals) -> str:
    return ",".join(map(repr, np.asarray(vals, dtype=np.float64).tolist()))


def _fits_manifest(image_id: str, path: str = ".") -> bool:
    """Whether id and path each stay one non-empty manifest field: no TAB or
    line break, and no leading ``#`` on the id (that line is a comment)."""
    return not image_id.startswith("#") and all(
        "\t" not in f and f.splitlines() == [f] for f in (image_id, path)
    )


def save_dataset(d: Dataset, manifest_path) -> None:
    """Write ``d`` so that load_dataset returns a structurally equal dataset.

    Each image path is written relative to the manifest's resolved
    directory, as ``Path(image_path).resolve()`` gives it.  Each distinct
    image directory is resolved once per call and the last component
    joined to it; a path is resolved whole only when that component is a
    symlink.  A last ``.`` or ``..`` needs no link lookup: ``relpath``
    folds it into the resolved directory.
    """
    path = Path(manifest_path)
    base = path.resolve().parent
    real_dirs: dict[str, str] = {}  # image directory as given -> resolved
    lines = [f"#manifest width={d.image_width} height={d.image_height}"]
    for r in d.records:
        head, tail = os.path.split(r.image_path)
        if os.path.islink(r.image_path):
            resolved = str(Path(r.image_path).resolve())
        else:
            if head not in real_dirs:
                real_dirs[head] = os.path.realpath(head)
            resolved = os.path.join(real_dirs[head], tail)
        rel = os.path.relpath(resolved, base)
        if not _fits_manifest(r.image_id, rel):
            raise ManifestError(
                f"{path}: image id {r.image_id!r} or path {rel!r} is not one manifest field"
            )
        fields = [r.image_id, rel, r.tier.value]
        if r.provenance is not None:
            fields.append(f"provenance={r.provenance}")
        if r.round_index is not None:
            fields.append(f"round={r.round_index}")
        if r.scores is not None:
            fields.append(f"scores={_format_floats(r.scores)}")
        for poly in r.polygons:
            fields.append(_format_floats(poly.vertices.ravel()))
        for rect in r.rects:
            fields.append(_format_floats((rect.x_min, rect.y_min, rect.x_max, rect.y_max)))
        lines.append("\t".join(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(manifest_path, require_images: bool = True) -> Dataset:
    """Parse a manifest into a validated Dataset.

    Raises ManifestError with the offending line number on malformed input,
    TierError on tier/geometry conflicts, and ImageError when a referenced
    image file is absent (unless require_images=False, which is only for
    tooling that never opens the pixels).  Each message starts with the
    manifest's path.
    """
    path = Path(manifest_path)
    raw_bytes = path.read_bytes()
    try:
        return _parse_manifest(raw_bytes, path.resolve().parent, require_images)
    except TextBootError as e:
        e.args = (f"{path}: {e}",)  # keeps the error's type and line number
        raise


def _parse_manifest(raw_bytes: bytes, base: Path, require_images: bool) -> Dataset:
    try:
        text = raw_bytes.decode("utf-8")
    except UnicodeDecodeError as e:
        # The sentinel makes a prefix ending in a line break count the next line.
        lineno = len((raw_bytes[: e.start].decode("utf-8") + "x").splitlines())
        raise ManifestError(f"not UTF-8 text ({e.reason})", lineno) from None

    width = height = None
    records: list[AnnotationRecord] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if width is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise ManifestError("expected '#manifest width=<w> height=<h>' header", lineno)
            width, height = int(m.group(1)), int(m.group(2))
            continue
        if line.startswith("#"):
            continue
        records.append(_parse_record(line, lineno, base, require_images))
    if width is None:
        raise ManifestError("manifest is missing its header line", 1)
    try:
        return Dataset(tuple(records), width, height)
    except ValueError as e:
        raise ManifestError(str(e)) from e


def _parse_record(line: str, lineno: int, base: Path, require_images: bool) -> AnnotationRecord:
    parts = line.split("\t")
    if len(parts) < 3:
        raise ManifestError(f"record needs at least id, path and tier, got {len(parts)} fields", lineno)
    image_id, rel_path, tier_name = parts[0], parts[1], parts[2]
    try:
        tier = AnnotationTier(tier_name)
    except ValueError:
        raise ManifestError(f"unknown tier {tier_name!r}", lineno) from None

    polygons: list[Polygon] = []
    rects: list[AxisRect] = []
    meta: dict[str, object] = {}  # parsed value by metadata key

    for token in parts[3:]:
        key_match = _KEY_RE.match(token)
        if key_match:
            key, value = key_match.group(1), key_match.group(2)
            if key in meta:
                raise ManifestError(f"metadata key {key!r} given twice", lineno)
            if key == "provenance":
                meta[key] = value
            elif key == "round":
                try:
                    meta[key] = int(value)
                except ValueError:
                    raise ManifestError(f"bad round value {value!r}", lineno) from None
            elif key == "scores":
                meta[key] = tuple(_parse_floats(value, lineno)) if value else ()
            else:
                raise ManifestError(f"unknown metadata key {key!r}", lineno)
            continue
        vals = _parse_floats(token, lineno)
        if len(vals) == 4:
            try:
                rects.append(AxisRect(*vals))
            except ValueError as e:
                raise ManifestError(str(e), lineno) from e
        elif len(vals) >= 6 and len(vals) % 2 == 0:
            try:
                polygons.append(Polygon(np.reshape(vals, (-1, 2))))
            except ValueError as e:
                raise ManifestError(f"bad polygon: {e}", lineno) from e
        else:
            raise ManifestError(f"geometry needs 4 or an even count >= 6 numbers, got {len(vals)}", lineno)

    resolved = Path(os.path.normpath(base / rel_path))
    try:
        record = AnnotationRecord(
            image_id=image_id,
            image_path=str(resolved),
            tier=tier,
            polygons=tuple(polygons),
            rects=tuple(rects),
            scores=meta.get("scores"),
            provenance=meta.get("provenance"),
            round_index=meta.get("round"),
        )
    except TierError as e:
        raise TierError(f"line {lineno}: {e}") from None
    except ValueError as e:
        raise ManifestError(str(e), lineno) from e
    if require_images and not resolved.is_file():
        raise ImageError(f"line {lineno}: image file not found: {resolved}")
    return record


def _parse_floats(text: str, lineno: int) -> list[float]:
    out = []
    for piece in text.split(","):
        try:
            v = float(piece)
        except ValueError:
            raise ManifestError(f"bad number {piece!r}", lineno) from None
        if not math.isfinite(v):
            raise ManifestError(f"non-finite number {piece!r}", lineno)
        out.append(v)
    return out


# PGM (P5), 8-bit grayscale: header "P5\n<w> <h>\n255\n" then raw bytes.


def write_pgm(path, pixels: np.ndarray) -> None:
    arr = np.asarray(pixels)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError(f"PGM writer needs a 2-d uint8 array, got {arr.dtype} {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def read_pgm(path) -> np.ndarray:
    """Pixels of a P5 file.  Raises ImageError, naming ``path``, on a bad file."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ImageError(f"{path}: cannot read image: {e.strerror}") from e
    if not data.startswith(b"P5"):
        raise ImageError(f"{path}: not a binary PGM (P5) file")
    # Header is three whitespace-separated tokens after the magic; '#'
    # starts a comment running to end of line.
    tokens: list[int] = []
    i = 2
    while len(tokens) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        # No real size has 19 digits; the cap also keeps int() within its limit.
        if not data[i:j].isdigit() or j - i > 18:
            raise ImageError(f"{path}: truncated or malformed PGM header")
        tokens.append(int(data[i:j]))
        i = j
    i += 1  # single whitespace byte after maxval
    w, h, maxval = tokens
    if w == 0 or h == 0:
        raise ImageError(f"{path}: PGM has no pixels ({w}x{h})")
    if maxval != 255:
        raise ImageError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    body = data[i : i + w * h]
    if len(body) != w * h:
        raise ImageError(f"{path}: PGM body has {len(body)} bytes, expected {w * h}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).copy()


def read_image(d: Dataset, r: AnnotationRecord) -> np.ndarray:
    """The pixels of ``d``'s record ``r``; every stage reads images here.

    Raises ImageError when the file's size is not the dataset's.
    """
    image = read_pgm(r.image_path)
    if image.shape != (d.image_height, d.image_width):
        raise ImageError(
            f"{r.image_id}: {r.image_path} is {image.shape[1]}x{image.shape[0]}, "
            f"its dataset is {d.image_width}x{d.image_height}"
        )
    return image


_DOWNGRADES = (AnnotationTier.WEAK, AnnotationTier.NONE)


def downgrade_record(r: AnnotationRecord, tier: AnnotationTier) -> AnnotationRecord:
    """A STRONG record at ``tier``: WEAK replaces each polygon by its
    bounding rectangle, order preserved; NONE drops the geometry."""
    if tier not in _DOWNGRADES:
        raise ValueError(f"downgrade must be WEAK or NONE, got {tier}")
    if r.tier is not AnnotationTier.STRONG:
        raise TierError(f"{r.image_id}: can only downgrade STRONG records, got {r.tier.value}")
    rects = tuple(p.bounding_box() for p in r.polygons) if tier is AnnotationTier.WEAK else ()
    return AnnotationRecord(r.image_id, r.image_path, tier, rects=rects)


def split_dataset(
    d: Dataset,
    strong_fraction: float,
    seed: int,
    downgrade: AnnotationTier | None = AnnotationTier.WEAK,
) -> tuple[Dataset, Dataset]:
    """Uniform random split of STRONG ``d`` into a strong subset and a rest.

    ``|strong| = round(strong_fraction * |d|)``, and neither half may be
    empty.  The rest is downgraded to the requested tier (WEAK boxes or
    NONE); ``downgrade=None`` keeps it at STRONG, which upper-bound training
    runs need.  Original record order is preserved within both halves.
    """
    if not d.records:
        raise EmptyDatasetError("cannot split an empty dataset")
    if not 0.0 < strong_fraction < 1.0:
        raise ValueError(f"strong_fraction must lie strictly between 0 and 1, got {strong_fraction}")
    if downgrade is not None and downgrade not in _DOWNGRADES:
        raise ValueError(f"downgrade must be WEAK, NONE or None, got {downgrade}")
    require_tier(d, (AnnotationTier.STRONG,), "split")
    rng = np.random.default_rng(seed)
    n = len(d.records)
    n_strong = int(round(strong_fraction * n))
    if not 0 < n_strong < n:
        raise ValueError(
            f"strong_fraction {strong_fraction} leaves a half empty: {n_strong} of {n} strong"
        )
    picked = rng.permutation(n)[:n_strong]
    strong_idx = set(int(i) for i in picked)
    strong = [r for i, r in enumerate(d.records) if i in strong_idx]
    rest = [
        r if downgrade is None else downgrade_record(r, downgrade)
        for i, r in enumerate(d.records)
        if i not in strong_idx
    ]
    return (
        Dataset(tuple(strong), d.image_width, d.image_height),
        Dataset(tuple(rest), d.image_width, d.image_height),
    )


_BACKGROUND_LEVEL = 92.0
_CURVATURE = (0.012, 0.05)  # ribbon arc curvature range, 1/px
_DISTRACTOR_A = (4.5, 7.5)  # distractor semi-axis ranges, px
_DISTRACTOR_B = (4.0, 6.0)
_DISTRACTOR_GAP = 2.0  # least px between a distractor's enclosing square and the frame edge
_DISTRACTOR_LIFT = (18.0, 30.0)  # gray levels
_TEXTURE_CELL = 12  # px between the background texture's grid points
_RIBBON_GAP = 3.0  # least px between the frame edge and a stroke's edge where its arc starts
# The least frame side that fits the largest distractor square and its gaps: 19 px.
_MIN_SIDE = math.ceil(2 * max(_DISTRACTOR_A[1], _DISTRACTOR_B[1]) + 2 * _DISTRACTOR_GAP)


@dataclass(frozen=True)
class SceneSpec:
    """Knobs for the synthetic curved-ribbon scene generator.

    Ribbons are bright strokes swept along random arcs over a textured
    background; distractors are dimmer elliptical smudges that are not
    text.  ``ribbon_lift`` and ``illumination`` are in gray levels.  The
    arc curvature, distractor brightness and texture cell are fixed.  Every
    value must be finite, and the widest stroke plus a 3 px gap on each
    side must fit inside the shorter frame side.  Each id, ``<prefix>_<index>``,
    must be one manifest field and a file name of at most 255 bytes.
    """

    n_images: int
    width: int = 80
    height: int = 80
    instances_per_image: tuple[int, int] = (1, 3)
    stroke_width: tuple[int, int] = (5, 6)
    noise_level: float = 0.005
    seed: int = 0
    prefix: str = "img"
    ribbon_lift: tuple[float, float] = (50.0, 85.0)
    illumination: tuple[float, float] = (-30.0, 30.0)
    distractors_per_image: tuple[int, int] = (1, 2)
    texture_amp: float = 8.0
    pixel_noise: float = 7.0

    def __post_init__(self) -> None:
        require_integers(self, "n_images", "width", "height", "seed")
        if self.n_images < 1:
            raise ValueError(f"n_images must be >= 1, got {self.n_images}")
        name = f"{self.prefix}_{self.n_images - 1:05d}.pgm"  # the longest file name
        try:  # the manifest is UTF-8 text, and a file name is at most 255 bytes
            fits = len(name.encode("utf-8")) <= 255
        except UnicodeEncodeError:  # a lone surrogate
            fits = False
        if not (fits and _fits_manifest(name)) or {"/", "\0"} & set(name):
            raise ValueError(f"prefix {self.prefix!r} cannot start an image id and file name")
        if self.width < _MIN_SIDE or self.height < _MIN_SIDE:
            raise ValueError(
                f"scene dims must be at least {_MIN_SIDE}x{_MIN_SIDE}, got {self.width}x{self.height}"
            )
        ranges = ("instances_per_image", "stroke_width", "ribbon_lift", "illumination",
                  "distractors_per_image")
        for name in ranges + ("noise_level", "texture_amp", "pixel_noise"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ranges:
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} range is empty: ({lo}, {hi})")
        if self.instances_per_image[0] < 0 or self.stroke_width[0] < 2:
            raise ValueError("instances_per_image must be >= 0 and stroke_width >= 2")
        if self.stroke_width[1] + 2 * _RIBBON_GAP >= min(self.width, self.height):
            raise ValueError(
                f"stroke_width up to {self.stroke_width[1]} px leaves no room for a ribbon in a "
                f"{self.width}x{self.height} frame"
            )
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level must lie in [0, 1], got {self.noise_level}")
        for name in ("texture_amp", "pixel_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def generate_synthetic(spec: SceneSpec, out_dir) -> Dataset:
    """Render spec.n_images scenes into out_dir plus a manifest.

    Deterministic: the same spec produces byte-identical images and
    manifest.  Returns the STRONG dataset, with absolute image paths, that
    ``load_dataset`` reads back from ``out_dir/dataset.manifest``.
    """
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    records = []
    for i in range(spec.n_images):
        img, polys = _render_scene(rng, spec)
        name = f"{spec.prefix}_{i:05d}"
        img_path = out / f"{name}.pgm"
        write_pgm(img_path, img)
        records.append(
            AnnotationRecord(name, str(img_path), AnnotationTier.STRONG, polygons=tuple(polys))
        )
    ds = Dataset(tuple(records), spec.width, spec.height)
    save_dataset(ds, out / "dataset.manifest")
    return ds


def _render_scene(rng: np.random.Generator, spec: SceneSpec):
    h, w = spec.height, spec.width
    illum = rng.uniform(*spec.illumination)
    img = np.full((h, w), _BACKGROUND_LEVEL + illum)
    img += spec.texture_amp * _smooth_field(rng, h, w, _TEXTURE_CELL)
    img += rng.normal(0.0, spec.pixel_noise, (h, w))

    polys: list[Polygon] = []
    boxes: list[AxisRect] = []
    want = int(rng.integers(spec.instances_per_image[0], spec.instances_per_image[1] + 1))
    for _ in range(want):
        placed = _place_ribbon(rng, spec, boxes)
        if placed is None:
            continue
        poly, mask = placed
        lift = rng.uniform(*spec.ribbon_lift)
        img[mask] += lift
        polys.append(poly)
        boxes.append(poly.bounding_box())

    n_distract = int(rng.integers(spec.distractors_per_image[0], spec.distractors_per_image[1] + 1))
    for _ in range(n_distract):
        ell = _place_ellipse(rng, spec, boxes)
        if ell is None:
            continue
        img[ell] += rng.uniform(*_DISTRACTOR_LIFT)

    k = int(round(spec.noise_level * h * w))
    if k > 0:
        flat = rng.choice(h * w, size=k, replace=False)
        vals = np.where(rng.random(k) < 0.5, 0.0, 255.0)
        img.reshape(-1)[flat] = vals

    return np.clip(np.rint(img), 0, 255).astype(np.uint8), polys


def _smooth_field(rng: np.random.Generator, h: int, w: int, cell: int) -> np.ndarray:
    """Bilinear upsample of coarse unit-normal noise; roughly unit scale."""
    gh, gw = h // cell + 2, w // cell + 2
    grid = rng.normal(0.0, 1.0, (gh, gw))
    ys = np.arange(h) / cell
    xs = np.arange(w) / cell
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    g = grid
    return (
        g[y0][:, x0] * (1 - fy) * (1 - fx)
        + g[y0][:, x0 + 1] * (1 - fy) * fx
        + g[y0 + 1][:, x0] * fy * (1 - fx)
        + g[y0 + 1][:, x0 + 1] * fy * fx
    )


def _place_ribbon(rng, spec: SceneSpec, taken: list[AxisRect], tries: int = 25):
    """The frame and overlap tests run on the ring's box, so only a ring
    that passes them is checked for simplicity; the check draws nothing
    from ``rng``."""
    h, w = spec.height, spec.width
    for _ in range(tries):
        ring = _ribbon_ring(rng, spec)
        bb = vertex_bbox(ring)
        if bb.x_min < 1 or bb.y_min < 1 or bb.x_max > w - 1 or bb.y_max > h - 1:
            continue
        if any(_boxes_touch(bb, other, pad=7.0) for other in taken):
            continue
        try:
            poly = Polygon(ring)
        except ValueError:
            continue
        mask = rasterize(poly, w, h)
        if mask.count < 9:
            continue
        return poly, mask.pixels
    return None


def _ribbon_ring(rng, spec: SceneSpec):
    """Vertices of a stroke swept along a random arc: its left side, then
    its right side backwards."""
    stroke = int(rng.integers(spec.stroke_width[0], spec.stroke_width[1] + 1))
    half = stroke / 2.0
    margin = half + _RIBBON_GAP
    length = rng.uniform(0.35, 0.55) * min(spec.width, spec.height)
    kappa = rng.uniform(*_CURVATURE) * (1.0 if rng.random() < 0.5 else -1.0)
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    x0 = rng.uniform(margin, spec.width - margin)
    y0 = rng.uniform(margin, spec.height - margin)

    n = max(9, int(length / 2.5))
    s = np.linspace(0.0, length, n)
    theta = theta0 + kappa * s
    ds = length / (n - 1)
    xs = x0 + np.concatenate([[0.0], np.cumsum(np.cos(theta[:-1]) * ds)])
    ys = y0 + np.concatenate([[0.0], np.cumsum(np.sin(theta[:-1]) * ds)])
    ox = half * -np.sin(theta)
    oy = half * np.cos(theta)
    ring = np.empty((2 * n, 2))
    ring[:n, 0] = xs + ox
    ring[:n, 1] = ys + oy
    ring[n:, 0] = (xs - ox)[::-1]
    ring[n:, 1] = (ys - oy)[::-1]
    return ring


def _place_ellipse(rng, spec: SceneSpec, avoid: list[AxisRect], tries: int = 15):
    h, w = spec.height, spec.width
    for _ in range(tries):
        a = rng.uniform(*_DISTRACTOR_A)
        b = rng.uniform(*_DISTRACTOR_B)
        phi = rng.uniform(0.0, np.pi)
        r = max(a, b)
        cx = rng.uniform(r + _DISTRACTOR_GAP, w - r - _DISTRACTOR_GAP)
        cy = rng.uniform(r + _DISTRACTOR_GAP, h - r - _DISTRACTOR_GAP)
        bb = AxisRect(cx - r, cy - r, cx + r, cy + r)
        if any(_boxes_touch(bb, other, pad=4.0) for other in avoid):
            continue
        yy, xx = np.ogrid[0:h, 0:w]
        u = (xx + 0.5 - cx) * np.cos(phi) + (yy + 0.5 - cy) * np.sin(phi)
        v = -(xx + 0.5 - cx) * np.sin(phi) + (yy + 0.5 - cy) * np.cos(phi)
        return (u / a) ** 2 + (v / b) ** 2 <= 1.0
    return None


def _boxes_touch(a: AxisRect, b: AxisRect, pad: float) -> bool:
    return (
        a.x_min - pad < b.x_max
        and b.x_min < a.x_max + pad
        and a.y_min - pad < b.y_max
        and b.y_min < a.y_max + pad
    )
