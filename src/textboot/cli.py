"""Command-line front end: synth / split / run / eval / annotate / convert.

Exit codes: 0 on success, 1 on a domain or I/O error (with a diagnostic
on stderr), 2 on a usage error.  Every subcommand is deterministic given
its flags and seeds and never mutates its inputs: an output that is the
same file as one of them is refused before anything is written.  ``run``
additionally writes a run_manifest.json recording the tool version, the
full config, and SHA-256 hashes of the input manifests and of every other
file in the run directory, so a run can be re-verified byte for byte.
``run --out`` names the run directory, relative to the working directory
unless absolute, and must be empty or missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    AnnotationRecord,
    AnnotationTier,
    Dataset,
    Provenance,
    SceneSpec,
    generate_synthetic,
    load_dataset,
    read_pgm,
    record_masks,
    require_tier,
    save_dataset,
    split_dataset,
)
from .detector import TrainConfig
from .errors import ImageError, TextBootError, UnknownImageError
from .evaluation import EvalConfig, evaluate
from .geometry import Detection, Polygon, mask_bbox
from .orchestrator import PipelineConfig, Strategy, cross_domain_annotate, run_pipeline


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _refuse_overwrite(outputs, inputs) -> None:
    """TextBootError for an output that is the same file as one of the inputs."""
    for out in filter(Path.exists, map(Path, outputs)):
        for inp in inputs:
            if out.samefile(inp):
                raise TextBootError(f"output {out} is the input {inp}")


def _choices(enum_type) -> list[str]:
    """The lower-case member names of an enum, as command-line choices."""
    return [member.name.lower() for member in enum_type]


# --- synth -------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = SceneSpec(
        n_images=args.n_images,
        width=args.width,
        height=args.height,
        seed=args.seed,
        prefix=args.prefix,
    )
    ds = generate_synthetic(spec, Path(args.out))
    n_instances = sum(len(r.polygons) for r in ds.records)
    print(
        f"wrote {len(ds.records)} images ({ds.image_width}x{ds.image_height}, "
        f"{n_instances} instances) under {args.out}"
    )
    return 0


# --- split -------------------------------------------------------------------


def cmd_split(args) -> int:
    ds = load_dataset(Path(args.manifest))
    tier = AnnotationTier[args.downgrade.upper()]
    downgrade = None if tier is AnnotationTier.STRONG else tier
    try:
        strong, rest = split_dataset(ds, args.strong_fraction, args.seed, downgrade=downgrade)
    except TextBootError as e:
        e.args = (f"{args.manifest}: {e}",)  # as load_dataset names its manifest
        raise
    out = Path(args.out)
    _refuse_overwrite([out / "strong.manifest", out / "rest.manifest"], [args.manifest])
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(strong, out / "strong.manifest")
    save_dataset(rest, out / "rest.manifest")
    print(f"split {len(ds.records)} records into {len(strong.records)} strong / "
          f"{len(rest.records)} rest under {args.out}")
    return 0


# --- run ---------------------------------------------------------------------


def cmd_run(args) -> int:
    strong = load_dataset(Path(args.strong))
    pool = load_dataset(Path(args.pool))
    test = load_dataset(Path(args.test))
    cfg = PipelineConfig(
        strategy=Strategy[args.strategy.upper()],
        rounds=args.rounds,
        train_cfg=TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed),
        eval_cfg=EvalConfig(iou_threshold=args.eval_iou),
    )
    run_dir = Path(args.out)
    result = run_pipeline(strong, pool, test, cfg, run_dir, jobs=args.jobs)

    manifest = {
        "tool_version": __version__,
        "config": {
            "strategy": cfg.strategy.value,
            "rounds": cfg.planned_rounds,
            "train_cfg": asdict(cfg.train_cfg),
            "eval_iou": cfg.eval_cfg.iou_threshold,
        },
        "inputs": {
            name: {"path": str(Path(p)), "sha256": _sha256(Path(p))}
            for name, p in (("strong", args.strong), ("pool", args.pool), ("test", args.test))
        },
        "rounds": [
            {
                "round": r.round_index,
                "model": f"round_{r.round_index:03d}/model.bin",
                "metrics": f"round_{r.round_index:03d}/metrics.txt",
                "pseudo": f"round_{r.round_index:03d}/pseudo.manifest" if r.round_index else None,
            }
            for r in result.reports
        ],
        "best_round": result.best_round,
        "incomplete": result.incomplete,
    }
    manifest_path = run_dir / "run_manifest.json"
    manifest["artifacts"] = {
        p.relative_to(run_dir).as_posix(): _sha256(p)
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p != manifest_path
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    for r in result.reports:
        print(
            f"round {r.round_index}: P={r.precision:.3f} R={r.recall:.3f} "
            f"F={r.f_measure:.3f} pseudo={r.pseudo_count}"
        )
    if result.incomplete:
        print(f"error: run incomplete: {result.failure}", file=sys.stderr)
        return 1
    best = result.reports[result.best_round]
    print(f"best round: {result.best_round} (F={best.f_measure:.3f})")
    return 0


# --- eval --------------------------------------------------------------------


def _manifest_detections(ds: Dataset) -> dict[str, list[Detection]]:
    require_tier(ds, (AnnotationTier.STRONG,), "a detection manifest")
    out: dict[str, list[Detection]] = {}
    for rec in ds.records:
        dets = []
        for i, (poly, mask) in enumerate(zip(rec.polygons, record_masks(ds, rec))):
            box = mask_bbox(mask) if mask.count else poly.bounding_box()
            score = rec.scores[i] if rec.scores is not None else 1.0
            dets.append(Detection(box=box, mask=mask, score=score))
        out[rec.image_id] = dets
    return out


def cmd_eval(args) -> int:
    truth = load_dataset(Path(args.gt), require_images=False)
    det_ds = load_dataset(Path(args.det), require_images=False)
    try:
        report = evaluate(_manifest_detections(det_ds), truth, EvalConfig(iou_threshold=args.iou))
    except UnknownImageError as e:
        e.args = (f"{args.det}: {e} (truth: {args.gt})",)
        raise
    if args.report:
        _refuse_overwrite([args.report], [args.det, args.gt])
        Path(args.report).write_text(report.to_text(), encoding="utf-8")
    print(f"P={report.precision:.3f} R={report.recall:.3f} F={report.f_measure:.3f}")
    return 0


# --- annotate ----------------------------------------------------------------


def cmd_annotate(args) -> int:
    pool = load_dataset(Path(args.pool))
    _refuse_overwrite([args.out], [args.model, args.pool] + [r.image_path for r in pool.records])
    pseudo = cross_domain_annotate(args.model, pool, args.out, Provenance[args.strategy.upper()])
    print(f"annotated {len(pool.records)} images: {pseudo.count} pseudo instances -> {args.out}")
    return 0


# --- convert -----------------------------------------------------------------


def cmd_convert(args) -> int:
    """Turn a directory of per-image polygon dumps into a manifest.

    Expects one UTF-8 file per image named <image stem>.txt, each line one
    polygon as comma-separated x,y coordinates; images without a dump file
    become empty pixel-tier records, and a dump without an image is refused.
    The manifest's frame is the first image's size, which every image needs.
    """
    images_dir = Path(args.images)
    ann_dir = Path(args.annotations)
    image_files = sorted(images_dir.glob("*.pgm"))
    if not image_files:
        raise TextBootError(f"no .pgm images found under {images_dir}")
    if not ann_dir.is_dir():
        raise TextBootError(f"annotation directory {ann_dir} not found")
    dumps = sorted(ann_dir.glob("*.txt"))
    for dump in dumps:
        if not (images_dir / f"{dump.stem}.pgm").is_file():
            raise TextBootError(f"{dump}: no image {dump.stem}.pgm under {images_dir}")
    records = []
    for img in image_files:
        ih, iw = read_pgm(img).shape
        if not records:
            h, w = ih, iw
        elif (ih, iw) != (h, w):
            raise ImageError(f"{img} is {iw}x{ih}, but {image_files[0]} is {w}x{h}")
        polys = []
        dump = ann_dir / f"{img.stem}.txt"
        if dump.exists():
            try:
                text = dump.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise TextBootError(f"{dump}: not UTF-8 text ({exc.reason})") from None
            for line_no, line in enumerate(text.splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    nums = [float(tok) for tok in line.replace(";", ",").split(",")]
                    if len(nums) < 6 or len(nums) % 2:
                        raise ValueError("need an even count of >= 6 coordinates")
                    polys.append(Polygon(np.reshape(nums, (-1, 2))))
                except ValueError as exc:
                    raise TextBootError(f"{dump}:{line_no}: bad polygon: {exc}") from None
        records.append(
            AnnotationRecord(
                image_id=img.stem,
                image_path=str(img.resolve()),
                tier=AnnotationTier.STRONG,
                polygons=tuple(polys),
            )
        )
    ds = Dataset(records=tuple(records), image_width=w, image_height=h)
    out = Path(args.out)
    _refuse_overwrite([out], image_files + dumps)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    print(f"converted {len(records)} images -> {args.out}")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textboot",
        description="Bootstrap a curved-text detector from few pixel labels "
        "plus a weakly-annotated pool.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scene = SceneSpec(n_images=1)
    pipeline = PipelineConfig(strategy=Strategy.LOCAL)
    training, evaluation = TrainConfig(), EvalConfig()
    p = sub.add_parser("synth", help="generate a synthetic annotated dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-images", type=int, required=True)
    p.add_argument("--width", type=int, default=scene.width)
    p.add_argument("--height", type=int, default=scene.height)
    p.add_argument("--seed", type=int, default=scene.seed)
    p.add_argument("--prefix", default=scene.prefix)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="split a manifest into strong / rest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--strong-fraction", type=float, required=True)
    p.add_argument("--downgrade", choices=_choices(AnnotationTier), default="weak",
                   help="tier for the rest split (strong keeps pixel annotations)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("run", help="run the full bootstrap pipeline")
    p.add_argument("--strong", required=True, help="pixel-annotated training manifest")
    p.add_argument("--pool", required=True, help="weak/unlabeled pool manifest")
    p.add_argument("--test", required=True, help="pixel-annotated test manifest")
    p.add_argument("--out", required=True, help="run directory; created if missing, must be empty")
    p.add_argument("--strategy", choices=_choices(Strategy), required=True)
    p.add_argument("--rounds", type=int, default=pipeline.rounds,
                   help="rounds after the baseline; no effect on fully, which trains round 0 only")
    p.add_argument("--seed", type=int, default=training.seed,
                   help="training seed of round 0; round r trains with seed + r")
    p.add_argument("--epochs", type=int, default=training.epochs)
    p.add_argument("--batch-size", type=int, default=training.batch_size)
    p.add_argument("--eval-iou", type=float, default=evaluation.iou_threshold)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a detection manifest against ground truth")
    p.add_argument("--det", required=True, help="detections as a pixel-tier manifest")
    p.add_argument("--gt", required=True, help="ground-truth pixel-tier manifest")
    p.add_argument("--iou", type=float, default=evaluation.iou_threshold)
    p.add_argument("--report", help="also write the full key=value report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("annotate", help="pseudo-annotate a pool with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--strategy", choices=_choices(Provenance), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("convert", help="convert per-image polygon dumps to a manifest")
    p.add_argument("--images", required=True, help="directory of .pgm images")
    p.add_argument("--annotations", required=True, help="directory of <stem>.txt dumps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors / --help this way
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TextBootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
