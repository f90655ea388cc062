"""End-to-end tests of the command-line surface (exit codes, artifacts)."""

import argparse
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from textboot.cli import build_parser, main
from textboot.data import (
    AnnotationTier,
    Dataset,
    Provenance,
    SceneSpec,
    generate_synthetic,
    load_dataset,
    read_pgm,
    save_dataset,
    write_pgm,
)
from textboot.detector import TrainConfig
from textboot.evaluation import EvalConfig, evaluate
from textboot.orchestrator import PipelineConfig, Strategy
from textboot.strategies import StrategyConfig
from textboot.cli import _manifest_detections
from tests.test_detector import EASY


def _hash_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    """Manifests for run/eval/annotate tests, written through the library."""
    root = tmp_path_factory.mktemp("cliworld")
    generate_synthetic(SceneSpec(n_images=12, seed=61, **EASY), root / "train")
    generate_synthetic(SceneSpec(n_images=5, seed=62, prefix="test", **EASY), root / "test")
    assert main([
        "split", str(root / "train" / "dataset.manifest"),
        "--out", str(root / "splits"), "--strong-fraction", "0.25", "--seed", "3",
    ]) == 0
    return root


# --- synth -------------------------------------------------------------------


def test_synth_writes_manifest_and_is_deterministic(tmp_path, capsys):
    args = ["synth", "--n-images", "4", "--width", "48", "--height", "40", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "wrote 4 images" in out
    a, b = _hash_tree(tmp_path / "a"), _hash_tree(tmp_path / "b")
    assert a and a == b
    ds = load_dataset(tmp_path / "a" / "dataset.manifest")
    assert len(ds.records) == 4 and ds.image_width == 48 and ds.image_height == 40


def test_synth_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file")
    code = main(["synth", "--n-images", "1", "--out", str(blocker / "sub")])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


def test_synth_rejects_bad_spec(capsys, tmp_path):
    assert main(["synth", "--n-images", "0", "--out", str(tmp_path / "x")]) == 1
    assert "invalid value" in capsys.readouterr().err


# --- split -------------------------------------------------------------------


def test_split_tiers_and_counts(cli_world):
    root = cli_world
    strong = load_dataset(root / "splits" / "strong.manifest")
    rest = load_dataset(root / "splits" / "rest.manifest")
    assert len(strong.records) == 3 and len(rest.records) == 9
    assert all(r.tier is AnnotationTier.STRONG for r in strong.records)
    assert all(r.tier is AnnotationTier.WEAK and r.rects for r in rest.records)


def test_split_downgrade_none_and_strong(cli_world, tmp_path):
    root = cli_world
    src = str(root / "train" / "dataset.manifest")
    assert main(["split", src, "--out", str(tmp_path / "n"), "--strong-fraction", "0.25",
                 "--seed", "3", "--downgrade", "none"]) == 0
    rest = load_dataset(tmp_path / "n" / "rest.manifest")
    assert all(r.tier is AnnotationTier.NONE and not r.rects for r in rest.records)
    assert main(["split", src, "--out", str(tmp_path / "s"), "--strong-fraction", "0.25",
                 "--seed", "3", "--downgrade", "strong"]) == 0
    rest = load_dataset(tmp_path / "s" / "rest.manifest")
    assert all(r.tier is AnnotationTier.STRONG for r in rest.records)


def test_split_missing_manifest(tmp_path, capsys):
    assert main(["split", str(tmp_path / "nope.manifest"), "--out", str(tmp_path),
                 "--strong-fraction", "0.5"]) == 1
    assert "error" in capsys.readouterr().err.lower()


# --- run ---------------------------------------------------------------------


def _run_args(root, out, strategy="local", rounds="1", extra=()):
    return [
        "run",
        "--strong", str(root / "splits" / "strong.manifest"),
        "--pool", str(root / "splits" / "rest.manifest"),
        "--test", str(root / "test" / "dataset.manifest"),
        "--out", str(out),
        "--strategy", strategy,
        "--rounds", rounds,
        "--epochs", "10",
        *extra,
    ]


def test_run_rounds_zero_baseline_only(cli_world, tmp_path, capsys):
    assert main(_run_args(cli_world, tmp_path / "run", rounds="0")) == 0
    out = capsys.readouterr().out
    assert "round 0:" in out and "round 1:" not in out
    assert "best round: 0" in out
    assert (tmp_path / "run" / "round_000" / "model.bin").exists()
    assert not (tmp_path / "run" / "round_001").exists()


def test_run_local_full_artifacts_and_manifest(cli_world, tmp_path, capsys):
    assert main(_run_args(cli_world, tmp_path / "run")) == 0
    run = tmp_path / "run"
    for rel in (
        "round_000/model.bin", "round_000/metrics.txt",
        "round_001/model.bin", "round_001/metrics.txt", "round_001/pseudo.manifest",
        "metrics.txt", "f_vs_round.tsv", "run_manifest.json",
    ):
        assert (run / rel).exists(), rel
    man = json.loads((run / "run_manifest.json").read_text())
    assert man["tool_version"]
    assert "seed" not in man, "the seed is recorded once, as config.train_cfg.seed"
    assert man["config"]["strategy"] == "LOCAL"
    assert man["best_round"] in (0, 1)
    assert not man["incomplete"]
    for entry in man["inputs"].values():
        assert len(entry["sha256"]) == 64
        assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
    assert man["rounds"][0]["pseudo"] is None
    assert man["rounds"][1]["pseudo"] == "round_001/pseudo.manifest"
    # every model.bin, metrics.txt and pseudo.manifest checked above, with its hash
    assert man["artifacts"] == {k: v for k, v in _hash_tree(run).items() if k != "run_manifest.json"}


def test_run_filter_on_none_pool_fails_with_diagnostic(cli_world, tmp_path, capsys):
    root = cli_world
    assert main(["split", str(root / "train" / "dataset.manifest"),
                 "--out", str(tmp_path / "nsplit"), "--strong-fraction", "0.25",
                 "--seed", "3", "--downgrade", "none"]) == 0
    code = main([
        "run",
        "--strong", str(tmp_path / "nsplit" / "strong.manifest"),
        "--pool", str(tmp_path / "nsplit" / "rest.manifest"),
        "--test", str(root / "test" / "dataset.manifest"),
        "--out", str(tmp_path / "run"),
        "--strategy", "filter", "--rounds", "1", "--epochs", "10",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "incomplete" in err and "TierError" in err


def test_run_with_a_wrong_size_image_is_marked_incomplete(cli_world, tmp_path, capsys):
    world = tmp_path / "world"
    shutil.copytree(cli_world, world)
    victim = load_dataset(world / "splits" / "strong.manifest").records[1]
    assert Path(victim.image_path).is_relative_to(world)  # manifests travel with the tree
    write_pgm(victim.image_path, read_pgm(victim.image_path)[:48, :48])
    assert main(_run_args(world, tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "incomplete: ImageError" in err
    assert victim.image_id in err and victim.image_path in err and "48x48" in err
    man = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert man["incomplete"] and man["best_round"] == -1 and man["rounds"] == []
    assert (tmp_path / "run" / "metrics.txt").read_text() == "best_round=-1\n"


def test_run_determinism_byte_identical(cli_world, tmp_path):
    assert main(_run_args(cli_world, tmp_path / "a", strategy="filter")) == 0
    assert main(_run_args(cli_world, tmp_path / "b", strategy="filter", extra=("--jobs", "2"))) == 0
    a, b = _hash_tree(tmp_path / "a"), _hash_tree(tmp_path / "b")
    # run_manifest.json embeds input paths (identical here); everything must match
    assert set(a) == set(b)
    for rel in a:
        if rel == "run_manifest.json":
            continue
        assert a[rel] == b[rel], rel


def test_run_with_a_bad_pool_manifest_names_it(cli_world, tmp_path, capsys):
    lines = (cli_world / "splits" / "rest.manifest").read_text().splitlines()
    fields = lines[1].split("\t")
    fields[3:4] = ["1,2,x,4"]  # the first rectangle
    pool = cli_world / "splits" / "bad_rest.manifest"
    pool.write_text("\n".join([lines[0], "\t".join(fields)] + lines[2:]) + "\n")
    args = _run_args(cli_world, tmp_path / "run")
    args[args.index("--pool") + 1] = str(pool)
    assert main(args) == 1
    assert f"error: {pool}: line 2: bad number 'x'" in capsys.readouterr().err


def test_run_root_env_override(cli_world, tmp_path, monkeypatch):
    monkeypatch.setenv("TEXTBOOT_RUN_ROOT", str(tmp_path / "runs"))
    assert main(_run_args(cli_world, Path("exp1"), rounds="0")) == 0
    assert (tmp_path / "runs" / "exp1" / "metrics.txt").exists()


def test_usage_errors_exit_two(cli_world, tmp_path):
    assert main(["run", "--strategy", "bogus"]) == 2
    assert main(["bogus-command"]) == 2
    assert main([]) == 2


def test_cli_defaults_come_from_the_dataclasses(cli_world, tmp_path):
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    strategy, train = StrategyConfig(), TrainConfig()
    pipeline, evaluation = PipelineConfig(strategy=Strategy.LOCAL), EvalConfig()
    thresholds = {
        "score_s": strategy.score_threshold,
        "score_sprime": strategy.filter_score_threshold,
        "iou_t": strategy.filter_iou_threshold,
    }
    want = {
        "run": {
            **thresholds,
            "rounds": pipeline.rounds,
            "seed": train.seed,
            "epochs": train.epochs,
            "learning_rate": train.learning_rate,
            "batch_size": train.batch_size,
            "eval_iou": evaluation.iou_threshold,
        },
        "annotate": thresholds,
        "eval": {"iou": evaluation.iou_threshold},
    }
    for command, fields in want.items():
        defaults = {a.dest: a.default for a in commands[command]._actions}
        for dest, value in fields.items():
            assert defaults[dest] == value, f"{command} --{dest.replace('_', '-')}"
    # the strategy names come from the enums, and --seed is the training seed
    for command, names in (("run", Strategy), ("annotate", Provenance)):
        choices = {a.dest: a.choices for a in commands[command]._actions}["strategy"]
        assert list(choices) == [s.name.lower() for s in names], command
    assert main(_run_args(cli_world, tmp_path / "run", rounds="0", extra=("--seed", "5"))) == 0
    man = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert man["config"]["train_cfg"]["seed"] == 5


# --- eval --------------------------------------------------------------------


def test_eval_identity_prints_perfect_line(cli_world, tmp_path, capsys):
    gt = cli_world / "test" / "dataset.manifest"
    assert main(["eval", "--det", str(gt), "--gt", str(gt)]) == 0
    assert capsys.readouterr().out.strip() == "P=1.000 R=1.000 F=1.000"


def test_eval_report_matches_library_bytes(cli_world, tmp_path, capsys):
    gt_path = cli_world / "test" / "dataset.manifest"
    report_path = tmp_path / "report.txt"
    assert main(["eval", "--det", str(gt_path), "--gt", str(gt_path),
                 "--report", str(report_path)]) == 0
    truth = load_dataset(gt_path, require_images=False)
    expected = evaluate(_manifest_detections(truth), truth, EvalConfig())
    assert report_path.read_bytes() == expected.to_text().encode()


def test_eval_rejects_a_detection_manifest_without_pixels(cli_world, capsys):
    weak = load_dataset(cli_world / "splits" / "rest.manifest").records[0]
    assert main(["eval", "--det", str(cli_world / "splits" / "rest.manifest"),
                 "--gt", str(cli_world / "train" / "dataset.manifest")]) == 1
    err = capsys.readouterr().err
    assert f"{weak.image_id}: a detection manifest needs tier STRONG, got WEAK" in err


def test_eval_names_the_detection_manifest_with_unknown_ids(cli_world, capsys):
    det = cli_world / "train" / "dataset.manifest"
    gt = cli_world / "test" / "dataset.manifest"
    ids = sorted(r.image_id for r in load_dataset(det).records)
    assert main(["eval", "--det", str(det), "--gt", str(gt)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {det}: ids not in the truth ({len(ids)}): {', '.join(ids[:5])} (truth: {gt})\n"
    )


def test_eval_missing_file(tmp_path, capsys):
    assert main(["eval", "--det", str(tmp_path / "x"), "--gt", str(tmp_path / "y")]) == 1
    assert "error" in capsys.readouterr().err.lower()


# --- annotate ----------------------------------------------------------------


def test_annotate_local_counts(cli_world, tmp_path, capsys):
    root = cli_world
    assert main(_run_args(root, tmp_path / "run", rounds="0")) == 0
    model = tmp_path / "run" / "round_000" / "model.bin"
    out = tmp_path / "pseudo.manifest"
    assert main(["annotate", "--model", str(model),
                 "--pool", str(root / "splits" / "rest.manifest"),
                 "--strategy", "local", "--out", str(out)]) == 0
    pool = load_dataset(root / "splits" / "rest.manifest")
    text = capsys.readouterr().out
    assert f"{sum(len(r.rects) for r in pool.records)} pseudo instances" in text
    produced = load_dataset(out)
    assert len(produced.records) == len(pool.records)
    assert all(r.tier is AnnotationTier.STRONG for r in produced.records)


def test_annotate_naive_over_weak_pool(cli_world, tmp_path):
    root = cli_world
    assert main(_run_args(root, tmp_path / "run", rounds="0")) == 0
    model = tmp_path / "run" / "round_000" / "model.bin"
    assert main(["annotate", "--model", str(model),
                 "--pool", str(root / "splits" / "rest.manifest"),
                 "--strategy", "naive", "--out", str(tmp_path / "naive.manifest")]) == 0
    assert load_dataset(tmp_path / "naive.manifest").records


def test_annotate_empty_pool(cli_world, tmp_path):
    root = cli_world
    assert main(_run_args(root, tmp_path / "run", rounds="0")) == 0
    model = tmp_path / "run" / "round_000" / "model.bin"
    empty = Dataset(records=(), image_width=64, image_height=64)
    save_dataset(empty, tmp_path / "empty.manifest")
    out = tmp_path / "out.manifest"
    assert main(["annotate", "--model", str(model), "--pool", str(tmp_path / "empty.manifest"),
                 "--strategy", "local", "--out", str(out)]) == 0
    assert load_dataset(out, require_images=False).records == ()


# --- convert -----------------------------------------------------------------


def test_convert_round_trip(cli_world, tmp_path):
    root = cli_world
    src = load_dataset(root / "test" / "dataset.manifest")
    ann_dir = tmp_path / "dumps"
    ann_dir.mkdir()
    # write third-party-style dumps for images that have instances
    for rec in src.records:
        if not rec.polygons:
            continue
        lines = []
        for poly in rec.polygons:
            coords = []
            for v in poly.vertices:
                coords.extend([v.x, v.y])
            lines.append(",".join(str(c) for c in coords))
        (ann_dir / f"{Path(rec.image_path).stem}.txt").write_text("\n".join(lines))
    out = tmp_path / "converted.manifest"
    assert main(["convert", "--images", str(root / "test"), "--annotations", str(ann_dir),
                 "--width", "64", "--height", "64", "--out", str(out)]) == 0
    conv = load_dataset(out)
    assert len(conv.records) == len(src.records)
    by_id = {r.image_id: r for r in conv.records}
    for rec in src.records:
        got = by_id[Path(rec.image_path).stem]
        assert len(got.polygons) == len(rec.polygons)


def test_convert_rejects_bad_dump(tmp_path, capsys):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    from textboot.data import write_pgm

    write_pgm(img_dir / "a.pgm", np.zeros((8, 8), dtype=np.uint8))
    ann = tmp_path / "ann"
    ann.mkdir()
    for dump, why in (
        ("1,2,3,4", "coordinates"),  # four coords: not a polygon
        ("0,0,nan,1,2,2", "finite"),
        ("0,0,2,2,2,0,0,2", "edges cross"),
        ("0,0,0,0,5,5", "zero-length edge"),
    ):
        (ann / "a.txt").write_text(f"# polygon dump\n{dump}\n")
        assert main(["convert", "--images", str(img_dir), "--annotations", str(ann),
                     "--width", "8", "--height", "8", "--out", str(tmp_path / "o.manifest")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ann / 'a.txt'}:2: ") and why in err, err
