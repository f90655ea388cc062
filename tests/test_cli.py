"""End-to-end tests of the command-line surface (exit codes, artifacts)."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import textboot
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
from textboot.detector import DetectorModel, TrainConfig, feature_dim, save_model
from textboot.evaluation import EvalConfig, evaluate
from textboot.orchestrator import PipelineConfig, Strategy
from textboot.cli import _manifest_detections
from tests.test_detector import EASY
from tests.test_orchestrator import fail_round_1_saves


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


def test_module_entry_point_runs_the_cli(tmp_path):
    src = str(Path(textboot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "textboot.cli", "synth", "--out", str(tmp_path / "w"),
         "--n-images", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 2 images" in proc.stdout
    assert len(load_dataset(tmp_path / "w" / "dataset.manifest").records) == 2


def test_synth_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file")
    code = main(["synth", "--n-images", "1", "--out", str(blocker / "sub")])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


def test_synth_rejects_bad_spec(capsys, tmp_path):
    assert main(["synth", "--n-images", "0", "--out", str(tmp_path / "x")]) == 1
    assert "invalid value" in capsys.readouterr().err


def test_synth_refuses_a_frame_below_the_minimum(capsys, tmp_path):
    args = ["synth", "--n-images", "1", "--width", "18", "--height", "18"]
    assert main(args + ["--out", str(tmp_path / "x")]) == 1
    assert "invalid value: scene dims must be at least 19x19, got 18x18" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("prefix", ["#x", "a\tb", "a/b", pytest.param("a" * 300, id="300-bytes")])
def test_synth_refuses_a_prefix_before_writing(capsys, tmp_path, prefix):
    args = ["synth", "--n-images", "2", "--prefix", prefix, "--out", str(tmp_path / "x")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"invalid value: prefix {prefix!r} cannot start an image id and file name\n"
    assert not (tmp_path / "x").exists()


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


@pytest.mark.parametrize("fraction, n_strong", [("0.04", 0), ("0.96", 12)])
def test_split_refuses_an_empty_half(cli_world, tmp_path, capsys, fraction, n_strong):
    assert main(["split", str(cli_world / "train" / "dataset.manifest"),
                 "--out", str(tmp_path / "s"), "--strong-fraction", fraction]) == 1
    assert capsys.readouterr().err == (
        f"invalid value: strong_fraction {fraction} leaves a half empty: {n_strong} of 12 strong\n"
    )
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("downgrade", ["weak", "strong"])
def test_split_refuses_a_manifest_that_is_not_strong(cli_world, tmp_path, capsys, downgrade):
    rest = cli_world / "splits" / "rest.manifest"
    first = load_dataset(rest).records[0].image_id
    assert main(["split", str(rest), "--out", str(tmp_path / "s"), "--strong-fraction", "0.5",
                 "--downgrade", downgrade]) == 1
    assert capsys.readouterr().err == f"error: {rest}: {first}: split needs tier STRONG, got WEAK\n"
    assert not (tmp_path / "s").exists()


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
    assert man["config"].keys() == {"strategy", "rounds", "train_cfg", "eval_iou"}
    assert man["best_round"] in (0, 1)
    assert not man["incomplete"]
    for entry in man["inputs"].values():
        assert len(entry["sha256"]) == 64
        assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
    assert man["rounds"][0]["pseudo"] is None
    assert man["rounds"][1]["pseudo"] == "round_001/pseudo.manifest"
    # every model.bin, metrics.txt and pseudo.manifest checked above, with its hash
    assert man["artifacts"] == {k: v for k, v in _hash_tree(run).items() if k != "run_manifest.json"}


def test_run_fully_records_only_the_round_it_trains(cli_world, tmp_path, capsys):
    root = cli_world
    assert main(["split", str(root / "train" / "dataset.manifest"),
                 "--out", str(tmp_path / "ssplit"), "--strong-fraction", "0.25",
                 "--seed", "3", "--downgrade", "strong"]) == 0
    args = _run_args(root, tmp_path / "run", strategy="fully", rounds="3")
    args[args.index("--pool") + 1] = str(tmp_path / "ssplit" / "rest.manifest")
    assert main(args) == 0
    man = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert man["config"]["rounds"] == 0
    assert [r["round"] for r in man["rounds"]] == [0]
    assert "round 1:" not in capsys.readouterr().out


def test_run_fully_refuses_a_weak_pool_before_writing(cli_world, tmp_path, capsys):
    root = cli_world
    weak = load_dataset(root / "splits" / "rest.manifest").records[0]
    assert weak.tier is AnnotationTier.WEAK
    args = _run_args(root, tmp_path / "run", strategy="fully", rounds="0")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {weak.image_id}: a FULLY run's pool needs tier STRONG, got WEAK\n"
    assert not (tmp_path / "run").exists()
    # the corrected command runs into the same --out
    assert main(["split", str(root / "train" / "dataset.manifest"),
                 "--out", str(tmp_path / "ssplit"), "--strong-fraction", "0.25",
                 "--seed", "3", "--downgrade", "strong"]) == 0
    args[args.index("--pool") + 1] = str(tmp_path / "ssplit" / "rest.manifest")
    assert main(args) == 0
    assert (tmp_path / "run" / "round_000" / "model.bin").is_file()


@pytest.mark.parametrize("split", ["strong", "test"])
def test_run_refuses_a_weak_split_before_writing(cli_world, tmp_path, capsys, split):
    root = cli_world
    assert main(["split", str(root / "test" / "dataset.manifest"),
                 "--out", str(tmp_path / "tsplit"), "--strong-fraction", "0.2",
                 "--seed", "3"]) == 0
    weak_path = tmp_path / "tsplit" / "rest.manifest"
    weak = load_dataset(weak_path).records[0]
    assert weak.tier is AnnotationTier.WEAK
    args = _run_args(root, tmp_path / "run")
    if split == "strong":  # the train images' strong split becomes the test split
        args[args.index("--test") + 1] = args[args.index("--strong") + 1]
    args[args.index(f"--{split}") + 1] = str(weak_path)
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {weak.image_id}: a run's {split} split needs tier STRONG, got WEAK\n"
    assert not (tmp_path / "run").exists()


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
    first = load_dataset(tmp_path / "nsplit" / "rest.manifest").records[0]
    assert first.tier is AnnotationTier.NONE
    # TierError's message, raised before the run directory is made
    err = capsys.readouterr().err
    assert err == f"error: {first.image_id}: a FILTER run's pool needs tier WEAK, got NONE\n"
    assert not (tmp_path / "run").exists()


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


def test_run_with_a_write_error_is_marked_incomplete(cli_world, tmp_path, capsys, monkeypatch):
    """A full disk in round 1 leaves round 0 and a run marked incomplete."""
    fail_round_1_saves(monkeypatch)
    assert main(_run_args(cli_world, tmp_path / "run")) == 1
    assert capsys.readouterr().err == (
        "error: run incomplete: OSError: [Errno 28] No space left on device\n"
    )
    man = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert man["incomplete"] and man["best_round"] == 0
    assert [r["round"] for r in man["rounds"]] == [0]


def test_run_refuses_a_non_empty_run_directory(cli_world, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(_run_args(cli_world, run, rounds="2")) == 0
    before = _hash_tree(run)
    assert {"round_001/model.bin", "round_002/model.bin"} <= set(before)
    capsys.readouterr()
    assert main(_run_args(cli_world, run, rounds="0")) == 1
    assert capsys.readouterr().err == f"error: run directory {run} is not empty\n"
    assert _hash_tree(run) == before
    # an existing empty directory is still a fresh run directory
    (tmp_path / "empty").mkdir()
    assert main(_run_args(cli_world, tmp_path / "empty", rounds="0")) == 0


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


def test_usage_errors_exit_two(cli_world, tmp_path):
    assert main(["run", "--strategy", "bogus"]) == 2
    assert main(["bogus-command"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(cli_world, tmp_path, capsys, jobs):
    assert main(_run_args(cli_world, tmp_path / "run", extra=("--jobs", jobs))) == 2
    assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_defaults_come_from_the_dataclasses(cli_world, tmp_path):
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    train, scene = TrainConfig(), SceneSpec(n_images=1)
    pipeline, evaluation = PipelineConfig(strategy=Strategy.LOCAL), EvalConfig()
    want = {
        "synth": {
            "width": scene.width,
            "height": scene.height,
            "seed": scene.seed,
            "prefix": scene.prefix,
        },
        "run": {
            "rounds": pipeline.rounds,
            "seed": train.seed,
            "epochs": train.epochs,
            "batch_size": train.batch_size,
            "eval_iou": evaluation.iou_threshold,
        },
        "eval": {"iou": evaluation.iou_threshold},
    }
    for command, fields in want.items():
        defaults = {a.dest: a.default for a in commands[command]._actions}
        for dest, value in fields.items():
            assert defaults[dest] == value, f"{command} --{dest.replace('_', '-')}"
    # every argument each subcommand takes; adding or dropping one edits this table
    arguments = {
        "synth": ["out", "n_images", "width", "height", "seed", "prefix"],
        "split": ["manifest", "out", "strong_fraction", "downgrade", "seed"],
        "run": ["strong", "pool", "test", "out", "strategy", "rounds", "seed", "epochs",
                "batch_size", "eval_iou", "jobs"],
        "eval": ["det", "gt", "iou", "report"],
        "annotate": ["model", "pool", "strategy", "out"],
        "convert": ["images", "annotations", "out"],
    }
    assert {
        command: [a.dest for a in parser._actions if a.dest != "help"]
        for command, parser in commands.items()
    } == arguments
    assert sum(map(len, arguments.values())) == 33
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


def test_a_zero_area_rectangle_gets_an_empty_local_label(cli_world, tmp_path, capsys):
    """A collinear polygon splits into a zero-area rectangle, which LOCAL
    labels with an empty mask in ``run`` and ``annotate`` alike."""
    world = tmp_path / "world"
    shutil.copytree(cli_world, world)
    victim = load_dataset(world / "splits" / "rest.manifest").records[0].image_id
    manifest = world / "train" / "dataset.manifest"
    lines = manifest.read_text().splitlines()
    manifest.write_text("".join(
        ln + ("\t10,20,20,20,30,20" if ln.split("\t")[0] == victim else "") + "\n" for ln in lines
    ))
    assert main(["split", str(manifest), "--out", str(world / "splits"),
                 "--strong-fraction", "0.25", "--seed", "3"]) == 0
    pool = load_dataset(world / "splits" / "rest.manifest")
    assert pool.records[0].image_id == victim and pool.records[0].rects[-1].area == 0.0
    n_rects = sum(len(r.rects) for r in pool.records)

    assert main(_run_args(world, tmp_path / "run")) == 0
    assert f"pseudo_count={n_rects}\n" in (tmp_path / "run" / "round_001" / "metrics.txt").read_text()
    capsys.readouterr()
    assert main(["annotate", "--model", str(tmp_path / "run" / "round_000" / "model.bin"),
                 "--pool", str(world / "splits" / "rest.manifest"),
                 "--strategy", "local", "--out", str(tmp_path / "pseudo.manifest")]) == 0
    assert f"{n_rects} pseudo instances" in capsys.readouterr().out


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


# --- inputs are never outputs ----------------------------------------------


@pytest.mark.parametrize("command", ["split", "eval", "annotate", "convert"])
def test_a_subcommand_refuses_to_overwrite_its_input(cli_world, tmp_path, capsys, command):
    world = tmp_path / "world"
    shutil.copytree(cli_world, world)
    strong, pool = world / "splits" / "strong.manifest", world / "splits" / "rest.manifest"
    truth = world / "test" / "dataset.manifest"
    model, dump = world / "m.bin", world / "test" / "test_00000.txt"
    save_model(DetectorModel(np.zeros(feature_dim(3)), 0.0), model)
    dump.write_text("1,1,9,1,9,9\n")
    argv, victim = {
        "split": (["split", str(strong), "--out", str(strong.parent), "--strong-fraction", ".5"],
                  strong),
        "eval": (["eval", "--det", str(truth), "--gt", str(truth), "--report", str(truth)], truth),
        "annotate": (["annotate", "--model", str(model), "--pool", str(pool),
                      "--strategy", "local", "--out", str(pool)], pool),
        "convert": (["convert", "--images", str(dump.parent), "--annotations", str(dump.parent),
                     "--out", str(dump)], dump),
    }[command]
    before = _hash_tree(world)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: output {victim} is the input {victim}\n"
    assert _hash_tree(world) == before


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
            lines.append(",".join(str(c) for c in poly.vertices.ravel().tolist()))
        (ann_dir / f"{Path(rec.image_path).stem}.txt").write_text("\n".join(lines))
    out = tmp_path / "converted.manifest"
    assert main(["convert", "--images", str(root / "test"), "--annotations", str(ann_dir),
                 "--out", str(out)]) == 0
    conv = load_dataset(out)
    assert (conv.image_width, conv.image_height) == (src.image_width, src.image_height)
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
        ("10,,20,30,40,50,60", "could not convert"),  # empty coordinate
    ):
        (ann / "a.txt").write_text(f"# polygon dump\n{dump}\n")
        assert main(["convert", "--images", str(img_dir), "--annotations", str(ann),
                     "--out", str(tmp_path / "o.manifest")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ann / 'a.txt'}:2: ") and why in err, err


@pytest.mark.parametrize("case", ["no annotation directory", "unmatched dump", "not UTF-8"])
def test_convert_refuses_dumps_it_cannot_match_or_read(tmp_path, capsys, case):
    img_dir, ann, out = tmp_path / "imgs", tmp_path / "ann", tmp_path / "o.manifest"
    img_dir.mkdir()
    write_pgm(img_dir / "img1.pgm", np.zeros((8, 8), dtype=np.uint8))
    if case == "no annotation directory":
        want = f"error: annotation directory {ann} not found\n"
    elif case == "unmatched dump":  # Total-Text names its dumps gt_<image>.txt
        ann.mkdir()
        (ann / "gt_img1.txt").write_text("0,0,4,0,4,4\n")
        want = f"error: {ann / 'gt_img1.txt'}: no image gt_img1.pgm under {img_dir}\n"
    else:
        ann.mkdir()
        (ann / "img1.txt").write_bytes(b"0,0,4,0,4,\xff4\n")
        want = f"error: {ann / 'img1.txt'}: not UTF-8 text (invalid start byte)\n"
    assert main(["convert", "--images", str(img_dir), "--annotations", str(ann),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_convert_refuses_an_image_with_no_pixels(tmp_path, capsys):
    img_dir, out = tmp_path / "imgs", tmp_path / "o.manifest"
    img_dir.mkdir()
    (img_dir / "a.pgm").write_bytes(b"P5\n0 5\n255\n")
    args = ["convert", "--images", str(img_dir), "--annotations", str(tmp_path), "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {img_dir / 'a.pgm'}: PGM has no pixels (0x5)\n"
    assert not out.exists()


def test_convert_takes_the_frame_from_the_images(tmp_path, capsys):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    write_pgm(img_dir / "a.pgm", np.zeros((12, 10), dtype=np.uint8))
    write_pgm(img_dir / "b.pgm", np.zeros((12, 10), dtype=np.uint8))
    out = tmp_path / "o.manifest"
    args = ["convert", "--images", str(img_dir), "--annotations", str(tmp_path), "--out", str(out)]
    assert main(args) == 0
    conv = load_dataset(out)
    assert (conv.image_width, conv.image_height) == (10, 12) and len(conv.records) == 2

    out.unlink()
    write_pgm(img_dir / "c.pgm", np.zeros((8, 8), dtype=np.uint8))
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {img_dir / 'c.pgm'} is 8x8, but {img_dir / 'a.pgm'} is 10x12\n"
    )
    assert not out.exists()
