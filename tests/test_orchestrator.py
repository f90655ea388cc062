"""Tests for the bootstrap loop: rounds, artifacts, determinism, recovery."""

import hashlib
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from textboot.data import (
    AnnotationTier,
    Dataset,
    SceneSpec,
    generate_synthetic,
    load_dataset,
    read_pgm,
    save_dataset,
    split_dataset,
    write_pgm,
)
from textboot.detector import TrainConfig, load_model
from textboot.errors import (
    DisjointnessError,
    EmptyDatasetError,
    TierError,
)
from textboot.orchestrator import (
    PipelineConfig,
    RoundReport,
    RunResult,
    Strategy,
    best_round_index,
    cross_domain_annotate,
    dataset_examples,
    run_pipeline,
)
from tests.test_detector import EASY


def _report(i, f):
    return RoundReport(
        round_index=i,
        precision=f,
        recall=f,
        f_measure=f,
        pseudo_count=0,
        model_path="",
        wall_time=0.0,
    )


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Small train pool + separate test split, easy rendering."""
    root = tmp_path_factory.mktemp("runworld")
    train_ds = generate_synthetic(SceneSpec(n_images=20, seed=51, **EASY), root / "train")
    test_ds = generate_synthetic(
        SceneSpec(n_images=6, seed=52, prefix="test", **EASY), root / "test"
    )
    strong, weak_pool = split_dataset(train_ds, 0.2, seed=9)
    strong_full, strong_pool = split_dataset(train_ds, 0.2, seed=9, downgrade=None)
    assert [r.image_id for r in strong.records] == [r.image_id for r in strong_full.records]
    return root, strong, weak_pool, strong_pool, test_ds


FAST = TrainConfig(epochs=10)


def test_best_round_prefers_earliest_tie():
    assert best_round_index([_report(0, 0.5), _report(1, 0.7), _report(2, 0.6)]) == 1
    assert best_round_index([_report(0, 0.7), _report(1, 0.7)]) == 0
    assert best_round_index([]) == -1


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(strategy=Strategy.LOCAL, rounds=-1)


def test_dataset_examples_rejects_weak(world):
    _, _, weak_pool, _, _ = world
    with pytest.raises(TierError):
        dataset_examples(weak_pool)


def test_rounds_zero_gives_only_baseline(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=0, train_cfg=FAST)
    result = run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    assert not result.incomplete
    assert len(result.reports) == 1
    assert result.reports[0].round_index == 0
    assert result.reports[0].pseudo_count == 0
    assert result.best_round == 0
    assert (tmp_path / "run" / "round_000" / "model.bin").exists()
    assert (tmp_path / "run" / "round_000" / "metrics.txt").exists()
    assert not (tmp_path / "run" / "round_000" / "pseudo.manifest").exists()
    assert (tmp_path / "run" / "metrics.txt").exists()
    assert (tmp_path / "run" / "f_vs_round.tsv").exists()


def test_local_run_structure_and_artifacts(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=2, train_cfg=FAST)
    result = run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    assert not result.incomplete
    assert [r.round_index for r in result.reports] == [0, 1, 2]
    assert result.reports[0].pseudo_count == 0
    for r in (1, 2):
        assert result.reports[r].pseudo_count == sum(
            len(rec.rects) for rec in weak_pool.records
        )
        rdir = tmp_path / "run" / f"round_{r:03d}"
        pseudo = load_dataset(rdir / "pseudo.manifest")
        assert len(pseudo.records) == len(weak_pool.records)
        assert all(rec.tier is AnnotationTier.STRONG for rec in pseudo.records)
        assert all(rec.round_index == r for rec in pseudo.records if rec.provenance)
        model = load_model(rdir / "model.bin")
        assert model.seed == cfg.train_cfg.seed + r
    assert result.best_round == best_round_index(result.reports)
    # f-vs-round table lists every round
    tsv = (tmp_path / "run" / "f_vs_round.tsv").read_text().strip().splitlines()
    assert tsv[0] == "round\tf_measure"
    assert len(tsv) == 1 + len(result.reports)


def test_fully_trains_once_with_no_pseudo(world, tmp_path):
    _, strong, _, strong_pool, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.FULLY, rounds=3, train_cfg=FAST)
    result = run_pipeline(strong, strong_pool, test_ds, cfg, tmp_path / "run")
    assert not result.incomplete
    assert len(result.reports) == 1
    assert result.reports[0].pseudo_count == 0
    assert result.best_round == 0


def test_fully_rejects_weak_pool(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.FULLY, train_cfg=FAST)
    result = run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    assert result.incomplete
    assert result.reports == ()
    assert result.best_round == -1


def test_empty_strong_split_rejected(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    empty = Dataset(records=(), image_width=64, image_height=64)
    cfg = PipelineConfig(strategy=Strategy.LOCAL, train_cfg=FAST)
    with pytest.raises(EmptyDatasetError):
        run_pipeline(empty, weak_pool, test_ds, cfg, tmp_path / "run")


def test_overlapping_splits_rejected(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, train_cfg=FAST)
    leaky = Dataset(
        records=weak_pool.records + (test_ds.records[0],),
        image_width=64,
        image_height=64,
    )
    with pytest.raises(DisjointnessError):
        run_pipeline(strong, leaky, test_ds, cfg, tmp_path / "run")


def test_mid_round_domain_error_yields_partial_result(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    # NONE-tier pool: the baseline round works, the FILTER round cannot
    none_pool = Dataset(
        records=tuple(
            replace(r, tier=AnnotationTier.NONE, rects=()) for r in weak_pool.records
        ),
        image_width=64,
        image_height=64,
    )
    cfg = PipelineConfig(strategy=Strategy.FILTER, rounds=2, train_cfg=FAST)
    result = run_pipeline(strong, none_pool, test_ds, cfg, tmp_path / "run")
    assert result.incomplete
    assert result.failure is not None and "TierError" in result.failure
    assert len(result.reports) == 1  # baseline only
    assert result.best_round == 0
    # run-level metrics still written for the completed rounds
    lines = (tmp_path / "run" / "metrics.txt").read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("round=")) == 1
    assert lines[-1] == "best_round=0"


def test_wrong_size_pool_image_stops_the_run(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    victim = weak_pool.records[0]
    small = tmp_path / "small.pgm"
    write_pgm(small, read_pgm(victim.image_path)[:40, :])
    pool = replace(weak_pool, records=(replace(victim, image_path=str(small)),) + weak_pool.records[1:])
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=1, train_cfg=FAST)
    result = run_pipeline(strong, pool, test_ds, cfg, tmp_path / "run")
    assert result.incomplete and len(result.reports) == 1
    assert result.failure.startswith("ImageError: ") and victim.image_id in result.failure


def test_naive_accepts_none_tier_pool(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    none_pool = Dataset(
        records=tuple(
            replace(r, tier=AnnotationTier.NONE, rects=()) for r in weak_pool.records
        ),
        image_width=64,
        image_height=64,
    )
    cfg = PipelineConfig(strategy=Strategy.NAIVE, rounds=1, train_cfg=FAST)
    result = run_pipeline(strong, none_pool, test_ds, cfg, tmp_path / "run")
    assert not result.incomplete
    assert len(result.reports) == 2


def test_runs_are_byte_deterministic(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.FILTER, rounds=1, train_cfg=replace(FAST, seed=4))
    r1 = run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "a")
    r2 = run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "b", jobs=3)
    for name in ("metrics.txt", "f_vs_round.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for sub in ("round_000", "round_001"):
        a = hashlib.sha256((tmp_path / "a" / sub / "model.bin").read_bytes()).hexdigest()
        b = hashlib.sha256((tmp_path / "b" / sub / "model.bin").read_bytes()).hexdigest()
        assert a == b
        am = (tmp_path / "a" / sub / "metrics.txt").read_bytes()
        bm = (tmp_path / "b" / sub / "metrics.txt").read_bytes()
        assert am == bm
    assert [(r.f_measure, r.pseudo_count) for r in r1.reports] == [
        (r.f_measure, r.pseudo_count) for r in r2.reports
    ]


def test_moved_tree_reproduces_its_pseudo_manifests(tmp_path):
    a = tmp_path / "a"
    train_ds = generate_synthetic(SceneSpec(n_images=6, seed=53, **EASY), a / "train")
    test_ds = generate_synthetic(SceneSpec(n_images=2, seed=54, prefix="t", **EASY), a / "test")
    strong, pool = split_dataset(train_ds, 0.34, seed=1)
    for name, ds in (("strong", strong), ("pool", pool), ("test", test_ds)):
        save_dataset(ds, a / f"{name}.manifest")

    def run(root, out):
        loaded = [load_dataset(root / f"{n}.manifest") for n in ("strong", "pool", "test")]
        cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=2, train_cfg=FAST)
        assert not run_pipeline(*loaded, cfg, root / out).incomplete

    run(a, "run")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    run(b, "rerun")
    for r in ("round_001", "round_002"):
        original = (a / "run" / r / "pseudo.manifest").read_bytes()
        assert (b / "run" / r / "pseudo.manifest").read_bytes() == original
        assert (b / "rerun" / r / "pseudo.manifest").read_bytes() == original
        copied = load_dataset(b / "run" / r / "pseudo.manifest")
        assert all(Path(rec.image_path).is_relative_to(b) for rec in copied.records)


def test_seed_flows_into_round_models(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=1, train_cfg=replace(FAST, seed=100))
    run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    assert load_model(tmp_path / "run" / "round_000" / "model.bin").seed == 100
    assert load_model(tmp_path / "run" / "round_001" / "model.bin").seed == 101


# --- cross-domain -------------------------------------------------------------


def test_cross_domain_empty_pool(world, tmp_path):
    root, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=0, train_cfg=FAST)
    run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    empty = Dataset(records=(), image_width=64, image_height=64)
    ps = cross_domain_annotate(
        tmp_path / "run" / "round_000" / "model.bin", empty, tmp_path / "out.manifest"
    )
    assert ps.per_image == ()
    assert load_dataset(tmp_path / "out.manifest", require_images=False).records == ()


def test_cross_domain_count_conservation_and_manifest(world, tmp_path):
    root, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=0, train_cfg=FAST)
    run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    model_path = tmp_path / "run" / "round_000" / "model.bin"
    ps = cross_domain_annotate(model_path, weak_pool, tmp_path / "pseudo.manifest")
    assert ps.count == sum(len(r.rects) for r in weak_pool.records)
    out = load_dataset(tmp_path / "pseudo.manifest")
    assert len(out.records) == len(weak_pool.records)
    assert all(rec.tier is AnnotationTier.STRONG for rec in out.records)


def test_cross_domain_rejects_strong_pool(world, tmp_path):
    root, strong, weak_pool, strong_pool, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=0, train_cfg=FAST)
    run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    with pytest.raises(TierError):
        cross_domain_annotate(
            tmp_path / "run" / "round_000" / "model.bin",
            strong_pool,
            tmp_path / "out.manifest",
        )


def test_run_result_is_plain_data():
    r = RunResult(reports=(_report(0, 0.5),), best_round=0)
    assert r.reports[0].f_measure == 0.5 and not r.incomplete
