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
    Provenance,
    SceneSpec,
    generate_synthetic,
    load_dataset,
    read_pgm,
    save_dataset,
    split_dataset,
    write_pgm,
)
from textboot import data, detector, orchestrator
from textboot.detector import (
    DetectorModel, TrainConfig, TrainExample, feature_dim, load_model, save_model, train
)
from textboot.errors import (
    DisjointnessError,
    EmptyDatasetError,
    NonFiniteLossError,
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
from textboot.strategies import annotate_pool, pseudo_to_dataset
from tests.oracles import fill_holes_per_component
from tests.test_detector import EASY


def _report(i, f):
    return RoundReport(
        round_index=i,
        precision=f,
        recall=f,
        f_measure=f,
        pseudo_count=0,
        model_path="",
    )


def _spy_seeds(monkeypatch) -> list[int]:
    """Record the seed of every ``train`` call a run makes, in call order."""
    seeds, real_train = [], orchestrator.train

    def spy(base, examples, cfg, features=None):
        seeds.append(cfg.seed)
        return real_train(base, examples, cfg, features)

    monkeypatch.setattr(orchestrator, "train", spy)
    return seeds


def fail_round_1_saves(monkeypatch) -> None:
    """Make ``save_model`` fail as on a full disk from round 1's model on."""
    real_save = orchestrator.save_model

    def save_or_fail(model, path):
        if Path(path).parent.name == "round_001":
            raise OSError(28, "No space left on device")
        real_save(model, path)

    monkeypatch.setattr(orchestrator, "save_model", save_or_fail)


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


_COUNT_FIELDS = [  # (field, the config made with that field set to a value)
    pytest.param("epochs", lambda v: TrainConfig(epochs=v), id="epochs"),
    pytest.param("batch_size", lambda v: TrainConfig(batch_size=v), id="batch_size"),
    pytest.param("seed", lambda v: TrainConfig(seed=v), id="train-seed"),
    pytest.param("patch_radius", lambda v: TrainConfig(patch_radius=v), id="patch_radius"),
    pytest.param("rounds", lambda v: PipelineConfig(Strategy.LOCAL, rounds=v), id="rounds"),
    pytest.param("n_images", lambda v: SceneSpec(n_images=v), id="n_images"),
    pytest.param("width", lambda v: SceneSpec(n_images=2, width=v), id="width"),
    pytest.param("height", lambda v: SceneSpec(n_images=2, height=v), id="height"),
    pytest.param("seed", lambda v: SceneSpec(n_images=2, seed=v), id="scene-seed"),
]


@pytest.mark.parametrize("field, make", _COUNT_FIELDS)
def test_a_count_that_is_not_an_integer_is_refused_by_its_config(field, make):
    """Refused where the config is made, naming the field; numpy integers pass."""
    for value in (2.5, 80.5, "3", None):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
            make(value)
    assert getattr(make(np.int64(80)), field) == 80
    assert getattr(make(np.int32(20)), field) == 20


def test_a_fractional_epoch_count_writes_nothing(world, tmp_path):
    """The corrected call then runs in the same directory."""
    _, strong, weak_pool, _, test_ds = world
    with pytest.raises(ValueError, match=r"^epochs must be an integer, got 2\.5$"):
        run_pipeline(strong, weak_pool, test_ds,
                     PipelineConfig(Strategy.LOCAL, rounds=0, train_cfg=TrainConfig(epochs=2.5)),
                     tmp_path / "run")
    assert not (tmp_path / "run").exists()
    cfg = PipelineConfig(Strategy.LOCAL, rounds=0, train_cfg=TrainConfig(epochs=2))
    assert not run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run").incomplete


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


def test_local_run_structure_and_artifacts(world, tmp_path, monkeypatch):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=2, train_cfg=FAST)
    seeds = _spy_seeds(monkeypatch)
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
        assert load_model(rdir / "model.bin").patch_radius == cfg.train_cfg.patch_radius
    assert seeds == [cfg.train_cfg.seed + r for r in (0, 1, 2)]
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


def test_planned_rounds_are_zero_for_fully_only():
    assert PipelineConfig(strategy=Strategy.FULLY, rounds=3).planned_rounds == 0
    for strategy in (Strategy.NAIVE, Strategy.FILTER, Strategy.LOCAL):
        assert PipelineConfig(strategy=strategy, rounds=3).planned_rounds == 3


def test_fully_rejects_weak_pool(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.FULLY, train_cfg=FAST)
    with pytest.raises(TierError, match="FULLY run's pool needs tier STRONG, got WEAK"):
        run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()


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


def test_mid_round_domain_error_yields_partial_result(world, tmp_path, monkeypatch):
    _, strong, weak_pool, _, test_ds = world
    # round 2's training diverges: rounds 0 and 1 stand
    real_train = orchestrator.train

    def diverging_train(base, examples, cfg, features=None):
        if cfg.seed == FAST.seed + 2:
            raise NonFiniteLossError("training diverged")
        return real_train(base, examples, cfg, features)

    monkeypatch.setattr(orchestrator, "train", diverging_train)
    cfg = PipelineConfig(strategy=Strategy.FILTER, rounds=2, train_cfg=FAST)
    result = run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    assert result.incomplete
    assert result.failure == "NonFiniteLossError: training diverged"
    assert [r.round_index for r in result.reports] == [0, 1]
    assert result.best_round == best_round_index(result.reports)
    # run-level metrics still written for the completed rounds
    lines = (tmp_path / "run" / "metrics.txt").read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("round=")) == 2
    assert lines[-1] == f"best_round={result.best_round}"


def test_a_write_error_mid_run_yields_partial_result(world, tmp_path, monkeypatch):
    """A full disk in round 1 keeps round 0 and marks the run incomplete."""
    _, strong, weak_pool, _, test_ds = world
    fail_round_1_saves(monkeypatch)
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=2, train_cfg=FAST)
    result = run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    assert result.incomplete
    assert result.failure == "OSError: [Errno 28] No space left on device"
    assert [r.round_index for r in result.reports] == [0] and result.best_round == 0
    lines = (tmp_path / "run" / "metrics.txt").read_text().splitlines()
    assert lines[0].startswith("round=0 ") and lines[1:] == ["best_round=0"]
    assert (tmp_path / "run" / "f_vs_round.tsv").read_text().count("\n") == 2


def test_wrong_size_pool_image_stops_the_run(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    victim = weak_pool.records[0]
    small = tmp_path / "small.pgm"
    write_pgm(small, read_pgm(victim.image_path)[:40, :])
    pool = replace(weak_pool, records=(replace(victim, image_path=str(small)),) + weak_pool.records[1:])
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=1, train_cfg=FAST)
    result = run_pipeline(strong, pool, test_ds, cfg, tmp_path / "run")
    assert result.incomplete and result.reports == () and result.best_round == -1
    assert result.failure.startswith("ImageError: ") and victim.image_id in result.failure
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["f_vs_round.tsv", "metrics.txt"]


def test_a_wrong_size_test_image_stops_the_run_before_round_0_trains(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    victim = test_ds.records[-1]
    small = tmp_path / "small.pgm"
    write_pgm(small, read_pgm(victim.image_path)[:40, :])
    test = replace(test_ds, records=test_ds.records[:-1] + (replace(victim, image_path=str(small)),))
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=1, train_cfg=FAST)
    result = run_pipeline(strong, weak_pool, test, cfg, tmp_path / "run")
    assert result.incomplete and result.reports == () and result.best_round == -1
    assert result.failure.startswith("ImageError: ") and victim.image_id in result.failure
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["f_vs_round.tsv", "metrics.txt"]


def test_jobs_below_one_is_refused_before_anything_is_written(world, tmp_path):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=1, train_cfg=FAST)
    with pytest.raises(ValueError, match=r"^jobs must be >= 1, got 0$"):
        run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run", jobs=0)
    assert not (tmp_path / "run").exists()
    model = DetectorModel(np.zeros(feature_dim(3)), 0.0)
    with pytest.raises(ValueError, match=r"^jobs must be >= 1, got -3$"):
        annotate_pool(model, weak_pool, Provenance.LOCAL, jobs=-3)


@pytest.fixture(scope="module")
def wide_world(tmp_path_factory):
    """20 strong and 40 pool images, the benchmark's bootstrap proportions."""
    root = tmp_path_factory.mktemp("wideworld")
    train_ds = generate_synthetic(SceneSpec(n_images=60, seed=53, **EASY), root / "train")
    test_ds = generate_synthetic(
        SceneSpec(n_images=2, seed=54, prefix="test", **EASY), root / "test"
    )
    strong, weak_pool = split_dataset(train_ds, 1 / 3, seed=5)
    _, strong_pool = split_dataset(train_ds, 1 / 3, seed=5, downgrade=None)
    assert (len(strong.records), len(weak_pool.records)) == (20, 40)
    return strong, weak_pool, strong_pool, test_ds


@pytest.mark.parametrize(
    "strategy, rounds, builds, reads",
    [
        pytest.param("LOCAL", 3, 60, 182, id="LOCAL-3-60"),
        pytest.param("LOCAL", 0, 20, 22, id="LOCAL-0-20"),
        pytest.param("FULLY", 3, 60, 62, id="FULLY-3-60"),
    ],
)
def test_a_run_builds_each_images_features_once(
    wide_world, tmp_path, monkeypatch, strategy, rounds, builds, reads
):
    """Each image's feature rows are built once per run, by one
    ``fill_features`` call, and round 0 trains on a prefix of the rows the
    later rounds train on, not a copy.  The run reads each image once; only
    ``annotate_pool`` reads the pool again, once per round after the baseline."""
    strong, weak_pool, strong_pool, test_ds = wide_world
    built, filled, trained, read = [], [], [], []
    real_features, real_train = detector.patch_features, orchestrator.train
    real_fill, real_read = orchestrator.fill_features, data.read_pgm

    def counting_fill(images, radius):
        filled.append(len(images))
        return real_fill(images, radius)

    def counting_read(path):
        read.append(path)
        return real_read(path)

    def counting_features(image, radius, out=None):
        built.append(image.shape)
        return real_features(image, radius, out)

    def recording_train(base, examples, cfg, features=None):
        trained.append(features)
        return real_train(base, examples, cfg, features)

    monkeypatch.setattr(detector, "patch_features", counting_features)
    monkeypatch.setattr(orchestrator, "train", recording_train)
    monkeypatch.setattr(orchestrator, "fill_features", counting_fill)
    monkeypatch.setattr(data, "read_pgm", counting_read)
    cfg = PipelineConfig(
        strategy=Strategy[strategy], rounds=rounds, train_cfg=TrainConfig(epochs=1)
    )
    pool = strong_pool if strategy == "FULLY" else weak_pool
    result = run_pipeline(strong, pool, test_ds, cfg, tmp_path / "run")
    assert not result.incomplete, result.failure
    assert len(built) == builds
    assert filled == [builds]
    assert len(read) == reads
    assert len(trained) == cfg.planned_rounds + 1
    assert all(f is not None for f in trained)
    for later in trained[1:]:
        assert np.shares_memory(trained[0], later)
        assert len(later) == 60 * 64 * 64 > len(trained[0])


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


@pytest.fixture(scope="module")
def holed_run(tmp_path_factory):
    """A LOCAL run of one round whose round-0 model leaves a hole in at
    least one pseudo mask of every strategy (checked by the tests)."""
    root = tmp_path_factory.mktemp("holedworld")
    train_ds = generate_synthetic(SceneSpec(n_images=40, seed=51), root / "train")
    test_ds = generate_synthetic(SceneSpec(n_images=4, seed=52, prefix="test"), root / "test")
    strong, pool = split_dataset(train_ds, 0.25, seed=9)
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=1, train_cfg=FAST)
    result = run_pipeline(strong, pool, test_ds, cfg, root / "run")
    assert not result.incomplete, result.failure
    return strong, pool, root / "run"


def _holed(pseudo) -> int:
    return sum(
        fill_holes_per_component(d.mask) != d.mask for _, labels in pseudo.per_image for d in labels
    )


@pytest.mark.parametrize("strategy", list(Provenance))
def test_pseudo_manifest_fills_each_components_holes(holed_run, strategy):
    _, pool, run = holed_run
    pseudo = annotate_pool(load_model(run / "round_000" / "model.bin"), pool, strategy)
    assert _holed(pseudo) > 0
    labels = dict(pseudo.per_image)
    examples = dataset_examples(pseudo_to_dataset(pool, pseudo))
    assert len(examples) == len(pool.records)
    for rec, ex in zip(pool.records, examples):
        want = np.zeros(ex.image.shape, dtype=bool)
        for d in labels[rec.image_id]:
            want |= fill_holes_per_component(d.mask).pixels
        assert np.array_equal(ex.label_map(), want), rec.image_id


def test_rounds_train_on_the_pseudo_masks_in_memory(holed_run, tmp_path):
    """Round 1's model is the baseline fine-tuned on the strong examples
    plus the pool images with their LOCAL masks, holes kept, in pool order."""
    strong, pool, run = holed_run
    base = load_model(run / "round_000" / "model.bin")
    pseudo = annotate_pool(base, pool, Provenance.LOCAL, round_index=1)
    assert _holed(pseudo) > 0
    labels = dict(pseudo.per_image)
    in_memory = [
        TrainExample(read_pgm(rec.image_path), tuple(d.mask for d in labels[rec.image_id]))
        for rec in pool.records
    ]
    model = train(base, dataset_examples(strong) + in_memory, replace(FAST, seed=FAST.seed + 1))
    save_model(model, tmp_path / "model.bin")
    assert (tmp_path / "model.bin").read_bytes() == (run / "round_001" / "model.bin").read_bytes()


def test_seed_flows_into_round_models(world, tmp_path, monkeypatch):
    _, strong, weak_pool, _, test_ds = world
    cfg = PipelineConfig(strategy=Strategy.LOCAL, rounds=1, train_cfg=replace(FAST, seed=100))
    seeds = _spy_seeds(monkeypatch)
    run_pipeline(strong, weak_pool, test_ds, cfg, tmp_path / "run")
    assert seeds == [100, 101]


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
