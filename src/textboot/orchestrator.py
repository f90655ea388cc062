"""Bootstrap loop: baseline, annotate the pool, retrain, evaluate, repeat.

A run loads its images and their feature rows once, before round 0, which
trains only on the small pixel-annotated set.  Each later round
re-annotates the whole pool with the latest model (earlier pseudo labels
are superseded, not accumulated), retrains from the round-0 baseline on
the pixel-annotated set plus the fresh pseudo labels, and scores the
result on a held-out test split.  A round trains on its pseudo masks as
they are in memory, holes included; its pseudo manifest, which fills the
holes, is only the record.  Round r trains with seed ``train_cfg.seed + r``.
The best round has the highest F-measure, earliest on ties.  FULLY, the
upper bound, has only round 0, over the pixel-annotated set plus the whole
pool, whose pixel annotations it trains on directly.

Every run writes a self-describing directory: per-round model files,
pseudo-label manifests and metrics, plus run-level metrics and an
F-versus-round table.  All artifacts are byte-deterministic for a fixed
(datasets, config, seed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from pathlib import Path

from .data import (
    AnnotationTier, Dataset, Provenance, read_image, record_masks, require_tier, save_dataset
)
from .detector import (
    DetectorModel,
    TrainConfig,
    TrainExample,
    fill_features,
    load_model,
    save_model,
    train,
)
from .errors import (
    DimensionMismatchError,
    DisjointnessError,
    EmptyDatasetError,
    TextBootError,
    require_integers,
)
from .evaluation import EvalConfig, EvalReport, evaluate
from .strategies import (
    _ALLOWED_TIERS, PseudoSet, annotate_pool, pool_labels, pseudo_to_dataset
)

# The pseudo-labelling strategies plus FULLY, the upper-bound setting.
Strategy = enum.Enum(
    "Strategy", [(p.name, p.value) for p in Provenance] + [("FULLY", "FULLY")], module=__name__
)


@dataclass(frozen=True)
class PipelineConfig:
    strategy: Strategy
    rounds: int = 3
    train_cfg: TrainConfig = TrainConfig()
    eval_cfg: EvalConfig = EvalConfig()

    def __post_init__(self) -> None:
        require_integers(self, "rounds")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")

    @property
    def planned_rounds(self) -> int:  # after round 0; FULLY has only round 0
        return 0 if self.strategy is Strategy.FULLY else self.rounds


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    precision: float
    recall: float
    f_measure: float
    pseudo_count: int
    model_path: str


@dataclass(frozen=True)
class RunResult:
    reports: tuple[RoundReport, ...]
    best_round: int
    failure: str | None = None

    @property
    def incomplete(self) -> bool:
        return self.failure is not None


def best_round_index(reports) -> int:
    """Index of the highest F-measure; earliest wins ties."""
    if not reports:
        return -1
    return max(range(len(reports)), key=lambda i: reports[i].f_measure)


def dataset_examples(dataset: Dataset) -> list[TrainExample]:
    """Load a pixel-annotated dataset into trainable examples."""
    require_tier(dataset, (AnnotationTier.STRONG,), "training")
    return [
        TrainExample(image=read_image(dataset, rec), masks=record_masks(dataset, rec))
        for rec in dataset.records
    ]


def pseudo_examples(pool: Dataset, pseudo: PseudoSet, images) -> list[TrainExample]:
    """Pair the pool's images (in pool order) with their in-memory pseudo masks, holes included."""
    labels = pool_labels(pool, pseudo)
    return [
        TrainExample(image, tuple(d.mask for d in labels[rec.image_id]))
        for rec, image in zip(pool.records, images, strict=True)
    ]


def _check_disjoint(strong: Dataset, pool: Dataset, test: Dataset) -> None:
    sets = {
        "strong": {r.image_id for r in strong.records},
        "pool": {r.image_id for r in pool.records},
        "test": {r.image_id for r in test.records},
    }
    names = list(sets)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            overlap = sorted(sets[a] & sets[b])
            if overlap:
                raise DisjointnessError(
                    f"{a} and {b} share image ids: {', '.join(overlap[:5])}"
                    + ("..." if len(overlap) > 5 else "")
                )


def _check_dims(*datasets: Dataset) -> None:
    dims = {(d.image_width, d.image_height) for d in datasets}
    if len(dims) > 1:
        raise DimensionMismatchError(f"datasets disagree on image dimensions: {sorted(dims)}")


def _evaluate_model(model, test: Dataset, images, eval_cfg: EvalConfig) -> EvalReport:
    dets = {rec.image_id: model.detect(image) for rec, image in zip(test.records, images)}
    return evaluate(dets, test, eval_cfg)


def _round_dir(run_dir: Path, index: int) -> Path:
    d = run_dir / f"round_{index:03d}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_round_metrics(path: Path, index: int, pseudo_count: int, report: EvalReport) -> None:
    text = f"round={index}\npseudo_count={pseudo_count}\n" + report.to_text()
    path.write_text(text, encoding="utf-8")


def _write_run_metrics(run_dir: Path, reports, best: int) -> None:
    lines = [
        f"round={r.round_index} precision={r.precision!r} recall={r.recall!r} "
        f"f_measure={r.f_measure!r} pseudo_count={r.pseudo_count}"
        for r in reports
    ]
    lines.append(f"best_round={best}")
    (run_dir / "metrics.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    tsv = ["round\tf_measure"] + [f"{r.round_index}\t{r.f_measure!r}" for r in reports]
    (run_dir / "f_vs_round.tsv").write_text("\n".join(tsv) + "\n", encoding="utf-8")


def run_pipeline(
    strong: Dataset,
    pool: Dataset,
    test: Dataset,
    cfg: PipelineConfig,
    run_dir: Path | str,
    jobs: int = 1,
) -> RunResult:
    """Execute one full bootstrap run, writing artifacts under run_dir.

    Check, load, rounds.  Before round 0 the run reads every image it uses,
    each once (strong, test, then the pool if rounds follow the baseline;
    ``annotate_pool`` reads it again each round), and builds their feature
    rows, so a bad or wrong-size image in any split leaves no rounds.  A
    domain error (diverged training) or an OSError (a full disk) mid-round
    stops the run after the rounds finished so far.  The error is returned
    as ``failure``; programming errors propagate.  ``best_round`` is -1 when not even the
    baseline round finished.
    A ``run_dir`` that already holds files, a strong or test split that is
    not STRONG, and a pool whose tier the strategy cannot use (FULLY needs
    STRONG) are refused before anything is written, so no artifact of an
    earlier run passes for this one's.  ``jobs``, the number of pool images
    annotated at a time, below 1 raises ValueError, also before anything is
    written.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not strong.records:
        raise EmptyDatasetError("the pixel-annotated training split is empty")
    _check_dims(strong, pool, test)
    _check_disjoint(strong, pool, test)
    if cfg.strategy is Strategy.FULLY:
        tiers = (AnnotationTier.STRONG,)
    else:
        tiers = _ALLOWED_TIERS[Provenance[cfg.strategy.value]]
    require_tier(pool, tiers, f"a {cfg.strategy.value} run's pool")
    require_tier(strong, (AnnotationTier.STRONG,), "a run's strong split")
    require_tier(test, (AnnotationTier.STRONG,), "a run's test split")
    run_dir = Path(run_dir)
    if run_dir.is_dir() and any(run_dir.iterdir()):
        raise TextBootError(f"run directory {run_dir} is not empty")
    run_dir.mkdir(parents=True, exist_ok=True)

    reports: list[RoundReport] = []
    models: list[DetectorModel] = []
    failure = None
    try:
        # Load.  One feature matrix: the labelled rows, then the pool's.
        labelled = dataset_examples(strong)
        test_images = [read_image(test, rec) for rec in test.records]
        if cfg.strategy is Strategy.FULLY:
            labelled = labelled + dataset_examples(pool)
        pool_images = [read_image(pool, rec) for rec in pool.records] if cfg.planned_rounds else []
        X = fill_features([ex.image for ex in labelled] + pool_images, cfg.train_cfg.patch_radius)
        prefix = X[: sum(ex.image.size for ex in labelled)]

        for r in range(cfg.planned_rounds + 1):
            rdir = _round_dir(run_dir, r)
            examples, base, pseudo_count, features = labelled, None, 0, prefix
            if r > 0:
                pseudo = annotate_pool(
                    models[-1], pool, Provenance[cfg.strategy.value], round_index=r, jobs=jobs
                )
                save_dataset(pseudo_to_dataset(pool, pseudo), rdir / "pseudo.manifest")
                pseudo_count = pseudo.count
                examples = labelled + pseudo_examples(pool, pseudo, pool_images)
                base, features = models[0], X

            train_cfg = replace(cfg.train_cfg, seed=cfg.train_cfg.seed + r)
            model = train(base, examples, train_cfg, features)
            model_path = rdir / "model.bin"
            save_model(model, model_path)
            report = _evaluate_model(model, test, test_images, cfg.eval_cfg)
            _write_round_metrics(rdir / "metrics.txt", r, pseudo_count, report)

            models.append(model)
            reports.append(
                RoundReport(
                    round_index=r,
                    precision=report.precision,
                    recall=report.recall,
                    f_measure=report.f_measure,
                    pseudo_count=pseudo_count,
                    model_path=str(model_path),
                )
            )
    except (TextBootError, OSError) as exc:
        failure = f"{type(exc).__name__}: {exc}"

    best = best_round_index(reports)
    _write_run_metrics(run_dir, reports, best)
    return RunResult(reports=tuple(reports), best_round=best, failure=failure)


def cross_domain_annotate(
    model_path: Path | str,
    target_pool: Dataset,
    out: Path | str,
    strategy: Provenance = Provenance.LOCAL,
) -> PseudoSet:
    """Annotate a pool, possibly of a new domain, with an already-trained model.

    Applies ``strategy`` (by default one annotation per rectangle), writes
    the result as a pixel-annotated manifest at ``out`` and returns it;
    ``pseudo_examples(target_pool, result, images)``, with the pool's
    images in pool order, is ready to train on.
    """
    pseudo = annotate_pool(load_model(model_path), target_pool, strategy)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(pseudo_to_dataset(target_pool, pseudo), out)
    return pseudo
