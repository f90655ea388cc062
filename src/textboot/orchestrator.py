"""Bootstrap loop: baseline, annotate the pool, retrain, evaluate, repeat.

Round 0 trains only on the small pixel-annotated set.  Each later round
re-annotates the whole pool with the latest model (earlier pseudo labels
are superseded, not accumulated), retrains from the round-0 baseline on
the pixel-annotated set plus the fresh pseudo labels, and scores the
result on a held-out test split.  Round r trains with seed
``train_cfg.seed + r``.  The best round is the one with the highest
F-measure, earliest on ties.  FULLY is the upper-bound setting: one
model trained as if the entire pool had pixel annotations; it performs
no pseudo-labeling.

Every run writes a self-describing directory: per-round model files,
pseudo-label manifests and metrics, plus run-level metrics and an
F-versus-round table.  All artifacts are byte-deterministic for a fixed
(datasets, config, seed); wall-clock timings are reported in memory only.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .data import (
    AnnotationTier, Dataset, Provenance, read_image, record_masks, require_tier, save_dataset
)
from .detector import DetectorModel, TrainConfig, TrainExample, load_model, save_model, train
from .errors import DimensionMismatchError, DisjointnessError, EmptyDatasetError, TextBootError
from .evaluation import EvalConfig, EvalReport, evaluate
from .strategies import PseudoSet, StrategyConfig, annotate_pool, pseudo_to_dataset

# The pseudo-labelling strategies plus FULLY, the upper-bound setting.
Strategy = enum.Enum(
    "Strategy", [(p.name, p.value) for p in Provenance] + [("FULLY", "FULLY")], module=__name__
)


@dataclass(frozen=True)
class PipelineConfig:
    strategy: Strategy
    rounds: int = 3
    strategy_cfg: StrategyConfig = StrategyConfig()
    train_cfg: TrainConfig = TrainConfig()
    eval_cfg: EvalConfig = EvalConfig()

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    precision: float
    recall: float
    f_measure: float
    pseudo_count: int
    model_path: str
    wall_time: float


@dataclass(frozen=True)
class RunResult:
    reports: tuple[RoundReport, ...]
    best_round: int
    incomplete: bool = False
    failure: str | None = None


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


def _evaluate_model(
    model: DetectorModel, test: Dataset, eval_cfg: EvalConfig, jobs: int
) -> EvalReport:
    def detect_one(rec):
        return rec.image_id, model.detect(read_image(test, rec))

    if jobs > 1 and len(test.records) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            pairs = list(ex.map(detect_one, test.records))
    else:
        pairs = [detect_one(rec) for rec in test.records]
    return evaluate(dict(pairs), test, eval_cfg)


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

    A domain error mid-round (a bad or wrong-size image, diverged
    training, tier misuse)
    stops the run and returns the rounds finished so far with
    ``incomplete=True``; programming errors propagate.  ``best_round``
    is -1 when not even the baseline round finished.
    """
    if not strong.records:
        raise EmptyDatasetError("the pixel-annotated training split is empty")
    _check_dims(strong, pool, test)
    _check_disjoint(strong, pool, test)
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    reports: list[RoundReport] = []
    models: list[DetectorModel] = []
    incomplete = False
    failure = None
    try:
        strong_examples = dataset_examples(strong)

        if cfg.strategy is Strategy.FULLY:
            require_tier(pool, (AnnotationTier.STRONG,), "the upper-bound setting")
            rounds_plan = [0]
        else:
            rounds_plan = list(range(cfg.rounds + 1))

        for r in rounds_plan:
            started = time.perf_counter()
            rdir = _round_dir(run_dir, r)
            pseudo_count = 0

            if cfg.strategy is Strategy.FULLY:
                examples = strong_examples + dataset_examples(pool)
                base = None
            elif r == 0:
                examples = strong_examples
                base = None
            else:
                pseudo = annotate_pool(
                    models[-1],
                    pool,
                    Provenance[cfg.strategy.value],
                    cfg.strategy_cfg,
                    round_index=r,
                    jobs=jobs,
                )
                pseudo_ds = pseudo_to_dataset(pool, pseudo)
                save_dataset(pseudo_ds, rdir / "pseudo.manifest")
                pseudo_count = pseudo.count
                examples = strong_examples + dataset_examples(pseudo_ds)
                base = models[0]

            train_cfg = replace(cfg.train_cfg, seed=cfg.train_cfg.seed + r)
            model = train(base, examples, train_cfg)
            model_path = rdir / "model.bin"
            save_model(model, model_path)
            report = _evaluate_model(model, test, cfg.eval_cfg, jobs)
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
                    wall_time=time.perf_counter() - started,
                )
            )
    except TextBootError as exc:
        incomplete = True
        failure = f"{type(exc).__name__}: {exc}"

    best = best_round_index(reports)
    _write_run_metrics(run_dir, reports, best)
    return RunResult(
        reports=tuple(reports), best_round=best, incomplete=incomplete, failure=failure
    )


def cross_domain_annotate(
    model_path: Path | str,
    target_pool: Dataset,
    out: Path | str,
    strategy: Provenance = Provenance.LOCAL,
    strategy_cfg: StrategyConfig | None = None,
    round_index: int = 0,
    jobs: int = 1,
) -> PseudoSet:
    """Annotate a pool, possibly of a new domain, with an already-trained model.

    Applies ``strategy`` (by default one annotation per rectangle) and
    writes the result as a pixel-annotated manifest at ``out``, ready to
    train on.
    """
    pseudo = annotate_pool(
        load_model(model_path), target_pool, strategy, strategy_cfg,
        round_index=round_index, jobs=jobs,
    )
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(pseudo_to_dataset(target_pool, pseudo), out)
    return pseudo
