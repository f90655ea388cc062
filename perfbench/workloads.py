"""Worlds and repetitions of the benchmark's three workloads.

Every textboot call goes through a module attribute (``data.load_dataset``,
``cli.main``), so the tracer's rebinding sees it.  A repetition records the
operations it attempted and the ones whose checks failed:

* ``bootstrap_local`` / ``fully_train``: one ``textboot run`` through the
  in-process CLI, then a probe with the run's best model: LOCAL pseudo
  labels for the pool, and detection plus evaluation on the test split.
  An operation is one round.
* ``pool_annotate``: the round-0 baseline takes the pool from manifest to
  pseudo manifest with LOCAL, FILTER and NAIVE, each result is scored
  against the hidden pool truth, and the test split is detected and
  evaluated.  An operation is one image.

Pseudo labels are scored as masks, before their polygon serialisation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from textboot import cli, data, detector, evaluation, geometry, strategies
from textboot.errors import TextBootError

EVAL_IOU = 0.35
_EVAL = evaluation.EvalConfig(iou_threshold=EVAL_IOU)
STRONG_IMAGES = 20  # pixel-labelled images in every world, as in the acceptance world

# World sizes and seed bases.  "bench" is what timed runs use; "acceptance"
# is ROADMAP's acceptance world (200 train / 50 test, 10% strong, default
# training), too slow for timed runs but used to record reference counts.
SCALES = {
    "bench": {
        "boot": {"train": 60, "test": 100},
        "pool": {"train": 180, "test": 100},
        "train_flags": ("--epochs", "8", "--batch-size", "512"),
    },
    "acceptance": {
        "boot": {"train": 200, "test": 50},
        "pool": {"train": 620, "test": 200},
        "train_flags": (),
    },
}
SEEDS = {  # base seeds at --seed 0; seed n adds 1000 n to scenes and n to splits
    "boot": {"train": 101, "test": 202, "split": 7},
    "pool": {"train": 303, "test": 404, "split": 11},
}


@dataclass
class World:
    root: Path
    manifests: dict[str, Path]
    datasets: dict[str, data.Dataset]
    train_flags: tuple[str, ...]
    model: Path | None = None  # pool_annotate's round-0 baseline
    baseline_f: float | None = None


@dataclass
class Rep:
    """What one repetition did, how long it took, and what went wrong."""

    ops: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    groups: dict[str, list[str]] = field(default_factory=dict)  # artifact group -> its ops
    artifacts: dict[str, list[str]] = field(default_factory=dict)  # group -> file hashes
    run_s: float = 0.0
    annotate_s: float = 0.0
    annotate_images: int = 0
    eval_s: float = 0.0
    eval_images: int = 0
    best_f: float = 0.0
    pseudo_f: float = 0.0

    def fail(self, ops, reason: str) -> None:
        for op in ops:
            self.failed.setdefault(op, reason)

    def hash(self, group: str, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.artifacts.setdefault(group, []).append(f"{path.name}:{digest}")

    def compare(self, reference: Rep) -> None:
        """Fail the operations whose artifacts differ from the reference's."""
        for group, ops in self.groups.items():
            if self.artifacts.get(group) != reference.artifacts.get(group):
                self.fail(ops, f"{group}: artifacts differ from the first repetition")


@contextlib.contextmanager
def _no_span(name: str):
    yield


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _report_f(path: Path) -> float:
    """The f_measure line of a key=value evaluation report, exactly."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("f_measure="):
            return float(line.split("=", 1)[1])
    raise ValueError(f"{path}: no f_measure line")


# --- setup -------------------------------------------------------------------


def setup(workload: str, scale: str, seed: int, root: Path) -> World:
    """Generate, split, save and reload the inputs; pool_annotate also
    trains its round-0 baseline through ``textboot run --rounds 0``."""
    kind = "pool" if workload == "pool_annotate" else "boot"
    sizes, seeds = SCALES[scale][kind], SEEDS[kind]
    source = data.generate_synthetic(
        data.SceneSpec(n_images=sizes["train"], seed=seeds["train"] + 1000 * seed),
        root / "train",
    )
    data.generate_synthetic(
        data.SceneSpec(n_images=sizes["test"], seed=seeds["test"] + 1000 * seed, prefix="test"),
        root / "test",
    )
    fraction = STRONG_IMAGES / sizes["train"]
    split_seed = seeds["split"] + seed
    strong, weak = data.split_dataset(source, fraction, split_seed)
    _, truth = data.split_dataset(source, fraction, split_seed, downgrade=None)
    _, blank = data.split_dataset(source, fraction, split_seed, downgrade=data.AnnotationTier.NONE)
    manifests = {"test": root / "test" / "dataset.manifest"}
    for name, ds in (("strong", strong), ("weak", weak), ("truth", truth), ("blank", blank)):
        manifests[name] = root / "splits" / f"{name}.manifest"
        manifests[name].parent.mkdir(parents=True, exist_ok=True)
        data.save_dataset(ds, manifests[name])
    datasets = {name: data.load_dataset(path) for name, path in manifests.items()}
    world = World(root, manifests, datasets, SCALES[scale]["train_flags"])
    if kind == "pool":
        run_dir = root / "baseline"
        code, text = _cli(_run_argv(world, "local", run_dir, rounds=0))
        if code != 0:
            raise RuntimeError(f"baseline training failed: {text}")
        world.model = run_dir / "round_000" / "model.bin"
        world.baseline_f = _report_f(run_dir / "round_000" / "metrics.txt")
    return world


def _run_argv(world: World, strategy: str, out: Path, rounds: int = 3) -> list:
    pool = world.manifests["truth" if strategy == "fully" else "weak"]
    return [
        "run", "--strong", world.manifests["strong"], "--pool", pool,
        "--test", world.manifests["test"], "--out", out, "--strategy", strategy,
        "--rounds", rounds, "--eval-iou", EVAL_IOU, "--seed", 0, "--jobs", 1,
        *world.train_flags,
    ]


# --- shared inference steps ----------------------------------------------------

def annotate_and_score(rep: Rep, world: World, model, strategy: str, out_dir: Path, op_of):
    """Take the pool from its manifest to a pseudo manifest, as ``textboot
    annotate`` does, then score the pseudo masks against the hidden truth.

    Adds the manifest-to-manifest time to ``rep.annotate_s``, checks the
    result, and returns (F of the pseudo labels, seconds spent scoring).
    """
    pool_name = "blank" if strategy == "naive" else "weak"
    out = out_dir / f"{strategy}.manifest"

    started = time.perf_counter()
    pool = data.load_dataset(world.manifests[pool_name])
    pseudo = strategies.annotate_pool(
        model, pool, strategies.Provenance[strategy.upper()], strategies.StrategyConfig(),
        round_index=1, jobs=1,
    )
    data.save_dataset(strategies.pseudo_to_dataset(pool, pseudo), out)
    annotated = time.perf_counter()
    dets = {
        image_id: [
            geometry.Detection(a.box, a.mask, 1.0 if a.score is None else a.score)
            for a in anns if a.mask.count
        ]
        for image_id, anns in pseudo.per_image
    }
    f = evaluation.evaluate(dets, world.datasets["truth"], _EVAL).f_measure
    scored = time.perf_counter() - annotated
    rep.annotate_s += annotated - started
    rep.annotate_images += len(pool.records)

    _check_pseudo(rep, pool, pseudo, out, strategy, op_of)
    group = f"annotate {strategy}"
    rep.groups.setdefault(group, []).extend(op_of(rec.image_id) for rec in pool.records)
    rep.hash(group, out)
    rep.artifacts[group].append(repr(f))
    return f, scored


def _check_pseudo(rep: Rep, pool, pseudo, out: Path, strategy: str, op_of) -> None:
    """Every pool image is in the pseudo set and in the manifest, which
    reloads; LOCAL gives exactly one annotation per rectangle."""
    got = dict(pseudo.per_image)
    for rec in pool.records:
        anns = got.get(rec.image_id)
        if anns is None:
            rep.fail([op_of(rec.image_id)], f"{strategy}: {rec.image_id} missing from the pseudo set")
        elif strategy == "local" and len(anns) != len(rec.rects):
            rep.fail([op_of(rec.image_id)], f"local: {rec.image_id} has {len(anns)} "
                     f"annotations for {len(rec.rects)} rectangles")
    try:
        written = data.load_dataset(out)
    except (TextBootError, OSError, ValueError) as exc:
        rep.fail([op_of(r.image_id) for r in pool.records], f"{out.name} does not reload: {exc!r}")
        return
    if [r.image_id for r in written.records] != [r.image_id for r in pool.records]:
        rep.fail([op_of(r.image_id) for r in pool.records], f"{out.name} does not list the pool")


def score_test(rep: Rep, world: World, model) -> float:
    """Detect on every test image and evaluate; returns F."""
    test = world.datasets["test"]
    started = time.perf_counter()
    dets = {rec.image_id: model.detect(data.read_pgm(rec.image_path)) for rec in test.records}
    report = evaluation.evaluate(dets, test, _EVAL)
    rep.eval_s += time.perf_counter() - started
    rep.eval_images += len(test.records)
    return report.f_measure


# --- repetitions ---------------------------------------------------------------


def repeat(workload: str, world: World, out_dir: Path, span=_no_span) -> Rep:
    """One repetition; ``span(name)`` opens the benchmark's phase spans."""
    out_dir.mkdir(parents=True)
    if workload == "pool_annotate":
        rep = Rep(ops=[f"{s} {rec.image_id}" for s in ("local", "filter", "naive")
                       for rec in world.datasets["weak"].records]
                  + [f"test {rec.image_id}" for rec in world.datasets["test"].records])
    else:
        rep = Rep(ops=[f"round {r}" for r in range(1 if workload == "fully_train" else 4)])
    try:
        if workload == "pool_annotate":
            with span("bench.run"):
                _pool_annotate(rep, world, out_dir)
        else:
            _bootstrap(rep, world, "fully" if workload == "fully_train" else "local", out_dir, span)
    except Exception:  # a crash inside textboot fails this repetition, not the benchmark
        rep.fail(rep.ops, traceback.format_exc().strip())
    return rep


def _bootstrap(rep: Rep, world: World, strategy: str, out_dir: Path, span) -> None:
    run_dir = out_dir / "run"
    with span("bench.run"):
        started = time.perf_counter()
        code, text = _cli(_run_argv(world, strategy, run_dir))
        rep.run_s = time.perf_counter() - started
    if not (run_dir / "run_manifest.json").exists():
        rep.fail(rep.ops, f"textboot run exited {code}: {text.strip()}")
        return

    manifest = json.loads((run_dir / "run_manifest.json").read_text(encoding="utf-8"))
    done = {r["round"] for r in manifest["rounds"]}
    for op in rep.ops:
        r = int(op.split()[1])
        rdir = run_dir / f"round_{r:03d}"
        if r not in done:
            rep.fail([op], f"round not finished; textboot run exited {code}: {text.strip()}")
            continue
        rep.groups[op] = [op]
        for name in ("model.bin", "metrics.txt", "pseudo.manifest"):
            if (rdir / name).exists():
                rep.hash(op, rdir / name)
        if r > 0:
            _check_round_pseudo(rep, world, rdir / "pseudo.manifest", op)
    if code != 0 or manifest["incomplete"]:
        rep.fail([rep.ops[-1]], f"run incomplete; textboot run exited {code}: {text.strip()}")
    if not done:
        return
    for name in ("metrics.txt", "f_vs_round.tsv"):
        rep.hash(rep.ops[-1], run_dir / name)

    best_op = f"round {manifest['best_round']}"
    best_dir = run_dir / f"round_{manifest['best_round']:03d}"
    rep.best_f = _report_f(best_dir / "metrics.txt")
    model = detector.load_model(best_dir / "model.bin")
    with span("bench.probe"):
        rep.pseudo_f, _ = annotate_and_score(rep, world, model, "local", out_dir, lambda _: best_op)
        f = score_test(rep, world, model)
    if f != rep.best_f:
        rep.fail([best_op], f"test F {f!r} differs from the run's {rep.best_f!r}")


def _check_round_pseudo(rep: Rep, world: World, path: Path, op: str) -> None:
    """A round's pseudo manifest reloads and covers the whole pool."""
    try:
        pseudo = data.load_dataset(path)
    except (TextBootError, OSError, ValueError) as exc:
        rep.fail([op], f"{path} does not reload: {exc!r}")
        return
    want = [r.image_id for r in world.datasets["weak"].records]
    if [r.image_id for r in pseudo.records] != want:
        rep.fail([op], f"{path} does not list every pool image")


def _pool_annotate(rep: Rep, world: World, out_dir: Path) -> None:
    model = detector.load_model(world.model)
    for strategy in ("local", "filter", "naive"):
        f, scored = annotate_and_score(
            rep, world, model, strategy, out_dir, lambda image_id, s=strategy: f"{s} {image_id}"
        )
        rep.run_s += scored
        if strategy == "local":
            rep.pseudo_f = f
    rep.best_f = score_test(rep, world, model)
    rep.run_s += rep.annotate_s + rep.eval_s
    test_ops = [op for op in rep.ops if op.startswith("test ")]
    if rep.best_f != world.baseline_f:
        rep.fail(test_ops, f"test F {rep.best_f!r} differs from the baseline run's {world.baseline_f!r}")
    rep.groups["test"] = test_ops
    rep.artifacts["test"] = [repr(rep.best_f)]
