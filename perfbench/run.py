"""Benchmark of textboot's bootstrap loop, driven from outside the package.

    python3 perfbench/run.py --workload bootstrap_local --seed 0 --seconds 44 --trace 0

Workloads: ``bootstrap_local`` and ``pool_annotate`` (the two in
BENCHMARK.json), and ``fully_train``; baseline.json gives their sizes,
seeds, purpose and reference numbers.  Each run sets the inputs up several
times (``setup_s`` is the median), then repeats the workload back to back,
one repetition at a time, for ``--seconds`` after one untimed warm-up
repetition.  Every repetition checks its outputs; failed operations are
counted.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
BENCHMARK.json's ``end_to_end`` metrics.  With ``--trace 1`` a separate run
wraps textboot's public functions (see tracer.py): it sets up once traced,
warms up, then alternates untraced and traced repetitions, and reports the
``per_layer`` metrics.  Spans and a per-phase summary are written under
perfbench/_out/.  ``--scale acceptance`` runs ROADMAP's full-size worlds
instead of the benchmark's smaller ones.

Exits 1 without a result when textboot's sources are not beside the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("bootstrap_local", "fully_train", "pool_annotate")
SETUPS = 3
MIN_REPS = 2
COUNT_SUFFIXES = (".calls", ".rows", ".px_epochs", ".detections", ".images", ".count")


def cap_blas_threads() -> None:
    """At most one BLAS thread per CPU this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= n:
            os.environ[var] = str(n)


def import_textboot() -> None:
    src = ROOT / "src"
    if not (src / "textboot" / "__init__.py").is_file():
        sys.exit(f"error: textboot sources not found under {src}")
    sys.path.insert(0, str(src))
    import textboot

    if Path(textboot.__file__).resolve().parent != src / "textboot":
        sys.exit(f"error: imported textboot from {textboot.__file__}, not from {src}")


def repeat_for(seconds: float, run_one) -> list:
    """Closed loop: the next repetition starts when the last one ends, and
    none starts that would be expected to end after ``seconds``."""
    reps, walls = [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(run_one(len(reps)))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            return reps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(args, work: Path) -> tuple[list, dict]:
    import workloads

    setup_s, world = [], None
    for k in range(SETUPS):
        t0 = time.perf_counter()
        w = workloads.setup(args.workload, args.scale, args.seed, work / f"setup{k}")
        setup_s.append(time.perf_counter() - t0)
        if world is None:
            world = w
        else:
            shutil.rmtree(w.root)
        log(f"setup {k}: {setup_s[-1]:.3f}s")

    def run_one(n):
        rep = workloads.repeat(args.workload, world, work / f"rep{n}")
        shutil.rmtree(work / f"rep{n}")
        log(f"rep {n}: run_s={rep.run_s:.3f} failed={len(rep.failed)}")
        return rep

    # One-time costs of the first repetition in a process are not timed; the
    # warm-up is still checked, and its artifacts are the reference.
    warm = run_one("warmup")
    reps = repeat_for(args.seconds, run_one)
    for rep in reps:
        rep.compare(warm)
    everything = [warm, *reps]
    attempted = sum(len(r.ops) for r in everything)
    failed = sum(len(r.failed) for r in everything)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(r.run_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_f": warm.best_f,
        "pseudo_f": warm.pseudo_f,
        "annotate_img_per_s": _ratio(
            sum(r.annotate_images for r in reps), sum(r.annotate_s for r in reps)
        ),
        "eval_img_per_s": _ratio(sum(r.eval_images for r in reps), sum(r.eval_s for r in reps)),
        "success_frac": _ratio(attempted - failed, attempted),
    }
    return everything, metrics


def per_layer(args, work: Path) -> tuple[list, dict]:
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    restored = True

    def traced(phase, fn):
        nonlocal restored
        tracer.phase = phase
        tracer.install()
        try:
            return fn()
        finally:
            tracer.uninstall()
            restored = restored and tracer.restored()

    def setup():
        with tracer.span("bench.setup"):
            return workloads.setup(args.workload, args.scale, args.seed, work / "setup")

    world = traced("setup", setup)

    def run_one(n):
        """An untraced repetition, then a traced one: alternating the two
        keeps drift in machine speed out of the overhead."""
        plain = workloads.repeat(args.workload, world, work / f"plain{n + 1}")
        phase = f"rep{n + 1}"
        rep = traced(phase, lambda: workloads.repeat(args.workload, world, work / phase, tracer.span))
        log(f"pair {n + 1}: untraced run_s={plain.run_s:.3f} traced run_s={rep.run_s:.3f}")
        return plain, rep

    warm = workloads.repeat(args.workload, world, work / "warmup")
    pairs = repeat_for(args.seconds, run_one)
    plain = [p for p, _ in pairs]
    reps = [r for _, r in pairs]
    phases = [f"rep{n + 1}" for n in range(len(reps))]
    aggs = [tracer.aggregate(p) for p in phases]
    setup_agg = tracer.aggregate("setup")
    counts = [
        {k: v for k, v in tracing.layer_metrics(a).items() if k.endswith(COUNT_SUFFIXES)}
        for a in aggs
    ]
    for rep in plain + reps:
        rep.compare(warm)
    for rep, rep_counts in zip(reps, counts):
        if rep_counts != counts[0]:
            changed = sorted(k for k in rep_counts if rep_counts[k] != counts[0][k])
            rep.fail(rep.ops, f"per-layer counts differ between repetitions: {changed}")
    if not restored:
        reps[-1].fail(reps[-1].ops, "a traced binding was not restored")

    metrics = tracing.combine(setup_agg, aggs)
    metrics["trace.overhead_s"] = (
        statistics.median(r.run_s for r in reps) - statistics.median(r.run_s for r in plain)
    )

    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}"
    tracer.write(out / f"spans-{stem}.jsonl")
    summary = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "untraced_run_s": [r.run_s for r in plain],
        "traced_run_s": [r.run_s for r in reps],
        "module_self_share": tracing.module_shares([setup_agg, aggs[0]]),
        "metrics": metrics,
        "phases": {
            "setup": tracing.layer_metrics(setup_agg),
            **{
                root: tracing.layer_metrics(tracer.aggregate(phases[0], root))
                for root in ("bench.run", "bench.probe")
            },
        },
    }
    (out / f"summary-{stem}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return [warm, *plain, *reps], metrics


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "acceptance"), default="bench")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cap_blas_threads()
    import_textboot()

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        reps, values = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for rep in reps:
        for op, reason in sorted(rep.failed.items()):
            log(f"FAILED {op}: {reason}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.exit(f"error: benchmark computed no value for {missing}")
    attempted = sum(len(r.ops) for r in reps)
    failed = sum(len(r.failed) for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
