"""The benchmark calls textboot by name; each name and call form must still work.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` are loaded by file
path, as the benchmark runs them, so renaming or deleting a traced
function, or changing a signature the workloads call, fails here and not
only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from textboot import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    tracer = _load(monkeypatch, "tracer").Tracer()
    try:
        tracer.install()  # KeyError when a traced name is gone
    finally:
        tracer.uninstall()
    assert tracer.restored()


def test_benchmark_workloads_run_at_a_tiny_scale(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "workloads")
    sizes = {"train": workloads.STRONG_IMAGES + 6, "test": 6}
    monkeypatch.setitem(
        workloads.SCALES, "tiny", {"boot": sizes, "pool": sizes, "train_flags": ("--epochs", "1")}
    )
    for name in ("bootstrap_local", "pool_annotate"):
        world = workloads.setup(name, "tiny", 0, tmp_path / name / "world")
        rep = workloads.repeat(name, world, tmp_path / name / "rep")
        assert rep.ops and rep.failed == {}, (name, rep.failed)


def test_benchmark_run_argv_parses_for_every_strategy_it_runs(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "workloads")
    manifests = {name: tmp_path / f"{name}.manifest"
                 for name in ("strong", "weak", "truth", "test")}
    world = workloads.World(tmp_path, manifests, {}, workloads.SCALES["bench"]["train_flags"])
    for strategy, pool in (("local", "weak"), ("fully", "truth")):
        argv = workloads._run_argv(world, strategy, tmp_path / strategy)
        args = cli.build_parser().parse_args([str(a) for a in argv])
        assert args.func is cli.cmd_run
        assert (args.strategy, args.pool, args.rounds) == (strategy, str(manifests[pool]), 3)
        assert (args.epochs, args.batch_size, args.jobs) == (8, 512, 1)
