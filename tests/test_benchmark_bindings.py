"""The benchmark's tracer rebinds textboot names; each must still exist.

``perfbench/tracer.py`` is loaded by file path, as the benchmark runs it,
so renaming or deleting a traced function fails here and not only in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores_every_binding():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # KeyError when a traced name is gone
    finally:
        tracer.uninstall()
    assert tracer.restored()
