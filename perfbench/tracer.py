"""In-memory span tracer for textboot, installed by rebinding names.

``Tracer.install()`` replaces each traced function with a wrapper under
every name a textboot module looks it up by (``textboot.orchestrator.train``,
``textboot.strategies.read_pgm``, ...) and replaces traced methods on the
class itself (``DetectorModel.prob_map``).  ``uninstall()`` puts every
original object back and ``restored()`` checks that it did.  Spans are kept
in memory; ``write()`` dumps them as JSON lines when the run ends.

A span records its name, start, end, parent span, the phase it belongs to
(``setup``, ``rep1``, ...) and the counts measured at that boundary.  Self
time is a span's duration minus that of its direct children; textboot runs
single-threaded here (``--jobs 1``), so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("data", "detector", "strategies", "geometry", "evaluation", "orchestrator", "cli")


def _train_counts(a, result):
    px = sum(int(ex.image.size) for ex in a["examples"])
    return {"px_epochs": px * a["cfg"].epochs}


def _rows(a, result):
    return {"rows": int(result.shape[0])}


def _prob_map_key(a, result):
    """Identifies the (model, image) pair, so repeated maps can be counted."""
    h = hashlib.blake2b(a["self"].weights.tobytes(), digest_size=16)
    h.update(repr(a["self"].bias).encode())
    h.update(a["image"].tobytes())
    return {"key": h.hexdigest()}


def _detections(a, result):
    return {"detections": len(result)}


def _annotate_counts(a, result):
    anns = [ann for _, per in result.per_image for ann in per]
    return {
        "images": len(a["pool"].records),
        "pseudo": len(anns),
        "empty": sum(1 for ann in anns if ann.mask.count == 0),
    }


def _filter_counts(a, result):
    return {"candidates": len(a["candidates"]), "kept": len(result)}


def _eval_images(a, result):
    return {"images": len(a["truth"].records)}


# (span name, module, attribute or Class.method, counter)
TARGETS = (
    ("data.read_pgm", "data", "read_pgm", None),
    ("data.load_dataset", "data", "load_dataset", None),
    ("data.save_dataset", "data", "save_dataset", None),
    ("data.generate_synthetic", "data", "generate_synthetic", None),
    ("detector.train", "detector", "train", _train_counts),
    ("detector.patch_features", "detector", "patch_features", _rows),
    ("detector.prob_map", "detector", "DetectorModel.prob_map", _prob_map_key),
    ("detector.mask_for_box", "detector", "DetectorModel.mask_for_box", None),
    ("detector.detect", "detector", "DetectorModel.detect", _detections),
    ("detector.save_model", "detector", "save_model", None),
    ("strategies.annotate_pool", "strategies", "annotate_pool", _annotate_counts),
    ("strategies.filter_select", "strategies", "filter_select", _filter_counts),
    ("strategies.pseudo_to_dataset", "strategies", "pseudo_to_dataset", None),
    ("geometry.mask_to_polygon", "geometry", "mask_to_polygon", None),
    ("geometry.rasterize", "geometry", "rasterize", None),
    ("geometry.mask_iou", "geometry", "mask_iou", None),
    ("evaluation.evaluate", "evaluation", "evaluate", _eval_images),
    ("orchestrator.run_pipeline", "orchestrator", "run_pipeline", None),
    ("orchestrator.dataset_examples", "orchestrator", "dataset_examples", None),
    ("orchestrator.evaluate_model", "orchestrator", "_evaluate_model", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.phase: str | None = None

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself around one phase."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        import textboot.cli  # noqa: F401  (loads every textboot module)

        self._saved = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "textboot"]
        for name, module, attr, counter in TARGETS:
            owner = sys.modules[f"textboot.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, meth, self._wrap(name, vars(cls)[meth], counter))
                continue
            orig = vars(owner)[attr]
            wrapper = self._wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key, wrapper) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)

    def restored(self) -> bool:
        """True when every rebound name holds its original object again."""
        return all(vars(owner)[key] is orig for owner, key, orig in self._saved)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")

    # --- aggregation -------------------------------------------------------

    def aggregate(self, phase: str, root: str | None = None) -> dict:
        """Per span name: calls, total and self seconds, summed counts.

        With ``root``, only spans under a root span of that name count.
        """
        roots: dict[int, str] = {}
        for s in self.spans:  # parents are recorded before their children
            roots[s["id"]] = s["name"] if s["parent"] is None else roots[s["parent"]]
        spans = [
            s for s in self.spans
            if s["phase"] == phase and (root is None or roots[s["id"]] == root)
        ]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in spans:
            dur = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "keys": set()})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[s["id"]]
            for key, value in s["counts"].items():
                if key == "key":
                    row["keys"].add(value)
                else:
                    row[key] = row.get(key, 0) + value
        return out


def layer_metrics(agg: dict) -> dict[str, float]:
    """The per-layer metrics of one phase's aggregate."""

    def get(name, field="s"):
        return agg.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    for name in (
        "data.read_pgm", "data.save_dataset", "detector.train", "detector.patch_features",
        "detector.prob_map", "detector.mask_for_box", "detector.detect",
        "strategies.annotate_pool", "geometry.mask_to_polygon", "geometry.rasterize",
        "geometry.mask_iou", "evaluation.evaluate", "orchestrator.dataset_examples",
    ):
        m[f"{name}.calls"] = get(name, "calls")
    for name in (
        "data.read_pgm", "data.load_dataset", "data.save_dataset", "data.generate_synthetic",
        "detector.train", "detector.patch_features", "detector.prob_map",
        "detector.mask_for_box", "detector.detect", "detector.save_model",
        "strategies.annotate_pool", "strategies.pseudo_to_dataset", "geometry.mask_to_polygon",
        "geometry.rasterize", "geometry.mask_iou", "evaluation.evaluate",
        "orchestrator.run_pipeline", "orchestrator.dataset_examples",
        "orchestrator.evaluate_model", "cli.main",
    ):
        m[f"{name}.s"] = get(name)
    for name in ("orchestrator.run_pipeline", "cli.main"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["detector.train.px_epochs"] = get("detector.train", "px_epochs")
    m["detector.patch_features.rows"] = get("detector.patch_features", "rows")
    m["detector.detect.detections"] = get("detector.detect", "detections")
    m["strategies.annotate_pool.images"] = get("strategies.annotate_pool", "images")
    m["strategies.pseudo.count"] = get("strategies.annotate_pool", "pseudo")
    m["evaluation.evaluate.images"] = get("evaluation.evaluate", "images")
    return m


def combine(setup: dict, reps: list[dict]) -> dict[str, float]:
    """Setup plus the median over traced repetitions, metric by metric.

    Ratios of counts come from the setup and the first repetition; the
    caller checks that counts repeat exactly across repetitions.
    """
    setup_m = layer_metrics(setup)
    per_rep = [layer_metrics(r) for r in reps]
    out = {k: setup_m[k] + statistics.median(m[k] for m in per_rep) for k in setup_m}

    def total(name, field):
        return sum(a.get(name, {}).get(field, 0) for a in (setup, reps[0]))

    def ratio(num, den):
        return num / den if den else 0.0

    prob_map = [a.get("detector.prob_map", {}) for a in (setup, reps[0])]
    pairs = set().union(*(row.get("keys", set()) for row in prob_map))
    out["detector.prob_map.per_image"] = ratio(total("detector.prob_map", "calls"), len(pairs))
    out["detector.train.px_per_s"] = ratio(out["detector.train.px_epochs"], out["detector.train.s"])
    out["strategies.pseudo.empty_frac"] = ratio(
        total("strategies.annotate_pool", "empty"), total("strategies.annotate_pool", "pseudo")
    )
    out["strategies.filter.kept_frac"] = ratio(
        total("strategies.filter_select", "kept"), total("strategies.filter_select", "candidates")
    )
    return out


def module_shares(aggs: list[dict]) -> dict[str, float]:
    """Each textboot module's self time as a share of the benchmark's phases.

    The benchmark opens only root spans, all named ``bench.<phase>``, so
    their summed duration is the traced wall time.
    """
    self_s: dict[str, float] = defaultdict(float)
    for agg in aggs:
        for name, row in agg.items():
            self_s[name.split(".")[0]] += row["self_s"]
    total = sum(row["s"] for agg in aggs for name, row in agg.items() if name.startswith("bench."))
    return {mod: self_s[mod] / total for mod in (*MODULES, "bench")} if total else {}
