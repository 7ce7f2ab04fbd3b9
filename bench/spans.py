"""Traced re-enactment of the CLI commands, one span per call into a layer.

``Replay`` performs each command the way ``cascadekit.cli`` does, calling
the same public functions in the same order, but wraps every call into a
layer (records, complementarity, calibration, engine, images, phash,
metering) in a span. Spans live in memory (name, start, end, parent,
workload id) and are written out once at the end.

``calibration.auto_select`` and ``metering.duplication_experiment`` run
as the program's own calls. The functions they look up in their modules
(``find_lambda_star``; ``build_duplicated_stream``, ``run_batch``,
``aggregate``) are wrapped in spans for the length of the call, so a
change to either orchestration moves the metrics; a function they stop
calling simply records no spans.

Some layers are reached only from inside another layer's call: the score
functions and the replay table inside the threshold search, grayscale,
fingerprints and the memo store inside the engine, the pixel transforms
inside the duplicated-stream builder. ``Replay.probes`` times their public
functions from outside on the workload's own inputs, under a ``probe``
span, so they never count toward the traced command time.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter

from cascadekit import calibration, metering
from cascadekit.calibration import (
    accuracy_at,
    auto_select,
    candidate_lambdas,
    format_curve_csv,
    load_config,
    save_config,
)
from cascadekit.complementarity import complementarity_matrix, format_matrix_csv
from cascadekit.confidence import ScoreFunction, score, softmax
from cascadekit.engine import CascadeEngine, ReplayClassifier, SampleRef, format_traces_jsonl, run_batch
from cascadekit.errors import DataError
from cascadekit.images import TRANSFORMS, load_image_pnm, to_grayscale
from cascadekit.metering import aggregate, duplication_experiment, format_curves_csv, format_report_json
from cascadekit.phash import MemoStore, dhash_fingerprint, moments_fingerprint
from cascadekit.records import align_records, load_cost_profile, load_prediction_records

# span names whose summed duration is reported as "<name>_s"
TIMED = (
    "records.parse", "records.align", "confidence.score", "calibration.table",
    "calibration.candidates", "calibration.auto_select", "complementarity.matrix",
    "engine.replay", "images.decode", "images.grayscale", "images.transform",
    "phash.fingerprint", "phash.store", "metering.aggregate", "metering.stream", "metering.format",
)
COUNTED = {
    "records.bytes": "B", "calibration.candidates": "count", "calibration.evaluations": "count",
    "engine.samples": "count", "engine.escalated": "count", "engine.escalated_kept_a": "count",
    "engine.memory_hits": "count", "engine.hash_errors": "count", "images.pixels": "count",
    "phash.lookups": "count", "phash.hits": "count", "phash.inserts": "count",
}


class Tracer:
    """In-memory spans of one workload run."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
                  "workload": self.workload_id, "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s, own in zip(self.spans, self._self_seconds()):
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self._self_seconds()):
                fh.write(json.dumps(s | {"self": own}) + "\n")


@contextlib.contextmanager
def wrapped(module, name: str, wrap):
    """Replace ``module.name`` by ``wrap(original)`` for the length of the block."""
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class Replay:
    """The workload's commands, re-enacted under spans; outputs go to ``out``."""

    def __init__(self, tracer: Tracer, wl, paths, configs: dict[str, str], out: dict[str, str], dup_seed: int, ratios: list[float]):
        self.t = tracer
        self.wl = wl
        self.p = paths
        self.configs = configs  # calibrated run/dup configs written by the untraced run
        self.out = out
        self.dup_seed = dup_seed
        self.ratios = ratios
        self.counts: Counter[str] = Counter()
        self.paired = None
        self.images: list = []

    def _parse(self, path: str):
        with self.t.span("records.parse"):
            records = load_prediction_records(path)
        self.counts["records.bytes"] += os.path.getsize(path)
        return records

    def _count(self, traces) -> None:
        c = self.counts
        for tr in traces:
            c["engine.samples"] += 1
            if "model_b" in tr.stages:
                c["engine.escalated"] += 1
                c["engine.escalated_kept_a"] += tr.chosen == "a"
            c["engine.memory_hits"] += tr.path == "memory_hit"
            c["engine.hash_errors"] += tr.hash_error is not None
            c["phash.lookups"] += "memory_lookup" in tr.stages
            c["phash.hits"] += tr.path == "memory_hit"
            c["phash.inserts"] += "memory_insert" in tr.stages

    def _load_samples(self, config, records: tuple[str, str], with_images: bool, with_labels: bool):
        """cli._load_samples: parse, align, classifiers, then one image per sample."""
        a, b = [self._parse(path) for path in records]
        with self.t.span("records.align"):
            paired = align_records(a, b, config.first_model, config.second_model)
        with self.t.span("engine.setup"):
            classifier_a = ReplayClassifier(config.first_model, a)
            classifier_b = ReplayClassifier(config.second_model, b)
        images = [None] * len(paired)
        if with_images:
            with self.t.span("images.decode"):
                images = []
                for s in paired.samples:
                    with open(os.path.join(self.p.images, s.id + ".ppm"), "rb") as fh:
                        images.append(load_image_pnm(fh.read()))
            self.counts["images.pixels"] += sum(img.width * img.height for img in images)
            self.images = images
        samples = [SampleRef(s.id, img, s.label if with_labels else None) for s, img in zip(paired.samples, images)]
        return samples, classifier_a, classifier_b

    def complementarity(self) -> None:
        with self.t.span("cli.complementarity"):
            models = [self._parse(path) for path in self.p.records]
            with self.t.span("complementarity.matrix"):
                matrix = complementarity_matrix(models, ["model_a", "model_b"])
            with self.t.span("complementarity.format"):
                _write(self.out["matrix.csv"], format_matrix_csv(matrix))
                matrix.best_pair()

    def calibrate(self) -> None:
        with self.t.span("cli.calibrate"):
            a, b = [self._parse(path) for path in self.p.records]
            with self.t.span("records.align"):
                paired = align_records(a, b, "model_a", "model_b")

            def sweep(find):
                def traced(dataset, score_fn, *args, **kwargs):
                    with self.t.span(f"calibration.sweep.{score_fn.value}"):
                        result = find(dataset, score_fn, *args, **kwargs)
                    self.counts["calibration.evaluations"] += len(result.curve) * len(dataset)
                    return result
                return traced

            with self.t.span("calibration.auto_select"), wrapped(calibration, "find_lambda_star", sweep):
                best = auto_select(paired)
            with self.t.span("calibration.format"):
                save_config(best.config, self.out["config.json"])
                _write(self.out["curve.csv"], format_curve_csv(best.curve))
        self.paired = paired

    def run(self, records: tuple[str, str]) -> None:
        with self.t.span("cli.run"):
            with self.t.span("calibration.load_config"):
                config = load_config(self.configs["run_config.json"])
            with self.t.span("records.load_costs"):
                costs = load_cost_profile(self.wl.costs)
            samples, classifier_a, classifier_b = self._load_samples(
                config, records, with_images=config.memory != "none", with_labels=True)
            engine = CascadeEngine(config, classifier_a, classifier_b)
            with self.t.span("engine.replay"):
                traces, _ = run_batch(engine, samples)
            self._count(traces)
            with self.t.span("metering.aggregate"):
                report = aggregate(traces, costs, config=config)
            with self.t.span("metering.format"):
                _write(self.out["report.json"], format_report_json(report))
                _write(self.out["traces.jsonl"], format_traces_jsonl(traces))

    def duplication(self, records: tuple[str, str]) -> None:
        with self.t.span("cli.duplication"):
            with self.t.span("calibration.load_config"):
                config = load_config(self.configs["dup_config.json"])
            with self.t.span("records.load_costs"):
                costs = load_cost_profile(self.wl.costs)
            samples, classifier_a, classifier_b = self._load_samples(
                config, records, with_images=True, with_labels=False)

            def spanned(name: str, count_traces: bool = False):
                def wrap(fn):
                    def traced(*args, **kwargs):
                        with self.t.span(name):
                            result = fn(*args, **kwargs)
                        if count_traces:
                            self._count(result[0])
                        return result
                    return traced
                return wrap

            def factory() -> CascadeEngine:
                return CascadeEngine(config, classifier_a, classifier_b)

            with (
                self.t.span("metering.duplication_experiment"),
                wrapped(metering, "build_duplicated_stream", spanned("metering.stream")),
                wrapped(metering, "run_batch", spanned("engine.replay", count_traces=True)),
                wrapped(metering, "aggregate", spanned("metering.aggregate")),
            ):
                curves = duplication_experiment(
                    samples, self.ratios, self.wl.transform, [(config.memory, factory)], costs, seed=self.dup_seed)
            with self.t.span("metering.format"):
                _write(self.out["dup.csv"], format_curves_csv(curves))

    def probes(self) -> None:
        """Time the layers reached only inside other layers' calls."""
        with self.t.span("probe"):
            for fn in ScoreFunction:
                with self.t.span("confidence.score"):
                    for s in self.paired.samples:
                        score(softmax(s.logits_a), fn)
                        score(softmax(s.logits_b), fn)
            for fn in ScoreFunction:
                with self.t.span("calibration.table"):
                    accuracy_at(self.paired, fn, 0.5, post_check=True)
            for fn in ScoreFunction:
                for dataset in (self.paired, self.paired.swapped()):
                    with self.t.span("calibration.candidates"):
                        self.counts["calibration.candidates"] += len(candidate_lambdas(dataset, fn))
            with self.t.span("images.grayscale"):
                grays = [to_grayscale(img) for img in self.images]
            fingerprint = dhash_fingerprint if self.wl.memory == "dhash" else moments_fingerprint
            fingerprints = []
            with self.t.span("phash.fingerprint"):
                for gray in grays:
                    try:
                        fingerprints.append(fingerprint(gray))
                    except DataError:
                        pass  # blank frames: the engine degrades these to the no-memory path
            store = MemoStore()
            with self.t.span("phash.store"):
                for fp in fingerprints:  # the engine's pattern for an exact repeat: miss, insert, hit
                    if store.lookup(fp) is None:
                        store.insert(fp, 0)
                    store.lookup(fp)
            names = list(TRANSFORMS)
            with self.t.span("images.transform"):
                for i, img in enumerate(self.images):
                    TRANSFORMS[names[i % len(names)]](img)

    def metrics(self) -> dict[str, tuple[float, str]]:
        metrics = {f"{name}_s": (self.t.total(name), "s") for name in TIMED}
        sweeps = {fn.value: self.t.total(f"calibration.sweep.{fn.value}") for fn in ScoreFunction}
        metrics["calibration.sweep_s"] = (sum(sweeps.values()), "s")
        for fn, seconds in sweeps.items():
            metrics[f"calibration.sweep_s.{fn}"] = (seconds, "s")
        for name, unit in COUNTED.items():
            metrics[name] = (self.counts[name], unit)
        return metrics
