"""Energy and latency accounting over stage traces.

The cost model is linear: each executed stage contributes a fixed energy
and latency taken from a CostProfile. ``aggregate`` reads a batch's
``Traces`` by column: it counts the paths and the distinct stages tuples,
prices each distinct tuple once, and sums raw stage counts first and
multiplies once per stage, so the grand total is immune to per-sample
rounding. Percentiles use the nearest-rank order statistic; both of a
report's come from one sort. The duplication experiment builds each
engine once and empties its label memory before every ratio, so each
ratio's stream starts cold; that is how the memory component's
flat-energy behavior shows up against a linear baseline. Only it loads
the pixel transforms (``images``).
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from itertools import chain
from typing import Callable, NamedTuple, Sequence

from .calibration import CascadeConfig
from .confidence import add_in_order
from .engine import (
    PATH_MEMORY_HIT,
    PATHS,
    CascadeEngine,
    MacroMetrics,
    SampleRef,
    StageTrace,
    Traces,
    macro_metrics,
    run_batch,
)
from .errors import DataError, non_negative_number, parse_json, read_parsed
from .records import STAGES, CostProfile


def _count(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DataError(f"{what} must be an integer >= 0")
    return value


def _counts(value: object, what: str) -> dict[str, int]:
    if not isinstance(value, dict):
        raise DataError(f"{what} must be an object")
    return {k: _count(v, f"{what} {k}") for k, v in value.items()}


def _latencies(value: object, what: str) -> list[float]:
    if not isinstance(value, list):
        raise DataError(f"{what} must be an array")
    return [non_negative_number(v, f"{what} entry") for v in value]


def _metrics(value: object, key: str) -> MacroMetrics:
    try:
        return MacroMetrics(*(non_negative_number(value[name], name) for name in MacroMetrics._fields))
    except KeyError as exc:  # a missing metric, named by its dotted path
        raise KeyError(f"{key}.{exc.args[0]}") from None


def _optional(read: Callable[[object, str], object]) -> Callable[[object, str], object]:
    return lambda value, key: None if value is None else read(value, key)


# each report file key, in RunReport's field order, with its reader (value, key) -> checked value
_REPORT_READERS = {
    "sample_count": _count,
    "path_counts": _counts,
    "stage_counts": _counts,
    "total_energy_wh": non_negative_number,
    "total_current_mah": _optional(non_negative_number),
    "latencies_ms": _latencies,
    "mean_latency_ms": non_negative_number,
    "p95_latency_ms": non_negative_number,
    "p99_latency_ms": non_negative_number,
    "metrics": _optional(_metrics),
    "config": _optional(lambda value, key: CascadeConfig.from_dict(value)),
}


class RunReport(NamedTuple):
    sample_count: int
    path_counts: dict[str, int]
    stage_counts: dict[str, int]
    total_energy_wh: float
    total_current_mah: float | None
    latencies_ms: list[float]
    mean_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    metrics: MacroMetrics | None = None
    config: CascadeConfig | None = None

    def to_dict(self) -> dict:
        obj = {k: v.copy() if isinstance(v, (dict, list)) else v for k, v in self._asdict().items()}
        return obj | {"metrics": None if self.metrics is None else self.metrics._asdict(),
                      "config": None if self.config is None else self.config.to_dict()}

    def _check_consistent(self) -> None:
        """The fields agree the way ``aggregate`` writes them."""
        n = self.sample_count
        if len(self.latencies_ms) != n:
            raise DataError(f"latencies_ms has {len(self.latencies_ms)} entries, sample_count is {n}")
        if set(self.path_counts) != set(PATHS) or sum(self.path_counts.values()) != n:
            raise DataError(f"path_counts must count each of {', '.join(PATHS)} and sum to {n}")
        if set(self.stage_counts) != set(STAGES):
            raise DataError(f"stage_counts must count each of {', '.join(STAGES)}")
        for name, percentile in (("p95_latency_ms", 95), ("p99_latency_ms", 99)):
            if getattr(self, name) != nearest_rank(self.latencies_ms, percentile):
                raise DataError(f"{name} is not the nearest-rank p{percentile} of latencies_ms")

    @classmethod
    def from_dict(cls, obj: dict) -> "RunReport":
        """Read a report back; a missing, ill-typed or inconsistent field is a DataError."""
        try:
            report = cls(*(read(obj[key], key) for key, read in _REPORT_READERS.items()))
            report._check_consistent()
            return report
        except KeyError as exc:
            raise DataError(f"malformed run report: missing key {exc.args[0]}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed run report: {exc}") from None


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Value at 1-based index ceil(percentile * n / 100) of the sorted list."""
    if not values:
        raise DataError("no values for percentile")
    if not 0 < percentile <= 100:
        raise DataError(f"percentile {percentile} outside (0, 100]")
    return _ranked(sorted(values), percentile)


def _ranked(ordered: list[float], percentile: float) -> float:
    return ordered[math.ceil(percentile * len(ordered) / 100) - 1]


_KNOWN_STAGES = frozenset(STAGES)


def aggregate(
    traces: Traces | Sequence[StageTrace],
    costs: CostProfile,
    config: CascadeConfig | None = None,
) -> RunReport:
    """Sum a batch's traces into a RunReport against one cost profile; a list
    of rows is read through ``Traces.from_rows``. The first trace, in order,
    with an unknown path or stage is named."""
    if not isinstance(traces, Traces):
        traces = Traces.from_rows(traces)
    if not traces:
        raise DataError("no traces to aggregate")
    for stage in STAGES:
        if stage not in costs.stages:
            raise DataError(f"cost profile missing stage {stage!r}")
    paths = Counter(traces.path)
    stage_tuples = Counter(traces.stages)  # each distinct stages tuple, with its count
    if paths.keys() - PATHS or not _KNOWN_STAGES.issuperset(chain.from_iterable(stage_tuples)):
        for path, stages, sample_id in zip(traces.path, traces.stages, traces.sample_id):
            if path not in PATHS:
                raise DataError(f"unknown path {path!r} in trace {sample_id!r}")
            for stage in stages:
                if stage not in _KNOWN_STAGES:
                    raise DataError(f"unknown stage {stage!r} in trace {sample_id!r}")
    stage_counts = {s: 0 for s in STAGES}
    stage_latency: dict[tuple[str, ...], float] = {}  # per distinct stages tuple
    for stages, count in stage_tuples.items():
        latency = 0.0
        for stage in stages:
            stage_counts[stage] += count
            latency += costs.latency(stage)
        stage_latency[stages] = latency
    latencies = list(map(stage_latency.__getitem__, traces.stages))
    ordered = sorted(latencies)
    total_energy = add_in_order(count * costs.energy(s) for s, count in stage_counts.items())
    currents = [costs.stages[s].current_mah for s in STAGES]
    total_current = None
    if all(c is not None for c in currents):
        total_current = add_in_order(count * costs.stages[s].current_mah for s, count in stage_counts.items())
    metrics = None
    if None not in traces.label:
        metrics = macro_metrics(traces.label, traces.predicted)
    return RunReport(
        sample_count=len(traces),
        path_counts={p: paths[p] for p in PATHS},
        stage_counts=stage_counts,
        total_energy_wh=total_energy,
        total_current_mah=total_current,
        latencies_ms=latencies,
        mean_latency_ms=add_in_order(latencies) / len(latencies),
        p95_latency_ms=_ranked(ordered, 95),
        p99_latency_ms=_ranked(ordered, 99),
        metrics=metrics,
        config=config,
    )


class Reduction(NamedTuple):
    """Percentage reductions of a candidate run against a baseline; None for a zero latency baseline."""

    energy_pct: float
    mean_latency_pct: float | None
    p95_latency_pct: float | None
    p99_latency_pct: float | None


def compare(baseline: RunReport, candidate: RunReport) -> Reduction:
    """100 * (base - cand) / base per quantity; negative means the candidate is worse."""
    if baseline.sample_count != candidate.sample_count:
        raise DataError(
            f"sample counts differ: {baseline.sample_count} vs {candidate.sample_count}"
        )
    if baseline.total_energy_wh == 0:
        raise DataError("baseline energy is zero")

    def pct(base: float, cand: float, what: str) -> float | None:
        if base == 0:  # an energy-only cost profile prices every latency at 0
            return None
        reduction = 100.0 * (base - cand) / base
        if not math.isfinite(reduction):
            raise DataError(f"{what} reduction is not finite (baseline {base!r}, candidate {cand!r})")
        return reduction

    return Reduction(
        energy_pct=pct(baseline.total_energy_wh, candidate.total_energy_wh, "energy"),
        mean_latency_pct=pct(baseline.mean_latency_ms, candidate.mean_latency_ms, "mean latency"),
        p95_latency_pct=pct(baseline.p95_latency_ms, candidate.p95_latency_ms, "p95 latency"),
        p99_latency_pct=pct(baseline.p99_latency_ms, candidate.p99_latency_ms, "p99 latency"),
    )


# draws one of TRANSFORMS per duplicate from the seeded rng
RANDOM_TRANSFORM = "random_of_these"


class DuplicationCurve(NamedTuple):
    """Energy/hit trajectory of one engine across duplication ratios."""

    engine_name: str
    points: list[tuple[float, float, int]]  # (ratio, total energy Wh, memory hits)


def _duplicate(sample: SampleRef, transform_name: str, rng: random.Random) -> SampleRef:
    from .images import TRANSFORMS

    if transform_name == RANDOM_TRANSFORM:
        transform_name = rng.choice(list(TRANSFORMS))
    if sample.image is None:
        if transform_name == "identity":
            return sample
        raise DataError(f"transform {transform_name!r} requires images")
    transformed = TRANSFORMS[transform_name](sample.image)
    return SampleRef(sample.id, transformed, sample.label)


def build_duplicated_stream(
    samples: Sequence[SampleRef],
    ratio: float,
    transform_name: str,
    rng: random.Random,
) -> list[SampleRef]:
    """Originals in order, with the duplicate of sample i at position 2i+1
    while duplicates remain; floor(ratio * N) duplicates total."""
    from .images import TRANSFORMS

    if not 0.0 <= ratio <= 1.0:
        raise DataError(f"duplication ratio {ratio} outside [0, 1]")
    if transform_name not in TRANSFORMS and transform_name != RANDOM_TRANSFORM:
        raise DataError(f"unknown transform {transform_name!r}")
    ndup = math.floor(ratio * len(samples))
    stream: list[SampleRef] = []
    for i, sample in enumerate(samples):
        stream.append(sample)
        if i < ndup:
            stream.append(_duplicate(sample, transform_name, rng))
    return stream


def duplication_experiment(
    samples: Sequence[SampleRef],
    ratios: Sequence[float],
    transform_name: str,
    engines: Sequence[tuple[str, Callable[[], CascadeEngine]]],
    costs: CostProfile,
    seed: int = 0,
) -> list[DuplicationCurve]:
    """Run every engine over the same duplicated streams, one per ratio.

    Each factory is called once. Its engine's label memory is emptied before
    every ratio, so each ratio starts cold, while the fingerprints it has
    computed carry over: each distinct image is hashed once per engine.
    Streams are built once per ratio and shared across engines for a fair
    comparison; the seed only matters for transform "random_of_these".
    """
    if not samples:
        raise DataError("no samples")
    if not ratios:
        raise DataError("no ratios")
    ordered_ratios = sorted(ratios)
    rng = random.Random(seed)
    streams = [build_duplicated_stream(samples, r, transform_name, rng) for r in ordered_ratios]
    curves = []
    for name, factory in engines:
        engine = factory()
        points = []
        for ratio, stream in zip(ordered_ratios, streams):
            engine.clear_memory()
            traces, _ = run_batch(engine, stream)
            report = aggregate(traces, costs)
            points.append((ratio, report.total_energy_wh, report.path_counts[PATH_MEMORY_HIT]))
        curves.append(DuplicationCurve(name, points))
    return curves


def format_report_json(report: RunReport) -> str:
    # indent=2 encodes in Python, so the latencies go through the C encoder, laid out as it lays top-level keys
    text = json.dumps(report._replace(latencies_ms=[]).to_dict(), indent=2) + "\n"
    if report.latencies_ms:
        latencies = json.dumps(report.latencies_ms)[1:-1].replace(", ", ",\n    ")
        text = text.replace('\n  "latencies_ms": []', f'\n  "latencies_ms": [\n    {latencies}\n  ]')
    return text


def load_report(path: str) -> RunReport:
    return read_parsed(path, "report", lambda data: RunReport.from_dict(parse_json(data, "report")))


def format_report_csv(report: RunReport) -> str:
    """One-row summary for spreadsheet comparison."""
    columns = ("total_energy_wh", "mean_latency_ms", "p95_latency_ms", "p99_latency_ms")
    numbers = [repr(getattr(report, name)) for name in columns]
    accuracy = "" if report.metrics is None else repr(report.metrics.accuracy)
    counts = [str(report.path_counts.get(path, 0)) for path in PATHS]
    header = ["samples", *columns, "accuracy", *PATHS]
    row = [str(report.sample_count), *numbers, accuracy, *counts]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def format_curves_csv(curves: Sequence[DuplicationCurve]) -> str:
    lines = ["ratio,engine,total_energy_wh,hits"]
    for curve in curves:
        for ratio, energy, hits in curve.points:
            lines.append(f"{ratio!r},{curve.engine_name},{energy!r},{hits}")
    return "\n".join(lines) + "\n"
