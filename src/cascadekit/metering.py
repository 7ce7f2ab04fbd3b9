"""Energy and latency accounting over stage traces.

The cost model is linear: each executed stage contributes a fixed energy
and latency taken from a CostProfile. Totals are computed by summing raw
stage counts first and multiplying once per stage, so the grand total is
immune to per-sample rounding. Percentiles use the nearest-rank order
statistic. The duplication experiment builds each engine once and empties
its label memory before every ratio, so each ratio's stream starts cold;
that is how the memory component's flat-energy behavior shows up against
a linear baseline.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

from .calibration import CascadeConfig
from .engine import (
    PATH_MEMORY_HIT,
    PATHS,
    CascadeEngine,
    MacroMetrics,
    SampleRef,
    StageTrace,
    macro_metrics,
    run_batch,
)
from .errors import DataError, non_negative_number, parse_json, read_parsed
from .images import TRANSFORMS
from .records import STAGES, CostProfile


_REPORT_NUMBERS = ("total_energy_wh", "mean_latency_ms", "p95_latency_ms", "p99_latency_ms")


def _count(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DataError(f"{what} must be an integer >= 0")
    return value


def _counts(value: object, what: str) -> dict[str, int]:
    if not isinstance(value, dict):
        raise DataError(f"{what} must be an object")
    return {k: _count(v, f"{what} {k}") for k, v in value.items()}


@dataclass
class RunReport:
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
        return {
            "sample_count": self.sample_count,
            "path_counts": dict(self.path_counts),
            "stage_counts": dict(self.stage_counts),
            "total_energy_wh": self.total_energy_wh,
            "total_current_mah": self.total_current_mah,
            "latencies_ms": list(self.latencies_ms),
            "mean_latency_ms": self.mean_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "metrics": None if self.metrics is None else asdict(self.metrics),
            "config": self.config.to_dict() if self.config is not None else None,
        }

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
            metrics, current, latencies = obj["metrics"], obj["total_current_mah"], obj["latencies_ms"]
            if metrics is not None:
                metrics = MacroMetrics(
                    *(non_negative_number(metrics[f.name], f.name) for f in fields(MacroMetrics))
                )
            if not isinstance(latencies, list):
                raise DataError("latencies_ms must be an array")
            report = cls(
                sample_count=_count(obj["sample_count"], "sample_count"),
                path_counts=_counts(obj["path_counts"], "path_counts"),
                stage_counts=_counts(obj["stage_counts"], "stage_counts"),
                total_current_mah=(
                    None if current is None else non_negative_number(current, "total_current_mah")
                ),
                latencies_ms=[non_negative_number(v, "latencies_ms entry") for v in latencies],
                **{k: non_negative_number(obj[k], k) for k in _REPORT_NUMBERS},
                metrics=metrics,
                config=None if obj["config"] is None else CascadeConfig.from_dict(obj["config"]),
            )
            report._check_consistent()
            return report
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed run report: {exc}") from None


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Value at 1-based index ceil(percentile * n / 100) of the sorted list."""
    if not values:
        raise DataError("no values for percentile")
    if not 0 < percentile <= 100:
        raise DataError(f"percentile {percentile} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(percentile * len(ordered) / 100)
    return ordered[rank - 1]


def aggregate(
    traces: Sequence[StageTrace],
    costs: CostProfile,
    config: CascadeConfig | None = None,
) -> RunReport:
    """Sum a trace list into a RunReport against one cost profile."""
    if not traces:
        raise DataError("no traces to aggregate")
    for stage in STAGES:
        if stage not in costs.stages:
            raise DataError(f"cost profile missing stage {stage!r}")
    path_counts = {p: 0 for p in PATHS}
    stage_counts = {s: 0 for s in STAGES}
    stage_latency: dict[tuple[str, ...], float] = {}  # per distinct stages tuple, checked once
    for t in traces:
        if t.path not in path_counts:
            raise DataError(f"unknown path {t.path!r} in trace {t.sample_id!r}")
        path_counts[t.path] += 1
        if t.stages not in stage_latency:
            latency = 0.0
            for stage in t.stages:
                if stage not in stage_counts:
                    raise DataError(f"unknown stage {stage!r} in trace {t.sample_id!r}")
                latency += costs.latency(stage)
            stage_latency[t.stages] = latency
    latencies = [stage_latency[t.stages] for t in traces]
    for stages, count in Counter(t.stages for t in traces).items():
        for stage in stages:
            stage_counts[stage] += count
    total_energy = sum(count * costs.energy(s) for s, count in stage_counts.items())
    currents = [costs.stages[s].current_mah for s in STAGES]
    total_current = None
    if all(c is not None for c in currents):
        total_current = sum(count * costs.stages[s].current_mah for s, count in stage_counts.items())
    metrics = None
    if all(t.label is not None for t in traces):
        metrics = macro_metrics([t.label for t in traces], [t.predicted for t in traces])
    return RunReport(
        sample_count=len(traces),
        path_counts=path_counts,
        stage_counts=stage_counts,
        total_energy_wh=total_energy,
        total_current_mah=total_current,
        latencies_ms=latencies,
        mean_latency_ms=sum(latencies) / len(latencies),
        p95_latency_ms=nearest_rank(latencies, 95),
        p99_latency_ms=nearest_rank(latencies, 99),
        metrics=metrics,
        config=config,
    )


@dataclass(frozen=True)
class Reduction:
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


@dataclass
class DuplicationCurve:
    """Energy/hit trajectory of one engine across duplication ratios."""

    engine_name: str
    points: list[tuple[float, float, int]]  # (ratio, total energy Wh, memory hits)


def _duplicate(sample: SampleRef, transform_name: str, rng: random.Random) -> SampleRef:
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
    return json.dumps(report.to_dict(), indent=2) + "\n"


def load_report(path: str) -> RunReport:
    return read_parsed(path, "report", lambda data: RunReport.from_dict(parse_json(data, "report")))


def format_report_csv(report: RunReport) -> str:
    """One-row summary for spreadsheet comparison."""
    numbers = [repr(getattr(report, name)) for name in _REPORT_NUMBERS]
    accuracy = "" if report.metrics is None else repr(report.metrics.accuracy)
    counts = [str(report.path_counts.get(path, 0)) for path in PATHS]
    header = ["samples", *_REPORT_NUMBERS, "accuracy", *PATHS]
    row = [str(report.sample_count), *numbers, accuracy, *counts]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def format_curves_csv(curves: Sequence[DuplicationCurve]) -> str:
    lines = ["ratio,engine,total_energy_wh,hits"]
    for curve in curves:
        for ratio, energy, hits in curve.points:
            lines.append(f"{ratio!r},{curve.engine_name},{energy!r},{hits}")
    return "\n".join(lines) + "\n"
