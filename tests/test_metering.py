from __future__ import annotations

import csv
import inspect
import json
import math
import random
import re

import pytest

from cascadekit.calibration import _CONFIG_READERS, CascadeConfig
from cascadekit.confidence import ScoreFunction
from cascadekit.engine import (
    PATH_MEMORY_HIT,
    PATH_MODEL_A_ONLY,
    PATH_MODEL_AB,
    CascadeEngine,
    ReplayClassifier,
    SampleRef,
    StageTrace,
    Traces,
    run_batch,
)
from cascadekit.errors import DataError
from cascadekit.images import TRANSFORMS, rotate90
from cascadekit.metering import (
    _REPORT_READERS,
    DuplicationCurve,
    RunReport,
    aggregate,
    build_duplicated_stream,
    compare,
    duplication_experiment,
    format_curves_csv,
    format_report_csv,
    format_report_json,
    load_report,
    nearest_rank,
)
from cascadekit.phash import dhash_fingerprint
from cascadekit.records import CostProfile, RecordTable, StageCost
from cascadekit.synthetic import synthetic_image

DIFF = ScoreFunction.DIFFERENCE


def _costs(lookup=0.001, insert=0.001, a=0.1, b=0.2, current=None) -> CostProfile:
    return CostProfile(
        {
            "memory_lookup": StageCost(lookup, 1.0, current),
            "memory_insert": StageCost(insert, 1.0, current),
            "model_a": StageCost(a, 10.0, current),
            "model_b": StageCost(b, 20.0, current),
        }
    )


def _trace(stages, sample_id="s0", path=PATH_MODEL_A_ONLY, predicted=0, label=0):
    score_a = None if path == PATH_MEMORY_HIT else 0.5
    return StageTrace(
        sample_id=sample_id,
        path=path,
        chosen="memory" if path == PATH_MEMORY_HIT else "a",
        predicted=predicted,
        label=label,
        score_a=score_a,
        score_b=None,
        stages=tuple(stages),
    )


def _samples(count: int, with_images=True) -> list[SampleRef]:
    return [
        SampleRef(
            f"d{i}",
            image=synthetic_image(12, 12, seed=40 + i) if with_images else None,
            label=0,
        )
        for i in range(count)
    ]


def _engine_factory(count: int, memory: str):
    records = RecordTable([f"d{i}" for i in range(count)], [0] * count, [(5.0, 0.0, 0.0)] * count)

    def factory() -> CascadeEngine:
        config = CascadeConfig("model_a", "model_b", DIFF, 0.0, True, memory)
        return CascadeEngine(
            config,
            ReplayClassifier("model_a", records),
            ReplayClassifier("model_b", records),
        )

    return factory


class TestCostOf:
    """The cost of one trace: aggregate adds its stage latencies left to right."""

    def test_single_stage(self):
        report = aggregate(Traces.from_rows([_trace(["model_a"])]), _costs())
        assert report.latencies_ms == [10.0]
        assert report.total_energy_wh == 0.1

    def test_memory_hit(self):
        trace = _trace(["memory_lookup"], path=PATH_MEMORY_HIT)
        report = aggregate(Traces.from_rows([trace]), _costs())
        assert report.latencies_ms == [1.0]
        assert report.total_energy_wh == 0.001

    def test_full_path(self):
        trace = _trace(
            ["memory_lookup", "model_a", "model_b", "memory_insert"],
            path=PATH_MODEL_AB,
        )
        report = aggregate(Traces.from_rows([trace]), _costs())
        assert report.total_energy_wh == pytest.approx(0.302)
        assert report.latencies_ms == [32.0]

    def test_unknown_stage(self):
        with pytest.raises(DataError, match="unknown stage 'model_c' in trace 's0'"):
            aggregate(Traces.from_rows([_trace(["model_a", "model_c"])]), _costs())


class TestNearestRank:
    def test_spec_percentiles_on_1_to_100(self):
        values = [float(v) for v in range(1, 101)]
        random.Random(1).shuffle(values)
        assert nearest_rank(values, 95) == 95.0
        assert nearest_rank(values, 99) == 99.0
        assert nearest_rank(values, 50) == 50.0
        assert nearest_rank(values, 100) == 100.0

    def test_rank_rounds_up(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(values, 50) == 2.0
        assert nearest_rank(values, 51) == 3.0
        assert nearest_rank(values, 1) == 1.0

    def test_single_value(self):
        assert nearest_rank([7.5], 95) == 7.5
        assert nearest_rank([7.5], 1) == 7.5

    def test_all_equal(self):
        assert nearest_rank([3.0] * 10, 99) == 3.0

    def test_bounds(self):
        with pytest.raises(DataError, match="no values"):
            nearest_rank([], 95)
        for bad in (0, -5, 101):
            with pytest.raises(DataError, match="outside"):
                nearest_rank([1.0], bad)


class TestAggregate:
    def test_counts_first_beats_per_sample_rounding(self):
        traces = [_trace(["model_a"], sample_id=f"s{i}") for i in range(10)]
        report = aggregate(Traces.from_rows(traces), _costs())
        assert report.total_energy_wh == 10 * 0.1
        running = 0.0
        for _ in range(10):
            running += 0.1
        assert running != 10 * 0.1  # the error this design avoids

    def test_stage_and_path_counts(self):
        traces = [
            _trace(["memory_lookup"], "s0", PATH_MEMORY_HIT),
            _trace(["memory_lookup", "model_a", "memory_insert"], "s1"),
            _trace(
                ["memory_lookup", "model_a", "model_b", "memory_insert"],
                "s2",
                PATH_MODEL_AB,
            ),
        ]
        report = aggregate(Traces.from_rows(traces), _costs())
        assert report.sample_count == 3
        assert report.path_counts == {
            PATH_MEMORY_HIT: 1, PATH_MODEL_A_ONLY: 1, PATH_MODEL_AB: 1,
        }
        assert report.stage_counts == {
            "memory_lookup": 3, "memory_insert": 2, "model_a": 2, "model_b": 1,
        }

    def test_latency_stats(self):
        traces = [
            _trace(["model_a"], "s0"),
            _trace(["model_a", "model_b"], "s1", PATH_MODEL_AB),
        ]
        report = aggregate(Traces.from_rows(traces), _costs())
        assert report.latencies_ms == [10.0, 30.0]
        assert report.mean_latency_ms == 20.0
        assert report.p95_latency_ms == 30.0
        assert report.p99_latency_ms == 30.0

    def test_current_requires_every_stage(self):
        traces = Traces.from_rows([_trace(["model_a"])])
        assert aggregate(traces, _costs(current=2.0)).total_current_mah == 2.0
        costs = CostProfile({**_costs(current=2.0).stages, "model_b": StageCost(0.2, 20.0, None)})
        assert aggregate(traces, costs).total_current_mah is None

    def test_metrics_gating(self):
        labeled = [_trace(["model_a"], "s0", predicted=0, label=0)]
        assert aggregate(Traces.from_rows(labeled), _costs()).metrics is not None
        unlabeled = [
            StageTrace("s0", PATH_MODEL_A_ONLY, "a", 0, None, 0.5, None, ("model_a",))
        ]
        assert aggregate(Traces.from_rows(unlabeled), _costs()).metrics is None

    def test_config_is_echoed(self):
        config = CascadeConfig("model_a", "model_b", DIFF, 0.5, True, "none")
        report = aggregate(Traces.from_rows([_trace(["model_a"])]), _costs(), config=config)
        assert report.config == config

    def test_incomplete_profile(self):
        with pytest.raises(DataError, match=r"^missing stage\(s\) in cost profile: memory_insert, memory_lookup, model_b$"):
            CostProfile({"model_a": StageCost(0.1, 1.0)})

    def test_no_traces(self):
        with pytest.raises(DataError, match="no traces"):
            aggregate(Traces.from_rows([]), _costs())


class TestCompare:
    def _report(self, energy, mean, p95=None, p99=None, count=10) -> RunReport:
        p95 = mean if p95 is None else p95
        p99 = p95 if p99 is None else p99
        return RunReport(
            sample_count=count,
            path_counts={p: 0 for p in (PATH_MEMORY_HIT, PATH_MODEL_A_ONLY, PATH_MODEL_AB)},
            stage_counts={},
            total_energy_wh=energy,
            total_current_mah=None,
            latencies_ms=[mean] * count,
            mean_latency_ms=mean,
            p95_latency_ms=p95,
            p99_latency_ms=p99,
        )

    def test_identical_runs_reduce_nothing(self):
        r = self._report(1.0, 10.0)
        red = compare(r, self._report(1.0, 10.0))
        assert red.energy_pct == 0.0
        assert red.mean_latency_pct == 0.0

    def test_halved_energy_is_fifty_percent(self):
        red = compare(self._report(2.0, 40.0), self._report(1.0, 10.0))
        assert red.energy_pct == 50.0
        assert red.mean_latency_pct == 75.0

    def test_worse_candidate_goes_negative(self):
        red = compare(self._report(1.0, 10.0), self._report(1.5, 10.0))
        assert red.energy_pct == -50.0

    def test_zero_baseline(self):
        with pytest.raises(DataError, match="baseline energy is zero"):
            compare(self._report(0.0, 10.0), self._report(1.0, 10.0))

    def test_zero_latency_baseline_has_no_latency_reduction(self):
        red = compare(self._report(2.0, 0.0), self._report(1.0, 5.0))
        assert red.energy_pct == 50.0
        assert (red.mean_latency_pct, red.p95_latency_pct, red.p99_latency_pct) == (None, None, None)
        with pytest.raises(DataError, match="baseline energy is zero"):
            compare(self._report(0.0, 0.0), self._report(1.0, 0.0))

    def test_sample_count_mismatch(self):
        with pytest.raises(DataError, match="sample counts differ: 10 vs 3"):
            compare(self._report(1.0, 10.0), self._report(1.0, 10.0, count=3))

    @pytest.mark.parametrize("base", [5e-324, 1e-308], ids=["subnormal", "tiny_normal"])
    def test_non_finite_reduction(self, base):
        with pytest.raises(DataError, match="^energy reduction is not finite"):
            compare(self._report(base, 10.0), self._report(1e10, 10.0))


class TestMemoryOverhead:
    def _run(self, memory: str, costs: CostProfile) -> RunReport:
        factory = _engine_factory(4, memory)
        traces, _ = run_batch(factory(), _samples(4))
        return aggregate(traces, costs)

    def test_free_memory_stages_cost_nothing(self):
        costs = _costs(lookup=0.0, insert=0.0)
        plain = self._run("none", costs)
        mem = self._run("dhash", costs)
        assert -compare(plain, mem).energy_pct == 0.0

    def test_priced_memory_stages_show_up(self):
        costs = _costs(lookup=0.001, insert=0.001)
        plain = self._run("none", costs)
        mem = self._run("dhash", costs)
        # 4 lookups + 4 inserts on top of 4 model_a calls
        assert -compare(plain, mem).energy_pct == pytest.approx(100 * 0.008 / 0.4)

    def test_hits_can_pay_for_the_overhead(self):
        costs = _costs()
        factory = _engine_factory(4, "dhash")
        stream = build_duplicated_stream(_samples(4), 1.0, "identity", random.Random(0))
        traces, _ = run_batch(factory(), stream)
        mem = aggregate(traces, costs)
        plain_traces, _ = run_batch(_engine_factory(4, "none")(), stream)
        plain = aggregate(plain_traces, costs)
        assert -compare(plain, mem).energy_pct < 0


class TestDuplicatedStream:
    def test_ratio_zero_is_the_original_order(self):
        samples = _samples(4, with_images=False)
        stream = build_duplicated_stream(samples, 0.0, "identity", random.Random(0))
        assert stream == samples

    def test_full_ratio_interleaves_pairs(self):
        samples = _samples(3)
        stream = build_duplicated_stream(samples, 1.0, "identity", random.Random(0))
        assert [s.id for s in stream] == ["d0", "d0", "d1", "d1", "d2", "d2"]

    def test_duplicate_count_is_floored(self):
        samples = _samples(4, with_images=False)
        stream = build_duplicated_stream(samples, 0.49, "identity", random.Random(0))
        assert [s.id for s in stream] == ["d0", "d0", "d1", "d2", "d3"]
        stream = build_duplicated_stream(samples, 0.5, "identity", random.Random(0))
        assert [s.id for s in stream] == ["d0", "d0", "d1", "d1", "d2", "d3"]

    def test_identity_duplicate_without_image_is_same_ref(self):
        samples = _samples(2, with_images=False)
        stream = build_duplicated_stream(samples, 1.0, "identity", random.Random(0))
        assert stream[1] is samples[0]

    def test_transform_applies_to_the_duplicate_only(self):
        samples = _samples(1)
        stream = build_duplicated_stream(samples, 1.0, "rot90", random.Random(0))
        assert stream[0].image == samples[0].image
        assert stream[1].image != samples[0].image
        assert stream[1].id == samples[0].id
        assert stream[1].image.width == samples[0].image.height

    def test_transform_without_image(self):
        samples = _samples(2, with_images=False)
        with pytest.raises(DataError, match="requires images"):
            build_duplicated_stream(samples, 1.0, "rot90", random.Random(0))

    def test_random_choice_is_seeded(self):
        samples = _samples(5)
        one = build_duplicated_stream(samples, 1.0, "random_of_these", random.Random(9))
        two = build_duplicated_stream(samples, 1.0, "random_of_these", random.Random(9))
        assert [s.image.pixels for s in one] == [s.image.pixels for s in two]

    def test_random_choice_draws_in_registry_order(self):
        # the transform order of earlier releases; seeded streams must not move
        names = ("identity", "rot90", "rot180", "mirror_h", "mirror_v")
        samples = _samples(30)
        stream = build_duplicated_stream(samples, 1.0, "random_of_these", random.Random(0))
        rng = random.Random(0)
        expected = [TRANSFORMS[rng.choice(names)](s.image) for s in samples]
        assert [s.image for s in stream[1::2]] == expected

    def test_bad_inputs(self):
        samples = _samples(2, with_images=False)
        with pytest.raises(DataError, match="outside"):
            build_duplicated_stream(samples, 1.2, "identity", random.Random(0))
        with pytest.raises(DataError, match="unknown transform 'blur'"):
            build_duplicated_stream(samples, 0.5, "blur", random.Random(0))


class TestDuplicationExperiment:
    def test_plain_engine_scales_linearly(self):
        count = 8
        curves = duplication_experiment(
            _samples(count),
            [0.0, 0.5, 1.0],
            "identity",
            [("plain", _engine_factory(count, "none"))],
            _costs(),
        )
        [curve] = curves
        energies = {ratio: e for ratio, e, _ in curve.points}
        assert all(hits == 0 for _, _, hits in curve.points)
        assert energies[0.0] == count * 0.1
        assert energies[0.5] == (count + count // 2) * 0.1
        assert energies[1.0] == 2 * count * 0.1

    def test_memory_engine_hits_every_duplicate(self):
        count = 6
        curves = duplication_experiment(
            _samples(count),
            [0.0, 0.5, 1.0],
            "identity",
            [("memo", _engine_factory(count, "dhash"))],
            _costs(),
        )
        [curve] = curves
        for ratio, energy, hits in curve.points:
            ndup = math.floor(ratio * count)
            assert hits == ndup
            expected = (
                (count + ndup) * 0.001   # lookups
                + count * 0.001          # inserts, misses only
                + count * 0.1            # model A, misses only
            )
            assert energy == pytest.approx(expected)

    def test_each_ratio_starts_cold(self):
        count = 4
        curves = duplication_experiment(
            _samples(count),
            [1.0, 0.0],  # deliberately unsorted
            "identity",
            [("memo", _engine_factory(count, "dhash"))],
            _costs(),
        )
        [curve] = curves
        assert [ratio for ratio, _, _ in curve.points] == [0.0, 1.0]
        assert curve.points[0][2] == 0
        assert curve.points[1][2] == count

    def test_moments_survive_rotation_dhash_does_not(self):
        count = 3
        samples = _samples(count)
        for s in samples:
            assert dhash_fingerprint(rotate90(s.image)) != dhash_fingerprint(s.image)
        curves = duplication_experiment(
            samples,
            [1.0],
            "rot90",
            [
                ("dhash", _engine_factory(count, "dhash")),
                ("moments", _engine_factory(count, "moments")),
            ],
            _costs(),
        )
        by_name = {c.engine_name: c.points[0][2] for c in curves}
        assert by_name["moments"] == count
        assert by_name["dhash"] == 0

    def test_errors(self):
        with pytest.raises(DataError, match="no samples"):
            duplication_experiment([], [0.5], "identity", [], _costs())
        with pytest.raises(DataError, match="no ratios"):
            duplication_experiment(_samples(1), [], "identity", [], _costs())


def test_each_reader_table_lists_its_types_fields_in_order():
    assert tuple(_REPORT_READERS) == RunReport._fields
    config = CascadeConfig("model_a", "model_b", DIFF, 0.5, True)
    assert tuple(_CONFIG_READERS) == tuple(config.to_dict())
    # to_dict pairs the table with vars(config), which __init__ fills in its argument order
    arguments = list(inspect.signature(CascadeConfig).parameters)
    assert list(vars(config)) == arguments
    assert list(_CONFIG_READERS) == ["lambda" if name == "threshold" else name for name in arguments]


class TestReportSerialization:
    def _report(self, metrics=True, config=True, current=None) -> RunReport:
        label = 0 if metrics else None  # unlabelled traces give no metrics
        traces = [
            _trace(["model_a"], "s0", predicted=0, label=label),
            _trace(["model_a", "model_b"], "s1", PATH_MODEL_AB, predicted=1, label=label),
        ]
        config = CascadeConfig("model_a", "model_b", DIFF, 0.62, True, "none") if config else None
        return aggregate(Traces.from_rows(traces), _costs(current=current), config=config)

    @pytest.mark.parametrize("current", [0.25, None], ids=["current", "no_current"])
    @pytest.mark.parametrize("config", [True, False], ids=["config", "no_config"])
    @pytest.mark.parametrize("metrics", [True, False], ids=["metrics", "no_metrics"])
    def test_json_round_trip(self, tmp_path, metrics, config, current):
        report = self._report(metrics, config, current)
        present = report.metrics is not None, report.config is not None, report.total_current_mah is not None
        assert present == (metrics, config, current is not None)
        path = tmp_path / "report.json"
        path.write_text(format_report_json(report))
        loaded = load_report(str(path))
        assert loaded == report
        assert format_report_json(loaded).encode() == path.read_bytes()

    def test_to_dict_containers_are_copies(self):
        report = self._report()
        obj = report.to_dict()
        obj["path_counts"]["model_ab"] = 9
        obj["stage_counts"].clear()
        obj["latencies_ms"].append(1.0)
        obj["metrics"]["accuracy"] = 0.0
        obj["config"]["lambda"] = 0.0
        assert report == self._report()

    def test_json_shape(self):
        obj = json.loads(format_report_json(self._report()))
        assert obj["sample_count"] == 2
        assert obj["config"]["lambda"] == 0.62
        assert obj["metrics"]["accuracy"] == 0.5
        assert obj["stage_counts"]["model_b"] == 1

    def test_from_dict_malformed(self):
        with pytest.raises(DataError, match="malformed run report"):
            RunReport.from_dict({"sample_count": 1})
        obj = self._report().to_dict()
        obj["latencies_ms"] = "fast"
        with pytest.raises(DataError, match="malformed run report"):
            RunReport.from_dict(obj)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sample_count", True, "sample_count must be an integer >= 0"),
            ("sample_count", 2.0, "sample_count must be an integer >= 0"),
            ("sample_count", -1, "sample_count must be an integer >= 0"),
            ("path_counts", [], "path_counts must be an object"),
            ("stage_counts", "model_a", "stage_counts must be an object"),
            ("path_counts", {"model_a_only": 1.5}, "path_counts model_a_only must be an integer"),
            ("stage_counts", {"model_b": None}, "stage_counts model_b must be an integer"),
            ("total_energy_wh", 10**400, "total_energy_wh is out of float range"),
            ("total_energy_wh", math.nan, "total_energy_wh must be finite"),
            ("total_energy_wh", "0.5", "total_energy_wh must be a number"),
            ("mean_latency_ms", math.inf, "mean_latency_ms must be finite"),
            ("p95_latency_ms", -1.0, "p95_latency_ms must be >= 0"),
            ("p99_latency_ms", True, "p99_latency_ms must be a number"),
            ("total_current_mah", "1", "total_current_mah must be a number"),
            ("latencies_ms", {"s0": 1.0}, "latencies_ms must be an array"),
            ("latencies_ms", [1.0, math.nan], "latencies_ms entry must be finite"),
            ("metrics", [], "list indices"),
            ("metrics", {"accuracy": math.nan, "precision": 0, "recall": 0, "f1": 0}, "accuracy"),
        ],
        ids=[
            "bool_count", "float_count", "negative_count", "list_path_counts", "str_stage_counts",
            "float_path_count", "null_stage_count", "huge_energy", "nan_energy", "str_energy",
            "inf_latency", "negative_p95", "bool_p99", "str_current", "object_latencies",
            "nan_latency", "list_metrics", "nan_accuracy",
        ],
    )
    def test_from_dict_rejects_ill_typed_fields(self, key, value, message):
        obj = self._report().to_dict()
        obj[key] = value
        with pytest.raises(DataError, match=f"^malformed run report: .*{message}"):
            RunReport.from_dict(obj)

    @pytest.mark.parametrize("path", ["sample_count", "latencies_ms", "metrics", "metrics.precision"])
    def test_from_dict_names_a_missing_key(self, path):
        obj = self._report().to_dict()
        *within, key = path.split(".")
        del (obj[within[0]] if within else obj)[key]
        with pytest.raises(DataError, match=f"^malformed run report: missing key {re.escape(path)}$"):
            RunReport.from_dict(obj)

    def test_from_dict_checks_the_config(self):
        obj = self._report().to_dict()
        obj["config"]["first_model"] = None
        with pytest.raises(DataError, match="^malformed run report: first_model must be a string$"):
            RunReport.from_dict(obj)

    def test_from_dict_reads_counts_and_numbers_exactly(self):
        obj = self._report().to_dict()
        obj["total_energy_wh"] = 1
        report = RunReport.from_dict(obj)
        assert repr(report.total_energy_wh) == "1.0"
        assert report.sample_count == 2 and type(report.sample_count) is int
        assert RunReport.from_dict(self._report().to_dict()) == self._report()

    def test_from_dict_rejects_figures_no_run_produces(self):
        obj = self._report().to_dict()
        obj.update(
            sample_count=5, latencies_ms=[], mean_latency_ms=3.0, p99_latency_ms=0.5,
            path_counts={"bogus": 9},
        )
        with pytest.raises(DataError, match="^malformed run report: latencies_ms has 0 entries"):
            RunReport.from_dict(obj)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sample_count", 3, "latencies_ms has 2 entries, sample_count is 3"),
            ("latencies_ms", [10.0], "latencies_ms has 1 entries, sample_count is 2"),
            ("path_counts", {"memory_hit": 0, "model_a_only": 1, "model_ab": 1, "bogus": 0},
             "path_counts must count each of"),
            ("path_counts", {"model_a_only": 1, "model_ab": 1}, "path_counts must count each of"),
            ("path_counts", {"memory_hit": 0, "model_a_only": 2, "model_ab": 1},
             "path_counts .* and sum to 2"),
            ("stage_counts", {"model_a": 2, "model_b": 1}, "stage_counts must count each of"),
            ("stage_counts", {"memory_lookup": 0, "memory_insert": 0, "model_a": 2, "model_b": 1,
                              "model_c": 0}, "stage_counts must count each of"),
            ("mean_latency_ms", 30.0, "mean_latency_ms is not the mean of latencies_ms"),
            ("p95_latency_ms", 10.0, "p95_latency_ms is not the nearest-rank p95 of latencies_ms"),
            ("p99_latency_ms", 31.0, "p99_latency_ms is not the nearest-rank p99 of latencies_ms"),
        ],
        ids=[
            "more_samples", "fewer_latencies", "extra_path", "missing_path", "path_sum",
            "missing_stages", "extra_stage", "mean", "p95", "p99",
        ],
    )
    def test_from_dict_rejects_inconsistent_fields(self, key, value, message):
        obj = self._report().to_dict()
        obj[key] = value
        with pytest.raises(DataError, match=f"^malformed run report: {message}"):
            RunReport.from_dict(obj)

    def test_from_dict_checks_the_mean_to_the_last_bit(self):
        obj = self._report().to_dict()
        obj["mean_latency_ms"] = math.nextafter(obj["mean_latency_ms"], math.inf)
        with pytest.raises(DataError, match="^malformed run report: mean_latency_ms is not the mean of latencies_ms$"):
            RunReport.from_dict(obj)

    def test_from_dict_rejects_an_empty_report(self):
        obj = self._report().to_dict()
        obj.update(sample_count=0, latencies_ms=[], path_counts=dict.fromkeys(obj["path_counts"], 0))
        with pytest.raises(DataError, match="^malformed run report: no values for percentile$"):
            RunReport.from_dict(obj)

    def test_from_dict_does_not_bound_the_mean_by_the_latencies(self):
        # a float mean can round above equal latencies
        traces = [_trace(["memory_lookup"], f"s{i}", PATH_MEMORY_HIT) for i in range(3)]
        report = aggregate(Traces.from_rows(traces), _costs())
        obj = report.to_dict()
        obj["latencies_ms"] = [0.1] * 3
        obj.update(mean_latency_ms=sum(obj["latencies_ms"]) / 3, p95_latency_ms=0.1, p99_latency_ms=0.1)
        assert obj["mean_latency_ms"] > 0.1
        assert RunReport.from_dict(obj).mean_latency_ms == obj["mean_latency_ms"]

    def test_from_dict_rejects_non_objects(self):
        for bad in ([], None, "report", 3):
            with pytest.raises(DataError, match="malformed run report"):
                RunReport.from_dict(bad)

    def test_load_errors(self, tmp_path):
        with pytest.raises(DataError, match="cannot read report"):
            load_report(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        with pytest.raises(DataError, match="invalid report JSON"):
            load_report(str(bad))

    def test_csv_row(self):
        text = format_report_csv(self._report())
        lines = text.splitlines()
        assert lines[0] == (
            "samples,total_energy_wh,mean_latency_ms,p95_latency_ms,p99_latency_ms,"
            "accuracy,memory_hit,model_a_only,model_ab"
        )
        cells = lines[1].split(",")
        assert cells[0] == "2"
        assert float(cells[1]) == pytest.approx(0.4)
        assert cells[5] == "0.5"
        assert cells[6:] == ["0", "1", "1"]

    def test_csv_blank_accuracy_without_metrics(self):
        report = aggregate(Traces.from_rows([_trace(["model_a"], label=None)]), _costs())
        cells = format_report_csv(report).splitlines()[1].split(",")
        assert cells[5] == ""

    def test_curves_csv(self):
        curves = [
            DuplicationCurve("plain", [(0.0, 0.5, 0), (1.0, 1.0, 0)]),
            DuplicationCurve("memo", [(0.0, 0.5, 0), (1.0, 0.6, 4)]),
            DuplicationCurve('a,"b"', [(0.0, 1.0, 0)]),
        ]
        text = format_curves_csv(curves)
        lines = text.splitlines()
        assert lines[0] == "ratio,engine,total_energy_wh,hits"
        assert lines[1] == "0.0,plain,0.5,0"
        assert lines[4] == "1.0,memo,0.6,4"
        # an engine name with a comma or a quote is one quoted field, as in the matrix CSV
        assert lines[5] == '0.0,"a,""b""",1.0,0'
        assert [len(row) for row in csv.reader(lines)] == [4] * 6
