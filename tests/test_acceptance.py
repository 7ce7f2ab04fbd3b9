"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to see
them all. The checks use independent oracles (set arithmetic, dense grid
search, exact rationals, hand arithmetic) rather than re-deriving values
from the library code under test.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time

import numpy as np
import pytest

from cascadekit import cli
from cascadekit.calibration import (
    CascadeConfig,
    accuracy_at,
    candidate_lambdas,
    find_lambda_star,
)
from cascadekit.complementarity import complementarity_of_vectors
from cascadekit.confidence import ScoreFunction, entropy_denominator, score_rows
from cascadekit.engine import CascadeEngine, ReplayClassifier, SampleRef, run_batch
from cascadekit.images import (
    ImageBuffer,
    mirror_horizontal,
    mirror_vertical,
    rotate90,
    rotate180,
    rotate270,
)
from cascadekit.metering import aggregate, build_duplicated_stream, compare, duplication_experiment, nearest_rank
from cascadekit.phash import dhash, dhash_fingerprint, moment_invariants, moments_fingerprint
from cascadekit.records import RecordTable, load_cost_profile
from cascadekit.synthetic import synthetic_image
from test_calibration_oracles import better_score, oracle_decide, oracle_score, oracle_softmax, predicted_label

MAX = ScoreFunction.MAX_PROBABILITY
DIFF = ScoreFunction.DIFFERENCE
ENTROPY = ScoreFunction.ENTROPY_NORMALIZED


def criterion(number: int, name: str):
    """Print one verdict line per criterion, visible under pytest -s."""

    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} ({name}): FAIL")
                raise
            print(f"criterion {number:02d} ({name}): PASS")

        return run

    return deco


@criterion(1, "complementarity oracle")
def test_01_complementarity_matches_set_oracle():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randrange(1, 51)
        p_a, p_b = rng.random(), rng.random()
        correct_a = [rng.random() < p_a for _ in range(n)]
        correct_b = [rng.random() < p_b for _ in range(n)]
        value = complementarity_of_vectors(correct_a, correct_b)
        set_a = {i for i, ok in enumerate(correct_a) if ok}
        set_b = {i for i, ok in enumerate(correct_b) if ok}
        expected = (
            len(set_a | set_b) - len(set_a & set_b) - abs(len(set_a) - len(set_b))
        ) / n
        assert value == expected
        assert value == complementarity_of_vectors(correct_b, correct_a)
        assert complementarity_of_vectors(correct_a, correct_a) == 0.0
        assert 0.0 <= value <= 1.0
    assert time.perf_counter() - started < 5.0


def _decision_table(paired, fn):
    """Per-sample score and both possible outcomes, independent of lambda."""
    scores, correct_pass, correct_esc = [], [], []
    for s in paired.samples:
        probs_a, probs_b = oracle_softmax(s.logits_a), oracle_softmax(s.logits_b)
        s_a, s_b = oracle_score(probs_a, fn), oracle_score(probs_b, fn)
        scores.append(s_a)
        correct_pass.append(predicted_label(probs_a) == s.label)
        chosen = better_score(s_a, s_b, fn)
        correct_esc.append(
            predicted_label(probs_a if chosen == "a" else probs_b) == s.label
        )
    return np.array(scores), np.array(correct_pass), np.array(correct_esc)


@criterion(2, "threshold search vs dense grid")
def test_02_lambda_star_equals_dense_grid_search(bundled_paired):
    started = time.perf_counter()
    n = len(bundled_paired)
    for fn in (MAX, DIFF, ENTROPY):
        scores, correct_pass, correct_esc = _decision_table(bundled_paired, fn)
        best = 0.0
        for i in range(10001):
            lam = i / 10000
            passed = scores <= lam if fn is ENTROPY else scores >= lam
            hits = np.count_nonzero(np.where(passed, correct_pass, correct_esc))
            best = max(best, int(hits) / n)
        result = find_lambda_star(bundled_paired, fn)
        assert result.accuracy == best

    standalone = sum(
        1
        for s in bundled_paired.samples
        if predicted_label(oracle_softmax(s.logits_a)) == s.label
    ) / n
    accuracy, usage = accuracy_at(bundled_paired, DIFF, 0.0, True)
    assert accuracy == standalone
    assert usage == 0.0
    assert time.perf_counter() - started < 10.0


@criterion(3, "post-check extreme and usage shape")
def test_03_post_check_helps_at_full_escalation(bundled_paired):
    for fn in (MAX, DIFF, ENTROPY):
        top = max(candidate_lambdas(bundled_paired, fn))
        assert top == 1.0
        with_check, _ = accuracy_at(bundled_paired, fn, top, True)
        without, _ = accuracy_at(bundled_paired, fn, top, False)
        assert with_check >= without
        usages = [u for _, _, u in find_lambda_star(bundled_paired, fn).curve]
        if fn is ENTROPY:
            assert all(a >= b for a, b in zip(usages, usages[1:]))
        else:
            assert all(a <= b for a, b in zip(usages, usages[1:]))
    # at lambda = 1 every Difference-scored sample escalates here
    _, usage = accuracy_at(bundled_paired, DIFF, 1.0, True)
    assert usage == 1.0


@criterion(4, "score function contracts")
def test_04_score_function_contracts():
    rng = random.Random(202)
    for _ in range(10000):
        k = rng.randrange(2, 17)
        raw = [rng.random() + 1e-9 for _ in range(k)]
        total = sum(raw)
        probs = np.array([[v / total for v in raw]])
        assert score_rows(probs, DIFF) <= score_rows(probs, MAX)

    one_hot = np.zeros((1, 10))
    one_hot[0, 3] = 1.0
    assert score_rows(one_hot, ENTROPY) == 0.0

    independent = -math.fsum(i / 10 * math.log(i / 10) for i in range(1, 11))
    assert entropy_denominator(10) == pytest.approx(independent, rel=1e-12)
    assert entropy_denominator(10) == pytest.approx(2.4559, abs=1e-3)
    uniform = np.full((1, 10), 0.1)
    assert score_rows(uniform, ENTROPY) == pytest.approx(0.9376, abs=1e-3)


@criterion(5, "moment fingerprint invariance")
def test_05_moment_invariants_survive_rotations_and_mirrors():
    started = time.perf_counter()
    rng = random.Random(303)
    rotations = (rotate90, rotate180, rotate270)
    mirrors = (mirror_horizontal, mirror_vertical)
    for _ in range(100):
        w, h = rng.randrange(16, 65), rng.randrange(16, 65)
        img = synthetic_image(w, h, seed=rng.randrange(1 << 30))
        base = moment_invariants(img)
        key = moments_fingerprint(img).key
        for transform in rotations + mirrors:
            turned = transform(img)
            assert moments_fingerprint(turned).key == key
            inv = moment_invariants(turned)
            flip = -1.0 if transform in mirrors else 1.0
            assert inv.phi1 == base.phi1
            assert inv.phi2 == base.phi2
            assert inv.phi3 == base.phi3
            assert inv.phi5 == base.phi5
            assert inv.phi4 == flip * base.phi4
            assert inv.phi6 == flip * base.phi6
    assert time.perf_counter() - started < 10.0


@criterion(6, "dhash determinism and sensitivity")
def test_06_dhash_determinism_and_rotation_sensitivity():
    for trial in range(100):
        img = synthetic_image(16, 12, seed=trial)
        again = synthetic_image(16, 12, seed=trial)
        assert img.pixels is not again.pixels
        assert dhash(img) == dhash(again)

    changed = sum(
        1
        for trial in range(20)
        if dhash(rotate90(synthetic_image(24, 24, seed=500 + trial)))
        != dhash(synthetic_image(24, 24, seed=500 + trial))
    )
    assert changed >= 19

    assert dhash(ImageBuffer(32, 24, 1, bytes([77]) * 768)) == 0


def _passing_records(count: int, prefix: str) -> RecordTable:
    width = len(str(count - 1))
    ids = [f"{prefix}{i:0{width}d}" for i in range(count)]
    return RecordTable(ids, [0] * count, [(8.0, 0.0, 0.0)] * count)


def _single_model_report(count: int, costs):
    records = _passing_records(count, "m")
    config = CascadeConfig("model_a", "model_b", DIFF, 0.0, True, "none")
    engine = CascadeEngine(
        config,
        ReplayClassifier("model_a", records),
        ReplayClassifier("model_b", records),
    )
    samples = [SampleRef(rid, label=0) for rid in records.ids]
    traces, _ = run_batch(engine, samples)
    report = aggregate(traces, costs)
    assert report.stage_counts["model_a"] == count
    assert report.stage_counts["model_b"] == 0
    return report


@criterion(7, "single-model energy totals")
def test_07_single_model_energy_matches_published_totals(costs_dir):
    small = load_cost_profile(str(costs_dir / "cifar10.json"))
    report = _single_model_report(10000, small)
    assert abs(report.total_energy_wh - 0.25) <= 1e-9

    large = load_cost_profile(str(costs_dir / "cifar10_single_large.json"))
    report = _single_model_report(10000, large)
    assert abs(report.total_energy_wh - 1.20) <= 1e-9


def _escalation_pair(count: int, escalators: set[int], prefix: str):
    """Records where the chosen indices escalate at lambda 0.5 (diff)."""
    width = len(str(count - 1))
    ids = [f"{prefix}{i:0{width}d}" for i in range(count)]
    logits_a = [(0.1, 0.0, 0.0) if i in escalators else (8.0, 0.0, 0.0) for i in range(count)]
    records_a = RecordTable(ids, [0] * count, logits_a)
    records_b = RecordTable(ids, [0] * count, [(0.0, 6.0, 0.0)] * count)
    return records_a, records_b


@criterion(8, "cascade energy reduction")
def test_08_cascade_cuts_energy_against_single_large_model(costs_dir):
    count = 10000
    escalators = {i * 15 for i in range(660)}  # u = 0.066
    assert len(escalators) == 660 and max(escalators) < count
    records_a, records_b = _escalation_pair(count, escalators, "c")
    config = CascadeConfig("model_a", "model_b", DIFF, 0.5, True, "none")
    engine = CascadeEngine(
        config,
        ReplayClassifier("model_a", records_a),
        ReplayClassifier("model_b", records_b),
    )
    traces, summary = run_batch(engine, [SampleRef(rid) for rid in records_a.ids])
    assert summary.second_model_usage == 0.066

    cascade = aggregate(traces, load_cost_profile(str(costs_dir / "cifar10.json")))
    assert cascade.stage_counts["model_b"] == 660
    baseline = _single_model_report(
        count, load_cost_profile(str(costs_dir / "cifar10_single_large.json"))
    )
    reduction = compare(baseline, cascade)
    assert abs(reduction.energy_pct - 76.9) <= 1.0


@criterion(9, "duplication memory savings")
def test_09_memory_flattens_energy_under_duplication(costs_dir):
    count = 1000
    # 33 escalating samples in each half, so halving the duplicate count
    # halves the duplicated work exactly
    escalators = {i * 15 for i in range(33)} | {500 + i * 15 for i in range(33)}
    records_a, records_b = _escalation_pair(count, escalators, "d")
    images = [synthetic_image(12, 12, seed=7000 + i) for i in range(count)]
    assert len({dhash_fingerprint(img).key for img in images}) == count
    samples = [
        SampleRef(rid, image=img, label=0) for rid, img in zip(records_a.ids, images)
    ]

    def factory(memory: str):
        def build() -> CascadeEngine:
            config = CascadeConfig("model_a", "model_b", DIFF, 0.5, True, memory)
            return CascadeEngine(
                config,
                ReplayClassifier("model_a", records_a),
                ReplayClassifier("model_b", records_b),
            )

        return build

    costs = load_cost_profile(str(costs_dir / "cifar10.json"))
    plain_curve, memo_curve = duplication_experiment(
        samples,
        [0.0, 0.5, 1.0],
        "identity",
        [("plain", factory("none")), ("memo", factory("dhash"))],
        costs,
    )

    energies = {ratio: e for ratio, e, _ in plain_curve.points}
    assert all(hits == 0 for _, _, hits in plain_curve.points)
    assert abs(energies[0.5] - (energies[0.0] + energies[1.0]) / 2) <= 1e-9

    ratio, memo_energy, hits = memo_curve.points[-1]
    assert ratio == 1.0
    assert hits == count

    doubled = [s for sample in samples for s in (sample, sample)]
    memo_traces, _ = run_batch(factory("dhash")(), doubled)
    memo_report = aggregate(memo_traces, costs)
    assert memo_report.total_energy_wh == memo_energy
    assert memo_report.stage_counts["model_a"] == count
    assert memo_report.stage_counts["model_b"] == 66
    assert memo_report.stage_counts["memory_lookup"] == 2 * count

    large = load_cost_profile(str(costs_dir / "cifar10_single_large.json"))
    baseline = _single_model_report(2 * count, large)
    reduction = compare(baseline, memo_report)
    assert 82.0 <= reduction.energy_pct <= 90.0


@criterion(10, "engine matches offline calibration")
def test_10_engine_agrees_with_offline_decisions(bundled_paired, costs_dir):
    result = find_lambda_star(bundled_paired, DIFF)
    records_a = RecordTable(bundled_paired.ids, bundled_paired.labels, bundled_paired.logits_a)
    records_b = RecordTable(bundled_paired.ids, bundled_paired.labels, bundled_paired.logits_b)
    engine = CascadeEngine(
        result.config,
        ReplayClassifier(result.config.first_model, records_a),
        ReplayClassifier(result.config.second_model, records_b),
    )
    samples = [SampleRef(s.id, label=s.label) for s in bundled_paired.samples]
    traces, summary = run_batch(engine, samples)
    for trace, s in zip(traces, bundled_paired.samples):
        predicted, _, chosen = oracle_decide(
            s.logits_a,
            s.logits_b,
            result.config.score_fn,
            result.config.threshold,
            result.config.post_check,
        )
        assert trace.predicted == predicted
        assert trace.chosen == chosen
    assert summary.second_model_usage == result.second_model_usage
    report = aggregate(traces, load_cost_profile(str(costs_dir / "cifar10.json")))
    assert report.metrics.accuracy == result.accuracy


@criterion(11, "nearest-rank percentiles")
def test_11_percentile_contract():
    values = [float(v) for v in range(1, 101)]
    random.Random(404).shuffle(values)
    assert nearest_rank(values, 95) == 95.0
    assert nearest_rank(values, 99) == 99.0

    flat = [4.25] * 17
    mean = sum(flat) / len(flat)
    assert mean == nearest_rank(flat, 95) == nearest_rank(flat, 99)


BUNDLED_CONFIG = """{
  "first_model": "model_a",
  "second_model": "model_b",
  "score_fn": "max",
  "lambda": 0.889437244479832,
  "post_check": true,
  "memory": "none"
}
"""


@criterion(12, "bundled pair's outputs are pinned")
def test_12_bundled_pair_outputs_are_pinned(data_dir, costs_dir, tmp_path, capsys):
    # every float total adds left to right, so these reprs hold on every Python version
    pair = ["--records-a", str(data_dir / "model_a.jsonl"), "--records-b", str(data_dir / "model_b.jsonl")]
    config, report, curve = (str(tmp_path / name) for name in ("config.json", "report.json", "curve.csv"))
    costs = ["--costs", str(costs_dir / "cifar10.json")]

    assert cli.main(["calibrate", *pair, "--out", config]) == 0
    assert capsys.readouterr().out == (
        "score_fn=max lambda=0.889437244479832 post_check=True first=model_a second=model_b"
        " accuracy=0.9060 usage=0.4880\n"
    )
    assert (tmp_path / "config.json").read_bytes() == BUNDLED_CONFIG.encode()

    assert cli.main(["run", "--config", config, *pair, *costs, "--labels", "--report", report]) == 0
    assert capsys.readouterr().out == (
        "samples=500 accuracy=0.9060 energy_wh=0.022504000000000003 mean_ms=42.991 p95_ms=64.700 p99_ms=64.700\n"
    )
    got = json.loads((tmp_path / "report.json").read_text())
    assert repr(got["total_energy_wh"]) == "0.022504000000000003"
    assert repr(got["mean_latency_ms"]) == "42.99119999999999"
    assert (repr(got["p95_latency_ms"]), repr(got["p99_latency_ms"])) == ("64.7", "64.7")
    assert got["path_counts"] == {"memory_hit": 0, "model_a_only": 256, "model_ab": 244}
    assert [repr(got["metrics"][m]) for m in ("accuracy", "precision", "recall", "f1")] == [
        "0.906", "0.9038728057817014", "0.9089262528861102", "0.9053264178614777"
    ]

    assert cli.main(["duplication", "--config", config, *pair, *costs, "--ratios", "0,0.5,1", "--out", curve]) == 0
    energies = ["0.022504000000000003", "0.033715", "0.045008000000000006"]
    ratios = ["0.0", "0.5", "1.0"]
    assert capsys.readouterr().out == "".join(
        f"ratio={r} energy_wh={e} hits=0\n" for r, e in zip(ratios, energies)
    )
    assert (tmp_path / "curve.csv").read_text() == "ratio,engine,total_energy_wh,hits\n" + "".join(
        f"{r},none,{e},0\n" for r, e in zip(ratios, energies)
    )


# README's headline table: energies in Wh at each duplication ratio
HEADLINE_RATIOS = (0.0, 0.5, 1.0)
HEADLINE_SINGLE_LARGE = (0.06, 0.09, 0.12)
HEADLINE_CASCADE = (0.022504, 0.033715, 0.045008)
HEADLINE_MEMORY = {  # (memory, transform): (energies, hits)
    ("dhash", "identity"): ((0.0227415, 0.022800875, 0.02286025), (0, 250, 500)),
    ("moments", "identity"): ((0.0227415, 0.022800875, 0.02286025), (0, 250, 500)),
    ("moments", "rot90"): ((0.0227415, 0.022800875, 0.02286025), (0, 250, 500)),
    ("dhash", "rot90"): ((0.0227415, 0.03407125, 0.045483), (0, 0, 0)),
}


@criterion(13, "paper's headline on the bundled pair")
def test_13_headline_energy_on_the_bundled_pair(bundled_paired, costs_dir):
    """One large model, the calibrated cascade and the cascade with memory on
    ``data/``, each sample duplicated once at ratio 1. Every total is pinned
    and also rebuilt by hand from stage counts derived from the escalated set
    and the duplication ratio, times the profile's per-stage energies."""
    config = CascadeConfig.from_dict(json.loads(BUNDLED_CONFIG))  # what calibrate gives (test 12)
    tables = [RecordTable(bundled_paired.ids, bundled_paired.labels, logits)
              for logits in (bundled_paired.logits_a, bundled_paired.logits_b)]
    images = [synthetic_image(32, 32, 1000 + i, 3) for i in range(len(bundled_paired))]
    samples = [SampleRef(sid, image=img) for sid, img in zip(bundled_paired.ids, images)]
    small = load_cost_profile(str(costs_dir / "cifar10.json"))
    large = load_cost_profile(str(costs_dir / "cifar10_single_large.json"))
    n = len(samples)

    def reports(threshold, memory, transform, costs):
        engine = CascadeEngine(
            CascadeConfig(config.first_model, config.second_model, config.score_fn, threshold, config.post_check,
                          memory),
            ReplayClassifier(config.first_model, tables[0]),
            ReplayClassifier(config.second_model, tables[1]),
        )
        for ratio in HEADLINE_RATIOS:
            engine.clear_memory()
            traces, _ = run_batch(engine, build_duplicated_stream(samples, ratio, transform, random.Random(0)))
            yield aggregate(traces, costs), traces

    def by_hand(counts, costs):
        return sum(count * costs.stages[stage].energy_wh for stage, count in counts.items())

    runs = list(reports(config.threshold, "none", "identity", small))
    escalated = [t.path == "model_ab" for t in runs[0][1]]  # at ratio 0: each sample once
    assert sum(escalated) == 244  # usage 0.488
    dups = [int(ratio * n) for ratio in HEADLINE_RATIOS]

    single = [r for r, _ in reports(0.0, "none", "identity", large)]
    for report, d, pinned in zip(single, dups, HEADLINE_SINGLE_LARGE):
        assert report.stage_counts["model_a"] == n + d and report.stage_counts["model_b"] == 0
        assert report.total_energy_wh == pytest.approx(pinned, rel=1e-12)
        assert report.total_energy_wh == pytest.approx(by_hand({"model_a": n + d}, large), rel=1e-12)

    cascade = [r for r, _ in runs]
    for report, d, pinned in zip(cascade, dups, HEADLINE_CASCADE):
        counts = {"model_a": n + d, "model_b": sum(escalated) + sum(escalated[:d])}
        assert {s: report.stage_counts[s] for s in counts} == counts
        assert report.total_energy_wh == pytest.approx(pinned, rel=1e-12)
        assert report.total_energy_wh == pytest.approx(by_hand(counts, small), rel=1e-12)
    assert round(compare(single[-1], cascade[-1]).energy_pct, 2) == 62.49

    for (memory, transform), (energies, hits) in HEADLINE_MEMORY.items():
        got = [r for r, _ in reports(config.threshold, memory, transform, small)]
        for report, d, pinned, h in zip(got, dups, energies, hits):
            decided = n + d - h  # every duplicate hits, or none does
            counts = {"model_a": decided, "model_b": sum(escalated) + sum(escalated[:d]) * (h == 0),
                      "memory_lookup": n + d, "memory_insert": decided}
            assert report.path_counts["memory_hit"] == h
            assert dict(report.stage_counts) == counts
            assert report.total_energy_wh == pytest.approx(pinned, rel=1e-12)
            assert report.total_energy_wh == pytest.approx(by_hand(counts, small), rel=1e-12)
        reduction = compare(single[-1], got[-1]).energy_pct
        assert round(reduction, 2) == (80.95 if hits[-1] else 62.10)

    # the paper's 85.8% at ratio 1 needs this usage u: a + u * b + 2 lookups + 1 insert = 14.2% of 2 large calls
    energy = {stage: cost.energy_wh for stage, cost in small.stages.items()}
    per_pair = (1 - 0.858) * 2 * large.stages["model_a"].energy_wh
    usage = (per_pair - energy["model_a"] - 2 * energy["memory_lookup"] - energy["memory_insert"]) / energy["model_b"]
    assert round(usage, 3) == 0.204
