"""Output checks for one workload's commands.

Each check compares a command's output against what the generator knows
(correctness flags, blank frames) or against another command's integer
counts. Floats are compared through the integer counts behind them, or
with a relative tolerance far above rounding noise, so a change that only
moves the last digits of ``lambda`` or an energy total cannot trip them.

``check_*`` functions return a list of failure messages; empty means pass.
"""

from __future__ import annotations

import csv
import json
import math
import re


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def _rounds_to(printed: str | float, value: float, decimals: int) -> bool:
    """Whether ``printed`` is ``value`` written with ``decimals`` places (either way at a tie)."""
    return abs(float(printed) - value) <= 0.5 * 10.0**-decimals + 1e-12


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(pct * len(ordered) / 100) - 1]


def check_complementarity(matrix_csv: str, stdout: str, a_ok, b_ok) -> list[str]:
    n = len(a_ok)
    n_a, n_b = int(a_ok.sum()), int(b_ok.sum())
    union, inter = int((a_ok | b_ok).sum()), int((a_ok & b_ok).sum())
    expected = (union - inter - abs(n_a - n_b)) / n
    rows = list(csv.reader(matrix_csv.splitlines()))
    fails = []
    if rows[0] != ["model", "model_a", "model_b"]:
        fails.append(f"matrix header {rows[0]}")
    value = float(rows[1][2])
    if not _rounds_to(value, expected, 6) or float(rows[2][1]) != value:
        fails.append(f"matrix value {value} != {expected:.6f} from generator flags")
    match = re.search(r"score=(\S+)", stdout)
    if match is None or not _rounds_to(match.group(1), 10 * expected, 4):
        fails.append(f"printed score does not match {10 * expected:.4f}: {stdout.strip()!r}")
    return fails


def calibrated_counts(config: dict, curve_csv: str, stdout: str, n: int) -> tuple[list[str], int, int]:
    """Check calibrate's outputs; return (failures, correct, escalated) at lambda*."""
    fails = []
    printed = _fields(stdout.strip().splitlines()[-1])
    if float(printed["lambda"]) != config["lambda"]:
        fails.append(f"printed lambda {printed['lambda']} != config {config['lambda']!r}")
    rows = [tuple(map(float, r)) for r in list(csv.reader(curve_csv.splitlines()))[1:]]
    chosen = [r for r in rows if r[0] == config["lambda"]]
    if len(chosen) != 1:
        return fails + [f"lambda* {config['lambda']!r} not once in the curve"], -1, -1
    _, acc, usage = chosen[0]
    if acc != max(r[1] for r in rows):
        fails.append(f"curve accuracy at lambda* {acc} is not the curve maximum")
    correct, escalated = round(acc * n), round(usage * n)
    if not _rounds_to(printed["accuracy"], correct / n, 4) or not _rounds_to(printed["usage"], escalated / n, 4):
        fails.append(f"printed accuracy/usage disagree with the curve: {stdout.strip()!r}")
    return fails, correct, escalated


def stage_energy(stage_counts: dict[str, int], costs: dict) -> float:
    return sum(count * costs["stages"][stage]["energy_wh"] for stage, count in stage_counts.items())


def check_run(
    report: dict,
    stdout: str,
    traces_jsonl: str,
    ids: list[str],
    blanks: list[str],
    memory: bool,
    costs: dict,
    calibrated: tuple[int, int],
) -> list[str]:
    """Every sample misses the memory, so decisions match calibrate's at lambda*."""
    n = len(ids)
    fails = []
    paths, stages = report["path_counts"], report["stage_counts"]
    if report["sample_count"] != n or sum(paths.values()) != n:
        fails.append(f"path_counts {paths} do not sum to {n}")
    if paths["memory_hit"] != 0:
        fails.append(f"{paths['memory_hit']} memory hits on distinct images")
    hashed = n - len(blanks) if memory else 0
    expected_stages = {
        "memory_lookup": hashed,
        "memory_insert": hashed,
        "model_a": n,
        "model_b": paths["model_ab"],
    }
    if stages != expected_stages:
        fails.append(f"stage_counts {stages} != {expected_stages}")
    if not _close(report["total_energy_wh"], stage_energy(stages, costs)):
        fails.append(f"total_energy_wh {report['total_energy_wh']!r} != sum of stage costs")
    latencies = report["latencies_ms"]
    if len(latencies) != n:
        fails.append(f"{len(latencies)} latencies for {n} samples")
    elif report["p95_latency_ms"] != nearest_rank(latencies, 95) or report["p99_latency_ms"] != nearest_rank(latencies, 99):
        fails.append("p95/p99 are not the nearest-rank percentiles of latencies_ms")
    correct = round(report["metrics"]["accuracy"] * n)
    if (correct, paths["model_ab"]) != calibrated:
        fails.append(f"run correct/escalated {(correct, paths['model_ab'])} != calibrate's {calibrated}")
    printed = _fields(stdout)
    if int(printed.get("samples", -1)) != n or not _close(float(printed["energy_wh"]), report["total_energy_wh"]):
        fails.append(f"summary line disagrees with the report: {stdout.strip()!r}")
    traces = [json.loads(line) for line in traces_jsonl.splitlines()]
    if [t["id"] for t in traces] != ids:
        fails.append(f"trace file has {len(traces)} lines, not one per sample in id order")
    errored = [t["id"] for t in traces if t["hash_error"] is not None]
    if errored != (blanks if memory else []):
        fails.append(f"hash errors on {errored}, expected {blanks if memory else []}")
    return fails


def check_duplication(
    curve_csv: str,
    stdout: str,
    ids: list[str],
    blanks: list[str],
    ratios: list[float],
    ratio0_energy: float,
) -> list[str]:
    """Hits at ratio r are floor(r*N) minus the blank frames among the duplicates."""
    n = len(ids)
    fails = []
    rows = list(csv.DictReader(curve_csv.splitlines()))
    if [float(r["ratio"]) for r in rows] != sorted(ratios):
        return [f"curve ratios {[r['ratio'] for r in rows]} != {sorted(ratios)}"]
    blank = set(blanks)
    for row in rows:
        ndup = math.floor(float(row["ratio"]) * n)
        expected = ndup - sum(1 for sample_id in ids[:ndup] if sample_id in blank)
        if int(row["hits"]) != expected:
            fails.append(f"ratio {row['ratio']}: {row['hits']} hits, expected {expected}")
    if not _close(float(rows[0]["total_energy_wh"]), ratio0_energy):
        fails.append(f"ratio-0 energy {rows[0]['total_energy_wh']} != {ratio0_energy!r} implied by the run")
    printed = [_fields(line) for line in stdout.strip().splitlines()]
    if [(p["ratio"], p["energy_wh"], p["hits"]) for p in printed] != [
        (r["ratio"], r["total_energy_wh"], r["hits"]) for r in rows
    ]:
        fails.append("printed curve disagrees with the CSV")
    return fails
