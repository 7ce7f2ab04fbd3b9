"""End-to-end benchmark of the cascadekit CLI on seeded synthetic workloads.

Run from the root of a cascadekit checkout:

    python3 bench/run.py --workload calib-10k --seed 1 --seconds 55 --trace 0

With ``--trace 0`` every CLI command of the workload runs as its own
subprocess, one at a time, in rounds: a round runs a few cold starts and
then every command, a short one repeated until it has used ROUND_FILL_S;
rounds repeat while the next one is expected to end within ``--seconds``.
Around every block of attempts the benchmark runs reference.py, a fixed
unit of work whose CPU time measures how fast the shared machine is at the
moment. A metric is the median over the run of a command's CPU times (user
+ system, read with ``os.wait4``), each brought to the reference speed by
the units run just before and after its block. The metrics are printed as
a JSON object on the last stdout line; every attempt's wall, CPU and
scaled time and every reference unit's CPU time are printed alongside.
With ``--trace 1`` the same commands run once in process through
``cli.main`` and once re-enacted from the layers' public functions inside
spans (see spans.py); the last line carries the per-layer metrics instead.

Inputs are generated from ``--seed`` (gen.py) into ``.bench_work/`` under
the checkout; that directory is the only place the benchmark writes.
Every command's outputs are checked (checks.py); a command that exits
non-zero or fails a check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import checks
import gen

MIN_ROUNDS = 3            # every command runs at least this often
SETUP_PER_ROUND = 3       # cold starts per round
REFERENCE_EVERY_S = 3.0   # one reference unit per this much of a block, before it and after it
ROUND_FILL_S = 0.5        # a shorter command repeats within a round until it has used this much
MAX_PER_ROUND = 8         # and runs at most this often per round
COMMAND_TIMEOUT_S = 120.0
CLI = [sys.executable, "-m", "cascadekit.cli"]
REFERENCE = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")]
REFERENCE_CPU_S = 0.20    # reference.py's fastest CPU time on a 2-vCPU Xeon (2.1 GHz) VM, Python 3.11
RATIOS = "0,0.5,1"
DUP_SEED = 0  # duplication's transform draws; fixed, so the program sees the seed only through its inputs
COMMANDS = ("complementarity", "calibrate", "run", "duplication")


@dataclass(frozen=True)
class Workload:
    n: int                 # samples in the record pair
    k: int                 # classes
    costs: str             # cost profile, relative to the checkout root
    image_size: int        # side of the square RGB images
    memory: str            # fingerprint method wherever images are used
    transform: str         # duplication transform
    blank_every: int | None = None  # every m-th frame all black
    dup_slice: int | None = None    # None: run and duplication share the images;
                                    # else run is logits-only (memory none) and the
                                    # duplication uses the first dup_slice samples


# Why each workload exists is recorded in BENCHMARK.json and bench/LAYERS.md.
WORKLOADS = {
    "calib-10k": Workload(10000, 10, "costs/cifar10.json", 32, "dhash", "identity", dup_slice=512),
    "memo-224": Workload(16, 1000, "costs/imagenet.json", 224, "moments", "random_of_these", blank_every=16),
}


class Paths:
    """Where a workload's inputs and outputs live under the work directory."""

    def __init__(self, work: str, wl: Workload):
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        self.records = (os.path.join(self.inputs, "model_a.jsonl"), os.path.join(self.inputs, "model_b.jsonl"))
        dup_dir = self.inputs if wl.dup_slice is None else os.path.join(self.inputs, "slice")
        self.dup_records = (os.path.join(dup_dir, "model_a.jsonl"), os.path.join(dup_dir, "model_b.jsonl"))
        self.images = os.path.join(dup_dir, "images")

    def out(self, tag: str) -> dict[str, str]:
        d = os.path.join(self.work, tag)
        os.makedirs(d, exist_ok=True)
        names = ("matrix.csv", "config.json", "curve.csv", "run_config.json", "dup_config.json",
                 "report.json", "traces.jsonl", "dup.csv")
        return {name: os.path.join(d, name) for name in names} | {"dir": d}


def first_model_order(records: tuple[str, str], config_path: str) -> tuple[str, str]:
    """--records-a must hold the config's first model, which calibrate may have swapped."""
    try:
        with open(config_path, encoding="utf-8") as fh:
            first = json.load(fh)["first_model"]
    except (OSError, ValueError, KeyError):
        return records  # no usable config: the command fails and is counted
    return records if os.path.basename(records[0]) == first + ".jsonl" else records[::-1]


def command_argv(name: str, wl: Workload, p: Paths, out: dict[str, str]) -> list[str]:
    a, b = p.records
    if name == "complementarity":
        return ["complementarity", a, b, "--out", out["matrix.csv"]]
    if name == "calibrate":
        return ["calibrate", "--records-a", a, "--records-b", b, "--score", "auto",
                "--out", out["config.json"], "--curve", out["curve.csv"]]
    if name == "run":
        a, b = first_model_order(p.records, out["run_config.json"])
        argv = ["run", "--config", out["run_config.json"], "--records-a", a, "--records-b", b,
                "--costs", wl.costs, "--labels", "--report", out["report.json"], "--traces", out["traces.jsonl"]]
        if wl.dup_slice is None:
            argv += ["--images", p.images]
        return argv
    da, db = first_model_order(p.dup_records, out["dup_config.json"])
    return ["duplication", "--config", out["dup_config.json"], "--records-a", da, "--records-b", db,
            "--images", p.images, "--costs", wl.costs, "--ratios", RATIOS,
            "--transform", wl.transform, "--seed", str(DUP_SEED), "--out", out["dup.csv"]]


def command_outputs(name: str, out: dict[str, str]) -> list[str]:
    return {
        "complementarity": [out["matrix.csv"]],
        "calibrate": [out["config.json"], out["curve.csv"]],
        "run": [out["report.json"], out["traces.jsonl"]],
        "duplication": [out["dup.csv"]],
    }[name]


def write_run_configs(wl: Workload, out: dict[str, str]) -> None:
    """Run and duplication use the calibrated config with the workload's memory."""
    with open(out["config.json"], encoding="utf-8") as fh:
        config = json.load(fh)
    run_memory = wl.memory if wl.dup_slice is None else "none"
    for key, memory in (("run_config.json", run_memory), ("dup_config.json", wl.memory)):
        with open(out[key], "w", encoding="utf-8") as fh:
            json.dump(config | {"memory": memory}, fh, indent=2)


# --- inputs -----------------------------------------------------------------

@dataclass
class Inputs:
    pair: gen.RecordPair
    dup_ids: list[str]
    blanks: list[str]
    digests: dict[str, str]


def make_inputs(wl: Workload, p: Paths, seed: int) -> Inputs:
    pair = gen.write_record_pair(p.inputs, wl.n, wl.k, seed)
    dup_ids = pair.ids
    if wl.dup_slice is not None:
        dup_ids = pair.ids[: wl.dup_slice]
        os.makedirs(os.path.dirname(p.dup_records[0]), exist_ok=True)
        for src, dst in zip(p.records, p.dup_records):
            with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
                fout.writelines(line for _, line in zip(range(wl.dup_slice), fin))
    blanks = gen.write_images(p.images, dup_ids, wl.image_size, seed, wl.blank_every)
    return Inputs(pair, dup_ids, blanks, gen.tree_digest(p.inputs))


# --- checks -----------------------------------------------------------------

def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check_outputs(wl: Workload, inp: Inputs, out: dict[str, str], stdouts: dict[str, str]) -> dict[str, list[str]]:
    """Failure messages per command for one set of outputs."""
    with open(wl.costs, encoding="utf-8") as fh:
        costs = json.load(fh)
    fails: dict[str, list[str]] = {}
    n = wl.n

    def guarded(name, fn):
        try:
            fails[name] = fn()
        except Exception as exc:  # a malformed output is a failed check, not a crash
            fails[name] = [f"check raised {type(exc).__name__}: {exc}"]

    guarded("complementarity", lambda: checks.check_complementarity(
        _read(out["matrix.csv"]), stdouts["complementarity"], inp.pair.a_ok, inp.pair.b_ok))
    calibrated = (-1, -1)

    def calibrate():
        nonlocal calibrated
        msgs, correct, escalated = checks.calibrated_counts(
            json.loads(_read(out["config.json"])), _read(out["curve.csv"]), stdouts["calibrate"], n)
        calibrated = (correct, escalated)
        return msgs

    guarded("calibrate", calibrate)
    run_blanks = inp.blanks if wl.dup_slice is None else []
    guarded("run", lambda: checks.check_run(
        json.loads(_read(out["report.json"])), stdouts["run"], _read(out["traces.jsonl"]),
        inp.pair.ids, run_blanks, wl.dup_slice is None, costs, calibrated))

    def duplication():
        if wl.dup_slice is None:
            ratio0 = json.loads(_read(out["report.json"]))["total_energy_wh"]
        else:
            # the slice replays the run's decisions, each after one lookup and before one insert
            wanted = set(inp.dup_ids)
            counts = {"memory_lookup": len(wanted), "memory_insert": len(wanted), "model_a": 0, "model_b": 0}
            for line in _read(out["traces.jsonl"]).splitlines():
                trace = json.loads(line)
                if trace["id"] in wanted:
                    for stage in trace["stages"]:
                        counts[stage] += 1
            ratio0 = checks.stage_energy(counts, costs)
        return checks.check_duplication(
            _read(out["dup.csv"]), stdouts["duplication"], inp.dup_ids, inp.blanks,
            [float(r) for r in RATIOS.split(",")], ratio0)

    guarded("duplication", duplication)
    return fails


def file_digests(paths: list[str]) -> list[str]:
    return [gen.sha256_file(path) if os.path.exists(path) else "missing" for path in paths]


# --- subprocess measurement -------------------------------------------------

@dataclass
class Attempt:
    seconds: float
    cpu_seconds: float     # the child's user + system time
    max_rss_mb: float
    exit_code: int
    stdout: str


def spawn(argv: list[str], env: dict[str, str], log_prefix: str) -> Attempt:
    """Run one program as a child and read its CPU time and peak RSS with wait4."""
    with open(log_prefix + ".stdout", "wb") as so, open(log_prefix + ".stderr", "wb") as se:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=so, stderr=se, env=env)
        killer = threading.Timer(COMMAND_TIMEOUT_S, child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(log_prefix + ".stdout", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return Attempt(elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, child.returncode, stdout)


def cold_start(env: dict[str, str], log_dir: str) -> Attempt:
    """One cold start: interpreter launch to CLI ready (``cascadekit --help``)."""
    attempt = spawn(CLI + ["--help"], env, os.path.join(log_dir, "setup"))
    if attempt.exit_code != 0:
        raise SystemExit(f"cascadekit --help exited {attempt.exit_code}")
    return attempt


def reference_unit(env: dict[str, str], log_dir: str) -> float:
    """CPU seconds of one run of the reference unit: the machine's speed at the moment."""
    attempt = spawn(REFERENCE, env, os.path.join(log_dir, "reference"))
    if attempt.exit_code != 0:
        raise SystemExit(f"bench/reference.py exited {attempt.exit_code}")
    return attempt.cpu_seconds


class Samples:
    """Wall, CPU and scaled CPU seconds of one command's attempts."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.scaled: list[float] = []

    def add(self, attempt: Attempt, scale: float) -> None:
        self.wall.append(attempt.seconds)
        self.cpu.append(attempt.cpu_seconds)
        self.scaled.append(attempt.cpu_seconds * scale)


def run_end_to_end(wl: Workload, p: Paths, inp: Inputs, seconds: float, env: dict[str, str]) -> dict:
    out = p.out("e2e")
    cold_start(env, out["dir"])  # warm-up: bytecode caches, page cache
    samples = {name: Samples() for name in ("setup",) + COMMANDS}
    references: list[dict] = []
    rss: list[float] = []
    first: dict[str, tuple[str, list[str]]] = {}  # command -> first attempt's stdout and output digests
    outcomes: list[tuple[str, int, list[str]]] = []  # (command, exit code, digests) per attempt
    check_fails: dict[str, list[str]] = {}
    start = time.perf_counter()
    rounds = 0
    round_s = 0.0
    last_seconds: dict[str, float] = {}  # each block's length in the previous round
    after: list[float] = []  # the reference units run since the last block
    # Every round runs the cold starts and then every command, so each one's attempts spread over
    # the whole run; another round starts while it is expected to end within --seconds.
    while rounds < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        for name in ("setup",) + COMMANDS:
            # A block's CPU times are brought to the reference speed of the units run just before
            # and just after it, one per REFERENCE_EVERY_S of the block on either side.
            units = math.ceil(last_seconds.get(name, 0.0) / REFERENCE_EVERY_S) or 1
            while len(after) < units:
                after.append(reference_unit(env, out["dir"]))
            before = after[-units:]
            block: list[Attempt] = []
            while len(block) < (SETUP_PER_ROUND if name == "setup" else MAX_PER_ROUND):
                if name == "setup":
                    block.append(cold_start(env, out["dir"]))
                    continue
                attempt = spawn(CLI + command_argv(name, wl, p, out), env, os.path.join(out["dir"], name))
                block.append(attempt)
                rss.append(attempt.max_rss_mb)
                digests = file_digests(command_outputs(name, out)) + [gen.sha256_bytes(attempt.stdout.encode())]
                first.setdefault(name, (attempt.stdout, digests))
                outcomes.append((name, attempt.exit_code, digests))
                if name == "calibrate" and rounds == 0 and attempt.exit_code == 0:
                    write_run_configs(wl, out)
                if sum(a.seconds for a in block) >= ROUND_FILL_S:
                    break  # a short command repeats until it has used ROUND_FILL_S of the round
            last_seconds[name] = sum(a.seconds for a in block)
            units = math.ceil(last_seconds[name] / REFERENCE_EVERY_S)
            after = [reference_unit(env, out["dir"]) for _ in range(units)]
            references.append({"block": name, "round": rounds, "before": before, "after": after})
            scale = REFERENCE_CPU_S / statistics.fmean(before + after)
            for attempt in block:
                samples[name].add(attempt, scale)
        if rounds == 0:
            check_fails = check_outputs(wl, inp, out, {name: stdout for name, (stdout, _) in first.items()})
        rounds += 1
        round_s = time.perf_counter() - round_start
    # An attempt fails when it exits non-zero, or when its outputs fail the checks made on the
    # first attempt's outputs or differ from them in any byte.
    failures = {name: list(msgs) for name, msgs in check_fails.items()}
    failed = 0
    for name, code, digests in outcomes:
        if code != 0:
            failures[name].append(f"exit code {code}")
        elif digests != first[name][1]:
            failures[name].append("outputs differ from the first attempt")
        failed += code != 0 or digests != first[name][1] or bool(check_fails[name])
    metrics = {f"{name}_s": (statistics.median(samples[name].scaled), "s") for name in ("setup",) + COMMANDS}
    metrics["peak_rss_mb"] = (max(rss), "MB")
    detail = {
        "rounds": rounds,
        "repeats": {name: len(s.wall) for name, s in samples.items()},
        "wall_seconds": {name: s.wall for name, s in samples.items()},
        "cpu_seconds": {name: s.cpu for name, s in samples.items()},
        "reference_cpu_seconds": references,
        "scaled_seconds": {name: s.scaled for name, s in samples.items()},
        "failures": {k: v for k, v in failures.items() if v},
    }
    return {"metrics": metrics, "attempted": len(outcomes), "failed": failed, "detail": detail}


# --- traced run -------------------------------------------------------------

def run_in_process(argv: list[str]) -> tuple[int, str, float]:
    """cli.main in this interpreter; returns (exit code, stdout, seconds)."""
    from cascadekit import cli

    buf = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


def run_traced(wl: Workload, p: Paths, inp: Inputs, seed: int) -> dict:
    import spans

    plain = p.out("plain")
    stdouts, untraced = {}, {}
    failures: dict[str, list[str]] = {name: [] for name in COMMANDS}
    for name in COMMANDS:
        code, stdouts[name], untraced[name] = run_in_process(command_argv(name, wl, p, plain))
        if code != 0:
            failures[name].append(f"untraced exit code {code}")
        if name == "calibrate" and code == 0:
            write_run_configs(wl, plain)
    for name, msgs in check_outputs(wl, inp, plain, stdouts).items():
        failures[name].extend(msgs)
    attempted = len(COMMANDS)
    failed = sum(bool(failures[name]) for name in COMMANDS)

    traced_out = p.out("traced")
    tracer = spans.Tracer(workload_id=f"{os.path.basename(p.work)}:{seed}")
    run = spans.Replay(tracer, wl, p, plain, traced_out, DUP_SEED, [float(r) for r in RATIOS.split(",")])
    steps = {
        "complementarity": run.complementarity,
        "calibrate": run.calibrate,
        "run": lambda: run.run(first_model_order(p.records, plain["run_config.json"])),
        "duplication": lambda: run.duplication(first_model_order(p.dup_records, plain["dup_config.json"])),
    }
    for name in COMMANDS:
        gc.collect()
        attempted += 1
        try:
            steps[name]()
        except Exception as exc:  # report the broken step; the rest depend on it
            failures[name].append(f"traced re-enactment raised {type(exc).__name__}: {exc}")
            failed += 1
            break
        mismatched = [
            os.path.basename(path)
            for path in command_outputs(name, plain)
            if file_digests([path]) != file_digests([os.path.join(traced_out["dir"], os.path.basename(path))])
        ]
        if mismatched:
            failures[name].append(f"traced re-enactment wrote different {mismatched}")
            failed += 1
    else:
        run.probes()
    tracer.write(os.path.join(traced_out["dir"], "spans.jsonl"))
    metrics = run.metrics()
    traced_total = sum(tracer.total(f"cli.{name}") for name in COMMANDS)
    metrics["trace.overhead_s"] = (traced_total - sum(untraced.values()), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    detail = {
        "untraced_seconds": untraced,
        "traced_seconds": {name: tracer.total(f"cli.{name}") for name in COMMANDS},
        "self_seconds": tracer.self_times(),
        "spans_file": os.path.relpath(os.path.join(traced_out["dir"], "spans.jsonl")),
        "failures": {k: v for k, v in failures.items() if v},
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}


# --- machine notes ----------------------------------------------------------

def git_head(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    try:
        head = _read(os.path.join(root, ".git", "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            return _read(ref_path).strip()
        for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_notes(root: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_head": git_head(root),
        "source_sha256": gen.sha256_bytes("".join(
            f"{name} {digest}\n" for name, digest in gen.tree_digest(os.path.join(root, "src", "cascadekit")).items()
            if name.endswith(".py")).encode()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    wl = WORKLOADS[args.workload]
    missing = [path for path in (os.path.join("src", "cascadekit", "cli.py"), wl.costs) if not os.path.isfile(path)]
    if missing:
        print(f"error: run from a cascadekit checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    # one BLAS thread: idle OpenBLAS workers spin at start-up, adding 0.1 s of noisy CPU time to every command
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    notes = machine_notes(root)
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    p = Paths(work, wl)
    inp = make_inputs(wl, p, args.seed)
    if args.trace:
        result = run_traced(wl, p, inp, args.seed)
    else:
        result = run_end_to_end(wl, p, inp, args.seconds, env)
    notes["loadavg_end"] = os.getloadavg()

    # every input's digest goes to inputs.sha256; stdout lists the records and folds the images
    manifest = "".join(f"{digest}  {name}\n" for name, digest in inp.digests.items())
    with open(os.path.join(work, "inputs.sha256"), "w", encoding="utf-8") as fh:
        fh.write(manifest)
    inputs = {"files": len(inp.digests), "manifest_sha256": gen.sha256_bytes(manifest.encode())}
    inputs |= {name: digest for name, digest in inp.digests.items() if name.endswith(".jsonl")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": notes, "inputs": inputs} | result["detail"]))
    print(f"fail_rate {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.4f}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<32} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
