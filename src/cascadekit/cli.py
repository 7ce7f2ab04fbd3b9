"""Command-line surface.

Subcommands map one-to-one onto the library workflows: pair selection
(complementarity), threshold calibration (calibrate), metered batch runs
(run), fingerprint inspection (hash), the duplication experiment
(duplication) and run-report comparison (report).

Each command imports only the modules it runs, so a cold start loads no more
than that command needs. The parser therefore spells out its choices; tests pin
them to the names they come from. ``records`` and ``complementarity`` import no
numpy, so the complementarity command never loads it; every other command loads
it with its first module that does array math (``calibration``, ``engine``,
``images`` or ``phash``).

Exit codes: 0 success, 1 data or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError, read_parsed, write_text

if TYPE_CHECKING:
    from .calibration import CascadeConfig


def _model_names(path_a: str, path_b: str) -> tuple[str, str]:
    name_a, name_b = Path(path_a).stem, Path(path_b).stem
    if name_a == name_b:
        return "model_a", "model_b"
    return name_a, name_b


def _load_pair(args: argparse.Namespace, names: tuple[str, str] | None = None):
    """Both record files' tables and their model names, each file named as ``_model_names`` names it.
    Given a config's (first, second) ``names``, the tables come in that order, so a swapped config
    replays its own order; files that name other models are a DataError."""
    from .records import load_prediction_records

    tables = [load_prediction_records(args.records_a), load_prediction_records(args.records_b)]
    found = _model_names(args.records_a, args.records_b)
    if names is not None and found != names:
        if found[::-1] != names:
            raise DataError(
                f"record files name models {found[0]!r} and {found[1]!r}, "
                f"but the config names {names[0]!r} and {names[1]!r}"
            )
        tables.reverse()
    return tables, names or found


def _load_config(args: argparse.Namespace) -> CascadeConfig:
    from .calibration import load_config

    config = load_config(args.config)
    if config.memory != "none" and not args.images:
        args.parser.error(f"--images is required when config memory is {config.memory}")
    return config


def _load_replay(args: argparse.Namespace, config: CascadeConfig, with_images: bool, with_labels: bool):
    """The cost profile, an engine wired to the config's two models, and one sample per aligned id.
    The replay reads the tables' rows by id, so the alignment check is all it needs of them."""
    from .engine import CascadeEngine, ReplayClassifier, SampleRef
    from .records import align_rows, load_cost_profile

    costs = load_cost_profile(args.costs)
    tables, names = _load_pair(args, (config.first_model, config.second_model))
    ids, labels, _, _ = align_rows(*tables)
    engine = CascadeEngine(config, *map(ReplayClassifier, names, tables))
    if not with_labels:
        labels = [None] * len(ids)
    samples = [
        SampleRef(sid, _load_sample_image(args.images, sid) if with_images else None, label)
        for sid, label in zip(ids, labels)
    ]
    return costs, engine, samples


def _load_sample_image(directory: str, sample_id: str):
    from .images import load_image_pnm

    for ext in (".pgm", ".ppm"):
        candidate = os.path.join(directory, sample_id + ext)
        if os.path.exists(candidate):
            return read_parsed(candidate, "image", load_image_pnm)
    raise DataError(f"no image for sample {sample_id!r} in {directory}")


def cmd_complementarity(args: argparse.Namespace) -> int:
    from .complementarity import complementarity_matrix, csv_name, format_matrix_csv
    from .records import load_prediction_records

    if len(args.records) < 2:
        args.parser.error("at least two record files are required")
    models = [load_prediction_records(p) for p in args.records]
    names = [Path(p).stem for p in args.records]
    if len(set(names)) != len(names):
        names = list(args.records)
    matrix = complementarity_matrix(models, names)
    write_text(args.out, format_matrix_csv(matrix))
    i, j = matrix.best_pair()
    value = matrix.values[i][j]
    # the CSV keeps raw [0, 1] scores; the summary line uses the tenfold display and the CSV's names
    print(f"best pair: {csv_name(matrix.names[i])},{csv_name(matrix.names[j])} score={value * 10:.4f}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .calibration import auto_select, find_lambda_star, format_curve_csv, save_config
    from .confidence import ScoreFunction
    from .records import align_records

    if args.score == "auto" and args.no_post_check:
        args.parser.error("--no-post-check cannot be combined with --score auto")
    tables, names = _load_pair(args)
    paired = align_records(*tables, *names)
    if args.score == "auto":
        result = auto_select(paired)
    else:
        fn = ScoreFunction.parse(args.score)
        result = find_lambda_star(paired, fn, post_check=not args.no_post_check)
    save_config(result.config, args.out)
    if args.curve:
        write_text(args.curve, format_curve_csv(result.curve))
    cfg = result.config
    print(
        f"score_fn={cfg.score_fn.value} lambda={cfg.threshold!r} "
        f"post_check={cfg.post_check} first={cfg.first_model} second={cfg.second_model} "
        f"accuracy={result.accuracy:.4f} usage={result.second_model_usage:.4f}"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .engine import format_traces_jsonl, run_batch
    from .metering import aggregate, format_report_csv, format_report_json

    config = _load_config(args)
    costs, engine, samples = _load_replay(
        args, config, with_images=config.memory != "none", with_labels=args.labels
    )
    traces, _ = run_batch(engine, samples)
    report = aggregate(traces, costs, config=config)
    if args.format == "csv":
        write_text(args.report, format_report_csv(report))
    else:
        write_text(args.report, format_report_json(report))
    if args.traces:
        write_text(args.traces, format_traces_jsonl(traces))
    accuracy = "n/a" if report.metrics is None else f"{report.metrics.accuracy:.4f}"
    print(
        f"samples={report.sample_count} accuracy={accuracy} "
        f"energy_wh={report.total_energy_wh!r} mean_ms={report.mean_latency_ms:.3f} "
        f"p95_ms={report.p95_latency_ms:.3f} p99_ms={report.p99_latency_ms:.3f}"
    )
    return 0


def cmd_hash(args: argparse.Namespace) -> int:
    from .images import load_image_pnm, to_grayscale
    from .phash import dhash_fingerprint, moment_invariants

    gray = to_grayscale(read_parsed(args.image, "image", load_image_pnm))
    if args.method == "moments":
        invariants = moment_invariants(gray)  # the key and phi= from one pass over the moments
        print(f"moments: {invariants.key} phi=[{','.join(repr(v) for v in invariants.vector())}]")
    else:
        print(f"dhash: {dhash_fingerprint(gray).key}")
    return 0


def cmd_duplication(args: argparse.Namespace) -> int:
    from .metering import duplication_experiment, format_curves_csv

    config = _load_config(args)
    if args.transform != "identity" and not args.images:
        args.parser.error(f"--images is required for transform {args.transform}")
    try:
        ratios = [float(part) for part in args.ratios.split(",") if part.strip() != ""]
    except ValueError:
        args.parser.error(f"cannot parse --ratios {args.ratios!r}")
    if not ratios:
        args.parser.error("--ratios must list at least one value")
    costs, engine, samples = _load_replay(args, config, with_images=bool(args.images), with_labels=False)
    curves = duplication_experiment(
        samples, ratios, args.transform, [(config.memory, lambda: engine)], costs, seed=args.seed
    )
    write_text(args.out, format_curves_csv(curves))
    for ratio, energy, hits in curves[0].points:
        print(f"ratio={ratio!r} energy_wh={energy!r} hits={hits}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .metering import compare, load_report

    baseline = load_report(args.baseline)
    candidate = load_report(args.candidate)
    reduction = compare(baseline, candidate)
    rows = [
        ("energy_wh", baseline.total_energy_wh, candidate.total_energy_wh, reduction.energy_pct),
        ("mean_ms", baseline.mean_latency_ms, candidate.mean_latency_ms, reduction.mean_latency_pct),
        ("p95_ms", baseline.p95_latency_ms, candidate.p95_latency_ms, reduction.p95_latency_pct),
        ("p99_ms", baseline.p99_latency_ms, candidate.p99_latency_ms, reduction.p99_latency_pct),
    ]
    print(f"{'metric':<12}{'baseline':>16}{'candidate':>16}{'reduction':>12}")
    for name, base, cand, pct in rows:
        shown = "n/a" if pct is None else f"{pct:.2f}%"
        print(f"{name:<12}{base:>16.6g}{cand:>16.6g}{shown:>12}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadekit",
        description="Calibrate and meter two-model classification cascades from replay records.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "complementarity",
        help="score every model pair and pick the most complementary one",
    )
    p.add_argument("records", nargs="+", help="two or more prediction-record JSONL files")
    p.add_argument("--out", required=True, help="matrix CSV output path")
    p.set_defaults(func=cmd_complementarity, parser=p)

    p = sub.add_parser("calibrate", help="search the escalation threshold on a validation pair")
    p.add_argument("--records-a", required=True, help="first model's records (JSONL)")
    p.add_argument("--records-b", required=True, help="second model's records (JSONL)")
    p.add_argument(
        "--score",
        choices=("max", "diff", "entropy", "auto"),
        default="auto",
        help="score function; auto tries all three and both model orders (default: auto)",
    )
    p.add_argument(
        "--no-post-check",
        action="store_true",
        help="always accept the second model on escalation instead of the better-scoring one",
    )
    p.add_argument("--out", required=True, help="config JSON output path")
    p.add_argument("--curve", help="optional lambda/accuracy/usage curve CSV output path")
    p.set_defaults(func=cmd_calibrate, parser=p)

    p = sub.add_parser("run", help="replay a batch through a configured cascade and meter it")
    p.add_argument("--config", required=True, help="cascade config JSON")
    p.add_argument("--records-a", required=True, help="first model's records (JSONL)")
    p.add_argument("--records-b", required=True, help="second model's records (JSONL)")
    p.add_argument("--images", help="directory of <id>.pgm/.ppm images (required when memory is on)")
    p.add_argument("--costs", required=True, help="stage cost profile JSON")
    p.add_argument("--labels", action="store_true", help="score predictions against record labels")
    p.add_argument("--report", required=True, help="run report output path")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    p.add_argument("--traces", help="optional per-sample trace JSONL output path")
    p.set_defaults(func=cmd_run, parser=p)

    p = sub.add_parser("hash", help="print an image's fingerprint")
    p.add_argument("--method", choices=("dhash", "moments"), required=True)
    p.add_argument("image", help="PGM/PPM image file")
    p.set_defaults(func=cmd_hash, parser=p)

    p = sub.add_parser("duplication", help="energy curve over duplicated-input ratios")
    p.add_argument("--config", required=True, help="cascade config JSON")
    p.add_argument("--records-a", required=True, help="first model's records (JSONL)")
    p.add_argument("--records-b", required=True, help="second model's records (JSONL)")
    p.add_argument("--images", help="directory of <id>.pgm/.ppm images")
    p.add_argument("--costs", required=True, help="stage cost profile JSON")
    p.add_argument("--ratios", required=True, help="comma-separated ratios in [0,1], e.g. 0,0.5,1")
    p.add_argument(
        "--transform",
        choices=("identity", "rot90", "rot180", "mirror_h", "mirror_v", "random_of_these"),
        default="identity",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for transform random_of_these")
    p.add_argument("--out", required=True, help="curve CSV output path")
    p.set_defaults(func=cmd_duplication, parser=p)

    p = sub.add_parser("report", help="compare two run reports (reduction percentages)")
    p.add_argument("baseline", help="baseline run report JSON")
    p.add_argument("candidate", help="candidate run report JSON")
    p.set_defaults(func=cmd_report, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The process entry (console script, ``python -m``): ``main``, then ``gc.freeze()``, also on
    ``SystemExit``, so the interpreter's shutdown collections skip a heap that dies with the process.
    ``main`` called in-process freezes nothing."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
