from __future__ import annotations

import ast
import gc
import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cascadekit
from cascadekit.cli import main
from cascadekit.errors import write_text
from cascadekit.images import write_image_pnm
from cascadekit.records import RecordTable, format_prediction_records, load_prediction_records
from cascadekit.synthetic import synthetic_image, synthetic_pair

SOURCE = Path(cascadekit.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
DATA = Path(__file__).resolve().parent.parent / "data"


def test_every_exported_name_resolves():
    missing = [name for name in cascadekit.__all__ if not hasattr(cascadekit, name)]
    assert missing == []
    assert len(set(cascadekit.__all__)) == len(cascadekit.__all__)


NAMESPACE_CHECK = """
import importlib, json, sys
import cascadekit

listed = set(dir(cascadekit))
exports = {name: getattr(cascadekit, name) for name in cascadekit.__all__}
try:
    cascadekit.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "submodule": type(sys.modules["cascadekit.complementarity"]).__name__,
    "attribute": cascadekit.complementarity is sys.modules["cascadekit.complementarity"],
    "unlisted": sorted(set(cascadekit.__all__) - listed),
    "elsewhere": sorted(
        name for name, value in exports.items()
        if getattr(importlib.import_module(value.__module__), name) is not value
    ),
    "modules": sorted({value.__module__ for value in exports.values()}),
    "unknown": unknown,
}))
"""

# Ways submodules can load before NAMESPACE_CHECK reads the package's names.
FIRST_IMPORTS = [
    "import cascadekit.calibration  # with confidence, errors and records",
    "import cascadekit.complementarity",
    "from cascadekit.complementarity import complementarity_matrix",
    "from cascadekit import cli\n"
    "cli.main(['complementarity', {a!r}, {b!r}, '--out', {out!r}])",
]


def test_package_binds_each_name_to_its_defining_module(tmp_path):
    for first in FIRST_IMPORTS:
        first = first.format(
            a=str(DATA / "model_a.jsonl"), b=str(DATA / "model_b.jsonl"), out=str(tmp_path / "m.csv")
        )
        run = subprocess.run(
            [sys.executable, "-c", first + "\n" + NAMESPACE_CHECK],
            capture_output=True, text=True, cwd=SOURCE.parent,
        )
        assert run.returncode == 0, (first, run.stderr)
        result = json.loads(run.stdout.splitlines()[-1])  # cli.main prints its summary line first
        assert (result["submodule"], result["attribute"]) == ("module", True), first
        assert result["unlisted"] == [], first
        assert result["elsewhere"] == [], first
        assert "cascadekit" not in result["modules"], first
        assert result["unknown"] == "module 'cascadekit' has no attribute 'no_such_name'", first


def test_package_is_a_plain_module():
    """No public name is a submodule's name, so the import system's submodule attributes
    shadow none of them and the package module keeps its own type."""
    stems = {path.stem for path in SOURCE.glob("*.py")}
    assert sorted(stems.intersection(cascadekit.__all__)) == []
    assert type(sys.modules["cascadekit"]) is types.ModuleType


def _modules_loaded(argv: list[str]) -> set[str]:
    """The cascadekit submodules ``python -m cascadekit.cli argv`` imports."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cascadekit.cli", *argv],
        capture_output=True, text=True, check=True, cwd=SOURCE.parent,
    )
    names = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines() if "|" in line}
    return {name.split(".", 1)[1] for name in names if name.startswith("cascadekit.")}


STARTUP = set()  # what the CLI loads before it runs a command
# complementarity loads no numpy either (test_start_path_loads_no_numpy); calibrate's modules do
COMPLEMENTARITY = STARTUP | {"errors", "records", "complementarity"}
# calibration computes its own correctness column: no complementarity module from here on
CALIBRATE = STARTUP | {"errors", "records", "calibration", "confidence"}
# replay and pricing without memory, and reading reports back, load no image or fingerprint
# module (a report loads no numpy either)
METERING = CALIBRATE | {"engine", "metering"}


@pytest.mark.parametrize(
    "command, loads",
    [
        ("help", STARTUP),
        ("complementarity", COMPLEMENTARITY),
        ("calibrate", CALIBRATE),
        ("run", METERING),
        ("report", METERING),
        # memory off and no --images: the duplicated stream still imports the transforms
        ("duplication", METERING | {"images"}),
        ("hash", STARTUP | {"errors", "phash", "images"}),
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, command, loads):
    model_a, model_b = str(DATA / "model_a.jsonl"), str(DATA / "model_b.jsonl")
    image = tmp_path / "image.pgm"
    image.write_bytes(write_image_pnm(synthetic_image(16, 16, seed=1)))
    _write_config(tmp_path)  # memory none
    replay = [arg.format(tmp=tmp_path) for arg in REPLAY]
    report = str(tmp_path / "report.json")
    if command == "report":
        assert main(["run", *replay, "--labels", "--report", report]) == 0
    argv = {
        "help": ["--help"],
        "complementarity": ["complementarity", model_a, model_b, "--out", str(tmp_path / "m.csv")],
        "calibrate": [
            "calibrate", "--records-a", model_a, "--records-b", model_b,
            "--out", str(tmp_path / "config.json"),
        ],
        "run": ["run", *replay, "--labels", "--report", str(tmp_path / "r.json"), "--traces", str(tmp_path / "t.jsonl")],
        "report": ["report", report, report],
        "duplication": ["duplication", *replay, "--ratios", "0,0.5,1", "--out", str(tmp_path / "dup.csv")],
        "hash": ["hash", "--method", "moments", str(image)],
    }[command]
    assert _modules_loaded(argv) == loads


def _import_tree(argv: list[str], code: int, tmp_path: Path) -> set[str]:
    """Every module ``python -X importtime argv`` imports, numpy's own too; {tmp} in argv is tmp_path."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", *(arg.format(tmp=tmp_path) for arg in argv)],
        capture_output=True, text=True, cwd=SOURCE.parent,
    )
    assert run.returncode == code, run.stderr
    return {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines() if "|" in line}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["-m", "cascadekit.cli", "--help"], 0),
        (["-m", "cascadekit.cli", "run"], 2),  # a usage error
        (["-c", "import cascadekit"], 0),
        # the whole command: parse, alignment check, argmax and CSV run in plain Python
        (["-m", "cascadekit.cli", "complementarity", str(DATA / "model_a.jsonl"), str(DATA / "model_b.jsonl"),
          "--out", "{tmp}/m.csv"], 0),
        (["-c", "from cascadekit.records import RecordTable\n"
                "RecordTable(['a'], [0], [(1.0, 0)]).predictions()"], 0),
        # two JSON files read back and compared in plain Python
        (["-m", "cascadekit.cli", "report", "{tmp}/report.json", "{tmp}/report.json"], 0),
    ],
    ids=["help", "usage_error", "import", "complementarity", "hand_built_table", "report"],
)
def test_start_path_loads_no_numpy(tmp_path, argv, code):
    if "report" in argv:
        _write_report(tmp_path)
    names = _import_tree(argv, code, tmp_path)
    assert "cascadekit" in names
    assert sorted(name for name in names if name.split(".")[0] == "numpy") == []


MODEL_A, MODEL_B = str(DATA / "model_a.jsonl"), str(DATA / "model_b.jsonl")
RECORDS = ["--records-a", MODEL_A, "--records-b", MODEL_B]
REPLAY = ["--config", "{tmp}/config.json", *RECORDS, "--costs", str(DATA.parent / "costs" / "cifar10.json")]


def _write_config(tmp_path: Path) -> None:
    """{tmp}/config.json: a memory-off config over the bundled pair, for REPLAY."""
    config = {
        "first_model": "model_a", "second_model": "model_b", "score_fn": "entropy",
        "lambda": 0.5, "post_check": True, "memory": "none",
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")


def _write_report(tmp_path: Path) -> None:
    """{tmp}/config.json and {tmp}/report.json, the run report of a memory-off replay of the bundled pair."""
    _write_config(tmp_path)
    assert main(["run", *(arg.format(tmp=tmp_path) for arg in REPLAY), "--report", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["run"], 2)], ids=["help", "usage_error"])
def test_help_and_usage_error_load_no_json_and_no_submodule(tmp_path, argv, code):
    names = _import_tree(["-m", "cascadekit.cli", *argv], code, tmp_path)
    assert "cascadekit" in names
    assert sorted(name for name in names if name.split(".")[0] == "json" or name.startswith("cascadekit.")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", *RECORDS, "--out", "{tmp}/c.json"],
        ["calibrate", *RECORDS, "--score", "entropy", "--out", "{tmp}/c.json"],
        ["run", *REPLAY, "--labels", "--report", "{tmp}/report.json"],
        ["duplication", *REPLAY, "--ratios", "0,0.5,1", "--out", "{tmp}/dup.csv"],
    ],
    ids=["calibrate_auto", "calibrate_entropy", "run", "duplication"],
)
def test_commands_load_no_numpy_ma(tmp_path, argv):
    # on numpy 2.x numpy.ma loads on first use (np.unique uses it); numpy 1.x loads it with numpy
    _write_config(tmp_path)
    names = _import_tree(["-m", "cascadekit.cli", *argv], 0, tmp_path)
    names -= _import_tree(["-c", "import numpy"], 0, tmp_path)
    assert "cascadekit.calibration" in names
    assert sorted(name for name in names if name.split(".")[:2] == ["numpy", "ma"]) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["complementarity", MODEL_A, MODEL_B, "--out", "{tmp}/m.csv"],
        ["calibrate", *RECORDS, "--out", "{tmp}/c.json"],
        ["run", *REPLAY, "--labels", "--report", "{tmp}/r.json"],
        ["duplication", *REPLAY, "--ratios", "0,0.5,1", "--out", "{tmp}/dup.csv"],
        ["hash", "--method", "moments", "{tmp}/image.pgm"],
        ["report", "{tmp}/report.json", "{tmp}/report.json"],
    ],
    ids=["help", "complementarity", "calibrate", "run", "duplication", "hash", "report"],
)
def test_commands_load_no_dataclasses(tmp_path, argv):
    """No module generates methods at import: ``dataclasses`` is absent from each command's
    import tree beyond what ``import numpy`` loads itself."""
    _write_report(tmp_path)
    (tmp_path / "image.pgm").write_bytes(write_image_pnm(synthetic_image(16, 16, seed=1)))
    names = _import_tree(["-m", "cascadekit.cli", *argv], 0, tmp_path)
    names -= _import_tree(["-c", "import numpy"], 0, tmp_path)
    assert ("cascadekit.errors" in names) == (argv != ["--help"])  # --help loads no submodule
    assert "dataclasses" not in names


# each public NamedTuple type and its fields, in order (RunReport's JSON and MacroMetrics' keys follow it)
VALUE_TYPES = {
    ("records", "StageCost"): ("energy_wh", "latency_ms", "current_mah"),
    ("engine", "MacroMetrics"): ("accuracy", "precision", "recall", "f1"),
    ("engine", "BatchSummary"): ("sample_count", "path_counts", "second_model_usage"),
    ("metering", "RunReport"): (
        "sample_count", "path_counts", "stage_counts", "total_energy_wh", "total_current_mah", "latencies_ms",
        "mean_latency_ms", "p95_latency_ms", "p99_latency_ms", "metrics", "config",
    ),
    ("metering", "Reduction"): ("energy_pct", "mean_latency_pct", "p95_latency_pct", "p99_latency_pct"),
    ("metering", "DuplicationCurve"): ("engine_name", "points"),
    ("phash", "Fingerprint"): ("method", "key"),
    ("phash", "MomentInvariants"): ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6", "key"),
    ("calibration", "CalibrationResult"): ("config", "accuracy", "second_model_usage", "curve"),
}


@pytest.mark.parametrize("module, name", VALUE_TYPES)
def test_value_types_keep_their_fields_and_refuse_assignment(module, name):
    cls = getattr(importlib.import_module(f"cascadekit.{module}"), name)
    assert cls._fields == VALUE_TYPES[module, name]
    value = cls(*range(len(cls._fields)))
    assert value._asdict() == dict(zip(cls._fields, range(len(cls._fields))))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, -1)
    assert tuple(value) == tuple(range(len(cls._fields)))


# one argv per way a command ends, with its exit code; {tmp} is a scratch directory
ENDINGS = {
    "success": (["complementarity", MODEL_A, MODEL_B, "--out", "{tmp}/m.csv"], 0),
    "data_error": (["complementarity", MODEL_A, "{tmp}/missing.jsonl", "--out", "{tmp}/m.csv"], 1),
    "usage_error": (["run"], 2),
    "help": (["--help"], 0),
}

# what the console script runs, and then, from atexit, which runs before the
# interpreter's shutdown collections, whether the heap is frozen and the collector on
FROZEN_AT_EXIT = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled()))\n"
    "from cascadekit.cli import entry\n"
    "sys.exit(entry())\n"
)


@pytest.mark.parametrize("ending", ENDINGS)
def test_each_process_ends_frozen_with_mains_output(tmp_path, capsys, ending):
    argv, code = ENDINGS[ending]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    script, module = (
        subprocess.run([sys.executable, *start, *argv], capture_output=True, text=True, cwd=SOURCE.parent)
        for start in (["-c", FROZEN_AT_EXIT], ["-m", "cascadekit.cli"])
    )
    assert (script.returncode, module.returncode) == (code, code), script.stderr
    assert (script.stdout, script.stderr) == (module.stdout + "True False\n", module.stderr)
    # main called in-process prints the same, freezes nothing and leaves the collector as it was
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    try:
        assert main(argv) == code
    except SystemExit as exc:  # argparse's usage errors and --help
        assert exc.code == code
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    assert (module.stdout, module.stderr) == capsys.readouterr()


# ``python -m cascadekit.cli`` run through runpy, as -m runs it, with the parser reporting
# whether the collector is on when main parses its arguments
COLLECTOR_IN_MAIN = (
    "import argparse, gc, runpy\n"
    "parse_args = argparse.ArgumentParser.parse_args\n"
    "def reporting(self, *args, **kwargs):\n"
    "    print('collector on:', gc.isenabled())\n"
    "    return parse_args(self, *args, **kwargs)\n"
    "argparse.ArgumentParser.parse_args = reporting\n"
    "runpy.run_module('cascadekit.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("ending", ENDINGS)
def test_process_entry_runs_main_with_the_collector_off(tmp_path, ending):
    argv, code = ENDINGS[ending]
    run = subprocess.run(
        [sys.executable, "-c", COLLECTOR_IN_MAIN, *(arg.format(tmp=tmp_path) for arg in argv)],
        capture_output=True, text=True, cwd=SOURCE.parent,
    )
    assert run.returncode == code, run.stderr
    assert run.stdout.startswith("collector on: False\n")


# each command once, in order (report reads both runs' reports), with its exit code; {set} is a
# directory of model_a.jsonl, model_b.jsonl, images/ and configs, {out} a scratch directory
SET_RECORDS = ["--records-a", "{set}/model_a.jsonl", "--records-b", "{set}/model_b.jsonl"]
SET_REPLAY = [*SET_RECORDS, "--costs", str(DATA.parent / "costs" / "cifar10.json")]
GARBAGE_COMMANDS = {
    "complementarity": (["complementarity", "{set}/model_a.jsonl", "{set}/model_b.jsonl", "--out", "{out}/m.csv"], 0),
    "calibrate": (["calibrate", *SET_RECORDS, "--out", "{out}/c.json"], 0),
    "run_traced": (["run", "--config", "{set}/none.json", *SET_REPLAY, "--labels", "--report", "{out}/r.json",
                    "--traces", "{out}/t.jsonl"], 0),
    "run_moments": (["run", "--config", "{set}/moments.json", *SET_REPLAY, "--images", "{set}/images",
                     "--report", "{out}/rm.json"], 0),
    "duplication": (["duplication", "--config", "{set}/moments.json", *SET_REPLAY, "--images", "{set}/images",
                     "--ratios", "0,0.5,1", "--out", "{out}/dup.csv"], 0),
    "report": (["report", "{out}/r.json", "{out}/rm.json"], 0),
    # both files parse before the config's model names are checked against theirs
    "data_error": (["run", "--config", "{set}/other.json", *SET_REPLAY, "--report", "{out}/x.json"], 1),
}


def _replay_set(root: Path, tables: tuple[RecordTable, RecordTable]) -> Path:
    """A GARBAGE_COMMANDS {set}: the pair, an 8x8 image per sample and three configs."""
    (root / "images").mkdir(parents=True)
    for name, table in zip(("model_a", "model_b"), tables):
        write_text(str(root / f"{name}.jsonl"), format_prediction_records(table))
    for i, sample_id in enumerate(tables[0].ids):
        (root / "images" / f"{sample_id}.pgm").write_bytes(write_image_pnm(synthetic_image(8, 8, seed=i)))
    config = {"first_model": "model_a", "second_model": "model_b", "score_fn": "entropy", "lambda": 0.5,
              "post_check": True, "memory": "none"}
    for name, changes in (("none", {}), ("moments", {"memory": "moments"}), ("other", {"first_model": "x"})):
        (root / f"{name}.json").write_text(json.dumps({**config, **changes}), encoding="utf-8")
    return root


def test_no_command_leaves_cyclic_garbage_that_grows_with_its_input(tmp_path, capsys):
    """With the collector off, as the process entry runs ``main``, each command leaves the same
    number of unreachable objects (argparse's parser) on the bundled 500-sample pair as on a
    seeded 5000-sample one: none of its cyclic garbage is per sample."""
    bundled = tuple(map(load_prediction_records, (MODEL_A, MODEL_B)))
    sets = {
        "bundled": _replay_set(tmp_path / "bundled", bundled),
        "seeded": _replay_set(tmp_path / "seeded", synthetic_pair(5000, 10, seed=3)),
    }
    garbage = {}
    # the first pass imports each command's modules, which leaves garbage of its own
    for run, directory in (("warm", sets["bundled"]), *sets.items()):
        out = tmp_path / f"out_{run}"
        out.mkdir()
        for command, (argv, code) in GARBAGE_COMMANDS.items():
            gc.collect()
            gc.disable()
            try:
                returned = main([arg.format(set=directory, out=out) for arg in argv])
                garbage[run, command] = gc.collect()
            finally:
                gc.enable()
            assert returned == code, (run, command, capsys.readouterr())
    for command in GARBAGE_COMMANDS:
        assert garbage["bundled", command] == garbage["seeded", command], command


def test_console_script_is_the_process_entry():
    # a string check: Python 3.10 has no tomllib
    text = (SOURCE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'cascadekit = "cascadekit.cli:entry"'


def test_cli_import_leaves_out_exact_arithmetic_modules():
    # every command starts cold, so exact moment arithmetic stays in plain ints
    code = (
        "import importlib, pkgutil, sys, cascadekit\n"
        "names = [m.name for m in pkgutil.iter_modules(cascadekit.__path__)]\n"
        "for name in names: importlib.import_module('cascadekit.' + name)\n"
        "print(len(names), sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=SOURCE.parent,
    ).stdout
    assert out.strip() == f"{len(list(SOURCE.glob('*.py'))) - 1} []"


def test_readme_library_snippet_runs():
    readme = (SOURCE.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = code.rsplit("# ", 1)[1].strip()  # the comment on the last line
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=SOURCE.parent.parent,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    ).stdout
    assert out == expected + "\n"


def test_readme_quick_start_runs(tmp_path):
    """Each command of the Quick start block exits 0 through ``python -m cascadekit.cli``,
    run in order in a fresh directory that holds copies of data/ and costs/."""
    root = SOURCE.parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]
    assert [argv[0] for argv in commands] == ["cascadekit"] * 6
    for name in ("data", "costs"):
        shutil.copytree(root / name, tmp_path / name)
    for argv in commands:
        run = subprocess.run(
            [sys.executable, "-m", "cascadekit.cli", *argv[1:]], capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
        )
        assert (run.returncode, run.stderr) == (0, ""), argv
    assert (tmp_path / "baseline.json").is_file() and (tmp_path / "report.json").is_file()


JSON_READERS = {"load", "loads", "JSONDecoder"}


def _file_calls(tree: ast.AST) -> list[str]:
    """Calls of open (bare or as any attribute), and any use of json.load,
    json.loads, json.JSONDecoder or a decoder's raw_decode / scan_once, called
    or not (``map(json.loads, lines)`` parses too)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append(f"open at line {node.lineno}")
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                found.append(f"{ast.unparse(func)} at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and (
            node.attr in ("raw_decode", "scan_once")
            or (node.attr in JSON_READERS and isinstance(node.value, ast.Name)
                and node.value.id == "json")
        ):
            found.append(f"{ast.unparse(node)} at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend(
                f"from json import {alias.name} at line {node.lineno}"
                for alias in node.names
                if alias.name in JSON_READERS
            )
    return found


def test_files_are_opened_and_parsed_only_in_errors_py():
    offenders = {
        path.name: calls
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "errors.py"
        and (calls := _file_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}
    assert _file_calls(ast.parse((SOURCE / "errors.py").read_text(encoding="utf-8")))


def test_guard_sees_every_form():
    source = "open(p)\nio.open(p)\nPath(p).open()\njson.load(f)\njson.loads(s)\njson.dumps(x)\n"
    assert len(_file_calls(ast.parse(source))) == 5


def test_guard_sees_decoders_and_bare_references():
    source = (
        "lines = map(json.loads, text)\n"
        "decoder = json.JSONDecoder()\n"
        "obj, end = decoder.raw_decode(s)\n"
        "obj, end = decoder.scan_once(s, 0)\n"
        "from json import loads, dumps\n"
        "text = json.dumps(x, separators=sep)\n"
        "encoder = json.JSONEncoder()\n"
    )
    assert sorted(_file_calls(ast.parse(source))) == [
        "decoder.raw_decode at line 3",
        "decoder.scan_once at line 4",
        "from json import loads at line 5",
        "json.JSONDecoder at line 2",
        "json.loads at line 1",
    ]


def _unresolved_cascadekit_names(tree: ast.AST) -> list[str]:
    """Names imported from cascadekit, or read off an imported cascadekit module, that do not exist."""
    modules = {}  # local name -> imported cascadekit module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cascadekit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                try:
                    value = getattr(module, alias.name)
                except AttributeError:
                    try:
                        value = importlib.import_module(name)
                    except ImportError:
                        missing.append(name)
                        continue
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and not hasattr(modules[node.value.id], node.attr)
        ):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def test_benchmark_imports_resolve():
    files = sorted(BENCH.glob("*.py"))
    assert files
    missing = {
        path.name: names
        for path in files
        if (names := _unresolved_cascadekit_names(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert missing == {}


def test_benchmark_import_guard_sees_missing_names():
    source = (
        "from cascadekit.phash import MemoStore, no_such_name\n"
        "from cascadekit import metering\n"
        "metering.aggregate, metering.no_such_function\n"
    )
    assert _unresolved_cascadekit_names(ast.parse(source)) == [
        "cascadekit.phash.no_such_name",
        "cascadekit.metering.no_such_function",
    ]
