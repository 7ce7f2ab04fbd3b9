"""Two-model classification cascades: pair selection, threshold calibration,
perceptual-hash memoization, and linear energy/latency metering over replayed
prediction records.

Public names are bound on first use (PEP 562), so ``import cascadekit`` loads
no submodule and no numpy, and a command imports only the modules it runs."""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "calibration": (
        "CalibrationResult", "CascadeConfig", "accuracy_at", "auto_select",
        "candidate_lambdas", "decide", "find_lambda_star", "load_config", "save_config",
    ),
    "complementarity": (
        "ComplementarityMatrix", "complementarity", "complementarity_matrix",
    ),
    "confidence": ("ScoreFunction", "score", "softmax"),
    "engine": (
        "CascadeEngine", "Classifier", "MacroMetrics", "ReplayClassifier", "SampleRef",
        "StageTrace", "Traces", "macro_metrics", "run_batch",
    ),
    "errors": ("DataError",),
    "images": ("ImageBuffer", "load_image_pnm", "to_grayscale", "write_image_pnm"),
    "metering": (
        "DuplicationCurve", "Reduction", "RunReport", "aggregate", "compare",
        "duplication_experiment", "nearest_rank",
    ),
    "phash": (
        "Fingerprint", "MemoStore", "MomentInvariants", "dhash", "dhash_fingerprint",
        "moment_invariants", "moments_fingerprint",
    ),
    "records": (
        "CostProfile", "PairedDataset", "RecordTable", "align_records", "load_cost_profile",
        "load_prediction_records", "parse_prediction_records",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


class _Package(ModuleType):
    """The package module. The import system sets a package attribute to each
    submodule it loads; a public name keeps its value instead (the function
    ``complementarity`` shares its submodule's name), whatever loads first."""

    def __setattr__(self, name: str, value) -> None:
        if name in _MODULE_OF and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
