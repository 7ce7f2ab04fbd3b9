"""Two-model classification cascades: pair selection, threshold calibration,
perceptual-hash memoization, and linear energy/latency metering over replayed
prediction records."""

from .calibration import (
    CalibrationResult,
    CascadeConfig,
    accuracy_at,
    auto_select,
    candidate_lambdas,
    decide,
    find_lambda_star,
    load_config,
    save_config,
)
from .complementarity import (
    ComplementarityMatrix,
    complementarity,
    complementarity_matrix,
    correctness_vectors,
)
from .confidence import ScoreFunction, score, softmax
from .engine import (
    CascadeEngine,
    Classifier,
    MacroMetrics,
    ReplayClassifier,
    SampleRef,
    StageTrace,
    macro_metrics,
    run_batch,
)
from .errors import DataError
from .images import ImageBuffer, load_image_pnm, to_grayscale, write_image_pnm
from .metering import (
    DuplicationCurve,
    Reduction,
    RunReport,
    aggregate,
    compare,
    duplication_experiment,
    nearest_rank,
)
from .phash import (
    Fingerprint,
    MemoStore,
    MomentInvariants,
    dhash,
    dhash_fingerprint,
    moment_invariants,
    moments_fingerprint,
)
from .records import (
    CostProfile,
    PairedDataset,
    RecordTable,
    align_records,
    load_cost_profile,
    load_prediction_records,
    parse_prediction_records,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "CascadeConfig",
    "CascadeEngine",
    "Classifier",
    "ComplementarityMatrix",
    "CostProfile",
    "DataError",
    "DuplicationCurve",
    "Fingerprint",
    "ImageBuffer",
    "MacroMetrics",
    "MemoStore",
    "MomentInvariants",
    "PairedDataset",
    "Reduction",
    "RecordTable",
    "ReplayClassifier",
    "RunReport",
    "SampleRef",
    "ScoreFunction",
    "StageTrace",
    "accuracy_at",
    "aggregate",
    "align_records",
    "auto_select",
    "candidate_lambdas",
    "compare",
    "complementarity",
    "complementarity_matrix",
    "correctness_vectors",
    "decide",
    "dhash",
    "dhash_fingerprint",
    "duplication_experiment",
    "find_lambda_star",
    "load_config",
    "load_cost_profile",
    "load_image_pnm",
    "load_prediction_records",
    "macro_metrics",
    "moment_invariants",
    "moments_fingerprint",
    "nearest_rank",
    "parse_prediction_records",
    "run_batch",
    "save_config",
    "score",
    "softmax",
    "to_grayscale",
    "write_image_pnm",
]
