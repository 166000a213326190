"""Exact construction and certification of rational-curve embeddings
into smooth projective toric 3-folds."""

from .intlinalg import NotUnimodular, integer_kernel_basis, unimodular_inverse
from .fan import (
    ConeNotInFan,
    Fan,
    MalformedFan,
    NotComplete,
    UnknownPreset,
    ValidationReport,
    Wall,
    load_fan,
    preset,
    primitive_collections,
    save_fan,
    star_subdivision,
    validate,
    walls,
)
from .intersect import (
    NoPositiveKernel,
    NotAmple,
    NotProjective,
    TDivisor,
    XiVector,
    find_ample,
    is_ample,
    triple_intersection,
    triple_product,
    wall_curve_degree,
    xi_vector,
)
from .curve import (
    CDivisor,
    CurvePoint,
    INFINITY,
    NotDegreeZero,
    POLE,
    ProjectiveLine,
    RationalFunction,
    evaluate,
    evaluate_with_derivative,
    principal_function,
    sample_divisor,
)
from .embed import (
    BadEmbeddingFile,
    ChartMap,
    ConditionsReport,
    EmbeddingData,
    XiMismatch,
    build_embedding_data,
    chart_maps,
    check_theorem_conditions,
    epsilon_function,
    load_embedding,
    save_embedding,
)
from .verify import (
    Certificate,
    ChartRecord,
    CheckResult,
    DegreeOverflow,
    certify,
    chart_immersive,
    chart_injective,
    pullback_check,
)
from .cli import RunConfig, main, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "NotUnimodular", "integer_kernel_basis", "unimodular_inverse",
    "ConeNotInFan", "Fan", "MalformedFan", "NotComplete", "UnknownPreset",
    "ValidationReport", "Wall", "load_fan", "preset", "primitive_collections",
    "save_fan", "star_subdivision", "validate", "walls",
    "NoPositiveKernel", "NotAmple", "NotProjective", "TDivisor", "XiVector",
    "find_ample", "is_ample", "triple_intersection", "triple_product",
    "wall_curve_degree", "xi_vector",
    "CDivisor", "CurvePoint", "INFINITY", "NotDegreeZero", "POLE",
    "ProjectiveLine", "RationalFunction", "evaluate", "evaluate_with_derivative",
    "principal_function", "sample_divisor",
    "BadEmbeddingFile", "ChartMap", "ConditionsReport", "EmbeddingData",
    "XiMismatch", "build_embedding_data", "chart_maps",
    "check_theorem_conditions", "epsilon_function", "load_embedding",
    "save_embedding",
    "Certificate", "ChartRecord", "CheckResult", "DegreeOverflow",
    "certify", "chart_immersive", "chart_injective", "pullback_check",
    "RunConfig", "main", "run_pipeline",
]
