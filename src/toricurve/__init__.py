"""Exact construction and certification of rational-curve embeddings
into smooth projective toric 3-folds.

Every name in __all__ is imported from its module on first use (PEP 562),
so a process loads only the modules its command runs: ``embed`` never
loads verify.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "intlinalg": ("NotUnimodular", "integer_kernel_basis", "unimodular_inverse"),
    "fan": (
        "ConeNotInFan", "Fan", "MalformedFan", "NotComplete", "UnknownPreset",
        "ValidationReport", "Wall", "load_fan", "preset", "primitive_collections",
        "save_fan", "star_subdivision", "validate", "walls",
    ),
    "intersect": (
        "NoPositiveKernel", "NotAmple", "NotProjective", "TDivisor", "XiVector",
        "find_ample", "is_ample", "triple_intersection", "triple_product",
        "wall_curve_degree", "xi_vector",
    ),
    "curve": (
        "CDivisor", "CurvePoint", "INFINITY", "NotDegreeZero", "POLE",
        "ProjectiveLine", "RationalFunction", "evaluate", "evaluate_with_derivative",
        "principal_function", "sample_divisor",
    ),
    "embed": (
        "BadEmbeddingFile", "ChartMap", "ConditionsReport", "EmbeddingData",
        "XiMismatch", "build_embedding_data", "chart_maps",
        "check_theorem_conditions", "epsilon_function", "load_embedding",
    ),
    "certificate": ("Certificate", "ChartRecord", "CheckResult", "DegreeOverflow"),
    "verify": ("certify", "chart_immersive", "chart_injective", "pullback_check"),
    "cli": ("RunConfig", "main", "run_pipeline"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """An exported name, from its module (PEP 562)."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
