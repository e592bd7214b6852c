"""Numerical toolkit for frames, fusion frames, and woven families.

The public names resolve on first use (PEP 562): ``import wovenframes``
loads no submodule, and reading ``wovenframes.pw_check`` imports
``wovenframes.perturbation`` once, after which the name is a plain
attribute of the package.
"""

import importlib

__version__ = "0.1.0"

# home module of each public name, in the order of __all__
_EXPORTS = {
    "errors": ("ToolkitError",),
    "linalg": ("SpectrumReport", "orthonormalize", "sym_eig", "projector"),
    "frames": (
        "DiscreteFrame",
        "BoundsReport",
        "frame_operator",
        "optimal_bounds",
        "bessel_bound",
        "is_riesz_basis",
    ),
    "fusion": (
        "Subspace",
        "FusionFrame",
        "fusion_frame_operator",
        "fusion_bounds",
        "synthesis_is_onto",
        "is_riesz_decomposition",
        "is_orthonormal_fusion_basis",
    ),
    "weaving": (
        "Partition",
        "WovenFamily",
        "WovenReport",
        "RieszWeavingReport",
        "weave",
        "woven_bounds_exhaustive",
        "woven_bounds_sampled",
        "weaving_bessel_bound",
        "find_nonwoven_witness",
        "woven_riesz_decomposition_check",
    ),
    "transforms": (
        "InvertibleOperator",
        "LocalSystem",
        "EquivalenceReport",
        "RemovalReport",
        "apply_operator_discrete",
        "conjugation_check",
        "subspace_intersection",
        "intersect_family",
        "flatten_local_system",
        "local_global_equivalence_report",
        "remove_subset_check",
    ),
    "perturbation": (
        "PerturbationCertificate",
        "pw_check",
        "op_perturbation_check",
        "proj_perturbation_check",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    # cached, so later reads never come back here
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
