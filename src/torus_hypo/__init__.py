"""Certified global Gevrey/smooth regularity analysis for tube systems of
complex vector fields on the torus: classification oracle, per-frequency
spectral solvers, averaging normal form, and constructive slow-decay solution
families with machine-checkable certificates.

The public names below load their submodule on first access (PEP 562), so
``import torus_hypo`` and each CLI command import only what they use."""

import importlib

from .errors import *  # noqa: F401,F403 — the exception family is the public contract

_EXPORTS = {
    "diophantine": "ApproxInterval ContinuedFraction DiophantineVerdict LiouvilleWitness"
    " Order RealConstant approx_interval condition_B_check convergents digit_stream_from_json"
    " exp_liouville_score liouville_exponent_trend scale_witness verify_witness_rows",
    "gevrey": "GevreyCutoff GevreyWitness TrigPoly estimate_decay make_cutoff",
    "normalform": "NormalFormData apply_gauge build_normal_form conjugation_residual",
    "singular": "LaplaceProfile SingularSolution build_obstruction fit_lower_bound_power"
    " locate_laplace_profile",
    "solver": "FourierField apply_tube_operator decay_report residual solve_by_division"
    " solve_single_tube solve_system",
    "system": "SystemAnalysis SystemSpec Tube Verdict analyze average classify_system"
    " classify_vector decide sign_analysis",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*(name for name, value in globals().items() if isinstance(value, type)), *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
