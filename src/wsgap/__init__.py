"""Weierstrass semigroups, gaps and pure gaps at several points.

Exact combinatorics for curves with a plane model f(y) = g(x), deg f = a,
deg g = b, gcd(a, b) = 1: generalized-semigroup membership, dimensions of
the attached function spaces, absolute and relative maximal elements,
gap and pure-gap enumeration by independent cross-checking methods, the
two-point gap pairing, and a conformance harness replaying the worked
examples for the Hermitian and norm-trace presets.
"""

__version__ = "0.1.0"

import importlib

# Public names by defining module.  They are looked up on first access
# (PEP 562), so that importing the package, ``wsgap.oracle`` or the
# command line loads only the modules in use.
_EXPORTS = {
    "core": (
        "Box", "BadPointCountError", "CurveParams", "EmptyInputError",
        "FieldTooSmallWarning", "NotCoprimeError", "WsgapError", "box_tuples",
        "curve_params", "glb", "hermitian_params", "is_prime_power", "lub",
        "norm_trace_params", "reduce_to_region", "theta_vector", "TupleRows",
    ),
    "maximals": (
        "MaximalSet", "absolute_maximals_region", "expand_in_box", "expand_nonneg",
        "expand_positive", "lambda_nonneg", "relative_maximals_region",
    ),
    "oracle": (
        "LocalProfile", "RelMaxEquivalence", "check_relmax_equivalence", "dim_L",
        "is_absolute_maximal", "is_maximal", "is_member", "is_relative_maximal",
        "local_absolute_maximals", "nabla_J_empty", "per_coord_max",
    ),
    "gapsets": (
        "GapReport", "SigmaTable", "candidate_superset", "gap_counts", "gaps",
        "nabla_bar_nonneg", "numerical_gaps", "pure_gap_witness", "pure_gaps",
        "sigma_gap_set", "sigma_literal", "sigma_pair", "sigma_pure_gap_set",
    ),
    "verify": (
        "CheckResult", "ConformanceReport", "Fixture", "builtin_fixtures",
        "check_definition_level", "run_fixtures", "run_oracle_invariants",
        "run_property_sweep", "sweep_cells",
    ),
}
_SUBMODULES = ("core", "fixtures", "gapsets", "maximals", "oracle", "verify")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value
