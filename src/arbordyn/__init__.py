"""Exact arithmetic for bicritical rational maps over Q.

Iterate ladders, good reduction, critical-point normal forms, rigid
divisibility sequences, and recomputable certificates that preimage-field
towers attain full degree.

Importing the package loads none of its modules: each name below, and each
submodule, is imported on first use (PEP 562), so a process pays only for
the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# Defining module -> the public names it exports here.
_EXPORTS = {
    "errors": (
        "ArborDynError", "BadReductionError", "CompositeModulusError",
        "DegenerateMapError", "DegreeTooSmallError", "GrowthCapError",
        "InvariantViolationError", "NotBicriticalError", "NotDefinedOverQError",
        "ZeroPolynomialError",
    ),
    "factorint": (
        "FactorBudget", "Factorization", "factor_each", "factor_integer",
        "is_perfect_square", "is_probable_prime",
    ),
    "ffpoly": ("PrimeFieldPoly", "ffpoly_is_irreducible"),
    "intpoly": ("IntPoly", "resultant"),
    "quadext": ("QuadExtElem",),
    "ratmap": ("INF", "MobiusTransform", "OrbitRecord", "P1Point", "RationalMap"),
    "reduction": (
        "ModOrbit", "ReducedMap", "bad_reduction_primes", "has_good_reduction",
        "orbit_mod_p", "reduce_mod_p",
    ),
    "critical": (
        "CriticalData", "NormalForm", "OrbitRelation", "critical_orbit_relation",
        "critical_points", "ramification_index", "to_normal_form", "wronskian",
    ),
    "divisibility": (
        "RigidityReport", "f_sequence", "main_family", "theta",
        "verify_rigid_divisibility",
    ),
    "galois": (
        "HypothesisReport", "LevelEvidence", "MaximalityCertificate",
        "alpha_parametrization", "hypothesis_witnesses", "maximality_certificate",
        "mod_p_irreducible_witness", "verify_certificate",
    ),
    "parsing": ("ParseError", "parse_map", "parse_point", "parse_poly"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"fieldpoly"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines ``name`` (or the submodule ``name``) on first use."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
