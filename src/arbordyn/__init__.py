"""Exact arithmetic for bicritical rational maps over Q.

Iterate ladders, good reduction, critical-point normal forms, rigid
divisibility sequences, and recomputable certificates that preimage-field
towers attain full degree.
"""

from .errors import (
    ArborDynError,
    BadReductionError,
    CompositeModulusError,
    CriticalFieldError,
    DegenerateMapError,
    DegreeTooSmallError,
    GrowthCapError,
    HypothesisError,
    InvariantViolationError,
    NotBicriticalError,
    NotDefinedOverQError,
    ZeroPolynomialError,
)
from .factorint import (
    FactorBudget,
    Factorization,
    divisors,
    factor_integer,
    is_perfect_square,
    is_probable_prime,
    mobius,
)
from .ffpoly import PrimeFieldPoly, ffpoly_is_irreducible
from .intpoly import IntPoly, discriminant, poly_gcd, resultant, squarefree_part
from .quadext import QuadExtElem
from .ratmap import (
    INF,
    IterateLadder,
    MobiusTransform,
    OrbitRecord,
    P1Point,
    RationalMap,
)
from .reduction import (
    ModOrbit,
    ReducedMap,
    bad_reduction_primes,
    good_reduction_origin_valuations,
    has_good_reduction,
    normalize_pair,
    orbit_mod_p,
    reduce_mod_p,
)
from .critical import (
    CriticalData,
    NormalForm,
    OrbitRelation,
    QuadraticForm,
    critical_orbit_relation,
    critical_points,
    is_bicritical,
    normal_forms_conjugate,
    quadratic_conjugate_form,
    ramification_index,
    to_normal_form,
    wronskian,
)
from .divisibility import (
    RigidityReport,
    SeqBundle,
    beta,
    f_sequence,
    main_family,
    primitive_part_valuations,
    rad_divisibility_conditions,
    sequence_bundle,
    sign_check,
    theta,
    verify_origin_split,
    verify_rigid_divisibility,
)
from .galois import (
    HypothesisReport,
    LevelEvidence,
    MaximalityCertificate,
    alpha_parametrization,
    discriminant_recursion,
    eventual_stability_check,
    hypothesis_witnesses,
    irreducibility_cascade,
    maximality_certificate,
    mod_p_irreducible_witness,
    nonsquarefree_theta_evidence,
    squarefree_theta_evidence,
    verify_certificate,
)
from .parsing import ParseError, parse_map, parse_point, parse_poly

__version__ = "0.1.0"
