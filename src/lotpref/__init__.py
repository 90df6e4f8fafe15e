"""Exact-arithmetic toolkit for preferences over finite lotteries.

Lotteries are probability vectors with Fraction weights.  The package
elicits linear representations from indifference data, certifies
indifference of affine combinations step by step, constructs spanning
indifferent sets, and hunts for axiom violations over finite grids with
replayable witnesses.  The scans run in pure Python over integer
encodings: on level kernels wherever a proof or a coordinate threshold
answers, else on a direct search with the same first hits.
"""

from .axioms import (
    CONTINUITY_KINDS,
    DEFAULT_DEPTH,
    ArchimedeanWitness,
    AxiomVerdict,
    BetweennessWitness,
    Budget,
    ConvexityWitness,
    CycleWitness,
    IndependenceWitness,
    IPExhausted,
    IPFound,
    LineOrderWitness,
    MixtureWitness,
    OpennessWitness,
    SolvabilityScanWitness,
    SolveContractWitness,
    TranslationWitness,
    check_continuity,
    check_convexity,
    check_independence,
    check_ip,
    check_line_order,
    check_translation,
    check_weak_order,
)
from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    EmptyInput,
    InconsistentStrictPair,
    LengthMismatch,
    LotprefError,
    NegativeWeight,
    NoSolveCapability,
    NotInAffineHull,
    NotInSimplex,
    PreconditionViolated,
    RankDeficient,
    SpaceMismatch,
    SumNotOne,
    UnconfirmedHit,
    UnorientedRepresentation,
    WrongCount,
)
from .geometry import (
    Hyperplane,
    affine_coefficients,
    affine_rank,
    hyperplane_from_points,
    kernel_basis,
)
from .grids import (
    GridSpec,
    dyadic_alphas,
    enumerate_grid,
    fixed_denominator_lattice,
    rationals_between,
)
from .lotteries import (
    EmbeddedPoint,
    Lottery,
    OutcomeSpace,
    as_fraction,
    degenerate,
    embed,
    make_lottery,
    mix,
    unembed,
    uniform,
)
from .oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    PreferenceOracle,
    RepresentedOracle,
    UtilityFunction,
    expected_utility,
)
from .rationals import format_rational, parse_rational
from .representation import (
    CertificateReplay,
    ElicitationInput,
    IndifferenceCertificate,
    KernelConstruction,
    MixStep,
    Representation,
    classify,
    construct_ip_via_solvability,
    elicit,
    generate_indifferent_points,
    indifference_certificate,
    replay_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lotteries
    "OutcomeSpace", "Lottery", "EmbeddedPoint", "as_fraction",
    "make_lottery", "degenerate", "uniform", "mix", "embed", "unembed",
    # rationals
    "parse_rational", "format_rational",
    # geometry
    "Hyperplane", "hyperplane_from_points", "affine_rank",
    "affine_coefficients", "kernel_basis",
    # oracles
    "ComparisonResult", "UtilityFunction", "expected_utility",
    "PreferenceOracle", "ExpectedUtilityOracle", "RepresentedOracle",
    "LexicographicOracle", "HybridExampleOracle", "MajorityOracle",
    # grids
    "GridSpec", "enumerate_grid", "fixed_denominator_lattice",
    "dyadic_alphas", "rationals_between",
    # representation
    "ElicitationInput", "Representation", "KernelConstruction", "MixStep",
    "IndifferenceCertificate", "CertificateReplay", "elicit", "classify",
    "generate_indifferent_points", "construct_ip_via_solvability",
    "indifference_certificate", "replay_certificate",
    # axioms
    "DEFAULT_DEPTH", "CONTINUITY_KINDS", "Budget", "AxiomVerdict",
    "CycleWitness", "IndependenceWitness", "BetweennessWitness",
    "ConvexityWitness", "TranslationWitness", "LineOrderWitness",
    "MixtureWitness", "ArchimedeanWitness", "SolvabilityScanWitness",
    "SolveContractWitness", "OpennessWitness", "IPFound", "IPExhausted",
    "check_weak_order", "check_independence", "check_ip",
    "check_continuity", "check_convexity", "check_translation",
    "check_line_order",
    # errors
    "LotprefError", "NegativeWeight", "SumNotOne", "LengthMismatch",
    "AlphaOutOfRange", "SpaceMismatch", "NotInSimplex", "EmptyInput",
    "DimensionMismatch", "RankDeficient", "WrongCount",
    "NoSolveCapability", "PreconditionViolated", "InconsistentStrictPair",
    "NotInAffineHull", "UnorientedRepresentation", "UnconfirmedHit",
]
