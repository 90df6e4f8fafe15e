"""The package's public names: ``lotpref.__all__`` is built from the
modules' own ``__all__`` lists, so a name added to or dropped from one
of them changes the package surface; this test pins it."""

import lotpref

PUBLIC = [
    "AlphaOutOfRange", "ArchimedeanWitness", "AxiomVerdict", "BetweennessWitness",
    "Budget", "CONTINUITY_KINDS", "CertificateReplay", "ComparisonResult",
    "ConvexityWitness", "CycleWitness", "DEFAULT_DEPTH", "DimensionMismatch",
    "ElicitationInput", "EmbeddedPoint", "EmptyInput", "ExpectedUtilityOracle",
    "GridSpec", "HybridExampleOracle", "Hyperplane", "IPExhausted", "IPFound",
    "InconsistentStrictPair", "IndependenceWitness", "IndifferenceCertificate",
    "KernelConstruction", "LengthMismatch", "LexicographicOracle",
    "LineOrderWitness", "LotprefError", "Lottery", "MajorityOracle", "MixStep",
    "MixtureWitness", "NegativeWeight", "NoSolveCapability", "NotInAffineHull",
    "NotInSimplex", "OpennessWitness", "OutcomeSpace", "PreconditionViolated",
    "PreferenceOracle", "RankDeficient", "Representation", "RepresentedOracle",
    "SolvabilityScanWitness", "SolveContractWitness", "SpaceMismatch", "SumNotOne",
    "TranslationWitness", "UnconfirmedHit", "UnorientedRepresentation",
    "UtilityFunction", "WrongCount", "__version__", "affine_coefficients",
    "affine_rank", "as_fraction", "check_continuity", "check_convexity",
    "check_independence", "check_ip", "check_line_order", "check_translation",
    "check_weak_order", "classify", "construct_ip_via_solvability", "degenerate",
    "dyadic_alphas", "elicit", "embed", "enumerate_grid", "expected_utility",
    "fixed_denominator_lattice", "format_rational", "generate_indifferent_points",
    "hyperplane_from_points", "indifference_certificate", "kernel_basis",
    "make_lottery", "mix", "parse_rational", "rationals_between",
    "replay_certificate", "unembed", "uniform",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 85
    assert sorted(lotpref.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in lotpref.__all__:
        assert getattr(lotpref, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from lotpref import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
