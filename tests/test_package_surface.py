"""The package's public names: ``lotpref.__all__`` is built from the
modules' own ``__all__`` lists, so a name added to or dropped from one
of them changes the package surface; this test pins it.  Every other
top-level function and class must have a caller in the package, and
every imported name a reader in its module."""

import ast
import importlib
from pathlib import Path

import lotpref

SRC = Path(lotpref.__file__).parent

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


def modules():
    """(source lines, tree, module) for each module of the package."""
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = importlib.import_module(
            ".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        yield text.splitlines(), ast.parse(text), module


def test_every_top_level_definition_is_public_or_referenced():
    # A top-level def or class that no module exports and no code in
    # the package names is dead: nothing can reach it but a test.
    found = list(modules())
    referenced = set()
    for _, tree, _ in found:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update(filter(None, (node.name, node.asname)))
    dead = []
    for _, tree, module in found:
        exported = set(getattr(module, "__all__", ()))
        dead += [f"{module.__name__}.{node.name}" for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name not in exported and node.name not in referenced]
    assert dead == []


def test_every_import_is_used_or_exported():
    # An imported name that its module neither reads nor lists in
    # __all__ is dead weight; a line marked "# noqa: F401" keeps one on
    # purpose (cli.parse_lottery_field, for the benchmark's tracer).
    unused = []
    for lines, tree, module in modules():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read.update(getattr(module, "__all__", ()))
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if (name != "*" and name not in read
                        and "# noqa: F401" not in lines[alias.lineno - 1]):
                    unused.append(f"{module.__name__}:{alias.lineno} {name}")
    assert unused == []
