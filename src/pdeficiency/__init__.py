"""Exact-arithmetic toolkit for p-deficiency of finitely presented groups:
word valuations, presentation parsing, Smith normal form bounds, subgroup
presentations through finite quotients, Fuchsian signature calculus and
Euler-characteristic estimates.

Importing the package imports none of its submodules: an exported name is
read from its module, which ``_EXPORTS`` names, on first use, and that module
is imported then.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys((
        "AbelianInvariants", "IntMatrix", "abelian_invariants", "abelian_p_deficiency_group",
        "abelian_p_deficiency_presentation", "d_p", "exponent_columns", "smith_normal_form",
    ), "abelian"),
    **dict.fromkeys((
        "DeficiencyResult", "EllipticAction", "FuchsianSignature", "classify", "de_exact",
        "de_standard", "de_upper", "parse_signature", "singerman_transfer",
        "standard_presentation", "volume",
    ), "fuchsian"),
    **dict.fromkeys((
        "KernelSample", "KernelWindow", "SizeBound", "chi_p_estimate", "gradient_window",
        "find_power_witness", "p_size_bound",
    ), "invariants"),
    **dict.fromkeys((
        "FinitePresentation", "ParseError", "PresentationError", "p_deficiency",
        "parse_presentation", "parse_word", "power_up", "word_to_text",
    ), "presentation"),
    **dict.fromkeys((
        "CatalogGroup", "FiniteQuotient", "SearchBudget", "default_catalog",
        "enumerate_quotients", "kernel_index", "parse_catalog_manifest",
    ), "quotient"),
    **dict.fromkeys((
        "SchreierData", "basis_words", "rewrite_word", "schreier", "subgroup_presentation",
    ), "rewrite"),
    **dict.fromkeys((
        "RootDecomposition", "Valuation", "Word", "maximal_root", "nu_p", "nu_p_int",
        "p_prime_root",
    ), "words"),
    # the oracles, bounds and constructions that only ``pdef verify`` runs
    **dict.fromkeys((
        "centralizer_index", "conjugate_class_reps", "evaluate", "exponent_matrix",
        "is_quotient_of", "kernel_construction", "order_of_image",
        "p_prime_root_presentation", "quotient_dp_drop", "supermultiplicity_check",
        "upper_bound_de",
    ), "verification"),
}

__all__ = tuple(_EXPORTS)


def __getattr__(name):
    """An exported name, read from its module; the first use imports it."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
