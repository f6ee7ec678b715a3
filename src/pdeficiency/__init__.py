"""Exact-arithmetic toolkit for p-deficiency of finitely presented groups:
word valuations, presentation parsing, Smith normal form bounds, subgroup
presentations through finite quotients, Fuchsian signature calculus and
Euler-characteristic estimates.
"""

from .abelian import (
    AbelianInvariants,
    IntMatrix,
    abelian_invariants,
    abelian_p_deficiency_group,
    abelian_p_deficiency_presentation,
    d_p,
    exponent_columns,
    smith_normal_form,
    upper_bound_de,
)
from .fuchsian import (
    DeficiencyResult,
    EllipticAction,
    FuchsianSignature,
    classify,
    de_exact,
    de_standard,
    de_upper,
    kernel_construction,
    parse_signature,
    singerman_transfer,
    standard_presentation,
    volume,
)
from .invariants import (
    ChiEstimate,
    GradientWindow,
    SizeBound,
    chi_p_estimate,
    gradient_window,
    find_power_witness,
    p_size_bound,
    quotient_dp_drop,
)
from .presentation import (
    FinitePresentation,
    ParseError,
    PresentationError,
    p_deficiency,
    p_prime_root_presentation,
    parse_presentation,
    parse_word,
    power_up,
    word_to_text,
)
from .quotient import (
    CatalogGroup,
    FiniteQuotient,
    SearchBudget,
    default_catalog,
    enumerate_quotients,
    kernel_index,
    parse_catalog_manifest,
)
from .rewrite import (
    SchreierData,
    basis_words,
    rewrite_word,
    schreier,
    subgroup_presentation,
)
from .words import (
    RootDecomposition,
    Valuation,
    Word,
    maximal_root,
    nu_p,
    nu_p_int,
    p_prime_root,
)

__version__ = "0.1.0"


def __getattr__(name):
    """The oracles exported from ``verification``, which is imported on
    first use: only ``pdef verify`` runs it."""
    if name in ("centralizer_index", "conjugate_class_reps", "evaluate", "exponent_matrix",
                "is_quotient_of", "order_of_image", "supermultiplicity_check"):
        from . import verification
        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
