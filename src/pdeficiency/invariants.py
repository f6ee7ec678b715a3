"""Euler-characteristic and homology-gradient estimates from finite-quotient
searches, the finite d_p drop step, and the power-witness search.

All searches run over kernels of maps onto catalog groups; every reported
ratio is an exact rational.
"""

from dataclasses import dataclass
from fractions import Fraction

from .abelian import abelian_invariants, d_p
from .presentation import FinitePresentation, p_deficiency
from .quotient import (
    FiniteQuotient,
    GroupCatalog,
    SearchBudget,
    describe_quotient,
    enumerate_quotients,
    evaluate,
    perm_identity,
)
from .rewrite import subgroup_presentation
from .words import Word, nu_p, p_prime_root, require_prime


@dataclass(frozen=True)
class ChiSample:
    index: int
    deficiency: Fraction
    ratio: Fraction
    description: str


@dataclass(frozen=True)
class ChiEstimate:
    """Certified lower bound for the negated p-Euler characteristic: the
    best exact ratio de(subgroup presentation)/index over examined kernels.
    """

    best_ratio: Fraction
    witness: ChiSample
    subgroups_examined: int
    exhausted: bool
    samples: tuple


def chi_p_estimate(
    pres: FinitePresentation,
    p: int,
    catalog: GroupCatalog = None,
    budget: SearchBudget = None,
) -> ChiEstimate:
    """Enumerate kernels and maximize the exact deficiency/index ratio.

    The index-1 subgroup is always included, so the result is at least the
    presentation's own p-deficiency.
    """
    require_prime(p)
    if budget is None:
        budget = SearchBudget()
    base = ChiSample(1, p_deficiency(pres, p), p_deficiency(pres, p), "index 1")
    samples = [base]
    for q in enumerate_quotients(pres, catalog, budget.max_order, budget):
        if q.order == 1:
            continue
        sub = subgroup_presentation(pres, q)
        de_sub = p_deficiency(sub, p)
        samples.append(ChiSample(q.order, de_sub, Fraction(de_sub, q.order),
                                 describe_quotient(q, pres)))
    best = max(samples, key=lambda s: s.ratio)
    return ChiEstimate(best.ratio, best, len(samples), budget.exhausted, tuple(samples))


@dataclass(frozen=True)
class GradientSample:
    index: int
    d_p: int
    ratio: Fraction
    description: str


@dataclass(frozen=True)
class GradientWindow:
    """d_p(subgroup)/index over the examined finite window of kernels; the
    asymptotic gradients are not computed, only this window is reported."""

    samples: tuple
    min_ratio: Fraction
    max_ratio: Fraction
    exhausted: bool


def gradient_window(
    pres: FinitePresentation,
    p: int,
    catalog: GroupCatalog = None,
    budget: SearchBudget = None,
) -> GradientWindow:
    require_prime(p)
    if budget is None:
        budget = SearchBudget()
    dp = d_p(abelian_invariants(pres), p)
    samples = [GradientSample(1, dp, Fraction(dp), "index 1")]
    for q in enumerate_quotients(pres, catalog, budget.max_order, budget):
        if q.order == 1:
            continue
        sub = subgroup_presentation(pres, q)
        dp_sub = d_p(abelian_invariants(sub), p)
        samples.append(GradientSample(q.order, dp_sub, Fraction(dp_sub, q.order),
                                      describe_quotient(q, pres)))
    ratios = [s.ratio for s in samples]
    return GradientWindow(tuple(samples), min(ratios), max(ratios), budget.exhausted)


@dataclass(frozen=True)
class DpDropReport:
    """d_p before and after killing the given normal generators, and the
    count ell of generators that are not p-th powers in the free group;
    the drop never exceeds ell."""

    d_before: int
    d_after: int
    ell: int
    holds: bool


def quotient_dp_drop(
    sub_pres: FinitePresentation, normal_gens, p: int
) -> DpDropReport:
    require_prime(p)
    normal_gens = list(normal_gens)
    for w in normal_gens:
        if not isinstance(w, Word) or w.n_gens != sub_pres.n_gens:
            raise ValueError("normal generators must be words over the same alphabet")
    ell = 0
    extra = []
    for w in normal_gens:
        if w.is_identity:
            continue
        extra.append(w)
        if nu_p(w, p).k == 0:  # not a p-th power in the free group
            ell += 1
    before = d_p(abelian_invariants(sub_pres), p)
    after_pres = FinitePresentation(
        sub_pres.generators, sub_pres.relators + tuple(extra)
    )
    after = d_p(abelian_invariants(after_pres), p)
    return DpDropReport(before, after, ell, after >= before - ell)


@dataclass(frozen=True)
class PowerWitness:
    """A relator r = root^exponent with the exponent prime to p whose root
    survives in a finite quotient; the kernel then has positive
    p-deficiency, certified by the exact subgroup value."""

    relator_index: int
    relator: Word
    root: Word
    exponent: int
    quotient: FiniteQuotient
    index: int
    subgroup_deficiency: Fraction


def find_power_witness(
    pres: FinitePresentation,
    p: int,
    catalog: GroupCatalog = None,
    budget: SearchBudget = None,
):
    """Search catalog quotients for a witness that some kernel has positive
    p-deficiency; requires the presentation to have zero p-deficiency.

    Returns None when the search exhausts without a witness.
    """
    require_prime(p)
    if p_deficiency(pres, p) != 0:
        raise ValueError("witness search requires a presentation of zero p-deficiency")
    if budget is None:
        budget = SearchBudget()
    roots = [p_prime_root(r, p) for r in pres.relators]
    for q in enumerate_quotients(pres, catalog, budget.max_order, budget):
        if q.order == 1:
            continue
        identity = perm_identity(q.degree)
        for i, (root, n) in enumerate(roots):
            if evaluate(q, root) == identity:
                continue
            sub = subgroup_presentation(pres, q)
            de_sub = p_deficiency(sub, p)
            if de_sub <= 0:
                raise AssertionError(
                    "internal error: witnessed kernel must have positive p-deficiency"
                )
            return PowerWitness(i, pres.relators[i], root, n, q, q.order, de_sub)
    return None
