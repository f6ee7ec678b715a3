from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdeficiency.fuchsian import FuchsianSignature, standard_presentation, volume
from pdeficiency.abelian import abelian_invariants, d_p, rank_mod_p
from pdeficiency.invariants import (
    chi_p_estimate,
    gradient_window,
    find_power_witness,
    leaf_d_p,
    quotient_dp_drop,
    relator_roots,
)
from pdeficiency.presentation import (
    FinitePresentation, p_deficiency, parse_presentation, power_up,
)
from pdeficiency.quotient import (
    SearchBudget, enumerate_quotients, table_order,
)
from pdeficiency.rewrite import subgroup_presentation
from pdeficiency.verification import (
    fox_masks, fox_rows, kernel_d_p, kernel_deficiency, transfer_terms,
)
from pdeficiency.words import Word

FREE2 = parse_presentation("< x, y | >")


def budget(order, assignments=20_000):
    return SearchBudget(max_order=order, max_assignments=assignments)


class TestKernelInvariants:
    """The transfer formula and the Fox rank against the rewritten subgroup
    presentation, which is their oracle."""

    @pytest.mark.parametrize("text", [
        "< x, y | x^6, y^12, (x*y)^12 >",
        "< x, y | x^2, y^4, (x*y)^8 >",
        "< x, y | x*y^2*x^-1*y^-1*(x*y)^6 >",
        # runs far longer than any cycle of the tables
        "< x, y | x^1001*y^-2002, y^1000 >",
    ])
    def test_match_rewriting(self, text):
        pres = parse_presentation(text)
        kernels = list(enumerate_quotients(pres, budget=budget(12)))
        assert len(kernels) > 3
        for q in kernels:
            sub = subgroup_presentation(pres, q)
            for p in (2, 3, 5):
                roots = relator_roots(pres, p)
                assert kernel_deficiency(q, transfer_terms(roots, q)) == p_deficiency(sub, p)
                assert kernel_d_p(roots, q, p) == d_p(abelian_invariants(sub), p)
                assert leaf_d_p(roots, q, p) == d_p(abelian_invariants(sub), p)

    def test_transfer_terms(self):
        # x^6 onto C2: k = 2, one class of valuation nu_2(6) - nu_2(2) = 0 of valuation nu_2(6) - nu_2(2) = 0
        pres = parse_presentation("< x | x^6 >")
        q = next(q for q in enumerate_quotients(pres, budget=SearchBudget(4))
                 if q.order == 2)
        roots = relator_roots(pres, 2)
        assert roots[0].exponent == 6 and roots[0].nu == 1 and roots[0].scale == 2
        assert transfer_terms(roots, q) == [(2, Fraction(1))]
        assert kernel_deficiency(q, transfer_terms(roots, q)) == -1


def dict_d_2(roots, q):
    """d_2 of the kernel from the dict rows and ``rank_mod_p``: the oracle
    of the bit masks."""
    d = q.order
    return d * q.n_gens - d + 1 - rank_mod_p(fox_rows(roots, q, 2), 2)


# runs longer than every cycle of a table of order at most 12, and short ones
EXPONENTS = st.sampled_from([1, -1, 2, -2, 3, -5, 13, -13, 25, -37, 144])


@st.composite
def powered_presentations(draw):
    """One to three relators u^m over two or three generators; m is often
    even, so m/k is often even too."""
    n = draw(st.integers(2, 3))
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        runs = draw(st.lists(st.tuples(st.integers(0, n - 1), EXPONENTS),
                             min_size=1, max_size=5))
        core = Word(runs, n)
        if not core.is_identity:
            relators.append(core ** draw(st.sampled_from([1, 2, 3, 4, 6])))
    return FinitePresentation(("x", "y", "z")[:n], relators)


class TestFoxMasks:
    """The table walk's F_2 rows as bit masks against its dict rows at
    p = 2; and on every search leaf at every p, the d_p that ``gradient``
    reads off the catalog group's cycle layouts and the de_p that ``chi``
    reads off its ``powers`` against the table walks."""

    def check(self, pres, primes):
        for p in primes:
            roots = relator_roots(pres, p)
            for s in chi_p_estimate(pres, p, budget=budget(12)).samples[1:]:
                q = s.quotient
                de = kernel_deficiency(q, transfer_terms(roots, q))
                assert s.deficiency == de and s.ratio == Fraction(de, s.index)
                assert leaf_d_p(roots, q, p) == kernel_d_p(roots, q, p)
                if p == 2:
                    # bit g*d + c of a mask is the parity of entry g*d + c of its row
                    assert fox_masks(roots, q) == [
                        sum(1 << col for col, x in row.items() if x % 2)
                        for row in fox_rows(roots, q, 2)]
                    assert kernel_d_p(roots, q, 2) == dict_d_2(roots, q)

    @settings(max_examples=60, deadline=None)
    @given(powered_presentations())
    def test_matches_dict_rows(self, pres):
        self.check(pres, (2,))

    @settings(max_examples=20, deadline=None)
    @given(powered_presentations())
    def test_odd_primes(self, pres):
        self.check(pres, (3, 5, 7, 13))

    def test_long_negative_runs_and_even_quotients(self):
        # x^-37 and y^25 wrap every cycle; onto C2, (x^-37*y^2)^4 has k = 2
        # and m/k = 2, so its rows vanish
        pres = parse_presentation("< x, y | (x^-37*y^2)^4, y^25*x^-13*y^-2 >")
        root = relator_roots(pres, 2)[0]
        assert any(root.exponent // table_order(q, root.runs) == 2
                   for q in enumerate_quotients(pres, budget=SearchBudget(12)))
        self.check(pres, (2, 3, 5, 7, 13))


class TestChiEstimate:
    def test_free_group_all_ratios_one(self):
        est = chi_p_estimate(FREE2, 2, budget=budget(6))
        assert est.best_ratio == 1
        assert all(s.ratio == 1 for s in est.samples)
        assert est.subgroups_examined == len(est.samples)
        assert not est.exhausted

    def test_surface_group_capped_by_volume(self):
        surface = standard_presentation(FuchsianSignature(2))
        est = chi_p_estimate(surface, 2, budget=budget(4))
        assert est.samples[0].index == 1
        assert est.samples[0].ratio == 2
        assert all(s.ratio <= volume(FuchsianSignature(2)) for s in est.samples)
        assert est.best_ratio == 2

    def test_zero_deficiency_example(self):
        pres = parse_presentation("< x,y,z | x^2,y^4,z^4,x*y*z >")
        est = chi_p_estimate(pres, 2, budget=budget(4))
        assert est.best_ratio >= 0

    def test_monotone_in_budget(self):
        pres = parse_presentation("< x, y | x^2, y^2 >")
        small = chi_p_estimate(pres, 2, budget=budget(2))
        large = chi_p_estimate(pres, 2, budget=budget(8))
        assert large.best_ratio >= small.best_ratio

    def test_exhaustion_reported(self):
        est = chi_p_estimate(FREE2, 2, budget=SearchBudget(max_order=6, max_assignments=5))
        assert est.exhausted


class TestGradientWindow:
    def test_free_group_ratios(self):
        window = gradient_window(FREE2, 2, budget=budget(6))
        for s in window.samples:
            # a free subgroup of index n has rank 1 + n
            assert s.d_p == 1 + s.index if s.index > 1 else s.d_p == 2
            if s.index > 1:
                assert s.ratio == Fraction(s.index + 1, s.index)
        assert window.max_ratio == 2  # the index-1 sample: d_2(F_2) = 2

    def test_dihedral_kernel(self):
        dinf = parse_presentation("< x, y | x^2, y^2 >")
        window = gradient_window(dinf, 2, budget=budget(2))
        # the kernel generated by xy is infinite cyclic: d_2 = 1 at index 2
        assert any(s.index == 2 and s.d_p == 1 and s.ratio == Fraction(1, 2)
                   for s in window.samples)


class TestQuotientDpDrop:
    def test_square_imposes_no_condition(self):
        report = quotient_dp_drop(FREE2, [FREE2.word("x^2")], 2)
        assert (report.d_before, report.d_after, report.ell) == (2, 2, 0)
        assert report.holds

    def test_fourth_power(self):
        report = quotient_dp_drop(FREE2, [FREE2.word("x^4")], 2)
        assert report.ell == 0
        assert report.d_after == report.d_before == 2

    def test_full_kill(self):
        report = quotient_dp_drop(FREE2, [FREE2.word("x"), FREE2.word("y")], 2)
        assert (report.d_before, report.d_after, report.ell) == (2, 0, 2)
        assert report.holds

    def test_identity_words_ignored(self):
        report = quotient_dp_drop(FREE2, [Word.identity(2)], 2)
        assert report.ell == 0
        assert report.d_after == report.d_before

    def test_alphabet_checked(self):
        with pytest.raises(ValueError):
            quotient_dp_drop(FREE2, [Word.identity(3)], 2)


class TestPowerWitness:
    def test_demo_instance(self):
        pres = parse_presentation("< x, y | x^6, y^12, (x*y)^12 >")
        witness = find_power_witness(pres, 2, budget=budget(12))
        assert witness is not None
        assert witness.exponent % 2 == 1 and witness.exponent > 1
        assert witness.subgroup_deficiency > 0
        assert witness.index > 1

    def test_no_witness_when_roots_are_p_powers(self):
        pres = parse_presentation("< x,y,z | x^2,y^4,z^4,x*y*z >")
        witness = find_power_witness(pres, 2, budget=budget(8, 100_000))
        assert witness is None

    def test_powered_up_relators_yield_witness(self):
        pres = power_up(parse_presentation("< x,y,z | x^2,y^4,z^4,x*y*z >"), 3)
        witness = find_power_witness(pres, 2, budget=budget(12))
        assert witness is not None
        assert witness.exponent == 3

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError, match="zero p-deficiency"):
            find_power_witness(FREE2, 2)
