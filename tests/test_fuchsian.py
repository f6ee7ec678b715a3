from fractions import Fraction

import pytest

from pdeficiency.fuchsian import (
    EllipticAction,
    FuchsianSignature,
    classify,
    de_exact,
    de_standard,
    de_upper,
    format_signature,
    parse_signature,
    singerman_transfer,
    standard_presentation,
    volume,
)
from pdeficiency.presentation import p_deficiency
from pdeficiency.quotient import FiniteQuotient, parse_perm, perm_identity
from pdeficiency.rewrite import subgroup_presentation
from pdeficiency.verification import kernel_construction, upper_bound_de

TRIANGLE = FuchsianSignature(0, (6, 12, 12))
HURWITZ = FuchsianSignature(0, (2, 3, 7))
SPHERE444 = FuchsianSignature(0, (4, 4, 4))
GENUS2 = FuchsianSignature(2)

SAMPLE_SIGS = [
    TRIANGLE, HURWITZ, SPHERE444, GENUS2,
    FuchsianSignature(1, (2,)), FuchsianSignature(1, (7,)),
    FuchsianSignature(0, (2, 4, 8)), FuchsianSignature(0, (2, 3, 3, 3)),
    FuchsianSignature(0, (2, 6, 6)), FuchsianSignature(3),
]


class TestConstruction:
    def test_hyperbolicity_gate(self):
        with pytest.raises(ValueError, match="hyperbolic"):
            FuchsianSignature(1)  # torus, volume 0
        with pytest.raises(ValueError, match="hyperbolic"):
            FuchsianSignature(0, (3, 3, 3))  # Euclidean
        with pytest.raises(ValueError, match="hyperbolic"):
            FuchsianSignature(0, (2, 3, 5))  # spherical

    def test_period_validation(self):
        with pytest.raises(ValueError):
            FuchsianSignature(0, (1, 4, 4))

    def test_periods_stored_sorted(self):
        assert FuchsianSignature(0, (12, 6, 12)).periods == (6, 12, 12)

    def test_parse_format(self):
        assert parse_signature("(0; 6,12,12)") == TRIANGLE
        assert parse_signature("(2;)") == GENUS2
        assert parse_signature("(2)") == GENUS2
        assert parse_signature(format_signature(HURWITZ)) == HURWITZ
        with pytest.raises(ValueError):
            parse_signature("(0; a)")
        with pytest.raises(ValueError):
            parse_signature("0; 2,3,7")


class TestStandardPresentation:
    def test_triangle(self):
        pres = standard_presentation(TRIANGLE)
        assert pres.to_text() == "< x1, x2, x3 | x1^6, x2^12, x3^12, x1*x2*x3 >"

    def test_genus_two(self):
        pres = standard_presentation(GENUS2)
        assert pres.generators == ("u1", "v1", "u2", "v2")
        assert len(pres.relators) == 1
        assert pres.relators[0] == pres.word("u1*v1*u1^-1*v1^-1*u2*v2*u2^-1*v2^-1")

    def test_shape(self):
        for sig in SAMPLE_SIGS:
            pres = standard_presentation(sig)
            assert pres.n_gens == len(sig.periods) + 2 * sig.genus
            assert len(pres.relators) == len(sig.periods) + 1

    def test_deficiency_matches_formula(self):
        for sig in SAMPLE_SIGS:
            for p in (2, 3, 5):
                assert p_deficiency(standard_presentation(sig), p) == de_standard(sig, p)


class TestVolume:
    def test_examples(self):
        assert volume(TRIANGLE) == Fraction(2, 3)
        assert volume(GENUS2) == 2
        assert volume(HURWITZ) == Fraction(1, 42)


class TestDeficiencyBounds:
    def test_de_standard_examples(self):
        assert de_standard(TRIANGLE, 2) == 0
        assert de_standard(TRIANGLE, 3) == 0
        assert de_standard(GENUS2, 5) == 2

    def test_de_upper_examples(self):
        assert de_upper(TRIANGLE, 2) == Fraction(1, 4)
        assert de_upper(GENUS2, 3) == 3
        assert de_upper(HURWITZ, 2) == -1

    def test_upper_matches_abelianization(self):
        for sig in SAMPLE_SIGS:
            for p in (2, 3):
                assert de_upper(sig, p) == upper_bound_de(standard_presentation(sig), p)

    def test_sandwich(self):
        for sig in SAMPLE_SIGS:
            for p in (2, 3, 5):
                lower = de_standard(sig, p)
                upper = de_upper(sig, p)
                assert lower <= upper <= lower + 1


class TestClassify:
    def test_examples(self):
        assert classify(FuchsianSignature(1, (7,)), 5) == "a"
        assert classify(TRIANGLE, 2) == "d"
        assert classify(TRIANGLE, 3) == "b"
        assert classify(HURWITZ, 2) == "none"
        assert classify(FuchsianSignature(0, (3, 3, 4)), 3) == "none"
        assert classify(FuchsianSignature(0, (2, 2, 2, 2, 2)), 2) == "c"
        assert classify(SPHERE444, 2) == "d"

    def test_de_exact(self):
        result = de_exact(TRIANGLE, 2)
        assert result.case == "d" and result.value == 0

        negative = de_exact(FuchsianSignature(0, (3, 3, 4)), 3)
        assert negative.negative
        assert negative.value is None
        assert negative.lower == de_standard(FuchsianSignature(0, (3, 3, 4)), 3)
        assert negative.upper == de_upper(FuchsianSignature(0, (3, 3, 4)), 3)

        quarter = de_exact(SPHERE444, 2)
        assert quarter.case == "d" and quarter.value == Fraction(1, 4)


class TestSingermanTransfer:
    def test_444_degree_two(self):
        act = EllipticAction(
            2,
            (parse_perm("(1 2)", 2), parse_perm("(1 2)", 2), perm_identity(2)),
            (),
        )
        assert singerman_transfer(SPHERE444, act) == FuchsianSignature(0, (2, 2, 4, 4))

    def test_volume_scales(self):
        act = EllipticAction(
            2,
            (parse_perm("(1 2)", 2), parse_perm("(1 2)", 2), perm_identity(2)),
            (),
        )
        new = singerman_transfer(SPHERE444, act)
        assert volume(new) == 2 * volume(SPHERE444)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="transitive"):
            singerman_transfer(
                SPHERE444,
                EllipticAction(2, (perm_identity(2),) * 3, ()),
            )
        with pytest.raises(ValueError, match="product"):
            singerman_transfer(
                SPHERE444,
                EllipticAction(
                    2, (parse_perm("(1 2)", 2), perm_identity(2), perm_identity(2)), ()
                ),
            )
        with pytest.raises(ValueError, match="divide"):
            singerman_transfer(
                SPHERE444,
                EllipticAction(
                    3,
                    (parse_perm("(1 2 3)", 3), parse_perm("(1 3 2)", 3), perm_identity(3)),
                    (),
                ),
            )
        with pytest.raises(ValueError, match="elliptic"):
            singerman_transfer(SPHERE444, EllipticAction(2, (perm_identity(2),), ()))


class TestKernelConstruction:
    def test_case_a(self):
        sig = FuchsianSignature(1, (2, 3))
        act, new = kernel_construction(sig, 2, "a")
        assert act.degree == 4
        assert new == FuchsianSignature(1, (2, 2, 2, 2, 3, 3, 3, 3))
        assert new.genus == 4 * sig.genus - 3

    def test_case_d(self):
        act, new = kernel_construction(SPHERE444, 2, "d")
        assert act.degree == 2
        assert new == FuchsianSignature(0, (2, 2, 4, 4))
        assert de_standard(new, 2) == 2 * de_standard(SPHERE444, 2)

    def test_case_b_drops_trivial_periods(self):
        sig = FuchsianSignature(0, (2, 3, 3, 3))
        act, new = kernel_construction(sig, 3, "b")
        assert new == FuchsianSignature(0, (2, 2, 2, 3, 3, 3))

    def test_case_c(self):
        sig = FuchsianSignature(0, (2, 2, 2, 2, 2))
        act, new = kernel_construction(sig, 2, "c")
        assert volume(new) == 2 * volume(sig)
        assert de_standard(new, 2) == 2 * de_standard(sig, 2)

    def test_not_applicable(self):
        with pytest.raises(ValueError, match="not applicable"):
            kernel_construction(HURWITZ, 2, "a")
        with pytest.raises(ValueError, match="not applicable"):
            kernel_construction(SPHERE444, 2, "c")

    def test_scaling_across_cases(self):
        cases = [
            (FuchsianSignature(2), 3, "a"),
            (FuchsianSignature(1, (4, 4)), 2, "a"),
            (FuchsianSignature(0, (3, 3, 3, 3)), 3, "b"),
            (FuchsianSignature(0, (2, 4, 4, 6, 6)), 2, "c"),
            (TRIANGLE, 2, "d"),
        ]
        for sig, p, case in cases:
            act, new = kernel_construction(sig, p, case)
            assert volume(new) == act.degree * volume(sig)
            assert de_standard(new, p) == act.degree * de_standard(sig, p)

    def test_case_c_descent_has_two_even_periods(self):
        # periods 6, 6 are even but not divisible by 4: the index-2 kernel
        # keeps exactly two even periods
        sig = FuchsianSignature(0, (2, 6, 6))
        assert classify(sig, 2) == "none"
        act = EllipticAction(
            2,
            (perm_identity(2), parse_perm("(1 2)", 2), parse_perm("(1 2)", 2)),
            (),
        )
        new = singerman_transfer(sig, act)
        assert new == FuchsianSignature(0, (2, 2, 3, 3))
        assert sum(1 for e in new.periods if e % 2 == 0) == 2


class TestCrossCheckWithRewriting:
    def test_subgroup_presentation_beats_transferred_value(self):
        # the rewritten kernel presentation can only improve on the
        # transferred standard value
        for sig, p, case in [
            (SPHERE444, 2, "d"),
            (FuchsianSignature(0, (3, 3, 3, 3)), 3, "b"),
            (FuchsianSignature(1, (2,)), 2, "a"),
        ]:
            act, new = kernel_construction(sig, p, case)
            pres = standard_presentation(sig)
            q = FiniteQuotient(act.all_perms())
            sub = subgroup_presentation(pres, q)
            assert p_deficiency(sub, p) >= de_standard(new, p)
