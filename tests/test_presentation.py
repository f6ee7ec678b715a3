from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pdeficiency.presentation import (
    FinitePresentation,
    ParseError,
    PresentationError,
    p_deficiency,
    p_prime_root_presentation,
    parse_presentation,
    parse_word,
    power_up,
)
from pdeficiency.words import Word


class TestParse:
    def test_generalized_triangle(self):
        pres = parse_presentation("< x, y | x^2, y^5, (x*y)^5 >")
        assert pres.generators == ("x", "y")
        assert len(pres.relators) == 3
        assert pres.relators[0] == Word(((0, 2),), 2)
        assert pres.relators[2] == Word(((0, 1), (1, 1)) * 5, 2)

    def test_free_group(self):
        pres = parse_presentation("< x | >")
        assert pres.generators == ("x",)
        assert pres.relators == ()

    def test_chained_equalities_with_one(self):
        pres = parse_presentation("< x,y,z | x^2=y^4=z^4=x*y*z=1 >")
        assert [r for r in pres.relators] == [
            pres.word("x^2"), pres.word("y^4"), pres.word("z^4"), pres.word("x*y*z"),
        ]

    def test_chain_without_one_is_pairwise(self):
        pres = parse_presentation("< x, y | x^2 = y^3 >")
        assert pres.relators == (pres.word("x^2*y^-3"),)

    def test_star_optional(self):
        pres = parse_presentation("< x, y | (x y)^2, x y^-1 x >")
        assert pres.relators[0] == pres.word("(x*y)^2")
        assert pres.relators[1] == pres.word("x*y^-1*x")

    def test_semicolon_and_trailing_separator(self):
        pres = parse_presentation("< x, y | x^2; y^2, >")
        assert len(pres.relators) == 2

    def test_literal_one_not_at_end(self):
        pres = parse_presentation("< x, y | x^2 = 1 = y^2 >")
        assert pres.relators == (pres.word("x^2"), pres.word("y^2"))

    def test_nested_parens_and_negative_exponents(self):
        pres = parse_presentation("< x, y | ((x*y^-2)^2)^3 >")
        assert pres.relators[0] == pres.word("x*y^-2") ** 6

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("< x, y | x^2 ) >")
        assert "position" in str(exc.value)

    def test_unknown_generator(self):
        with pytest.raises(ParseError, match="unknown generator 'q'"):
            parse_presentation("< x, y | q^2 >")

    def test_trivial_relator_rejected(self):
        with pytest.raises(ParseError, match="trivial relator"):
            parse_presentation("< x | x*x^-1 >")
        with pytest.raises(ParseError, match="trivial relator"):
            parse_presentation("< x | x = x >")
        with pytest.raises(ParseError, match="trivial relator"):
            parse_presentation("< x | 1 >")

    def test_duplicate_generator(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_presentation("< x, x | >")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_presentation("< x | > junk")

    def test_constructor_validation(self):
        with pytest.raises(PresentationError):
            FinitePresentation(("x",), (Word.identity(1),))
        with pytest.raises(PresentationError):
            FinitePresentation(("x", "x"), ())
        with pytest.raises(PresentationError):
            FinitePresentation(("1bad",), ())

    def test_parse_word_standalone(self):
        assert parse_word("x^2*y^-3*x", ("x", "y")) == Word(
            ((0, 2), (1, -3), (0, 1)), 2
        )

    def test_factors_reduce_like_letters(self):
        pres = parse_presentation("< x, y | " + "*".join(["x*y^-1"] * 4000) + " >")
        assert pres.relators == (Word.from_letters([1, -2] * 4000, 2),)
        assert parse_word("x*y*y^-1*x^-1", ("x", "y")) == Word.from_letters([], 2)
        # y*(x*y^-1)^2*y^-1 is y x y^-1 x y^-1 y^-1; its inverse is written twice
        nested = parse_word("x*(y*(x*y^-1)^2*y^-1)^-2*x^-1", ("x", "y"))
        assert nested == Word.from_letters([1] + [2, 2, -1, 2, -1, -2] * 2 + [-1], 2)


class TestRunLimit:
    def test_power_of_many_runs_refused_at_its_exponent(self):
        text = "< x, y | (x*y)^300000000 >"
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert exc.value.position == text.index("300000000")
        assert "more than 1000000 runs" in str(exc.value)

    def test_bound_counts_the_cyclic_core(self):
        # a single-run core stays one run, however large the exponent
        assert len(parse_word("(y*x*y^-1)^300000000", ("x", "y")).runs) == 3
        assert len(parse_word("(x*y)^500000", ("x", "y")).runs) == 1000000
        with pytest.raises(ParseError, match="power would have"):
            parse_word("(x*y)^-500001", ("x", "y"))
        with pytest.raises(ParseError, match="power would have"):
            parse_word("((x*y)^1000)^1000", ("x", "y"))

    def test_long_product_refused(self):
        text = "(x*y)^200000*" * 3
        with pytest.raises(ParseError, match="word would have") as exc:
            parse_word(text[:-1], ("x", "y"))
        assert exc.value.position == 2 * len("(x*y)^200000*")


names_st = st.sampled_from([("x",), ("x", "y"), ("a", "b", "c")])


@st.composite
def presentations_st(draw):
    names = draw(names_st)
    n = len(names)
    k = draw(st.integers(0, 3))
    relators = []
    for _ in range(k):
        word = draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, 3)), max_size=6)
            .map(lambda rs: Word(rs, n))
            .filter(lambda v: not v.is_identity)
        )
        relators.append(word)
    return FinitePresentation(names, relators)


class TestRoundTrip:
    @given(presentations_st())
    def test_parse_print(self, pres):
        assert parse_presentation(pres.to_text()) == pres

    def test_canonical_text(self):
        pres = parse_presentation("<x,y|x^2,(x*y)^3>")
        assert pres.to_text() == "< x, y | x^2, x*y*x*y*x*y >"


class TestPDeficiency:
    def test_examples(self):
        assert p_deficiency(parse_presentation("< x,y,z | x^2,y^4,z^4,x*y*z >"), 2) == 0
        assert p_deficiency(parse_presentation("< x, y | >"), 2) == 1
        assert p_deficiency(parse_presentation("< x, y | >"), 7) == 1
        assert p_deficiency(
            parse_presentation("< x, y | x^2, y^5, (x*y)^5 >"), 2
        ) == Fraction(-3, 2)

    @given(presentations_st(), st.sampled_from([2, 3, 5]))
    def test_relator_conjugation_and_inversion_invariance(self, pres, p):
        base = p_deficiency(pres, p)
        n = pres.n_gens
        g = Word(((0, 1),), n)
        conjugated = pres.with_relators(r.conjugated_by(g) for r in pres.relators)
        inverted = pres.with_relators(r.inverse() for r in pres.relators)
        assert p_deficiency(conjugated, p) == base
        assert p_deficiency(inverted, p) == base


class TestPowerUp:
    def test_examples(self):
        assert power_up(parse_presentation("< x | x^2 >"), 3) == parse_presentation(
            "< x | x^6 >"
        )
        assert power_up(parse_presentation("< x, y | x*y >"), 2) == parse_presentation(
            "< x, y | (x*y)^2 >"
        )

    def test_deficiency_example(self):
        pres = power_up(parse_presentation("< x,y,z | x^2,y^4,z^4,x*y*z >"), 2)
        assert p_deficiency(pres, 2) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            power_up(parse_presentation("< x | x^2 >"), 1)
        with pytest.raises(ValueError):
            power_up(parse_presentation("< x | >"), 2)

    @given(
        presentations_st().filter(lambda pr: pr.relators),
        st.integers(2, 6),
        st.sampled_from([2, 3]),
    )
    def test_monotone_strict_iff_p_divides(self, pres, n, p):
        before = p_deficiency(pres, p)
        after = p_deficiency(power_up(pres, n), p)
        if n % p == 0:
            assert after > before
        else:
            assert after == before


class TestPPrimeRootPresentation:
    def test_examples(self):
        assert p_prime_root_presentation(
            parse_presentation("< x | x^6 >"), 2
        ) == parse_presentation("< x | x^2 >")
        assert p_prime_root_presentation(
            parse_presentation("< x | x^4 >"), 2
        ) == parse_presentation("< x | x^4 >")
        nine = parse_presentation("< x, y | (x*y)^9 >")
        assert p_prime_root_presentation(nine, 2) == parse_presentation("< x, y | x*y >")
        assert p_prime_root_presentation(nine, 3) == nine
