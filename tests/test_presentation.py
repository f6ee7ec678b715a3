import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pdeficiency import presentation
from pdeficiency.abelian import exponent_columns
from pdeficiency.invariants import relator_roots
from pdeficiency.presentation import (
    FinitePresentation,
    ParseError,
    PresentationError,
    _root_text,
    p_deficiency,
    parse_presentation,
    parse_word,
    power_up,
)
from pdeficiency.quotient import FiniteQuotient
from pdeficiency.rewrite import subgroup_presentation
from pdeficiency.verification import p_prime_root_presentation, word_from_letters
from pdeficiency.words import RUN_LIMIT, Word, _seam, maximal_root


# -- the reference parser ----------------------------------------------------
#
# The token-list parser that the scanner replaced, kept as the oracle for its
# accepted texts, its words and its error messages and positions: it
# tokenizes the whole text first, then descends over the token list.

_TOKEN = re.compile(r"(-?\d+|[A-Za-z][A-Za-z0-9]*|[<>|,;=^*()])|\S")


class _Parser:
    """Recursive descent over the token strings of a text, with "" for the
    end of input.  A token's kind is read off its first character:
    identifiers start with a letter, integers with a digit or '-'.
    Positions are looked up only for an error message."""

    def __init__(self, text: str):
        tokens = _TOKEN.findall(text)
        self.text = text
        if "" in tokens:
            m = next(itertools.islice(_TOKEN.finditer(text), tokens.index(""), None))
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append("")
        self.tokens = tokens
        self.i = 0

    def pos(self, i: int) -> int:
        """Where token i starts in the text."""
        if i >= len(self.tokens) - 1:
            return len(self.text)
        return next(itertools.islice(_TOKEN.finditer(self.text), i, None)).start()

    def error(self, message: str, i: int = None) -> ParseError:
        return ParseError(message, self.pos(self.i if i is None else i))

    def peek(self) -> str:
        return self.tokens[self.i]

    def expect_sym(self, sym: str) -> None:
        tok = self.tokens[self.i]
        if tok != sym:
            raise self.error(f"expected {sym!r}, found {tok or 'end of input'!r}")
        self.i += 1

    def at_sym(self, *syms) -> bool:
        return self.tokens[self.i] in syms

    def parse_names(self) -> tuple:
        names = []
        seen = set()
        while True:
            tok = self.tokens[self.i]
            if not tok[:1].isalpha():
                raise self.error("expected a generator name")
            if tok in seen:
                raise self.error(f"duplicate generator name {tok!r}")
            seen.add(tok)
            names.append(tok)
            self.i += 1
            if self.tokens[self.i] == ",":
                self.i += 1
            else:
                return tuple(names)

    def exponent(self, i: int) -> int:
        """The integer exponent at token i, which follows a '^'."""
        tok = self.tokens[i]
        if not (tok[:1] == "-" or tok[:1].isdigit()):
            raise self.error("expected an integer exponent after '^'", i)
        try:
            return int(tok)
        except ValueError as exc:  # more digits than int() converts
            raise self.error(str(exc), i) from None

    def parse_factor(self, index):
        """Returns (word, saw_generator)."""
        tok = self.tokens[self.i]
        if tok[:1].isalpha():
            if tok not in index:
                raise self.error(f"unknown generator {tok!r}")
            self.i += 1
            base, saw = Word._make(((index[tok], 1),), len(index)), True
        elif tok == "(":
            self.i += 1
            base, saw = self.parse_word(index)
            self.expect_sym(")")
        elif tok == "1":
            self.i += 1
            base, saw = Word._make((), len(index)), False
        else:
            raise self.error(
                f"expected a generator, '(' or 1, found {tok or 'end of input'!r}"
            )
        if self.tokens[self.i] == "^":
            i = self.i + 1
            n = self.exponent(i)
            self.i = i + 1
            try:
                base = base ** n
            except ValueError as exc:  # more runs than RUN_LIMIT
                raise self.error(str(exc), i) from None
        return base, saw

    def parse_word(self, index):
        """Returns (word, saw_generator); a word with no generator occurrence
        is the literal identity used as a chain terminator.

        A lone factor is returned as it was parsed.  Otherwise a factor that
        is a generator, with or without an exponent, is one run and is
        joined to the runs so far in this loop: it merges with, or cancels,
        the last run only.  Any other factor is parsed by ``parse_factor``,
        and its reduced runs are joined at the seam: a run popped there was
        pushed once, so the time is linear in the number of runs.  The
        factor's runs are copied whole into the list, with no slice, and
        the runs that its seam merged or cancelled are then deleted from
        the list.  The run bound counts the factors' runs before they are
        joined."""
        tokens = self.tokens
        word, saw = self.parse_factor(index)
        runs = []  # filled once a second factor follows
        total = len(word.runs)
        i = self.i
        while True:
            tok = tokens[i]
            if tok == "*":
                i += 1
                tok = tokens[i]
            elif not (tok in index or tok == "(" or tok == "1" or tok[:1].isalpha()):
                self.i = i
                if word is None:
                    word = Word._make(tuple(runs), len(index))
                return word, saw
            if word is not None:
                runs += word.runs
                word = None
            g = index.get(tok)
            if g is not None:
                start = i
                if tokens[i + 1] == "^":
                    e = self.exponent(i + 2)
                    i += 3
                else:
                    e = 1
                    i += 1
                if e:
                    total += 1
                if total > RUN_LIMIT:
                    raise self.error(f"word would have more than {RUN_LIMIT} runs", start)
                if runs and runs[-1][0] == g:
                    e += runs.pop()[1]
                if e:
                    runs.append((g, e))
                saw = True
                continue
            start = self.i = i
            nxt, s = self.parse_factor(index)
            i = self.i
            total += len(nxt.runs)
            if total > RUN_LIMIT:
                raise self.error(f"word would have more than {RUN_LIMIT} runs", start)
            j, k, merged = _seam(runs, nxt.runs)
            del runs[j:]
            runs += merged
            j = len(runs)
            runs += nxt.runs
            del runs[j:j + k]
            saw = saw or s


def _chain_relators(chain) -> list:
    words = [w for w, _ in chain]
    if len(chain) == 1:
        return words
    if any(not saw for _, saw in chain):
        return [w for w, saw in chain if saw]
    return [words[i] * words[i + 1].inverse() for i in range(len(words) - 1)]


def reference_presentation(text: str) -> FinitePresentation:
    parser = _Parser(text)
    parser.expect_sym("<")
    names = parser.parse_names()
    parser.expect_sym("|")
    index = {name: i for i, name in enumerate(names)}
    relators = []
    while not parser.at_sym(">"):
        chain = []
        chain_start = parser.i
        while True:
            chain.append(parser.parse_word(index))
            if parser.at_sym("="):
                parser.i += 1
            else:
                break
        chain = _chain_relators(chain)
        if any(r.is_identity for r in chain):
            raise parser.error("trivial relator: reduces to the identity", chain_start)
        relators += chain
        if parser.at_sym(",", ";"):
            parser.i += 1
        elif not parser.at_sym(">"):
            tok = parser.peek()
            raise parser.error(
                f"expected ',', ';', '=' or '>', found {tok or 'end of input'!r}"
            )
    parser.expect_sym(">")
    if parser.peek():
        raise parser.error(f"trailing input {parser.peek()!r}")
    return FinitePresentation(names, relators)


def reference_word(text: str, generators) -> Word:
    parser = _Parser(text)
    index = {name: i for i, name in enumerate(generators)}
    word, _ = parser.parse_word(index)
    if parser.peek():
        raise parser.error(f"trailing input {parser.peek()!r}")
    return word


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
        assert pres.relators == (word_from_letters([1, -2] * 4000, 2),)
        assert parse_word("x*y*y^-1*x^-1", ("x", "y")) == word_from_letters([], 2)
        # y*(x*y^-1)^2*y^-1 is y x y^-1 x y^-1 y^-1; its inverse is written twice
        nested = parse_word("x*(y*(x*y^-1)^2*y^-1)^-2*x^-1", ("x", "y"))
        assert nested == word_from_letters([1] + [2, 2, -1, 2, -1, -2] * 2 + [-1], 2)


def factors_st(depth):
    """A product of factors as a nested list: generators to small powers,
    literal 1s, and bracketed products to powers."""
    gen = st.tuples(st.just("gen"), st.integers(0, 1), st.sampled_from([1, -1, 2, -3, 0]))
    one = st.just(("one",))
    if depth:
        sub = st.tuples(st.just("paren"), factors_st(depth - 1),
                        st.sampled_from([1, -1, 2, -2, 3]))
        factor = st.one_of(gen, one, sub)
    else:
        factor = st.one_of(gen, one)
    return st.lists(factor, min_size=1, max_size=5)


def factors_text(factors) -> str:
    out = []
    for f in factors:
        if f[0] == "gen":
            out.append(f"{'xy'[f[1]]}^{f[2]}")
        elif f[0] == "one":
            out.append("1")
        else:
            out.append(f"({factors_text(f[1])})^{f[2]}")
    return "*".join(out)


def factors_word(factors) -> Word:
    """The oracle: the product of the factors' words through ``Word``."""
    word = Word.identity(2)
    for f in factors:
        if f[0] == "gen":
            word = word * Word(((f[1], f[2]),), 2)
        elif f[0] == "paren":
            word = word * factors_word(f[1]) ** f[2]
    return word


class TestParseProducts:
    """Factors joined at their seams, where runs merge or cancel, against
    the products of their words."""

    @settings(max_examples=150, deadline=None)
    @given(factors_st(3))
    def test_matches_word_products(self, factors):
        text = factors_text(factors)
        word = factors_word(factors)
        assert parse_word(text, ("x", "y")) == word
        # seams that cancel whole factors, and factors after a cancellation
        assert parse_word(f"({text})*({text})^-1", ("x", "y")).is_identity
        assert parse_word(f"x*({text})^2*({text})^-1*y", ("x", "y")) == (
            Word(((0, 1),), 2) * word * Word(((1, 1),), 2))
        assert parse_word(f"({text})^-1*x^2*{text}", ("x", "y")) == (
            word.inverse() * Word(((0, 2),), 2) * word)

    def test_lone_factor_returned_as_parsed(self, monkeypatch):
        built = []
        real = Word.__pow__

        def recording(word, n):
            built.append(real(word, n))
            return built[-1]

        monkeypatch.setattr(Word, "__pow__", recording)
        word = parse_word("((x*y^-1)^3)", ("x", "y"))
        assert word.runs is built[-1].runs  # the outermost power is built last
        assert word.runs == ((0, 1), (1, -1)) * 3


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


class TestParseErrors:
    """Every message and position of the parser, pinned: a product of
    generators is joined in one loop, and these must not move."""

    @staticmethod
    def error(text):
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        return str(exc.value), exc.value.position

    def test_unknown_generator_inside_a_long_product(self):
        text = "< x, y | " + "x*y^-1*" * 150 + "w*" + "x*y^-1*" * 150 + "x >"
        assert len(text) > 2000
        assert self.error(text) == ("unknown generator 'w' (at position 1059)", 1059)
        assert text.index("w") == 1059

    def test_exponent_without_integer(self):
        assert self.error("< x, y | x^ >") == (
            "expected an integer exponent after '^' (at position 12)", 12)
        assert self.error("< x, y | x*y^*x >") == (
            "expected an integer exponent after '^' (at position 13)", 13)
        assert self.error("< x, y | x*y^") == (
            "expected an integer exponent after '^' (at position 13)", 13)

    def test_exponent_of_an_exponent(self):
        assert self.error("< x, y | x^2^3 >") == (
            "expected ',', ';', '=' or '>', found '^' (at position 12)", 12)
        assert self.error("< x, y | x*y*x^2^3 >") == (
            "expected ',', ';', '=' or '>', found '^' (at position 16)", 16)

    def test_other_factor_errors(self):
        assert self.error("< x, y | x*y* >") == (
            "expected a generator, '(' or 1, found '>' (at position 14)", 14)
        assert self.error("< x, y | x*y*x-y >") == (
            "unexpected character '-' (at position 14)", 14)
        assert self.error("< x, y | x**y >") == (
            "expected a generator, '(' or 1, found '*' (at position 11)", 11)

    def test_exponent_with_too_many_digits(self):
        text = "< x, y | x*y^" + "9" * 5000 + " >"
        try:
            int("9" * 5000)
        except ValueError as exc:  # Python's limit on int() of a string
            assert self.error(text) == (f"{exc} (at position 13)", 13)
        else:
            assert parse_presentation(text).relators[0].runs == ((0, 1), (1, int("9" * 5000)))

    def test_identifiers_with_digits(self):
        assert self.error("< x1, y | x1y >") == ("unknown generator 'x1y' (at position 10)", 10)
        assert parse_presentation("< x1, y | x1*y >").to_text() == "< x1, y | x1*y >"

    def test_products_that_parse(self):
        assert parse_presentation("< x, y | x*1*y >").to_text() == "< x, y | x*y >"
        assert parse_presentation("< x, y | x y^-1 x >").to_text() == "< x, y | x*y^-1*x >"
        assert parse_presentation("< x, y | x ^ 2 * y ^ -3 >").to_text() == "< x, y | x^2*y^-3 >"
        assert parse_presentation("< x, y | x^ -1 * y ^3 >").to_text() == "< x, y | x^-1*y^3 >"
        assert parse_word("x*x^2*x^-3*y*x^0*y^-1*x", ("x", "y")) == Word(((0, 1),), 2)

    def test_run_limit_inside_a_flat_product(self):
        # (x*y)^499990 has 999,980 runs: the 21st generator after it is
        # the first factor past the bound
        text = "< x, y | (x*y)^499990" + "*x*y" * 20 + " >"
        assert self.error(text) == ("word would have more than 1000000 runs (at position 62)", 62)
        at_bound = "< x, y | (x*y)^499990" + "*x*y" * 10 + " >"
        assert len(parse_presentation(at_bound).relators[0].runs) == RUN_LIMIT
        # a generator to the power 0 adds no run, but the bound is still
        # checked at it: the first factor may bring the count past the bound
        text = "< x, y, z | (z*x*y*z^-1)^500000*x^0 >"
        assert self.error(text) == (
            "word would have more than 1000000 runs (at position 32)", 32)
        assert text.index("x^0") == 32


@st.composite
def written_st(draw):
    """A presentation text written with any mix of compact products,
    spaces, juxtaposition, extra parentheses, spaced exponents, '='
    chains with 1 and either separator; it need not be valid."""
    names = draw(st.sampled_from([("x",), ("x", "y"), ("a", "b1", "c"), ("x", "xy")]))
    space = st.sampled_from(["", "", "", " ", "  ", "\t", "\n "])

    def factor(depth):
        kinds = ["gen"] * 6 + ["one"] + ["paren"] * 2 * bool(depth)
        kind = draw(st.sampled_from(kinds))
        if kind == "gen":
            text = draw(st.sampled_from(names))
        elif kind == "one":
            text = "1"
        else:
            text = "(" + draw(space) + word(depth - 1) + draw(space) + ")"
        if draw(st.integers(0, 2)) == 0:
            e = draw(st.sampled_from([0, 1, -1, 2, -2, 3, 12, -40, 1000]))
            text += draw(space) + "^" + draw(space) + str(e)
        return "(" + text + ")" if draw(st.integers(0, 9)) == 0 else text

    def word(depth):
        text = factor(depth)
        for _ in range(draw(st.integers(0, 8))):
            join = draw(st.sampled_from(["*", "*", "*", " * ", " ", "\n", "*\t"]))
            text += join + factor(depth)
        return text

    chains = []
    for _ in range(draw(st.integers(0, 3))):
        members = [word(2) for _ in range(draw(st.integers(1, 3)))]
        if len(members) > 1 and draw(st.booleans()):
            members.insert(draw(st.integers(0, len(members))), "1")
        chains.append((draw(space) + "=" + draw(space)).join(members))
    seps = [draw(st.sampled_from([",", ";", " , ", ";\n"])) for _ in chains]
    rels = "".join(c + s for c, s in zip(chains, seps))
    if rels and draw(st.booleans()):
        rels = rels[:-len(seps[-1])]
    return draw(space) + "<" + draw(space) + ", ".join(names) + " |" + draw(space) + rels + ">"


# one-character edits that make malformed texts: stray symbols, '-', '^^',
# a letter outside ASCII, a digit outside ASCII, whitespace and names
EDITS = ["<", ">", "|", ",", ";", "=", "^", "^^", "*", "(", ")", "x", "y", "z", "1",
         "0", "7", "-", "-1", " ", "\u00e9", "\u0663", "\u2003", ""]


def outcome(parse, *args):
    """What a parser makes of a text: its result, or its error's message
    and position."""
    try:
        return parse(*args)
    except ParseError as exc:
        return str(exc), exc.position


class TestAgainstReference:
    """The scanner accepts what the reference parser accepts, builds the
    same words, and raises the same message at the same position."""

    @settings(max_examples=200, deadline=None)
    @given(written_st())
    def test_written_presentations(self, text):
        assert outcome(parse_presentation, text) == outcome(reference_presentation, text)

    @settings(max_examples=200, deadline=None)
    @given(written_st(), st.data())
    def test_malformed_texts(self, text, data):
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 2))
            text = text[:i] + data.draw(st.sampled_from(EDITS)) + text[i + cut:]
        assert outcome(parse_presentation, text) == outcome(reference_presentation, text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(EDITS), max_size=20).map("".join))
    def test_random_words(self, text):
        names = ("x", "y")
        assert outcome(parse_word, text, names) == outcome(reference_word, text, names)

    def test_examples(self):
        for text in ("< x, y | x ^ 2 * y ^ -3 >", "< x,y | x y^-1 x, (x)(y) >",
                     "< x, y | x^-2y^3 = 1 = (x y) ^ 2 ; >", "< x, y | x*y ^2*x >",
                     "< x, xy | xy*x y x^0 y^\u0663 >", "< x | x^^2 >", "< x | x^ >",
                     "< x, y | x*\u00e9 >", "< x, y | x-y >", "< x | (x^2 >", "< x | x >>",
                     "< x, y, x | >", "< a ,b1,\n  b1 | a >", "< x, | x >", "< x y | >"):
            assert outcome(parse_presentation, text) == outcome(reference_presentation, text)

    def test_zero_exponents_add_no_runs(self):
        # (x*y)^499990 has 999,980 runs: twenty more reach the bound, and the
        # generators to the power 0 among them add none
        text = "< x, y | (x*y)^499990" + "*x*x^0*y" * 10 + "*y^0" * 5 + " >"
        assert len(parse_presentation(text).relators[0].runs) == RUN_LIMIT
        assert parse_presentation(text) == reference_presentation(text)

    def test_public_constructor_checks_what_parsing_trusts(self):
        cases = [((("1bad",), ()), "invalid generator name '1bad'"),
                 ((("x", "x"), ()), "duplicate generator name 'x'"),
                 ((("x",), (Word.identity(1),)), "trivial relator at index 0: "
                                                  "reduces to the identity"),
                 ((("x",), (Word.identity(2),)), "relator 0 is not a word over this alphabet")]
        for args, message in cases:
            with pytest.raises(PresentationError) as exc:
                FinitePresentation(*args)
            assert str(exc.value) == message
        pres = parse_presentation("< a, b1 | a^2 = b1^3 = (a*b1)^7 = 1 >")
        built = FinitePresentation(pres.generators, pres.relators)
        assert pres == built and pres.to_text() == built.to_text()
        q = FiniteQuotient([(1, 0), (1, 0)])
        sub = subgroup_presentation(parse_presentation("< x, y | x^2, y^2 >"), q)
        assert sub == FinitePresentation(sub.generators, sub.relators)


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


def run_text(w, names) -> str:
    """The oracle for presentation text: every run formatted on its own."""
    return "*".join(names[g] if e == 1 else f"{names[g]}^{e}" for g, e in w.runs)


@st.composite
def conjugated_powers_st(draw):
    """c*u^k*c^-1 over 1-3 generators, reduced by the public constructor.
    u's first and last runs often share a generator, c's last run often
    merges with or cancels against u's first, u may be a single run or a
    long word that is no power, and k is 1, 2, 3 or large."""
    n = draw(st.integers(1, 3))
    run = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1, 2, -2, 3)))
    shape = draw(st.sampled_from(("free", "ends", "single", "long")))
    u = draw(st.lists(run, min_size=10 if shape == "long" else 1,
                      max_size=40 if shape == "long" else 5))
    if shape == "single":
        u = u[:1]
    elif shape == "ends" and len(u) > 1:
        u[-1] = (u[0][0], draw(st.sampled_from((1, -1, 2))))
    c = draw(st.lists(run, max_size=4))
    seam = draw(st.sampled_from(("free", "merge", "cancel", "cancel_all")))
    g, e = u[0]
    if seam == "merge":
        c.append((g, e))
    elif seam == "cancel":
        c.append((g, -2 * e))
    elif seam == "cancel_all":
        c.append((g, -e))
    k = draw(st.sampled_from((1, 2, 3, 4, draw(st.integers(5, 80)))))
    if shape == "long":
        k = min(k, 3)
    w = Word(c + u * k + [(h, -f) for h, f in reversed(c)], n)
    assume(not w.is_identity)
    return w


class TestRootText:
    """A relator whose root is known is written from the root; writing
    every run is the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(conjugated_powers_st())
    def test_matches_run_by_run(self, w):
        names = ("x", "y", "z")[:w.n_gens]
        rd = maximal_root(w)
        if rd.exponent >= 3:
            assert _root_text(w, rd, names) == run_text(w, names)
        pres = FinitePresentation(names, [w, w.inverse(), w * w])
        want = "< {} | {} >".format(", ".join(names), ", ".join(
            run_text(r, names) for r in pres.relators))
        assert pres.to_text() == want
        p_deficiency(pres, 2)  # now every root is known
        assert pres.to_text() == want

    def test_examples(self):
        for text in ("< x, y | (x*y)^40 >", "< x, y | y*(x*y^2*x)^9*y^-1 >",
                     "< x, y | x^2*(x*y*x^3)^7*x^-2 >", "< x, y | y^-1*(y*x)^12*y >",
                     "< x, y | (x*y^-1)^3, (x^2*y*x)^4, (y*x^5*y^-1)^100 >"):
            pres = parse_presentation(text)
            want = pres.to_text()
            p_deficiency(pres, 3)
            assert pres.to_text() == want
            assert want == "< x, y | {} >".format(", ".join(
                run_text(r, pres.generators) for r in pres.relators))

    def test_each_root_computed_once(self, monkeypatch):
        calls = []

        def counted(w):
            calls.append(w)
            return maximal_root(w)

        monkeypatch.setattr(presentation, "maximal_root", counted)
        pres = parse_presentation("< x, y | (x*y)^40, y*(x^2*y^-1)^9*y^-1, x^3 >")
        p_deficiency(pres, 3)
        relator_roots(pres, 3)
        exponent_columns(pres)
        p_prime_root_presentation(pres, 3)
        pres.to_text()
        assert calls == list(pres.relators)


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
