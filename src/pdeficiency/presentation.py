"""Finite presentations: data model, text grammar, and exact p-deficiency.

Grammar (whitespace insignificant)::

    presentation = "<" names "|" relations ">"
    names        = ident ("," ident)*
    relations    = (chain (","|";"))* chain?
    chain        = word ("=" word)*
    word         = factor ("*"? factor)*
    factor       = (ident | "(" word ")" | "1") ("^" integer)?

Identifiers are ASCII letters and digits starting with a letter.  A chain
containing a literal ``1`` makes every other member a relator; a chain
without it yields the pairwise relators w_i * w_{i+1}^-1.
"""

import re
from fractions import Fraction

from .words import (
    RUN_LIMIT, Word, _seam, maximal_root, nu_p_int, p_prime_root, require_prime,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PresentationError(ValueError):
    pass


class FinitePresentation:
    """Generator names plus freely reduced, non-trivial relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators):
        generators = tuple(generators)
        seen = set()
        for name in generators:
            if not _is_identifier(name):
                raise PresentationError(f"invalid generator name {name!r}")
            if name in seen:
                raise PresentationError(f"duplicate generator name {name!r}")
            seen.add(name)
        relators = tuple(relators)
        for i, r in enumerate(relators):
            if not isinstance(r, Word) or r.n_gens != len(generators):
                raise PresentationError(
                    f"relator {i} is not a word over this alphabet"
                )
            if r.is_identity:
                raise PresentationError(
                    f"trivial relator at index {i}: reduces to the identity"
                )
        self.generators = generators
        self.relators = relators

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    def word(self, text: str) -> Word:
        """Parse a word in this presentation's alphabet."""
        return parse_word(text, self.generators)

    def with_relators(self, relators) -> "FinitePresentation":
        return FinitePresentation(self.generators, relators)

    def to_text(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(word_to_text(r, self.generators) for r in self.relators)
        return f"< {gens} | {rels} >" if rels else f"< {gens} | >"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePresentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))

    def __repr__(self) -> str:
        return f"FinitePresentation({self.to_text()!r})"


def _is_identifier(name) -> bool:
    return (
        isinstance(name, str)
        and bool(re.fullmatch(r"[A-Za-z][A-Za-z0-9]*", name))
    )


def word_to_text(w: Word, names) -> str:
    if w.is_identity:
        return "1"
    parts = []
    for g, e in w.runs:
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return "*".join(parts)


# -- tokenizer / parser ----------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>-?\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<sym>[<>|,;=^*()])"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, pos = self.peek()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}, found {value or 'end of input'!r}", pos)
        return self.advance()

    def at_sym(self, *syms) -> bool:
        kind, value, _ = self.peek()
        return kind == "sym" and value in syms

    def parse_names(self) -> tuple:
        names = []
        while True:
            kind, value, pos = self.peek()
            if kind != "ident":
                raise ParseError("expected a generator name", pos)
            if value in names:
                raise ParseError(f"duplicate generator name {value!r}", pos)
            names.append(value)
            self.advance()
            if self.at_sym(","):
                self.advance()
            else:
                return tuple(names)

    def parse_factor(self, index):
        """Returns (word, saw_generator)."""
        kind, value, pos = self.peek()
        if kind == "ident":
            if value not in index:
                raise ParseError(f"unknown generator {value!r}", pos)
            self.advance()
            base, saw = Word._make(((index[value], 1),), len(index)), True
        elif kind == "sym" and value == "(":
            self.advance()
            base, saw = self.parse_word(index)
            self.expect_sym(")")
        elif kind == "int" and value == "1":
            self.advance()
            base, saw = Word._make((), len(index)), False
        else:
            raise ParseError(
                f"expected a generator, '(' or 1, found {value or 'end of input'!r}", pos
            )
        if self.at_sym("^"):
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise ParseError("expected an integer exponent after '^'", pos)
            self.advance()
            try:
                base = base ** int(value)
            except ValueError as exc:  # more runs than RUN_LIMIT
                raise ParseError(str(exc), pos) from None
        return base, saw

    def _starts_factor(self) -> bool:
        kind, value, _ = self.peek()
        return kind == "ident" or (kind == "sym" and value == "(") or (
            kind == "int" and value == "1"
        )

    def parse_word(self, index):
        """Returns (word, saw_generator); a word with no generator occurrence
        is the literal identity used as a chain terminator.  Each factor's
        runs are reduced, so they are joined to the runs so far only at the
        seam: a run popped there was pushed once, and the time is linear in
        the number of runs.  The run bound counts the factors' runs before
        they are joined."""
        word, saw = self.parse_factor(index)
        runs = list(word.runs)
        total = len(runs)
        while True:
            if self.at_sym("*"):
                self.advance()
            elif not self._starts_factor():
                return Word._make(tuple(runs), len(index)), saw
            start = self.i
            nxt, s = self.parse_factor(index)
            total += len(nxt.runs)
            if total > RUN_LIMIT:
                raise ParseError(f"word would have more than {RUN_LIMIT} runs",
                                 self.tokens[start][2])
            i, j, merged = _seam(runs, nxt.runs)
            del runs[i:]
            runs += merged
            runs += nxt.runs[j:]
            saw = saw or s


def parse_presentation(text: str) -> FinitePresentation:
    parser = _Parser(text)
    parser.expect_sym("<")
    names = parser.parse_names()
    parser.expect_sym("|")
    index = {name: i for i, name in enumerate(names)}

    relators = []
    while not parser.at_sym(">"):
        chain = []
        chain_pos = parser.peek()[2]
        while True:
            chain.append(parser.parse_word(index))
            if parser.at_sym("="):
                parser.advance()
            else:
                break
        relators.extend(_chain_relators(chain, chain_pos))
        if parser.at_sym(",", ";"):
            parser.advance()
        elif not parser.at_sym(">"):
            kind, value, pos = parser.peek()
            raise ParseError(
                f"expected ',', ';', '=' or '>', found {value or 'end of input'!r}", pos
            )
    parser.expect_sym(">")
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return FinitePresentation(names, relators)


def _chain_relators(chain, pos: int) -> list:
    """Relators contributed by one equality chain.

    A literal 1 anywhere equates every member with the identity; otherwise
    consecutive members are equated pairwise.
    """
    words = [w for w, _ in chain]
    if len(chain) == 1:
        relators = words
    elif any(not saw for _, saw in chain):
        relators = [w for w, saw in chain if saw]
    else:
        relators = [words[i] * words[i + 1].inverse() for i in range(len(words) - 1)]
    for r in relators:
        if r.is_identity:
            raise ParseError("trivial relator: reduces to the identity", pos)
    return relators


def parse_word(text: str, generators) -> Word:
    parser = _Parser(text)
    index = {name: i for i, name in enumerate(generators)}
    word, _ = parser.parse_word(index)
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return word


# -- invariants ------------------------------------------------------------


def p_deficiency(pres: FinitePresentation, p: int) -> Fraction:
    """|X| - 1 - sum of p^-nu_p(r) over the relators, exactly."""
    require_prime(p)
    total = Fraction(pres.n_gens - 1)
    for r in pres.relators:  # relators are never trivial
        total -= Fraction(1, p ** nu_p_int(maximal_root(r).exponent, p))
    return total


def power_up(pres: FinitePresentation, n: int) -> FinitePresentation:
    """Replace every relator by its n-th power, n >= 2."""
    if n < 2:
        raise ValueError("power_up requires n >= 2")
    if not pres.relators:
        raise ValueError("power_up requires at least one relator")
    return pres.with_relators(r**n for r in pres.relators)


def p_prime_root_presentation(pres: FinitePresentation, p: int) -> FinitePresentation:
    """Replace every relator by its primitive p'-root."""
    require_prime(p)
    return pres.with_relators(p_prime_root(r, p)[0] for r in pres.relators)
