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

import itertools
import re
from fractions import Fraction

from .words import (
    RUN_LIMIT, RootDecomposition, Word, _p_weight, _seam, maximal_root, nu_p_int,
    require_prime,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PresentationError(ValueError):
    pass


class FinitePresentation:
    """Generator names plus freely reduced, non-trivial relator words.

    Each relator's maximal root is computed at most once, on first use by
    ``root``: p-deficiency, kernel invariants, p'-roots, exponent sums and
    the presentation text all read it from there.
    """

    __slots__ = ("generators", "relators", "_roots")

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
        self._roots = None

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    def root(self, i: int) -> RootDecomposition:
        """The maximal root of relator i, computed on first use."""
        roots = self._roots
        if roots is None:
            roots = self._roots = [None] * len(self.relators)
        rd = roots[i]
        if rd is None:
            rd = roots[i] = maximal_root(self.relators[i])
        return rd

    def word(self, text: str) -> Word:
        """Parse a word in this presentation's alphabet."""
        return parse_word(text, self.generators)

    def with_relators(self, relators) -> "FinitePresentation":
        return FinitePresentation(self.generators, relators)

    def to_text(self) -> str:
        """The presentation as text.  A relator whose root is already known,
        with more runs than there are generators and a root exponent of 3
        or more, is written from its root: its runs repeat one period many
        times, so that period is formatted once."""
        names = self.generators
        roots = self._roots
        if roots is None:
            rels = ", ".join([word_to_text(r, names) for r in self.relators])
        else:
            n = len(names)
            rels = ", ".join([
                _root_text(r, rd, names)
                if rd is not None and rd.exponent > 2 and len(r.runs) > n
                else word_to_text(r, names)
                for r, rd in zip(self.relators, roots)
            ])
        gens = ", ".join(names)
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


_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def _is_identifier(name) -> bool:
    return isinstance(name, str) and _IDENTIFIER.fullmatch(name) is not None


def word_to_text(w: Word, names) -> str:
    if w.is_identity:
        return "1"
    parts = []
    for g, e in w.runs:
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return "*".join(parts)


def _root_text(w: Word, rd: RootDecomposition, names) -> str:
    """The text of w = c*u^m*c^-1, given its maximal root ``rd`` with m at
    least 3.

    u^m is u's runs repeated m times, or, when u's first and last runs carry
    one generator, u's head, then m - 1 copies of a block that starts with
    their merged run, then u's last run.  c and c^-1 meet u^m at seams that
    can only merge one run each, so every copy of the block but the first
    and the last appears in w's runs unchanged.  The runs before and after
    those copies and one copy of the block are formatted, and the block's
    text is repeated in their place.
    """
    conj, root, m = rd.conjugator.runs, rd.root.runs, rd.exponent
    if root[0][0] != root[-1][0]:
        head, period, copies, block = 0, len(root), m, root
    elif len(root) > 1 and m > 3:
        head, period, copies = len(root) - 1, len(root) - 1, m - 1
        block = ((root[0][0], root[0][1] + root[-1][1]),) + root[1:-1]
    else:  # a power of one run, or too few copies of the block
        return word_to_text(w, names)
    # where the second copy of the block starts in w's runs: the last run
    # of c merges with u's first run when they carry one generator
    start = len(conj) - (bool(conj) and conj[-1][0] == root[0][0]) + head + period
    runs = w.runs[:start] + block + w.runs[start + (copies - 2) * period:]
    parts = [names[g] if e == 1 else f"{names[g]}^{e}" for g, e in runs]
    parts[start:start + period] = ["*".join(parts[start:start + period])] * (copies - 2)
    return "*".join(parts)


# -- tokenizer / parser ----------------------------------------------------

# A token is an integer, an identifier or a symbol; whitespace between
# tokens is skipped.  Any other character matches the last alternative,
# outside the group, and so is read as an empty token.
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


def parse_presentation(text: str) -> FinitePresentation:
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


def _chain_relators(chain) -> list:
    """Relators contributed by one equality chain.

    A literal 1 anywhere equates every member with the identity; otherwise
    consecutive members are equated pairwise.
    """
    words = [w for w, _ in chain]
    if len(chain) == 1:
        return words
    if any(not saw for _, saw in chain):
        return [w for w, saw in chain if saw]
    return [words[i] * words[i + 1].inverse() for i in range(len(words) - 1)]


def parse_word(text: str, generators) -> Word:
    parser = _Parser(text)
    index = {name: i for i, name in enumerate(generators)}
    word, _ = parser.parse_word(index)
    if parser.peek():
        raise parser.error(f"trailing input {parser.peek()!r}")
    return word


# -- invariants ------------------------------------------------------------


def p_deficiency(pres: FinitePresentation, p: int) -> Fraction:
    """|X| - 1 - sum of p^-nu_p(r) over the relators, exactly."""
    require_prime(p)
    return pres.n_gens - 1 - _p_weight(  # relators are never trivial
        (nu_p_int(pres.root(i).exponent, p) for i in range(len(pres.relators))), p)


def power_up(pres: FinitePresentation, n: int) -> FinitePresentation:
    """Replace every relator by its n-th power, n >= 2."""
    if n < 2:
        raise ValueError("power_up requires n >= 2")
    if not pres.relators:
        raise ValueError("power_up requires at least one relator")
    return pres.with_relators(r**n for r in pres.relators)
