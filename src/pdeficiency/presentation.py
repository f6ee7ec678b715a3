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

Cost: a compact flat product such as ``x*y^-1*x^2`` is one regex match and
one split, then a dict lookup per factor; whitespace, parentheses, ``=``
chains and the literal 1 are read token by token.
"""

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
            if not isinstance(name, str) or not _IDENTIFIER.fullmatch(name):
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

    @classmethod
    def _make(cls, generators: tuple, relators: tuple) -> "FinitePresentation":
        """Distinct valid names and non-trivial words over them, unchecked."""
        pres = object.__new__(cls)
        pres.generators, pres.relators, pres._roots = generators, relators, None
        return pres

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


# -- scanner ---------------------------------------------------------------

_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9]*")
# The token at a position, after any whitespace: an integer, an identifier,
# a symbol, or "" at the end of the text.  _BAD finds every other character
# first, so a match never stops short of the end; in an ASCII text of
# _PASS only a '-' can be bad, so _BAD is compiled on first use.
_NEXT = re.compile(r"\s*(-?\d+|[A-Za-z][A-Za-z0-9]*|[<>|,;=^*()]|)")
_BAD = r"[^\s\dA-Za-z<>|,;=^*()-]|-(?!\d)"
_DASH = re.compile(r"-(?!\d)")
_PASS = bytes(c for c in range(128) if chr(c).isspace() or chr(c).isalnum()
              or chr(c) in "<>|,;=^*()-")
_NAMES = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:\s*,\s*[A-Za-z][A-Za-z0-9]*)*")
# A flat product: generators joined by '*', each with an exponent or no '^'
# after it; the guard keeps a name from being cut short to fit.
_PART = r"[A-Za-z][A-Za-z0-9]*(?:\^-?\d+|(?![A-Za-z0-9]|\s*\^))"
_FLAT = re.compile(rf"{_PART}(?:\*{_PART})*")


class _Scanner:
    """The text, the generator ``index``, the current token ``tok`` from
    ``start`` to ``end``, and the run of each flat factor read, as ``runs``."""

    __slots__ = ("text", "index", "runs", "tok", "start", "end")

    def __init__(self, text: str, index=None):
        plain = text.isascii() and not text.encode().translate(None, _PASS)
        bad = _DASH.search(text) if plain else re.search(_BAD, text)  # before any syntax error
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
        self.text, self.index, self.runs = text, index, {}
        self.advance(0)

    def advance(self, pos: int = None) -> None:
        """Read the token after the current one, or at ``pos``."""
        m = _NEXT.match(self.text, self.end if pos is None else pos)
        self.tok, self.start, self.end = m.group(1), m.start(1), m.end()

    def found(self, expected: str) -> ParseError:
        return ParseError(f"expected {expected}, found {self.tok or 'end of input'!r}",
                          self.start)

    def expect(self, sym: str) -> None:
        if self.tok != sym:
            raise self.found(repr(sym))
        self.advance()

    def finish(self) -> None:
        if self.tok:
            raise ParseError(f"trailing input {self.tok!r}", self.start)

    def names(self) -> None:
        """Read the generator names, one match of _NAMES, into ``index``."""
        m = _NAMES.match(self.text, self.start) if self.tok[:1].isalpha() else None
        if m is None:
            raise ParseError("expected a generator name", self.start)
        names = [name.strip() for name in m.group().split(",")]
        self.index = {name: i for i, name in enumerate(names)}
        if len(self.index) < len(names):  # locate the first repeated name
            k = next(i for i, name in enumerate(names) if name in names[:i])
            at = list(_IDENTIFIER.finditer(self.text, self.start, m.end()))[k]
            raise ParseError(f"duplicate generator name {names[k]!r}", at.start())
        self.advance(m.end())
        if self.tok == ",":  # and no name after it
            self.advance()
            raise ParseError("expected a generator name", self.start)

    def word(self) -> tuple:
        """(runs, saw_generator) of the word at the current token; a word
        with no generator occurrence is the literal identity that ends a
        chain.  Each generator of a flat product is a run that merges with
        or cancels the last run so far.  Any other factor is joined at its
        seam, and a lone one is returned as it was read.  The run bound
        counts the factors' runs before they are joined, at every factor
        but the first."""
        text, known = self.text, self.runs
        runs, lone, total, saw, first = [], None, 0, False, True
        while True:
            start = self.start
            flat = _FLAT.match(text, start) if self.tok[:1].isalpha() else None
            if flat:
                parts = flat.group().split("*")
                before = total
                total += len(parts)
                last = runs[-1][0] if runs else None
                try:
                    for part in parts:
                        try:
                            g, e = run = known[part]
                        except KeyError:
                            name, _, exp = part.partition("^")
                            g, e = run = known[part] = (self.index[name], int(exp) if exp else 1)
                        if not e:
                            total -= 1
                        elif g != last:
                            runs.append(run)
                            last = g
                        elif e + runs[-1][1]:
                            runs[-1] = (g, e + runs[-1][1])
                        else:
                            runs.pop()
                            last = runs[-1][0] if runs else None
                except (KeyError, ValueError):
                    raise _flat_error(parts, start, before, self.index) from None
                if total > RUN_LIMIT:
                    raise _flat_error(parts, start, before, self.index)
                saw = True
                self.advance(flat.end())
            else:
                nxt, s = self.factor()
                saw = saw or s
                total += len(nxt)
                if first:
                    lone = nxt
                elif total > RUN_LIMIT:
                    raise ParseError(f"word would have more than {RUN_LIMIT} runs", start)
                else:  # a run popped at the seam was pushed once: linear time
                    j, k, runs[j:] = _seam(runs, nxt)
                    j = len(runs)
                    runs += nxt  # whole, with no slice, then the seam's runs go
                    del runs[j:j + k]
            first = False
            tok = self.tok
            if tok == "*":
                self.advance()
            elif not (tok[:1].isalpha() or tok == "(" or tok == "1"):
                return (tuple(runs) if lone is None else lone), saw
            if lone is not None:
                runs, lone = list(lone), None

    def factor(self) -> tuple:
        """(runs, saw_generator) of any factor, with its exponent, by tokens."""
        tok = self.tok
        if tok[:1].isalpha():
            if tok not in self.index:
                raise ParseError(f"unknown generator {tok!r}", self.start)
            runs, saw = ((self.index[tok], 1),), True
            self.advance()
        elif tok == "(":
            self.advance()
            runs, saw = self.word()
            self.expect(")")
        elif tok == "1":
            runs, saw = (), False
            self.advance()
        else:
            raise self.found("a generator, '(' or 1")
        if self.tok == "^":
            self.advance()
            tok = self.tok
            if not (tok[:1] == "-" or tok[:1].isdigit()):
                raise ParseError("expected an integer exponent after '^'", self.start)
            try:
                runs = (Word._make(runs, len(self.index)) ** int(tok)).runs
            except ValueError as exc:  # int() of too many digits, or RUN_LIMIT
                raise ParseError(str(exc), self.start) from None
            self.advance()
        return runs, saw


def _flat_error(parts, pos: int, total: int, index) -> ParseError:
    """The first error of the flat product ``parts`` at ``pos``, after
    ``total`` runs, at the offset of the part it names."""
    for part in parts:
        name, _, exp = part.partition("^")
        if name not in index:
            return ParseError(f"unknown generator {name!r}", pos)
        try:
            total += int(exp or 1) != 0
        except ValueError as exc:  # more digits than int() converts
            return ParseError(str(exc), pos + len(name) + 1)
        if total > RUN_LIMIT:
            return ParseError(f"word would have more than {RUN_LIMIT} runs", pos)
        pos += len(part) + 1


def parse_presentation(text: str) -> FinitePresentation:
    scan = _Scanner(text)
    scan.expect("<")
    scan.names()
    scan.expect("|")
    relators = []
    while scan.tok != ">":
        start = scan.start
        chain = [scan.word()]
        while scan.tok == "=":
            scan.advance()
            chain.append(scan.word())
        for r in _chain_relators(chain, len(scan.index)):
            if not r.runs:
                raise ParseError("trivial relator: reduces to the identity", start)
            relators.append(r)
        if scan.tok == "," or scan.tok == ";":
            scan.advance()
        elif scan.tok != ">":
            raise scan.found("',', ';', '=' or '>'")
    scan.advance()
    scan.finish()
    return FinitePresentation._make(tuple(scan.index), tuple(relators))


def _chain_relators(chain, n: int) -> list:
    """The relators of one equality chain of (runs, saw_generator) pairs: a
    literal 1 anywhere equates every member with the identity; otherwise
    consecutive members are equated pairwise."""
    words = [Word._make(runs, n) for runs, _ in chain]
    if len(chain) == 1:
        return words
    if any(not saw for _, saw in chain):
        return [w for w, (_, saw) in zip(words, chain) if saw]
    return [words[i] * words[i + 1].inverse() for i in range(len(words) - 1)]


def parse_word(text: str, generators) -> Word:
    scan = _Scanner(text, {name: i for i, name in enumerate(generators)})
    runs, _ = scan.word()
    scan.finish()
    return Word._make(runs, len(scan.index))


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
