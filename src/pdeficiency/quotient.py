"""Finite quotients of the free group through permutation images, and the
catalog of small permutation groups that the homomorphism search runs over.

Permutations are tuples of 0-based images; ``perm_mul(a, b)`` applies a
first and then b, so evaluating a word left to right is a homomorphism.

A quotient's coset table is its regular tables, from one closure that
keys each element by its images of a base; its elements as permutations
are a view of the tables.  ``_cycle_layout`` lays out the cycles of each
table that is walked, all of one length, the order of the generator's
image.  Each of these is a ``functools.cached_property``, built on first
use.  A catalog is a tuple of ``CatalogGroup``s; a catalog group is the
quotient onto itself by its generators.  ``default_catalog`` is built once
per process, and ``parse_catalog_manifest`` reads a catalog from text.

The search itself lives in ``search``: ``enumerate_quotients`` imports it
on its first call, and it keeps what it builds for a catalog group in the
group's ``search_tables``.  So a command that never searches, and the
catalog's own set-up, compile none of it.
"""

import math
from functools import cache, cached_property, lru_cache
from itertools import combinations
from operator import itemgetter

from .presentation import FinitePresentation

CLOSURE_LIMIT = 10_000


# -- permutation helpers ----------------------------------------------------


def perm_identity(n: int) -> tuple:
    return tuple(range(n))


def perm_mul(a: tuple, b: tuple) -> tuple:
    """a then b."""
    return tuple(b[x] for x in a)


def perm_inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_cycles(a: tuple, include_fixed: bool = False) -> list:
    """Disjoint cycles, each starting at its least point, ordered by it."""
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = a[x]
        if len(cyc) > 1 or include_fixed:
            cycles.append(tuple(cyc))
    return cycles


def perm_order(a: tuple) -> int:
    order = 1
    for cyc in perm_cycles(a):
        order = order * len(cyc) // math.gcd(order, len(cyc))
    return order


def parse_cycles(text: str) -> list:
    """Cycle notation with 1-based points, e.g. ``(1 2)(3 4)``.

    Returns a list of cycles as 0-based point tuples; ``()``, ``1`` and
    ``id`` all denote the identity.
    """
    text = text.strip()
    if text in ("()", "id", "1", ""):
        return []
    if not text.startswith("("):
        raise ValueError(f"invalid permutation {text!r}: expected cycle notation")
    cycles = []
    seen = set()
    rest = text
    while rest:
        rest = rest.lstrip()
        if not rest:
            break
        if not rest.startswith("("):
            raise ValueError(f"invalid permutation {text!r}")
        close = rest.find(")")
        if close < 0:
            raise ValueError(f"unbalanced parenthesis in {text!r}")
        body = rest[1:close].replace(",", " ").split()
        rest = rest[close + 1:]
        if not body:
            continue
        points = []
        for item in body:
            if not item.isdecimal() or int(item) < 1:
                raise ValueError(f"invalid point {item!r} in {text!r}")
            pt = int(item) - 1
            if pt in seen:
                raise ValueError(f"point {item} repeated in {text!r}")
            seen.add(pt)
            points.append(pt)
        if len(points) > 1:
            cycles.append(tuple(points))
    return cycles


def check_degree(degree: int) -> None:
    """Reject a permutation degree above ``CLOSURE_LIMIT`` before anything
    of that size is built: a degree is short to type, a permutation of it
    is not."""
    if degree > CLOSURE_LIMIT:
        raise ValueError(f"permutation degree {degree} exceeds limit {CLOSURE_LIMIT}")


def cycles_to_perm(cycles, degree: int) -> tuple:
    check_degree(degree)
    out = list(range(degree))
    for cyc in cycles:
        if any(pt >= degree for pt in cyc):
            raise ValueError(f"cycle {cyc} exceeds degree {degree}")
        for i, pt in enumerate(cyc):
            out[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def parse_perm(text: str, degree: int) -> tuple:
    return cycles_to_perm(parse_cycles(text), degree)


def format_perm(a: tuple) -> str:
    cycles = perm_cycles(a)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in cyc) + ")" for cyc in cycles)


def describe_quotient(q, pres: FinitePresentation) -> str:
    """Each generator's image in cycle notation, e.g. ``x:(1 2), y:()``,
    for a ``FiniteQuotient`` or a ``CatalogKernel``."""
    return ", ".join(map(str.__add__, _name_prefixes(pres.generators), q.image_texts))


@lru_cache(maxsize=64)
def _name_prefixes(generators: tuple) -> tuple:
    """``"x:"`` for each generator name x, built once per alphabet."""
    return tuple(name + ":" for name in generators)


def orbit_starts(perms, degree: int) -> list:
    """The least point of each orbit on range(degree) of the group that the
    permutations generate, in increasing order.  The group is finite, so
    the orbit of a point is what the permutations reach from it."""
    seen, starts = [False] * degree, []
    for start in range(degree):
        if not seen[start]:
            starts.append(start)
            seen[start] = True
            orbit = [start]
            for x in orbit:
                for perm in perms:
                    if not seen[perm[x]]:
                        seen[perm[x]] = True
                        orbit.append(perm[x])
    return starts


def _validate_perm(p, degree):
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError(f"{p!r} is not a permutation of {degree} points")


# -- finite quotients --------------------------------------------------------


def _cycle_layout(perm) -> tuple:
    """``(L, cols, place)`` for a permutation of range(n) whose cycles all
    have one length L, as every table of a regular action has: its cycles,
    each from its least point and in the order of it, laid end to end in
    ``cols``, and ``place[x]``, the position of x in ``cols``.  So the cycle
    at position i is ``cols[i - i % L:i - i % L + L]``."""
    cols, place = [], [None] * len(perm)
    for start in range(len(perm)):
        x = start
        while place[x] is None:
            place[x] = len(cols)
            cols.append(x)
            x = perm[x]
    # the last cycle ends at cols[-1] and starts where perm takes that
    return len(cols) - place[perm[cols[-1]]], tuple(cols), tuple(place)


class FiniteQuotient:
    """Homomorphism from the free group into Sym(degree), one permutation
    image per generator.  The image group is the closure of the images, its
    regular tables; its elements, a view of them, double as the cosets of
    the kernel under the regular action.  The tables, the elements and the
    layouts are ``cached_property``s, each built on first use."""

    def __init__(self, images):
        images = tuple(tuple(p) for p in images)
        if not images:
            raise ValueError("a quotient needs at least one generator image")
        degree = len(images[0])
        for p in images:
            _validate_perm(p, degree)
        self.degree = degree
        self.images = images

    @property
    def n_gens(self) -> int:
        return len(self.images)

    @cached_property
    def tables(self) -> tuple:
        """Per-generator action on the image-group elements by right
        multiplication, with the breadth-first numbering: the coset table of
        the kernel, with the identity as base coset 0, and a canonical
        invariant of it.

        One breadth-first pass from the identity numbers the image-group
        elements and fills in the regular tables in that numbering.  Each
        element is keyed by its images of a base, points that only the
        identity fixes all of: when the generator images commute, the first
        point of each orbit, as a point's stabiliser in an abelian group
        fixes its whole orbit; otherwise every point."""
        images = self.images
        if all(itemgetter(*a)(b) == itemgetter(*b)(a) for a, b in combinations(images, 2)):
            base = orbit_starts(images, self.degree)
        else:
            base = range(self.degree)
        # h then an image takes the base to the image at h's base images,
        # read in one C-level gather; on one point itemgetter returns the
        # point itself, not a 1-tuple, and that point keys the element
        one = len(base) == 1
        key = base[0] if one else tuple(base)
        order, index = [key], {key: 0}
        rows = [[] for _ in images]
        for h in order:
            gather = itemgetter(h) if one else itemgetter(*h)
            for img, row in zip(images, rows):
                nxt = gather(img)
                i = index.get(nxt)
                if i is None:
                    if len(order) >= CLOSURE_LIMIT:
                        raise ValueError(f"group closure exceeds limit {CLOSURE_LIMIT}")
                    i = index[nxt] = len(order)
                    order.append(nxt)
                row.append(i)
        return tuple(tuple(row) for row in rows)

    @cached_property
    def elements(self) -> tuple:
        """Image-group elements in breadth-first order from the identity, as
        permutations: a view of the tables, built along ``_bfs_steps``,
        element i being element h then generator g."""
        elements = [perm_identity(self.degree)]
        for h, g in _bfs_steps(self.tables):
            elements.append(perm_mul(elements[h], self.images[g]))
        return tuple(elements)

    @property
    def order(self) -> int:
        return len(self.tables[0])

    @property
    def image_texts(self):
        """``format_perm`` of each generator's image."""
        return map(format_perm, self.images)

    @cached_property
    def layouts(self) -> tuple:
        """``_cycle_layout`` of each generator's table.  The action is
        regular, so L is the order of the generator's image."""
        return tuple(map(_cycle_layout, self.tables))

    def walk(self, runs, c: int = 0) -> int:
        """The coset that the word with these runs leads to from coset c.
        A run g^e moves e places along the cycle of c in g's table, modulo
        its length L, in one step through the ``layouts``; so a huge or
        negative exponent costs no more than a small positive one."""
        layouts = self.layouts
        for g, e in runs:
            length, cols, place = layouts[g]
            i = place[c]
            off = i % length
            c = cols[i - off + (off + e) % length]
        return c

    def kernel_key(self) -> tuple:
        return (self.order, self.tables)

    def __repr__(self) -> str:
        imgs = ", ".join(format_perm(p) for p in self.images)
        return f"{type(self).__name__}(degree={self.degree}, images=[{imgs}])"


def table_order(q: FiniteQuotient, runs) -> int:
    """Order of the image of the word with these runs: how many walks of
    the word from coset 0 it takes to come back to 0."""
    k, c = 1, q.walk(runs)
    while c:
        k, c = k + 1, q.walk(runs, c)
    return k


def kernel_index(q: FiniteQuotient, pres: FinitePresentation) -> int:
    """Index of the kernel of free group -> image group; equals the image
    group order.  A relator is killed exactly when its walk from coset 0
    comes back to 0, since the image group acts regularly."""
    if pres.n_gens != q.n_gens:
        raise ValueError(f"alphabet mismatch: presentation has {pres.n_gens} "
                         f"generators, quotient {q.n_gens}")
    if any(q.walk(r.runs) for r in pres.relators):
        raise ValueError("relators are not killed by the quotient")
    return q.order


# -- catalog of small groups -------------------------------------------------


class CatalogGroup(FiniteQuotient):
    """A permutation group given by generators, as the quotient of the free
    group onto it that sends generator i to ``images[i]``; ``order`` is
    checked against the closure, or taken from it when omitted.

    ``maximal_types`` is the group's closedness certificate, set by
    ``default_catalog`` and None on any other group: the names of the
    catalog groups isomorphic to its maximal subgroups, the trivial one
    left out.  ``search_tables`` holds the group's ``search.SearchTables``
    once the first search that reaches the group has built them, and is
    None before: library API that README documents, so a plain attribute."""

    maximal_types = None
    search_tables = None

    def __init__(self, name: str, gens, order: int = None):
        super().__init__(gens)
        self.name = name
        if order is not None and self.order != order:
            raise ValueError(
                f"catalog group {name}: closure order {self.order} != declared {order}"
            )


def _bfs_steps(tables) -> list:
    """``(h, g)`` for each element i > 0 of the breadth-first numbering of
    the regular ``tables``: i was first reached as element h times
    generator g."""
    steps = []
    for h in range(len(tables[0])):
        for g, table in enumerate(tables):
            if table[h] == len(steps) + 1:
                steps.append((h, g))
    return steps


def _cycle(n: int) -> tuple:
    return tuple((i + 1) % n for i in range(n))


@cache
def default_catalog() -> tuple:
    """Cyclic C_2..C_12, elementary abelian C_pxC_p for p in {2, 3, 5},
    dihedral D_4 and D_5, symmetric S_3 and S_4, alternating A_4, as a
    tuple sorted by order, then name.  Each group carries its closedness
    certificate ``maximal_types``: the maximal subgroups of C_n are the
    C_(n/q) for the primes q dividing n, those of C_pxC_p are C_p, and the
    others are listed; the tests prove each by brute force.

    Built once per process: the tuple is immutable, so every search shares
    its groups and the search tables they cache."""
    entries = []
    for n in range(2, 13):
        grp = CatalogGroup(f"C{n}", (_cycle(n),), n)
        grp.maximal_types = tuple(f"C{n // q}" for q in (2, 3, 5, 7, 11) if n % q == 0 and q < n)
        entries.append(grp)
    for p in (2, 3, 5):
        first = cycles_to_perm([tuple(range(p))], 2 * p)
        second = cycles_to_perm([tuple(range(p, 2 * p))], 2 * p)
        grp = CatalogGroup(f"C{p}xC{p}", (first, second), p * p)
        grp.maximal_types = (f"C{p}",)
        entries.append(grp)
    for name, degree, gens, order, maximal in (
        ("D4", 4, ([(0, 1, 2, 3)], [(1, 3)]), 8, ("C4", "C2xC2")),
        ("D5", 5, ([(0, 1, 2, 3, 4)], [(1, 4), (2, 3)]), 10, ("C2", "C5")),
        ("S3", 3, ([(0, 1)], [(0, 1, 2)]), 6, ("C2", "C3")),
        ("S4", 4, ([(0, 1)], [(0, 1, 2, 3)]), 24, ("S3", "D4", "A4")),
        ("A4", 4, ([(0, 1, 2)], [(1, 2, 3)]), 12, ("C3", "C2xC2")),
    ):
        grp = CatalogGroup(name, tuple(cycles_to_perm(c, degree) for c in gens), order)
        grp.maximal_types = maximal
        entries.append(grp)
    entries.sort(key=lambda g: (g.order, g.name))
    return tuple(entries)


def parse_catalog_manifest(text: str) -> tuple:
    """The catalog of a manifest, its groups in the order of their lines.
    One group per line: ``name degree perm1 perm2 ...`` with cycle
    notation, e.g. ``S3 3 (1 2) (1 2 3)``.  Blank lines and lines starting
    with '#' are ignored."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise ValueError(f"manifest line {lineno}: expected 'name degree perms...'")
        name, degree_text, perm_text = parts
        if not degree_text.isdecimal() or int(degree_text) < 1:
            raise ValueError(f"manifest line {lineno}: invalid degree {degree_text!r}")
        degree = int(degree_text)
        gen_texts = [t for t in split_outside_parens(perm_text, str.isspace) if t]
        if not gen_texts:
            raise ValueError(f"manifest line {lineno}: no generators")
        gens = tuple(parse_perm(t, degree) for t in gen_texts)
        entries.append(CatalogGroup(name, gens))
    return tuple(entries)


def split_outside_parens(text: str, sep) -> list:
    """The pieces of text between the characters that ``sep`` accepts
    outside parentheses, e.g. the permutations of ``(1 2)(3 4) (1 2 3)``
    at whitespace; a ``)`` that closes no ``(`` raises ``ValueError``."""
    pieces, start, depth = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parenthesis in {text!r}")
        elif not depth and sep(ch):
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    return pieces


# -- the search's budget and entry point ------------------------------------


class SearchBudget:
    """Caps for the homomorphism search: ``max_order``, its only cap on the
    order of a catalog group, and ``max_assignments``; exhaustion is
    reported, not fatal.  ``enumerate_quotients`` keeps its count by rank
    and writes it back; ``spend`` charges as the brute force goes."""

    __slots__ = ("max_order", "max_assignments", "assignments_used", "exhausted")

    def __init__(self, max_order: int = 24, max_assignments: int = 10**6):
        self.max_order = max_order
        self.max_assignments = max_assignments
        self.assignments_used = 0
        self.exhausted = False

    def spend(self, assignments: int = 1) -> bool:
        """Charge ``assignments`` full assignments.  When fewer are left,
        charge what is left, mark the budget exhausted and return False."""
        room = max(self.max_assignments - self.assignments_used, 0)
        if assignments > room:
            self.assignments_used += room
            self.exhausted = True
            return False
        self.assignments_used += assignments
        return True


def enumerate_quotients(pres: FinitePresentation, catalog: tuple = None, *,
                        budget: SearchBudget = None):
    """Yield a ``search.CatalogKernel`` for each quotient of pres onto a
    subgroup of a catalog group of order at most ``budget.max_order``, each
    kernel once, in catalog order and then assignment order;
    ``search.search_quotients`` says how.  ``catalog`` is a tuple of
    ``CatalogGroup``s, ``default_catalog()`` when omitted.

    The search is imported on the first call.  This generator stays here,
    keyword-only ``budget`` and all, because the bench tracer
    (``bench/tracer.py``) wraps the generator functions of this module and
    counts the assignments a search spends off ``kwargs["budget"]``: it
    would count none for a budget passed in third place."""
    from .search import search_quotients
    yield from search_quotients(pres, catalog, budget)
