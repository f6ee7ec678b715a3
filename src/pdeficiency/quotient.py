"""Finite quotients of the free group through permutation images, plus a
catalog of small permutation groups and the homomorphism search over it.

Permutations are tuples of 0-based images; ``perm_mul(a, b)`` applies a
first and then b, so evaluating a word left to right is a homomorphism.

A quotient's coset table is its regular tables, and ``_cycle_layout``
lays out the cycles of each table that is walked, all of one length, the
order of the generator's image.  A catalog is a tuple of ``CatalogGroup``s;
a catalog group is the quotient onto itself by its generators, and it
also caches its multiplication table and powers, its automorphisms with
two bitmasks of them per element, the search's candidate masks, the
cycle text of each element and the cycle layout of right multiplication
by each.  The search's ``SearchBudget`` is its only order cap: it skips
every group above ``budget.max_order``, without closing a manifest group
whose generators' orders have their lcm above it, and refuses one within
it above ``SEARCH_ORDER_LIMIT`` before building its tables.  The search
checks each relator r = c*u^m*c^-1 by the order k of the image of u,
which divides m exactly when r is killed.  At each depth it tries only
the set bits of one candidate bitmask: the images that no automorphism
fixing the prefix takes lower, ANDed with the images that solve each
relator whose last generator is one run.  It charges its budget by the
rank of its position in assignment order, so a skipped image costs its
subtree, and deduplicates kernels on their tables as bytes.  It yields
each kernel as a ``CatalogKernel``: its group, image indices, closure and
those orders, from which the kernel invariants and the description of
each one are read, with no coset table; ``CatalogKernel.quotient`` closes
the images anew into a ``FiniteQuotient`` for the oracles.
"""

import math
from functools import cache, cached_property
from itertools import chain
from operator import itemgetter

from .presentation import FinitePresentation
from .words import _record

CLOSURE_LIMIT = 10_000
# the largest catalog group the search builds tables for: its
# multiplication table holds at most 10^6 entries
SEARCH_ORDER_LIMIT = 1_000
# the most candidate masks a catalog group caches for the search
SEARCH_CACHE_LIMIT = 8_192


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
            if not item.isdigit() or int(item) < 1:
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
    return ", ".join(f"{name}:{text}" for name, text in zip(pres.generators, q.image_texts))


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
    image per generator.  The image group is the closure of the images; its
    elements double as the cosets of the kernel under the regular action.
    """

    __slots__ = ("degree", "images", "_elements", "_tables", "_layouts")

    def __init__(self, images):
        images = tuple(tuple(p) for p in images)
        if not images:
            raise ValueError("a quotient needs at least one generator image")
        degree = len(images[0])
        for p in images:
            _validate_perm(p, degree)
        self.degree = degree
        self.images = images
        self._elements = None
        self._tables = None
        self._layouts = None

    @classmethod
    def _make(cls, images, tables) -> "FiniteQuotient":
        """The quotient of permutations already checked, with its regular
        tables in the breadth-first numbering of ``_close``, built without
        closing the images; nothing is checked."""
        q = object.__new__(cls)
        q.degree = len(images[0])
        q.images = images
        q._elements = None
        q._tables = tables
        q._layouts = None
        return q

    @property
    def n_gens(self) -> int:
        return len(self.images)

    def _close(self) -> None:
        """One breadth-first pass from the identity numbers the image-group
        elements and fills in the regular tables in that numbering."""
        identity = perm_identity(self.degree)
        order = [identity]
        index = {identity: 0}
        rows = [[] for _ in self.images]
        for h in order:
            # h then each image, read off the image at h's points in one
            # C-level gather; on one point itemgetter would return the point
            # itself, not a 1-tuple, and h then img is img
            gather = itemgetter(*h) if self.degree > 1 else tuple
            for img, row in zip(self.images, rows):
                nxt = gather(img)
                i = index.get(nxt)
                if i is None:
                    if len(order) >= CLOSURE_LIMIT:
                        raise ValueError(f"group closure exceeds limit {CLOSURE_LIMIT}")
                    i = index[nxt] = len(order)
                    order.append(nxt)
                row.append(i)
        self._elements = tuple(order)
        if self._tables is None:
            self._tables = tuple(tuple(row) for row in rows)

    @property
    def elements(self) -> tuple:
        """Image-group elements in breadth-first order from the identity."""
        if self._elements is None:
            self._close()
        return self._elements

    @property
    def order(self) -> int:
        return len(self.tables[0])

    @property
    def tables(self) -> tuple:
        """Per-generator action on the image-group elements by right
        multiplication, with the breadth-first numbering: the coset table of
        the kernel, with the identity as base coset 0, and a canonical
        invariant of it."""
        if self._tables is None:
            self._close()
        return self._tables

    @property
    def image_texts(self):
        """``format_perm`` of each generator's image."""
        return map(format_perm, self.images)

    @property
    def layouts(self) -> tuple:
        """``_cycle_layout`` of each generator's table, built on first use.
        The action is regular, so L is the order of the generator's image."""
        if self._layouts is None:
            self._layouts = tuple(map(_cycle_layout, self.tables))
        return self._layouts

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
    checked against the closure, or taken from it when omitted."""

    def __init__(self, name: str, gens, order: int = None):
        super().__init__(gens)
        self.name = name
        if order is not None and self.order != order:
            raise ValueError(
                f"catalog group {name}: closure order {self.order} != declared {order}"
            )

    @cached_property
    def search_tables(self) -> tuple:
        """``(mul, powers)`` over the indices of ``elements``: ``mul[a][b]``
        is a then b, index 0 is the identity, and ``powers[a]`` lists a^0,
        a^1, ... up to the order of a.  Built on the first search that
        reaches the group."""
        tables = self.tables
        steps = _bfs_steps(tables)
        mul = []
        for a in range(self.order):
            row = [a]
            for h, g in steps:  # a times element i is (a times element h) times g
                row.append(tables[g][row[h]])
            mul.append(tuple(row))
        mul = tuple(mul)
        powers = []
        for a in range(self.order):
            pw = [0]
            x = a
            while x:
                pw.append(x)
                x = mul[x][a]
            powers.append(tuple(pw))
        return mul, tuple(powers)

    @cached_property
    def cycle_texts(self) -> tuple:
        """``format_perm`` of each of ``elements``, for the quotients that
        the search yields.  Built on the first search that yields one."""
        return tuple(map(format_perm, self.elements))

    @cached_property
    def _element_layouts(self) -> list:
        """``cycle_layout`` of each element index, None until first asked."""
        return [None] * self.order

    def cycle_layout(self, a: int) -> tuple:
        """``_cycle_layout`` of right multiplication by element index a on
        all element indices, built on first use for each element: L is the
        order of a, and ``cols`` and ``place`` hold ``order`` small ints
        each, as a row of ``mul`` does."""
        layout = self._element_layouts[a]
        if layout is None:
            column = [row[a] for row in self.search_tables[0]]
            layout = self._element_layouts[a] = _cycle_layout(column)
        return layout

    @cached_property
    def automorphisms(self) -> tuple:
        """Automorphisms other than the identity, each as the permutation of
        the indices of ``elements`` it induces, in the product order of
        their generator images.  Built on the first search that reaches
        the group.

        Generator images of matching orders are chosen one at a time, and a
        prefix is dropped once it fails to extend to an injective map of
        the subgroup its generators generate that respects ``mul``; so a
        generator in that subgroup has a forced image.  The last
        generator's image completes a tuple that is checked whole: the map
        is built along the breadth-first steps of ``elements``, and it is
        an automorphism when it is injective and sends a*x to t*phi(x) for
        each generator a with image t and every x, which one gather of
        ``mul[a]`` and one of ``mul[t]`` compare.  The build tries at
        most |H|^2 images and keeps at most max(|H|, CLOSURE_LIMIT /
        sqrt(|H|)) automorphisms: about as many entries as ``mul`` for a
        large group, and whole Aut(H) for every default catalog group.  A
        subset of Aut(H) prunes the search soundly, just less."""
        mul, powers = self.search_tables
        size = self.order
        gens = tuple(table[0] for table in self.tables)
        choices = [[x for x in range(size) if len(powers[x]) == len(powers[a])]
                   for a in gens]
        keep = max(size, CLOSURE_LIMIT // math.isqrt(size))
        tries = size * size
        found = []
        last = len(gens) - 1
        steps = _bfs_steps(self.tables)
        lefts = [itemgetter(*mul[a]) for a in gens]  # x -> a*x, gathered from a map

        def automorphism(images):
            """The automorphism that sends ``gens`` to ``images``, as a tuple,
            or None if there is none."""
            phi = [0]
            for h, g in steps:
                phi.append(mul[phi[h]][images[g]])
            gather = itemgetter(*phi)
            for left, t in zip(lefts, images):
                if left(phi) != gather(mul[t]):
                    return None
            return tuple(phi) if len(set(phi)) == size else None

        def extend(img, images) -> bool:
            """Add every automorphism that extends the map ``img`` of the
            subgroup generated by the first len(images) generators; False
            once the build must stop."""
            nonlocal tries
            k = len(images)
            used = set(img.values())
            if gens[k] in img:
                candidates = [img[gens[k]]]
            else:
                candidates = [t for t in choices[k] if t not in used]
            for t in candidates:
                if not tries:
                    return False
                tries -= 1
                if k == last:
                    phi = automorphism(images + (t,))
                    if phi is not None and images + (t,) != gens:
                        found.append(phi)
                        if len(found) == keep:
                            return False
                    continue
                wider = _extend_map(mul, img, used, gens[:k + 1], images + (t,))
                if wider is not None and not extend(wider, images + (t,)):
                    return False
            return True

        extend({0: 0}, ())
        return tuple(found)

    @cached_property
    def automorphism_masks(self) -> tuple:
        """``(fix, lower)``, two int bitmasks per element index x over the
        indices of ``automorphisms``: bit i of ``fix[x]`` is set when
        automorphism i fixes x, and bit i of ``lower[x]`` when it takes x
        to a smaller index.  Built on the first search that reaches the
        group."""
        if not self.automorphisms:
            return (0,) * self.order, (0,) * self.order
        fix, lower = [], []
        # column x lists the image of x under each automorphism, the last
        # first, so that automorphism i is bit i of the binary text
        for x, column in enumerate(zip(*reversed(self.automorphisms))):
            fix.append(int("".join(["1" if y == x else "0" for y in column]), 2))
            lower.append(int("".join(["1" if y < x else "0" for y in column]), 2))
        return tuple(fix), tuple(lower)

    @cached_property
    def _search_masks(self) -> dict:
        """The masks of ``orbit_minima``, keyed by an int, and of
        ``solutions``, keyed by a tuple; emptied when it holds
        ``SEARCH_CACHE_LIMIT``.  Built on the first search that reaches
        the group."""
        return {}

    def orbit_minima(self, stab: int) -> int:
        """The mask of the element indices x that no automorphism in the
        mask ``stab`` takes to a smaller index: where the automorphisms in
        ``stab`` fix the images above it, the images that the search tries
        at a depth."""
        cache = self._search_masks
        mask = cache.get(stab)
        if mask is None:
            if len(cache) >= SEARCH_CACHE_LIMIT:
                cache.clear()
            lower = self.automorphism_masks[1]
            mask = cache[stab] = int("".join(
                ["0" if stab & lower[x] else "1" for x in reversed(range(self.order))]), 2)
        return mask

    def solutions(self, a: int, e: int, m: int) -> int:
        """The mask of the element indices x for which the order of a*x^e
        divides m."""
        cache = self._search_masks
        key = a, e, m
        mask = cache.get(key)
        if mask is None:
            if len(cache) >= SEARCH_CACHE_LIMIT:
                cache.clear()
            mul, powers = self.search_tables
            row = mul[a]
            mask = cache[key] = int("".join(
                ["0" if m % len(powers[row[pw[e % len(pw)]]]) else "1"
                 for pw in reversed(powers)]), 2)
        return mask


@_record
class CatalogKernel:
    """A kernel that ``enumerate_quotients`` yields, as the search holds it:
    its catalog group, the index in ``group.elements`` of each generator's
    image, the indices of the image group's elements in breadth-first order
    from the identity, and per relator the order k of its root's image."""

    group: CatalogGroup
    images: tuple
    closure: list
    ks: list

    @property
    def order(self) -> int:
        """The order of the image group, the kernel's index."""
        return len(self.closure)

    @property
    def image_texts(self):
        """Each generator's image in cycle notation, read off the group's
        ``cycle_texts``, formatted once per element."""
        return map(self.group.cycle_texts.__getitem__, self.images)

    def quotient(self) -> FiniteQuotient:
        """The ``FiniteQuotient`` of the image permutations, checked and
        closed anew: the coset table for the oracles."""
        return FiniteQuotient([self.group.elements[a] for a in self.images])


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


def _extend_map(mul, img, used, gens, images):
    """The map ``img`` of the subgroup generated by all of ``gens`` but the
    last, which respects ``mul`` and has the image set ``used``, extended
    to the subgroup generated by ``gens``, each sent to its image; or None
    unless that is injective and respects ``mul``.  Only what is new is
    checked: the old elements times the new generator, then the new
    elements times every generator.  ``img`` is not changed."""
    new, order = {}, []
    last, pairs = ((gens[-1], images[-1]),), tuple(zip(gens, images))
    work = chain(((x, ix, last) for x, ix in img.items()),
                 ((x, new[x], pairs) for x in order))
    for x, ix, steps in work:
        mx, mix = mul[x], mul[ix]
        for g, t in steps:
            y, z = mx[g], mix[t]
            iy = img.get(y)
            if iy is None:
                iy = new.get(y)
                if iy is None:
                    new[y] = iy = z
                    order.append(y)
            if iy != z:
                return None
    values = set(new.values())
    if len(values) < len(new) or not used.isdisjoint(values):
        return None
    return {**img, **new} if new else img


def _cycle(n: int) -> tuple:
    return tuple((i + 1) % n for i in range(n))


@cache
def default_catalog() -> tuple:
    """Cyclic C_2..C_12, elementary abelian C_pxC_p for p in {2, 3, 5},
    dihedral D_4 and D_5, symmetric S_3 and S_4, alternating A_4, as a
    tuple sorted by order, then name.

    Built once per process: the tuple is immutable, so every search shares
    its groups and the search tables they cache."""
    entries = []
    for n in range(2, 13):
        entries.append(CatalogGroup(f"C{n}", (_cycle(n),), n))
    for p in (2, 3, 5):
        first = cycles_to_perm([tuple(range(p))], 2 * p)
        second = cycles_to_perm([tuple(range(p, 2 * p))], 2 * p)
        entries.append(CatalogGroup(f"C{p}xC{p}", (first, second), p * p))
    for name, degree, gens, order in (
        ("D4", 4, ([(0, 1, 2, 3)], [(1, 3)]), 8),
        ("D5", 5, ([(0, 1, 2, 3, 4)], [(1, 4), (2, 3)]), 10),
        ("S3", 3, ([(0, 1)], [(0, 1, 2)]), 6),
        ("S4", 4, ([(0, 1)], [(0, 1, 2, 3)]), 24),
        ("A4", 4, ([(0, 1, 2)], [(1, 2, 3)]), 12),
    ):
        entries.append(CatalogGroup(name, tuple(cycles_to_perm(c, degree) for c in gens), order))
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
        if not degree_text.isdigit() or int(degree_text) < 1:
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


# -- quotient search ---------------------------------------------------------


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
    """Yield a ``CatalogKernel`` for each quotient of pres onto a subgroup
    of a catalog group of order at most ``budget.max_order``, deduplicated
    by kernel.  ``catalog`` is a tuple of ``CatalogGroup``s,
    ``default_catalog()`` when omitted; a group within the cap whose order
    is above ``SEARCH_ORDER_LIMIT`` is refused with ``ValueError`` when the
    search reaches it.  ``budget`` is keyword-only: the bench tracer
    (``bench/tracer.py``) counts the assignments a search spends off
    ``kwargs["budget"]``, and would count none for a budget passed in third
    place.

    For each catalog group, generator images are assigned depth-first in
    generator order, each running over the group's element list, so full
    assignments come in the order of ``itertools.product``.  Each relator
    r = c*u^m*c^-1 is checked as soon as the highest generator g of u has
    an image: r vanishes exactly when the order k of u's image divides m,
    and one that does not vanish cuts the whole subtree below.  So does a
    prefix of images that an automorphism α of the group takes to an
    earlier prefix: for every assignment φ below it, α∘φ has the same
    kernel and comes earlier, so the first assignment of each kernel is
    never cut.  The search keeps, per depth, the automorphisms that fix the
    prefix above it as a bitmask over ``grp.automorphisms``, and the next
    depth's mask is its meet with ``fix[x]`` of ``grp.automorphism_masks``.

    Each depth walks the set bits of one candidate bitmask in ascending
    order.  It starts as ``grp.orbit_minima`` of the automorphism mask, the
    images that none of those automorphisms takes lower.  u is checked
    through its rotation that ends with a run of g, a conjugate with the
    same order, split at its first run of g: the product P of the runs
    before that is taken once per parent.  When the rest is one run g^e,
    the mask is ANDed with ``grp.solutions(P, e, m)``, the x for which the
    order of P*x^e divides m; otherwise the rest is walked from P for each
    candidate.  Each ``CatalogKernel`` carries the k of every relator, all
    taken at its assignment.  Order of results is deterministic:
    catalog order, then assignment order over each group's element list.

    Two assignments are the same kernel exactly when their regular coset
    tables agree after breadth-first relabeling.  One breadth-first pass
    from the identity numbers the image's elements, in a list over the
    group's element indices that is reset after each pass, and writes the
    relabelled tables, interleaved, into one flat list; the kernel is keyed
    by that list as bytes, one byte an entry when the image has order at
    most 256, and above that the high bytes of all entries and then their
    low bytes.  The key is injective, so the deduplication is exact.  A
    kernel yielded keeps that pass's closure and builds no table.

    ``budget.max_assignments`` counts full assignments: each one reached
    costs 1 and a cut subtree, by a relator or an automorphism, costs the
    number of full assignments below it, also when the candidate mask
    skips it, so the assignments used are the rank of the search's
    position in assignment order.  The search reads that rank off the
    image indices: the rank before image x at depth k is the rank before
    the parent's image plus x times ``size**(n - 1 - k)``.  It writes the
    rank to ``budget.assignments_used`` before each yield and at the end of
    each group, and exhausts at the first cut, assignment or finished
    depth whose rank passes ``max_assignments``, charging what was left:
    ``assignments_used`` is then ``max_assignments``.  So
    ``assignments_used`` and ``exhausted``, after each yield and at the
    end, and the quotients yielded are those of trying every assignment in
    turn.
    """
    if catalog is None:
        catalog = default_catalog()
    if budget is None:
        budget = SearchBudget()
    max_order = budget.max_order
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    if budget.max_assignments < 0:
        raise ValueError("max_assignments must be nonnegative")
    n = pres.n_gens
    if n == 0:
        raise ValueError("the quotient search needs at least one generator")
    # relator i = c*u^m*c^-1 is killed iff the order of u's image divides m;
    # it is checked at the depth of the highest generator of u, through the
    # rotation of u (a conjugate, so of the same order) that ends with its
    # last run of that generator: the runs before its first run of it are
    # the prefix, read once per parent, and the rest the tail
    checks = [[] for _ in range(n)]
    for i in range(len(pres.relators)):
        rd = pres.root(i)
        runs = rd.root.runs
        top = max(g for g, _ in runs)
        at = [j for j, (g, _) in enumerate(runs) if g == top]
        checks[top].append((i, runs[at[-1] + 1:] + runs[:at[0]], runs[at[0]:at[-1] + 1],
                            rd.exponent))
    ks = [0] * len(pres.relators)
    last = n - 1
    stop = budget.max_assignments
    seen = set()
    for grp in catalog:
        # the order of each generator divides the group's order, so a group
        # not yet closed (a manifest's) is skipped without its closure
        if grp._tables is None and math.lcm(*map(perm_order, grp.images)) > max_order:
            continue
        size = grp.order
        if size > max_order:
            continue
        if size > SEARCH_ORDER_LIMIT:
            raise ValueError(f"catalog group {grp.name} has order {size}, "
                             f"above the search limit {SEARCH_ORDER_LIMIT}")
        mul, powers = grp.search_tables
        fix = grp.automorphism_masks[0]
        minima, solutions = grp.orbit_minima, grp.solutions
        leaves = [size ** (n - 1 - k) for k in range(n)]
        images = [0] * n
        # per depth k: the candidates for images[k] not yet tried, as a
        # mask; the rank where the depth starts; the automorphisms that fix
        # images[:k], as a mask; per relator checked there, (i, prefix
        # product, tail, m) when its tail is walked per candidate, and
        # (i, prefix product, e) when its tail is one run g^e, solved for
        # the whole mask at once
        masks, bases, stabs = [0] * n, [0] * n, [0] * n
        walks, solved = [()] * n, [()] * n
        number = [-1] * size  # the closure's numbering, reset after each
        k, stab, base = 0, (1 << len(grp.automorphisms)) - 1, budget.assignments_used
        fresh = True
        while True:
            if fresh:  # a new depth k: its candidates, cut by the relators
                fresh = False
                mask = minima(stab)
                walk, sol = [], []
                for i, prefix, tail, m in checks[k]:
                    y = 0
                    for g, e in prefix:
                        pw = powers[images[g]]
                        y = mul[y][pw[e % len(pw)]]
                    if len(tail) == 1:
                        e = tail[0][1]
                        mask &= solutions(y, e, m)
                        sol.append((i, y, e))
                    else:
                        walk.append((i, y, tail, m))
                masks[k], bases[k], stabs[k], walks[k], solved[k] = mask, base, stab, walk, sol
            else:
                mask = masks[k]
            if not mask:  # every candidate tried: the parent's node is done
                used = bases[k] + size * leaves[k]
                if used > stop:
                    budget.assignments_used, budget.exhausted = stop, True
                    return
                if not k:
                    break
                k -= 1
                continue
            low = mask & -mask
            masks[k] = mask ^ low
            x = images[k] = low.bit_length() - 1
            cut = False
            for i, y, tail, m in walks[k]:
                for g, e in tail:
                    pw = powers[images[g]]
                    y = mul[y][pw[e % len(pw)]]
                j = ks[i] = len(powers[y])
                if m % j:
                    cut = True
                    break
            if not cut and k < last:
                base = bases[k] + x * leaves[k]
                stab = stabs[k] & fix[x]
                k += 1
                fresh = True
                continue
            used = bases[k] + (x + 1) * leaves[k]
            if used > stop:  # charge what was left of the budget
                budget.assignments_used, budget.exhausted = stop, True
                return
            if cut:
                continue
            # one breadth-first pass numbers the image's elements and
            # writes each one times each generator, renumbered, to flat
            order = [0]
            number[0] = 0
            flat = []
            for h in order:
                row = mul[h]
                for a in images:
                    y = row[a]
                    i = number[y]
                    if i < 0:
                        i = number[y] = len(order)
                        order.append(y)
                    flat.append(i)
            for y in order:
                number[y] = -1
            if len(order) <= 256:
                key = bytes(flat)
            else:  # the high bytes, then the low bytes
                key = bytes([i >> 8 for i in flat]) + bytes([i & 255 for i in flat])
            if key not in seen:
                seen.add(key)
                for j, sol in enumerate(solved):
                    for i, y, e in sol:
                        pw = powers[images[j]]
                        ks[i] = len(powers[mul[y][pw[e % len(pw)]]])
                budget.assignments_used = used
                yield CatalogKernel(grp, tuple(images), order, ks[:])
        budget.assignments_used = used
