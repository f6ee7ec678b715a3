"""The homomorphism search over a catalog of small permutation groups, and
the per-group tables it reads.

``quotient.enumerate_quotients`` is the search's entry point, and imports
this module on its first call: a command that never searches compiles
none of it.

A catalog group's ``SearchTables`` are built on the first search that
reaches the group and kept in its ``search_tables``: its multiplication
table and powers, its automorphisms with two bitmasks of them per element,
a bitmask of its maximal subgroups per element, the search's candidate
masks, the cycle text of each element and the cycle layout of right
multiplication by each: the tables as ``cached_property``s, the masks
and layouts through an ``lru_cache`` per method.  The search's
``SearchBudget`` is its only order cap: it skips every group above ``budget.max_order``, without closing a
manifest group whose generators' orders have their lcm above it, and
refuses one within it above ``SEARCH_ORDER_LIMIT`` before building its
tables.  The search checks each relator r = c*u^m*c^-1 by the order k of
the image of u, which divides m exactly when r is killed.  At each depth
it tries only the set bits of one candidate bitmask: the images that no
automorphism fixing the prefix takes lower, ANDed with the images that
solve each relator whose last generator is one run.  It charges its
budget by the rank of its position in assignment order, so a skipped
image costs its subtree.  On a catalog closed under subgroups, which each
group of ``default_catalog`` certifies, the last depth tries only images
that generate their group, each a new kernel; any other catalog
deduplicates kernels on their tables as bytes.  It yields each kernel as a
``CatalogKernel``: its group, image indices and those orders, from which
the kernel invariants and the description of each one are read, with no
coset table, and its closure, built on first use when the images generate
the group; ``CatalogKernel.quotient`` closes the images anew into a
``FiniteQuotient`` for the oracles.
"""

import math
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter

from .presentation import FinitePresentation
from .quotient import (
    CLOSURE_LIMIT,
    CatalogGroup,
    FiniteQuotient,
    SearchBudget,
    _bfs_steps,
    _cycle_layout,
    default_catalog,
    format_perm,
    perm_order,
)

# the largest catalog group the search builds tables for: its
# multiplication table holds at most 10^6 entries
SEARCH_ORDER_LIMIT = 1_000
# the most entries each ``lru_cache`` of a ``SearchTables`` method holds,
# over every group's tables: so each cache keeps at most that many
# ``SearchTables`` alive
SEARCH_CACHE_LIMIT = 8_192


def tables_of(grp: CatalogGroup) -> "SearchTables":
    """The group's ``SearchTables``, built on first use and kept in
    ``grp.search_tables``, both library API that README documents."""
    tables = grp.search_tables
    if tables is None:
        tables = grp.search_tables = SearchTables(grp)
    return tables


class SearchTables:
    """What the search reads of one catalog group, over the indices of
    ``group.elements``: ``mul[a][b]`` is a then b, index 0 is the identity,
    and ``powers[a]`` lists a^0, a^1, ... up to the order of a.  The other
    members are built on first use: a ``cached_property`` each, and each
    method's results in an ``lru_cache`` of ``SEARCH_CACHE_LIMIT``."""

    def __init__(self, grp: CatalogGroup):
        self.group = grp
        tables = grp.tables
        steps = _bfs_steps(tables)
        mul = []
        for a in range(grp.order):
            row = [a]
            for h, g in steps:  # a times element i is (a times element h) times g
                row.append(tables[g][row[h]])
            mul.append(tuple(row))
        self.mul = mul = tuple(mul)
        powers = []
        for a in range(grp.order):
            pw = [0]
            x = a
            while x:
                pw.append(x)
                x = mul[x][a]
            powers.append(tuple(pw))
        self.powers = tuple(powers)

    @cached_property
    def cycle_texts(self) -> tuple:
        """``format_perm`` of each of ``group.elements``, for the quotients
        that the search yields.  Built on the first search that yields
        one."""
        return tuple(map(format_perm, self.group.elements))

    @lru_cache(maxsize=SEARCH_CACHE_LIMIT)
    def cycle_layout(self, a: int) -> tuple:
        """``_cycle_layout`` of right multiplication by element index a on
        all element indices, built on first use for each element: L is the
        order of a, and ``cols`` and ``place`` hold ``order`` small ints
        each, as a row of ``mul`` does."""
        return _cycle_layout([row[a] for row in self.mul])

    @cached_property
    def automorphisms(self) -> tuple:
        """Automorphisms other than the identity, each as the permutation of
        the element indices it induces, in the product order of their
        generator images.

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
        subset of Aut(H) prunes the search soundly, just less.  The build
        sets ``all_automorphisms``, True when neither cap stopped it, so
        that the tuple is all of Aut(H) less the identity."""
        mul, powers = self.mul, self.powers
        size = len(mul)
        group_tables = self.group.tables
        gens = tuple(table[0] for table in group_tables)
        choices = [[x for x in range(size) if len(powers[x]) == len(powers[a])]
                   for a in gens]
        keep = max(size, CLOSURE_LIMIT // math.isqrt(size))
        tries = size * size
        found = []
        last = len(gens) - 1
        steps = _bfs_steps(group_tables)
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

        self.all_automorphisms = extend({0: 0}, ())
        return tuple(found)

    @cached_property
    def automorphism_masks(self) -> tuple:
        """``(fix, lower)``, two int bitmasks per element index x over the
        indices of ``automorphisms``: bit i of ``fix[x]`` is set when
        automorphism i fixes x, and bit i of ``lower[x]`` when it takes x
        to a smaller index."""
        if not self.automorphisms:
            return (0,) * len(self.mul), (0,) * len(self.mul)
        fix, lower = [], []
        # column x lists the image of x under each automorphism, the last
        # first, so that automorphism i is bit i of the binary text
        for x, column in enumerate(zip(*reversed(self.automorphisms))):
            fix.append(int("".join(["1" if y == x else "0" for y in column]), 2))
            lower.append(int("".join(["1" if y < x else "0" for y in column]), 2))
        return tuple(fix), tuple(lower)

    @lru_cache(maxsize=SEARCH_CACHE_LIMIT)
    def orbit_minima(self, stab: int) -> int:
        """The mask of the element indices x that no automorphism in the
        mask ``stab`` takes to a smaller index: where the automorphisms in
        ``stab`` fix the images above it, the images that the search tries
        at a depth."""
        lower = self.automorphism_masks[1]
        return int("".join(
            ["0" if stab & lower[x] else "1" for x in reversed(range(len(self.mul)))]), 2)

    @cached_property
    def maximal_masks(self) -> tuple:
        """An int bitmask per element index x over the maximal subgroups:
        bit j is set when maximal subgroup j holds x.  Every subgroup is a
        join: from the trivial one, each subgroup found is joined with each
        element outside it by ``_close_images``, and the maximal subgroups
        are the proper ones in no other proper one.  Built on the first
        search that tries only generating images."""
        mul = self.mul
        size = len(mul)
        whole = (1 << size) - 1
        number = [-1] * size
        found = {1}  # each subgroup as a mask of element indices
        joins = [(1, ())]  # and the elements it was joined from
        for sub, gens in joins:
            for x in range(size):
                if not sub >> x & 1:
                    wider = gens + (x,)
                    mask = sum([1 << y for y in _close_images(mul, wider, number)[0]])
                    if mask not in found:
                        found.add(mask)
                        joins.append((mask, wider))
        proper = [m for m in found if m != whole]
        maximal = [m for m in proper if not any(m != o and m & o == m for o in proper)]
        return tuple(sum(1 << j for j, m in enumerate(maximal) if m >> x & 1)
                     for x in range(size))

    @lru_cache(maxsize=SEARCH_CACHE_LIMIT)
    def generating(self, ins: int) -> int:
        """The mask of the element indices x in none of the maximal
        subgroups in the mask ``ins``: where ``ins`` holds those that hold
        every image above it, the images that complete a generating tuple."""
        return int("".join(["0" if ins & m else "1" for m in reversed(self.maximal_masks)]), 2)

    @lru_cache(maxsize=SEARCH_CACHE_LIMIT)
    def solutions(self, a: int, e: int, m: int) -> int:
        """The mask of the element indices x for which the order of a*x^e
        divides m."""
        powers = self.powers
        row = self.mul[a]
        return int("".join(["0" if m % len(powers[row[pw[e % len(pw)]]]) else "1"
                            for pw in reversed(powers)]), 2)


class CatalogKernel:
    """A kernel that the search yields, as the search holds it: its catalog
    group and that group's ``tables``, the index in ``group.elements`` of
    each generator's image, and per relator the order k of its root's
    image.  ``closure`` lists the indices of the image group's elements in
    breadth-first order from the identity; the search passes it when it has
    one, and without one the images generate the group and it is built on
    first use, in a slot, as there is one such object per search leaf."""

    __slots__ = ("group", "tables", "images", "ks", "_closure")

    def __init__(self, group: CatalogGroup, images: tuple, ks: list, closure: list = None):
        self.group = group
        self.tables = tables_of(group)
        self.images = images
        self.ks = ks
        self._closure = closure

    @property
    def closure(self) -> list:
        if self._closure is None:
            self._closure = _close_images(self.tables.mul, self.images,
                                          [-1] * self.group.order)[0]
        return self._closure

    @property
    def order(self) -> int:
        """The order of the image group, the kernel's index."""
        closure = self._closure
        return self.group.order if closure is None else len(closure)

    @property
    def image_texts(self):
        """Each generator's image in cycle notation, read off the tables'
        ``cycle_texts``, formatted once per element."""
        return map(self.tables.cycle_texts.__getitem__, self.images)

    def quotient(self) -> FiniteQuotient:
        """The ``FiniteQuotient`` of the image permutations, checked and
        closed anew: the coset table for the oracles."""
        return FiniteQuotient([self.group.elements[a] for a in self.images])


def _close_images(mul, images, number) -> tuple:
    """``(closure, flat)`` for the element indices ``images``: one
    breadth-first pass from the identity numbers the elements they
    generate, listed in ``closure``, and writes each one times each image,
    renumbered, to ``flat``, the regular tables interleaved.  ``number``
    holds -1 per element index of the group; the pass numbers in it and
    leaves it so."""
    closure = [0]
    number[0] = 0
    flat = []
    for h in closure:
        row = mul[h]
        for a in images:
            y = row[a]
            i = number[y]
            if i < 0:
                i = number[y] = len(closure)
                closure.append(y)
            flat.append(i)
    for y in closure:
        number[y] = -1
    return closure, flat


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


def _generating_only(catalog: tuple, max_order: int) -> bool:
    """Whether a search of ``catalog`` up to ``max_order`` may try only
    the images that generate their group, and the identity tuple once, and
    deduplicate nothing: when the catalog is closed under subgroups and
    the automorphisms of each group searched are all of Aut(G).  Closed
    means that the groups come in nondecreasing order, no name comes
    twice, and each carries a certificate ``maximal_types`` whose groups
    all come earlier in this catalog.  Only the default catalog's groups,
    which are pairwise non-isomorphic, carry one.

    Then, by induction over the certificates, a proper subgroup H of a
    group is trivial or isomorphic to an earlier group G', and an image
    that generates H has the kernel of an epimorphism onto G', which the
    search yields first in G', as no group before it is larger.  Two
    generating images with one kernel differ by an automorphism, and the
    automorphism pruning keeps the least of every orbit of Aut(G).  So
    every generating image it keeps is a new kernel, and no other image is
    but the first identity tuple: orderly generation (R. C. Read, "Every
    one a winner", Ann. Discrete Math. 2, 1978; B. D. McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998)."""
    names, last = set(), 0
    for grp in catalog:
        types = grp.maximal_types
        if types is None or grp.name in names or not names.issuperset(types) \
                or grp.order < last:
            return False
        names.add(grp.name)
        last = grp.order
    for grp in catalog:
        if grp.order <= max_order:
            tables = tables_of(grp)
            tables.automorphisms  # the build sets all_automorphisms
            if not tables.all_automorphisms:
                return False
    return True


def search_quotients(pres: FinitePresentation, catalog: tuple = None,
                     budget: SearchBudget = None):
    """The search behind ``quotient.enumerate_quotients``: yield a
    ``CatalogKernel`` for each quotient of pres onto a subgroup of a
    catalog group of order at most ``budget.max_order``, each kernel once.
    ``catalog`` is a tuple of ``CatalogGroup``s, ``default_catalog()`` when
    omitted; a group within the cap whose order is above
    ``SEARCH_ORDER_LIMIT`` is refused with ``ValueError`` when the search
    reaches it.

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
    prefix above it as a bitmask over ``tables.automorphisms``, and the
    next depth's mask is its meet with ``fix[x]`` of
    ``tables.automorphism_masks``.

    Each depth walks the set bits of one candidate bitmask in ascending
    order.  It starts as ``tables.orbit_minima`` of the automorphism mask,
    the images that none of those automorphisms takes lower.  u is checked
    through its rotation that ends with a run of g, a conjugate with the
    same order, split at its first run of g: the product P of the runs
    before that is taken once per parent.  When the rest is one run g^e,
    the mask is ANDed with ``tables.solutions(P, e, m)``, the x for which
    the order of P*x^e divides m; otherwise the rest is walked from P for
    each candidate.  Each ``CatalogKernel`` carries the k of every relator,
    all taken at its assignment.  Order of results is deterministic:
    catalog order, then assignment order over each group's element list.

    On a catalog closed under subgroups, such as the default one, no
    kernel is deduplicated; ``_generating_only`` decides this once per
    search, and says why it holds.  The search then tries only the images
    that generate their group, and the identity tuple until it has been
    yielded once: each depth ANDs the ``tables.maximal_masks`` of its image
    into a mask of the maximal subgroups that hold the prefix, and the last
    depth ANDs its candidates with ``tables.generating`` of that mask.
    Every such leaf is a new kernel, of index |G|, and it is yielded
    without its closure, which ``CatalogKernel.closure`` builds on first
    use.

    Any other catalog, and every manifest, deduplicates on the tables:
    two assignments are the same kernel exactly when their regular coset
    tables agree after breadth-first relabeling.  One breadth-first pass
    from the identity, ``_close_images``, numbers the image's elements, in
    a list over the group's element indices that is reset after each
    pass, and writes the relabelled tables, interleaved, into one flat
    list; the kernel is keyed by that list as bytes, one byte an entry
    when the image has order at most 256, and above that the high bytes of
    all entries and then their low bytes.  The key is injective, so the
    deduplication is exact.  A kernel yielded keeps that pass's closure
    and builds no table.

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
    fast = _generating_only(catalog, max_order)
    trivial = fast  # the trivial kernel is still to be yielded on the fast path
    for grp in catalog:
        # the order of each generator divides the group's order, so a group
        # not yet closed (a manifest's) is skipped without its closure
        if "tables" not in vars(grp) and math.lcm(*map(perm_order, grp.images)) > max_order:
            continue
        size = grp.order
        if size > max_order:
            continue
        if size > SEARCH_ORDER_LIMIT:
            raise ValueError(f"catalog group {grp.name} has order {size}, "
                             f"above the search limit {SEARCH_ORDER_LIMIT}")
        tables = tables_of(grp)
        mul, powers = tables.mul, tables.powers
        fix = tables.automorphism_masks[0]
        minima, solutions = tables.orbit_minima, tables.solutions
        # per element, the maximal subgroups that hold it, on the fast path
        maximal = tables.maximal_masks if fast else (0,) * size
        leaves = [size ** (n - 1 - k) for k in range(n)]
        images = [0] * n
        # per depth k: the candidates for images[k] not yet tried, as a
        # mask; the rank where the depth starts; the automorphisms that fix
        # images[:k], as a mask; the maximal subgroups that hold them, as a
        # mask; per relator checked there, (i, prefix product, tail, m)
        # when its tail is walked per candidate, and (i, prefix product, e)
        # when its tail is one run g^e, solved for the whole mask at once
        masks, bases, stabs, inss = [0] * n, [0] * n, [0] * n, [0] * n
        walks, solved = [()] * n, [()] * n
        number = [-1] * size  # the closure's numbering, reset after each
        k, stab, base = 0, (1 << len(tables.automorphisms)) - 1, budget.assignments_used
        ins = -1  # every bit set: every maximal subgroup
        fresh = True
        while True:
            if fresh:  # a new depth k: its candidates, cut by the relators
                fresh = False
                mask = minima(stab)
                if fast and k == last:
                    # the images that complete a generating tuple, and,
                    # below an identity prefix, the identity until the
                    # trivial kernel is yielded
                    gen = tables.generating(ins)
                    if trivial and not any(images[:last]):
                        gen |= 1
                    mask &= gen
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
                masks[k], bases[k], stabs[k], inss[k] = mask, base, stab, ins
                walks[k], solved[k] = walk, sol
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
                ins = inss[k] & maximal[x]
                k += 1
                fresh = True
                continue
            used = bases[k] + (x + 1) * leaves[k]
            if used > stop:  # charge what was left of the budget
                budget.assignments_used, budget.exhausted = stop, True
                return
            if cut:
                continue
            if fast:  # the images generate grp, or this is the identity
                closure = None
                if trivial and not any(images):
                    closure, trivial = [0], False
            else:
                closure, flat = _close_images(mul, images, number)
                if len(closure) <= 256:
                    key = bytes(flat)
                else:  # the high bytes, then the low bytes
                    key = bytes([i >> 8 for i in flat]) + bytes([i & 255 for i in flat])
                if key in seen:
                    continue
                seen.add(key)
            for j, sol in enumerate(solved):
                for i, y, e in sol:
                    pw = powers[images[j]]
                    ks[i] = len(powers[mul[y][pw[e % len(pw)]]])
            budget.assignments_used = used
            yield CatalogKernel(grp, tuple(images), ks[:], closure)
        budget.assignments_used = used
