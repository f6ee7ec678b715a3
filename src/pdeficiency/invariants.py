"""Euler-characteristic and homology-gradient estimates from finite-quotient
searches, the p-size transfer bound of one kernel, and the power-witness
search.

All searches run over kernels of maps onto catalog groups; every reported
ratio is an exact rational.  A kernel's p-deficiency, p-size and d_p are
found without rewriting: the transfer formula gives de_p and the valuation
of each rewritten relator from the order k of each relator root's image,
and d_p is the F_p corank of the Fox Jacobian.  ``p_size_bound`` reads k
off the coset table, the quotient's regular tables, for ``psize`` and for
the de_p that ``subgroup`` prints.  The searches read each kernel off
the ``CatalogKernel`` that the search yields, with no coset table: k
comes with it from the search's relator check, de_p is one integer over
the largest p-power scale, and the Fox rows come from the group's cycle
layout of each generator's image, one int a row at every prime, a slot
of bits per column, ranked by one elimination; ``verification`` keeps
the table walks and a dict elimination as their oracle.

``chi`` and ``gradient`` examine the same kernels and differ only in the
numerator: one generator, ``kernel_values``, yields each kernel's index,
its de_p or d_p as an integer over one denominator, and the kernel.  The
CLI renders its reports from those integers, and describes only the
kernels it prints.  ``chi_p_estimate`` and ``gradient_window`` are the
library view: a ``KernelWindow`` of one ``KernelSample`` per kernel,
holding its index, its value and the ratio to the index as exact
rationals, and its quotient in ``--quotient`` notation, and no kernel.  A
``PowerWitness`` keeps its ``CatalogKernel``, as the witness's
certificate.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .abelian import abelian_invariants, d_p
from .presentation import FinitePresentation, p_deficiency
from .quotient import (
    FiniteQuotient,
    SearchBudget,
    describe_quotient,
    enumerate_quotients,
    kernel_index,
    table_order,
)
from .words import (
    RootDecomposition, Word, _record, nu_p_int, p_prime_part, require_prime,
)


# -- kernel invariants from the coset table ------------------------------------


@_record
class RelatorRoot:
    """A relator r = c*u^m*c^-1 with u not a proper power, as the kernel
    formulas read it: the runs of v = c*u*c^-1, the exponent m, its
    p-valuation nu and scale = p^nu."""

    runs: tuple
    exponent: int
    nu: int
    scale: int


def relator_root(rd: RootDecomposition, p: int = None) -> RelatorRoot:
    """The ``RelatorRoot`` of the word whose maximal root is ``rd``.
    Without p, nu is 0 and scale 1: the class split reads only the runs and
    the exponent."""
    nu = nu_p_int(rd.exponent, p) if p else 0
    return RelatorRoot(rd.power(1).runs, rd.exponent, nu, p**nu if p else 1)


def relator_roots(pres: FinitePresentation, p: int = None) -> tuple:
    """One ``RelatorRoot`` per relator: the per-presentation part of the
    kernel invariants, computed once before a search or a rewriting."""
    return tuple(relator_root(pres.root(i), p) for i in range(len(pres.relators)))


def class_cosets(q: FiniteQuotient, root: RelatorRoot) -> list:
    """The first coset of each orbit of c -> c*v' on the cosets of the
    kernel of ``q``, in coset order, v' the image of v.  Conjugates a*r*a^-1
    and b*r*b^-1 are kernel-conjugate exactly when the cosets of a and b
    lie in one orbit, so there are d/k orbits, one per kernel-conjugacy
    class.  Raises ``ValueError`` unless r lies in the kernel: unless k
    divides m."""
    if root.exponent % table_order(q, root.runs):
        raise ValueError("word is not in the kernel")
    seen = bytearray(q.order)
    firsts = []
    for start in range(q.order):
        if not seen[start]:
            firsts.append(start)
            c = start
            while not seen[c]:
                seen[c] = 1
                c = q.walk(root.runs, c)
    return firsts


@_record
class RelatorContribution:
    relator_index: int
    centralizer_idx: int     # k = (C_F(r) : C_K(r))
    class_count: int         # d / k
    nu_free: int             # valuation of the relator in the free group
    nu_p_k: int              # p-valuation of k
    term: Fraction           # (d/k) * p^(-nu_free + nu_p(k))
    rep_valuations: tuple    # valuation of each rewritten class rep: nu_free - nu_p_k


@_record
class SizeBound:
    """Upper bound for the p-size of the relator normal closure within the
    kernel: the sum of the per-relator transfer terms.  It is also the sum
    of p^-nu over the rewritten class representatives, as relator r's term
    is the weight of its d/k representatives of valuation nu."""

    index: int
    value: Fraction            # sum of the per-relator transfer terms
    contributions: tuple

    @property
    def exact_sum(self) -> Fraction:
        """Sum of p^-nu over the rewritten class reps, which is ``value``."""
        return self.value


def p_size_bound(pres: FinitePresentation, q: FiniteQuotient, p: int) -> SizeBound:
    """The transfer terms of the kernel of ``q``, of index d, and the
    valuations of the rewritten class representatives, read off the same
    formula.

    k is the order of the image of v.  The refined rewriting of r has d/k
    relators, one per kernel-conjugacy class, and each is (rewritten
    u^k)^(m/k) with the rewritten u^k not a proper power, so each has
    valuation nu = nu_p(m) - nu_p(k).  Their weights sum to the term
    (d/k) * p^-nu.  Nothing is rewritten; ``pdef verify`` checks the
    valuations against rewriting, and the de_p that ``subgroup`` reads off
    the terms against the rewritten presentation."""
    require_prime(p)
    d = kernel_index(q, pres)
    contributions = []
    for i, root in enumerate(relator_roots(pres, p)):
        k = table_order(q, root.runs)
        nu_k = nu_p_int(k, p)
        v, classes = root.nu - nu_k, d // k
        contributions.append(RelatorContribution(
            i, k, classes, root.nu, nu_k, Fraction(classes, p**v), (v,) * classes))
    bound = sum((c.term for c in contributions), Fraction(0))
    return SizeBound(d, bound, tuple(contributions))


# -- kernel invariants of a search leaf ----------------------------------------


def deficiency_numerator(roots, ks, d: int, n_gens: int, top: int) -> int:
    """de_p of a kernel of index d with the orders ``ks``, d*(|X| - 1) less
    its transfer terms (``verification.kernel_deficiency`` sums them),
    times ``top``, a power of p that every root's scale divides:
    d*(|X| - 1)*top - sum of (d/k)*gcd(k, scale)*(top/scale).  Over one
    denominator, de_p and de_p/d are one Fraction each."""
    return d * (n_gens - 1) * top - sum(
        d // k * math.gcd(k, root.scale) * (top // root.scale)
        for root, k in zip(roots, ks))


def leaf_d_p(roots, kernel: "CatalogKernel", p: int) -> int:
    """d_p of a kernel that the search yields, of index d:
    d*|X| - d + 1 - rank_Fp(J).

    J is the Fox Jacobian of the relators in the regular representation
    (R. H. Fox, "Free differential calculus I", Ann. of Math. 57, 1953).
    Its columns are the edges (h, g) from each element h of the image group
    by each generator g, and a walk of a word contributes its signed edge
    crossings.  One row per relator r and orbit of h -> h*v' on the image
    group, v' the image of v: the walk of r = v^m from the orbit's first
    element, that is (m/k) times the walks of v from each element of the
    orbit.  It vanishes when p divides m/k, and otherwise m/k is a unit
    mod p, which leaves the rank as it is, so the row is the walks of v.
    Dropping the spanning-tree columns gives the exponent matrix of the
    subgroup presentation, with the same rank.

    Edge (h, g) is column g*|H| + place[h] of the ``cycle_layout`` of g's
    image a, so the edges of one cycle of right multiplication by a are a
    range of L columns, L the order of a.  A run g^e from the element at
    offset i of its cycle crosses the whole range |e| // L times, then the
    arc of |e| % L edges forward from i for e > 0, backward for e < 0; it
    ends at offset (i + e) % L.  Each row is one int with a slot of W bits
    per column (``slot_layout``), and its rank is ``packed_rank``.  Each of
    the k walks of v in a row adds less than 2p to a column per run, so no
    entry passes (p - 1)*2*k*|runs| before the rank reduces it, nor
    p*(p - 1) after.  The rows walk each run through ``_run_steps``, one
    table per (group, a, e, p, W) that a search reuses on every leaf.
    ``verification.kernel_d_p`` walks the coset table for the same value."""
    tables, images, d = kernel.tables, kernel.images, kernel.order
    size = kernel.group.order
    # on a kernel whose images generate the group, every element
    order = range(size) if d == size else kernel.closure
    live = [(root, k) for root, k in zip(roots, kernel.ks) if root.exponent // k % p]
    bound = (p - 1) * max([p] + [2 * k * len(root.runs) for root, k in live])
    width = slot_layout(p, bound)[0]
    rows = []
    for root, k in live:
        # per run g^e: g's first bit, then g's image's steps for e
        runs = [(g * size * width, *_run_steps(tables, images[g], e, p, width))
                for g, e in root.runs]
        rows += _fox_rows(runs, order, size, p > 2)
    return d * len(images) - d + 1 - packed_rank(rows, p, bound)


def _fox_rows(runs, order, size: int, odd: bool) -> list:
    """The rows of ``leaf_d_p``, one per orbit of the walk of the ``runs``
    on ``order``: from element c a run adds its piece rotated to c's
    offset, ``doubled >> drops[c] & whole``, shifted to c's cycle's range,
    ``base + shifts[c]``, and moves on to ``nexts[c]``."""
    rows = []
    seen = bytearray(size)
    for start in order:
        if seen[start]:
            continue
        row = 0
        c = start
        while not seen[c]:
            seen[c] = 1
            for base, doubled, whole, drops, shifts, nexts in runs:
                piece = (doubled >> drops[c] & whole) << base + shifts[c]
                if odd:
                    row += piece
                else:
                    row ^= piece
                c = nexts[c]
        rows.append(row)
    return rows


@lru_cache(maxsize=512)
def _run_steps(tables, a: int, e: int, p: int, width: int) -> tuple:
    """(doubled, whole, drops, shifts, nexts): what a run g^e adds to a Fox
    row from each element of the group when g's image is element a, ``width``
    bits a column.  On a cycle of the ``cycle_layout`` of a, L columns, it
    adds from offset i the whole range |e| // L times, then the arc of
    |e| % L edges forward from i for e > 0, backward for e < 0, and ends at
    offset (i + e) % L.  That is the piece from offset 0 rotated by i, or
    by (i + e) % L for e < 0, within the range.  ``doubled`` holds the
    piece twice, over 2L slots, so the rotated piece from element c is the
    range ``whole`` of doubled >> drops[c]; ``shifts[c]`` is the first bit
    of c's cycle's range, and ``nexts[c]`` is c*a^e.  At p = 2 a slot is a
    bit and adding is XOR; at odd p an edge crossed forward adds 1 and one
    crossed backward p - 1, so each entry is below 2p, and ``packed_rank``
    reduces the sums.  Each table holds three ints per group element."""
    length, cols, place = tables.cycle_layout(a)
    full, rest = divmod(abs(e), length)
    span = length * width
    whole = (1 << span) - 1
    ones = whole // ((1 << width) - 1)  # a 1 in each slot
    unit = 1 if e > 0 else p - 1
    turn = unit * full % p * ones
    arc = unit * (ones >> (length - rest) * width)  # the first rest slots
    piece = arc ^ turn if p == 2 else arc + turn
    drops, shifts, nexts = [], [], []
    for i in place:
        off = i % length
        end = (off + e) % length
        drops.append((length - (off if e > 0 else end)) * width)
        shifts.append((i - off) * width)
        nexts.append(cols[i - off + end])
    return piece | piece << span, whole, tuple(drops), tuple(shifts), tuple(nexts)


def slot_layout(p: int, bound: int) -> tuple:
    """(W, s, m) for rows whose entries are at most ``bound``: a slot of W
    bits per column, and the shift s and multiplier m = ceil(2^s / p) with
    which (x*m) >> s is x // p for every such entry x (T. Granlund and
    P. Montgomery, "Division by invariant integers using multiplication",
    PLDI 1994).  W is the length of bound*m, so that x*m stays in its slot
    and one multiplication divides every slot of a row at once.  At p = 2 a
    slot is one bit, W = 1, and no entry is ever above 1."""
    if p == 2:
        return 1, 0, 1
    shift = bound.bit_length() + p.bit_length()
    mult = -(-(1 << shift) // p)
    return (bound * mult).bit_length(), shift, mult


def packed_rank(rows, p: int, bound: int) -> int:
    """Rank over F_p of rows packed by ``slot_layout(p, bound)``: column c
    in bits [c*W, (c+1)*W) of a row, each entry at most ``bound``, which is
    at least p*(p - 1).

    Each row is reduced by the pivot row at its top column until it
    vanishes or tops at a new column, where it becomes a pivot row, scaled
    to top entry 1.  At p = 2 reducing is XOR.  At odd p it adds
    (p - f)*pivot, f the row's top entry, so no entry passes
    (p - 1) + (p - 1)^2 = p*(p - 1); then every entry is reduced mod p at
    once, x - p*((x*m) >> s), each quotient masked to the low W - s bits of
    its slot.  The rows come unreduced and are reduced first."""
    width, shift, mult = slot_layout(p, bound)
    odd = p > 2
    if odd and rows:
        slots = -(-max(map(int.bit_length, rows)) // width)
        ones = ((1 << slots * width) - 1) // ((1 << width) - 1)
        low = ((1 << width - shift) - 1) * ones

    def reduced(x):  # every entry mod p
        return x - p * ((x * mult >> shift) & low)

    pivots = {}  # top column -> pivot row, its entry there 1
    for row in rows:
        if odd:
            row = reduced(row)
        last = math.inf  # each reduction clears the top column
        while row:
            top = (row.bit_length() - 1) // width
            f = row >> top * width
            if top >= last or f >= p:
                raise ValueError(f"packed_rank: an entry passed the bound {bound}")
            last = top
            pivot = pivots.get(top)
            if pivot is None:
                if f > 1:
                    row = reduced(row * pow(f, -1, p))
                pivots[top] = row
                break
            if odd:
                row = reduced(row + (p - f) * pivot)
            else:
                row ^= pivot
    return len(pivots)


# -- searches ----------------------------------------------------------------


@_record
class KernelSample:
    """One examined kernel: its index, its value (de_p, a Fraction, for
    ``chi``; d_p, an int, for ``gradient``), value/index, and the quotient
    in ``--quotient`` notation, or "index 1" for the whole group."""

    index: int
    value: object
    ratio: Fraction
    description: str


@_record
class KernelWindow:
    """The whole group and every kernel that a search examined, in search
    order.  ``best`` is the first sample of the largest ratio: for ``chi``
    a certified lower bound for the negated p-Euler characteristic, for
    ``gradient`` the top of the d_p/index window; the asymptotic gradients
    are not computed, only this window is reported."""

    samples: tuple
    exhausted: bool

    @property
    def best(self) -> KernelSample:
        return max(self.samples, key=lambda s: s.ratio)


def kernel_values(pres: FinitePresentation, p: int, catalog, budget: SearchBudget,
                  gradient: bool = False) -> tuple:
    """``(den, values)`` for ``chi``, or for ``gradient`` when ``gradient``
    is set: ``values`` yields ``(d, numerator, kernel)`` for the whole
    group, d = 1 and kernel None, then for each nontrivial kernel of the
    search in search order.  Its value, de_p or d_p, is numerator/den, and
    its ratio numerator/(den*d).  For de_p, den is ``top``, the one
    denominator of ``deficiency_numerator``, and the whole group is the
    kernel of index 1 with each k = 1; for d_p, den is 1.  The search
    charges ``budget``."""
    require_prime(p)
    roots = relator_roots(pres, p)
    if gradient:
        return 1, _values(pres, catalog, budget, d_p(abelian_invariants(pres), p),
                          lambda kernel, d: leaf_d_p(roots, kernel, p))
    n, top = pres.n_gens, max((root.scale for root in roots), default=1)
    return top, _values(pres, catalog, budget,
                        deficiency_numerator(roots, [1] * len(roots), 1, n, top),
                        lambda kernel, d: deficiency_numerator(roots, kernel.ks, d, n, top))


def _values(pres, catalog, budget, whole, value):
    """The rows of ``kernel_values``: the one loop over a search's kernels
    for ``chi`` and ``gradient``."""
    yield 1, whole, None
    for kernel in enumerate_quotients(pres, catalog, budget=budget):
        d = kernel.order
        if d != 1:
            yield d, value(kernel, d), kernel


def _kernel_window(pres, p, catalog, budget, gradient) -> KernelWindow:
    """The ``KernelWindow`` of the rows of ``kernel_values``, each value a
    Fraction for de_p and an int for d_p."""
    if budget is None:
        budget = SearchBudget()
    den, values = kernel_values(pres, p, catalog, budget, gradient)
    samples = [
        KernelSample(d, num if gradient else Fraction(num, den), Fraction(num, den * d),
                     "index 1" if kernel is None else describe_quotient(kernel, pres))
        for d, num, kernel in values
    ]
    return KernelWindow(tuple(samples), budget.exhausted)


def chi_p_estimate(
    pres: FinitePresentation,
    p: int,
    catalog: tuple = None,
    budget: SearchBudget = None,
) -> KernelWindow:
    """Enumerate kernels and maximize the exact deficiency/index ratio.

    The index-1 subgroup is always included, so the result is at least the
    presentation's own p-deficiency.
    """
    return _kernel_window(pres, p, catalog, budget, False)


def gradient_window(
    pres: FinitePresentation,
    p: int,
    catalog: tuple = None,
    budget: SearchBudget = None,
) -> KernelWindow:
    """d_p(subgroup)/index over the whole group and the examined kernels."""
    return _kernel_window(pres, p, catalog, budget, True)


@_record
class PowerWitness:
    """A relator r = root^exponent with the exponent prime to p whose root
    survives in a finite quotient; the kernel then has positive
    p-deficiency, certified by the exact subgroup value."""

    relator_index: int
    relator: Word
    root: Word
    exponent: int
    quotient: "CatalogKernel"
    index: int
    subgroup_deficiency: Fraction


def find_power_witness(
    pres: FinitePresentation,
    p: int,
    catalog: tuple = None,
    budget: SearchBudget = None,
):
    """Search catalog quotients for a witness that some kernel has positive
    p-deficiency; requires the presentation to have zero p-deficiency.

    Returns None when the search exhausts without a witness.
    """
    require_prime(p)
    if p_deficiency(pres, p) != 0:
        raise ValueError("witness search requires a presentation of zero p-deficiency")
    if budget is None:
        budget = SearchBudget()
    roots = relator_roots(pres, p)
    top = max((root.scale for root in roots), default=1)
    for kernel in enumerate_quotients(pres, catalog, budget=budget):
        d = kernel.order
        if d == 1:
            continue
        for i, (root, k) in enumerate(zip(roots, kernel.ks)):
            if root.scale % k == 0:
                continue  # the p'-root v^(p^nu) dies in the quotient
            de_sub = Fraction(deficiency_numerator(roots, kernel.ks, d, pres.n_gens, top), top)
            if de_sub <= 0:
                raise AssertionError(
                    "internal error: witnessed kernel must have positive p-deficiency"
                )
            return PowerWitness(i, pres.relators[i], *p_prime_part(pres.root(i), p),
                                kernel, d, de_sub)
    return None
