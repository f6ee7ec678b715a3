"""Euler-characteristic and homology-gradient estimates from finite-quotient
searches, the p-size transfer bound of one kernel, the finite d_p drop
step, and the power-witness search.

All searches run over kernels of maps onto catalog groups; every reported
ratio is an exact rational.  A kernel's p-deficiency, p-size and d_p are
found without rewriting: the transfer formula gives de_p and the valuation
of each rewritten relator from the order k of each relator root's image,
and d_p is the F_p corank of the Fox Jacobian.  ``p_size_bound`` reads k
off the coset table, the quotient's regular tables, for ``psize`` and for
the de_p that ``subgroup`` prints.  The searches read their
kernels off the catalog group that the search holds them in: k comes
with each kernel from the search's relator check, de_p is one integer
over the largest p-power scale, and the Fox rows come from the group's
cycle layout of each generator's image; ``verification`` keeps the
table walks as their oracle.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .abelian import abelian_invariants, d_p, rank_mod_p
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
    RootDecomposition, Word, maximal_root, nu_p_int, p_prime_part, require_prime,
)


# -- kernel invariants from the coset table ------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RelatorContribution:
    relator_index: int
    centralizer_idx: int     # k = (C_F(r) : C_K(r))
    class_count: int         # d / k
    nu_free: int             # valuation of the relator in the free group
    nu_p_k: int              # p-valuation of k
    term: Fraction           # (d/k) * p^(-nu_free + nu_p(k))
    rep_valuations: tuple    # valuation of each rewritten class rep: nu_free - nu_p_k


@dataclass(frozen=True)
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


def leaf_d_p(roots, q: FiniteQuotient, p: int) -> int:
    """d_p of the kernel of a quotient that the search yields, of index d:
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
    ends at offset (i + e) % L.  At p = 2 each row is one int, a bit per
    column: a run toggles the range when |e| // L is odd, then its arc,
    shifted and rotated within the range, and the rank is XOR elimination.
    At odd p the rows are dicts of signed counts and the rank is
    ``rank_mod_p``.  ``verification.kernel_d_p`` walks the coset table for
    the same value."""
    grp, images, order, ks = q.leaf
    size, d = grp.order, len(order)
    rows = []
    for root, k in zip(roots, ks):
        if not root.exponent // k % p:
            continue
        # per run g^e: the layout of g's image, g's first column, e
        steps = [(*grp.cycle_layout(images[g]), g * size, e) for g, e in root.runs]
        rows += _f2_rows(steps, order, size) if p == 2 else _dict_rows(steps, order, size)
    rank = rank_f2(rows) if p == 2 else rank_mod_p(rows, p)
    return d * len(images) - d + 1 - rank


def _f2_rows(steps, order, size) -> list:
    """The rows of ``leaf_d_p`` mod 2 from the runs' ``steps``, one per orbit
    of the walk on ``order``."""
    runs = []
    for length, cols, place, base, e in steps:
        full, rest = divmod(abs(e), length)
        whole = (1 << length) - 1
        runs.append((cols, place, length, base, whole, whole if full & 1 else 0,
                     (1 << rest) - 1, e % length, e > 0))
    rows = []
    seen = bytearray(size)
    for start in order:
        if seen[start]:
            continue
        row = 0
        c = start
        while not seen[c]:
            seen[c] = 1
            for cols, place, length, base, whole, turn, arc, shift, forward in runs:
                i = place[c]
                off = i % length
                i -= off
                end = (off + shift) % length
                bits = arc << (off if forward else end)  # wraps past bit L - 1
                row ^= ((bits & whole) ^ (bits >> length) ^ turn) << (base + i)
                c = cols[i + end]
        rows.append(row)
    return rows


def _dict_rows(steps, order, size) -> list:
    """The rows of ``leaf_d_p`` as ``{column: signed count}`` from the runs'
    ``steps``, one per orbit of the walk on ``order``."""
    runs = []
    for length, cols, place, base, e in steps:
        full, rest = divmod(abs(e), length)
        sign = 1 if e > 0 else -1
        runs.append((cols, place, length, base, sign * full, rest, e % length, sign))
    rows = []
    seen = bytearray(size)
    for start in order:
        if seen[start]:
            continue
        row = {}
        c = start
        while not seen[c]:
            seen[c] = 1
            for cols, place, length, base, turns, rest, shift, sign in runs:
                i = place[c]
                off = i % length
                i -= off
                end = (off + shift) % length
                col = base + i
                if turns:
                    for x in range(col, col + length):
                        row[x] = row.get(x, 0) + turns
                first = off if sign > 0 else end
                for t in range(first, first + rest):
                    x = col + t % length
                    row[x] = row.get(x, 0) + sign
                c = cols[i + end]
        rows.append(row)
    return rows


def rank_f2(rows) -> int:
    """Rank over F_2 of rows given as ints: XOR elimination, each pivot
    keyed by its top bit."""
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


# -- searches ----------------------------------------------------------------


@dataclass(frozen=True)
class ChiSample:
    """One examined kernel; ``quotient`` is None for the whole group."""

    index: int
    deficiency: Fraction
    ratio: Fraction
    quotient: FiniteQuotient


@dataclass(frozen=True)
class ChiEstimate:
    """Certified lower bound for the negated p-Euler characteristic: the
    best exact ratio de(subgroup presentation)/index over examined kernels.
    """

    best_ratio: Fraction
    witness: ChiSample
    subgroups_examined: int
    exhausted: bool
    samples: tuple


def chi_p_estimate(
    pres: FinitePresentation,
    p: int,
    catalog: tuple = None,
    budget: SearchBudget = None,
) -> ChiEstimate:
    """Enumerate kernels and maximize the exact deficiency/index ratio.

    The index-1 subgroup is always included, so the result is at least the
    presentation's own p-deficiency.
    """
    require_prime(p)
    if budget is None:
        budget = SearchBudget()
    de = p_deficiency(pres, p)
    samples = [ChiSample(1, de, de, None)]
    roots = relator_roots(pres, p)
    top = max((root.scale for root in roots), default=1)
    for q in enumerate_quotients(pres, catalog, budget=budget):
        d = q.order
        if d == 1:
            continue
        de_sub = deficiency_numerator(roots, q.leaf[3], d, pres.n_gens, top)
        samples.append(ChiSample(d, Fraction(de_sub, top), Fraction(de_sub, top * d), q))
    best = max(samples, key=lambda s: s.ratio)
    return ChiEstimate(best.ratio, best, len(samples), budget.exhausted, tuple(samples))


@dataclass(frozen=True)
class GradientSample:
    index: int
    d_p: int
    ratio: Fraction
    description: str


@dataclass(frozen=True)
class GradientWindow:
    """d_p(subgroup)/index over the examined finite window of kernels; the
    asymptotic gradients are not computed, only this window is reported."""

    samples: tuple
    min_ratio: Fraction
    max_ratio: Fraction
    exhausted: bool


def gradient_window(
    pres: FinitePresentation,
    p: int,
    catalog: tuple = None,
    budget: SearchBudget = None,
) -> GradientWindow:
    require_prime(p)
    if budget is None:
        budget = SearchBudget()
    dp = d_p(abelian_invariants(pres), p)
    samples = [GradientSample(1, dp, Fraction(dp), "index 1")]
    roots = relator_roots(pres, p)
    for q in enumerate_quotients(pres, catalog, budget=budget):
        if q.order == 1:
            continue
        dp_sub = leaf_d_p(roots, q, p)
        samples.append(GradientSample(q.order, dp_sub, Fraction(dp_sub, q.order),
                                      describe_quotient(q, pres)))
    ratios = [s.ratio for s in samples]
    return GradientWindow(tuple(samples), min(ratios), max(ratios), budget.exhausted)


@dataclass(frozen=True)
class DpDropReport:
    """d_p before and after killing the given normal generators, and the
    count ell of generators that are not p-th powers in the free group;
    the drop never exceeds ell."""

    d_before: int
    d_after: int
    ell: int
    holds: bool


def quotient_dp_drop(
    sub_pres: FinitePresentation, normal_gens, p: int
) -> DpDropReport:
    require_prime(p)
    normal_gens = list(normal_gens)
    for w in normal_gens:
        if not isinstance(w, Word) or w.n_gens != sub_pres.n_gens:
            raise ValueError("normal generators must be words over the same alphabet")
    ell = 0
    extra = []
    for w in normal_gens:
        if w.is_identity:
            continue
        extra.append(w)
        # not a p-th power in the free group
        if nu_p_int(maximal_root(w).exponent, p) == 0:
            ell += 1
    before = d_p(abelian_invariants(sub_pres), p)
    after_pres = FinitePresentation(
        sub_pres.generators, sub_pres.relators + tuple(extra)
    )
    after = d_p(abelian_invariants(after_pres), p)
    return DpDropReport(before, after, ell, after >= before - ell)


@dataclass(frozen=True)
class PowerWitness:
    """A relator r = root^exponent with the exponent prime to p whose root
    survives in a finite quotient; the kernel then has positive
    p-deficiency, certified by the exact subgroup value."""

    relator_index: int
    relator: Word
    root: Word
    exponent: int
    quotient: FiniteQuotient
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
    for q in enumerate_quotients(pres, catalog, budget=budget):
        if q.order == 1:
            continue
        ks = q.leaf[3]
        for i, (root, k) in enumerate(zip(roots, ks)):
            if root.scale % k == 0:
                continue  # the p'-root v^(p^nu) dies in q
            de_sub = Fraction(deficiency_numerator(roots, ks, q.order, pres.n_gens, top), top)
            if de_sub <= 0:
                raise AssertionError(
                    "internal error: witnessed kernel must have positive p-deficiency"
                )
            return PowerWitness(i, pres.relators[i], *p_prime_part(pres.root(i), p),
                                q, q.order, de_sub)
    return None
