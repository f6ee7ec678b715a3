"""Schreier transversals, Reidemeister rewriting, subgroup presentations,
centralizer indices, conjugate-class splitting and p-size transfer bounds.

The finite-index subgroups handled here are kernels of maps onto finite
permutation groups; cosets are the image-group elements under the regular
action, so no coset enumeration is ever needed.
"""

import string
from dataclasses import dataclass
from fractions import Fraction

from .presentation import FinitePresentation, p_deficiency
from .quotient import (
    FiniteQuotient,
    evaluate,
    is_quotient_of,
    kernel_index,
    order_of_image,
    perm_identity,
    perm_inv,
    perm_mul,
)
from .words import Word, maximal_root, nu_p, nu_p_int, require_prime


@dataclass(frozen=True)
class CosetTable:
    """Transitive action on cosets {0..degree-1} with base coset 0; one
    permutation (as an image tuple) per generator."""

    tables: tuple

    @property
    def degree(self) -> int:
        return len(self.tables[0])

    @property
    def n_gens(self) -> int:
        return len(self.tables)


def coset_table(q: FiniteQuotient, pres: FinitePresentation) -> CosetTable:
    """Regular action of the image group on itself: cosets of the kernel
    correspond to image elements, generators act by right multiplication."""
    if not is_quotient_of(q, pres):
        raise ValueError("relators are not killed by the quotient")
    return CosetTable(q.regular_tables())


def _regular_table(q: FiniteQuotient) -> CosetTable:
    return CosetTable(q.regular_tables())


@dataclass(frozen=True)
class SchreierGenerator:
    """Basis element w_c * g * w_{c.g}^-1 attached to a non-tree edge."""

    coset: int
    gen: int
    word: Word


@dataclass(frozen=True)
class SchreierData:
    table: CosetTable
    inv_tables: tuple        # inverse permutation per generator
    transversal: tuple       # shortlex-minimal representative per coset
    basis: tuple             # SchreierGenerator per non-tree positive edge
    edge_to_basis: dict      # (coset, gen) -> basis index, tree edges absent

    @property
    def degree(self) -> int:
        return self.table.degree

    @property
    def rank(self) -> int:
        return len(self.basis)


def schreier(ct: CosetTable) -> SchreierData:
    """Shortlex breadth-first spanning tree and the Schreier basis.

    Letters are tried in the order g_1, g_1^-1, g_2, g_2^-1, ...; the basis
    has 1 + degree*(n_gens - 1) elements (Nielsen-Schreier).
    """
    d = ct.degree
    k = ct.n_gens
    inv_tables = tuple(perm_inv(t) for t in ct.tables)

    transversal = [None] * d
    transversal[0] = Word.identity(k)
    tree_edges = set()
    queue = [0]
    while queue:
        c = queue.pop(0)
        for g in range(k):
            for sign in (1, -1):
                target = ct.tables[g][c] if sign == 1 else inv_tables[g][c]
                if transversal[target] is None:
                    transversal[target] = transversal[c] * Word.generator(g, k, sign)
                    tree_edges.add((c, g) if sign == 1 else (target, g))
                    queue.append(target)
    if any(t is None for t in transversal):
        raise ValueError("coset table is not transitive")

    basis = []
    edge_to_basis = {}
    for g in range(k):
        for c in range(d):
            if (c, g) in tree_edges:
                continue
            word = (
                transversal[c]
                * Word.generator(g, k)
                * transversal[ct.tables[g][c]].inverse()
            )
            edge_to_basis[(c, g)] = len(basis)
            basis.append(SchreierGenerator(c, g, word))
    return SchreierData(ct, inv_tables, tuple(transversal), tuple(basis), edge_to_basis)


def rewrite_word(sd: SchreierData, w: Word) -> Word:
    """Express a subgroup element in the Schreier basis.

    Walks the coset graph from the base; tree edges contribute nothing,
    each non-tree edge contributes its basis letter.
    """
    if w.n_gens != sd.table.n_gens:
        raise ValueError(
            f"alphabet mismatch: word has {w.n_gens} generators, "
            f"table {sd.table.n_gens}"
        )
    runs = []
    c = 0
    tables = sd.table.tables
    inv_tables = sd.inv_tables
    for lt in w.letters():
        g = abs(lt) - 1
        if lt > 0:
            idx = sd.edge_to_basis.get((c, g))
            if idx is not None:
                runs.append((idx, 1))
            c = tables[g][c]
        else:
            c = inv_tables[g][c]
            idx = sd.edge_to_basis.get((c, g))
            if idx is not None:
                runs.append((idx, -1))
    if c != 0:
        raise ValueError("word does not lie in the subgroup")
    return Word(runs, len(sd.basis))


def expand_basis_word(sd: SchreierData, w: Word) -> Word:
    """Substitute each basis letter by its word over the original alphabet."""
    n = sd.table.n_gens
    out = Word.identity(n)
    for g, e in w.runs:
        out = out * sd.basis[g].word ** e
    return out


def centralizer_index(q: FiniteQuotient, g: Word) -> int:
    """Index of the kernel-centralizer inside the full centralizer of g.

    In a free group the centralizer of g is generated by its maximal root
    u, so the index equals the order of the image of u.
    """
    if g.is_identity:
        raise ValueError("centralizer index of the identity is undefined")
    rd = maximal_root(g)
    root_elem = rd.conjugator * rd.root * rd.conjugator.inverse()
    return order_of_image(q, root_elem)


def conjugate_class_reps(q: FiniteQuotient, g: Word, sd: SchreierData = None) -> list:
    """Words a*g*a^-1, one per kernel-conjugacy class of the conjugates of g.

    Two conjugates a g a^-1 and b g b^-1 are kernel-conjugate exactly when
    the images of a and b lie in the same left coset of the cyclic group
    generated by the image of the maximal root of g; picking the
    least-transversal element per coset yields exactly d/k representatives.
    """
    if g.is_identity:
        raise ValueError("no conjugate classes of the identity")
    identity = perm_identity(q.degree)
    if evaluate(q, g) != identity:
        raise ValueError("word is not in the kernel")
    if sd is None:
        sd = schreier(_regular_table(q))

    rd = maximal_root(g)
    root_elem = rd.conjugator * rd.root * rd.conjugator.inverse()
    u = evaluate(q, root_elem)
    cyclic = [identity]
    power = u
    while power != identity:
        cyclic.append(power)
        power = perm_mul(power, u)

    elements = q.elements
    index = {h: i for i, h in enumerate(elements)}
    seen = [False] * len(elements)
    reps = []
    for i, h in enumerate(elements):
        if seen[i]:
            continue
        for v in cyclic:
            seen[index[perm_mul(h, v)]] = True
        a = sd.transversal[i]
        reps.append(g.conjugated_by(a))
    assert len(reps) * len(cyclic) == len(elements)
    return reps


def _subgroup_names(n: int) -> tuple:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"s{i + 1}" for i in range(n))


def subgroup_presentation(
    pres: FinitePresentation, q: FiniteQuotient, refined: bool = True,
    sd: SchreierData = None,
) -> FinitePresentation:
    """Presentation of the kernel-image subgroup on the Schreier basis.

    With ``refined`` (default) each relator contributes one rewritten word
    per kernel-conjugacy class of its transversal conjugates; the naive
    variant keeps all ``degree`` conjugates and is retained for
    differential testing only.  ``sd``, when given, must be
    ``schreier(coset_table(q, pres))``; it saves building it again.
    """
    if sd is None:
        sd = schreier(coset_table(q, pres))
    relators = []
    for r in pres.relators:
        if refined:
            reps = conjugate_class_reps(q, r, sd)
        else:
            reps = [r.conjugated_by(t) for t in sd.transversal]
        relators.extend(rewrite_word(sd, rep) for rep in reps)
    return FinitePresentation(_subgroup_names(sd.rank), relators)


@dataclass(frozen=True)
class RelatorContribution:
    relator_index: int
    centralizer_idx: int     # k = (C_F(r) : C_K(r))
    class_count: int         # d / k
    nu_free: int             # valuation of the relator in the free group
    nu_p_k: int              # p-valuation of k
    term: Fraction           # (d/k) * p^(-nu_free + nu_p(k))
    rep_valuations: tuple    # exact valuations of the rewritten class reps


@dataclass(frozen=True)
class SizeBound:
    """Upper bounds for the p-size of the relator normal closure within the
    kernel: the term-wise transfer bound and the exact rewritten sum."""

    index: int
    value: Fraction            # sum of the per-relator transfer terms
    exact_sum: Fraction        # sum of p^-nu over the rewritten class reps
    contributions: tuple


def p_size_bound(pres: FinitePresentation, q: FiniteQuotient, p: int) -> SizeBound:
    require_prime(p)
    sd = schreier(coset_table(q, pres))
    d = sd.degree
    contributions = []
    bound = Fraction(0)
    exact = Fraction(0)
    for i, r in enumerate(pres.relators):
        k = centralizer_index(q, r)
        nu_free = nu_p_int(maximal_root(r).exponent, p)
        nu_k = nu_p_int(k, p)
        term = (d // k) * Fraction(p**nu_k, p**nu_free)
        reps = conjugate_class_reps(q, r, sd)
        valuations = tuple(nu_p(rewrite_word(sd, rep), p).k for rep in reps)
        exact += sum(Fraction(1, p**v) for v in valuations)
        bound += term
        contributions.append(
            RelatorContribution(i, k, d // k, nu_free, nu_k, term, valuations)
        )
    return SizeBound(d, bound, exact, tuple(contributions))


@dataclass(frozen=True)
class SupermultReport:
    index: int
    de_orig: Fraction
    de_sub: Fraction
    scaled: Fraction          # index * de_orig
    holds: bool
    subgroup: FinitePresentation


def supermultiplicity_check(
    pres: FinitePresentation, q: FiniteQuotient, p: int,
    sub: FinitePresentation = None,
) -> SupermultReport:
    """Exact check that the subgroup presentation's p-deficiency is at least
    index times the p-deficiency of the original presentation.  ``sub``,
    when given, must be ``subgroup_presentation(pres, q)``; it saves
    building it again."""
    require_prime(p)
    if sub is None:
        sub = subgroup_presentation(pres, q)
    index = kernel_index(q, pres)
    de_orig = p_deficiency(pres, p)
    de_sub = p_deficiency(sub, p)
    scaled = index * de_orig
    return SupermultReport(index, de_orig, de_sub, scaled, de_sub >= scaled, sub)
