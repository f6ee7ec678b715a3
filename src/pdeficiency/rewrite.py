"""Schreier transversals, Reidemeister rewriting, subgroup presentations,
centralizer indices, conjugate-class splitting and p-size transfer bounds.

The finite-index subgroups handled here are kernels of maps onto finite
permutation groups.  The coset table of a kernel is the quotient's regular
tables (``FiniteQuotient.tables``): cosets are the image-group elements,
numbered breadth-first with the identity as base coset 0, and a word acts
on a coset by walking the table letter by letter (Sims, *Computation with
Finitely Presented Groups*, ch. 5).  No coset enumeration and no
permutation product is needed.
"""

import string
from dataclasses import dataclass
from fractions import Fraction

from .invariants import relator_roots, transfer_terms
from .presentation import FinitePresentation, p_deficiency
from .quotient import FiniteQuotient, kernel_index, order_of_image, perm_inv
from .words import Word, maximal_root, nu_p_int, require_prime


@dataclass(frozen=True)
class SchreierGenerator:
    """Basis element w_c * g * w_{c.g}^-1 attached to a non-tree edge."""

    coset: int
    gen: int
    word: Word


@dataclass(frozen=True)
class SchreierData:
    table: FiniteQuotient    # its regular tables are the coset table
    inv_tables: tuple        # inverse table per generator
    transversal: tuple       # shortlex-minimal representative per coset
    basis: tuple             # SchreierGenerator per non-tree positive edge
    edge_to_basis: dict      # (coset, gen) -> basis index, tree edges absent

    @property
    def degree(self) -> int:
        return self.table.order

    @property
    def rank(self) -> int:
        return len(self.basis)


def schreier(q: FiniteQuotient) -> SchreierData:
    """Shortlex breadth-first spanning tree of the coset table of the kernel
    of ``q`` and the Schreier basis.

    Letters are tried in the order g_1, g_1^-1, g_2, g_2^-1, ...; the basis
    has 1 + index*(n_gens - 1) elements (Nielsen-Schreier).  The regular
    tables are transitive, so every coset is reached.
    """
    tables = q.tables
    d = q.order
    k = q.n_gens
    inv_tables = tuple(perm_inv(t) for t in tables)

    transversal = [None] * d
    transversal[0] = Word.identity(k)
    tree_edges = set()
    queue = [0]
    while queue:
        c = queue.pop(0)
        for g in range(k):
            for sign in (1, -1):
                target = tables[g][c] if sign == 1 else inv_tables[g][c]
                if transversal[target] is None:
                    transversal[target] = Word(transversal[c].runs + ((g, sign),), k)
                    tree_edges.add((c, g) if sign == 1 else (target, g))
                    queue.append(target)

    basis = []
    edge_to_basis = {}
    for g in range(k):
        for c in range(d):
            if (c, g) in tree_edges:
                continue
            back = transversal[tables[g][c]].runs
            word = Word(
                transversal[c].runs + ((g, 1),) + tuple((h, -e) for h, e in reversed(back)), k
            )
            edge_to_basis[(c, g)] = len(basis)
            basis.append(SchreierGenerator(c, g, word))
    return SchreierData(q, inv_tables, tuple(transversal), tuple(basis), edge_to_basis)


def _check_alphabet(sd: SchreierData, w: Word) -> None:
    if w.n_gens != sd.table.n_gens:
        raise ValueError(
            f"alphabet mismatch: word has {w.n_gens} generators, "
            f"table {sd.table.n_gens}"
        )


def _trace(sd: SchreierData, w: Word, c: int) -> int:
    """The coset that w leads to from coset c."""
    for g, e in w.runs:
        table = sd.table.tables[g] if e > 0 else sd.inv_tables[g]
        for _ in range(abs(e)):
            c = table[c]
    return c


def rewrite_word(sd: SchreierData, w: Word) -> Word:
    """Express a subgroup element in the Schreier basis.

    Walks the coset graph from the base; tree edges contribute nothing,
    each non-tree edge contributes its basis letter.
    """
    _check_alphabet(sd, w)
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


def centralizer_index(q: FiniteQuotient, g: Word) -> int:
    """Index of the kernel-centralizer inside the full centralizer of g.

    In a free group the centralizer of g is generated by its maximal root
    u, so the index equals the order of the image of u.  Computed with
    permutation products, not the table walk of ``quotient.table_order``,
    it is the oracle for the k of ``invariants.transfer_terms``.
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
    generated by the image of the maximal root u of g.  Walking u from a
    coset runs through its left coset of that group, so picking the first
    coset of each walk, in coset order, yields exactly d/k representatives.
    ``sd``, when given, must be ``schreier(q)``.  Raises ``ValueError``
    unless g lies in the kernel.
    """
    if g.is_identity:
        raise ValueError("no conjugate classes of the identity")
    if sd is None:
        sd = schreier(q)
    _check_alphabet(sd, g)
    if _trace(sd, g, 0) != 0:
        raise ValueError("word is not in the kernel")

    rd = maximal_root(g)
    root = rd.conjugator * rd.root * rd.conjugator.inverse()
    seen = [False] * sd.degree
    reps = []
    for i in range(sd.degree):
        if seen[i]:
            continue
        c = i
        while not seen[c]:
            seen[c] = True
            c = _trace(sd, root, c)
        reps.append(g.conjugated_by(sd.transversal[i]))
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
    variant keeps all ``index`` conjugates and is retained for
    differential testing only.  ``sd``, when given, must be
    ``schreier(q)``; it saves building it again.

    A relator that ``q`` does not kill raises ``ValueError``: "word is not
    in the kernel" from ``conjugate_class_reps`` (refined) or "word does
    not lie in the subgroup" from ``rewrite_word`` (naive).
    """
    if sd is None:
        sd = schreier(q)
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
    """The transfer terms of ``invariants.transfer_terms`` and, for
    comparison, the exact valuations of the rewritten class
    representatives."""
    require_prime(p)
    d = kernel_index(q, pres)
    sd = schreier(q)
    roots = relator_roots(pres, p)
    contributions = []
    exact = Fraction(0)
    for i, (r, root, (k, term)) in enumerate(
        zip(pres.relators, roots, transfer_terms(roots, q))
    ):
        reps = conjugate_class_reps(q, r, sd)
        valuations = tuple(nu_p_int(maximal_root(rewrite_word(sd, rep)).exponent, p)
                           for rep in reps)
        exact += sum(Fraction(1, p**v) for v in valuations)
        contributions.append(
            RelatorContribution(i, k, d // k, root.nu, nu_p_int(k, p), term, valuations)
        )
    bound = sum((c.term for c in contributions), Fraction(0))
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
    index = kernel_index(q, pres)
    if sub is None:
        sub = subgroup_presentation(pres, q)
    de_orig = p_deficiency(pres, p)
    de_sub = p_deficiency(sub, p)
    scaled = index * de_orig
    return SupermultReport(index, de_orig, de_sub, scaled, de_sub >= scaled, sub)
