"""Schreier transversals, Reidemeister rewriting, subgroup presentations,
conjugate-class splitting and p-size transfer bounds.

The finite-index subgroups handled here are kernels of maps onto finite
permutation groups.  The coset table of a kernel is the quotient's regular
tables (``FiniteQuotient.tables``): cosets are the image-group elements,
numbered breadth-first with the identity as base coset 0, and a word acts
on a coset by walking the table run by run (Sims, *Computation with
Finitely Presented Groups*, ch. 5).  No coset enumeration and no
permutation product is needed.  A transversal word t leads along the
Schreier tree, so t*r*t^-1 rewritten from coset 0 is r rewritten from the
coset of t: relators are rewritten from cosets, never conjugated.
"""

import string
from dataclasses import dataclass
from fractions import Fraction

from .invariants import class_cosets, relator_root, relator_roots, transfer_terms
from .presentation import FinitePresentation, p_deficiency
from .quotient import FiniteQuotient, kernel_index
from .words import RUN_LIMIT, Word, maximal_root, nu_p_int, require_prime


@dataclass(frozen=True)
class SchreierGenerator:
    """Basis element w_c * g * w_{c.g}^-1 attached to a non-tree edge."""

    coset: int
    gen: int
    word: Word


@dataclass(frozen=True)
class SchreierData:
    table: FiniteQuotient    # its regular tables are the coset table
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

    Letters are tried in the order g_1, g_1^-1, g_2, g_2^-1, ...; g^-1
    leads from a coset to its predecessor on its cycle in the table of g.
    The basis has 1 + index*(n_gens - 1) elements (Nielsen-Schreier).  The
    regular tables are transitive, so every coset is reached.
    """
    tables = q.tables
    positions = q.positions
    d = q.order
    k = q.n_gens

    transversal = [None] * d
    transversal[0] = Word.identity(k)
    tree_edges = set()
    queue = [0]
    for c in queue:
        for g in range(k):
            cyc, i = positions[g][c]
            for sign, target in ((1, tables[g][c]), (-1, cyc[i - 1])):
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
    return SchreierData(q, tuple(transversal), tuple(basis), edge_to_basis)


def _check_alphabet(sd: SchreierData, n_gens: int) -> None:
    if n_gens != sd.table.n_gens:
        raise ValueError(
            f"alphabet mismatch: word has {n_gens} generators, "
            f"table {sd.table.n_gens}"
        )


def rewrite_word(sd: SchreierData, w: Word, start: int = 0) -> Word:
    """Express t*w*t^-1 in the Schreier basis, t the transversal word of
    coset ``start``: walk w from that coset, where tree edges contribute
    nothing and each non-tree edge its basis letter.

    The walk goes run by run.  A run g^e crosses its cycle in the table of
    g |e| // L whole times, L the cycle length, then its first |e| % L
    edges; a whole turn that holds a single basis letter s becomes the one
    run s^(|e| // L).  A negative run crosses backwards the edges that
    g^|e| crosses from its endpoint.  A result of more than ``RUN_LIMIT``
    runs from repeated turns is refused before it is built.
    """
    _check_alphabet(sd, w.n_gens)
    positions = sd.table.positions
    edge_to_basis = sd.edge_to_basis
    runs = []
    c = start
    for g, e in w.runs:
        cyc, i = positions[g][c]
        length = len(cyc)
        c = cyc[(i + e) % length]
        if e < 0:
            i = (i + e) % length
        turns, rest = divmod(abs(e), length)
        crossed = []
        if turns:
            turn = [edge_to_basis[cyc[j % length], g] for j in range(i, i + length)
                    if (cyc[j % length], g) in edge_to_basis]
            if len(turn) == 1:
                crossed.append((turn[0], turns))
            else:  # a turn is a closed walk, so the tree misses one of its edges
                if len(runs) + turns * len(turn) > RUN_LIMIT:
                    raise ValueError(
                        f"the rewritten word would have more than {RUN_LIMIT} runs")
                crossed.extend([(s, 1) for s in turn] * turns)
        for j in range(i, i + rest):
            s = edge_to_basis.get((cyc[j % length], g))
            if s is not None:
                crossed.append((s, 1))
        runs.extend(crossed if e > 0 else [(s, -x) for s, x in reversed(crossed)])
    if c != start:
        raise ValueError("word does not lie in the subgroup")
    return Word(runs, len(sd.basis))


def conjugate_class_reps(q: FiniteQuotient, g: Word, sd: SchreierData = None) -> list:
    """Words t*g*t^-1, one per kernel-conjugacy class of the conjugates of
    g: t runs over the transversal words of ``class_cosets``.  ``sd``, when
    given, must be ``schreier(q)``.  Raises ``ValueError`` unless g lies in
    the kernel.
    """
    if g.is_identity:
        raise ValueError("no conjugate classes of the identity")
    if sd is None:
        sd = schreier(q)
    _check_alphabet(sd, g.n_gens)
    firsts = class_cosets(q, relator_root(maximal_root(g)))
    return [g.conjugated_by(sd.transversal[c]) for c in firsts]


def _subgroup_names(n: int) -> tuple:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"s{i + 1}" for i in range(n))


def subgroup_presentation(
    pres: FinitePresentation, q: FiniteQuotient, refined: bool = True,
    sd: SchreierData = None,
) -> FinitePresentation:
    """Presentation of the kernel-image subgroup on the Schreier basis.

    With ``refined`` (default) each relator is rewritten once per
    kernel-conjugacy class of its transversal conjugates, from the first
    coset of ``class_cosets``; the naive variant rewrites it from all
    ``index`` cosets and is retained for differential testing only.
    ``sd``, when given, must be ``schreier(q)``; it saves building it
    again.

    A relator that ``q`` does not kill raises ``ValueError``: "word is not
    in the kernel" from ``class_cosets`` (refined) or "word does not lie
    in the subgroup" from ``rewrite_word`` (naive).
    """
    if sd is None:
        sd = schreier(q)
    _check_alphabet(sd, pres.n_gens)
    relators = []
    if refined:
        for r, root in zip(pres.relators, relator_roots(pres)):
            relators.extend(rewrite_word(sd, r, c) for c in class_cosets(q, root))
    else:
        for r in pres.relators:
            relators.extend(rewrite_word(sd, r, c) for c in range(sd.degree))
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
        valuations = tuple(nu_p_int(maximal_root(rewrite_word(sd, r, c)).exponent, p)
                           for c in class_cosets(q, root))
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
