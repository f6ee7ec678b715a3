import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdeficiency.abelian import abelian_invariants
from pdeficiency.invariants import class_cosets, p_size_bound, relator_roots
from pdeficiency.presentation import FinitePresentation, parse_presentation, parse_word
from pdeficiency.quotient import (
    FiniteQuotient,
    SearchBudget,
    enumerate_quotients,
    parse_perm,
    perm_identity,
    perm_inv,
    perm_order,
)
from pdeficiency.rewrite import (
    basis_words,
    rewrite_word,
    schreier,
    subgroup_presentation,
)
from pdeficiency.verification import (
    centralizer_index, conjugate_class_reps, evaluate, positions, supermultiplicity_check,
    word_from_letters, word_letters,
)
from pdeficiency.words import Word, maximal_root, nu_p, nu_p_int

DINF = parse_presentation("< x, y | x^2, y^2 >")
Q_DINF = FiniteQuotient([(1, 0), (1, 0)])

PROP = parse_presentation("< x, y | x^2, y^5, (x*y)^5 >")
Q_PROP = FiniteQuotient([tuple(range(5)), tuple((i + 1) % 5 for i in range(5))])


def expand_basis_word(sd, w):
    """Substitute each basis letter by its word over the original alphabet."""
    basis = basis_words(sd)
    out = Word.identity(sd.table.n_gens)
    for g, e in w.runs:
        out = out * basis[g] ** e
    return out


def reference_rewrite(sd, w):
    """Reidemeister rewriting letter by letter from coset 0, with an inverse
    table per generator: the reference for ``rewrite_word``."""
    tables = sd.table.tables
    inv_tables = [perm_inv(t) for t in tables]
    runs = []
    c = 0
    for lt in word_letters(w):
        g = abs(lt) - 1
        if lt > 0:
            if sd.letter[g][c] >= 0:
                runs.append((sd.letter[g][c], 1))
            c = tables[g][c]
        else:
            c = inv_tables[g][c]
            if sd.letter[g][c] >= 0:
                runs.append((sd.letter[g][c], -1))
    if c != 0:
        raise ValueError("word does not lie in the subgroup")
    return Word(runs, sd.rank)


def reference_schreier(q):
    """Transversal and basis words built letter by letter through the
    checking ``Word(...)`` constructor, from a breadth-first search over a
    set of tree edges: the reference for ``schreier`` and ``basis_words``."""
    tables, at, k = q.tables, positions(q), q.n_gens
    transversal = [None] * q.order
    transversal[0] = Word.identity(k)
    tree_edges = set()
    queue = [0]
    for c in queue:
        for g in range(k):
            cyc, i = at[g][c]
            for sign, target in ((1, tables[g][c]), (-1, cyc[i - 1])):
                if transversal[target] is None:
                    transversal[target] = Word(transversal[c].runs + ((g, sign),), k)
                    tree_edges.add((c, g) if sign == 1 else (target, g))
                    queue.append(target)
    basis = []
    for g in range(k):
        for c in range(q.order):
            if (c, g) not in tree_edges:
                back = transversal[tables[g][c]].runs
                basis.append(Word(
                    transversal[c].runs + ((g, 1),) + tuple((h, -e) for h, e in reversed(back)),
                    k))
    return tuple(transversal), tuple(basis)


def random_word(rng, n_gens, length):
    letters = []
    for _ in range(length):
        while True:
            g = rng.randrange(1, n_gens + 1)
            lt = g if rng.random() < 0.5 else -g
            if not letters or letters[-1] != -lt:
                letters.append(lt)
                break
    return word_from_letters(letters, n_gens)


def search_quotients(pres, max_order):
    """The quotient of each kernel that the search yields, closed anew from
    its image permutations: the coset tables that rewriting walks."""
    kernels = enumerate_quotients(pres, budget=SearchBudget(max_order))
    return (kernel.quotient() for kernel in kernels)


class TestCosetTable:
    def test_dihedral(self):
        assert Q_DINF.order == 2
        assert Q_DINF.tables == ((1, 0), (1, 0))

    def test_order_four_cyclic(self):
        q = FiniteQuotient([(1, 0)])
        assert q.order == 2
        assert q.tables == ((1, 0),)

    def test_prop_instance(self):
        assert Q_PROP.order == 5
        assert Q_PROP.tables[1] == tuple((i + 1) % 5 for i in range(5))

    def test_relators_must_die(self):
        q = FiniteQuotient([parse_perm("(1 2 3)", 3), perm_identity(3)])
        with pytest.raises(ValueError, match="not in the kernel"):
            subgroup_presentation(DINF, q)
        with pytest.raises(ValueError, match="not lie in the subgroup"):
            subgroup_presentation(DINF, q, refined=False)
        with pytest.raises(ValueError, match="not killed"):
            p_size_bound(DINF, q, 2)
        with pytest.raises(ValueError, match="not killed"):
            supermultiplicity_check(DINF, q, 2)


class TestSchreier:
    def test_dihedral_transversal_and_basis(self):
        sd = schreier(Q_DINF)
        x, y = Word(((0, 1),), 2), Word(((1, 1),), 2)
        assert sd.transversal == (Word.identity(2), x)
        assert basis_words(sd) == (x**2, y * x.inverse(), x * y)

    def test_rank_f2_index2(self):
        sd = schreier(FiniteQuotient([(1, 0), (0, 1)]))
        assert sd.rank == 3

    def test_rank_f1_index2(self):
        sd = schreier(FiniteQuotient([(1, 0)]))
        assert sd.rank == 1
        assert basis_words(sd) == (Word(((0, 2),), 1),)

    def test_nielsen_schreier_rank(self):
        free2 = parse_presentation("< x, y | >")
        for q in search_quotients(free2, 8):
            sd = schreier(q)
            assert sd.rank == 1 + q.order * (free2.n_gens - 1)

    def test_matches_word_by_word_build(self):
        free2 = parse_presentation("< x, y | >")
        quotients = [*search_quotients(free2, 8),
                     *WALK_QUOTIENTS, *KERNEL_QUOTIENTS]
        for q in quotients:
            sd = schreier(q)
            transversal, basis = reference_schreier(q)
            assert sd.transversal == transversal
            assert basis_words(sd) == basis
            assert sorted(s for row in sd.letter for s in row if s >= 0) == list(range(sd.rank))


class TestRewrite:
    def test_dihedral_examples(self):
        sd = schreier(Q_DINF)
        assert rewrite_word(sd, DINF.word("x^2")) == Word(((0, 1),), 3)
        assert rewrite_word(sd, DINF.word("y^2")) == Word(((1, 1), (2, 1)), 3)
        assert rewrite_word(sd, Word.identity(2)).is_identity

    def test_not_in_subgroup(self):
        sd = schreier(Q_DINF)
        with pytest.raises(ValueError, match="subgroup"):
            rewrite_word(sd, DINF.word("x"))

    def test_round_trip_random(self):
        rng = random.Random(23)
        free2 = parse_presentation("< x, y | >")
        quotients = [
            q for q in search_quotients(free2, 6)
            if q.order > 1
        ]
        for q in quotients[:8]:
            sd = schreier(q)
            identity = perm_identity(q.degree)
            found = 0
            while found < 5:
                w = random_word(rng, 2, rng.randint(1, 10))
                if evaluate(q, w) != identity:
                    continue
                found += 1
                assert expand_basis_word(sd, rewrite_word(sd, w)) == w


# Small periods, so that huge exponents turn many times round each cycle.
# Under C2 every whole turn holds one basis letter; under C2xC2 the x-cycle
# of coset y holds two; under S3 some runs cross only tree edges.
WALK_QUOTIENTS = [
    FiniteQuotient([parse_perm("(1 2)", 2), perm_identity(2)]),
    FiniteQuotient([parse_perm("(1 2 3)", 3), parse_perm("(1 3 2)", 3)]),
    FiniteQuotient([parse_perm("(1 2)", 4), parse_perm("(3 4)", 4)]),
    FiniteQuotient([parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)]),
]
SCHREIER = [schreier(q) for q in WALK_QUOTIENTS]

# The quotients of the kernels benchmark: onto PSL(2,7) from the (2,3,7)
# triangle group and from the genus-2 surface group, onto S5 from (2,4,5),
# and onto A5 from (3,3,5) and (2,5,10).
KERNEL_QUOTIENTS = [
    FiniteQuotient([parse_perm(text, degree) for text in images])
    for degree, images in [
        (8, ["(1 6)(2 5)(3 4)(7 8)", "(2 3 6)(5 8 7)", "(1 6 4 3 5 8 2)"]),
        (8, ["(1 4 3 6 7 2 8)", "(1 3 7 8 4 6 2)", "(1 5 4 7)(2 6 3 8)", "(1 5 4 7)(2 6 3 8)"]),
        (5, ["(2 3)", "(1 5 3 4)", "(1 4 2 3 5)"]),
        (5, ["(2 5 3)", "(1 5 4)", "(1 4 2 3 5)"]),
        (5, ["(2 3)(4 5)", "(1 4 3 5 2)", "(1 3 5 2 4)"]),
    ]
]
KERNEL_SCHREIER = [schreier(q) for q in KERNEL_QUOTIENTS]


@st.composite
def kernel_words(draw):
    """A kernel quotient's Schreier data and a word in its kernel: up to six
    runs g^e with |e| at most twice the period of g, closed by the inverse
    transversal word of its endpoint."""
    sd = draw(st.sampled_from(KERNEL_SCHREIER))
    q = sd.table
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        g = draw(st.integers(0, q.n_gens - 1))
        period = perm_order(q.images[g])
        runs.append((g, draw(st.integers(-2 * period, 2 * period))))
    w = Word(runs, q.n_gens)
    return sd, w * sd.transversal[q.walk(w.runs)].inverse()


class TestRewriteByRuns:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(range(len(SCHREIER))),
           st.tuples(st.integers(0, 1), st.integers(-999_000, 999_000)),
           st.lists(st.tuples(st.integers(0, 1), st.integers(-7, 7)), max_size=4),
           st.integers(0, 4))
    def test_matches_letter_by_letter(self, which, big, small, at):
        """Rewriting r from coset c is rewriting t*r*t^-1 from coset 0, t
        the transversal word of c; r, one huge run among small ones, is
        closed into the kernel by the transversal word of its endpoint, and
        its rewriting stays below RUN_LIMIT."""
        sd = SCHREIER[which]
        q = sd.table
        w = Word(small[:at] + [big] + small[at:], 2)
        w = w * sd.transversal[q.walk(w.runs)].inverse()
        for c, t in enumerate(sd.transversal):
            assert rewrite_word(sd, w, c) == reference_rewrite(sd, w.conjugated_by(t))

    @settings(max_examples=40, deadline=None)
    @given(kernel_words())
    def test_kernel_quotients_match_letter_by_letter(self, case):
        """From every start coset, on the quotients of the kernels
        benchmark, whose cycles hold one or several basis letters."""
        sd, w = case
        for c, t in enumerate(sd.transversal):
            assert rewrite_word(sd, w, c) == reference_rewrite(sd, w.conjugated_by(t))

    @pytest.mark.parametrize("text, want", [
        ("z^-2*x*z^-1", "i^-1*h^-2"),
        ("z*x^-1*z^2", "h^2*i"),
    ])
    def test_letters_meet_across_a_tree_run(self, text, want):
        """Onto S3 with x and z both mapped to (1 2): x crosses a tree edge
        only, so the letters of the z-runs on either side of it meet and
        merge into one run.  They never cancel: the walk between two
        crossings of one edge in opposite directions would be a closed walk
        on the tree that never turns back, and a reduced word walks none."""
        q = FiniteQuotient([parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3),
                            parse_perm("(1 2)", 3)])
        sd = schreier(q)
        w = parse_word(text, ("x", "y", "z"))
        c = q.walk(w.runs[:1])
        x_edge = c if w.runs[1][1] > 0 else q.tables[0][c]  # x is an involution
        assert sd.letter[0][x_edge] == -1
        got = rewrite_word(sd, w)
        assert got == reference_rewrite(sd, w)
        assert got == parse_word(want, tuple("abcdefghijklm"[:sd.rank]))

    @pytest.mark.parametrize("which, text, want", [
        (0, "x^1000001*x^-1", "a^500000"),    # one basis letter per turn
        (0, "x^-1000000", "a^-500000"),
        (2, "y*x^6*y^-1", "b*c*b*c*b*c"),    # two basis letters per turn
        (2, "y*x^-6*y^-1", "c^-1*b^-1*c^-1*b^-1*c^-1*b^-1"),
    ])
    def test_whole_turns(self, which, text, want):
        sd = SCHREIER[which]
        names = tuple("abcdefgh"[:sd.rank])
        got = rewrite_word(sd, parse_word(text, ("x", "y")))
        assert got == parse_word(want, names)
        assert got == reference_rewrite(sd, parse_word(text, ("x", "y")))

    def test_start_coset_must_be_reached_again(self):
        sd = SCHREIER[3]
        with pytest.raises(ValueError, match="not lie in the subgroup"):
            rewrite_word(sd, parse_word("x^3", ("x", "y")), 1)

    def test_run_limit(self):
        sd = SCHREIER[2]
        # y*x^N*y^-1 from coset 0 turns N/2 times round a two-letter cycle
        w = parse_word("y*x^1000002*y^-1", ("x", "y"))
        with pytest.raises(ValueError, match="more than 1000000 runs"):
            rewrite_word(sd, w)
        w = parse_word("y*x^1000000*y^-1", ("x", "y"))
        assert len(rewrite_word(sd, w).runs) == 1000000


class TestCentralizerIndex:
    def test_dihedral(self):
        assert centralizer_index(Q_DINF, DINF.word("x^2")) == 2

    def test_root_in_kernel(self):
        # x, y -> (1 2): xy lies in the kernel, so its powers have k = 1
        q = FiniteQuotient([(1, 0), (1, 0)])
        assert centralizer_index(q, DINF.word("(x*y)^3")) == 1

    def test_prop_instance(self):
        assert centralizer_index(Q_PROP, PROP.word("y^5")) == 5

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            centralizer_index(Q_DINF, Word.identity(2))


class TestConjugateClassReps:
    def test_dihedral_single_class(self):
        reps = conjugate_class_reps(Q_DINF, DINF.word("x^2"))
        assert reps == [DINF.word("x^2")]

    def test_index_two_free(self):
        q = FiniteQuotient([(1, 0), (0, 1)])
        y = Word(((1, 1),), 2)
        reps = conjugate_class_reps(q, y)
        assert reps == [y, DINF.word("x*y*x^-1")]

    def test_prop_instance_single_class(self):
        reps = conjugate_class_reps(Q_PROP, PROP.word("y^5"))
        assert len(reps) == 1

    def test_not_in_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            conjugate_class_reps(Q_DINF, DINF.word("x"))

    def test_count_matches_index_over_centralizer(self):
        rng = random.Random(31)
        free2 = parse_presentation("< x, y | >")
        quotients = [
            q for q in search_quotients(free2, 6)
            if q.order > 1
        ]
        for q in quotients[:10]:
            identity = perm_identity(q.degree)
            sd = schreier(q)
            checked = 0
            attempts = 0
            while checked < 4 and attempts < 200:
                attempts += 1
                w = random_word(rng, 2, rng.randint(1, 4)) ** rng.randint(1, 3)
                if w.is_identity or evaluate(q, w) != identity:
                    continue
                checked += 1
                reps = conjugate_class_reps(q, w, sd)
                assert len(reps) == q.order // centralizer_index(q, w)
                for rep in reps:
                    assert evaluate(q, rep) == identity


class TestSubgroupPresentation:
    def test_dihedral(self):
        sub = subgroup_presentation(DINF, Q_DINF)
        assert sub.to_text() == "< a, b, c | a, b*c >"
        # the kernel is infinite cyclic
        inv = abelian_invariants(sub)
        assert inv.rank == 1 and inv.divisors == ()

    def test_cyclic_four(self):
        pres = parse_presentation("< x | x^4 >")
        sub = subgroup_presentation(pres, FiniteQuotient([(1, 0)]))
        assert sub.to_text() == "< a | a^2 >"

    def test_prop_instance(self):
        sub = subgroup_presentation(PROP, Q_PROP)
        assert sub.n_gens == 6
        assert len(sub.relators) == 7  # 5 classes for x^2, one each for y^5, (xy)^5

    def test_naive_variant_presents_the_same_group(self):
        sub = subgroup_presentation(PROP, Q_PROP)
        naive = subgroup_presentation(PROP, Q_PROP, refined=False)
        assert len(naive.relators) == 15  # 5 conjugates per relator
        assert abelian_invariants(naive) == abelian_invariants(sub)

    def test_naive_variant_can_lose_the_supermultiplicity_bound(self):
        # duplicated conjugates inflate the relator weight: the naive
        # presentation of the dihedral kernel scores -2 < 2 * 0, while the
        # refined class representatives achieve the bound exactly
        from pdeficiency.presentation import p_deficiency

        naive = subgroup_presentation(DINF, Q_DINF, refined=False)
        assert naive.to_text() == "< a, b, c | a, a, b*c, c*b >"
        assert p_deficiency(naive, 2) == -2
        refined = subgroup_presentation(DINF, Q_DINF)
        assert p_deficiency(refined, 2) == 0


class TestPSizeBound:
    def test_prop_instance(self):
        bound = p_size_bound(PROP, Q_PROP, 2)
        assert bound.value == Fraction(9, 2)
        assert bound.value < 5
        terms = [c.term for c in bound.contributions]
        assert terms == [Fraction(5, 2), 1, 1]

    def test_pure_p_power_formula(self):
        # single relator x^p with k = p gives (d/p) * p^(-1+1) = d/p
        pres = parse_presentation("< x | x^3 >")
        q = FiniteQuotient([(1, 2, 0)])
        bound = p_size_bound(pres, q, 3)
        assert bound.value == 1
        assert bound.contributions[0].centralizer_idx == 3

    def test_dihedral_exact_sum(self):
        bound = p_size_bound(DINF, Q_DINF, 2)
        assert bound.exact_sum == 2

    def test_chain_of_inequalities(self):
        rng = random.Random(41)
        checked = 0
        while checked < 15:
            n = rng.randint(1, 3)
            names = ("x", "y", "z")[:n]
            relators = [random_word(rng, n, rng.randint(1, 8)) for _ in range(rng.randint(1, 3))]
            pres = FinitePresentation(names, relators)
            for q in search_quotients(pres, 8):
                if q.order == 1:
                    continue
                p = rng.choice((2, 3))
                bound = p_size_bound(pres, q, p)
                naive = q.order * sum(
                    Fraction(1, p ** nu_p_int(maximal_root(r).exponent, p))
                    for r in pres.relators
                )
                assert bound.exact_sum <= bound.value <= naive
                checked += 1
                break

    def test_valuations_match_rewriting(self):
        # psize reads each class representative's valuation off the transfer
        # formula; rewriting each one and taking its maximal root must agree
        rng = random.Random(73)
        cases = nonzero = 0
        for i in range(30):
            n = rng.randint(1, 2)
            relators = [random_word(rng, n, rng.randint(1, 6)) for _ in range(rng.randint(0, 2))]
            if i % 2 == 0:
                u = random_word(rng, n, rng.randint(1, 3))
                c = random_word(rng, n, rng.randint(0, 2))
                relators.append((u ** rng.choice((2, 3, 4, 6, 8, 9, 12))).conjugated_by(c))
            pres = FinitePresentation(("x", "y")[:n], relators)
            for q in itertools.islice(search_quotients(pres, 12), 10):
                sd = schreier(q)
                exponents = [[maximal_root(rewrite_word(sd, r, c)).exponent
                              for c in class_cosets(q, root)]
                             for r, root in zip(pres.relators, relator_roots(pres))]
                for p in (2, 3, 5):
                    got = [list(c.rep_valuations) for c in p_size_bound(pres, q, p).contributions]
                    assert got == [[nu_p_int(m, p) for m in ms] for ms in exponents]
                    cases += 1
                    nonzero += sum(1 for vs in got if vs[0])
        assert cases >= 300 and nonzero >= 50


class TestSupermultiplicity:
    def test_dihedral(self):
        report = supermultiplicity_check(DINF, Q_DINF, 2)
        assert (report.de_sub, report.scaled, report.holds) == (0, 0, True)

    def test_cyclic_four(self):
        pres = parse_presentation("< x | x^4 >")
        report = supermultiplicity_check(pres, FiniteQuotient([(1, 0)]), 2)
        assert report.de_sub == Fraction(-1, 2)
        assert report.scaled == Fraction(-1, 2)  # 2 * (-1/4)
        assert report.holds

    def test_prop_instance(self):
        report = supermultiplicity_check(PROP, Q_PROP, 2)
        assert report.de_orig == Fraction(-3, 2)
        assert report.de_sub >= Fraction(1, 2)
        assert report.holds

    def test_valuation_transfer_inequality(self):
        rng = random.Random(57)
        free2 = parse_presentation("< x, y | >")
        quotients = [
            q for q in search_quotients(free2, 6)
            if q.order > 1
        ]
        for q in quotients[:6]:
            identity = perm_identity(q.degree)
            sd = schreier(q)
            checked = 0
            attempts = 0
            while checked < 3 and attempts < 200:
                attempts += 1
                w = random_word(rng, 2, rng.randint(1, 3)) ** rng.randint(1, 4)
                if w.is_identity or evaluate(q, w) != identity or len(w) > 10:
                    continue
                checked += 1
                k = centralizer_index(q, w)
                root_exponent = maximal_root(w).exponent
                for p in (2, 3):
                    lower = nu_p_int(root_exponent, p) - nu_p_int(k, p)
                    for rep in conjugate_class_reps(q, w, sd):
                        assert nu_p(rewrite_word(sd, rep), p).k >= lower
