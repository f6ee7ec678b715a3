import inspect
import json
import math
import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

import regen_search_golden

from pdeficiency import quotient as quotient_module, search as search_module, verification
from pdeficiency.invariants import relator_roots
from pdeficiency.presentation import parse_presentation
from pdeficiency.quotient import (
    FiniteQuotient,
    SearchBudget,
    cycles_to_perm,
    default_catalog,
    describe_quotient,
    enumerate_quotients,
    format_perm,
    kernel_index,
    orbit_starts,
    parse_catalog_manifest,
    parse_cycles,
    parse_perm,
    perm_identity,
    perm_mul,
    perm_order,
    split_outside_parens,
    table_order,
)
from pdeficiency.search import SEARCH_CACHE_LIMIT, CatalogKernel, SearchTables, tables_of
from pdeficiency.verification import (
    CheckFailure,
    _psl27,
    evaluate,
    is_quotient_of,
    order_of_image,
    perm_pow,
    positions,
    search_agrees,
)
from pdeficiency.words import Word


class TestPerms:
    def test_parse_format_roundtrip(self):
        for text in ["(1 2)", "(1 2 3)(4 5)", "()"]:
            perm = parse_perm(text, 5)
            assert parse_perm(format_perm(perm), 5) == perm

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2")
        with pytest.raises(ValueError):
            parse_cycles("(1 1)")
        with pytest.raises(ValueError):
            parse_cycles("nonsense")
        with pytest.raises(ValueError):
            cycles_to_perm([(0, 5)], 3)

    def test_mul_is_then(self):
        a = parse_perm("(1 2)", 3)
        b = parse_perm("(2 3)", 3)
        # apply a then b: 1 -> 2 -> 3
        assert perm_mul(a, b)[0] == 2

    def test_order_and_pow(self):
        c = parse_perm("(1 2 3 4 5 6)", 6)
        assert perm_order(c) == 6
        assert perm_pow(c, 6) == perm_identity(6)
        assert perm_pow(c, -1) == perm_pow(c, 5)


def quotient(*specs, degree):
    return FiniteQuotient([parse_perm(s, degree) for s in specs])


class TestEvaluate:
    def test_involution(self):
        q = quotient("(1 2)", degree=2)
        assert evaluate(q, Word(((0, 2),), 1)) == perm_identity(2)

    def test_cyclic_exponent(self):
        q = quotient("(1 2 3 4 5)", "(1 2 3 4 5)", degree=5)
        word = Word(((0, 1), (1, 1)), 2) ** 5
        assert evaluate(q, word) == perm_identity(5)

    def test_hand_multiplication(self):
        q = quotient("(1 2)", "(2 3)", degree=3)
        word = Word(((0, 1), (1, 1), (0, 1)), 2)
        assert evaluate(q, word) == parse_perm("(1 3)", 3)

    def test_alphabet_mismatch(self):
        q = quotient("(1 2)", degree=2)
        with pytest.raises(ValueError):
            evaluate(q, Word(((1, 1),), 2))

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), max_size=5),
        st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), max_size=5),
    )
    def test_homomorphism(self, runs1, runs2):
        q = quotient("(1 2 3)", "(1 2)", degree=3)
        w1, w2 = Word(runs1, 2), Word(runs2, 2)
        assert evaluate(q, w1 * w2) == perm_mul(evaluate(q, w1), evaluate(q, w2))


class TestQuotientPredicates:
    def test_is_quotient(self):
        pres = parse_presentation("< x | x^2 >")
        assert is_quotient_of(quotient("(1 2)", degree=2), pres)
        assert not is_quotient_of(quotient("(1 2 3)", degree=3), pres)

    def test_prop_instance(self):
        pres = parse_presentation("< x, y | x^2, y^5, (x*y)^5 >")
        q = quotient("()", "(1 2 3 4 5)", degree=5)
        assert is_quotient_of(q, pres)
        assert kernel_index(q, pres) == 5

    def test_order_of_image(self):
        q = quotient("(1 2)", degree=2)
        assert order_of_image(q, Word(((0, 1),), 1)) == 2
        assert order_of_image(q, Word.identity(1)) == 1
        q5 = quotient("(1 2 3 4 5)", "(1 2 3 4 5)", degree=5)
        assert order_of_image(q5, Word(((0, 1), (1, 1)), 2)) == 5

    def test_kernel_index_examples(self):
        free2 = parse_presentation("< x, y | >")
        assert kernel_index(quotient("(1 2)", "()", degree=2), free2) == 2
        dinf = parse_presentation("< x, y | x^2, y^2 >")
        assert kernel_index(quotient("(1 2)", "(1 2)", degree=2), dinf) == 2

    def test_kernel_index_requires_killing(self):
        with pytest.raises(ValueError, match="not killed"):
            kernel_index(quotient("(1 2 3)", degree=3), parse_presentation("< x | x^2 >"))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(-4, 4)), max_size=6))
    def test_lagrange(self, runs):
        q = quotient("(1 2 3)", "(1 2)", degree=3)
        word = Word(runs, 2)
        assert q.order % order_of_image(q, word) == 0

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(-30, 30)), max_size=6))
    def test_table_order_is_order_of_image(self, runs):
        q = quotient("(1 2 3 4)", "(1 2)", degree=4)  # S4, order 24
        word = Word(runs, 2)
        assert table_order(q, word.runs) == order_of_image(q, word)

    def test_table_order_of_a_huge_power(self):
        q = quotient("(1 2 3 4 5 6)", "(1 2)", degree=6)  # S6, order 720
        e = 3 * 10**18 + 5  # 5 mod 6
        assert table_order(q, ((0, e), (1, -1))) == order_of_image(
            q, Word(((0, 5), (1, -1)), 2))


PERMS4 = st.permutations(range(4)).map(tuple)
WORDS = st.lists(st.tuples(st.integers(0, 1), st.integers(-10**6, 10**6)), max_size=4)


class TestWalk:
    @given(PERMS4, PERMS4, WORDS)
    def test_walk_from_coset_0_is_evaluate(self, a, b, runs):
        # coset c is the image-group element elements[c], 0 the identity
        q = FiniteQuotient([a, b])
        word = Word(runs, 2)
        assert q.elements[q.walk(word.runs)] == evaluate(q, word)

    @given(PERMS4, PERMS4, st.lists(st.tuples(WORDS, st.booleans()), max_size=3))
    def test_kernel_index_is_quotient_of(self, a, b, relators):
        # a relator flagged True is raised to the order of its image
        q = FiniteQuotient([a, b])
        words = [Word(runs, 2) for runs, _ in relators]
        words = [w ** order_of_image(q, w) if killed else w
                 for w, (_, killed) in zip(words, relators)]
        pres = parse_presentation("< x, y | >").with_relators(
            w for w in words if not w.is_identity)
        if is_quotient_of(q, pres):
            assert kernel_index(q, pres) == q.order
        else:
            with pytest.raises(ValueError, match="not killed"):
                kernel_index(q, pres)

    def test_positions(self):
        # the action is regular: every cycle has the period of the generator
        q = quotient("(1 2 3 4)", "(1 2)", degree=4)  # S4
        for g, (table, at) in enumerate(zip(q.tables, positions(q))):
            period = table_order(q, ((g, 1),))
            assert period == (4, 2)[g]
            for c in range(q.order):
                cyc, i = at[c]
                assert len(cyc) == period and cyc[i] == c
                assert table[c] == cyc[(i + 1) % period]

    def test_kernel_index_alphabet(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            kernel_index(quotient("(1 2)", degree=2), parse_presentation("< x, y | x^2 >"))


class TestSearchBudget:
    def test_defaults(self):
        budget = SearchBudget()
        assert (budget.max_order, budget.max_assignments) == (24, 10**6)
        assert (budget.assignments_used, budget.exhausted) == (0, False)

    def test_spend_past_the_cap(self):
        budget = SearchBudget(max_order=6, max_assignments=3)
        assert not budget.spend(5)
        assert budget.assignments_used == 3 and budget.exhausted


class TestEnumerate:
    def test_c2_on_involution(self):
        pres = parse_presentation("< x | x^2 >")
        found = list(enumerate_quotients(pres, budget=SearchBudget(2)))
        assert len(found) == 2  # the trivial quotient and x -> (1 2)
        orders = sorted(q.order for q in found)
        assert orders == [1, 2]

    def test_free_group_c2_kernels(self):
        pres = parse_presentation("< x, y | >")
        found = list(enumerate_quotients(pres, budget=SearchBudget(2)))
        assert len(found) == 4  # trivial plus the 3 index-2 kernels
        assert sum(1 for q in found if q.order == 2) == 3

    def test_prop_instance_has_y_surviving(self):
        pres = parse_presentation("< x, y | x^2, y^5, (x*y)^5 >")
        found = [k.quotient() for k in enumerate_quotients(pres, budget=SearchBudget(5))]
        y = Word(((1, 1),), 2)
        assert any(
            q.order == 5 and evaluate(q, y) != perm_identity(q.degree) for q in found
        )

    def test_all_yielded_are_quotients_and_deduplicated(self):
        pres = parse_presentation("< x, y | x^2, y^2 >")
        found = [k.quotient() for k in enumerate_quotients(pres, budget=SearchBudget(8))]
        keys = [q.kernel_key() for q in found]
        assert len(keys) == len(set(keys))
        assert all(is_quotient_of(q, pres) for q in found)

    def test_cross_group_deduplication(self):
        # the C_2 kernels reappear inside C_4 assignments and must collapse:
        # 1 trivial + 3 of index 2 + 6 of index 4
        pres = parse_presentation("< x, y | >")
        catalog = tuple(g for g in default_catalog() if g.name in ("C2", "C4"))
        found = list(enumerate_quotients(pres, catalog, budget=SearchBudget(4)))
        counts = {}
        for q in found:
            counts[q.order] = counts.get(q.order, 0) + 1
        assert counts == {1: 1, 2: 3, 4: 6}

    def test_deterministic_order(self):
        pres = parse_presentation("< x, y | x^2, y^2 >")
        first = [q.images for q in enumerate_quotients(pres, budget=SearchBudget(8))]
        second = [q.images for q in enumerate_quotients(pres, budget=SearchBudget(8))]
        assert first == second

    def test_budget_exhaustion(self):
        pres = parse_presentation("< x, y | >")
        budget = SearchBudget(max_order=6, max_assignments=10)
        list(enumerate_quotients(pres, budget=budget))
        assert budget.exhausted
        assert budget.assignments_used == 10

    # generators chosen so that no element list is the default catalog's
    MANIFEST = """
    T 1 ()
    S3 3 (1 2 3) (1 2)
    K4 4 (1 3)(2 4) (1 2)(3 4)
    C4 4 (1 4 3 2)
    A4 4 (1 2)(3 4) (1 2 3)
    C3xC3 6 (1 2 3)(4 5 6) (4 5 6)
    """

    @pytest.mark.parametrize("text", [
        "< x | x^4 >",
        "< x, y | >",
        "< x, y | x^2, y^3, (x*y)^3 >",
        "< x, y | y^2, x*y*x^-1*y >",
        "< x, y, z | x^2, y*z*y^-1*z^-1 >",
    ])
    def test_matches_brute_force(self, text):
        catalog = parse_catalog_manifest(self.MANIFEST)
        assert len(tables_of(catalog[-1]).automorphisms) + 1 == 48  # all of Aut(C3xC3)
        pres = parse_presentation(text)
        full = search_agrees(pres, catalog, 12, 10**6)
        for max_assignments in sorted({0, 1, full // 3, full // 2, full - 1, full}):
            search_agrees(pres, catalog, 12, max_assignments)

    @pytest.mark.parametrize("text", [
        # the top generator in one run, |e| >= 2 and e < 0: solved by mask
        "< x, y | (x*y^-2)^2 >",
        # two such relators at one depth, and one that is walked there
        "< x, y | (x*y^-2)^3, (x^-1*y^-2)^2, (x*y*x*y^-1)^3 >",
    ])
    def test_solved_relators_at_every_budget(self, text):
        catalog = parse_catalog_manifest(self.MANIFEST)
        pres = parse_presentation(text)
        full = search_agrees(pres, catalog, 12, 10**6)
        for max_assignments in range(full + 1):
            search_agrees(pres, catalog, 12, max_assignments)

    @pytest.mark.parametrize("part", ["image", "order"])
    def test_brute_force_sees_a_corrupted_quotient(self, part, monkeypatch):
        # the comparison reads the image indices that the search yields and
        # the element order of its closure, not a closure of the images
        # redone on the yielded kernel: a wrong image or order fails it
        def corrupted(pres, catalog, *, budget):
            for kernel in enumerate_quotients(pres, catalog, budget=budget):
                if kernel.order == 6:
                    grp, images, closure = kernel.group, kernel.images, kernel.closure
                    if part == "image":
                        images = ((images[0] + 1) % grp.order, *images[1:])
                    else:
                        closure = [closure[0], closure[2], closure[1], *closure[3:]]
                    kernel = CatalogKernel(grp, images, kernel.ks, closure)
                yield kernel

        monkeypatch.setattr(verification, "enumerate_quotients", corrupted)
        catalog = parse_catalog_manifest(self.MANIFEST)
        with pytest.raises(CheckFailure, match="differ"):
            search_agrees(parse_presentation("< x, y | >"), catalog, 6, 10**6)

    def test_brute_force_sees_the_budget_at_each_yield(self, monkeypatch):
        # a search that writes its budget back only at the end yields the
        # same quotients and ends in the same state, yet a caller that
        # stops at a quotient, as witness does, would read a wrong budget
        def buffered(pres, catalog, *, budget):
            yield from list(enumerate_quotients(pres, catalog, budget=budget))

        monkeypatch.setattr(verification, "enumerate_quotients", buffered)
        catalog = parse_catalog_manifest(self.MANIFEST)
        with pytest.raises(CheckFailure, match="after yield 0: search used"):
            search_agrees(parse_presentation("< x, y | >"), catalog, 6, 10**6)

    @pytest.mark.parametrize("manifest", [False, True], ids=["default", "manifest"])
    def test_yielded_quotients_match_checked_ones(self, manifest):
        # the search yields each kernel as its group's image indices and
        # closure, with the cycle texts the group already has; the quotient
        # of its permutations, checked and closed anew, and format_perm are
        # their oracle.  The relator check hands each kernel the order k of
        # each relator root's image, which the table walk checks: with
        # relators at every depth, two of them powers of a root other
        # than themselves
        catalog = parse_catalog_manifest(self.MANIFEST) if manifest else default_catalog()
        for text in ("< x, y | >", "< x, y, z | x^2, (y*z)^3 >",
                     "< x, y, z | x^6, (x*y^-1)^2, y*z^3*y^-1 >"):
            pres = parse_presentation(text)
            roots = relator_roots(pres)
            found = list(enumerate_quotients(pres, catalog, budget=SearchBudget(12)))
            assert len(found) > 20
            for kernel in found:
                grp, images, closure, ks = kernel.group, kernel.images, kernel.closure, kernel.ks
                mul, powers = kernel.tables.mul, kernel.tables.powers
                q = kernel.quotient()
                assert q.images == tuple(grp.elements[a] for a in images)
                assert q.elements == tuple(grp.elements[h] for h in closure)
                assert q.order == kernel.order
                number = {h: i for i, h in enumerate(closure)}
                assert q.tables == tuple(tuple(number[mul[h][a]] for h in closure)
                                         for a in images)
                assert [layout[0] for layout in q.layouts] == [len(powers[a]) for a in images]
                assert describe_quotient(kernel, pres) == ", ".join(
                    f"{name}:{format_perm(img)}"
                    for name, img in zip(pres.generators, q.images))
                assert describe_quotient(kernel, pres) == describe_quotient(q, pres)
                assert ks == [table_order(q, root.runs) for root in roots]

    def test_catalog_builds_no_search_tables(self):
        # the catalog is cached per process, and earlier searches fill in
        # the shared groups' search tables: check a fresh build, whose
        # groups hold their images, their closure (which checks the order),
        # their name and certificate and nothing of the search: no search
        # tables, elements or layouts
        default_catalog.cache_clear()
        for g in default_catalog():
            assert set(vars(g)) == {"degree", "images", "tables", "name", "maximal_types"}
            assert g.search_tables is None

    def test_orders_above_256_deduplicate_on_two_byte_keys(self):
        # a kernel of order above 256 is keyed by two bytes an entry; the
        # second group repeats every kernel of the first, so only the
        # dedup keeps the 18 kernels, one per divisor of 300
        cycle = " ".join(map(str, range(1, 301)))
        catalog = parse_catalog_manifest(f"C300 300 ({cycle})\nC300b 300 ({cycle})")
        pres = parse_presentation("< x | >")
        found = list(enumerate_quotients(pres, catalog, budget=SearchBudget(300)))
        slow = list(verification.brute_force_quotients(pres, catalog,
                                                       budget=SearchBudget(300)))
        assert len(found) == len(slow) == 18
        assert sorted(q.order for q in found) == [
            d for d in range(1, 301) if 300 % d == 0]
        found = [k.quotient() for k in found]
        assert [(q.images, q.tables) for q in found] == [(q.images, q.tables) for q in slow]

    def test_catalog_built_once(self):
        assert default_catalog() is default_catalog()

    def test_max_order_validation(self):
        pres = parse_presentation("< x | >")
        with pytest.raises(ValueError, match="max_order must be at least 2"):
            list(enumerate_quotients(pres, budget=SearchBudget(1)))
        with pytest.raises(ValueError, match="max_assignments must be nonnegative"):
            list(enumerate_quotients(pres, budget=SearchBudget(2, -5)))
        assert list(enumerate_quotients(pres, budget=SearchBudget(2, 0))) == []

    def test_budget_is_keyword_only(self):
        # the budget is the search's only order cap, and it is passed by
        # keyword, so that no order cap or budget can come in third place
        pres = parse_presentation("< x | >")
        with pytest.raises(TypeError):
            enumerate_quotients(pres, default_catalog(), SearchBudget(2))
        with pytest.raises(TypeError):
            verification.brute_force_quotients(pres, default_catalog(), SearchBudget(2))


def test_search_entry_point_is_a_quotient_generator():
    """``bench/tracer.py`` wraps the generator functions of the
    ``quotient`` layer, counts each kernel as it is yielded and reads the
    assignments spent off ``kwargs["budget"]``; the CI pins
    ``quotient.assignments`` and ``quotient.kernels`` come from that.  So
    the entry point stays a generator function of ``quotient``, with a
    keyword-only budget, even though the search itself lives in
    ``search``: one that returned the search's generator would not be
    wrapped as a generator, and the pins would read 0."""
    fn = quotient_module.enumerate_quotients
    assert inspect.isgeneratorfunction(fn)
    assert fn.__module__ == "pdeficiency.quotient"
    budget = inspect.signature(fn).parameters["budget"]
    assert budget.kind is inspect.Parameter.KEYWORD_ONLY and budget.default is None


class TestSearchGolden:
    def test_stream_matches_the_recorded_digests(self):
        # every yield and budget state of 690 searches, recorded by
        # tests/regen_search_golden.py before the search last changed
        recorded = json.loads(regen_search_golden.GOLDEN.read_text())
        for want, got in zip(recorded, regen_search_golden.compute(), strict=True):
            assert got == want


def maximal_subgroups(grp) -> set:
    """The maximal subgroups of a catalog group of order at most 25, each
    as a frozenset of permutations, by brute force: a proper subgroup has
    order at most 12, and each generator added to an irredundant list at
    least doubles the subgroup, so it is generated by at most 3 elements,
    and by generators of at most 3 cyclic subgroups.  Every such set is
    closed by ``FiniteQuotient``, and the maximal subgroups are the proper
    subgroups in no other."""
    assert grp.order <= 25
    cyclic = {}
    for g in grp.elements:
        cyclic.setdefault(frozenset(FiniteQuotient([g]).elements), g)
    proper = {frozenset(FiniteQuotient(gens).elements)
              for r in (1, 2, 3) for gens in combinations(cyclic.values(), r)}
    proper.discard(frozenset(grp.elements))
    return {m for m in proper if not any(m < other for other in proper)}


def isomorphic(elements: frozenset, grp) -> bool:
    """Whether the group of these permutations is isomorphic to ``grp``:
    some images of its generators in it have the same regular tables, so
    the same kernel in the free group, and generate all of it."""
    if len(elements) != grp.order:
        return False
    for images in product(sorted(elements), repeat=len(grp.images)):
        q = FiniteQuotient(images)
        if q.order == grp.order and q.tables == grp.tables:
            return True
    return False


def assert_closed(grp, catalog):
    """The closedness proof of one catalog group: every nontrivial maximal
    subgroup is isomorphic to a group its certificate names, each named
    group is met so and comes earlier in ``catalog``, and the group's
    ``maximal_masks`` hold exactly these maximal subgroups."""
    by_name = {g.name: g for g in catalog}
    maximal = maximal_subgroups(grp)
    met = set()
    for m in maximal:
        if len(m) == 1:
            continue
        names = [name for name in grp.maximal_types if isomorphic(m, by_name[name])]
        assert names, f"{grp.name}: a maximal subgroup of order {len(m)} is uncertified"
        met.update(names)
    assert met == set(grp.maximal_types), f"{grp.name}: certificate names {grp.maximal_types}"
    assert all(catalog.index(by_name[name]) < catalog.index(grp) for name in met)
    masks = tables_of(grp).maximal_masks
    held = {frozenset(grp.elements[x] for x in range(grp.order) if masks[x] >> j & 1)
            for j in range(max(masks).bit_length())}
    assert held == maximal


@pytest.fixture
def fresh_catalog():
    """``default_catalog()`` built anew, and again after the test, so that
    what the test does to its groups stays with it."""
    default_catalog.cache_clear()
    yield default_catalog()
    default_catalog.cache_clear()


def always_closed(catalog, max_order):
    return True


class TestClosedCatalog:
    @pytest.mark.parametrize("name", [g.name for g in default_catalog()])
    def test_default_catalog_is_closed(self, name):
        # by name: a test before this one may have built the catalog anew
        catalog = default_catalog()
        assert_closed(next(g for g in catalog if g.name == name), catalog)

    def test_default_catalog_takes_the_fast_path(self):
        for max_order in (2, 12, 24, 25):
            assert search_module._generating_only(default_catalog(), max_order)

    @pytest.mark.parametrize("name, forged", [
        ("S4", ("S3", "A4")),          # D4 left out
        ("S4", ("S3", "C8", "A4")),    # C8 for D4
        ("C12", ("C6", "C2xC2")),      # C2xC2 for C4
        ("D5", ("C2", "C5", "C10")),   # C10 is no subgroup
    ])
    def test_forged_certificate_fails_the_proof(self, name, forged, monkeypatch):
        grp = next(g for g in default_catalog() if g.name == name)
        monkeypatch.setattr(grp, "maximal_types", forged)
        with pytest.raises(AssertionError):
            assert_closed(grp, default_catalog())

    MUTANTS = {
        "S4-without-D4": (lambda c: tuple(g for g in c if g.name != "D4"), 24),
        "C2-twice": (lambda c: c[:1] + c, 6),
        "reversed": (lambda c: tuple(reversed(c)), 6),
    }

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutants_take_the_dedup_path(self, mutant, monkeypatch):
        # each mutant is not closed, and the dedup search still matches
        # the brute force; flagged closed, it would miss or repeat kernels
        make, max_order = self.MUTANTS[mutant]
        catalog = make(default_catalog())
        pres = parse_presentation("< x, y | >")
        assert not search_module._generating_only(catalog, max_order)
        search_agrees(pres, catalog, max_order, 10**6)
        monkeypatch.setattr(search_module, "_generating_only", always_closed)
        with pytest.raises(CheckFailure, match="differ"):
            search_agrees(pres, catalog, max_order, 10**6)

    def test_out_of_order_takes_the_dedup_path(self):
        # C3 before C2 leaves every group after the groups its certificate
        # names, but the catalog is out of order
        c2, c3, *rest = default_catalog()
        catalog = (c3, c2, *rest)
        assert not search_module._generating_only(catalog, 6)
        search_agrees(parse_presentation("< x, y | >"), catalog, 6, 10**6)

    def test_truncated_automorphisms_take_the_dedup_path(self, fresh_catalog, monkeypatch):
        # the build keeps at most max(|H|, 30 // isqrt(|H|)) automorphisms:
        # 10 of the 47 of C3xC3, and every one of D4's 7
        monkeypatch.setattr(search_module, "CLOSURE_LIMIT", 30)
        by_name = {g.name: tables_of(g) for g in fresh_catalog}
        assert len(by_name["C3xC3"].automorphisms) == 10
        assert not by_name["C3xC3"].all_automorphisms
        assert len(by_name["D4"].automorphisms) == 7 and by_name["D4"].all_automorphisms
        assert search_module._generating_only(fresh_catalog, 8)
        assert not search_module._generating_only(fresh_catalog, 12)
        pres = parse_presentation("< x, y | >")
        search_agrees(pres, fresh_catalog, 12, 10**6)
        monkeypatch.setattr(search_module, "_generating_only", always_closed)
        with pytest.raises(CheckFailure, match="differ"):
            search_agrees(pres, fresh_catalog, 12, 10**6)

    @pytest.mark.parametrize("line, whole", [
        ("E8 6 (1 2) (3 4) (5 6)", False),  # 167 automorphisms, 64 tries
        ("K 4 (1 2)(3 4) (1 3)(2 4)", True),
    ])
    def test_automorphism_build_records_its_end(self, line, whole):
        (grp,) = parse_catalog_manifest(line)
        tables = tables_of(grp)
        assert (len(tables.automorphisms) + 1 == {8: 168, 4: 6}[grp.order]) == whole
        assert tables.all_automorphisms == whole

    def test_lazy_closure_is_the_breadth_first_one(self):
        # a generating kernel is yielded without its closure, which is
        # built on first use, in the numbering of the quotient's closure
        pres = parse_presentation("< x, y | x^2, y^3 >")
        for kernel in enumerate_quotients(pres, budget=SearchBudget(24)):
            if kernel.order > 1:
                assert kernel._closure is None and kernel.order == kernel.group.order
            elements = kernel.group.elements
            assert tuple(elements[h] for h in kernel.closure) == kernel.quotient().elements


def direct_tables(q):
    """The regular tables straight from their definition."""
    index = {h: i for i, h in enumerate(q.elements)}
    return tuple(tuple(index[perm_mul(h, img)] for h in q.elements) for img in q.images)


def direct_mul(elements):
    """The multiplication table straight from its definition."""
    index = {h: i for i, h in enumerate(elements)}
    return tuple(tuple(index[perm_mul(a, b)] for b in elements) for a in elements)


def closure_by_permutation(images) -> tuple:
    """``(elements, tables)`` of the image group by one breadth-first pass
    from the identity that keys each element by its whole permutation."""
    elements = [perm_identity(len(images[0]))]
    index = {elements[0]: 0}
    rows = [[] for _ in images]
    for h in elements:
        for img, row in zip(images, rows):
            nxt = perm_mul(h, img)
            if nxt not in index:
                index[nxt] = len(elements)
                elements.append(nxt)
            row.append(index[nxt])
    return tuple(elements), tuple(map(tuple, rows))


def commuting_images(seed) -> tuple:
    """``(images, starts)``: 1-3 commuting permutations on shuffled points,
    with 2-4 cyclic orbits, the first image a generator of each, sometimes a
    Klein four-group orbit, and 1-3 fixed points; ``starts`` holds the least
    point of each orbit."""
    rng = random.Random(seed)
    n_gens = rng.randint(1, 3)
    blocks = [rng.randint(2, 6) for _ in range(rng.randint(2, 4))] + [1] * rng.randint(1, 3)
    if n_gens > 1 and rng.random() < 0.5:
        blocks.append("klein")
    degree = sum(4 if m == "klein" else m for m in blocks)
    points = rng.sample(range(degree), degree)
    images = [list(range(degree)) for _ in range(n_gens)]
    starts, at = [], 0
    for m in blocks:
        size = 4 if m == "klein" else m
        orbit, at = points[at:at + size], at + size
        starts.append(min(orbit))
        for i, img in enumerate(images):
            if m == "klein":  # k -> k xor v, a translation of F_2^2
                v = (1, 2)[i] if i < 2 else rng.randrange(4)
                moved = [k ^ v for k in range(4)]
            else:  # k -> k + e mod m
                e = 1 if i == 0 else rng.randrange(m)
                moved = [(k + e) % m for k in range(m)]
            for k, x in enumerate(orbit):
                img[x] = orbit[moved[k]]
    return tuple(map(tuple, images)), sorted(starts)


class TestClosure:
    """The closure that keys each element by its images of a base gives the
    elements and tables of the one that keys it by its whole permutation."""

    @pytest.mark.parametrize("seed", range(20))
    def test_commuting_images(self, seed):
        images, starts = commuting_images(seed)
        assert all(perm_mul(a, b) == perm_mul(b, a) for a, b in combinations(images, 2))
        assert orbit_starts(images, len(images[0])) == starts
        q = FiniteQuotient(images)
        assert (q.elements, q.tables) == closure_by_permutation(images)

    @pytest.mark.parametrize("images", [
        [parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)],
        [parse_perm("(1 2 3 4)", 4), parse_perm("(1 3)", 4)],
        [parse_perm("(1 2 3)", 4), parse_perm("(2 3 4)", 4)],
        list(_psl27()),
        [(0,)],
        [perm_identity(4)] * 3,
        [parse_perm("(1 2 3)(4 5)", 6)],
        [parse_perm("(1 2)(3 4)", 4), parse_perm("(1 3)(2 4)", 4)],
    ], ids=["S3", "D4", "A4", "PSL(2,7)", "degree-1", "identities", "one-generator", "C2xC2"])
    def test_examples(self, images):
        q = FiniteQuotient(images)
        assert (q.elements, q.tables) == closure_by_permutation(images)


class TestTables:
    @pytest.mark.parametrize("grp", default_catalog(), ids=lambda g: g.name)
    def test_default_catalog(self, grp):
        q = FiniteQuotient(grp.images)
        assert q.tables == direct_tables(q)
        assert q.kernel_key() == (grp.order, q.tables)
        assert tables_of(grp).mul == direct_mul(grp.elements)

    def test_manifest_group(self):
        (grp,) = parse_catalog_manifest("A5 5 (1 2 3) (3 4 5)")
        q = FiniteQuotient(grp.images)
        assert q.order == 60
        assert q.tables == direct_tables(q)
        assert tables_of(grp).mul == direct_mul(grp.elements)

    @pytest.mark.parametrize("manifest", [
        "C2 2 (1 2)", "A5 5 (1 2 3) (3 4 5)",
        "PSL(2,7) 8 " + " ".join(map(format_perm, _psl27())),
    ])
    def test_cycle_layout(self, manifest):
        # each element's entry is built on first use and holds two tuples
        # of |H| indices, no more than a row of mul: its cycles end to end
        # and the place of each index in them
        (grp,) = parse_catalog_manifest(manifest)
        tables = tables_of(grp)
        mul, powers = tables.mul, tables.powers
        size = grp.order
        info = SearchTables.cycle_layout.cache_info
        for a in range(size):
            misses = info().misses
            length, cols, place = layout = tables.cycle_layout(a)
            assert info().misses == misses + 1  # built now, on first use
            assert tables.cycle_layout(a) is layout
            assert info().misses == misses + 1  # and kept
            assert length == len(powers[a])
            assert_layout(length, cols, place, [row[a] for row in mul])
        # the group is the quotient onto itself by its generators: one
        # layout per generator's table, built on first use, its cycle
        # length the order of the generator's image
        assert "layouts" not in vars(grp)
        assert grp.layouts is grp.layouts and len(grp.layouts) == grp.n_gens
        assert vars(grp)["layouts"] is grp.layouts
        for (length, cols, place), img, table in zip(grp.layouts, grp.images, grp.tables):
            assert length == perm_order(img)
            assert_layout(length, cols, place, table)
            assert (length, cols, place) == tables.cycle_layout(table[0])

    def test_method_caches_stay_bounded(self):
        # each method's lru_cache is shared by every group's tables and
        # holds SEARCH_CACHE_LIMIT results, no more, after more distinct
        # calls than that, each the result of the uncached method
        calls = SEARCH_CACHE_LIMIT + 808
        (s4,) = [g for g in default_catalog() if g.name == "S4"]
        tables = tables_of(s4)
        for method, args in (
            (SearchTables.solutions, [(0, 1, m) for m in range(1, calls + 1)]),
            (SearchTables.orbit_minima, [(stab,) for stab in range(calls)]),
            (SearchTables.generating, [(ins,) for ins in range(calls)]),
        ):
            for a in args:
                assert method(tables, *a) == method.__wrapped__(tables, *a)
            assert method.cache_info().currsize == SEARCH_CACHE_LIMIT
        # cycle_layout takes an element index, so it is called on the
        # tables of many copies of C12
        (c12,) = [g for g in default_catalog() if g.name == "C12"]
        for _ in range(calls // 12 + 1):
            copy = SearchTables(c12)
            for a in range(12):
                assert copy.cycle_layout(a) == SearchTables.cycle_layout.__wrapped__(copy, a)
        assert SearchTables.cycle_layout.cache_info().currsize == SEARCH_CACHE_LIMIT


def assert_layout(length, cols, place, perm):
    """``cols`` holds the cycles of perm, each of ``length`` points, from
    its least point and in the order of it; ``place`` inverts ``cols``."""
    size = len(perm)
    assert sorted(cols) == list(range(size)) and len(place) == size
    assert all(place[x] == i for i, x in enumerate(cols))
    assert list(cols[::length]) == sorted(cols[::length])
    for i in range(0, size, length):
        cycle = cols[i:i + length]
        assert cycle[0] == min(cycle)
        assert [perm[x] for x in cycle] == [*cycle[1:], cycle[0]]


AUT_ORDERS = {
    **{f"C{n}": sum(math.gcd(k, n) == 1 for k in range(1, n + 1)) for n in range(2, 13)},
    "C2xC2": 6, "C3xC3": 48, "C5xC5": 480, "D4": 8, "D5": 20, "S3": 6, "S4": 24, "A4": 24,
}


@pytest.mark.parametrize("grp", default_catalog(), ids=lambda g: g.name)
class TestAutomorphisms:
    def test_whole_group(self, grp):
        # the identity is left out
        assert len(tables_of(grp).automorphisms) + 1 == AUT_ORDERS[grp.name]

    def test_each_is_an_automorphism(self, grp):
        tables = tables_of(grp)
        mul = tables.mul
        size = grp.order
        identity = tuple(range(size))
        assert len(set(tables.automorphisms)) == len(tables.automorphisms)
        for a in tables.automorphisms:
            assert a[0] == 0 and sorted(a) == list(identity) and a != identity
            assert all(mul[a[x]][a[y]] == a[mul[x][y]]
                       for x in range(size) for y in range(size))

    def test_masks(self, grp):
        assert_masks(grp)


def assert_masks(grp):
    """Bit i of ``fix[x]`` and of ``lower[x]`` say whether automorphism i
    fixes x and whether it takes x lower, checked element by element."""
    tables = tables_of(grp)
    fix, lower = tables.automorphism_masks
    automorphisms = tables.automorphisms
    assert len(fix) == len(lower) == grp.order
    for x in range(grp.order):
        for i, a in enumerate(automorphisms):
            assert (fix[x] >> i & 1, lower[x] >> i & 1) == (a[x] == x, a[x] < x)
        assert fix[x] >> len(automorphisms) == lower[x] >> len(automorphisms) == 0


@pytest.mark.parametrize("line, least", [
    ("E32 10 (1 2) (3 4) (5 6) (7 8) (9 10)", 500),  # 9,999,360 in all
    ("K 4 (1 2)(3 4) (1 2)(3 4) (1 3)(2 4)", 5),     # a generator repeated
    ("T 1 ()", 0),                                   # no automorphism but 1
])
def test_manifest_automorphisms(line, least):
    """Images are extended one generator at a time, so a group with many
    generators, or with a repeated one, keeps automorphisms within the
    |H|^2 tries."""
    (grp,) = parse_catalog_manifest(line)
    tables = tables_of(grp)
    mul = tables.mul
    size = grp.order
    assert len(set(tables.automorphisms)) == len(tables.automorphisms) >= least
    for a in tables.automorphisms:
        assert sorted(a) == list(range(size)) and a != tuple(range(size))
        assert all(mul[a[x]][a[y]] == a[mul[x][y]] for x in range(size) for y in range(size))
    assert_masks(grp)


class TestCatalog:
    def test_default_orders(self):
        by_name = {g.name: g for g in default_catalog()}
        assert by_name["S3"].order == 6
        assert by_name["S4"].order == 24
        assert by_name["A4"].order == 12
        assert by_name["D4"].order == 8
        assert by_name["D5"].order == 10
        assert by_name["C2xC2"].order == 4
        assert by_name["C5xC5"].order == 25
        for n in range(2, 13):
            assert by_name[f"C{n}"].order == n

    def test_manifest_roundtrip(self):
        manifest = "# a comment\nS3 3 (1 2) (1 2 3)\nK4 4 (1 2)(3 4) (1 3)(2 4)\n"
        s3, k4 = parse_catalog_manifest(manifest)
        assert (s3.name, s3.order, k4.name, k4.order) == ("S3", 6, "K4", 4)

    def test_split_outside_parens(self):
        # one splitter for manifest lines (whitespace) and --quotient (commas)
        assert split_outside_parens("(1 2)(3 4)  (1, 2 3)", str.isspace) == [
            "(1 2)(3 4)", "", "(1, 2 3)"]
        assert split_outside_parens("x:(1,2),y:()", lambda ch: ch == ",") == [
            "x:(1,2)", "y:()"]
        # an unclosed ( keeps the rest in one piece, for parse_cycles to refuse
        assert split_outside_parens("(1 2", str.isspace) == ["(1 2"]
        with pytest.raises(ValueError, match=re.escape("unbalanced parenthesis in '(1 2)) (3 4)'")):
            split_outside_parens("(1 2)) (3 4)", str.isspace)

    def test_manifest_whitespace(self):
        (k4,) = parse_catalog_manifest("K4 4   (1 2)(3 4)\t(1 3)( 2 4 )  ")
        assert k4.images == (parse_perm("(1 2)(3 4)", 4), parse_perm("(1 3)(2 4)", 4))

    def test_manifest_errors(self):
        with pytest.raises(ValueError):
            parse_catalog_manifest("S3 three (1 2)")
        with pytest.raises(ValueError):
            parse_catalog_manifest("S3 3")
        with pytest.raises(ValueError):
            parse_catalog_manifest("S3 2 (1 2 3)")
        # a digit that int() does not read is no degree
        with pytest.raises(ValueError, match=re.escape("manifest line 1: invalid degree '²'")):
            parse_catalog_manifest("C2 ² (1 2)")
