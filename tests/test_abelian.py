import heapq
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import regen_kernels_golden

from pdeficiency.abelian import (
    AbelianInvariants,
    IntMatrix,
    abelian_invariants,
    abelian_p_deficiency_group,
    abelian_p_deficiency_presentation,
    d_p,
    eliminate_unit_pivots,
    exponent_columns,
    smith_normal_form,
)
from pdeficiency.presentation import FinitePresentation, p_deficiency, parse_presentation
from pdeficiency.verification import (
    dense_abelian_invariants, det, exponent_matrix, rank_mod_p, upper_bound_de,
)
from pdeficiency.words import Valuation, Word, nu_p_int, require_prime


def primary_chain(orders) -> tuple:
    """The divisor chain of a direct sum of cyclic groups from its primary
    parts, by trial division: the j-th largest divisor multiplies the j-th
    largest power of each prime.  The oracle of the Smith normal form
    route of ``AbelianInvariants.from_cyclic_factors``."""
    powers = {}  # prime -> its exponents in the orders
    for e in orders:
        q = 2
        while e > 1:
            k = 0
            while e % q == 0:
                e //= q
                k += 1
            if k:
                powers.setdefault(q, []).append(k)
            q += 1
    for ks in powers.values():
        ks.sort(reverse=True)
    length = max(map(len, powers.values()), default=0)
    chain = [math.prod(q**ks[j] for q, ks in powers.items() if j < len(ks))
             for j in range(length)]
    return tuple(reversed(chain))


def nu_p_vector(vec, p: int) -> Valuation:
    """Largest k with p^k dividing every coordinate; infinite on the zero
    vector.  The oracle for the column valuations of
    ``abelian_p_deficiency_presentation``."""
    require_prime(p)
    g = 0
    for x in vec:
        g = math.gcd(g, int(x))
    if g == 0:
        return Valuation.infinite()
    return Valuation.finite(nu_p_int(g, p))


def gcd_of_minors(mat, k):
    g = 0
    for rows in combinations(range(mat.rows), k):
        for cols in combinations(range(mat.cols), k):
            sub = IntMatrix([[mat.at(i, j) for j in cols] for i in rows])
            g = math.gcd(g, abs(det(sub)))
    return g


class TestSmithNormalForm:
    def test_permuted_diagonal(self):
        assert smith_normal_form(IntMatrix([[4, 0], [0, 2]])) == (2, 4)

    def test_small_example(self):
        assert smith_normal_form(IntMatrix([[2, 4], [2, 0]])) == (2, 4)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix([[0, 0, 0], [0, 0, 0]])) == (0, 0)

    def test_empty_columns(self):
        assert smith_normal_form(IntMatrix([[], []], cols=0)) == ()

    matrices_st = st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    ).map(IntMatrix)

    @settings(max_examples=120, deadline=None)
    @given(matrices_st)
    def test_oracle_equivalence(self, mat):
        diag = smith_normal_form(mat)
        assert len(diag) == min(mat.rows, mat.cols)
        prod = 1
        for k in range(1, len(diag) + 1):
            prod *= diag[k - 1]
            assert prod == gcd_of_minors(mat, k)
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            assert (b % a == 0) if a else (b == 0)

    def test_known_chain(self):
        mat = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        assert smith_normal_form(mat) == (2, 6, 12)
        mat = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert smith_normal_form(mat) == (2, 2, 156)  # minors' gcds 2, 4, 624
        assert smith_normal_form(IntMatrix([[-3]])) == (3,)


class TestExponentMatrix:
    def test_columns(self):
        pres = parse_presentation("< x, y | x^2*y^2, x^4 >")
        assert exponent_matrix(pres) == IntMatrix([[2, 4], [2, 0]])

    def test_commutator_is_zero_column(self):
        pres = parse_presentation("< x, y | x*y*x^-1*y^-1 >")
        assert exponent_matrix(pres) == IntMatrix([[0], [0]])

    def test_long_relator(self):
        pres = parse_presentation("< x, y, z | x*y*z >")
        assert exponent_matrix(pres) == IntMatrix([[1], [1], [1]])


@st.composite
def conjugated_powers_st(draw):
    """The runs of c*u^k*c^-1 before reduction: u's ends often share a
    generator, c's last run often merges with or cancels u's first, u may
    be one run or a long word, and k is 1, 2, 3 or large."""
    run = st.tuples(st.integers(0, 2), st.sampled_from((1, -1, 2, -2, 3)))
    u = draw(st.lists(run, min_size=1, max_size=draw(st.sampled_from((1, 5, 40)))))
    if len(u) > 1 and draw(st.booleans()):
        u[-1] = (u[0][0], draw(st.sampled_from((1, -1, 2))))
    c = draw(st.lists(run, max_size=4))
    g, e = u[0]
    c += draw(st.sampled_from(([], [(g, e)], [(g, -e)], [(g, -2 * e)])))
    k = draw(st.sampled_from((1, 2, 3, draw(st.integers(4, 80)))))
    return c + u * k + [(h, -f) for h, f in reversed(c)]


class TestExponentColumns:
    def test_columns(self):
        pres = parse_presentation("< x, y | x^2*y^2, x^4 >")
        assert exponent_columns(pres) == [{0: 2, 1: 2}, {0: 4}]

    def test_no_zero_entries(self):
        pres = parse_presentation("< x, y, z | x*y*x^-1*y^-1, x^2*y*x*y^-1*z^-1 >")
        assert exponent_columns(pres) == [{}, {0: 3, 2: -1}]

    def test_long_relators(self):
        # more runs than generators: summed into a list, not a dict
        long = parse_presentation("< x, y | (x*y^-1)^50*x^3*y^2 >")
        assert exponent_columns(long) == [{0: 53, 1: -48}]
        balanced = parse_presentation("< x, y | (x*y*x^-1*y^-1)^40 >")
        assert exponent_columns(balanced) == [{}]

    def test_read_off_the_root(self):
        # c*u^m*c^-1 has u's exponent sums times m; c cancels
        pres = parse_presentation("< x, y | y^3*(x^2*y^-1*x)^30*y^-3, x*(y*x)^7*x^-1 >")
        assert exponent_columns(pres) == [{0: 90, 1: -30}, {0: 7, 1: 7}]
        assert pres.root(0).exponent == 30

    @settings(max_examples=300, deadline=None)
    @given(st.lists(conjugated_powers_st(), min_size=1, max_size=3), st.integers(1, 3))
    def test_root_sums_match_the_runs(self, relators, n):
        # the dense exponent matrix sums every run: it is the oracle
        n = max([n] + [g + 1 for r in relators for g, _ in r])
        pres = FinitePresentation([f"g{i}" for i in range(n)],
                                  [w for w in (Word(r, n) for r in relators) if not w.is_identity])
        dense = exponent_matrix(pres)
        assert exponent_columns(pres) == [
            {g: dense.at(g, j) for g in range(n) if dense.at(g, j)}
            for j in range(len(pres.relators))
        ]


sparse_pres_st = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1, 1, -1, 2, -2, 3))),
            min_size=1, max_size=5,
        ),
        max_size=7,
    ).map(lambda rels: FinitePresentation(
        [f"g{i}" for i in range(n)],
        [w for w in (Word(runs, n) for runs in rels) if not w.is_identity],
    ))
)


def reference_eliminate_unit_pivots(cols, n_gens: int) -> tuple:
    """Unit-pivot elimination as first written, with a list of the unit
    generators of each pivot column, ``min`` over them, and a set insertion
    for every substituted entry: the oracle of ``eliminate_unit_pivots``,
    whose pivot order and columns it must give exactly."""
    cols = {j: dict(col) for j, col in enumerate(cols) if col}
    where = {}  # generator -> the columns it occurs in
    for j, col in cols.items():
        for g in col:
            where.setdefault(g, set()).add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    left = n_gens
    while heap:
        size, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != size:
            continue  # eliminated, or changed and pushed again
        units = [g for g, e in col.items() if e == 1 or e == -1]
        if not units:
            continue  # pushed again if a substitution changes it
        g = min(units, key=lambda h: (len(where[h]), h))
        del cols[j]
        for h in col:
            where[h].discard(j)
        sign = col.pop(g)
        for k in where.pop(g):
            other = cols[k]
            f = other.pop(g) * sign  # other - f * col has no g left
            for h, e in col.items():
                x = other.get(h, 0) - f * e
                if x:
                    other[h] = x
                    where[h].add(k)
                else:
                    del other[h]
                    where[h].discard(k)
            if other:
                heapq.heappush(heap, (len(other), k))
            else:
                del cols[k]
        left -= 1
    return left, list(cols.values())


def random_sparse_columns(rng) -> tuple:
    """Columns of 1-6 entries over up to 40 generators, drawn from a few
    generators each so that substitutions fill in, with entries +-1 half
    the time and otherwise up to +-12."""
    n = rng.randint(1, 40)
    cols = []
    for _ in range(rng.randint(1, 60)):
        col = {}
        for _ in range(rng.randint(0, 6)):
            g = rng.randrange(min(n, rng.choice((3, 8, n))))
            col[g] = rng.choice((1, -1)) if rng.random() < 0.5 else rng.choice(
                [e for e in range(-12, 13) if e not in (-1, 0, 1)])
        cols.append(col)
    return cols, n


class TestEliminationOracle:
    """The pivot order, the columns left and the order of their entries,
    which is the Smith normal form's input, equal the oracle's."""

    @staticmethod
    def same(cols, n) -> None:
        want = reference_eliminate_unit_pivots(cols, n)
        got = eliminate_unit_pivots(cols, n)
        assert got[0] == want[0]
        assert [list(col.items()) for col in got[1]] == [list(col.items()) for col in want[1]]

    def test_kernel_presentations(self):
        for text in regen_kernels_golden.kernel_texts():
            pres = parse_presentation(text)
            self.same(exponent_columns(pres), pres.n_gens)

    def test_random_sparse_columns(self):
        rng = random.Random(36)
        fill_in = 0
        for _ in range(600):
            cols, n = random_sparse_columns(rng)
            self.same(cols, n)
            _, rest = eliminate_unit_pivots(cols, n)
            fill_in += any(len(col) > max(map(len, cols)) for col in rest)
        assert fill_in > 0


class TestSparseInvariants:
    """Unit-pivot elimination then the Smith normal form of the remainder,
    against the Smith normal form of the whole exponent matrix."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_pres_st)
    def test_matches_dense_snf(self, pres):
        assert abelian_invariants(pres) == dense_abelian_invariants(pres)

    @settings(max_examples=200, deadline=None)
    @given(sparse_pres_st)
    def test_remainder_has_no_units_or_zeros(self, pres):
        cols = exponent_columns(pres)
        left, rest = eliminate_unit_pivots(cols, pres.n_gens)
        for col in rest:
            assert col and all(e not in (0, 1, -1) for e in col.values())
        assert left >= len({g for col in rest for g in col})
        assert cols == exponent_columns(pres)  # the input is not changed

    def test_relator_free(self):
        pres = parse_presentation("< x, y, z | >")
        assert abelian_invariants(pres) == AbelianInvariants(3, ())

    def test_commutators(self):
        pres = parse_presentation("< x, y, z | x*y*x^-1*y^-1, y*z*y^-1*z^-1 >")
        assert eliminate_unit_pivots(exponent_columns(pres), 3) == (3, [])
        assert abelian_invariants(pres) == AbelianInvariants(3, ())

    def test_repeated_relators(self):
        pres = parse_presentation("< x, y | x*y^2, x*y^2, x*y^2, y^6 >")
        assert abelian_invariants(pres) == AbelianInvariants(0, (6,))
        assert abelian_invariants(pres) == dense_abelian_invariants(pres)

    def test_no_unit_entry(self):
        pres = parse_presentation("< x, y | x^2*y^4, x^6*y^2 >")
        assert eliminate_unit_pivots(exponent_columns(pres), 2) == (
            2, [{0: 2, 1: 4}, {0: 6, 1: 2}])
        assert abelian_invariants(pres) == AbelianInvariants(0, (2, 10))

    def test_unused_generators(self):
        pres = parse_presentation("< a, b, c, d | b^4, b*c^2 >")
        assert abelian_invariants(pres) == AbelianInvariants(2, (8,))
        pres = parse_presentation("< a, b, c | b^3 >")
        assert abelian_invariants(pres) == AbelianInvariants(2, (3,))

    def test_substitution_sign(self):
        # x = y^-2 from the first relator turns x*y^-4 into y^-6
        pres = parse_presentation("< x, y | x*y^2, x*y^-4 >")
        assert eliminate_unit_pivots(exponent_columns(pres), 2) == (1, [{1: -6}])
        assert abelian_invariants(pres) == AbelianInvariants(0, (6,))

    def test_shortest_column_first(self):
        # y*x^2 goes before x*y*z; x^2*z^3 is as short but has no unit
        pres = parse_presentation("< x, y, z | x*y*z, x^2*z^3, y*x^2 >")
        assert eliminate_unit_pivots(exponent_columns(pres), 3) == (1, [{2: 5}])

    def test_rarest_generator_first(self):
        # in x*y, y occurs in no other column, so eliminating it changes none
        pres = parse_presentation("< x, y, z | x*y, x^2*z^2, x^4*z^2 >")
        assert eliminate_unit_pivots(exponent_columns(pres), 3) == (
            2, [{0: 2, 2: 2}, {0: 4, 2: 2}])
        assert abelian_invariants(pres) == AbelianInvariants(0, (2, 2))


class TestAbelianInvariants:
    def test_examples(self):
        assert abelian_invariants(
            parse_presentation("< x, y | x^2*y^2, x^4 >")
        ) == AbelianInvariants(0, (2, 4))
        assert abelian_invariants(parse_presentation("< x, y | >")) == AbelianInvariants(
            2, ()
        )
        assert abelian_invariants(
            parse_presentation("< x, y | x^2, y^5, (x*y)^5 >")
        ) == AbelianInvariants(0, (5,))

    def test_validation(self):
        with pytest.raises(ValueError, match="^divisibility chain broken: 2 does not divide 3$"):
            AbelianInvariants(0, (2, 3))
        with pytest.raises(ValueError, match="^divisor 1 is not >= 2$"):
            AbelianInvariants(0, (1,))
        with pytest.raises(ValueError, match="^rank must be nonnegative$"):
            AbelianInvariants(-1, ())

    def test_divisors_normalised(self):
        inv = AbelianInvariants(1, [2, Fraction(4)])
        assert inv.divisors == (2, 4) and type(inv.divisors) is tuple
        assert all(type(d) is int for d in inv.divisors)
        assert inv == AbelianInvariants(rank=1, divisors=(2, 4))

    def test_from_cyclic_factors(self):
        assert AbelianInvariants.from_cyclic_factors((4, 2)) == AbelianInvariants(0, (2, 4))
        assert AbelianInvariants.from_cyclic_factors((2, 3)) == AbelianInvariants(0, (6,))
        assert AbelianInvariants.from_cyclic_factors((6, 4, 10)) == AbelianInvariants(
            0, (2, 2, 60)
        )
        assert AbelianInvariants.from_cyclic_factors((1, 1), rank=2) == AbelianInvariants(
            2, ()
        )

    def test_from_cyclic_factors_matches_primary_parts(self):
        rng = random.Random(26)
        for _ in range(3000):
            orders = [rng.randint(1, 200) for _ in range(rng.randint(0, 6))]
            rank = rng.randint(0, 2)
            assert AbelianInvariants.from_cyclic_factors(orders, rank) == AbelianInvariants(
                rank, primary_chain(orders))

    @pytest.mark.parametrize("big", [10**13 + 37, 2**127 - 1])
    def test_from_cyclic_factors_large_prime(self, big):
        # nothing is factored: trial division would take 0.3 s on 10^13 + 37
        # and would not end on 2^127 - 1
        assert AbelianInvariants.from_cyclic_factors((big,)) == AbelianInvariants(0, (big,))
        assert AbelianInvariants.from_cyclic_factors((big, 4, 2 * big)) == AbelianInvariants(
            0, (2 * big, 4 * big))

    @pytest.mark.parametrize("orders", [(0,), (3, -2)])
    def test_from_cyclic_factors_validation(self, orders):
        with pytest.raises(ValueError, match="cyclic factor orders must be positive"):
            AbelianInvariants.from_cyclic_factors(orders)


class TestNuPVector:
    def test_examples(self):
        assert nu_p_vector((4, 8), 2) == Valuation.finite(2)
        assert nu_p_vector((0, 0), 5) == Valuation.infinite()
        assert nu_p_vector((6, 9), 3) == Valuation.finite(1)


class TestAbelianDeficiency:
    def test_presentation_examples(self):
        assert abelian_p_deficiency_presentation(
            parse_presentation("< x, y | x*y*x^-1*y^-1 >"), 2
        ) == 1
        assert abelian_p_deficiency_presentation(
            parse_presentation("< x | x^4 >"), 2
        ) == Fraction(-1, 4)
        assert abelian_p_deficiency_presentation(
            parse_presentation("< x, y | x^2, y^5, (x*y)^5 >"), 2
        ) == Fraction(-3, 2)

    @settings(max_examples=200, deadline=None)
    @given(sparse_pres_st, st.sampled_from([2, 3, 5]))
    def test_presentation_matches_dense_columns(self, pres, p):
        mat = exponent_matrix(pres)
        want = Fraction(pres.n_gens - 1) - sum(
            nu_p_vector([mat.at(i, j) for i in range(mat.rows)], p).weight(p)
            for j in range(mat.cols))
        assert abelian_p_deficiency_presentation(pres, p) == want
        cols = exponent_columns(pres)
        assert abelian_p_deficiency_presentation(pres, p, cols) == want

    def test_group_examples(self):
        assert abelian_p_deficiency_group(AbelianInvariants(1, (6,)), 2) == Fraction(1, 2)
        assert abelian_p_deficiency_group(AbelianInvariants(3, ()), 5) == 2
        assert abelian_p_deficiency_group(AbelianInvariants(0, (5,)), 2) == -1

    def test_upper_bound_examples(self):
        assert upper_bound_de(parse_presentation("< x, y | x^2, y^5, (x*y)^5 >"), 2) == -1
        assert upper_bound_de(parse_presentation("< x, y | >"), 2) == 1
        # the (2,4,4) group abelianizes to C_2 + C_4, giving exactly 1/4
        assert upper_bound_de(
            parse_presentation("< x,y,z | x^2,y^4,z^4,x*y*z >"), 2
        ) == Fraction(1, 4)

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=2, max_size=2).map(tuple),
            max_size=4,
        ),
        st.sampled_from([2, 3, 5]),
    )
    def test_inequality_chain(self, columns, p):
        from pdeficiency.presentation import FinitePresentation
        from pdeficiency.words import Word

        relators = []
        for a, b in columns:
            word = Word(((0, a), (1, b)), 2)
            if not word.is_identity:
                relators.append(word)
        pres = FinitePresentation(("x", "y"), relators)
        lower = p_deficiency(pres, p)
        middle = abelian_p_deficiency_presentation(pres, p)
        upper = upper_bound_de(pres, p)
        assert lower <= middle <= upper


def brute_force_d_p(inv, p):
    """Count homomorphisms to the cyclic group of order p directly."""
    count = 0
    ranges = [range(p)] * (len(inv.divisors) + inv.rank)
    for images in product(*ranges):
        ok = True
        for d, img in zip(inv.divisors, images):
            if (d * img) % p != 0:
                ok = False
                break
        if ok:
            count += 1
    return count.bit_length() - 1 if p == 2 else round(math.log(count, p))


class TestDp:
    def test_examples(self):
        assert d_p(AbelianInvariants(1, (2, 4)), 2) == 3
        assert d_p(AbelianInvariants(4, ()), 3) == 4
        assert d_p(AbelianInvariants(0, (5,)), 2) == 0

    @given(
        st.integers(0, 2),
        st.lists(st.integers(2, 12), max_size=2),
        st.sampled_from([2, 3]),
    )
    def test_hom_counting_oracle(self, rank, orders, p):
        inv = AbelianInvariants.from_cyclic_factors(orders, rank)
        assert d_p(inv, p) == brute_force_d_p(inv, p)


class TestRankModP:
    def test_examples(self):
        assert rank_mod_p([], 2) == 0
        assert rank_mod_p([{0: 2, 3: 4}], 2) == 0
        assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: -1}], 2) == 1
        assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: -1}], 3) == 2

    @settings(max_examples=200)
    @given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([2, 3, 5, 7]),
           st.data())
    def test_matches_snf(self, m, n, p, data):
        # the rank mod p counts the invariant factors that p does not divide
        rows = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)]
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        diag = smith_normal_form(IntMatrix(rows))
        assert rank_mod_p(sparse, p) == sum(1 for d in diag if d % p)


class TestIntMatrix:
    def test_det(self):
        assert det(IntMatrix([[1, 2], [3, 4]])) == -2
        assert det(IntMatrix([[2, 0, 1], [0, 4, 1], [0, 0, 1]])) == 8
        assert det(IntMatrix([], cols=0)) == 1
        assert det(IntMatrix([[0, 1], [0, 2]])) == 0
        with pytest.raises(ValueError):
            det(IntMatrix([[1, 2, 3]]))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])
