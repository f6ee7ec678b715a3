import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdeficiency import abelian, fuchsian, invariants, rewrite, verification, words
from pdeficiency.presentation import p_deficiency, parse_presentation, parse_word
from pdeficiency.quotient import SearchBudget
from pdeficiency.verification import word_from_letters, word_letters
from pdeficiency.words import (
    PRIME_LIMIT,
    RootDecomposition,
    Valuation,
    Word,
    _smallest_period,
    is_prime,
    maximal_root,
    nu_p,
    nu_p_int,
    p_prime_root,
)


def w(text, n=2):
    """Tiny word builder: 'x', 'X' (inverse), 'y', 'Y', over n generators."""
    letters = []
    for ch in text:
        g = "xyz".find(ch.lower()) + 1
        letters.append(g if ch.islower() else -g)
    return word_from_letters(letters, n)


runs_st = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-4, 4)), max_size=10
)
words_st = runs_st.map(lambda rs: Word(rs, 3))
nontrivial_st = words_st.filter(lambda v: not v.is_identity)


class TestReduce:
    def test_cancellation(self):
        assert w("xX").is_identity

    def test_inner_cancellation(self):
        assert w("xyYx") == Word(((0, 2),), 2)

    def test_already_reduced(self):
        assert w("xyX").runs == ((0, 1), (1, 1), (0, -1))

    def test_cascading_cancellation(self):
        assert w("xyzZYX", 3).is_identity

    def test_invalid_generator(self):
        with pytest.raises(ValueError):
            Word(((5, 1),), 2)
        with pytest.raises(ValueError):
            word_from_letters([0], 2)

    @given(runs_st)
    def test_idempotent_and_shorter(self, rs):
        word = Word(rs, 3)
        assert Word(word.runs, 3) == word
        assert len(word) <= sum(abs(e) for _, e in rs)

    @given(words_st)
    def test_inverse_cancels(self, word):
        assert (word * word.inverse()).is_identity
        assert (word.inverse() * word).is_identity

    @given(words_st, st.integers(-5, 5))
    def test_pow_matches_repeated_product(self, word, n):
        expected = Word.identity(3)
        step = word if n >= 0 else word.inverse()
        for _ in range(abs(n)):
            expected = expected * step
        assert word**n == expected

    def test_pow_merges_the_joins(self):
        # the core's first and last runs share a generator, and so do the
        # conjugator's last run and the core's first
        assert (w("xyx") ** 3).runs == ((0, 1), (1, 1), (0, 2), (1, 1), (0, 2), (1, 1), (0, 1))
        assert w("yyxY") ** 3 == w("yyxyxyxY")
        assert w("yyxY") ** -2 == w("yXYXYY")

    def test_pow_of_one_run_core_stays_short(self):
        assert (w("yxY") ** 300000000).runs == ((1, 1), (0, 300000000), (1, -1))

    def test_pow_run_limit(self):
        assert len((w("zxyZ", 3) ** 500000).runs) == 1000002  # the core x*y, conjugated
        with pytest.raises(ValueError, match="more than 1000000 runs"):
            w("zxyZ", 3) ** 500001
        with pytest.raises(ValueError, match="more than 1000000 runs"):
            w("xy") ** -500001

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            w("x", 2) * w("x", 3)


def pop_cyclic_reduce(word):
    """The conjugator and core of ``Word.cyclic_reduce``, peeled one pair of
    end runs at a time from a list, the reference for the linear walk."""
    runs = list(word.runs)
    conj = []
    while len(runs) >= 2:
        g1, e1 = runs[0]
        g2, e2 = runs[-1]
        if g1 != g2 or (e1 > 0) == (e2 > 0):
            break
        s = 1 if e1 > 0 else -1
        t = min(abs(e1), abs(e2))
        conj.append((g1, s * t))
        runs[0] = (g1, e1 - s * t)
        runs[-1] = (g2, e2 + s * t)
        if runs[-1][1] == 0:
            runs.pop()
        if runs[0][1] == 0:
            runs.pop(0)
    return tuple(conj), tuple(runs)


class TestCyclicReduce:
    @given(words_st)
    def test_roundtrip(self, word):
        conj, core = word.cyclic_reduce()
        assert conj * core * conj.inverse() == word
        letters = word_letters(core)
        if len(letters) >= 2:
            assert letters[0] != -letters[-1]

    @settings(max_examples=300, deadline=None)
    @given(runs_st, runs_st, st.integers(0, 3))
    def test_matches_pop_loop(self, c, u, tail):
        """Conjugates c*u*c^-1, whose ends cancel in whole runs and then in
        part, and words with a few more runs after them."""
        conj = Word(c, 3)
        word = conj * Word(u, 3) * conj.inverse() * Word(c[:tail], 3)
        got = word.cyclic_reduce()
        assert (got[0].runs, got[1].runs) == pop_cyclic_reduce(word)
        canonical(got[0])
        canonical(got[1])

    def test_long_conjugator(self):
        # 800,005 runs, 400,000 of them in the conjugator: the pop loop took
        # time quadratic in that
        k = 200_000
        word = parse_word(f"(x*y^-1)^{k}*(x^2*y)^3*(y*x^-1)^{k}", ("x", "y"))
        assert len(word.runs) == 4 * k + 5
        conj, core = word.cyclic_reduce()
        assert conj == Word(((0, 1), (1, -1)), 2) ** k
        assert core == Word(((0, 2), (1, 1)), 2) ** 3
        rd = maximal_root(word)
        assert (rd.conjugator, rd.root, rd.exponent) == (conj, Word(((0, 2), (1, 1)), 2), 3)


class TestMaximalRoot:
    def test_single_letter_power(self):
        rd = maximal_root(w("x") ** 6)
        assert rd == RootDecomposition(Word.identity(2), w("x"), 6)

    def test_two_letter_power(self):
        rd = maximal_root(w("xy") ** 4)
        assert rd.conjugator.is_identity
        assert rd.root == w("xy")
        assert rd.exponent == 4

    def test_conjugated_power(self):
        rd = maximal_root(w("yxxY"))
        assert rd == RootDecomposition(w("y"), w("x"), 2)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            maximal_root(Word.identity(2))

    def test_huge_single_generator_power(self):
        # one run: no letter list is built, whatever the exponent
        n = 2**40 * 3
        assert maximal_root(Word.generator(0, 2, -n)) == RootDecomposition(
            Word.identity(2), w("X"), n
        )
        assert maximal_root(w("y") * Word.generator(0, 2, n) * w("Y")) == RootDecomposition(
            w("y"), w("x"), n
        )

    @given(nontrivial_st)
    def test_reassembles_and_root_primitive(self, word):
        rd = maximal_root(word)
        assert rd.reassemble() == word
        assert rd.exponent >= 1
        letters = word_letters(rd.root)
        length = len(letters)
        for d in range(1, length):
            if length % d == 0:
                assert letters != letters[:d] * (length // d)

    @given(nontrivial_st, words_st, st.integers(1, 9))
    def test_exponent_divisible_by_any_constructed_exponent(self, base, g, m):
        # w = g u^m g^-1 forces m to divide the maximal exponent, since the
        # conjugated base lies in the cyclic centralizer of w
        word = (base**m).conjugated_by(g)
        rd = maximal_root(word)
        assert rd.exponent % m == 0


def letter_root(word):
    """Maximal root from the letter list: the smallest period that divides
    the length of the cyclically reduced core."""
    conj, core = word.cyclic_reduce()
    letters = word_letters(core)
    n = len(letters)
    d = next(d for d in range(1, n + 1) if n % d == 0 and letters == letters[:d] * (n // d))
    return RootDecomposition(conj, word_from_letters(letters[:d], word.n_gens), n // d)


class TestRunLengthRoot:
    def test_first_and_last_runs_merge(self):
        # x y x^2 y x is (x y x)^2 read cyclically: its runs x^2, y repeat
        assert maximal_root(w("xyxxyx")) == RootDecomposition(Word.identity(2), w("xyx"), 2)
        assert maximal_root(w("xyx")) == RootDecomposition(Word.identity(2), w("xyx"), 1)

    def test_huge_two_run_core(self):
        n = 300_000_000
        word = Word(((0, n), (1, 1), (0, n), (1, 1)), 2)
        assert maximal_root(word) == RootDecomposition(
            Word.identity(2), Word(((0, n), (1, 1)), 2), 2)

    def test_matches_letters_on_random_words(self):
        rng = random.Random(0x600D)
        for _ in range(20_000):
            n = rng.randint(1, 3)
            base = Word([(rng.randrange(n), rng.choice((-3, -2, -1, 1, 2, 3)))
                         for _ in range(rng.randint(1, 5))], n)
            conj = Word([(rng.randrange(n), rng.choice((-1, 1)))
                         for _ in range(rng.randint(0, 2))], n)
            word = (base ** rng.randint(1, 4)).conjugated_by(conj)
            if not word.is_identity:
                assert maximal_root(word) == letter_root(word), word


def canonical(word):
    """Assert the invariant every Word keeps: no zero exponent, adjacent
    runs on distinct generators, every index in range."""
    for g, e in word.runs:
        assert isinstance(g, int) and 0 <= g < word.n_gens and e != 0, word
    for (g, _), (h, _) in zip(word.runs, word.runs[1:]):
        assert g != h, word
    return word


def inverse_runs(runs):
    return tuple((g, -e) for g, e in reversed(runs))


@st.composite
def word_pairs_st(draw):
    """Two reduced words over 1-3 generators; b often starts with the
    inverse of a's tail, so that a*b cancels, then merges, at the seam."""
    n = draw(st.integers(1, 3))
    runs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(-4, 4)), max_size=8)
    a = Word(draw(runs), n)
    keep = draw(st.integers(0, len(a.runs)))  # a's runs that b does not cancel
    seam = inverse_runs(a.runs[keep:])
    if keep and draw(st.booleans()):  # then merge with, or cancel, the exposed run
        seam += ((a.runs[keep - 1][0], draw(st.sampled_from((-1, 1)))),)
    b = Word(seam + tuple(draw(runs)), n)
    return a, b


def kmp_period(seq):
    """Smallest j dividing len(seq) with seq equal to its rotation by j,
    from the Knuth-Morris-Pratt failure function."""
    n = len(seq)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and seq[i] != seq[k]:
            k = fail[k - 1]
        if seq[i] == seq[k]:
            k += 1
        fail[i] = k
    period = n - fail[-1]
    return period if n % period == 0 else n


class TestTrustedRuns:
    """Products, powers, inverses, cyclic reduction and roots build their
    words from reduced runs without the constructor's checks; the public
    constructor, which reduces everything, is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(word_pairs_st())
    def test_product(self, pair):
        a, b = pair
        assert canonical(a * b) == Word(a.runs + b.runs, a.n_gens)
        assert canonical(b * a) == Word(b.runs + a.runs, a.n_gens)

    @settings(max_examples=300, deadline=None)
    @given(word_pairs_st(), st.integers(-6, 6))
    def test_power(self, pair, k):
        for a in pair:
            runs = a.runs * k if k >= 0 else inverse_runs(a.runs) * -k
            assert canonical(a**k) == Word(runs, a.n_gens)

    @given(word_pairs_st())
    def test_inverse(self, pair):
        a, _ = pair
        assert canonical(a.inverse()) == Word(inverse_runs(a.runs), a.n_gens)
        assert (a * a.inverse()).is_identity

    @settings(max_examples=200, deadline=None)
    @given(word_pairs_st())
    def test_cyclic_reduce(self, pair):
        for a in (pair[0], pair[0] * pair[1], pair[1] * pair[0].inverse()):
            conj, core = a.cyclic_reduce()
            canonical(conj)
            canonical(core)
            assert Word(conj.runs + core.runs + inverse_runs(conj.runs), a.n_gens) == a
            if len(core.runs) >= 2:
                (g, e), (h, f) = core.runs[0], core.runs[-1]
                assert g != h or (e > 0) == (f > 0)

    @settings(max_examples=200, deadline=None)
    @given(word_pairs_st(), st.integers(1, 5))
    def test_maximal_root(self, pair, k):
        for a in (pair[0], pair[0] ** k, (pair[1] ** k).conjugated_by(pair[0])):
            if a.is_identity:
                continue
            rd = maximal_root(a)
            canonical(rd.conjugator)
            canonical(rd.root)
            conj = rd.conjugator.runs
            assert Word(conj + rd.root.runs * rd.exponent + inverse_runs(conj),
                        a.n_gens) == a
            assert rd.reassemble() == a

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 27, 32, 49, 64, 81, 125, 128, 243,
                                   210, 360, 720, 2310, 30030])
    def test_smallest_period_matches_kmp(self, n):
        # prime powers and lengths with many prime factors, each with
        # sequences periodic at every divisor and aperiodic ones
        rng = random.Random(n)
        for trial in range(30):
            alphabet = rng.randint(1, 3)
            d = rng.choice([j for j in range(1, n + 1) if n % j == 0])
            block = tuple((rng.randrange(alphabet), rng.choice((-1, 1))) for _ in range(d))
            seq = block * (n // d)
            if trial % 3 == 0:  # break the period at one place
                i = rng.randrange(n)
                seq = seq[:i] + ((alphabet, 1),) + seq[i + 1:]
            assert _smallest_period(seq) == kmp_period(seq), (n, seq)

    @pytest.mark.parametrize("n", [8, 27, 64, 81, 125, 243, 210, 360, 720, 2310, 30030])
    def test_smallest_period_nested(self, n):
        # once a period d is found, the tests read only seq[:d]: take seq
        # periodic at d with seq[:d] periodic at a divisor s of d, up to
        # one broken place inside seq[:d], in a later copy, or nowhere
        rng = random.Random(n)
        divisors = [j for j in range(1, n + 1) if n % j == 0]
        for trial in range(60):
            d = rng.choice(divisors)
            s = rng.choice([j for j in divisors if d % j == 0])
            small = tuple((rng.randrange(2), rng.choice((-1, 1))) for _ in range(s))
            block = small * (d // s)
            if trial % 3 == 1:  # break the prefix: its period is then d
                i = rng.randrange(d)
                block = block[:i] + ((2, 1),) + block[i + 1:]
            seq = block * (n // d)
            if trial % 3 == 2:  # break a later copy: only n is a period
                i = rng.randrange(n)
                seq = seq[:i] + ((3, 1),) + seq[i + 1:]
            assert _smallest_period(seq) == kmp_period(seq), (n, d, s, seq)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 2)), min_size=1, max_size=40),
           st.integers(1, 12))
    def test_smallest_period_random(self, block, k):
        seq = tuple(block) * k
        for part in (seq, seq[1:]):  # periodic, then usually not
            if part:
                assert _smallest_period(part) == kmp_period(part)


NAMES = ("x", "y", "z")


@st.composite
def factor_texts_st(draw, n, depth=2):
    """A product of factors as text, with its letters written out: a factor
    is a generator, a power of one, or a bracketed product raised to a
    power; often a factor is the inverse of the ones before it, so the
    factors cancel and merge at their seams (x*y*y^-1*x^-1*x^3)."""
    texts, letters = [], []
    for _ in range(draw(st.integers(1, 6))):
        if texts and draw(st.booleans()):
            back = draw(st.integers(1, len(texts)))
            inv = [-lt for lt in reversed(sum(letters[-back:], []))]
            texts.append("(" + "*".join(texts[-back:]) + ")^-1")
            letters.append(inv)
            continue
        e = draw(st.integers(-3, 3))
        if depth and draw(st.integers(0, 3)) == 0:
            text, inner = draw(factor_texts_st(n, depth - 1))
            texts.append(f"({text})^{e}")
        else:
            g = draw(st.integers(0, n - 1))
            text, inner = NAMES[g], [g + 1]
            texts.append(text if e == 1 and draw(st.booleans()) else f"{text}^{e}")
        block = inner if e >= 0 else [-lt for lt in reversed(inner)]
        letters.append(block * abs(e))
    return "*".join(texts), sum(letters, [])


@st.composite
def parse_cases_st(draw):
    n = draw(st.integers(1, 3))
    text, letters = draw(factor_texts_st(n))
    return n, text, letters


class TestParseSeams:
    @settings(max_examples=400, deadline=None)
    @given(parse_cases_st())
    def test_parse_matches_letters(self, case):
        n, text, letters = case
        word = parse_word(text, NAMES[:n])
        assert canonical(word) == word_from_letters(letters, n), text

    def test_examples(self):
        assert parse_word("x*y*y^-1*x^-1*x^3", NAMES[:2]) == Word(((0, 3),), 2)
        # x^-1 cancels, then y^-1, and the two x merge
        assert parse_word("x*y*x^-1*(x*y^-1)^2", NAMES[:2]).runs == ((0, 2), (1, -1))
        assert parse_word("x*x*x^-2*y", NAMES[:2]).runs == ((1, 1),)


class TestNuP:
    def test_examples(self):
        assert nu_p(w("x") ** 6, 2) == Valuation.finite(1)
        assert nu_p(w("xy") ** 4, 2) == Valuation.finite(2)
        assert nu_p(w("xyXY"), 3) == Valuation.finite(0)
        assert nu_p(Word.generator(0, 1, 2**40 * 3), 2) == Valuation.finite(40)
        assert nu_p(Word.generator(0, 1, 2**40 * 3), 3) == Valuation.finite(1)

    def test_identity_is_infinite(self):
        val = nu_p(Word.identity(2), 2)
        assert val.is_infinite
        assert val.weight(2) == 0

    def test_not_prime(self):
        with pytest.raises(ValueError):
            nu_p(w("x"), 4)
        with pytest.raises(ValueError):
            nu_p(w("x"), 1)

    @given(nontrivial_st, st.sampled_from([2, 3]))
    def test_power_increments(self, word, p):
        assert nu_p(word**p, p).k == nu_p(word, p).k + 1

    @given(nontrivial_st, words_st, st.sampled_from([2, 3]))
    def test_conjugation_invariance(self, word, g, p):
        assert nu_p(word.conjugated_by(g), p) == nu_p(word, p)

    def test_brute_force_small(self):
        # every word of length <= 5: compare against trying all candidate
        # roots v with |v| <= 5 and all exponents p^k
        small = _all_words(2, 5)
        candidates = [word_from_letters(v, 2) for v in small if v]
        powers = {}  # (p, k) -> the set of v^(p^k), built on first use
        for letters in small:
            if not letters:
                continue
            word = word_from_letters(letters, 2)
            for p in (2, 3):
                best = 0
                k = 1
                while True:
                    if (p, k) not in powers:
                        powers[p, k] = {v ** (p**k) for v in candidates}
                    if word in powers[p, k]:
                        best = k
                        k += 1
                    else:
                        break
                assert nu_p(word, p).k == best


def _all_words(n_gens, max_len):
    alphabet = [lt for g in range(1, n_gens + 1) for lt in (g, -g)]
    words = [[]]
    frontier = [[]]
    for _ in range(max_len):
        new = []
        for word in frontier:
            last = word[-1] if word else 0
            for lt in alphabet:
                if lt != -last:
                    new.append(word + [lt])
        words.extend(new)
        frontier = new
    return words


def _oracle_shortest_p_prime_root(word, p):
    """All n-th roots found by literal extraction on the cyclic core; keep
    the shortest with p not dividing n."""
    conj, core = word.cyclic_reduce()
    letters = word_letters(core)
    length = len(letters)
    best = None
    for n in range(1, length + 1):
        if n % p == 0 or length % n:
            continue
        d = length // n
        if letters == letters[:d] * n:
            v = conj * word_from_letters(letters[:d], word.n_gens) * conj.inverse()
            if best is None or len(v) < len(best[0]):
                best = (v, n)
    return best


class TestPPrimeRoot:
    def test_examples(self):
        assert p_prime_root(w("x") ** 6, 2) == (w("xx"), 3)
        assert p_prime_root(w("x") ** 4, 2) == (w("x") ** 4, 1)
        assert p_prime_root(w("xy") ** 9, 2) == (w("xy"), 9)
        assert p_prime_root(w("xy") ** 9, 3) == (w("xy") ** 9, 1)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            p_prime_root(Word.identity(2), 2)

    @given(nontrivial_st, st.sampled_from([2, 3]))
    def test_contract(self, word, p):
        root, n = p_prime_root(word, p)
        assert n % p != 0
        assert root**n == word

    def test_minimal_length_up_to_10(self):
        import random

        rng = random.Random(7)
        pool = _all_words(2, 4)
        for _ in range(300):
            base = word_from_letters(rng.choice(pool[1:]), 2)
            word = base ** rng.randint(1, 5)
            if word.is_identity or len(word) > 10:
                continue
            for p in (2, 3):
                root, n = p_prime_root(word, p)
                expect = _oracle_shortest_p_prime_root(word, p)
                assert expect is not None
                assert len(root) == len(expect[0])
                assert n == expect[1]


class TestNuPInt:
    def test_examples(self):
        assert nu_p_int(12, 2) == 2
        assert nu_p_int(12, 3) == 1
        assert nu_p_int(7, 5) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            nu_p_int(0, 2)

    def test_negative(self):
        assert nu_p_int(-8, 2) == 3

    def test_is_prime(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestIsPrime:
    def test_matches_trial_division(self):
        for n in range(10**5):
            by_division = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert is_prime(n) == by_division, n

    @pytest.mark.parametrize("n", [
        2047,  # strong pseudoprime to base 2
        3215031751,  # to bases 2, 3, 5, 7
        3825123056546413051,  # to bases 2, ..., 23
        318665857834031151167461,  # to bases 2, ..., 37
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**31 - 1, 2**61 - 1, 10**14 + 31])
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_not_an_int(self):
        assert not any(is_prime(x) for x in (True, 2.0, "2", None, -7))

    def test_limit(self):
        assert not is_prime(PRIME_LIMIT - 1)  # even
        for n in (PRIME_LIMIT, PRIME_LIMIT + 1, 10**30):
            with pytest.raises(ValueError, match="exact only below"):
                is_prime(n)


RECORDS = (
    words.Valuation, words.RootDecomposition, abelian.AbelianInvariants,
    fuchsian.DeficiencyResult, fuchsian.EllipticAction, invariants.RelatorRoot,
    invariants.RelatorContribution, invariants.SizeBound, invariants.KernelSample,
    invariants.KernelWindow, invariants.PowerWitness, rewrite.SchreierData,
    verification.CheckOutcome, verification.SupermultReport, verification.DpDropReport,
)


def _made(cls):
    """A record built from its field positions, with those as its tuple."""
    values = tuple(range(len(cls._fields)))
    return cls._make(values), values


def _kernel_records():
    """The records that ``chi`` and ``gradient`` return, each paired with
    the tuple it must be: the whole group's sample is computed here
    independently of the search, and a window is its samples and its
    exhaustion flag."""
    pres = parse_presentation("< x, y | x^2, y^3 >")
    chi = invariants.chi_p_estimate(pres, 2, budget=SearchBudget(max_order=6))
    gradient = invariants.gradient_window(pres, 2, budget=SearchBudget(max_order=6))
    de = p_deficiency(pres, 2)
    dp = abelian.d_p(abelian.abelian_invariants(pres), 2)
    return {
        "ChiSample": (chi.samples[0], (1, de, de, "index 1")),
        "ChiEstimate": (chi, (chi.samples, False)),
        "GradientSample": (gradient.samples[0], (1, dp, Fraction(dp), "index 1")),
        "GradientWindow": (gradient, (gradient.samples, False)),
    }


# every record class built from its field positions, then the kernel
# samples and windows as the chi and gradient searches build them
FROZEN = [pytest.param(lambda cls=cls: _made(cls), id=cls.__name__) for cls in RECORDS] + [
    pytest.param(lambda role=role: _kernel_records()[role], id=role)
    for role in ("ChiSample", "ChiEstimate", "GradientSample", "GradientWindow")
]


class TestRecords:
    @pytest.mark.parametrize("make", FROZEN)
    def test_frozen(self, make):
        rec, values = make()
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, -1)
        with pytest.raises(AttributeError):
            rec.extra = -1
        assert tuple(rec) == values

    def test_body_and_tuple_semantics(self):
        # a record keeps its class body's methods, properties and
        # classmethods, and is the tuple of its fields: it compares equal to
        # one, has a length and iterates; a field named index shadows
        # tuple.index
        v = Valuation.finite(3)
        assert v == Valuation(k=3) == (3,) and repr(v) == "Valuation(k=3)"
        assert not v.is_infinite and v.weight(2) == Fraction(1, 8)
        assert len(Valuation.infinite()) == 1 and Valuation.infinite().weight(2) == 0
        sample = invariants.KernelSample(4, 2, Fraction(1, 2), "C4")
        assert list(sample) == [4, 2, Fraction(1, 2), "C4"]
        assert sample.index == 4
