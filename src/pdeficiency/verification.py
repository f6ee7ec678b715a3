"""Built-in verification suite: named checks with exact expected values.

Every check is deterministic (fixed seeds, fixed budgets) and uses exact
rational arithmetic; randomized checks state their instance counts in the
summary.  The CLI ``verify`` command and the acceptance tests both run
these.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .abelian import (
    AbelianInvariants,
    IntMatrix,
    abelian_invariants,
    abelian_p_deficiency_group,
    abelian_p_deficiency_presentation,
    d_p,
    smith_normal_form,
    upper_bound_de,
)
from .fuchsian import (
    FuchsianSignature,
    classify,
    de_exact,
    de_standard,
    kernel_construction,
    standard_presentation,
    volume,
)
from .invariants import (
    chi_p_estimate,
    class_cosets,
    find_power_witness,
    kernel_d_p,
    kernel_deficiency,
    quotient_dp_drop,
    relator_root,
    relator_roots,
    transfer_terms,
)
from .presentation import FinitePresentation, p_deficiency, parse_presentation
from .quotient import (
    FiniteQuotient,
    SearchBudget,
    default_catalog,
    enumerate_quotients,
    kernel_index,
    perm_identity,
    perm_inv,
    perm_mul,
    perm_order,
)
from .rewrite import (
    SchreierData,
    p_size_bound,
    rewrite_word,
    schreier,
    subgroup_presentation,
    supermultiplicity_check,
)
from .words import Word, maximal_root, nu_p, nu_p_int, p_prime_root


class CheckFailure(AssertionError):
    pass


def _ensure(cond, message: str):
    if not cond:
        raise CheckFailure(message)


def _rat(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    summary: str
    details: dict


# -- shared generators -------------------------------------------------------


def _random_reduced_letters(rng, n_gens: int, length: int) -> list:
    letters = []
    for _ in range(length):
        while True:
            g = rng.randrange(1, n_gens + 1)
            lt = g if rng.random() < 0.5 else -g
            if not letters or letters[-1] != -lt:
                letters.append(lt)
                break
    return letters


def _random_word(rng, n_gens: int, length: int) -> Word:
    return Word.from_letters(_random_reduced_letters(rng, n_gens, length), n_gens)


def _random_presentation(rng, max_gens=3, max_relators=4, max_len=12,
                         min_relators=1) -> FinitePresentation:
    n = rng.randint(1, max_gens)
    k = rng.randint(min_relators, max_relators)
    names = ("x", "y", "z")[:n]
    relators = [_random_word(rng, n, rng.randint(1, max_len)) for _ in range(k)]
    return FinitePresentation(names, relators)


def _all_reduced_letter_words(n_gens: int, max_len: int) -> list:
    alphabet = [lt for g in range(1, n_gens + 1) for lt in (g, -g)]
    words = [[]]
    frontier = [[]]
    for _ in range(max_len):
        new = []
        for w in frontier:
            last = w[-1] if w else 0
            for lt in alphabet:
                if lt != -last:
                    new.append(w + [lt])
        words.extend(new)
        frontier = new
    return words


# -- independent oracles -----------------------------------------------------


def perm_pow(a: tuple, e: int) -> tuple:
    if e < 0:
        a, e = perm_inv(a), -e
    result = perm_identity(len(a))
    base = a
    while e:
        if e & 1:
            result = perm_mul(result, base)
        base = perm_mul(base, base)
        e >>= 1
    return result


def evaluate(q: FiniteQuotient, w: Word) -> tuple:
    """Image of a word under the quotient homomorphism, by permutation
    products: the oracle for ``FiniteQuotient.walk``."""
    if w.n_gens != q.n_gens:
        raise ValueError(
            f"alphabet mismatch: word has {w.n_gens} generators, quotient {q.n_gens}"
        )
    result = perm_identity(q.degree)
    for g, e in w.runs:
        result = perm_mul(result, perm_pow(q.images[g], e))
    return result


def is_quotient_of(q: FiniteQuotient, pres: FinitePresentation) -> bool:
    """True iff every relator evaluates to the identity permutation: the
    oracle for ``quotient.kernel_index``."""
    if pres.n_gens != q.n_gens:
        raise ValueError(
            f"alphabet mismatch: presentation has {pres.n_gens} generators, "
            f"quotient {q.n_gens}"
        )
    identity = perm_identity(q.degree)
    return all(evaluate(q, r) == identity for r in pres.relators)


def order_of_image(q: FiniteQuotient, w: Word) -> int:
    return perm_order(evaluate(q, w))


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
    """Words t*g*t^-1, one per kernel-conjugacy class of the conjugates of
    g: t runs over the transversal words of ``class_cosets``.  ``sd``, when
    given, must be ``schreier(q)``.  Raises ``ValueError`` unless g lies in
    the kernel.
    """
    if g.is_identity:
        raise ValueError("no conjugate classes of the identity")
    if sd is None:
        sd = schreier(q)
    if g.n_gens != q.n_gens:
        raise ValueError(
            f"alphabet mismatch: word has {g.n_gens} generators, table {q.n_gens}")
    firsts = class_cosets(q, relator_root(maximal_root(g)))
    return [g.conjugated_by(sd.transversal[c]) for c in firsts]


def _oracle_nu(letters, p: int) -> int:
    """Valuation by repeated literal p-th root extraction on the cyclic core."""
    core = list(letters)
    while len(core) >= 2 and core[0] == -core[-1]:
        core = core[1:-1]
    k = 0
    while core:
        length = len(core)
        if length % p:
            break
        d = length // p
        if core == core[:d] * p:
            core = core[:d]
            k += 1
        else:
            break
    return k


def _oracle_kernel_conjugate(q: FiniteQuotient, a: Word, b: Word) -> bool:
    """Conjugacy inside the kernel, decided from first principles: align the
    cyclic words over all rotations, then test one conjugator against the
    image of the centralizer generator."""
    ga, ca = a.cyclic_reduce()
    gb, cb = b.cyclic_reduce()
    la, lb = ca.letters(), cb.letters()
    if len(la) != len(lb):
        return False
    length = len(la)
    d0 = next(
        d for d in range(1, length + 1)
        if length % d == 0 and la == la[:d] * (length // d)
    )
    root = ga * Word.from_letters(la[:d0], a.n_gens) * ga.inverse()
    u = evaluate(q, root)
    identity = perm_identity(q.degree)
    cyclic = {identity}
    power = u
    while power != identity:
        cyclic.add(power)
        power = perm_mul(power, u)
    for j in range(length):
        if la[j:] + la[:j] == lb:
            prefix = Word.from_letters(la[:j], a.n_gens)
            h0 = gb * prefix.inverse() * ga.inverse()
            return evaluate(q, h0) in cyclic
    return False


def _oracle_class_count(q: FiniteQuotient, conjugates) -> int:
    reps = []
    for w in conjugates:
        if not any(_oracle_kernel_conjugate(q, w, r) for r in reps):
            reps.append(w)
    return len(reps)


def brute_force_quotients(pres, catalog, max_order, budget):
    """The quotient search without tables or pruning: every assignment in
    ``itertools.product`` order, each built as a ``FiniteQuotient``, tested
    with ``is_quotient_of`` and deduplicated by ``kernel_key``.  The oracle
    for ``enumerate_quotients``."""
    seen = set()
    for grp in catalog.groups:
        if grp.order > max_order:
            continue
        elements = FiniteQuotient(grp.gens).elements
        for assignment in itertools.product(elements, repeat=pres.n_gens):
            if not budget.spend():
                return
            q = FiniteQuotient(assignment)
            if not is_quotient_of(q, pres):
                continue
            key = q.kernel_key()
            if key in seen:
                continue
            seen.add(key)
            yield q


def search_agrees(pres, catalog, max_order, max_assignments) -> int:
    """Run ``enumerate_quotients`` and the brute force with equal budgets;
    raise ``CheckFailure`` unless they yield the same images, element
    lists and regular tables and leave the budgets equal.  Returns the
    assignments used."""
    runs = []
    for search in (enumerate_quotients, brute_force_quotients):
        budget = SearchBudget(max_order, max_assignments)
        found = [(q.images, q.elements, q.tables)
                 for q in search(pres, catalog, max_order, budget)]
        runs.append((found, budget.assignments_used, budget.exhausted))
    (fast, used, exhausted), (slow, used_bf, exhausted_bf) = runs
    _ensure(fast == slow,
            f"{pres.to_text()}, budget {max_assignments}: {len(fast)} quotients "
            f"from the search, {len(slow)} from the brute force, or they differ")
    _ensure((used, exhausted) == (used_bf, exhausted_bf),
            f"{pres.to_text()}, budget {max_assignments}: search used {used} "
            f"(exhausted {exhausted}), brute force {used_bf} (exhausted {exhausted_bf})")
    return used


def det(mat: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    a = [list(row) for row in mat.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def exponent_matrix(pres: FinitePresentation) -> IntMatrix:
    """The |X| x |R| matrix whose column j is the exponent-sum vector of
    relator j, summed straight from the runs."""
    data = [[0] * len(pres.relators) for _ in range(pres.n_gens)]
    for j, r in enumerate(pres.relators):
        for g, e in r.runs:
            data[g][j] += e
    return IntMatrix(data, cols=len(pres.relators))


def dense_abelian_invariants(pres: FinitePresentation) -> AbelianInvariants:
    """Abelian invariants from the Smith normal form of the whole exponent
    matrix, with no unit pivots first: the oracle for
    ``abelian_invariants``."""
    nonzero = [d for d in smith_normal_form(exponent_matrix(pres)) if d]
    return AbelianInvariants(pres.n_gens - len(nonzero), tuple(d for d in nonzero if d > 1))


def _gcd_of_minors(mat: IntMatrix, k: int) -> int:
    g = 0
    for rows in combinations(range(mat.rows), k):
        for cols in combinations(range(mat.cols), k):
            sub = IntMatrix([[mat.at(i, j) for j in cols] for i in rows])
            g = math.gcd(g, abs(det(sub)))
    return g


def _scramble_rows(rng, rows: list, ops: int) -> None:
    """Random elementary row operations in place: add a multiple of another
    row, swap two rows, negate a row."""
    for _ in range(ops):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        kind = rng.random()
        if kind < 0.8 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind < 0.9:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]


def _scrambled_chain(rng, chain, m: int, n: int) -> IntMatrix:
    """An m x n matrix whose Smith normal form is diag(chain), padded with
    zeros: the diagonal matrix under 2(m + n) random row operations, then
    as many column operations."""
    rows = [[0] * n for _ in range(m)]
    for i, d in enumerate(chain):
        rows[i][i] = d
    _scramble_rows(rng, rows, 2 * (m + n))
    cols = [list(col) for col in zip(*rows)]
    _scramble_rows(rng, cols, 2 * (m + n))
    return IntMatrix(zip(*cols))


def _matrix_presentation(mat: IntMatrix) -> FinitePresentation:
    """One generator per row and one relator per nonzero column, the
    product of g_i^a_ij over the rows: its exponent matrix is ``mat``
    without the zero columns."""
    relators = []
    for j in range(mat.cols):
        runs = [(i, mat.at(i, j)) for i in range(mat.rows) if mat.at(i, j)]
        if runs:
            relators.append(Word(runs, mat.rows))
    return FinitePresentation([f"g{i}" for i in range(mat.rows)], relators)


def _random_sparse_presentation(rng) -> FinitePresentation:
    """Up to 20 generators and 20 short relators, mostly with +-1
    exponents, so that eliminating one generator fills in others; some
    relators repeat an earlier one or are commutators."""
    n = rng.randint(1, 20)
    relators = []
    for _ in range(rng.randint(0, 20)):
        kind = rng.random()
        if relators and kind < 0.1:
            relators.append(rng.choice(relators))
        elif n > 1 and kind < 0.2:
            a, b = rng.sample(range(n), 2)
            relators.append(Word(((a, 1), (b, 1), (a, -1), (b, -1)), n))
        else:
            runs = [(rng.randrange(n), rng.choice((1, -1, 1, -1, 2, -3)))
                    for _ in range(rng.randint(1, 4))]
            word = Word(runs, n)
            if not word.is_identity:
                relators.append(word)
    return FinitePresentation([f"g{i}" for i in range(n)], relators)


# -- the criteria ------------------------------------------------------------


def check_intro_examples():
    """Zero 2-deficiency examples, with the abelianization squeeze where it
    applies."""
    dinf = parse_presentation("< x, y | x^2, y^2 >")
    de_dinf = p_deficiency(dinf, 2)
    ub_dinf = upper_bound_de(dinf, 2)
    _ensure(de_dinf == 0, f"de_2 of the infinite dihedral presentation is {de_dinf}")
    _ensure(ub_dinf == 0, f"abelian upper bound for it is {ub_dinf}")

    p244 = parse_presentation("< x, y, z | x^2 = y^4 = z^4 = x*y*z = 1 >")
    de_244 = p_deficiency(p244, 2)
    ab_pres = abelian_p_deficiency_presentation(p244, 2)
    ub_244 = upper_bound_de(p244, 2)
    _ensure(de_244 == 0, f"de_2 of the (2,4,4) presentation is {de_244}")
    _ensure(ab_pres == 0, f"abelian presentation-level value is {ab_pres}")
    # The abelianization here is C_2 + C_4, so the group-level bound is 1/4;
    # the squeeze pins the group value only for the dihedral example.
    _ensure(ub_244 == Fraction(1, 4), f"abelian group bound is {ub_244}")
    _ensure(abelian_invariants(p244) == AbelianInvariants(0, (2, 4)),
            "unexpected abelian invariants")
    return (
        "dihedral: de_2 = 0 squeezed exactly; (2,4,4): de_2 = 0, group value in [0, 1/4]",
        {
            "dihedral_de": _rat(de_dinf),
            "dihedral_upper": _rat(ub_dinf),
            "244_de": _rat(de_244),
            "244_upper": _rat(ub_244),
        },
    )


def check_free_products():
    """Free products of cyclic groups: presentation value meets the
    abelianized group value, 200 random tuples."""
    rng = random.Random(0x5EED01)
    trials = 200
    for _ in range(trials):
        s = rng.randint(0, 4)
        r = rng.randint(0, 3)
        if s + r == 0:
            s = 1
        orders = [rng.randint(1, 36) for _ in range(s)]
        p = rng.choice((2, 3, 5))
        names = [f"x{i}" for i in range(s)] + [f"y{i}" for i in range(r)]
        relators = [
            Word.generator(i, s + r, e) for i, e in enumerate(orders)
        ]
        pres = FinitePresentation(names, relators)
        lower = p_deficiency(pres, p)
        group_value = abelian_p_deficiency_group(
            AbelianInvariants.from_cyclic_factors(orders, r), p
        )
        upper = upper_bound_de(pres, p)
        _ensure(
            lower == group_value == upper,
            f"mismatch for factors {orders}, rank {r}, p={p}: "
            f"{lower} / {group_value} / {upper}",
        )
    return (f"{trials} random cyclic free products: lower bound = group value = upper bound",
            {"trials": trials})


def check_supermult():
    """Subgroup deficiency is at least index times the original, over random
    presentations and catalog quotients."""
    rng = random.Random(0x5EED02)
    catalog = default_catalog().up_to(12)
    instances = 0
    presentations = 0
    target = 100
    while instances < target and presentations < 600:
        presentations += 1
        pres = _random_presentation(rng)
        p = rng.choice((2, 3, 5))
        budget = SearchBudget(max_order=12, max_assignments=1500)
        found = 0
        for q in enumerate_quotients(pres, catalog, 12, budget):
            if q.order == 1:
                continue
            report = supermultiplicity_check(pres, q, p)
            _ensure(
                report.holds,
                f"supermultiplicity failed for {pres.to_text()} at p={p}, "
                f"index {report.index}: {report.de_sub} < {report.scaled}",
            )
            instances += 1
            found += 1
            if found >= 2 or instances >= target:
                break
    _ensure(instances >= target, f"only {instances} instances found")
    return (f"{instances} random (presentation, quotient) instances hold exactly",
            {"instances": instances, "presentations_drawn": presentations})


def check_conjugacy():
    """Conjugate-class splitting: class count d/k against a rotation-based
    conjugacy oracle, and the valuation transfer inequality, exactly."""
    rng = random.Random(0x5EED03)
    free2 = FinitePresentation(("x", "y"), ())
    catalog = default_catalog().up_to(6)
    quotients = [
        q for q in enumerate_quotients(free2, catalog, 6, SearchBudget(6, 10_000))
        if q.order > 1
    ][:12]
    _ensure(len(quotients) >= 6, "too few small quotients found")
    instances = 0
    for q in quotients:
        identity = perm_identity(q.degree)
        sd = schreier(q)
        d = q.order
        words = []
        attempts = 0
        while len(words) < 5 and attempts < 400:
            attempts += 1
            base = _random_word(rng, 2, rng.randint(1, 4))
            if rng.random() < 0.5:
                w = base ** rng.randint(1, 4)
            else:
                w = base ** perm_order(evaluate(q, base))
            if w.is_identity or len(w) > 8:
                continue
            if evaluate(q, w) != identity:
                continue
            words.append(w)
        for r in words:
            instances += 1
            k = centralizer_index(q, r)
            reps = conjugate_class_reps(q, r, sd)
            _ensure(len(reps) == d // k,
                    f"class count {len(reps)} != {d}/{k} for {r!r}")
            conjugates = [r.conjugated_by(t) for t in sd.transversal]
            oracle = _oracle_class_count(q, conjugates)
            _ensure(oracle == d // k,
                    f"oracle count {oracle} != {d // k} for {r!r}")
            root_exponent = maximal_root(r).exponent
            for p in (2, 3):
                lower = nu_p_int(root_exponent, p) - nu_p_int(k, p)
                for rep in reps:
                    val = nu_p(rewrite_word(sd, rep), p).k
                    _ensure(
                        val >= lower,
                        f"valuation transfer failed: {val} < {lower} for {rep!r} at p={p}",
                    )
    _ensure(instances >= 30, f"only {instances} instances exercised")
    return (f"{instances} kernel elements across {len(quotients)} quotients: "
            "class counts and valuation transfer match",
            {"instances": instances, "quotients": len(quotients)})


def check_snf():
    """Smith normal form diagonals against two independent oracles: the
    gcd-of-minors characterization on 500 random matrices up to 4x4, and
    known divisor chains scrambled into matrices up to 60x60, which
    exercise pivot order and entry growth.  Then the unit-pivot
    ``abelian_invariants`` against the dense diagonal of the exponent
    matrix: on those chains written as presentations, and on random sparse
    presentations with many +-1 entries, where elimination fills in."""
    rng = random.Random(0x5EED05)
    trials = 500
    for _ in range(trials):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        diag = smith_normal_form(mat)
        for i in range(len(diag) - 1):
            _ensure(diag[i] >= 0, "negative diagonal entry")
            if diag[i]:
                _ensure(diag[i + 1] % diag[i] == 0, f"chain broken in {diag}")
            else:
                _ensure(diag[i + 1] == 0, f"zero before nonzero in {diag}")
        prod = 1
        for k in range(1, len(diag) + 1):
            prod *= diag[k - 1]
            _ensure(
                prod == _gcd_of_minors(mat, k),
                f"d_1..d_{k} = {prod} != gcd of {k}x{k} minors for {mat!r}",
            )
    scrambled = 30
    for i in range(scrambled):
        m, n = (60, 60) if i == 0 else (rng.randint(1, 60), rng.randint(1, 60))
        chain = []
        d = 1
        for _ in range(rng.randint(0, min(m, n))):
            d *= rng.choice((1, 1, 1, 2, 3, 5))
            chain.append(d)
        want = tuple(chain) + (0,) * (min(m, n) - len(chain))
        mat = _scrambled_chain(rng, chain, m, n)
        diag = smith_normal_form(mat)
        _ensure(diag == want, f"{m}x{n} matrix scrambled from {want} gave {diag}")
        pres = _matrix_presentation(mat)
        _ensure(abelian_invariants(pres) == dense_abelian_invariants(pres),
                f"sparse invariants of {m}x{n} matrix scrambled from {want}")
    sparse = 200
    for _ in range(sparse):
        pres = _random_sparse_presentation(rng)
        got, want = abelian_invariants(pres), dense_abelian_invariants(pres)
        _ensure(got == want, f"{pres.to_text()}: sparse {got}, dense {want}")
    return (f"{trials} random matrices up to 4x4 against the gcd of minors, "
            f"{scrambled} scrambled divisor chains up to 60x60; sparse abelian "
            f"invariants equal the dense diagonal on those chains and on {sparse} "
            f"random sparse presentations",
            {"scrambled": scrambled, "sparse": sparse, "trials": trials})


def check_valuation():
    """The p-valuation of each word's maximal-root exponent, with the root
    found once for both primes, against exhaustive root extraction for
    every reduced word of length at most 10 over two generators, p in
    {2, 3}."""
    words = _all_reduced_letter_words(2, 10)
    _ensure(nu_p(Word.identity(2), 2).is_infinite, "identity valuation not infinite")
    checked = 0
    for letters in words:
        if not letters:
            continue
        exponent = maximal_root(Word.from_letters(letters, 2)).exponent
        for p in (2, 3):
            got = nu_p_int(exponent, p)
            want = _oracle_nu(letters, p)
            _ensure(got == want, f"nu_{p} mismatch on {letters}: {got} != {want}")
        checked += 1
    return (f"{checked} words of length <= 10, p in {{2, 3}}: valuations match the oracle",
            {"words": checked})


def check_triangle():
    """The (0; 6,12,12) signature has exact deficiency 0 at p = 2 (case d)
    and p = 3 (case b)."""
    sig = FuchsianSignature(0, (6, 12, 12))
    for p, case in ((2, "d"), (3, "b")):
        _ensure(classify(sig, p) == case, f"classify p={p} gave {classify(sig, p)}")
        result = de_exact(sig, p)
        _ensure(not result.negative and result.value == 0,
                f"de_exact p={p} gave {result}")
        _ensure(de_standard(sig, p) == 0, f"standard value p={p} nonzero")
    return ("(0; 6,12,12): exact deficiency 0 at p=2 (case d) and p=3 (case b)",
            {"volume": _rat(volume(sig))})


def check_singerman():
    """Kernel constructions match the transferred signatures and scale volume
    and deficiency exactly by the index."""
    sig_a = FuchsianSignature(1, (2, 3))
    act_a, new_a = kernel_construction(sig_a, 2, "a")
    _ensure(new_a == FuchsianSignature(1, (2, 2, 2, 2, 3, 3, 3, 3)),
            f"case a transfer gave {new_a}")
    _ensure(new_a.genus == 4 * sig_a.genus - 3, "genus is not 4s-3")
    _ensure(volume(new_a) == 4 * volume(sig_a), "volume does not scale by 4")
    for p in (2, 3):
        _ensure(de_standard(new_a, p) == 4 * de_standard(sig_a, p),
                f"deficiency does not scale by 4 at p={p}")

    sig_d = FuchsianSignature(0, (4, 4, 4))
    act_d, new_d = kernel_construction(sig_d, 2, "d")
    _ensure(new_d == FuchsianSignature(0, (2, 2, 4, 4)),
            f"case d transfer gave {new_d}")
    _ensure(volume(new_d) == 2 * volume(sig_d), "volume does not scale by 2")
    _ensure(de_standard(sig_d, 2) == Fraction(1, 4), "base value is not 1/4")
    _ensure(de_standard(new_d, 2) == Fraction(1, 2), "transferred value is not 1/2")

    # the actions are regular, so each kernel is the transferred subgroup
    for sig, act, new in ((sig_a, act_a, new_a), (sig_d, act_d, new_d)):
        kernel = subgroup_presentation(standard_presentation(sig),
                                       FiniteQuotient(act.all_perms()))
        got = abelian_invariants(kernel)
        want = abelian_invariants(standard_presentation(new))
        _ensure(got == want, f"kernel of {sig} abelianizes to {got}, {new} to {want}")
    return ("case a on (1; 2,3) gives (1; 2^4,3^4) at index 4; "
            "case d on (0; 4,4,4) gives (0; 2,2,4,4) at index 2; "
            "both kernel presentations have the abelian invariants of the transferred signature",
            {"index_a": act_a.degree, "index_d": act_d.degree})


def check_virtually_positive():
    """The generalized triangle presentation < x,y | x^2, y^5, (xy)^5 > has
    de_2 = -3/2 yet an index-5 kernel of exactly positive 2-deficiency."""
    pres = parse_presentation("< x, y | x^2, y^5, (x*y)^5 >")
    de_orig = p_deficiency(pres, 2)
    _ensure(de_orig == Fraction(-3, 2), f"de_2 is {de_orig}")
    ub = upper_bound_de(pres, 2)
    _ensure(ub == -1, f"abelian upper bound is {ub}")

    shift = tuple((i + 1) % 5 for i in range(5))
    q = FiniteQuotient((perm_identity(5), shift))
    _ensure(kernel_index(q, pres) == 5, "kernel index is not 5")
    bound = p_size_bound(pres, q, 2)
    _ensure(bound.value == Fraction(9, 2), f"transfer bound is {bound.value}")
    _ensure(bound.value < 5, "transfer bound not below the index")
    sub = subgroup_presentation(pres, q)
    _ensure(sub.n_gens == 6, f"subgroup rank is {sub.n_gens}")
    de_sub = p_deficiency(sub, 2)
    _ensure(de_sub >= Fraction(1, 2), f"subgroup de_2 = {de_sub} < 1/2")
    _ensure(de_sub > 0, "subgroup deficiency not positive")
    return (f"de_2 = -3/2, bound 9/2 < 5, subgroup de_2 = {_rat(de_sub)} > 0",
            {"de_orig": _rat(de_orig), "upper": _rat(ub),
             "bound": _rat(bound.value), "de_sub": _rat(de_sub)})


def check_chi():
    """Euler-characteristic estimates: free group of rank 2 gives ratio 1
    everywhere; the genus-2 surface group stays at its volume 2;
    multiplicativity across an index-2 kernel."""
    free2 = FinitePresentation(("x", "y"), ())
    est2 = chi_p_estimate(free2, 2, default_catalog().up_to(6),
                          SearchBudget(max_order=6, max_assignments=10_000))
    _ensure(all(s.ratio == 1 for s in est2.samples),
            "a free-group ratio differs from 1")
    _ensure(est2.best_ratio == 1, f"best ratio {est2.best_ratio} != 1")

    surface = standard_presentation(FuchsianSignature(2))
    est_s = chi_p_estimate(surface, 2, default_catalog().up_to(4),
                           SearchBudget(max_order=4, max_assignments=10_000))
    _ensure(est_s.samples[0].ratio == 2, "index-1 ratio is not 2")
    _ensure(all(s.ratio <= 2 for s in est_s.samples), "a surface ratio exceeds 2")
    _ensure(est_s.best_ratio == 2, f"best surface ratio {est_s.best_ratio} != 2")

    q2 = FiniteQuotient(((1, 0), (0, 1)))
    free3 = subgroup_presentation(free2, q2)
    _ensure(free3.n_gens == 3 and not free3.relators, "index-2 kernel is not free of rank 3")
    est3 = chi_p_estimate(free3, 2, default_catalog().up_to(6),
                          SearchBudget(max_order=6, max_assignments=10_000))
    _ensure(est3.best_ratio == 2 * est2.best_ratio, "multiplicativity failed")
    return (f"free rank 2: all {est2.subgroups_examined} ratios = 1; genus 2: "
            f"{est_s.subgroups_examined} ratios <= 2 with equality at index 1; "
            "index-2 kernel doubles the estimate",
            {"free_samples": est2.subgroups_examined,
             "surface_samples": est_s.subgroups_examined})


def check_power_witness():
    """< x,y | x^6, y^12, (xy)^12 > at p = 2: zero deficiency, and the order-3
    cyclic quotient x -> 1, y -> 0 certifies a positive-deficiency kernel."""
    pres = parse_presentation("< x, y | x^6, y^12, (x*y)^12 >")
    _ensure(p_deficiency(pres, 2) == 0, "presentation deficiency is not 0")
    shift = (1, 2, 0)
    q = FiniteQuotient((shift, perm_identity(3)))
    _ensure(kernel_index(q, pres) == 3, "kernel index is not 3")
    root, n = p_prime_root(pres.relators[0], 2)
    _ensure(root == pres.word("x^2") and n == 3, f"root decomposition gave {root}, {n}")
    _ensure(evaluate(q, root) != perm_identity(3), "root image is trivial")
    sub = subgroup_presentation(pres, q)
    de_sub = p_deficiency(sub, 2)
    _ensure(de_sub > 0, f"kernel deficiency {de_sub} not positive")

    witness = find_power_witness(pres, 2, default_catalog().up_to(12),
                                  SearchBudget(max_order=12, max_assignments=50_000))
    _ensure(witness is not None, "witness search found nothing")
    _ensure(witness.subgroup_deficiency > 0, "witness kernel not positive")
    return (f"explicit C_3 kernel has de_2 = {_rat(de_sub)} > 0; search found a witness "
            f"with exponent {witness.exponent}",
            {"de_sub": _rat(de_sub), "witness_exponent": witness.exponent,
             "witness_index": witness.index})


def check_dp_drop():
    """d_p(quotient) >= d_p - ell on 200 random (presentation, generator-set)
    instances, exact integers."""
    rng = random.Random(0x5EED0C)
    trials = 200
    for _ in range(trials):
        pres = _random_presentation(rng, max_gens=3, max_relators=3, max_len=8,
                                    min_relators=0)
        p = rng.choice((2, 3, 5))
        gens = []
        for _ in range(rng.randint(1, 3)):
            w = _random_word(rng, pres.n_gens, rng.randint(1, 6))
            if rng.random() < 0.3:
                w = w**p
            gens.append(w)
        report = quotient_dp_drop(pres, gens, p)
        _ensure(
            report.holds,
            f"dp drop failed for {pres.to_text()}, p={p}: "
            f"{report.d_after} < {report.d_before} - {report.ell}",
        )
    return (f"{trials} random instances: d_p drops by at most ell", {"trials": trials})


def check_search():
    """The table search yields the same quotients, in the same order, and
    leaves the budget as the brute-force search does: on random
    presentations with and without relators, at the full and at a random
    budget, and at every budget of one small case.  Presentations on one
    or two generators search up to order 12, so that the automorphism cuts
    of D4, C3xC3, D5 and A4 (up to 48 automorphisms) meet the oracle too."""
    rng = random.Random(0x5EED0D)
    catalog = default_catalog()
    presentations = 30
    wide = 0
    for i in range(presentations):
        pres = _random_presentation(rng, max_relators=3, max_len=8, min_relators=0)
        if i % 3 == 0:
            # a relator on the first generator alone prunes at the top level
            power = Word.generator(0, pres.n_gens, rng.choice((-4, -2, 2, 3, 6)))
            pres = pres.with_relators(pres.relators + (power,))
        max_order = 12 if pres.n_gens <= 2 else 6
        wide += max_order == 12
        full = search_agrees(pres, catalog, max_order, 10**6)
        search_agrees(pres, catalog, max_order, rng.randint(0, full))
    small = parse_presentation("< x, y | x^2, y^3 >")
    full = search_agrees(small, catalog, 4, 10**6)
    for max_assignments in range(full + 1):
        search_agrees(small, catalog, 4, max_assignments)
    return (f"{presentations} random presentations at two budgets ({wide} of them "
            f"up to order 12) and {small.to_text()} at all {full + 1} budgets up to "
            f"its {full} assignments: same quotients and budget state as the brute force",
            {"presentations": presentations, "up_to_order_12": wide,
             "small_budgets": full + 1})


def _psl27() -> tuple:
    """z -> z + 1 and z -> -1/z on the projective line over F_7, the point
    at infinity numbered 7: a generating pair of PSL(2,7)."""
    inf = 7
    t = tuple(inf if z == inf else (z + 1) % 7 for z in range(8))
    s = tuple(0 if z == inf else inf if z == 0 else -pow(z, -1, 7) % 7 for z in range(8))
    return t, s


def check_kernel_invariants():
    """Kernel de_p by the transfer formula and d_p by the Fox Jacobian on
    the coset table, against the rewritten subgroup presentation: random
    presentations, half of them with a relator c*u^m*c^-1, and the first
    15 catalog quotients of each up to order 12, at p in {2, 3, 5}.  The
    table order k of each relator root matches ``centralizer_index``, and
    ``psize``'s exact sum equals its transfer bound.  The genus-2 surface
    group onto PSL(2,7) has a kernel of genus 169."""
    rng = random.Random(0x5EED0E)
    catalog = default_catalog().up_to(12)
    presentations = 40
    cases = divisible = 0
    for i in range(presentations):
        pres = _random_presentation(rng, max_relators=2, max_len=8, min_relators=0)
        if i % 2 == 0:
            u = _random_word(rng, pres.n_gens, rng.randint(1, 3))
            c = _random_word(rng, pres.n_gens, rng.randint(0, 2))
            power = (u ** rng.choice((2, 3, 4, 6, 8, 9, 12))).conjugated_by(c)
            pres = pres.with_relators(pres.relators + (power,))
        quotients = enumerate_quotients(pres, catalog, 12, SearchBudget(12, 3000))
        for q in itertools.islice(quotients, 15):
            sub = subgroup_presentation(pres, q)
            inv = abelian_invariants(sub)
            for p in (2, 3, 5):
                roots = relator_roots(pres, p)
                terms = transfer_terms(roots, q)
                ks = [k for k, _ in terms]
                _ensure(ks == [centralizer_index(q, r) for r in pres.relators],
                        f"{pres.to_text()} onto {q!r}: table orders {ks}")
                de = kernel_deficiency(q, terms)
                want = p_deficiency(sub, p)
                _ensure(de == want, f"{pres.to_text()} onto {q!r}, p={p}: "
                        f"transfer formula {de}, rewritten {want}")
                dp = kernel_d_p(roots, q, p)
                _ensure(dp == d_p(inv, p), f"{pres.to_text()} onto {q!r}, p={p}: "
                        f"Fox d_p {dp}, rewritten {d_p(inv, p)}")
                bound = p_size_bound(pres, q, p)
                _ensure(bound.exact_sum == bound.value,
                        f"{pres.to_text()} onto {q!r}, p={p}: exact sum "
                        f"{bound.exact_sum} != transfer bound {bound.value}")
                cases += 1
                divisible += sum(1 for root, k in zip(roots, ks)
                                 if root.exponent // k % p == 0)
    _ensure(divisible >= 30, f"only {divisible} relators with p dividing m/k")

    surface = standard_presentation(FuchsianSignature(2))
    t, s = _psl27()
    q = FiniteQuotient((t, s, s, t))  # [t,s][s,t] = 1
    _ensure(q.order == 168, f"the images generate a group of order {q.order}")
    inv = abelian_invariants(subgroup_presentation(surface, q))
    _ensure(inv == AbelianInvariants(338, ()), f"rewritten kernel abelianizes to {inv}")
    for p in (2, 3, 7):
        roots = relator_roots(surface, p)
        dp = kernel_d_p(roots, q, p)
        de = kernel_deficiency(q, transfer_terms(roots, q))
        _ensure((dp, de) == (338, 336), f"genus 2 onto PSL(2,7), p={p}: d_p {dp}, de_p {de}")
    return (f"{cases} (kernel, p) cases from {presentations} random presentations, "
            f"{divisible} relators with p dividing m/k: formula de_p and Fox d_p "
            "match rewriting; genus 2 onto PSL(2,7): Z^338, d_p = 338, de_p = 336",
            {"cases": cases, "divisible": divisible, "presentations": presentations})


CHECKS = {
    "intro_examples": check_intro_examples,
    "free_products": check_free_products,
    "supermult": check_supermult,
    "conjugacy": check_conjugacy,
    "snf": check_snf,
    "valuation": check_valuation,
    "triangle": check_triangle,
    "singerman": check_singerman,
    "virtually_positive": check_virtually_positive,
    "chi": check_chi,
    "power_witness": check_power_witness,
    "dp_drop": check_dp_drop,
    "search": check_search,
    "kernel_invariants": check_kernel_invariants,
}


def check_names() -> tuple:
    return tuple(CHECKS)


def run_check(name: str) -> CheckOutcome:
    fn = CHECKS[name]
    try:
        summary, details = fn()
    except Exception as exc:  # a failed criterion is data, not a crash
        return CheckOutcome(name, False, f"{type(exc).__name__}: {exc}", {})
    return CheckOutcome(name, True, summary, details)


def run_checks(only=None) -> list:
    names = check_names()
    if only:
        names = [n for n in names if only in n]
        if not names:
            raise ValueError(f"no check matches {only!r}")
    return [run_check(name) for name in names]
