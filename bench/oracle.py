"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports ``pdeficiency``: words are lists of signed 1-based
letters (+k is the k-th generator, -k its inverse), permutations are tuples
of 0-based images composed left to right, and every count is found by brute
force over small finite groups.
"""

import functools
import itertools
import math
from fractions import Fraction


# -- free-group words ----------------------------------------------------------


def reduce_letters(letters) -> list:
    out = []
    for lt in letters:
        if out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
    return out


def inverse_letters(letters) -> list:
    return [-lt for lt in reversed(letters)]


def cyclic_core(letters) -> list:
    """The cyclically reduced core of a freely reduced word."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return list(letters[i:j + 1])


def primitive_period(letters) -> int:
    """Length of the shortest block whose repetition gives ``letters``."""
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters[d:] == letters[:n - d]:
            return d
    raise ValueError("empty word has no period")


def root_exponent(letters) -> int:
    """Largest m with the word an m-th power in the free group."""
    core = cyclic_core(reduce_letters(letters))
    if not core:
        raise ValueError("the identity has no root")
    return len(core) // primitive_period(core)


def is_primitive_core(letters) -> bool:
    """True for a non-empty cyclically reduced word that is no proper power."""
    return (bool(letters) and letters == reduce_letters(letters)
            and letters == cyclic_core(letters) and primitive_period(letters) == len(letters))


def valuation(n: int, p: int) -> int:
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def p_deficiency(n_gens: int, relators, p: int) -> Fraction:
    """|X| - 1 - sum of p^-nu_p(r), with nu_p read off the root exponent."""
    total = Fraction(n_gens - 1)
    for r in relators:
        total -= Fraction(1, p ** valuation(root_exponent(r), p))
    return total


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rational(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


# -- permutation groups --------------------------------------------------------


def pmul(a, b) -> tuple:
    """a then b."""
    return tuple(b[x] for x in a)


def pinv(a) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def porder(a) -> int:
    ident = tuple(range(len(a)))
    x, n = a, 1
    while x != ident:
        x = pmul(x, a)
        n += 1
    return n


def closure(gens) -> list:
    """All elements of the group the permutations generate, identity first."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    out = [ident]
    for x in out:
        for g in gens:
            y = pmul(x, g)
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def image(perms, letters) -> tuple:
    """Image of a word when letter +k maps to perms[k-1]."""
    invs = [pinv(a) for a in perms]
    x = tuple(range(len(perms[0])))
    for lt in letters:
        x = pmul(x, perms[lt - 1] if lt > 0 else invs[-lt - 1])
    return x


def cycle_perm(cycles, degree: int) -> tuple:
    out = list(range(degree))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            out[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def cycle_text(a) -> str:
    """1-based cycle notation, '()' for the identity."""
    seen = set()
    parts = []
    for start in range(len(a)):
        if start in seen or a[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        x = a[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = a[x]
        parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) or "()"


class TableGroup:
    """A small permutation group as a multiplication table over indices."""

    def __init__(self, name: str, gens):
        self.name = name
        self.gens = tuple(gens)
        self.elements = closure(self.gens)
        self.order = len(self.elements)
        index = {x: i for i, x in enumerate(self.elements)}
        self.mul = [[index[pmul(x, y)] for y in self.elements] for x in self.elements]
        self.inv = [index[pinv(x)] for x in self.elements]
        self.gen_index = [index[g] for g in self.gens]

    def generates(self, idx) -> bool:
        seen = {0}
        frontier = [0]
        for x in frontier:
            for g in idx:
                y = self.mul[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.order

    def evaluate(self, assignment, letters) -> int:
        x = 0
        mul, inv = self.mul, self.inv
        for lt in letters:
            x = mul[x][assignment[lt - 1] if lt > 0 else inv[assignment[-lt - 1]]]
        return x

    def epimorphisms(self, n_gens: int, relators) -> int:
        """|Epi(F_n / <<relators>>, self)| by trying every assignment."""
        count = 0
        for assignment in itertools.product(range(self.order), repeat=n_gens):
            if all(self.evaluate(assignment, r) == 0 for r in relators) \
                    and self.generates(assignment):
                count += 1
        return count

    @functools.cached_property
    def automorphisms(self) -> int:
        """|Aut| as the number of generator images that extend to a bijective
        homomorphism, checked on the whole Cayley graph."""
        # spanning tree from the identity along the generators
        parent = {0: None}
        order = [0]
        for x in order:
            for k, g in enumerate(self.gen_index):
                y = self.mul[x][g]
                if y not in parent:
                    parent[y] = (x, k)
                    order.append(y)
        count = 0
        for images in itertools.product(range(self.order), repeat=len(self.gen_index)):
            phi = [0] * self.order
            for x in order[1:]:
                src, k = parent[x]
                phi[x] = self.mul[phi[src]][images[k]]
            if len(set(phi)) != self.order:
                continue
            if all(phi[self.mul[x][g]] == self.mul[phi[x]][images[k]]
                   for x in range(self.order) for k, g in enumerate(self.gen_index)):
                count += 1
        return count


def _cyc(n: int) -> tuple:
    return tuple((i + 1) % n for i in range(n))


@functools.cache
def catalog_groups() -> tuple:
    """The groups the documented default catalog holds, one per isomorphism
    type, built here from generators of our own choosing."""
    groups = [TableGroup(f"C{n}", [_cyc(n)]) for n in range(2, 13)]
    for p in (2, 3, 5):
        a = cycle_perm([tuple(range(p))], 2 * p)
        b = cycle_perm([tuple(range(p, 2 * p))], 2 * p)
        groups.append(TableGroup(f"C{p}xC{p}", [a, b]))
    for n in (4, 5):
        refl = tuple((-i) % n for i in range(n))
        groups.append(TableGroup(f"D{n}", [_cyc(n), refl]))
    groups.append(TableGroup("S3", [(1, 0, 2), (1, 2, 0)]))
    groups.append(TableGroup("S4", [(1, 0, 2, 3), (1, 2, 3, 0)]))
    groups.append(TableGroup("A4", [(1, 2, 0, 3), (0, 2, 3, 1)]))
    return tuple(groups)


def kernel_count(n_gens: int, relators, max_order: int) -> int:
    """Normal subgroups with a non-trivial quotient in the catalog up to
    ``max_order``: the sum of |Epi(G, H)| / |Aut(H)| (Hall)."""
    total = 0
    for grp in catalog_groups():
        if grp.order > max_order:
            continue
        epi = grp.epimorphisms(n_gens, relators)
        if epi % grp.automorphisms:
            raise ArithmeticError(f"|Aut({grp.name})| does not divide |Epi| = {epi}")
        total += epi // grp.automorphisms
    return total


# -- Fuchsian kernels ----------------------------------------------------------


def kernel_signature(genus: int, periods, image_orders, index: int) -> tuple:
    """Signature (g'; m'_1, ...) of the kernel of a surjection of index
    ``index`` whose elliptic generators have the given image orders
    (Riemann-Hurwitz)."""
    new_periods = []
    for e, m in zip(periods, image_orders):
        if e % m:
            raise ValueError(f"image order {m} does not divide the period {e}")
        if e // m > 1:
            new_periods += [e // m] * (index // m)
    volume = 2 * genus - 2 + sum(1 - Fraction(1, e) for e in periods)
    two_g = index * volume + 2 - sum(1 - Fraction(1, m) for m in new_periods)
    if two_g.denominator != 1 or two_g < 0 or two_g % 2:
        raise ValueError(f"no surface genus solves Riemann-Hurwitz: 2g' = {two_g}")
    return int(two_g) // 2, new_periods


def kernel_abelianization(genus: int, periods, p: int) -> dict:
    """Rank, d_p and order of the torsion of the abelianized Fuchsian group
    of signature (genus; periods)."""
    divisible = sum(1 for m in periods if m % p == 0)
    return {
        "rank": 2 * genus,
        "d_p": 2 * genus + max(0, divisible - 1),
        "torsion": math.prod(periods) // math.lcm(*periods),
    }
