"""Free-group word arithmetic: reduction, conjugation, maximal roots and
p-valuations.

Words are stored in run-length form, as a tuple of (generator index, nonzero
exponent) pairs in which adjacent runs carry distinct generators.  The
constructor performs free reduction, so every Word is canonical, and all
values here are immutable; every operation is a pure function.
"""

from collections import Counter, namedtuple
from fractions import Fraction


# Miller-Rabin over the first thirteen primes as bases has no strong
# pseudoprime below this bound (Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", 2015).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981

# The most runs that a word built from exponents may have: a power such as
# (x*y)^N, which has 2N runs, or a rewritten relator that turns N times
# round a cycle of the coset table holding two or more basis letters.  Such
# a word is short to type but not to store, so a longer one is refused with
# a ValueError before it is built.
RUN_LIMIT = 10**6


def is_prime(p) -> bool:
    """Deterministic Miller-Rabin, exact below ``PRIME_LIMIT``; at or above
    the limit it raises ValueError rather than guess."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        return False
    if p >= PRIME_LIMIT:
        raise ValueError(
            f"cannot decide whether {p} is prime: the primality test is exact "
            f"only below {PRIME_LIMIT}"
        )
    for a in PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be a prime number, got {p!r}")


def nu_p_int(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n.

    p is not tested for primality here: the public entry points test it
    once, and this runs once per relator or divisor.  A p below 2 is still
    rejected, since the loop would not end.
    """
    if p < 2:
        require_prime(p)
    if n == 0:
        raise ValueError("p-valuation of 0 is undefined")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _p_weight(valuations, p: int) -> Fraction:
    """Sum of p^-v over the valuations, exactly: the weight that a
    p-deficiency takes off |X| - 1.  One Fraction over p^top, top the
    largest v, with one power of p per distinct v."""
    counts = Counter(valuations)
    top = max(counts, default=0)
    return Fraction(sum([n * p ** (top - v) for v, n in counts.items()]), p**top)


class Word:
    """Freely reduced word over a fixed alphabet of ``n_gens`` generators.

    The public constructor checks every generator index and reduces its
    runs.  Results of the operations below are built by ``_make`` from runs
    already reduced and in range: products and powers reduce only at the
    seams where two reduced run sequences meet.
    """

    __slots__ = ("runs", "n_gens")

    def __init__(self, runs, n_gens: int):
        if n_gens < 0:
            raise ValueError("alphabet size must be nonnegative")
        stack = []
        for g, e in runs:
            if not isinstance(g, int) or not 0 <= g < n_gens:
                raise ValueError(
                    f"generator index {g!r} invalid for alphabet of size {n_gens}"
                )
            if e == 0:
                continue
            if stack and stack[-1][0] == g:
                merged = stack[-1][1] + e
                stack.pop()
                if merged:
                    stack.append((g, merged))
            else:
                stack.append((g, e))
        self.runs = tuple(stack)
        self.n_gens = n_gens

    @classmethod
    def _make(cls, runs: tuple, n_gens: int) -> "Word":
        """The word of a tuple of runs that is already reduced, over valid
        generator indices; nothing is checked."""
        word = object.__new__(cls)
        word.runs = runs
        word.n_gens = n_gens
        return word

    @classmethod
    def identity(cls, n_gens: int) -> "Word":
        return cls((), n_gens)

    @classmethod
    def generator(cls, g: int, n_gens: int, power: int = 1) -> "Word":
        return cls(((g, power),), n_gens)

    # -- basic structure ---------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.runs

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.runs)

    # -- group operations --------------------------------------------------

    def _same_alphabet(self, other: "Word") -> None:
        if self.n_gens != other.n_gens:
            raise ValueError(
                f"words over different alphabets ({self.n_gens} vs {other.n_gens})"
            )

    def __mul__(self, other: "Word") -> "Word":
        self._same_alphabet(other)
        return Word._make(_join(self.runs, other.runs), self.n_gens)

    def inverse(self) -> "Word":
        return Word._make(tuple([(g, -e) for g, e in reversed(self.runs)]), self.n_gens)

    __invert__ = inverse

    def __pow__(self, n: int) -> "Word":
        """w^n; ValueError when its cyclic core has two or more runs and n
        times as many runs exceed ``RUN_LIMIT``."""
        if n == 0 or self.is_identity:
            return Word._make((), self.n_gens)
        if n < 0:
            return self.inverse() ** (-n)
        if len(self.runs) == 1:
            g, e = self.runs[0]
            return Word._make(((g, e * n),), self.n_gens)
        # w = c u c^-1 with u cyclically reduced, so w^n = c u^n c^-1: the
        # copies of u meet at seams that only merge, and c and c^-1 meet
        # u^n at seams that _join reduces.
        conj, core = self.cyclic_reduce()
        runs = core.runs
        if len(runs) == 1:  # (c g^e c^-1)^n is c g^(e*n) c^-1
            (g, e), = runs
            runs = ((g, e * n),)
        elif n * len(runs) > RUN_LIMIT:
            raise ValueError(f"power would have more than {RUN_LIMIT} runs")
        elif runs[0][0] == runs[-1][0]:
            # the last run and the next copy's first carry one generator
            # with one sign, since u is cyclically reduced: merge that seam
            (g, e), (_, f) = runs[0], runs[-1]
            runs = runs[:-1] + (((g, e + f),) + runs[1:-1]) * (n - 1) + runs[-1:]
        else:
            runs = runs * n
        runs = _join(_join(conj.runs, runs), conj.inverse().runs)
        return Word._make(runs, self.n_gens)

    def conjugated_by(self, a: "Word") -> "Word":
        """a * self * a^-1."""
        return a * self * a.inverse()

    def cyclic_reduce(self) -> tuple:
        """Split self = conj * core * conj^-1 with core cyclically reduced.

        Two indices walk inward while the runs at both ends carry one
        generator with opposite signs, and the conjugator is the runs
        passed on the left.  When the two exponents differ in size, the
        smaller end run goes to the conjugator and the larger keeps the
        rest; the next pair of ends then carries two generators, so the
        walk stops.  The runs are sliced once, so the time is linear."""
        runs, n = self.runs, self.n_gens
        i, j = 0, len(runs) - 1
        while i < j:
            (g, e), (h, f) = runs[i], runs[j]
            if g != h or (e > 0) == (f > 0):
                break
            if e + f:
                if abs(e) < abs(f):
                    conj, core = runs[:i + 1], runs[i + 1:j] + ((g, e + f),)
                else:
                    conj, core = runs[:i] + ((g, -f),), ((g, e + f),) + runs[i + 1:j]
                return Word._make(conj, n), Word._make(core, n)
            i += 1
            j -= 1
        # the runs that remain, and the conjugator's, are reduced
        return Word._make(runs[:i], n), Word._make(runs[i:j + 1], n)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.n_gens == other.n_gens
            and self.runs == other.runs
        )

    def __hash__(self) -> int:
        return hash((self.runs, self.n_gens))

    def __repr__(self) -> str:
        if self.is_identity:
            return f"Word(1, n_gens={self.n_gens})"
        body = "*".join(f"g{g}" if e == 1 else f"g{g}^{e}" for g, e in self.runs)
        return f"Word({body}, n_gens={self.n_gens})"


def _seam(left, right) -> tuple:
    """Where the product of two reduced run sequences reduces: it is
    ``left[:i] + merged + right[j:]`` with ``(i, j, merged)`` returned and
    at most one merged run.  Only runs at the seam are read, and a run
    that cancels exposes the next pair."""
    i, j, n = len(left), 0, len(right)
    while i and j < n:
        g, e = left[i - 1]
        h, f = right[j]
        if g != h:
            break
        i -= 1
        j += 1
        if e + f:
            return i, j, ((g, e + f),)
    return i, j, ()


def _join(left: tuple, right: tuple) -> tuple:
    """Runs of the product of two reduced run tuples."""
    i, j, merged = _seam(left, right)
    return left[:i] + merged + right[j:]


def _record(cls):
    """The class body ``cls`` as an immutable record: a ``namedtuple``
    subclass without an instance dict, whose fields are the body's annotated
    names in order, and which keeps the body's methods, properties and
    classmethods.  A record is a tuple: it has a length, it iterates and it
    compares equal to the plain tuple of its values."""
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    body["__slots__"] = ()
    base = namedtuple(cls.__name__, cls.__annotations__, module=cls.__module__)
    return type(cls.__name__, (base,), body)


@_record
class Valuation:
    """p-valuation of a word: a finite natural number, or infinite for the
    identity.  The weight p^-k is an exact rational; the identity weighs 0.
    """

    k: object  # int, or None for infinite

    @classmethod
    def finite(cls, k: int) -> "Valuation":
        if k < 0:
            raise ValueError("valuation must be nonnegative")
        return cls(k)

    @classmethod
    def infinite(cls) -> "Valuation":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.k is None

    def weight(self, p: int) -> Fraction:
        if self.k is None:
            return Fraction(0)
        return Fraction(1, p**self.k)


@_record
class RootDecomposition:
    """w = conjugator * root^exponent * conjugator^-1 with the exponent
    maximal; the root is cyclically reduced and not a proper power."""

    conjugator: Word
    root: Word
    exponent: int

    def reassemble(self) -> Word:
        return self.power(self.exponent)

    def power(self, k: int) -> Word:
        """conjugator * root^k * conjugator^-1."""
        return self.conjugator * self.root**k * self.conjugator.inverse()


def _smallest_period(seq) -> int:
    """Smallest j dividing len(seq) with seq equal to its rotation by j.

    The periods that divide n = len(seq) are the multiples of the smallest
    one, so it is found from d = n by dividing out each prime q of n while
    d/q is still a period.  Once d is a period, seq has a period s dividing
    d exactly when its prefix of length d does, that is when
    ``seq[s:d] == seq[:d - s]``; so each test reads only that prefix.  Each
    test is one tuple comparison, so there are O(log n) of them and no
    Python loop over the sequence."""
    d = rest = len(seq)
    q = 2
    while rest > 1:
        if q * q > rest:  # what is left is prime
            q = rest
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            while d % q == 0 and seq[d // q:d] == seq[:d - d // q]:
                d //= q
        q += 1
    return d


def maximal_root(w: Word) -> RootDecomposition:
    """Maximal-exponent root of a non-identity word.

    After cyclic reduction the core is a literal power of its shortest
    period, and every rotation that maps the core to itself maps runs to
    runs.  So the exponent is the number of runs of the core read as a
    cyclic word (its first and last runs merged when they carry the same
    letter) over their smallest period P, and the root is the core's first
    P runs; when the ends merged, the root ends with the core's last run,
    cut from the merged run that starts the next period.  Time and memory
    grow with the number of runs, not with the exponents.
    """
    if w.is_identity:
        raise ValueError("no root of trivial word")
    conj, core = w.cyclic_reduce()
    runs = core.runs
    if len(runs) == 1:
        g, e = runs[0]
        return RootDecomposition(conj, Word._make(((g, 1 if e > 0 else -1),), w.n_gens), abs(e))
    (g1, e1), (gk, ek) = runs[0], runs[-1]
    if g1 == gk:  # one sign, since the core is cyclically reduced
        cyclic = ((g1, e1 + ek),) + runs[1:-1]
        period = _smallest_period(cyclic)
        root = runs[:period] + runs[-1:]
    else:
        cyclic = runs
        period = _smallest_period(cyclic)
        root = runs[:period]
    return RootDecomposition(conj, Word._make(root, w.n_gens), len(cyclic) // period)


def nu_p(w: Word, p: int) -> Valuation:
    """Largest k such that w is a p^k-th power; infinite for the identity."""
    require_prime(p)
    if w.is_identity:
        return Valuation.infinite()
    m = maximal_root(w).exponent
    return Valuation.finite(nu_p_int(m, p))


def p_prime_root(w: Word, p: int) -> tuple:
    """Shortest v with v^n = w and p not dividing n; returns (v, n).

    With w = c u^m c^-1 maximal, v = c u^(p^nu_p(m)) c^-1 and n = m / p^nu_p(m).
    """
    require_prime(p)
    if w.is_identity:
        raise ValueError("no root of trivial word")
    return p_prime_part(maximal_root(w), p)


def p_prime_part(rd: RootDecomposition, p: int) -> tuple:
    """``p_prime_root`` of the word whose maximal root is ``rd``; p is not
    checked."""
    scale = p ** nu_p_int(rd.exponent, p)
    return rd.power(scale), rd.exponent // scale
