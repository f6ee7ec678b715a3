"""Integer matrices, Smith normal form, abelian invariants and the
abelianized deficiency bounds.

All arithmetic is over arbitrary-precision Python integers; no floating
point is involved anywhere.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .presentation import FinitePresentation
from .words import Valuation, nu_p_int, require_prime


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int = None):
        data = tuple(tuple(int(x) for x in row) for row in data)
        rows = len(data)
        if rows:
            cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise ValueError("ragged matrix rows")
        else:
            cols = 0 if cols is None else cols
        self.rows = rows
        self.cols = cols
        self.data = data

    def at(self, i: int, j: int) -> int:
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.data, self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r})"


def smith_normal_form(mat: IntMatrix) -> tuple:
    """Diagonal of the Smith normal form: d_1 | d_2 | ... (nonnegative),
    then zeros, one entry per min(rows, cols).

    Elementary row and column operations with the smallest-pivot strategy
    and a full divisibility cleanup pass per step.  Only the diagonal is
    kept; the unimodular transforms are never formed.
    """
    m, n = mat.rows, mat.cols
    s = [list(row) for row in mat.data]
    # Rows and columns before t are zero off the diagonal, so the column
    # operations of step t skip the rows before t.
    t = 0
    while t < min(m, n):
        best = None
        smallest = 0
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                val = abs(row[j])
                if val and (best is None or val < smallest):
                    best, smallest = (i, j), val
            if smallest == 1:
                break  # nothing is smaller: the first unit is the pivot
        if best is None:
            break
        i, j = best
        s[t], s[i] = s[i], s[t]
        if j != t:
            for row in s[t:]:
                row[t], row[j] = row[j], row[t]
        top = s[t]
        if top[t] < 0:
            top = s[t] = [-x for x in top]
        pivot = top[t]

        remainder = False
        for i in range(t + 1, m):
            row = s[i]
            if row[t]:
                c = row[t] // pivot
                s[i] = row = [a - c * b for a, b in zip(row, top)]
                remainder = remainder or bool(row[t])
        for j in range(t + 1, n):
            if top[j]:
                c = top[j] // pivot
                for row in s[t:]:
                    row[j] -= c * row[t]
                remainder = remainder or bool(top[j])
        if remainder:
            continue  # a strictly smaller pivot appeared; redo this step

        # pivot must divide everything that remains
        if pivot != 1:
            offender = next(
                (row for row in s[t + 1:] if any(x % pivot for x in row[t + 1:])), None
            )
            if offender is not None:
                s[t] = [a + b for a, b in zip(top, offender)]
                continue
        t += 1
    return tuple(s[i][i] for i in range(min(m, n)))


# -- abelian invariants ----------------------------------------------------


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank plus the elementary divisor chain d_1 | d_2 | ..., each >= 2."""

    rank: int
    divisors: tuple

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        object.__setattr__(self, "divisors", tuple(int(d) for d in self.divisors))
        prev = None
        for d in self.divisors:
            if d < 2:
                raise ValueError(f"divisor {d} is not >= 2")
            if prev is not None and d % prev:
                raise ValueError(f"divisibility chain broken: {prev} does not divide {d}")
            prev = d

    @classmethod
    def from_cyclic_factors(cls, orders, rank: int = 0) -> "AbelianInvariants":
        """Canonical chain of an arbitrary direct sum of cyclic groups."""
        orders = [int(e) for e in orders if int(e) != 1]
        if any(e < 1 for e in orders):
            raise ValueError("cyclic factor orders must be positive")
        primes = set()
        for e in orders:
            primes.update(_prime_factors(e))
        per_prime = {
            p: sorted((nu_p_int(e, p) for e in orders if e % p == 0), reverse=True)
            for p in primes
        }
        length = max((len(v) for v in per_prime.values()), default=0)
        chain = []
        for j in range(length):  # largest divisor first
            d = 1
            for p, exps in per_prime.items():
                if j < len(exps):
                    d *= p ** exps[j]
            chain.append(d)
        return cls(rank, tuple(reversed(chain)))


def _prime_factors(n: int) -> set:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def exponent_matrix(pres: FinitePresentation) -> IntMatrix:
    """The |X| x |R| matrix whose column j is the exponent-sum vector of
    relator j."""
    cols = [r.exponent_sums() for r in pres.relators]
    data = [[col[i] for col in cols] for i in range(pres.n_gens)]
    return IntMatrix(data, cols=len(cols))


def abelian_invariants(pres: FinitePresentation) -> AbelianInvariants:
    diag = smith_normal_form(exponent_matrix(pres))
    nonzero = [d for d in diag if d]
    rank = pres.n_gens - len(nonzero)
    return AbelianInvariants(rank, tuple(d for d in nonzero if d > 1))


def nu_p_vector(vec, p: int) -> Valuation:
    """Largest k with p^k dividing every coordinate; infinite on the zero
    vector."""
    require_prime(p)
    g = 0
    for x in vec:
        g = math.gcd(g, int(x))
    if g == 0:
        return Valuation.infinite()
    return Valuation.finite(nu_p_int(g, p))


def abelian_p_deficiency_presentation(pres: FinitePresentation, p: int) -> Fraction:
    """Deficiency with valuations taken in the free abelian group of
    exponent vectors; an upper bound for the presentation's p-deficiency."""
    require_prime(p)
    total = Fraction(pres.n_gens - 1)
    for r in pres.relators:
        total -= nu_p_vector(r.exponent_sums(), p).weight(p)
    return total


def abelian_p_deficiency_group(inv: AbelianInvariants, p: int) -> Fraction:
    """r - 1 + sum over divisors of (1 - p^-nu_p(e_i)); the supremum over
    all abelian presentations of the group."""
    require_prime(p)
    total = Fraction(inv.rank - 1)
    for e in inv.divisors:
        total += 1 - Fraction(1, p ** nu_p_int(e, p))
    return total


def upper_bound_de(pres: FinitePresentation, p: int) -> Fraction:
    """Upper bound for the p-deficiency of the group presented by pres,
    computed from its abelianization."""
    return abelian_p_deficiency_group(abelian_invariants(pres), p)


def d_p(inv: AbelianInvariants, p: int) -> int:
    """Dimension over F_p of G / (commutators and p-th powers)."""
    require_prime(p)
    return inv.rank + sum(1 for d in inv.divisors if d % p == 0)


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a sparse integer matrix given as one
    ``{column: entry}`` dict per row.

    Each row is reduced by the pivot rows at its leading (smallest) column
    until it vanishes or leads at a new column, where it becomes a pivot row
    scaled to lead with 1.  A pivot row has no entries left of its leading
    column, so each reduction step only moves the lead to the right.
    """
    pivots = {}
    for row in rows:
        row = {c: x % p for c, x in row.items() if x % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: x * inv % p for c, x in row.items()}
                break
            f = row[lead]
            for c, x in pivot.items():
                y = (row.get(c, 0) - f * x) % p
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return len(pivots)
