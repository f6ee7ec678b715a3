"""Integer matrices, Smith normal form, abelian invariants and the
abelianized deficiency bounds.

A relator's abelian image is a sparse exponent column.  Abelian invariants
eliminate generators through unit entries of these columns first, and run
the Smith normal form only on what is left.

All arithmetic is over arbitrary-precision Python integers; no floating
point is involved anywhere.
"""

import heapq
import math
from fractions import Fraction

from .presentation import FinitePresentation
from .words import _p_weight, _record, nu_p_int, require_prime


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


@_record
class AbelianInvariants:
    """Free rank plus the elementary divisor chain d_1 | d_2 | ..., each >= 2."""

    rank: int
    divisors: tuple

    def __new__(cls, rank: int, divisors):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        divisors = tuple(int(d) for d in divisors)
        prev = None
        for d in divisors:
            if d < 2:
                raise ValueError(f"divisor {d} is not >= 2")
            if prev is not None and d % prev:
                raise ValueError(f"divisibility chain broken: {prev} does not divide {d}")
            prev = d
        return tuple.__new__(cls, (rank, divisors))

    @classmethod
    def from_cyclic_factors(cls, orders, rank: int = 0) -> "AbelianInvariants":
        """Canonical chain of an arbitrary direct sum of cyclic groups: the
        divisors above 1 of the Smith normal form of the diagonal matrix of
        the orders."""
        orders = [int(e) for e in orders if int(e) != 1]
        if any(e < 1 for e in orders):
            raise ValueError("cyclic factor orders must be positive")
        diag = smith_normal_form(IntMatrix(
            [[e if i == j else 0 for j in range(len(orders))] for i, e in enumerate(orders)]))
        return cls(rank, tuple(d for d in diag if d > 1))


def exponent_columns(pres: FinitePresentation) -> list:
    """Each relator's image in the free abelian group on the generators: one
    ``{generator: exponent sum}`` dict per relator, without zero entries.

    A relator with more runs than there are generators is read off its
    maximal root: c*u^m*c^-1 has the exponent sums of u times m, and u's
    are summed into a list, one step per run.  A shorter relator is summed
    into a dict, so that a presentation with many generators and short
    relators costs time in its length only.
    """
    n = pres.n_gens
    cols = []
    for i, r in enumerate(pres.relators):
        if len(r.runs) > n:
            rd = pres.root(i)
            sums = [0] * n
            for g, e in rd.root.runs:
                sums[g] += e
            m = rd.exponent
            cols.append({g: m * s for g, s in enumerate(sums) if s})
        else:
            sums = {}
            for g, e in r.runs:
                sums[g] = sums.get(g, 0) + e
            cols.append({g: s for g, s in sums.items() if s})
    return cols


def eliminate_unit_pivots(cols, n_gens: int) -> tuple:
    """Tietze elimination through the +-1 entries of the exponent columns.

    A column with a unit entry at generator g expresses g through the other
    generators; substituting it into every other column that holds g
    removes g and that column without changing the abelian group.  The
    shortest column with a unit goes first, and within it the generator
    that occurs in the fewest columns, which keeps the fill-in small
    (Havas, Holt & Rees, "Recognizing badly presented Z-modules", Linear
    Algebra Appl. 192, 1993).  Zero columns are dropped.

    Returns the number of generators left and the nonzero columns left,
    none of which has a unit entry.
    """
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


def abelian_invariants(pres: FinitePresentation, cols=None) -> AbelianInvariants:
    """Free rank and divisor chain of the abelianization: unit pivots first,
    then the Smith normal form of what is left.  ``cols``, when given, must
    be ``exponent_columns(pres)``; it saves building them again."""
    if cols is None:
        cols = exponent_columns(pres)
    left, cols = eliminate_unit_pivots(cols, pres.n_gens)
    gens = sorted({g for col in cols for g in col})
    diag = smith_normal_form(
        IntMatrix([[col.get(g, 0) for col in cols] for g in gens], cols=len(cols))
    )
    nonzero = [d for d in diag if d]
    return AbelianInvariants(left - len(nonzero), tuple(d for d in nonzero if d > 1))


def abelian_p_deficiency_presentation(pres: FinitePresentation, p: int,
                                      cols=None) -> Fraction:
    """Deficiency with valuations taken in the free abelian group of
    exponent vectors; an upper bound for the presentation's p-deficiency.
    A column's valuation is that of the gcd of its entries.  ``cols``, when
    given, must be ``exponent_columns(pres)``."""
    require_prime(p)
    if cols is None:
        cols = exponent_columns(pres)
    gcds = (math.gcd(*col.values()) for col in cols)
    return pres.n_gens - 1 - _p_weight((nu_p_int(g, p) for g in gcds if g), p)


def abelian_p_deficiency_group(inv: AbelianInvariants, p: int) -> Fraction:
    """r - 1 + sum over divisors of (1 - p^-nu_p(e_i)); the supremum over
    all abelian presentations of the group."""
    require_prime(p)
    n = inv.rank + len(inv.divisors)
    return n - 1 - _p_weight((nu_p_int(e, p) for e in inv.divisors), p)


def d_p(inv: AbelianInvariants, p: int) -> int:
    """Dimension over F_p of G / (commutators and p-th powers)."""
    require_prime(p)
    return inv.rank + sum(1 for d in inv.divisors if d % p == 0)
