"""Fuchsian signature calculus for cocompact orientable signatures: standard
presentations, hyperbolic volume, exact p-deficiency bounds, the
case classifier, and Singerman signature transfer along coset actions.

Signatures with parabolic elements reduce to free products of cyclic
groups and are handled by the presentation/abelian modules instead.
"""

import re
from fractions import Fraction

from .presentation import FinitePresentation
from .quotient import orbit_starts, perm_cycles, perm_identity, perm_inv, perm_mul, perm_order
from .words import Word, _p_weight, _record, nu_p_int, require_prime


class FuchsianSignature:
    """Genus plus the multiset of elliptic periods; must be hyperbolic."""

    __slots__ = ("genus", "periods")

    def __init__(self, genus: int, periods=()):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        periods = tuple(sorted(int(e) for e in periods))
        if any(e < 2 for e in periods):
            raise ValueError("periods must be at least 2")
        self.genus = genus
        self.periods = periods
        mu = volume(self)
        if mu <= 0:
            raise ValueError(
                f"signature {self} is not hyperbolic (volume {mu} <= 0)"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FuchsianSignature)
            and self.genus == other.genus
            and self.periods == other.periods
        )

    def __hash__(self) -> int:
        return hash((self.genus, self.periods))

    def __repr__(self) -> str:
        return f"FuchsianSignature({format_signature(self)!r})"


def parse_signature(text: str) -> FuchsianSignature:
    """Text form ``(s; e1,e2,...)``, e.g. ``(0; 6,12,12)`` or ``(2;)``."""
    m = re.fullmatch(r"\s*\(\s*(\d+)\s*(?:;(?P<periods>[\d\s,]*))?\)\s*", text)
    if m is None:
        raise ValueError(f"invalid signature {text!r}; expected '(s; e1,e2,...)'")
    genus = int(m.group(1))
    periods_text = (m.group("periods") or "").strip()
    periods = []
    if periods_text:
        for item in periods_text.split(","):
            item = item.strip()
            if not item.isdigit():
                raise ValueError(f"invalid period {item!r} in {text!r}")
            periods.append(int(item))
    return FuchsianSignature(genus, periods)


def format_signature(sig: FuchsianSignature) -> str:
    periods = ",".join(str(e) for e in sig.periods)
    return f"({sig.genus}; {periods})" if periods else f"({sig.genus};)"


def volume(sig) -> Fraction:
    """Hyperbolic volume 2s - 2 + sum(1 - 1/e_i), exactly."""
    total = Fraction(2 * sig.genus - 2)
    for e in sig.periods:
        total += 1 - Fraction(1, e)
    return total


def standard_presentation(sig: FuchsianSignature) -> FinitePresentation:
    """Generators x_1..x_r, u_1,v_1..u_s,v_s; relators x_i^{e_i} and the long
    relator x_1...x_r [u_1,v_1]...[u_s,v_s]."""
    r = len(sig.periods)
    s = sig.genus
    names = [f"x{i + 1}" for i in range(r)]
    for j in range(s):
        names.extend([f"u{j + 1}", f"v{j + 1}"])
    n = len(names)
    relators = [Word.generator(i, n, e) for i, e in enumerate(sig.periods)]
    long_runs = [(i, 1) for i in range(r)]
    for j in range(s):
        ui, vi = r + 2 * j, r + 2 * j + 1
        long_runs.extend([(ui, 1), (vi, 1), (ui, -1), (vi, -1)])
    relators.append(Word(long_runs, n))
    return FinitePresentation(names, relators)


def de_standard(sig: FuchsianSignature, p: int) -> Fraction:
    """p-deficiency of the standard presentation:
    2s - 2 + sum(1 - p^-nu_p(e_i)), the long relator weighing 1."""
    require_prime(p)
    nus = [nu_p_int(e, p) for e in sig.periods]
    return 2 * sig.genus + len(nus) - 1 - _p_weight(nus + [0], p)


def de_upper(sig: FuchsianSignature, p: int) -> Fraction:
    """Abelianization upper bound: with periods ordered so that
    nu_p(e_1) >= ... >= nu_p(e_r), this is 2s - 1 + sum_{i>=2}(1 - p^-nu_p(e_i))."""
    require_prime(p)
    nus = sorted((nu_p_int(e, p) for e in sig.periods), reverse=True)
    # with r >= 1 the long relator, of weight 1, stands in for x_1^(e_1)
    weights = [0] + nus[1:] if nus else []
    return 2 * sig.genus + len(nus) - 1 - _p_weight(weights, p)


CASES = ("a", "b", "c", "d")


def applicable(sig: FuchsianSignature, p: int, case: str) -> bool:
    """Whether the given case condition holds for some labeling of the
    periods."""
    require_prime(p)
    if case == "a":
        return sig.genus >= 1
    div_p = sum(1 for e in sig.periods if e % p == 0)
    if case == "b":
        return p >= 3 and div_p >= 3
    if p != 2:
        return False
    even = div_p
    div4 = sum(1 for e in sig.periods if e % 4 == 0)
    if case == "c":
        return even >= 4
    if case == "d":
        return div4 >= 2 and even >= 3
    raise ValueError(f"unknown case {case!r}")


def classify(sig: FuchsianSignature, p: int) -> str:
    """First applicable of the cases a-d over all period labelings, or
    'none'."""
    for case in CASES:
        if applicable(sig, p, case):
            return case
    return "none"


@_record
class DeficiencyResult:
    """Exact p-deficiency when a case applies; otherwise the 'negative' tag
    with the interval [standard value, abelianization bound]."""

    case: str
    value: object        # Fraction, or None when no case applies
    lower: Fraction
    upper: Fraction

    @property
    def negative(self) -> bool:
        return self.value is None


def de_exact(sig: FuchsianSignature, p: int) -> DeficiencyResult:
    case = classify(sig, p)
    lower = de_standard(sig, p)
    upper = de_upper(sig, p)
    if case != "none":
        return DeficiencyResult(case, lower, lower, lower)
    return DeficiencyResult("none", None, lower, upper)


# -- Singerman transfer ------------------------------------------------------


@_record
class EllipticAction:
    """Coset action data: one permutation per elliptic generator (aligned
    with the signature's period order) and per hyperbolic generator pair
    (u_1, v_1, u_2, v_2, ...)."""

    degree: int
    elliptic: tuple
    hyperbolic: tuple

    def all_perms(self) -> tuple:
        return self.elliptic + self.hyperbolic


def validate_action(sig: FuchsianSignature, act: EllipticAction) -> None:
    n = act.degree
    if n < 1:
        raise ValueError("action degree must be positive")
    if len(act.elliptic) != len(sig.periods):
        raise ValueError(
            f"expected {len(sig.periods)} elliptic permutations, got {len(act.elliptic)}"
        )
    if len(act.hyperbolic) != 2 * sig.genus:
        raise ValueError(
            f"expected {2 * sig.genus} hyperbolic permutations, got {len(act.hyperbolic)}"
        )
    for perm in act.all_perms():
        if len(perm) != n or sorted(perm) != list(range(n)):
            raise ValueError(f"{perm!r} is not a permutation of {n} points")
    for e, perm in zip(sig.periods, act.elliptic):
        if e % perm_order(perm):
            raise ValueError(
                f"image order {perm_order(perm)} does not divide the period {e}"
            )
    product = perm_identity(n)
    for perm in act.elliptic:
        product = perm_mul(product, perm)
    for j in range(sig.genus):
        u, v = act.hyperbolic[2 * j], act.hyperbolic[2 * j + 1]
        comm = perm_mul(perm_mul(u, v), perm_mul(perm_inv(u), perm_inv(v)))
        product = perm_mul(product, comm)
    if product != perm_identity(n):
        raise ValueError("product relation does not evaluate to the identity")
    if len(orbit_starts(act.all_perms(), n)) != 1:
        raise ValueError("action is not transitive")


def singerman_transfer(sig: FuchsianSignature, act: EllipticAction) -> FuchsianSignature:
    """Signature of the index-n subgroup attached to the coset action.

    Each cycle of length l < e_i of the i-th elliptic image contributes a
    period e_i / l (full-length cycles contribute nothing, and trivial
    periods e_i / l = 1 are dropped); the genus comes from solving
    volume(new) = n * volume(sig).
    """
    validate_action(sig, act)
    n = act.degree
    periods = []
    for e, perm in zip(sig.periods, act.elliptic):
        for cyc in perm_cycles(perm, include_fixed=True):
            if len(cyc) < e and e // len(cyc) >= 2:
                periods.append(e // len(cyc))
    target = n * volume(sig)
    period_sum = sum(1 - Fraction(1, f) for f in periods)
    genus2 = (target - period_sum + 2) / 2
    if genus2.denominator != 1 or genus2 < 0:
        raise ValueError(
            f"inconsistent action: transferred genus {genus2} is not a "
            "nonnegative integer"
        )
    return FuchsianSignature(int(genus2), periods)
