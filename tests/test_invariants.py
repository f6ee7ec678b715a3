import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pdeficiency.fuchsian import FuchsianSignature, standard_presentation, volume
from pdeficiency.abelian import abelian_invariants, d_p
from pdeficiency.invariants import (
    chi_p_estimate,
    gradient_window,
    find_power_witness,
    leaf_d_p,
    packed_rank,
    relator_roots,
    slot_layout,
)
from pdeficiency.presentation import (
    FinitePresentation, p_deficiency, parse_presentation, power_up,
)
from pdeficiency import search as search_module
from pdeficiency.quotient import (
    FiniteQuotient, SearchBudget, describe_quotient, enumerate_quotients, kernel_index,
    parse_catalog_manifest, table_order,
)
from pdeficiency.rewrite import subgroup_presentation
from pdeficiency.search import CatalogKernel
from pdeficiency.verification import (
    kernel_d_p, kernel_deficiency, quotient_dp_drop, rank_mod_p, transfer_terms,
)
from pdeficiency.words import Word

FREE2 = parse_presentation("< x, y | >")


def budget(order, assignments=20_000):
    return SearchBudget(max_order=order, max_assignments=assignments)


class TestKernelInvariants:
    """The transfer formula and the Fox rank against the rewritten subgroup
    presentation, which is their oracle."""

    @pytest.mark.parametrize("text", [
        "< x, y | x^6, y^12, (x*y)^12 >",
        "< x, y | x^2, y^4, (x*y)^8 >",
        "< x, y | x*y^2*x^-1*y^-1*(x*y)^6 >",
        # runs far longer than any cycle of the tables
        "< x, y | x^1001*y^-2002, y^1000 >",
    ])
    def test_match_rewriting(self, text):
        pres = parse_presentation(text)
        kernels = list(enumerate_quotients(pres, budget=budget(12)))
        assert len(kernels) > 3
        for kernel in kernels:
            q = kernel.quotient()
            sub = subgroup_presentation(pres, q)
            for p in (2, 3, 5):
                roots = relator_roots(pres, p)
                assert kernel_deficiency(q, transfer_terms(roots, q)) == p_deficiency(sub, p)
                assert kernel_d_p(roots, q, p) == d_p(abelian_invariants(sub), p)
                assert leaf_d_p(roots, kernel, p) == d_p(abelian_invariants(sub), p)

    def test_transfer_terms(self):
        # x^6 onto C2: k = 2, one class of valuation nu_2(6) - nu_2(2) = 0 of valuation nu_2(6) - nu_2(2) = 0
        pres = parse_presentation("< x | x^6 >")
        q = next(k for k in enumerate_quotients(pres, budget=SearchBudget(4))
                 if k.order == 2).quotient()
        roots = relator_roots(pres, 2)
        assert roots[0].exponent == 6 and roots[0].nu == 1 and roots[0].scale == 2
        assert transfer_terms(roots, q) == [(2, Fraction(1))]
        assert kernel_deficiency(q, transfer_terms(roots, q)) == -1


# runs longer than every cycle of a table of order at most 12, and short ones
EXPONENTS = st.sampled_from([1, -1, 2, -2, 3, -5, 13, -13, 25, -37, 144])


@st.composite
def powered_presentations(draw):
    """One to three relators u^m over two or three generators; m is often
    even, so m/k is often even too."""
    n = draw(st.integers(2, 3))
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        runs = draw(st.lists(st.tuples(st.integers(0, n - 1), EXPONENTS),
                             min_size=1, max_size=5))
        core = Word(runs, n)
        if not core.is_identity:
            relators.append(core ** draw(st.sampled_from([1, 2, 3, 4, 6])))
    return FinitePresentation(("x", "y", "z")[:n], relators)


class TestFoxMasks:
    """On every search leaf at every p, the d_p that ``gradient`` reads off
    the packed rows of the catalog group's cycle layouts and the de_p that
    ``chi`` reads off its ``powers`` against the table walks."""

    def check(self, pres, primes):
        # a sample keeps no quotient: the search yields the same kernels in
        # the same order, and each sample names its own
        kernels = [k for k in enumerate_quotients(pres, budget=budget(12)) if k.order > 1]
        quotients = [kernel.quotient() for kernel in kernels]
        for p in primes:
            roots = relator_roots(pres, p)
            samples = chi_p_estimate(pres, p, budget=budget(12)).samples[1:]
            assert len(samples) == len(kernels)
            for s, kernel, q in zip(samples, kernels, quotients):
                assert (s.index, s.description) == (q.order, describe_quotient(q, pres))
                de = kernel_deficiency(q, transfer_terms(roots, q))
                assert s.value == de and s.ratio == Fraction(de, s.index)
                assert leaf_d_p(roots, kernel, p) == kernel_d_p(roots, q, p)

    @settings(max_examples=60, deadline=None)
    @given(powered_presentations())
    def test_matches_dict_rows(self, pres):
        self.check(pres, (2,))

    @settings(max_examples=20, deadline=None)
    @given(powered_presentations())
    def test_odd_primes(self, pres):
        self.check(pres, (3, 5, 7, 13, 1000003, 100000000000031))

    def test_long_negative_runs_and_even_quotients(self):
        # x^-37 and y^25 wrap every cycle; onto C2, (x^-37*y^2)^4 has k = 2
        # and m/k = 2, so its rows vanish
        pres = parse_presentation("< x, y | (x^-37*y^2)^4, y^25*x^-13*y^-2 >")
        root = relator_roots(pres, 2)[0]
        assert any(root.exponent // table_order(k.quotient(), root.runs) == 2
                   for k in enumerate_quotients(pres, budget=SearchBudget(12)))
        self.check(pres, (2, 3, 5, 7, 13, 1000003, 100000000000031))

    def test_identity_images_long_runs_and_repeated_generators(self):
        # x and y each in two runs, and runs longer than the order of some
        # images; the search also sends generators to the identity (L = 1)
        pres = parse_presentation("< x, y, z | x^-5*y^7*x^3*z^-2*y^-2 >")
        lengths = [[k.tables.cycle_layout(a)[0] for a in k.images]
                   for k in enumerate_quotients(pres, budget=budget(12)) if k.order > 1]
        assert any(1 in ls for ls in lengths) and any(5 > ls[0] > 1 for ls in lengths)
        self.check(pres, (2, 3, 1000003, 100000000000031))


# packed_rank on rows laid out one bit too narrow for their bound, as a
# caller with a wrong bound would: entries pass their slots
NARROW_SCRIPT = """
import random
from pdeficiency import invariants
layout = invariants.slot_layout
p, bound = 3, 2 * 2 * 24 * 8
width = layout(p, bound)[0] - 1
invariants.slot_layout = lambda p, bound: (width, *layout(p, bound)[1:])
rnd = random.Random(1)
for _ in range(40):
    # three random rows and the sum of the first two, lifted to the bound
    rows = [[rnd.randrange(p) for _ in range(4)] for _ in range(3)]
    rows.append([(a + b) % p for a, b in zip(rows[0], rows[1])])
    rows = [[x + (bound - x) // p * p for x in row] for row in rows]
    invariants.packed_rank([sum(x << c * width for c, x in enumerate(row)) for row in rows],
                           p, bound)
print("no error")
"""


class TestPackedRank:
    @pytest.mark.parametrize("p", [2, 3, 5, 1000003, 100000000000031])
    def test_matches_rank_mod_p(self, p):
        # the bounds of runs walked once, of a genus-2 relator's 8 runs
        # walked 24 times, and of that relator walked 1000 times
        rnd = random.Random(p)
        for count in (1, 24 * 8, 1000 * 8):
            bound = (p - 1) * max(p, 2 * count)
            width, shift, mult = slot_layout(p, bound)
            if p > 2:
                # x*m fits its slot, and (x*m) >> s is x // p, up to the bound
                assert (bound * mult).bit_length() <= width
                assert all(x * mult >> shift == x // p
                           for x in (bound, bound - 1, bound - bound % p, p * p - p, p - 1))
            for _ in range(40):
                # dependent rows among random ones, each entry lifted to the
                # largest value of its residue up to the bound
                n_cols = rnd.randint(1, 6)
                rows = [[rnd.randrange(p) for _ in range(n_cols)]
                        for _ in range(rnd.randint(1, 4))]
                rows += [[sum(rnd.randrange(p) * row[c] for row in rows) % p
                          for c in range(n_cols)] for _ in range(rnd.randint(0, 3))]
                rnd.shuffle(rows)
                lifted = [[x + (bound - x) // p * p if p > 2 else x for x in row] for row in rows]
                packed = [sum(x << c * width for c, x in enumerate(row)) for row in lifted]
                assert packed_rank(packed, p, bound) == rank_mod_p(
                    [dict(enumerate(row)) for row in rows], p)

    def test_entry_past_the_bound_is_an_error(self):
        # a reduction that leaves its pivot's column nonzero would repeat for
        # ever, as it did on these rows before the check; it must stop with the
        # error, in a child so that a hang is seen
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", NARROW_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith(
            "ValueError: packed_rank: an entry passed the bound ")


class TestChiEstimate:
    def test_free_group_all_ratios_one(self):
        est = chi_p_estimate(FREE2, 2, budget=budget(6))
        assert est.best.ratio == 1
        assert all(s.ratio == 1 for s in est.samples)
        assert est.best is est.samples[0]  # the first sample of the largest ratio
        # the count examined: the whole group, then each kernel but the trivial one
        assert len(est.samples) == len(list(enumerate_quotients(FREE2, budget=budget(6))))
        assert not est.exhausted

    def test_surface_group_capped_by_volume(self):
        surface = standard_presentation(FuchsianSignature(2))
        est = chi_p_estimate(surface, 2, budget=budget(4))
        assert est.samples[0].index == 1
        assert est.samples[0].ratio == 2
        assert all(s.ratio <= volume(FuchsianSignature(2)) for s in est.samples)
        assert est.best.ratio == 2

    def test_zero_deficiency_example(self):
        pres = parse_presentation("< x,y,z | x^2,y^4,z^4,x*y*z >")
        est = chi_p_estimate(pres, 2, budget=budget(4))
        assert est.best.ratio >= 0

    def test_monotone_in_budget(self):
        pres = parse_presentation("< x, y | x^2, y^2 >")
        small = chi_p_estimate(pres, 2, budget=budget(2))
        large = chi_p_estimate(pres, 2, budget=budget(8))
        assert large.best.ratio >= small.best.ratio

    def test_exhaustion_reported(self):
        est = chi_p_estimate(FREE2, 2, budget=SearchBudget(max_order=6, max_assignments=5))
        assert est.exhausted


class TestGradientWindow:
    def test_free_group_ratios(self):
        window = gradient_window(FREE2, 2, budget=budget(6))
        for s in window.samples:
            # a free subgroup of index n has rank 1 + n
            assert s.value == 1 + s.index if s.index > 1 else s.value == 2
            if s.index > 1:
                assert s.ratio == Fraction(s.index + 1, s.index)
        assert window.best.ratio == 2  # the index-1 sample: d_2(F_2) = 2

    def test_dihedral_kernel(self):
        dinf = parse_presentation("< x, y | x^2, y^2 >")
        window = gradient_window(dinf, 2, budget=budget(2))
        # the kernel generated by xy is infinite cyclic: d_2 = 1 at index 2
        assert any(s.index == 2 and s.value == 1 and s.ratio == Fraction(1, 2)
                   for s in window.samples)


@pytest.mark.parametrize("search", [chi_p_estimate, gradient_window])
def test_samples_keep_no_quotient(search):
    """A sample names its kernel's quotient in text and keeps no
    ``FiniteQuotient`` or ``CatalogKernel``; only a ``PowerWitness`` holds a
    kernel, as its certificate."""
    window = search(parse_presentation("< x, y | x^2, y^3 >"), 2, budget=budget(12))
    assert len(window.samples) > 3
    for s in window.samples:
        assert not any(isinstance(v, (FiniteQuotient, CatalogKernel)) for v in s)
        assert type(s.description) is str


def test_searches_close_no_kernel_on_the_default_catalog(monkeypatch):
    """On the default catalog the search tries only generating images and
    deduplicates nothing, so ``chi``, ``gradient`` and ``witness`` read
    each index off the kernel's group and close no image; a manifest keeps
    the dedup, which closes every leaf."""
    pres = parse_presentation("< x, y | x^2, y^3 >")
    chi_p_estimate(pres, 2, budget=budget(24))  # the groups' maximal subgroups are closed once
    closures = []
    close = search_module._close_images

    def counted(*args):
        closures.append(args[1])
        return close(*args)

    monkeypatch.setattr(search_module, "_close_images", counted)
    for search in (chi_p_estimate, gradient_window):
        assert len(search(pres, 2, budget=budget(24)).samples) > 5
    witness = find_power_witness(parse_presentation("< x, y | x^6, y^12, (x*y)^12 >"), 2,
                                 budget=budget(24))
    assert witness is not None and closures == []
    chi_p_estimate(pres, 2, parse_catalog_manifest("S3 3 (1 2 3) (1 2)"), budget(6))
    assert closures


class TestQuotientDpDrop:
    def test_square_imposes_no_condition(self):
        report = quotient_dp_drop(FREE2, [FREE2.word("x^2")], 2)
        assert (report.d_before, report.d_after, report.ell) == (2, 2, 0)
        assert report.holds

    def test_fourth_power(self):
        report = quotient_dp_drop(FREE2, [FREE2.word("x^4")], 2)
        assert report.ell == 0
        assert report.d_after == report.d_before == 2

    def test_full_kill(self):
        report = quotient_dp_drop(FREE2, [FREE2.word("x"), FREE2.word("y")], 2)
        assert (report.d_before, report.d_after, report.ell) == (2, 0, 2)
        assert report.holds

    def test_identity_words_ignored(self):
        report = quotient_dp_drop(FREE2, [Word.identity(2)], 2)
        assert report.ell == 0
        assert report.d_after == report.d_before

    def test_alphabet_checked(self):
        with pytest.raises(ValueError):
            quotient_dp_drop(FREE2, [Word.identity(3)], 2)


class TestPowerWitness:
    def test_demo_instance(self):
        pres = parse_presentation("< x, y | x^6, y^12, (x*y)^12 >")
        witness = find_power_witness(pres, 2, budget=budget(12))
        assert witness is not None
        assert witness.exponent % 2 == 1 and witness.exponent > 1
        assert witness.subgroup_deficiency > 0
        assert witness.index > 1
        # the certificate: the witness's kernel, whose quotient kills every
        # relator and keeps the root alive
        assert isinstance(witness.quotient, CatalogKernel)
        q = witness.quotient.quotient()
        assert kernel_index(q, pres) == witness.index
        assert q.walk(witness.root.runs) != 0

    def test_no_witness_when_roots_are_p_powers(self):
        pres = parse_presentation("< x,y,z | x^2,y^4,z^4,x*y*z >")
        witness = find_power_witness(pres, 2, budget=budget(8, 100_000))
        assert witness is None

    def test_powered_up_relators_yield_witness(self):
        pres = power_up(parse_presentation("< x,y,z | x^2,y^4,z^4,x*y*z >"), 3)
        witness = find_power_witness(pres, 2, budget=budget(12))
        assert witness is not None
        assert witness.exponent == 3

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError, match="zero p-deficiency"):
            find_power_witness(FREE2, 2)
