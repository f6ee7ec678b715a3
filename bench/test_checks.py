"""Fast tests of the benchmark's own checks on small known cases.

    python3 -m pytest -q bench
"""

import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pdeficiency import cli  # noqa: E402
from workloads import CheckError, Pres  # noqa: E402


def cli_execute(args):
    return run.Runner(cli).execute(args)


# -- oracle --------------------------------------------------------------------


def test_free_group_rank_two_has_three_kernels_onto_c2():
    assert oracle.kernel_count(2, [], 2) == 3


def test_free_group_rank_two_normal_subgroups_up_to_index_four():
    # index 2: 3, index 3: 4, index 4: 6 cyclic + 1 Klein
    assert oracle.kernel_count(2, [], 4) == 14


def test_integers_have_one_kernel_per_cyclic_group():
    assert oracle.kernel_count(1, [], 12) == 11


def test_automorphism_group_orders():
    orders = {g.name: g.automorphisms for g in oracle.catalog_groups()}
    assert orders["S4"] == 24 and orders["A4"] == 24 and orders["D4"] == 8
    assert orders["C3xC3"] == 48 and orders["C5xC5"] == 480 and orders["C12"] == 4


def test_roots_and_deficiency():
    x, y = 1, 2
    assert oracle.root_exponent([x] * 6) == 6
    assert oracle.root_exponent([y, x] * 3) == 3
    assert oracle.root_exponent([y, -x] + [x, y] * 4 + [x, -y]) == 4
    # < x, y | x^2, y^5, (x*y)^5 > at p = 2
    assert oracle.p_deficiency(2, [[x] * 2, [y] * 5, [x, y] * 5], 2) == Fraction(-3, 2)
    assert not oracle.is_primitive_core([x, y, x, y])
    assert oracle.is_primitive_core([x, y, -x, -y])


def test_miller_rabin_agrees_with_trial_division():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(5000) if oracle.is_prime(n)] == [n for n in range(5000) if slow(n)]


def test_abelian_invariants_by_minors():
    assert workloads.abelian_invariants(Pres("xy", [[1] * 2, [2] * 4])) == (0, [2, 4])
    assert workloads.abelian_invariants(Pres("xy", [[1, 2, -1, -2]])) == (2, [])
    assert workloads.abelian_invariants(Pres("xy", [[1] * 6, [1] * 4 + [2] * 2])) == (0, [2, 6])


def test_riemann_hurwitz_on_psl27_kernels():
    assert oracle.kernel_signature(2, [], [], 168) == (169, [])
    assert oracle.kernel_abelianization(169, [], 2)["rank"] == 338
    assert oracle.kernel_signature(0, [2, 3, 7], [2, 3, 7], 168) == (3, [])
    g, periods = oracle.kernel_signature(0, [2, 3, 8], [2, 3, 4], 24)
    assert (g, periods) == (0, [2] * 6)
    assert oracle.kernel_abelianization(g, periods, 2) == {"rank": 0, "d_p": 5, "torsion": 32}


def test_disguise_keeps_the_group():
    rng = random.Random(7)
    pres = workloads.von_dyck(2, 4, 8)
    for _ in range(3):
        other = workloads.disguise(rng, pres)
        assert oracle.kernel_count(2, other.relators, 8) == oracle.kernel_count(2, pres.relators, 8)
        assert workloads.abelian_invariants(other) == workloads.abelian_invariants(pres)


# -- checks against the program --------------------------------------------------


def test_psl27_kernels_through_the_program():
    rng = random.Random(1)
    for slot in workloads.KERNEL_SLOTS[:2]:
        job = workloads.KernelJob(rng, *slot, p=2)
        job.run(cli_execute)
    assert (job.sub_genus, job.sub_periods) == (169, [])


def test_every_workload_passes_one_round_of_checks():
    for name in ("search", "words"):
        for job in workloads.WORKLOADS[name](random.Random(3)):
            job.run(cli_execute)


def test_search_checks_catch_a_wrong_kernel_count():
    job = workloads.SearchJob("chi", 2, workloads.von_dyck(2, 4, 5), 24)
    out = cli_execute(job.args)
    job._check_chi(out)
    out["subgroups_examined"] += 1
    out["samples"].append(dict(out["samples"][-1]))
    with pytest.raises(CheckError, match="Hall"):
        job._check_chi(out)


def test_search_checks_catch_broken_supermultiplicity():
    job = workloads.SearchJob("chi", 2, workloads.von_dyck(2, 4, 5), 24)
    out = cli_execute(job.args)
    out["samples"][-1]["deficiency"] = "-100/1"
    with pytest.raises(CheckError, match="supermultiplicity"):
        job._check_chi(out)


def test_surface_gradient_check_catches_a_wrong_dp():
    job = workloads.SearchJob("gradient", 2, workloads.surface(2), 2, surface_genus=2)
    out = cli_execute(job.args)
    job._check_gradient(out)
    out["samples"][1]["d_p"] += 1
    out["samples"][1]["ratio"] = f"{out['samples'][1]['d_p']}/{out['samples'][1]['index']}"
    with pytest.raises(CheckError, match="surface kernel"):
        job._check_gradient(out)


def test_words_check_catches_a_wrong_deficiency():
    rng = random.Random(5)
    u = workloads.random_core(rng, 2, 8)
    job = workloads.WordsJob("def", 2, 2, [([], u, 12)], literal=False)
    out = cli_execute(job.args)
    job.run(lambda args: out)
    assert job.de == Fraction(1) - Fraction(1, 4)
    out["p_deficiency"] = "0/1"
    with pytest.raises(CheckError, match="de_p"):
        job.run(lambda args: out)


def test_generating_tuple_satisfies_the_relations():
    rng = random.Random(11)
    elements = oracle.closure(workloads.TARGETS["A5"])
    images = workloads.generating_tuple(rng, 0, (2, 5, 10), (2, 5, 5), elements)
    assert [oracle.porder(x) for x in images] == [2, 5, 5]
    assert oracle.image(images, [1, 2, 3]) == tuple(range(5))
    assert len(oracle.closure(images)) == 60


def test_quotient_text_round_trip():
    perms = [(1, 0, 2, 3), (0, 2, 3, 1), (0, 1, 2, 3)]
    text = ",".join(f"{n}:{oracle.cycle_text(x)}" for n, x in zip("abc", perms))
    assert text == "a:(1 2),b:(2 3 4),c:()"
    assert workloads.quotient_perms(text, "abc") == perms
