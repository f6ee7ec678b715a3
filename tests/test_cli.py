import importlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pdeficiency import cli, invariants, verification, words
from pdeficiency.cli import main
from pdeficiency.invariants import chi_p_estimate
from pdeficiency.presentation import parse_presentation
from pdeficiency.quotient import (
    SearchBudget, default_catalog, describe_quotient, enumerate_quotients,
    parse_catalog_manifest,
)
from pdeficiency.verification import (
    CheckOutcome, _random_presentation, _random_word, centralizer_index,
    supermultiplicity_check,
)
from pdeficiency.words import nu_p_int
from test_quotient import closure_by_permutation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDef:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "def", "-p", "2", "< x, y, z | x^2=y^4=z^4=x*y*z=1 >")
        assert code == 0
        assert "de_2(presentation) = 0/1" in out
        assert "group de_2 in [0/1, 1/4]" in out

    def test_free(self, capsys):
        code, out, _ = run(capsys, "def", "-p", "2", "< x, y | >")
        assert code == 0
        assert "de_2(presentation) = 1/1" in out
        assert "[1/1, 1/1]" in out

    def test_interval(self, capsys):
        code, out, _ = run(capsys, "def", "-p", "2", "< x, y | x^2=y^5=(x*y)^5=1 >")
        assert code == 0
        assert "de_2(presentation) = -3/2" in out
        assert "[-3/2, -1/1]" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "def", "-p", "2", "< x | x^4 >", "--json")
        payload = json.loads(out)
        assert payload["p_deficiency"] == "-1/4"
        assert payload["abelian_invariants"] == {"rank": 0, "divisors": [4]}

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "def", "-p", "3", "< x | x^9 >", "-o", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["p_deficiency"] == "-1/9"

    def test_huge_power(self, capsys):
        code, out, err = run(capsys, "def", "-p", "2", "< x | x^300000000 >")
        assert (code, err) == (0, "")
        assert "de_2(presentation) = -1/256" in out
        assert "group de_2 in [-1/256, -1/256]" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "def", "-p", "2", "< x | q >")
        assert code == 1
        assert "unknown generator" in err

    def test_bad_prime(self, capsys):
        code, _, err = run(capsys, "def", "-p", "6", "< x | x^2 >")
        assert code == 1
        assert "prime" in err


class TestAbdef:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "abdef", "-p", "2", "< x, y | x^2*y^2, x^4 >")
        assert code == 0
        assert "rank 0" in out
        assert "[2, 4]" in out
        assert "d_2 = 2" in out


class TestSubgroup:
    def test_quotient_spec(self, capsys):
        code, out, _ = run(
            capsys, "subgroup", "-p", "2", "< x, y | x^2, y^2 >",
            "--quotient", "x:(1 2),y:(1 2)",
        )
        assert code == 0
        assert "< a, b, c | a, b*c >" in out
        assert "supermultiplicity holds: True" in out

    def test_hom_cyclic(self, capsys):
        code, out, _ = run(
            capsys, "subgroup", "-p", "2", "< x, y | x^2, y^5, (x*y)^5 >",
            "--hom-cyclic", "5", "0,1",
        )
        assert code == 0
        assert "index = 5" in out
        assert "de_2(subgroup) = 1/2" in out

    @pytest.mark.parametrize("modulus, exps", [
        ("5", "0,1"), ("12", "4,6"), ("7", "0,0"), ("10", "-3,15"), ("6", "8"), ("9", "3,6,0"),
    ])
    def test_hom_cyclic_tables_match_the_closure(self, modulus, exps):
        # the quotient of --hom-cyclic, shifts of Z/Q closed on one point,
        # has the elements and tables of the closure that keys each element
        # by its whole permutation, also when the exponents generate a
        # proper subgroup of Z/Q or none of it
        names = ("x", "y", "z")[:len(exps.split(","))]
        q = cli._hom_cyclic(modulus, exps, names)
        n = int(modulus)
        assert q.images == tuple(tuple((i + int(e)) % n for i in range(n)) for e in exps.split(","))
        assert (q.elements, q.tables) == closure_by_permutation(q.images)

    @pytest.mark.parametrize("spec, out", [
        ("x:(1,2),y:(1 3)", "quotient: x:(1 2), y:(1 3)\n"),
        ("x:(1 2)(3 4),", "quotient: x:(1 2)(3 4), y:()\n"),
    ])
    def test_quotient_spec_splits_outside_parentheses(self, capsys, spec, out):
        code, text, _ = run(capsys, "subgroup", "-p", "2", "< x, y | x^2 >", "--quotient", spec)
        assert code == 0 and out in text

    @pytest.mark.parametrize("spec, message", [
        ("x:(1 2)),y:(1 3)", "unbalanced parenthesis in 'x:(1 2)),y:(1 3)'"),
        ("x:(1 2),,y:(1 3)", "invalid quotient entry ''; expected name:(cycles)"),
        ("x:(1 2", "unbalanced parenthesis in '(1 2'"),
        # a digit that int() does not read is no point
        ("x:(1 ²)", "invalid point '²' in '(1 ²)'"),
    ])
    def test_quotient_spec_errors(self, capsys, spec, message):
        assert run(capsys, "subgroup", "-p", "2", "< x, y | x^2 >", "--quotient", spec) == (
            1, "", f"error: {message}\n")

    def test_requires_quotient(self, capsys):
        code, _, err = run(capsys, "subgroup", "-p", "2", "< x | x^2 >")
        assert code == 1
        assert "quotient" in err

    @pytest.mark.parametrize("order, exps, message", [
        ("abc", "1", "--hom-cyclic order Q must be an integer, got 'abc'"),
        ("2", "0,a", "--hom-cyclic exponent 2 must be an integer, got 'a'"),
    ])
    def test_hom_cyclic_not_an_integer(self, capsys, order, exps, message):
        for command in ("subgroup", "psize"):
            assert run(capsys, command, "-p", "2", "< x, y | x^2 >",
                       "--hom-cyclic", order, exps) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("p, text", [
        (2, "< x, y | x^2, y^5, (x*y)^5 >"),
        (2, "< x, y | x^2, y^3, (x*y)^4 >"),
        (2, "< x, y | x^6, y^12, (x*y)^12 >"),
        (2, "< x, y | x^2, y^2 >"),
        (3, "< x, y | x^3, y^3, (x*y)^3 >"),
        (3, "< x, y | x^2*y^3 >"),
    ])
    def test_chi_descriptions_round_trip(self, capsys, p, text):
        # each kernel's description is a --quotient that gives back its
        # index and its de_p
        pres = parse_presentation(text)
        est = chi_p_estimate(pres, p, budget=SearchBudget(max_order=12))
        assert len(est.samples) > 1
        for s in est.samples[1:]:
            code, out, _ = run(capsys, "subgroup", "-p", str(p), text,
                               "--quotient", s.description, "--json")
            report = json.loads(out)
            assert code == 0 and report["index"] == s.index
            assert Fraction(report["de_subgroup"]) == s.value

    def test_relators_must_die(self, capsys):
        code, _, err = run(
            capsys, "subgroup", "-p", "2", "< x | x^2 >", "--quotient", "x:(1 2 3)"
        )
        assert code == 1
        assert "not killed" in err

    def test_naive_flag(self, capsys):
        code, out, _ = run(
            capsys, "subgroup", "-p", "2", "< x, y | x^2, y^2 >",
            "--quotient", "x:(1 2),y:(1 2)", "--naive", "--json",
        )
        payload = json.loads(out)
        assert payload["naive"] is True

    def test_unkilled_relator_before_bad_prime(self, capsys):
        # the quotient is checked before p, which is checked after rewriting
        assert run(capsys, "subgroup", "-p", "4", "< x | x^2 >", "--quotient", "x:(1 2 3)") \
            == (1, "", "error: relators are not killed by the quotient\n")

    def test_report_matches_rewriting(self, capsys):
        """``subgroup`` reads de_p of the kernel off the transfer formula; the
        refined presentation's p-deficiency, taken off the maximal roots of
        its rewritten relators, gives the same report, with and without
        ``--naive``.  Half the presentations have a relator c*u^m*c^-1, so
        that p divides many of the orders k of the relator roots' images."""
        rng = random.Random(0x5EED13)
        cases = divisible = 0
        for i in range(40):
            pres = _random_presentation(rng, max_relators=2, max_len=8, min_relators=0)
            if i % 2 == 0:
                u = _random_word(rng, pres.n_gens, rng.randint(1, 3))
                c = _random_word(rng, pres.n_gens, rng.randint(0, 2))
                power = (u ** rng.choice((2, 3, 4, 6, 8, 9, 12))).conjugated_by(c)
                pres = pres.with_relators(pres.relators + (power,))
            kernels = enumerate_quotients(pres, budget=SearchBudget(12, 3000))
            for kernel in itertools.islice((k for k in kernels if k.order > 1), 15):
                q = kernel.quotient()
                spec = describe_quotient(q, pres)
                ks = [centralizer_index(q, r) for r in pres.relators]
                for p in (2, 3, 5):
                    report = supermultiplicity_check(pres, q, p)
                    want = (report.de_sub, report.scaled, report.holds)
                    for naive in ((), ("--naive",)):
                        code, out, err = run(capsys, "subgroup", "-p", str(p), pres.to_text(),
                                             "--quotient", spec, *naive, "--json")
                        assert (code, err) == (0, "")
                        got = json.loads(out)
                        assert (Fraction(got["de_subgroup"]), Fraction(got["scaled"]),
                                got["holds"]) == want, (pres.to_text(), spec, p, naive)
                    cases += 1
                    divisible += sum(1 for k in ks if nu_p_int(k, p))
        assert cases >= 500 and divisible >= 40


class TestPsize:
    def test_prop_instance(self, capsys):
        code, out, _ = run(
            capsys, "psize", "-p", "2", "< x, y | x^2, y^5, (x*y)^5 >",
            "--hom-cyclic", "5", "0,1",
        )
        assert code == 0
        assert "transfer bound = 9/2" in out
        assert "exact rewritten p-size = 9/2" in out


class TestFuchsian:
    def test_triangle(self, capsys):
        code, out, _ = run(capsys, "fuchsian", "-p", "2", "(0; 6,12,12)")
        assert code == 0
        assert "volume = 2/3" in out
        assert "case: d" in out
        assert "de_2(group) = 0/1 exactly" in out

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "fuchsian", "-p", "2", "(0; 2,3,7)")
        assert code == 0
        assert "case: none" in out
        assert "negative" in out

    def test_invalid_signature(self, capsys):
        code, _, err = run(capsys, "fuchsian", "-p", "2", "(1;)")
        assert code == 1
        assert "hyperbolic" in err


class TestSingerman:
    def test_444(self, capsys):
        code, out, _ = run(
            capsys, "singerman", "(0; 4,4,4)",
            "--action", "x1:(1 2),x2:(1 2),x3:()",
        )
        assert code == 0
        assert "transferred signature: (0; 2,2,4,4)" in out

    def test_no_degree_flag(self, capsys):
        # the action's degree is its largest named point
        with pytest.raises(SystemExit) as exc:
            main(["singerman", "(1; 2)", "--action", "x1:(),u1:(1 2)(3 4),v1:(1 3)(2 4)",
                  "--degree", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --degree 4" in capsys.readouterr().err


class TestSearchCommands:
    def test_chi(self, capsys):
        code, out, _ = run(
            capsys, "chi", "-p", "2", "< x, y | >", "--max-order", "4"
        )
        assert code == 0
        assert "best ratio de/index = 1/1" in out

    def test_gradient(self, capsys):
        code, out, _ = run(
            capsys, "gradient", "-p", "2", "< x, y | x^2, y^2 >", "--max-order", "2"
        )
        assert code == 0
        assert "1/2" in out

    def test_witness_found(self, capsys):
        code, out, _ = run(
            capsys, "witness", "-p", "2", "< x, y | x^6, y^12, (x*y)^12 >",
            "--max-order", "12",
        )
        assert code == 0
        assert "witness: relator" in out
        assert "> 0" in out

    def test_witness_none(self, capsys):
        code, out, _ = run(
            capsys, "witness", "-p", "2", "< x, y, z | x^2, y^4, z^4, x*y*z >",
            "--max-order", "4",
        )
        assert code == 0
        assert "no witness found" in out

    def test_catalog_file(self, capsys, tmp_path):
        manifest = tmp_path / "groups.txt"
        manifest.write_text("C2 2 (1 2)\n")
        code, out, _ = run(
            capsys, "chi", "-p", "2", "< x, y | >",
            "--catalog", str(manifest), "--max-order", "2",
        )
        assert code == 0
        assert "subgroups examined: 4" in out

    @pytest.mark.parametrize("line, message", [
        ("C2 ² (1 2)", "manifest line 1: invalid degree '²'"),
        ("C2 2 (1 ²)", "invalid point '²' in '(1 ²)'"),
    ])
    def test_catalog_file_errors(self, capsys, tmp_path, line, message):
        manifest = tmp_path / "groups.txt"
        manifest.write_text(line + "\n")
        assert run(capsys, "chi", "-p", "2", "< x, y | >", "--catalog", str(manifest)) == (
            1, "", f"error: {message}\n")

    @pytest.mark.parametrize("p, message", [
        ("2", "max_order must be at least 2"),
        ("4", "p must be a prime number, got 4"),  # a bad prime is reported first
    ])
    def test_max_order_below_two(self, capsys, p, message):
        assert run(capsys, "chi", "-p", p, "< x | >", "--max-order", "1") \
            == (1, "", f"error: {message}\n")
        # a negative budget is refused after a bad prime too; a budget of 0 is valid
        negative = message if p == "4" else "max_assignments must be nonnegative"
        assert run(capsys, "chi", "-p", p, "< x | x^2 >", "--max-assignments", "-5") \
            == (1, "", f"error: {negative}\n")
        code, out, _ = run(capsys, "chi", "-p", "2", "< x | x^2 >", "--max-assignments", "0")
        assert code == 0 and "(budget exhausted)" in out

    def test_max_order_caps_the_tables(self, capsys):
        # --max-order is the search's only order cap: no group above it gets
        # search tables or automorphisms built
        default_catalog.cache_clear()
        code, _, _ = run(capsys, "chi", "-p", "2", "< x, y | >", "--max-order", "6")
        assert code == 0
        assert any("search_tables" in vars(g) for g in default_catalog())
        for g in default_catalog():
            if g.order > 6:
                assert "search_tables" not in vars(g) and "automorphisms" not in vars(g)


def run_python(*args, **options):
    """A child interpreter with this checkout's ``src`` on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          **options)


def run_child(*argv, **options):
    """``pdef`` with these arguments in a child process."""
    return run_python("-m", "pdeficiency.cli", *argv, **options)


STARTUP_SCRIPT = """
import contextlib, io, sys
from pdeficiency import cli
pres = "< x, y | x^2, y^5, (x*y)^5 >"
for argv in (["def", "-p", "2", pres], ["abdef", "-p", "2", pres],
             ["chi", "-p", "2", pres, "--max-order", "6"],
             ["psize", "-p", "2", pres, "--hom-cyclic", "5", "0,1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(*(m for m in ("dataclasses", "inspect", "pdeficiency.verification") if m in sys.modules))
from pdeficiency import upper_bound_de
print(upper_bound_de.__module__)
"""


def test_verify_loads_no_dataclasses():
    """``verify`` builds its reports as records too: checking the estimates
    imports neither ``dataclasses`` nor ``inspect``."""
    proc = run_python("-c", """
import contextlib, io, sys
from pdeficiency import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--only", "chi"]) == 0
print(*(m for m in ("dataclasses", "inspect") if m in sys.modules))
""", timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "\n")


def test_startup_loads_no_oracles():
    """Each command's start-up imports neither the oracles of
    ``verification`` nor ``dataclasses`` and the ``inspect`` it pulls in,
    which together took longer to import than a typical command runs.  The
    oracle-only names stay importable from the package, which loads
    ``verification`` on their first use."""
    proc = run_python("-c", STARTUP_SCRIPT, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "\npdeficiency.verification\n"


# Each module's names that the package exports: those it exported before it
# became lazy, with the kernel-sample records renamed.
PACKAGE_EXPORTS = {
    "abelian": ["AbelianInvariants", "IntMatrix", "abelian_invariants",
                "abelian_p_deficiency_group", "abelian_p_deficiency_presentation", "d_p",
                "exponent_columns", "smith_normal_form"],
    "fuchsian": ["DeficiencyResult", "EllipticAction", "FuchsianSignature", "classify",
                 "de_exact", "de_standard", "de_upper", "parse_signature",
                 "singerman_transfer", "standard_presentation", "volume"],
    "invariants": ["KernelSample", "KernelWindow", "SizeBound", "chi_p_estimate",
                   "gradient_window", "find_power_witness", "p_size_bound"],
    "presentation": ["FinitePresentation", "ParseError", "PresentationError", "p_deficiency",
                     "parse_presentation", "parse_word", "power_up", "word_to_text"],
    "quotient": ["CatalogGroup", "FiniteQuotient", "SearchBudget", "default_catalog",
                 "enumerate_quotients", "kernel_index", "parse_catalog_manifest"],
    "rewrite": ["SchreierData", "basis_words", "rewrite_word", "schreier",
                "subgroup_presentation"],
    "words": ["RootDecomposition", "Valuation", "Word", "maximal_root", "nu_p", "nu_p_int",
              "p_prime_root"],
    "verification": ["centralizer_index", "conjugate_class_reps", "evaluate",
                     "exponent_matrix", "is_quotient_of", "kernel_construction",
                     "order_of_image", "p_prime_root_presentation", "quotient_dp_drop",
                     "supermultiplicity_check", "upper_bound_de"],
}


def test_package_exports():
    """``__all__``, ``dir`` and a star import list every exported name, and
    each name is its home module's object."""
    import pdeficiency

    names = {name for names in PACKAGE_EXPORTS.values() for name in names}
    assert len(pdeficiency.__all__) == len(names) == 64
    assert set(pdeficiency.__all__) == names
    assert names <= set(dir(pdeficiency))
    namespace = {}
    exec("from pdeficiency import *", namespace)
    assert set(namespace) - {"__builtins__"} == names
    for module, exported in PACKAGE_EXPORTS.items():
        home = importlib.import_module(f"pdeficiency.{module}")
        for name in exported:
            assert getattr(pdeficiency, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="has no attribute 'cycles_to_perm'"):
        pdeficiency.cycles_to_perm


MODULES_SCRIPT = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv:
    from pdeficiency import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
else:
    import pdeficiency
print(" ".join(sorted(m.removeprefix("pdeficiency.") for m in sys.modules
                      if m.partition(".")[0] == "pdeficiency")))
"""

KERNEL_ARGV = ["-p", "2", "< x, y | x^2, y^5, (x*y)^5 >", "--hom-cyclic", "5", "0,1"]
SEARCH_ARGV = ["-p", "2", "< x, y | x^6, y^12, (x*y)^12 >", "--max-order", "6"]
WORDS_MODULES = "abelian cli pdeficiency presentation words"
SEARCH_MODULES = "abelian cli invariants pdeficiency presentation quotient words"
FUCHSIAN_MODULES = "cli fuchsian pdeficiency presentation quotient words"


@pytest.mark.parametrize("argv, modules", [
    ([], "pdeficiency"),
    (["def", *SEARCH_ARGV[:3]], WORDS_MODULES),
    (["abdef", *SEARCH_ARGV[:3]], WORDS_MODULES),
    (["chi", *SEARCH_ARGV], SEARCH_MODULES),
    (["gradient", *SEARCH_ARGV], SEARCH_MODULES),
    (["witness", *SEARCH_ARGV], SEARCH_MODULES),
    (["psize", *KERNEL_ARGV], SEARCH_MODULES),
    (["subgroup", *KERNEL_ARGV],
     "abelian cli invariants pdeficiency presentation quotient rewrite words"),
    (["fuchsian", "-p", "2", "(0; 6,12,12)"], FUCHSIAN_MODULES),
    (["singerman", "(0; 4,4,4)", "--action", "x1:(1 2),x2:(1 2),x3:()"], FUCHSIAN_MODULES),
], ids=lambda v: v[0] if isinstance(v, list) and v else None)
def test_command_loads_only_its_modules(argv, modules):
    """A bare ``import pdeficiency`` loads no submodule, and each command
    loads the modules it runs and no other."""
    proc = run_python("-c", MODULES_SCRIPT, json.dumps(argv), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == modules + "\n"


@pytest.mark.parametrize("argv", [
    ["def"], ["chi", "--max-order", "6"], ["gradient", "--max-order", "6"],
])
def test_huge_power_in_bounded_memory(argv):
    """A two-run relator with a huge exponent: its root comes from its runs
    and the kernel invariants from the coset table, so each command reports
    within a 1.5 GB address space, in a child process that cannot take more."""
    limit = 1500 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    command, *options = argv
    proc = run_child(command, "-p", "2", "< x, y | x^300000000*y >", *options,
                     preexec_fn=cap, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("presentation: < x, y | x^300000000*y >\n")


def capped_child(*argv):
    """``pdef`` in a child process with a 1.5 GB address space."""
    limit = 1500 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return run_child(*argv, preexec_fn=cap, timeout=120)


@pytest.mark.parametrize("command, line", [
    ("subgroup", "subgroup presentation: < a | a^150000000 >\n"),
    ("psize", "  relator 0: k=2 classes=1 nu_F=8 nu_p(k)=1 term=1/128 "
              "rewritten valuations=[7]\n"),
], ids=["subgroup", "psize"])
def test_huge_power_rewritten_by_runs(command, line):
    """Rewriting walks runs, so ``subgroup`` turns x^300000000 into the one
    run a^150000000 without its letters being written out; ``psize`` reads
    the valuation of that run off the transfer formula."""
    proc = capped_child(command, "-p", "2", "< x | x^300000000 >", "--hom-cyclic", "2", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert line in proc.stdout


@pytest.mark.parametrize("argv, message", [
    (["def", "-p", "2", "< x, y | (x*y)^300000000 >"],
     "error: power would have more than 1000000 runs (at position 15)\n"),
    (["subgroup", "-p", "2", "< x, y | x^600000000, y^2, (x*y)^2 >",
      "--quotient", "x:(1 2),y:(3 4)"],
     "error: the rewritten word would have more than 1000000 runs\n"),
], ids=["parse", "rewrite"])
def test_run_limit_is_an_error(argv, message):
    proc = capped_child(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


GROWTH_SCRIPT = """
import resource, sys
from pdeficiency import cli
with open("/proc/self/statm") as f:
    size = int(f.read().split()[0]) * resource.getpagesize()
limit = size + int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
@pytest.mark.parametrize("allowance, presentation, options, text", [
    # 26,345 kernels: about 8 MB, 12 MB with a bytes dedup key per kernel,
    # and 33 MB with a tuple of tuples per kernel
    (11, "< a,b,c,d | >", [],
     "presentation: < a, b, c, d | >\n"
     "subgroups examined: 26346\n"
     "best ratio de/index = 3/1 at index 1 (index 1)\n"
     "-chi_2 >= 3/1\n"),
    # 56,254 kernels: about 22 MB, 25 MB with bytes keys, 61 MB with tuples
    (24, "< a,b,c,d,e | >", ["--max-assignments", "300000"],
     "presentation: < a, b, c, d, e | >\n"
     "subgroups examined: 56255 (budget exhausted)\n"
     "best ratio de/index = 4/1 at index 1 (index 1)\n"
     "-chi_2 >= 4/1\n"),
], ids=["4-generators", "5-generators"])
def test_search_memory(allowance, presentation, options, text):
    """A free-group search may grow the child's address space by at most
    ``allowance`` MB past its size once ``cli`` is imported: on the
    default catalog the search keeps no dedup set, and ``chi`` one sample
    per kernel."""
    proc = run_python("-c", GROWTH_SCRIPT, str(allowance), "chi", "-p", "2", presentation,
                      "--max-order", "24", *options, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")


C5000 = " ".join(map(str, range(1, 5001)))


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
@pytest.mark.parametrize("option", [["--hom-cyclic", "5000", "1"], ["--quotient", f"x:({C5000})"]],
                         ids=["hom-cyclic", "quotient"])
@pytest.mark.parametrize("command, line", [
    ("psize", "  relator 0: k=5000 classes=1 nu_F=3 nu_p(k)=3 term=1/1 "
              "rewritten valuations=[0]\n"),
    ("subgroup", "subgroup presentation: < a | a >\n"),
], ids=["psize", "subgroup"])
def test_explicit_quotient_memory(command, line, option):
    """The image of x, a 5000-cycle, commutes with itself, so its closure
    keys each element by its image of one point, the first of its orbit.
    Keyed by all 5000 points, one tuple per element, it took about 200 MB.
    Each command may grow the child by at most 20 MB."""
    proc = run_python("-c", GROWTH_SCRIPT, "20", command, "-p", "2", "< x | x^5000 >",
                      *option, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "index = 5000\n" in proc.stdout and line in proc.stdout


def test_psize_past_the_run_limit():
    """``psize`` reads its valuations off the transfer formula and rewrites
    nothing, so the input whose rewriting is refused above has a report."""
    proc = capped_child("psize", "-p", "2", "< x, y | x^600000000, y^2, (x*y)^2 >",
                        "--quotient", "x:(1 2),y:(3 4)")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "rewritten valuations=[8, 8]\n" in proc.stdout
    assert proc.stdout.endswith("exact rewritten p-size = 513/128\n")


C31 = " ".join(map(str, range(1, 32)))
C31_C31 = " ".join(map(str, range(32, 63)))


@pytest.mark.parametrize("manifest, presentation, max_order, text", [
    # E32: 31^5 candidate generator images, 9,999,360 automorphisms
    ("E32 10 (1 2) (3 4) (5 6) (7 8) (9 10)", "< x, y | x^2, y^2 >", "32",
     "presentation: < x, y | x^2, y^2 >\n"
     "subgroups examined: 5\n"
     "best ratio de/index = 0/1 at index 1 (index 1)\n"
     "-chi_2 >= 0/1\n"),
    # C31xC31: 892,800 automorphisms
    (f"C31xC31 62 ({C31}) ({C31_C31})", "< x | x^31 >", "961",
     "presentation: < x | x^31 >\n"
     "subgroups examined: 2\n"
     f"best ratio de/index = -1/31 at index 31 (x:({C31}))\n"
     "-chi_2 >= -1/31\n"),
], ids=["E32", "C31xC31"])
def test_automorphism_guard(tmp_path, manifest, presentation, max_order, text):
    """A manifest group with a huge Aut(H): the search builds a bounded part
    of it and answers in seconds, not minutes, with the same report."""
    catalog = tmp_path / "groups.txt"
    catalog.write_text(manifest + "\n")
    proc = run_child("chi", "-p", "2", presentation, "--max-order", max_order,
                     "--catalog", str(catalog), timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")


@pytest.mark.parametrize("manifest, code, out, err", [
    ("S7 7 (1 2) (1 2 3 4 5 6 7)", 1, "",
     "error: catalog group S7 has order 5040, above the search limit 1000\n"),
    ("S6 6 (1 2) (1 2 3 4 5 6)", 0, "presentation: < x, y | x^2 >\n"
     "subgroups examined: 55\n"
     "best ratio de/index = 1/2 at index 1 (index 1)\n"
     "-chi_2 >= 1/2\n", ""),
], ids=["S7", "S6"])
def test_search_order_limit(tmp_path, manifest, code, out, err):
    """A manifest group within --max-order but above the search limit is
    refused before its |H|^2 multiplication table is built; S6, below the
    limit, is searched."""
    catalog = tmp_path / "groups.txt"
    catalog.write_text(manifest + "\n")
    proc = capped_child("chi", "-p", "2", "< x, y | x^2 >", "--max-order", "10000",
                        "--catalog", str(catalog))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_oversized_manifest_group_is_not_closed(tmp_path):
    """A manifest group whose generator orders have their lcm above
    --max-order is above it too, so the search skips it without its
    closure.  C5000 itself would close on one point, as its generator
    commutes with itself; the guard matters for generators that do not
    commute, whose closure keys every point and costs order times degree
    in time and memory."""
    manifest = f"C2 2 (1 2)\nC5000 5000 ({' '.join(map(str, range(1, 5001)))})\n"
    catalog = tmp_path / "groups.txt"
    catalog.write_text(manifest)
    proc = capped_child("chi", "-p", "2", "< x | >", "--max-order", "2",
                        "--catalog", str(catalog))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "presentation: < x | >\n"
           "subgroups examined: 2\n"
           "best ratio de/index = 0/1 at index 1 (index 1)\n"
           "-chi_2 >= 0/1\n", "")
    c2, c5000 = parse_catalog_manifest(manifest)
    pres = parse_presentation("< x | >")
    assert len(list(enumerate_quotients(pres, (c2, c5000), budget=SearchBudget(max_order=2)))) == 2
    assert c5000._tables is None
    # at a cap its lcm reaches the group is closed, and refused as too large
    with pytest.raises(ValueError, match="C5000 has order 5000, above the search limit"):
        list(enumerate_quotients(pres, (c5000,), budget=SearchBudget(max_order=5000)))


def test_text_output_builds_no_json(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("JSON built for text output")

    monkeypatch.setattr(cli, "_dumps", refuse)
    code, out, _ = run(capsys, "def", "-p", "2", "< x | x^2 >")
    assert code == 0 and out.startswith("presentation: < x | x^2 >\n")


def test_chi_describes_each_kernel_once(capsys, monkeypatch):
    described = []

    def counting(q, pres):
        described.append(q)
        return describe_quotient(q, pres)

    # each sample is described once, as the search builds it; the report
    # reads the witness's description off its sample
    monkeypatch.setattr(invariants, "describe_quotient", counting)
    argv = ("chi", "-p", "2", "< x, y | x^6, y^12, (x*y)^12 >", "--max-order", "8")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "at index 3 (x:(1 2 3), y:(1 2 3))" in out
    assert len(described) == 27
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and len(json.loads(out)["samples"]) == 28
    assert len(described) == 27 + 27


PRIME_ARGV = [
    ("def", "-p", "2", "< x, y | x^2, y^5, (x*y)^5 >"),
    ("abdef", "-p", "2", "< x, y | x^2, y^5, (x*y)^5 >"),
    ("subgroup", "-p", "2", "< x, y | x^2, y^5, (x*y)^5 >", "--hom-cyclic", "5", "0,1"),
    ("psize", "-p", "2", "< x, y | x^2, y^5, (x*y)^5 >", "--hom-cyclic", "5", "0,1"),
    ("fuchsian", "-p", "2", "(0; 6,12,12)"),
    ("chi", "-p", "2", "< x, y | x^2, y^3, (x*y)^7 >", "--max-order", "8"),
    ("gradient", "-p", "2", "< x, y | x^2, y^3, (x*y)^7 >", "--max-order", "8"),
    ("witness", "-p", "2", "< x, y | x^6, y^12, (x*y)^12 >", "--max-order", "12"),
]


@pytest.mark.parametrize("argv", PRIME_ARGV, ids=[a[0] for a in PRIME_ARGV])
def test_prime_tested_a_few_times(capsys, monkeypatch, argv):
    """p is tested on entry, not again per relator, divisor or kernel."""
    calls = []
    real = words.is_prime

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(words, "is_prime", counting)
    assert run(capsys, *argv)[0] == 0
    assert 1 <= len(calls) <= 10


@pytest.mark.parametrize("argv", PRIME_ARGV, ids=[a[0] for a in PRIME_ARGV])
def test_bad_prime_message(capsys, argv):
    argv = (argv[0], "-p", "4") + argv[3:]
    assert run(capsys, *argv) == (1, "", "error: p must be a prime number, got 4\n")


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_values_do_not_leak_between_calls(self, capsys):
        code, out, _ = run(capsys, "chi", "-p", "2", "< x | x^12 >", "--max-order", "6",
                           "--json")
        assert code == 0
        assert json.loads(out)["subgroups_examined"] == 5
        # the default --max-order 24 again, and text output: C12 is searched too
        code, out, _ = run(capsys, "chi", "-p", "2", "< x | x^12 >")
        assert code == 0
        assert "subgroups examined: 6" in out


class TestDegreeBound:
    """A degree is short to type; each of these would build a permutation of
    10^9 points if it were not rejected first."""

    BIG = str(10**9)

    def assert_rejected(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: permutation degree 1000000000 exceeds limit")

    def test_hom_cyclic(self, capsys):
        self.assert_rejected(capsys, "subgroup", "-p", "2", "< x | x^2 >",
                             "--hom-cyclic", self.BIG, "1")

    def test_quotient_point(self, capsys):
        self.assert_rejected(capsys, "psize", "-p", "2", "< x | x^2 >",
                             "--quotient", f"x:(1 {self.BIG})")

    def test_action_degree(self, capsys):
        self.assert_rejected(capsys, "singerman", "(0; 4,4,4)",
                             "--action", f"x1:(1 {self.BIG}),x2:(1 2),x3:()")

    def test_catalog_degree(self, capsys, tmp_path):
        manifest = tmp_path / "groups.txt"
        manifest.write_text(f"C2 {self.BIG} (1 2)\n")
        self.assert_rejected(capsys, "chi", "-p", "2", "< x, y | >",
                             "--catalog", str(manifest), "--max-order", "2")


class TestVerify:
    def test_subset(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "triangle")
        assert code == 0
        assert out.startswith("[PASS] triangle:")
        assert "1/1 criteria passed" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "intro", "--json")
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["criteria"][0]["name"] == "intro_examples"

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nonexistent")
        assert code == 1
        assert "no check matches" in err


# Whole reports, one or more per command: the text is compared line for line
# and the --json output byte for byte (two-space indent, sorted keys).
FULL_OUTPUT = [
    (
        ["def", "-p", "2", "< x, y, z | x^2=y^4=z^4=x*y*z=1 >"],
        """\
presentation: < x, y, z | x^2, y^4, z^4, x*y*z >
de_2(presentation) = 0/1
group de_2 in [0/1, 1/4]  (lower: this presentation; upper: abelianization)
""",
        {
            "abelian_invariants": {"divisors": [2, 4], "rank": 0},
            "command": "def",
            "group_lower": "0/1",
            "group_upper": "1/4",
            "p": 2,
            "p_deficiency": "0/1",
            "presentation": "< x, y, z | x^2, y^4, z^4, x*y*z >",
        },
    ),
    (
        ["abdef", "-p", "2", "< x, y | x^2*y^2, x^4 >"],
        """\
presentation: < x, y | x^2*y^2, x^4 >
abelianization: C2 + C4  (rank 0, divisors [2, 4])
abelian de_2(presentation) = 1/4
abelian de_2(group) = 1/4
d_2 = 2
""",
        {
            "abelian_p_deficiency_group": "1/4",
            "abelian_p_deficiency_presentation": "1/4",
            "command": "abdef",
            "d_p": 2,
            "divisors": [2, 4],
            "p": 2,
            "presentation": "< x, y | x^2*y^2, x^4 >",
            "rank": 0,
        },
    ),
    (
        ["abdef", "-p", "3", "< x, y | x*y*x^-1*y^-1 >"],
        """\
presentation: < x, y | x*y*x^-1*y^-1 >
abelianization: Z^2  (rank 2, divisors [])
abelian de_3(presentation) = 1/1
abelian de_3(group) = 1/1
d_3 = 2
""",
        {
            "abelian_p_deficiency_group": "1/1",
            "abelian_p_deficiency_presentation": "1/1",
            "command": "abdef",
            "d_p": 2,
            "divisors": [],
            "p": 3,
            "presentation": "< x, y | x*y*x^-1*y^-1 >",
            "rank": 2,
        },
    ),
    (
        ["subgroup", "-p", "2", "< x, y | x^2, y^2 >", "--quotient", "x:(1 2),y:(1 2)"],
        """\
presentation: < x, y | x^2, y^2 >
quotient: x:(1 2), y:(1 2)
index = 2
schreier basis:
  a = x^2
  b = y*x^-1
  c = x*y
subgroup presentation: < a, b, c | a, b*c >
de_2(subgroup) = 0/1
index * de_2(presentation) = 0/1
supermultiplicity holds: True
""",
        {
            "basis": {"a": "x^2", "b": "y*x^-1", "c": "x*y"},
            "command": "subgroup",
            "de_presentation": "0/1",
            "de_subgroup": "0/1",
            "holds": True,
            "index": 2,
            "naive": False,
            "p": 2,
            "presentation": "< x, y | x^2, y^2 >",
            "scaled": "0/1",
            "subgroup_presentation": "< a, b, c | a, b*c >",
        },
    ),
    (
        ["psize", "-p", "2", "< x, y | x^2, y^5, (x*y)^5 >", "--hom-cyclic", "5", "0,1"],
        """\
presentation: < x, y | x^2, y^5, x*y*x*y*x*y*x*y*x*y >
index = 5
per-relator transfer terms (k, classes, nu_F, nu_p(k), term):
  relator 0: k=1 classes=5 nu_F=1 nu_p(k)=0 term=5/2 rewritten valuations=[1, 1, 1, 1, 1]
  relator 1: k=5 classes=1 nu_F=0 nu_p(k)=0 term=1/1 rewritten valuations=[0]
  relator 2: k=5 classes=1 nu_F=0 nu_p(k)=0 term=1/1 rewritten valuations=[0]
transfer bound = 9/2
exact rewritten p-size = 9/2
""",
        {
            "command": "psize",
            "contributions": [
                {"classes": 5, "k": 1, "nu_free": 1, "nu_p_k": 0, "relator": 0,
                 "rep_valuations": [1, 1, 1, 1, 1], "term": "5/2"},
                {"classes": 1, "k": 5, "nu_free": 0, "nu_p_k": 0, "relator": 1,
                 "rep_valuations": [0], "term": "1/1"},
                {"classes": 1, "k": 5, "nu_free": 0, "nu_p_k": 0, "relator": 2,
                 "rep_valuations": [0], "term": "1/1"},
            ],
            "exact_sum": "9/2",
            "index": 5,
            "p": 2,
            "presentation": "< x, y | x^2, y^5, x*y*x*y*x*y*x*y*x*y >",
            "transfer_bound": "9/2",
        },
    ),
    (
        ["fuchsian", "-p", "2", "(0; 2,3,7)"],
        """\
signature: (0; 2,3,7)
volume = 1/42
de_2(standard presentation) = -3/2
upper bound = -1/1
case: none
de_2(group): negative; value in [-3/2, -1/1]
""",
        {
            "case": "none",
            "command": "fuchsian",
            "de_exact": None,
            "de_standard": "-3/2",
            "de_upper": "-1/1",
            "interval": ["-3/2", "-1/1"],
            "negative": True,
            "p": 2,
            "signature": "(0; 2,3,7)",
            "volume": "1/42",
        },
    ),
    (
        ["fuchsian", "-p", "2", "(0; 6,12,12)"],
        """\
signature: (0; 6,12,12)
volume = 2/3
de_2(standard presentation) = 0/1
upper bound = 1/4
case: d
de_2(group) = 0/1 exactly
""",
        {
            "case": "d",
            "command": "fuchsian",
            "de_exact": "0/1",
            "de_standard": "0/1",
            "de_upper": "1/4",
            "interval": ["0/1", "0/1"],
            "negative": False,
            "p": 2,
            "signature": "(0; 6,12,12)",
            "volume": "2/3",
        },
    ),
    (
        ["singerman", "(0; 4,4,4)", "--action", "x1:(1 2),x2:(1 2),x3:()"],
        """\
signature: (0; 4,4,4)
action degree: 2
transferred signature: (0; 2,2,4,4)
volume: 1/4 -> 1/2 (x 2 exactly)
""",
        {
            "command": "singerman",
            "degree": 2,
            "signature": "(0; 4,4,4)",
            "transferred": "(0; 2,2,4,4)",
            "transferred_volume": "1/2",
            "volume": "1/4",
        },
    ),
    (
        ["chi", "-p", "2", "< x, y | >", "--max-order", "2"],
        """\
presentation: < x, y | >
subgroups examined: 4
best ratio de/index = 1/1 at index 1 (index 1)
-chi_2 >= 1/1
""",
        {
            "best_ratio": "1/1",
            "command": "chi",
            "exhausted": False,
            "p": 2,
            "presentation": "< x, y | >",
            "samples": [
                {"deficiency": "1/1", "description": "index 1", "index": 1, "ratio": "1/1"},
                {"deficiency": "2/1", "description": "x:(), y:(1 2)", "index": 2,
                 "ratio": "1/1"},
                {"deficiency": "2/1", "description": "x:(1 2), y:()", "index": 2,
                 "ratio": "1/1"},
                {"deficiency": "2/1", "description": "x:(1 2), y:(1 2)", "index": 2,
                 "ratio": "1/1"},
            ],
            "subgroups_examined": 4,
            "witness": {"deficiency": "1/1", "description": "index 1", "index": 1},
        },
    ),
    (
        ["chi", "-p", "3", "< x, y | x^3 >", "--max-order", "3", "--max-assignments", "6"],
        """\
presentation: < x, y | x^3 >
subgroups examined: 3 (budget exhausted)
best ratio de/index = 2/3 at index 1 (index 1)
-chi_3 >= 2/3
""",
        {
            "best_ratio": "2/3",
            "command": "chi",
            "exhausted": True,
            "p": 3,
            "presentation": "< x, y | x^3 >",
            "samples": [
                {"deficiency": "2/3", "description": "index 1", "index": 1, "ratio": "2/3"},
                {"deficiency": "4/3", "description": "x:(), y:(1 2)", "index": 2,
                 "ratio": "2/3"},
                {"deficiency": "2/1", "description": "x:(), y:(1 2 3)", "index": 3,
                 "ratio": "2/3"},
            ],
            "subgroups_examined": 3,
            "witness": {"deficiency": "2/3", "description": "index 1", "index": 1},
        },
    ),
    (
        ["gradient", "-p", "2", "< x, y | x^2, y^2 >", "--max-order", "2"],
        """\
presentation: < x, y | x^2, y^2 >
window (index, d_p, ratio):
  1  2  2/1  (index 1)
  2  2  1/1  (x:(), y:(1 2))
  2  2  1/1  (x:(1 2), y:())
  2  1  1/2  (x:(1 2), y:(1 2))
window ratios in [1/2, 2/1]
""",
        {
            "command": "gradient",
            "exhausted": False,
            "max_ratio": "2/1",
            "min_ratio": "1/2",
            "p": 2,
            "presentation": "< x, y | x^2, y^2 >",
            "samples": [
                {"d_p": 2, "description": "index 1", "index": 1, "ratio": "2/1"},
                {"d_p": 2, "description": "x:(), y:(1 2)", "index": 2, "ratio": "1/1"},
                {"d_p": 2, "description": "x:(1 2), y:()", "index": 2, "ratio": "1/1"},
                {"d_p": 1, "description": "x:(1 2), y:(1 2)", "index": 2, "ratio": "1/2"},
            ],
        },
    ),
    (
        ["witness", "-p", "2", "< x, y | x^6, y^12, (x*y)^12 >", "--max-order", "12"],
        """\
witness: relator 1 = y^12 is a p'-power (y^4)^3
quotient: x:(), y:(1 2 3) (index 3)
kernel de_2 = 1/1 > 0
""",
        {
            "command": "witness",
            "exponent": 3,
            "found": True,
            "index": 3,
            "kernel_deficiency": "1/1",
            "p": 2,
            "presentation": "< x, y | x^6, y^12, "
                            "x*y*x*y*x*y*x*y*x*y*x*y*x*y*x*y*x*y*x*y*x*y*x*y >",
            "quotient": "x:(), y:(1 2 3)",
            "relator": "y^12",
            "relator_index": 1,
            "root": "y^4",
        },
    ),
    (
        ["witness", "-p", "2", "< x, y, z | x^2, y^4, z^4, x*y*z >", "--max-order", "4"],
        "no witness found (search exhausted)\n",
        {
            "command": "witness",
            "exhausted": False,
            "found": False,
            "p": 2,
            "presentation": "< x, y, z | x^2, y^4, z^4, x*y*z >",
        },
    ),
    (
        ["verify", "--only", "snf"],
        """\
[PASS] snf: 500 random matrices up to 4x4 against the gcd of minors, 30 scrambled divisor \
chains up to 60x60; sparse abelian invariants equal the dense diagonal on those chains and \
on 200 random sparse presentations
verify: 1/1 criteria passed
""",
        {
            "all_passed": True,
            "command": "verify",
            "criteria": [
                {
                    "details": {"scrambled": 30, "sparse": 200, "trials": 500},
                    "name": "snf",
                    "passed": True,
                    "summary": "500 random matrices up to 4x4 against the gcd of minors, "
                               "30 scrambled divisor chains up to 60x60; sparse abelian "
                               "invariants equal the dense diagonal on those chains and "
                               "on 200 random sparse presentations",
                },
            ],
        },
    ),
]


@pytest.mark.parametrize("argv, text, payload", FULL_OUTPUT,
                         ids=[" ".join(case[0][:1] + case[0][-2:]) for case in FULL_OUTPUT])
class TestFullOutput:
    def test_text(self, capsys, argv, text, payload):
        assert run(capsys, *argv) == (0, text, "")

    def test_json(self, capsys, argv, text, payload):
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert run(capsys, *argv, "--json") == (0, expected, "")

    def test_output_file(self, capsys, tmp_path, argv, text, payload):
        target = tmp_path / "report.json"
        assert run(capsys, *argv, "-o", str(target)) == (0, text, "")
        assert target.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    "", "plain text", 'a "quoted" word', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
    "caf\u00e9 \u2003 \U0001d49c", "< x, y | x^2*y^-3 >" * 2000, "x" * 256, "x" * 257,
    'say "x"\\' * 100, "caf\u00e9" * 100, "\x7f" * 300, "line\n" * 100,
    {}, [], (), {"b": {}, "a": [[], {"c": [1, [2, {}]]}], "": None},
    [True, False, None, 0, -1, 10**40, -(10**40)], (1, "x", (2, ("y",))),
    {"z": 1.5, "y": [float("inf")]},
])
def test_dumps_matches_json(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [case[0] for case in FULL_OUTPUT],
                         ids=[" ".join(case[0][:1] + case[0][-2:]) for case in FULL_OUTPUT])
def test_dumps_matches_json_on_payloads(argv):
    """Every command's payload, as --json builds it, renders as json.dumps
    renders it."""
    args = cli.build_parser().parse_args(argv + ["--json"])
    payload, _ = cli._HANDLERS[args.command](args)
    assert cli._dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_verify_failure(capsys, tmp_path, monkeypatch):
    """A failing check: exit 1, [FAIL] in the text, all_passed false in the
    file, and the JSON on stdout equal to the file."""
    failing = CheckOutcome("snf", False, "minors disagree", {"trials": 1})
    monkeypatch.setattr(verification, "run_checks", lambda only: [failing])
    target = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", "-o", str(target))
    assert code == 1
    assert out == "[FAIL] snf: minors disagree\nverify: 0/1 criteria passed\n"
    written = json.loads(target.read_text())
    assert written == {
        "all_passed": False,
        "command": "verify",
        "criteria": [{"details": {"trials": 1}, "name": "snf", "passed": False,
                      "summary": "minors disagree"}],
    }
    code, out, _ = run(capsys, "verify", "--json", "-o", str(target))
    assert code == 1
    assert out == target.read_text()
    assert json.loads(out) == written
