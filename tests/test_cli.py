import json

from pdeficiency.cli import main


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

    def test_requires_quotient(self, capsys):
        code, _, err = run(capsys, "subgroup", "-p", "2", "< x | x^2 >")
        assert code == 1
        assert "quotient" in err

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

    def test_degree_flag(self, capsys):
        code, out, _ = run(
            capsys, "singerman", "(1; 2)",
            "--action", "x1:(),u1:(1 2)(3 4),v1:(1 3)(2 4)", "--degree", "4",
        )
        assert code == 0
        assert "(1; 2,2,2,2)" in out


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
                             "--action", "x1:(1 2),x2:(1 2),x3:()", "--degree", self.BIG)

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
