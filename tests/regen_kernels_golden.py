"""Write ``tests/data/kernels_golden.json``: SHA-256 digests of the output
of the kernels round trip, for the checkout on the import path.

    PYTHONPATH=src python tests/regen_kernels_golden.py [OUT]

Each case is a fixed surjection of a Fuchsian group onto PSL(2,7), S5 or
A5, given as a ``--quotient`` spec, at two primes.  For each, the text and
the ``--json`` output of ``subgroup``, ``subgroup --naive``, ``psize``, and
``abdef`` on the kernel presentation that ``subgroup`` prints are digested.
A change to parsing, rewriting or the abelian layer regenerates the file
from its parent's checkout and then runs
``tests/test_rewrite.py::TestKernelsGolden``, which recomputes the digests
from this module, against it.  pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from pdeficiency import cli

GOLDEN = Path(__file__).with_name("data") / "kernels_golden.json"

# (name, presentation, --quotient spec, primes): the surjections take each
# generator x_i to an element of order e_i, and the genus-2 one sends
# u1*v1*u1^-1*v1^-1*u2*v2*u2^-1*v2^-1 to the identity
CASES = (
    ("(2,3,7) -> PSL(2,7)", "< x1, x2, x3 | x1^2, x2^3, x3^7, x1*x2*x3 >",
     "x1:(1 8)(2 7)(3 4)(5 6),x2:(1 2 7)(3 6 8),x3:(1 2 8 5 6 4 3)", (2, 7)),
    ("genus 2 -> PSL(2,7)", "< u1, v1, u2, v2 | u1*v1*u1^-1*v1^-1*u2*v2*u2^-1*v2^-1 >",
     "u1:(1 3 5 7 2 4 6),v1:(1 5 2 6 3 7 4),u2:(1 4 2 3)(5 8 7 6),v2:(1 4 2 3)(5 8 7 6)",
     (2, 3)),
    ("(2,4,5) -> S5", "< x1, x2, x3 | x1^2, x2^4, x3^5, x1*x2*x3 >",
     "x1:(3 4),x2:(1 4 2 5),x3:(1 5 2 3 4)", (2, 5)),
    ("(3,3,5) -> A5", "< x1, x2, x3 | x1^3, x2^3, x3^5, x1*x2*x3 >",
     "x1:(1 4 3),x2:(2 5 3),x3:(1 3 5 2 4)", (3, 5)),
    ("(2,5,10) -> A5", "< x1, x2, x3 | x1^2, x2^5, x3^10, x1*x2*x3 >",
     "x1:(1 2)(4 5),x2:(1 3 5 2 4),x3:(1 5 3 2 4)", (2, 5)),
)


def output(args) -> str:
    """What ``pdef`` prints for ``args``; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    if code:
        raise RuntimeError(f"{args[0]} exited with {code}")
    return out.getvalue()


def commands(text: str, spec: str, p: int):
    """``(label, args)`` of the round trip's commands; the kernel text for
    ``abdef`` comes from ``subgroup --json``."""
    args = ["-p", str(p), text, "--quotient", spec]
    kernel = json.loads(output(["subgroup", *args, "--json"]))["subgroup_presentation"]
    yield "subgroup", ["subgroup", *args]
    yield "subgroup --naive", ["subgroup", *args, "--naive"]
    yield "psize", ["psize", *args]
    yield "abdef", ["abdef", "-p", str(p), kernel]


def kernel_texts() -> list:
    """The kernel presentations that ``subgroup`` prints, refined and
    naive, for every case at its first prime (the text does not depend on
    the prime)."""
    texts = []
    for _, text, spec, primes in CASES:
        args = ["subgroup", "-p", str(primes[0]), text, "--quotient", spec, "--json"]
        for extra in ([], ["--naive"]):
            texts.append(json.loads(output(args + extra))["subgroup_presentation"])
    return texts


def compute() -> list:
    """The fixture's records, one per command."""
    records = []
    for name, text, spec, primes in CASES:
        for p in primes:
            for label, args in commands(text, spec, p):
                plain = output(args)
                report = output(args + ["--json"])
                records.append({
                    "case": name, "p": p, "command": label, "text_bytes": len(plain),
                    "text_sha256": hashlib.sha256(plain.encode()).hexdigest(),
                    "json_sha256": hashlib.sha256(report.encode()).hexdigest(),
                })
    return records


def main(argv) -> int:
    out = Path(argv[0]) if argv else GOLDEN
    out.parent.mkdir(parents=True, exist_ok=True)
    records = compute()
    out.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"{len(records)} commands -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
