"""Write ``tests/data/words_golden.json``: SHA-256 digests of what ``def``
and ``abdef`` print for fixed presentation texts, for the checkout on the
import path.

    PYTHONPATH=src python tests/regen_words_golden.py [OUT]

The texts are built here from fixed seeds: long literal flat relators,
powers c*(u)^k*c^-1 with k in the thousands, '=' chains with and without
the literal 1, spaced exponents, 256 nested brackets, and texts the parser
refuses, among them one for each way a flat product inside a long one can
fail (an unknown name, an exponent that int() refuses, the run bound).
Each is run through ``def`` and ``abdef``, as text and ``--json``, at p = 2
and a 10-digit prime, and the exit code and the digests of stdout and
stderr are recorded.  A change to parsing regenerates the file from its
parent's checkout and then runs
``tests/test_presentation.py::TestWordsGolden``, which recomputes the
records from this module, against it.  pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from pdeficiency import cli

GOLDEN = Path(__file__).with_name("data") / "words_golden.json"
PRIMES = (2, 1000000007)


def flat(rng, names, letters: int) -> str:
    """A literal flat product of ``letters`` letters, each written once."""
    return "*".join(rng.choice(names) + rng.choice(("", "^-1")) for _ in range(letters))


def power(rng, names, k: int) -> str:
    """c*(u)^k*c^-1 with short random c and u."""
    c = [(rng.choice(names), rng.choice((1, -1))) for _ in range(4)]
    u = "*".join(f"{g}^{rng.choice((1, -1, 2))}" for g in rng.sample(names, len(names)))
    conj = "*".join(f"{g}^{e}" for g, e in c)
    conj_inv = "*".join(f"{g}^{-e}" for g, e in reversed(c))
    return f"{conj}*({u})^{k}*{conj_inv}"


def cases() -> list:
    """``(name, presentation text)`` of every case."""
    rng = random.Random(37)
    xy, xyz = ["x", "y"], ["x", "y", "z"]
    long_xy = flat(rng, xy, 300)
    return [
        ("literal flat, 2 generators", f"< x, y | {flat(rng, xy, 600)}, {flat(rng, xy, 590)} >"),
        ("literal flat, 3 generators",
         f"< x, y, z | {flat(rng, xyz, 610)}; {flat(rng, xyz, 600)} >"),
        ("powers, 3 generators",
         f"< x, y, z | {power(rng, xyz, 2560)}, {power(rng, xyz, 3 * 17 * 64)} >"),
        ("powers, 2 generators", f"< x, y | {power(rng, xy, 6561)}, {power(rng, xy, 1000)} >"),
        ("= chain", "< x, y | x^2 = y^3 = (x*y)^5, x*y = y*x >"),
        ("= chain with 1", "< x, y | x^4 = y^6 = 1 = (x*y)^2 >"),
        ("spaced exponents", "< x, y | x ^ -3 * y ^ 2, ( x * y ) ^ -4 , y ^ 6 >"),
        ("256 nested brackets", "< x, y | " + "(" * 256 + "x" + ")*y^-1" * 256 + ", y^3 >"),
        ("unknown name in a flat product", f"< x, y | {long_xy}*z*{long_xy} >"),
        ("5000-digit exponent in a flat product",
         f"< x, y | {long_xy}*x^{'7' * 5000}*{long_xy} >"),
        ("run bound in a flat product", "< x, y | (x*y)^499990" + "*x*y" * 20 + " >"),
        ("caret without exponent", "< x, y | x^ >"),
        ("double star", "< x, y | x**y >"),
        ("unclosed bracket", "< x, y | (x >"),
    ]


def run(args) -> tuple:
    """(exit code, stdout, stderr) of ``pdef args``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def compute() -> list:
    """The fixture's records, one per command."""
    records = []
    for name, text in cases():
        for command in ("def", "abdef"):
            for p in PRIMES:
                for extra in ([], ["--json"]):
                    code, out, err = run([command, "-p", str(p), text, *extra])
                    records.append({
                        "case": name, "command": command, "p": p, "json": bool(extra),
                        "exit": code, "stdout_bytes": len(out),
                        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
                        "stderr_sha256": hashlib.sha256(err.encode()).hexdigest(),
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
