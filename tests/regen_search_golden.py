"""Write ``tests/data/search_golden.json``: SHA-256 digests of the stream
of ``enumerate_quotients`` on fixed cases, for the checkout on the import
path.

    PYTHONPATH=src python tests/regen_search_golden.py [OUT]

Each case digests every yield (group name, image indices, closure, ks and
the tables of ``kernel.quotient()``, closed anew) and ``(assignments_used, exhausted)`` after each yield and at the
end.  The cases are random presentations on 1-3 generators from fixed
seeds, on the default catalog and on a manifest, each at the full budget
and at one random budget, and every budget of two small cases.  A search
change regenerates the file from its parent's checkout and then runs
``tests/test_quotient.py::TestSearchGolden``, which recomputes the digests
from this module, against it.  pytest does not collect this file.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from pdeficiency.presentation import parse_presentation
from pdeficiency.quotient import (
    SearchBudget,
    default_catalog,
    enumerate_quotients,
    parse_catalog_manifest,
)

GOLDEN = Path(__file__).with_name("data") / "search_golden.json"

# generators chosen so that no element list is the default catalog's
MANIFEST = """
T 1 ()
S3 3 (1 2 3) (1 2)
K4 4 (1 3)(2 4) (1 2)(3 4)
C4 4 (1 4 3 2)
A4 4 (1 2)(3 4) (1 2 3)
C3xC3 6 (1 2 3)(4 5 6) (4 5 6)
"""

SEEDS = (1, 2, 3)
PER_SEED = 40
SMALL_CASES = ("< x, y | x^2, y^3 >", "< a, b, c | a^2, b^2, (a*b*c)^2 >")
EXPONENTS = (-4, -3, -2, -1, -1, 1, 1, 1, 2, 3, 4)


def random_presentation(rng) -> str:
    """Up to three relators of up to four runs each, no two neighbours on
    one generator, the exponents mostly +-1 and up to +-4, so that many
    relators hold their top generator in one run, with |e| >= 2 or
    e < 0."""
    names = ("x", "y", "z")[:rng.randint(1, 3)]
    relators = []
    for _ in range(rng.randint(0, 3)):
        runs, prev = [], None
        for _ in range(rng.randint(1, 4) if len(names) > 1 else 1):
            g = rng.choice([name for name in names if name != prev])
            e = rng.choice(EXPONENTS)
            runs.append(g if e == 1 else f"{g}^{e}")
            prev = g
        relators.append("*".join(runs))
    return f"< {', '.join(names)} | {', '.join(relators)} >"


def stream_digest(text: str, catalog, max_order: int, max_assignments: int) -> dict:
    """The digest of one search's stream and its length and end state."""
    budget = SearchBudget(max_order, max_assignments)
    digest = hashlib.sha256()
    count = 0
    for kernel in enumerate_quotients(parse_presentation(text), catalog, budget=budget):
        digest.update(repr((kernel.group.name, kernel.images, tuple(kernel.closure),
                            tuple(kernel.ks), kernel.quotient().tables,
                            budget.assignments_used, budget.exhausted)).encode())
        count += 1
    end = [budget.assignments_used, budget.exhausted]
    digest.update(repr(tuple(end)).encode())
    return {"yields": count, "end": end, "sha256": digest.hexdigest()}


def cases():
    """``(catalog name, presentation, max_order, max_assignments)`` of every
    case, in a fixed order.  A budget below the full one is drawn after the
    full search, from its assignments used."""
    for catalog in ("default", "manifest"):
        for seed in SEEDS:
            rng = random.Random(f"{catalog}-{seed}")
            for _ in range(PER_SEED):
                text = random_presentation(rng)
                max_order = 24 if parse_presentation(text).n_gens <= 2 else 12
                yield catalog, text, max_order, None, rng.random()
    for text in SMALL_CASES:
        yield "default", text, 4, "all", None


def compute() -> list:
    """The fixture's records, one per search."""
    catalogs = {"default": default_catalog(), "manifest": parse_catalog_manifest(MANIFEST)}
    records = []
    for name, text, max_order, which, fraction in cases():
        catalog = catalogs[name]
        full = stream_digest(text, catalog, max_order, 10**6)
        used = full["end"][0]
        budgets = range(used + 1) if which == "all" else sorted({int(fraction * used), 10**6})
        for max_assignments in budgets:
            record = full if max_assignments == 10**6 else stream_digest(
                text, catalog, max_order, max_assignments)
            records.append({"catalog": name, "presentation": text, "max_order": max_order,
                            "max_assignments": max_assignments, **record})
    return records


def main(argv) -> int:
    out = Path(argv[0]) if argv else GOLDEN
    out.parent.mkdir(parents=True, exist_ok=True)
    records = compute()
    out.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"{len(records)} searches, {sum(r['yields'] for r in records)} yields -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
