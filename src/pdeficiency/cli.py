"""Command-line frontend.

Commands: def, abdef, subgroup, psize, fuchsian, singerman, chi, gradient,
witness, verify.  All numeric output is exact rational text (num/den); every
command takes --json and an optional -o FILE for machine-readable output.

A command computes its report once and returns it as ``(payload, lines)``:
the JSON payload and the text lines formatted from the payload's values.
``main`` is the only renderer: it prints the JSON or the text, writes the
JSON to -o FILE, and exits 1 when the payload says ``"all_passed": false``.
``chi`` and ``gradient`` render the integer rows of ``kernel_values``
with one helper, ``_window``, and describe only the rows they print.

A ``pdef`` process runs one command, and compiling the modules of the
others would cost more than a typical command takes.  So each handler
imports the names it uses from ``abelian``, ``fuchsian``, ``invariants``,
``quotient``, ``rewrite`` and ``verification`` in its own body: ``def``
loads ``presentation``, ``words`` and ``abelian`` only.  The
``presentation`` names stay at module level, as nearly every command
parses a presentation; the benchmark's tracer (``bench/tracer.py``), which
wraps only module-level names, counts ``presentation.parse_chars`` there.
"""

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from .presentation import p_deficiency, parse_presentation, word_to_text


def _rat(q) -> str:
    return f"{q.numerator}/{q.denominator}"


# the characters that JSON writes as they are: printable ASCII but '"' and '\\'
_PLAIN = bytes(range(0x20, 0x7F)).translate(None, b'"\\')


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a payload: dicts
    with string keys, lists and tuples are laid out here as one list of
    pieces, joined once; any other value is left to ``json.dumps``.  With
    ``indent`` set, Python 3.10-3.12 escape every string character by
    character, on the 100 KB strings of long relators four times the cost
    of one ``bytes.translate`` that finds nothing to escape; such a string
    is then one piece.  Below 256 characters escaping costs less."""
    out = []
    _emit(value, "\n", out)
    return "".join(out)


def _emit(value, indent: str, out: list) -> None:
    if isinstance(value, str):
        if len(value) > 256 and value.isascii() and not (
                value.encode("ascii").translate(None, _PLAIN)):
            out += ('"', value, '"')
        else:
            out.append(encode_basestring_ascii(value))
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif not value or not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))  # true, false, null, {}, [] and numbers
    elif isinstance(value, dict):
        inner, sep = indent + "  ", "{"
        for k in sorted(value):
            v = value[k]
            out += (sep, inner, encode_basestring_ascii(k), ": ")
            if type(v) is int:
                out.append(int.__repr__(v))
            elif type(v) is str and len(v) <= 256:
                out.append(encode_basestring_ascii(v))
            else:
                _emit(v, inner, out)
            sep = ","
        out += (indent, "}")
    else:
        inner, sep = indent + "  ", "["
        for v in value:
            out += (sep, inner)
            _emit(v, inner, out)
            sep = ","
        out += (indent, "]")


def _add_common(sub) -> None:
    sub.add_argument("--json", action="store_true", help="print a JSON report")
    sub.add_argument("-o", "--output", metavar="FILE",
                     help="also write the JSON report to FILE")


def _add_budget(sub) -> None:
    sub.add_argument("--max-order", type=int, default=24,
                     help="largest catalog-group order to try (default 24)")
    sub.add_argument("--max-assignments", type=int, default=10**6,
                     help="cap on generator-image assignments (default 1000000)")
    sub.add_argument("--catalog", metavar="FILE",
                     help="group catalog manifest (default: built-in)")


def _load_catalog(args):
    from .quotient import default_catalog, parse_catalog_manifest
    if getattr(args, "catalog", None):
        with open(args.catalog) as fh:
            return parse_catalog_manifest(fh.read())
    return default_catalog()


def _budget(args) -> "SearchBudget":
    from .quotient import SearchBudget
    return SearchBudget(max_order=args.max_order, max_assignments=args.max_assignments)


def _parse_quotient_spec(spec: str, generators) -> "FiniteQuotient":
    """Per-generator cycle notation: ``x:(1 2),y:(1 2 3 4 5)``; unlisted
    generators act trivially."""
    from .quotient import FiniteQuotient, cycles_to_perm, parse_cycles, split_outside_parens
    cycles_by_name = {}
    parts = split_outside_parens(spec, lambda ch: ch == ",")
    if not parts[-1].strip():
        parts.pop()
    for chunk in parts:
        if ":" not in chunk:
            raise ValueError(f"invalid quotient entry {chunk!r}; expected name:(cycles)")
        name, perm_text = chunk.split(":", 1)
        name = name.strip()
        if name not in generators:
            raise ValueError(f"unknown generator {name!r} in quotient spec")
        if name in cycles_by_name:
            raise ValueError(f"generator {name!r} listed twice in quotient spec")
        cycles_by_name[name] = parse_cycles(perm_text.strip())
    degree = 1 + max((max(cyc) for cycles in cycles_by_name.values() for cyc in cycles),
                     default=0)
    return FiniteQuotient([cycles_to_perm(cycles_by_name.get(name, []), degree)
                           for name in generators])


def _hom_int(text: str, field: str) -> int:
    """One integer field of ``--hom-cyclic``; a bad one is named."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--hom-cyclic {field} must be an integer, got {text!r}") from None


def _hom_cyclic(modulus_text: str, exps_text: str, generators) -> "FiniteQuotient":
    from .quotient import FiniteQuotient, check_degree
    modulus = _hom_int(modulus_text, "order Q")
    if modulus < 2:
        raise ValueError("cyclic image order must be at least 2")
    check_degree(modulus)
    exps = [_hom_int(t, f"exponent {i + 1}") for i, t in enumerate(exps_text.split(","))]
    if len(exps) != len(generators):
        raise ValueError(f"expected {len(generators)} exponents, got {len(exps)}")
    return FiniteQuotient(tuple((i + e) % modulus for i in range(modulus)) for e in exps)


def _quotient_from_args(args, pres) -> "FiniteQuotient":
    if args.quotient and args.hom_cyclic:
        raise ValueError("give either --quotient or --hom-cyclic, not both")
    if args.quotient:
        return _parse_quotient_spec(args.quotient, pres.generators)
    if args.hom_cyclic:
        return _hom_cyclic(*args.hom_cyclic, pres.generators)
    raise ValueError("a quotient is required: --quotient or --hom-cyclic")


# -- commands ----------------------------------------------------------------


def _head(args, pres) -> dict:
    return {"command": args.command, "p": args.prime, "presentation": pres.to_text()}


def cmd_def(args):
    from .abelian import abelian_invariants, abelian_p_deficiency_group
    pres = parse_presentation(args.presentation)
    p = args.prime
    de = _rat(p_deficiency(pres, p))
    inv = abelian_invariants(pres)
    upper = _rat(abelian_p_deficiency_group(inv, p))
    payload = {
        **_head(args, pres),
        "p_deficiency": de,
        "group_lower": de,
        "group_upper": upper,
        "abelian_invariants": {"rank": inv.rank, "divisors": list(inv.divisors)},
    }
    lines = [
        f"presentation: {payload['presentation']}",
        f"de_{p}(presentation) = {de}",
        f"group de_{p} in [{de}, {upper}]  (lower: this presentation; upper: abelianization)",
    ]
    return payload, lines


def cmd_abdef(args):
    from .abelian import (
        abelian_invariants, abelian_p_deficiency_group, abelian_p_deficiency_presentation,
        d_p, exponent_columns,
    )
    pres = parse_presentation(args.presentation)
    p = args.prime
    cols = exponent_columns(pres)
    inv = abelian_invariants(pres, cols)
    payload = {
        **_head(args, pres),
        "rank": inv.rank,
        "divisors": list(inv.divisors),
        "abelian_p_deficiency_presentation": _rat(
            abelian_p_deficiency_presentation(pres, p, cols)),
        "abelian_p_deficiency_group": _rat(abelian_p_deficiency_group(inv, p)),
        "d_p": d_p(inv, p),
    }
    summands = [f"C{d}" for d in inv.divisors] + ([f"Z^{inv.rank}"] if inv.rank else [])
    lines = [
        f"presentation: {payload['presentation']}",
        f"abelianization: {' + '.join(summands) or 'trivial'}"
        f"  (rank {inv.rank}, divisors {payload['divisors']})",
        f"abelian de_{p}(presentation) = {payload['abelian_p_deficiency_presentation']}",
        f"abelian de_{p}(group) = {payload['abelian_p_deficiency_group']}",
        f"d_{p} = {payload['d_p']}",
    ]
    return payload, lines


def cmd_subgroup(args):
    from .invariants import p_size_bound
    from .quotient import describe_quotient, kernel_index
    from .rewrite import basis_texts, schreier, subgroup_presentation
    pres = parse_presentation(args.presentation)
    p = args.prime
    q = _quotient_from_args(args, pres)
    index = kernel_index(q, pres)
    sd = schreier(q)
    sub = subgroup_presentation(pres, q, refined=not args.naive, sd=sd)
    # de_p of the refined presentation, by the transfer formula
    de_sub = index * (pres.n_gens - 1) - p_size_bound(pres, q, p).value
    de_orig = p_deficiency(pres, p)
    scaled = index * de_orig
    payload = {
        **_head(args, pres),
        "index": index,
        "basis": dict(zip(sub.generators, basis_texts(sd, pres.generators))),
        "subgroup_presentation": sub.to_text(),
        "de_subgroup": _rat(de_sub),
        "de_presentation": _rat(de_orig),
        "scaled": _rat(scaled),
        "holds": de_sub >= scaled,
        "naive": bool(args.naive),
    }
    lines = [
        f"presentation: {payload['presentation']}",
        f"quotient: {describe_quotient(q, pres)}",
        f"index = {index}",
        "schreier basis:",
        *(f"  {name} = {word}" for name, word in payload["basis"].items()),
        f"subgroup presentation: {payload['subgroup_presentation']}",
        f"de_{p}(subgroup) = {payload['de_subgroup']}",
        f"index * de_{p}(presentation) = {payload['scaled']}",
        f"supermultiplicity holds: {payload['holds']}",
    ]
    return payload, lines


def cmd_psize(args):
    from .invariants import p_size_bound
    pres = parse_presentation(args.presentation)
    q = _quotient_from_args(args, pres)
    bound = p_size_bound(pres, q, args.prime)
    payload = {
        **_head(args, pres),
        "index": bound.index,
        "transfer_bound": _rat(bound.value),
        "exact_sum": _rat(bound.exact_sum),
        "contributions": [
            {"relator": c.relator_index, "k": c.centralizer_idx, "classes": c.class_count,
             "nu_free": c.nu_free, "nu_p_k": c.nu_p_k, "term": _rat(c.term),
             "rep_valuations": list(c.rep_valuations)}
            for c in bound.contributions
        ],
    }
    lines = [
        f"presentation: {payload['presentation']}",
        f"index = {bound.index}",
        "per-relator transfer terms (k, classes, nu_F, nu_p(k), term):",
        *(f"  relator {c['relator']}: k={c['k']} classes={c['classes']} "
          f"nu_F={c['nu_free']} nu_p(k)={c['nu_p_k']} term={c['term']} "
          f"rewritten valuations={c['rep_valuations']}" for c in payload["contributions"]),
        f"transfer bound = {payload['transfer_bound']}",
        f"exact rewritten p-size = {payload['exact_sum']}",
    ]
    return payload, lines


def cmd_fuchsian(args):
    from .fuchsian import de_exact, de_standard, de_upper, format_signature, parse_signature, volume
    sig = parse_signature(args.signature)
    p = args.prime
    result = de_exact(sig, p)
    lower, upper = _rat(result.lower), _rat(result.upper)
    payload = {
        "command": "fuchsian", "p": p, "signature": format_signature(sig),
        "volume": _rat(volume(sig)), "de_standard": _rat(de_standard(sig, p)),
        "de_upper": _rat(de_upper(sig, p)), "case": result.case, "negative": result.negative,
        "de_exact": None if result.negative else _rat(result.value), "interval": [lower, upper],
    }
    lines = [
        f"signature: {payload['signature']}",
        f"volume = {payload['volume']}",
        f"de_{p}(standard presentation) = {payload['de_standard']}",
        f"upper bound = {payload['de_upper']}",
        f"case: {result.case}",
        f"de_{p}(group): negative; value in [{lower}, {upper}]" if result.negative
        else f"de_{p}(group) = {payload['de_exact']} exactly",
    ]
    return payload, lines


def _parse_action_spec(spec: str, sig) -> "EllipticAction":
    from .fuchsian import EllipticAction, standard_presentation
    names = standard_presentation(sig).generators
    images = _parse_quotient_spec(spec, names).images
    r = len(sig.periods)
    return EllipticAction(len(images[0]), images[:r], images[r:])


def cmd_singerman(args):
    from .fuchsian import format_signature, parse_signature, singerman_transfer, volume
    sig = parse_signature(args.signature)
    act = _parse_action_spec(args.action, sig)
    transferred = singerman_transfer(sig, act)
    payload = {
        "command": "singerman",
        "signature": format_signature(sig),
        "degree": act.degree,
        "transferred": format_signature(transferred),
        "volume": _rat(volume(sig)),
        "transferred_volume": _rat(volume(transferred)),
    }
    lines = [
        f"signature: {payload['signature']}",
        f"action degree: {act.degree}",
        f"transferred signature: {payload['transferred']}",
        f"volume: {payload['volume']} -> {payload['transferred_volume']} "
        f"(x {act.degree} exactly)",
    ]
    return payload, lines


def _json_wanted(args) -> bool:
    """Whether ``main`` renders the payload: for --json or -o FILE."""
    return bool(args.json or args.output)


def _budget_note(exhausted: bool) -> str:
    return " (budget exhausted)" if exhausted else ""


def _window(args, gradient: bool = False) -> tuple:
    """``(pres, budget, samples, count, high, low)`` of ``chi`` or
    ``gradient`` from the rows ``(d, num, kernel)`` of ``kernel_values``;
    high and low, the samples of the first largest and smallest ratio
    num/(den*d), compare as integers.  A fraction takes one gcd: num/den
    reduces to n/t, and n/(t*d) by gcd(n, d).  Without JSON, ``chi`` keeps
    no samples, as its text names only the witness."""
    from .invariants import kernel_values
    from .quotient import describe_quotient
    pres = parse_presentation(args.presentation)
    budget = _budget(args)
    den, values = kernel_values(pres, args.prime, _load_catalog(args), budget, gradient)
    key = "d_p" if gradient else "deficiency"

    def sample(d, num, kernel):
        value, t = num, 1
        if not gradient:
            g = math.gcd(num, den)
            num, t = num // g, den // g
            value = f"{num}/{t}"
        g = math.gcd(num, d)
        return {"index": d, key: value, "ratio": f"{num // g}/{t * (d // g)}",
                "description": "index 1" if kernel is None else describe_quotient(kernel, pres)}

    keep = gradient or _json_wanted(args)
    samples, count = [], 0
    for row in values:
        d, num, _ = row
        if not count or num * high[0] > high[1] * d:
            high, at_high = row, count
        if not count or num * low[0] < low[1] * d:
            low, at_low = row, count
        count += 1
        if keep:
            samples.append(sample(*row))
    if not keep:
        return pres, budget, None, count, sample(*high), None
    return pres, budget, samples, count, samples[at_high], samples[at_low]


def cmd_chi(args):
    pres, budget, samples, count, witness, _ = _window(args)
    payload = {**_head(args, pres), "best_ratio": witness["ratio"],
               "witness": {k: witness[k] for k in ("index", "deficiency", "description")},
               "subgroups_examined": count, "exhausted": budget.exhausted}
    if samples is not None:
        payload["samples"] = samples
    lines = [
        f"presentation: {payload['presentation']}",
        f"subgroups examined: {count}{_budget_note(budget.exhausted)}",
        f"best ratio de/index = {witness['ratio']} at index {witness['index']} "
        f"({witness['description']})",
        f"-chi_{args.prime} >= {witness['ratio']}",
    ]
    return payload, lines


def cmd_gradient(args):
    pres, budget, samples, _, high, low = _window(args, gradient=True)
    payload = {**_head(args, pres), "samples": samples, "min_ratio": low["ratio"],
               "max_ratio": high["ratio"], "exhausted": budget.exhausted}
    lines = [
        f"presentation: {payload['presentation']}",
        "window (index, d_p, ratio):",
        *(f"  {s['index']}  {s['d_p']}  {s['ratio']}  ({s['description']})" for s in samples),
        f"window ratios in [{payload['min_ratio']}, {payload['max_ratio']}]"
        + _budget_note(budget.exhausted),
    ]
    return payload, lines


def cmd_witness(args):
    from .invariants import find_power_witness
    from .quotient import describe_quotient
    pres = parse_presentation(args.presentation)
    budget = _budget(args)
    witness = find_power_witness(pres, args.prime, _load_catalog(args), budget)
    if witness is None:
        payload = {**_head(args, pres), "found": False, "exhausted": budget.exhausted}
        note = "budget" if budget.exhausted else "search"
        return payload, [f"no witness found ({note} exhausted)"]
    payload = {
        **_head(args, pres),
        "found": True,
        "relator_index": witness.relator_index,
        "relator": word_to_text(witness.relator, pres.generators),
        "root": word_to_text(witness.root, pres.generators),
        "exponent": witness.exponent,
        "quotient": describe_quotient(witness.quotient, pres),
        "index": witness.index,
        "kernel_deficiency": _rat(witness.subgroup_deficiency),
    }
    lines = [
        f"witness: relator {witness.relator_index} = {payload['relator']} "
        f"is a p'-power ({payload['root']})^{witness.exponent}",
        f"quotient: {payload['quotient']} (index {witness.index})",
        f"kernel de_{args.prime} = {payload['kernel_deficiency']} > 0",
    ]
    return payload, lines


def cmd_verify(args):
    from .verification import run_checks  # only verify loads the oracles
    outcomes = run_checks(args.only)
    passed = sum(1 for o in outcomes if o.passed)
    payload = {
        "command": "verify",
        "criteria": [{"name": o.name, "passed": o.passed, "summary": o.summary,
                      "details": o.details} for o in outcomes],
        "all_passed": passed == len(outcomes),
    }
    lines = [f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['summary']}"
             for c in payload["criteria"]]
    lines.append(f"verify: {passed}/{len(outcomes)} criteria passed")
    return payload, lines


# -- argument wiring ----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pdef`` argument parser, built once per process: parsing does
    not change it, and every ``parse_args`` starts from a fresh namespace
    filled with the defaults."""
    parser = argparse.ArgumentParser(
        prog="pdef",
        description="Exact p-deficiency toolkit for finitely presented groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def presentation_command(name, help_text, with_budget=False, with_quotient=False):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("-p", "--prime", type=int, required=True, help="the prime p")
        sub.add_argument("presentation", help="presentation text, e.g. '< x, y | x^2, y^5 >'")
        if with_quotient:
            sub.add_argument("--quotient",
                             help="per-generator cycle notation, e.g. 'x:(1 2),y:(1 2 3 4 5)'")
            sub.add_argument("--hom-cyclic", nargs=2, metavar=("Q", "EXPS"),
                             help="cyclic image of order Q with generator exponents, e.g. 5 0,1")
        if with_budget:
            _add_budget(sub)
        _add_common(sub)
        return sub

    presentation_command("def", "p-deficiency of a presentation with the group interval")
    presentation_command("abdef", "abelian invariants and abelianized deficiencies")
    sub = presentation_command("subgroup", "subgroup presentation and supermultiplicity report",
                               with_quotient=True)
    sub.add_argument("--naive", action="store_true",
                     help="use all transversal conjugates instead of class representatives")
    presentation_command("psize", "transfer bound and exact rewritten p-size",
                         with_quotient=True)

    sub = subs.add_parser("fuchsian", help="signature calculus: volume, bounds, classifier")
    sub.add_argument("-p", "--prime", type=int, required=True)
    sub.add_argument("signature", help="signature text, e.g. '(0; 6,12,12)'")
    _add_common(sub)

    sub = subs.add_parser("singerman", help="signature of a finite-index subgroup from a coset action")
    sub.add_argument("signature")
    sub.add_argument("--action", required=True,
                     help="per-generator cycles over x1..xr,u1,v1,..., e.g. 'x1:(1 2),x2:(1 2),x3:()'")
    _add_common(sub)

    presentation_command("chi", "lower bound for the negated p-Euler characteristic",
                         with_budget=True)
    presentation_command("gradient", "d_p/index window over enumerated kernels",
                         with_budget=True)
    presentation_command("witness", "search for a p'-power relator witness",
                         with_budget=True)

    sub = subs.add_parser("verify", help="run the built-in verification suite")
    sub.add_argument("--only", help="run only checks whose name contains this substring")
    _add_common(sub)
    return parser


_HANDLERS = {name[4:]: fn for name, fn in list(globals().items()) if name.startswith("cmd_")}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines = _HANDLERS[args.command](args)
        if _json_wanted(args):
            report = _dumps(payload)
        print(report if args.json else "\n".join(lines))
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(report + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if payload.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
