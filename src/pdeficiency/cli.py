"""Command-line frontend.

Commands: def, abdef, subgroup, psize, fuchsian, singerman, chi, gradient,
witness, verify.  All numeric output is exact rational text (num/den); every
command takes --json and an optional -o FILE for machine-readable output.
"""

import argparse
import json
import sys
from fractions import Fraction

from .abelian import (
    abelian_invariants,
    abelian_p_deficiency_group,
    abelian_p_deficiency_presentation,
    d_p,
)
from .fuchsian import (
    EllipticAction,
    de_exact,
    de_standard,
    de_upper,
    format_signature,
    parse_signature,
    singerman_transfer,
    standard_presentation,
    volume,
)
from .invariants import chi_p_estimate, gradient_window, find_power_witness
from .presentation import p_deficiency, parse_presentation, word_to_text
from .quotient import (
    FiniteQuotient,
    SearchBudget,
    check_degree,
    default_catalog,
    format_perm,
    kernel_index,
    parse_cycles,
    cycles_to_perm,
    parse_catalog_manifest,
)
from .rewrite import (
    p_size_bound,
    schreier,
    subgroup_presentation,
    supermultiplicity_check,
)
from .verification import run_checks


def _rat(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _emit(args, lines, payload) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


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
    if getattr(args, "catalog", None):
        with open(args.catalog) as fh:
            return parse_catalog_manifest(fh.read())
    return default_catalog()


def _budget(args) -> SearchBudget:
    return SearchBudget(max_order=args.max_order,
                        max_assignments=args.max_assignments)


def _parse_quotient_spec(spec: str, generators) -> FiniteQuotient:
    """Per-generator cycle notation: ``x:(1 2),y:(1 2 3 4 5)``; unlisted
    generators act trivially."""
    cycles_by_name = {}
    depth = 0
    part = ""
    parts = []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(part)
            part = ""
        else:
            part += ch
    if part.strip():
        parts.append(part)
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
    degree = 1
    for cycles in cycles_by_name.values():
        for cyc in cycles:
            degree = max(degree, max(cyc) + 1)
    images = [
        cycles_to_perm(cycles_by_name.get(name, []), degree) for name in generators
    ]
    return FiniteQuotient(images)


def _hom_cyclic(modulus: int, exps_text: str, generators) -> FiniteQuotient:
    if modulus < 2:
        raise ValueError("cyclic image order must be at least 2")
    check_degree(modulus)
    exps = [int(t) for t in exps_text.split(",")]
    if len(exps) != len(generators):
        raise ValueError(
            f"expected {len(generators)} exponents, got {len(exps)}"
        )
    images = [
        tuple((i + e) % modulus for i in range(modulus)) for e in exps
    ]
    return FiniteQuotient(images)


def _quotient_from_args(args, pres) -> FiniteQuotient:
    if args.quotient and args.hom_cyclic:
        raise ValueError("give either --quotient or --hom-cyclic, not both")
    if args.quotient:
        return _parse_quotient_spec(args.quotient, pres.generators)
    if args.hom_cyclic:
        modulus, exps = args.hom_cyclic
        return _hom_cyclic(int(modulus), exps, pres.generators)
    raise ValueError("a quotient is required: --quotient or --hom-cyclic")


# -- commands ----------------------------------------------------------------


def cmd_def(args) -> int:
    pres = parse_presentation(args.presentation)
    de = p_deficiency(pres, args.prime)
    inv = abelian_invariants(pres)
    upper = abelian_p_deficiency_group(inv, args.prime)
    lines = [
        f"presentation: {pres.to_text()}",
        f"de_{args.prime}(presentation) = {_rat(de)}",
        f"group de_{args.prime} in [{_rat(de)}, {_rat(upper)}]"
        "  (lower: this presentation; upper: abelianization)",
    ]
    payload = {
        "command": "def",
        "p": args.prime,
        "presentation": pres.to_text(),
        "p_deficiency": _rat(de),
        "group_lower": _rat(de),
        "group_upper": _rat(upper),
        "abelian_invariants": {"rank": inv.rank, "divisors": list(inv.divisors)},
    }
    _emit(args, lines, payload)
    return 0


def cmd_abdef(args) -> int:
    pres = parse_presentation(args.presentation)
    inv = abelian_invariants(pres)
    ab_pres = abelian_p_deficiency_presentation(pres, args.prime)
    ab_group = abelian_p_deficiency_group(inv, args.prime)
    dim = d_p(inv, args.prime)
    divisors = " + ".join(f"C{d}" for d in inv.divisors)
    group_desc = " + ".join(x for x in (divisors, f"Z^{inv.rank}" if inv.rank else "") if x) or "trivial"
    lines = [
        f"presentation: {pres.to_text()}",
        f"abelianization: {group_desc}  (rank {inv.rank}, divisors {list(inv.divisors)})",
        f"abelian de_{args.prime}(presentation) = {_rat(ab_pres)}",
        f"abelian de_{args.prime}(group) = {_rat(ab_group)}",
        f"d_{args.prime} = {dim}",
    ]
    payload = {
        "command": "abdef",
        "p": args.prime,
        "presentation": pres.to_text(),
        "rank": inv.rank,
        "divisors": list(inv.divisors),
        "abelian_p_deficiency_presentation": _rat(ab_pres),
        "abelian_p_deficiency_group": _rat(ab_group),
        "d_p": dim,
    }
    _emit(args, lines, payload)
    return 0


def cmd_subgroup(args) -> int:
    pres = parse_presentation(args.presentation)
    q = _quotient_from_args(args, pres)
    index = kernel_index(q, pres)
    sd = schreier(q)
    sub = subgroup_presentation(pres, q, refined=not args.naive, sd=sd)
    refined = subgroup_presentation(pres, q, sd=sd) if args.naive else sub
    report = supermultiplicity_check(pres, q, args.prime, refined)
    lines = [
        f"presentation: {pres.to_text()}",
        f"quotient: {', '.join(f'{n}:{format_perm(img)}' for n, img in zip(pres.generators, q.images))}",
        f"index = {index}",
        "schreier basis:",
    ]
    for name, gen in zip(sub.generators, sd.basis):
        lines.append(f"  {name} = {_word_text(gen.word, pres)}")
    lines += [
        f"subgroup presentation: {sub.to_text()}",
        f"de_{args.prime}(subgroup) = {_rat(report.de_sub)}",
        f"index * de_{args.prime}(presentation) = {_rat(report.scaled)}",
        f"supermultiplicity holds: {report.holds}",
    ]
    payload = {
        "command": "subgroup",
        "p": args.prime,
        "presentation": pres.to_text(),
        "index": index,
        "basis": {
            name: _word_text(gen.word, pres)
            for name, gen in zip(sub.generators, sd.basis)
        },
        "subgroup_presentation": sub.to_text(),
        "de_subgroup": _rat(report.de_sub),
        "de_presentation": _rat(report.de_orig),
        "scaled": _rat(report.scaled),
        "holds": report.holds,
        "naive": bool(args.naive),
    }
    _emit(args, lines, payload)
    return 0


def _word_text(word, pres) -> str:
    return word_to_text(word, pres.generators)


def cmd_psize(args) -> int:
    pres = parse_presentation(args.presentation)
    q = _quotient_from_args(args, pres)
    bound = p_size_bound(pres, q, args.prime)
    lines = [
        f"presentation: {pres.to_text()}",
        f"index = {bound.index}",
        "per-relator transfer terms (k, classes, nu_F, nu_p(k), term):",
    ]
    for c in bound.contributions:
        lines.append(
            f"  relator {c.relator_index}: k={c.centralizer_idx} classes={c.class_count} "
            f"nu_F={c.nu_free} nu_p(k)={c.nu_p_k} term={_rat(c.term)} "
            f"rewritten valuations={list(c.rep_valuations)}"
        )
    lines += [
        f"transfer bound = {_rat(bound.value)}",
        f"exact rewritten p-size = {_rat(bound.exact_sum)}",
    ]
    payload = {
        "command": "psize",
        "p": args.prime,
        "presentation": pres.to_text(),
        "index": bound.index,
        "transfer_bound": _rat(bound.value),
        "exact_sum": _rat(bound.exact_sum),
        "contributions": [
            {
                "relator": c.relator_index,
                "k": c.centralizer_idx,
                "classes": c.class_count,
                "nu_free": c.nu_free,
                "nu_p_k": c.nu_p_k,
                "term": _rat(c.term),
                "rep_valuations": list(c.rep_valuations),
            }
            for c in bound.contributions
        ],
    }
    _emit(args, lines, payload)
    return 0


def cmd_fuchsian(args) -> int:
    sig = parse_signature(args.signature)
    result = de_exact(sig, args.prime)
    lines = [
        f"signature: {format_signature(sig)}",
        f"volume = {_rat(volume(sig))}",
        f"de_{args.prime}(standard presentation) = {_rat(de_standard(sig, args.prime))}",
        f"upper bound = {_rat(de_upper(sig, args.prime))}",
        f"case: {result.case}",
    ]
    if result.negative:
        lines.append(
            f"de_{args.prime}(group): negative; value in [{_rat(result.lower)}, {_rat(result.upper)}]"
        )
    else:
        lines.append(f"de_{args.prime}(group) = {_rat(result.value)} exactly")
    payload = {
        "command": "fuchsian",
        "p": args.prime,
        "signature": format_signature(sig),
        "volume": _rat(volume(sig)),
        "de_standard": _rat(de_standard(sig, args.prime)),
        "de_upper": _rat(de_upper(sig, args.prime)),
        "case": result.case,
        "negative": result.negative,
        "de_exact": None if result.negative else _rat(result.value),
        "interval": [_rat(result.lower), _rat(result.upper)],
    }
    _emit(args, lines, payload)
    return 0


def _parse_action_spec(spec: str, sig, degree_hint) -> EllipticAction:
    names = standard_presentation(sig).generators
    quotient = _parse_quotient_spec(spec, names)
    degree = quotient.degree
    if degree_hint and degree_hint > degree:
        check_degree(degree_hint)
        padded = []
        for perm in quotient.images:
            padded.append(tuple(perm) + tuple(range(degree, degree_hint)))
        quotient = FiniteQuotient(padded)
        degree = degree_hint
    r = len(sig.periods)
    return EllipticAction(
        degree,
        quotient.images[:r],
        quotient.images[r:],
    )


def cmd_singerman(args) -> int:
    sig = parse_signature(args.signature)
    act = _parse_action_spec(args.action, sig, args.degree)
    transferred = singerman_transfer(sig, act)
    lines = [
        f"signature: {format_signature(sig)}",
        f"action degree: {act.degree}",
        f"transferred signature: {format_signature(transferred)}",
        f"volume: {_rat(volume(sig))} -> {_rat(volume(transferred))} "
        f"(x {act.degree} exactly)",
    ]
    payload = {
        "command": "singerman",
        "signature": format_signature(sig),
        "degree": act.degree,
        "transferred": format_signature(transferred),
        "volume": _rat(volume(sig)),
        "transferred_volume": _rat(volume(transferred)),
    }
    _emit(args, lines, payload)
    return 0


def cmd_chi(args) -> int:
    pres = parse_presentation(args.presentation)
    est = chi_p_estimate(pres, args.prime, _load_catalog(args), _budget(args))
    lines = [
        f"presentation: {pres.to_text()}",
        f"subgroups examined: {est.subgroups_examined}"
        + (" (budget exhausted)" if est.exhausted else ""),
        f"best ratio de/index = {_rat(est.best_ratio)} at index {est.witness.index} "
        f"({est.witness.description})",
        f"-chi_{args.prime} >= {_rat(est.best_ratio)}",
    ]
    payload = {
        "command": "chi",
        "p": args.prime,
        "presentation": pres.to_text(),
        "best_ratio": _rat(est.best_ratio),
        "witness": {
            "index": est.witness.index,
            "deficiency": _rat(est.witness.deficiency),
            "description": est.witness.description,
        },
        "subgroups_examined": est.subgroups_examined,
        "exhausted": est.exhausted,
        "samples": [
            {"index": s.index, "deficiency": _rat(s.deficiency),
             "ratio": _rat(s.ratio), "description": s.description}
            for s in est.samples
        ],
    }
    _emit(args, lines, payload)
    return 0


def cmd_gradient(args) -> int:
    pres = parse_presentation(args.presentation)
    window = gradient_window(pres, args.prime, _load_catalog(args), _budget(args))
    lines = [f"presentation: {pres.to_text()}", "window (index, d_p, ratio):"]
    for s in window.samples:
        lines.append(f"  {s.index}  {s.d_p}  {_rat(s.ratio)}  ({s.description})")
    lines.append(
        f"window ratios in [{_rat(window.min_ratio)}, {_rat(window.max_ratio)}]"
        + (" (budget exhausted)" if window.exhausted else "")
    )
    payload = {
        "command": "gradient",
        "p": args.prime,
        "presentation": pres.to_text(),
        "samples": [
            {"index": s.index, "d_p": s.d_p, "ratio": _rat(s.ratio),
             "description": s.description}
            for s in window.samples
        ],
        "min_ratio": _rat(window.min_ratio),
        "max_ratio": _rat(window.max_ratio),
        "exhausted": window.exhausted,
    }
    _emit(args, lines, payload)
    return 0


def cmd_witness(args) -> int:
    pres = parse_presentation(args.presentation)
    budget = _budget(args)
    witness = find_power_witness(pres, args.prime, _load_catalog(args), budget)
    if witness is None:
        lines = ["no witness found"
                 + (" (budget exhausted)" if budget.exhausted else " (search exhausted)")]
        payload = {
            "command": "witness",
            "p": args.prime,
            "presentation": pres.to_text(),
            "found": False,
            "exhausted": budget.exhausted,
        }
        _emit(args, lines, payload)
        return 0
    desc = ", ".join(
        f"{n}:{format_perm(img)}" for n, img in zip(pres.generators, witness.quotient.images)
    )
    lines = [
        f"witness: relator {witness.relator_index} = "
        f"{_word_text(witness.relator, pres)} is a p'-power "
        f"({_word_text(witness.root, pres)})^{witness.exponent}",
        f"quotient: {desc} (index {witness.index})",
        f"kernel de_{args.prime} = {_rat(witness.subgroup_deficiency)} > 0",
    ]
    payload = {
        "command": "witness",
        "p": args.prime,
        "presentation": pres.to_text(),
        "found": True,
        "relator_index": witness.relator_index,
        "relator": _word_text(witness.relator, pres),
        "root": _word_text(witness.root, pres),
        "exponent": witness.exponent,
        "quotient": desc,
        "index": witness.index,
        "kernel_deficiency": _rat(witness.subgroup_deficiency),
    }
    _emit(args, lines, payload)
    return 0


def cmd_verify(args) -> int:
    outcomes = run_checks(args.only)
    lines = []
    for outcome in outcomes:
        tag = "PASS" if outcome.passed else "FAIL"
        lines.append(f"[{tag}] {outcome.name}: {outcome.summary}")
    passed = sum(1 for o in outcomes if o.passed)
    lines.append(f"verify: {passed}/{len(outcomes)} criteria passed")
    payload = {
        "command": "verify",
        "criteria": [
            {"name": o.name, "passed": o.passed, "summary": o.summary,
             "details": o.details}
            for o in outcomes
        ],
        "all_passed": passed == len(outcomes),
    }
    _emit(args, lines, payload)
    return 0 if passed == len(outcomes) else 1


# -- argument wiring ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    sub.add_argument("--degree", type=int, default=0, help="action degree if larger than any named point")
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


_HANDLERS = {
    "def": cmd_def,
    "abdef": cmd_abdef,
    "subgroup": cmd_subgroup,
    "psize": cmd_psize,
    "fuchsian": cmd_fuchsian,
    "singerman": cmd_singerman,
    "chi": cmd_chi,
    "gradient": cmd_gradient,
    "witness": cmd_witness,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
