"""Command-line front end.

Each subcommand is a generator of report dicts, and `main` alone prints
them: one JSON line each on stdout, every rational exactly as "p/q".  The
exit code follows from the reports: 0 when every report passes (verdict
"pass", or "passed" true for a suite criterion), 1 when any fails or
deviates, and 2 on a usage or input error; a PosetError also gets a JSON
error report.  `export` without --dot or --json prints DOT and no report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .core import RankedPoset, from_json
from .errors import PosetError
from .families import parse_poset_spec, split_top_level

RANDOM_ALGORITHM = "mt19937"


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _read_json(path: str, what: str):
    """The parsed JSON of a file, or a PosetError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise PosetError(f"cannot read {what} file {path!r}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:
        raise PosetError(f"{what} file {path!r} is not valid JSON: {exc}") from None


def _ints(text: str, tokens) -> list[int]:
    """Integer ids, or a PosetError naming the offending text; JSON true is no id."""
    try:
        ids = [int(t) for t in tokens]
    except (TypeError, ValueError):
        ids = None
    if ids is None or any(isinstance(t, bool) for t in tokens):
        raise PosetError(f"{text!r} needs integer ids")
    return ids


def load_poset(spec: str) -> RankedPoset:
    if spec.startswith("@"):
        return from_json(_read_json(spec[1:], "poset"), source=f"poset file {spec[1:]!r}")
    return parse_poset_spec(spec)


def parse_family(poset: RankedPoset, text: str | None) -> frozenset[int]:
    """Family literals: comma-separated ids or labels, @file, or random:n[:seed] (seed 0)."""
    if text is None:
        raise PosetError("this command needs --family")
    if text.startswith("@"):
        ids = _read_json(text[1:], "family")
        if not isinstance(ids, list):
            raise PosetError(f"family file {text[1:]!r} must hold a JSON list of ids")
        return frozenset(_ints(text, ids))
    if text.startswith("random:"):
        parts = text.split(":")
        if len(parts) > 3:
            raise PosetError(f"family {text!r} must read random:n or random:n:seed")
        size, *rest = _ints(text, parts[1:])
        if not 0 <= size <= poset.n:
            raise PosetError(f"family {text!r}: cannot draw {size} of {poset.n} elements")
        rng = random.Random(rest[0] if rest else 0)
        return frozenset(rng.sample(range(poset.n), size))
    members = set()
    for token in split_top_level(text):
        token = token.strip()
        if not token:
            continue
        try:
            members.add(int(token))
        except ValueError:
            members.add(poset.element_by_label(token))
    return frozenset(members)


def parse_pair_family(text: str | None) -> frozenset[tuple[int, int]]:
    if text is None:
        raise PosetError("this command needs --family")
    if text.startswith("@"):
        pairs = _read_json(text[1:], "family")
        if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
            raise PosetError(f"family file {text[1:]!r} must hold a JSON list of id pairs")
        return frozenset(tuple(_ints(text, pair)) for pair in pairs)
    out = set()
    for token in split_top_level(text):
        token = token.strip()
        if not token:
            continue
        a, _, b = token.partition(":")
        out.add(tuple(_ints(token, (a, b))))
    return frozenset(out)


def emit(report: dict) -> None:
    # exact counts such as 2000! run past the interpreter's default limit of
    # 4,300 digits for int-to-str, so it is lifted while a report is encoded;
    # Python before 3.10.7 has no limit and no setter
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        text = json.dumps(report)
    else:
        saved = limit()
        sys.set_int_max_str_digits(0)
        try:
            text = json.dumps(report)
        finally:
            sys.set_int_max_str_digits(saved)
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def _report(cmd: str, verdict: str, **fields) -> dict:
    return {"cmd": cmd, "verdict": verdict, **fields}


def _passes(report: dict) -> bool:
    """A command report passes on verdict "pass", a suite criterion when it passed."""
    return report.get("verdict") == "pass" or report.get("passed") is True


def _holds(holds: bool) -> str:
    return "pass" if holds else "fail"


def _equals(total: Fraction, expected: Fraction) -> str:
    return "pass" if total == expected else "deviates"


def _digest(*parts) -> str:
    import hashlib

    text = "|".join(str(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- subcommands ----------------------------------------------------------
#
# Each cmd_* yields its reports; main prints them and derives the exit code.
# A subcommand imports its library module when it runs, and so does each
# entry of its action or identity table, so a call loads only the modules it
# uses (the README's CLI section lists them).  An import made at call time
# also sees a library name rebound after this module was loaded, as the
# benchmark's tracing does.


def cmd_gen(args):
    poset = load_poset(args.poset)
    yield _report(
        "gen",
        "pass",
        poset=poset.name,
        elements=poset.n,
        whitney=list(poset.whitney),
        graded=poset.is_graded,
        u_poset=poset.is_u_poset,
    )


def cmd_export(args):
    poset = load_poset(args.poset)
    wrote = []
    try:
        if args.dot:
            Path(args.dot).write_text(poset.to_dot())
            wrote.append(args.dot)
        if args.json:
            Path(args.json).write_text(json.dumps(poset.to_json(), indent=2))
            wrote.append(args.json)
    except OSError as exc:
        raise PosetError(f"cannot write file {exc.filename!r}: {exc.strerror or exc}") from None
    if wrote:
        yield _report("export", "pass", poset=poset.name, wrote=wrote)
    else:
        sys.stdout.write(poset.to_dot())


# property -> its checker in azsperner.properties; only normal takes --mode
_PROPERTY_CHECKS = {
    "regular": "check_regular",
    "normal": "check_normal",
    "strictly-normal": "check_strictly_normal",
    "level-connected": "check_level_connected",
    "strongly-regular": "check_strongly_regular",
}


def cmd_check(args):
    from . import properties

    poset = load_poset(args.poset)
    check = getattr(properties, _PROPERTY_CHECKS[args.property])
    options = {"mode": args.mode or "flow"} if args.property == "normal" else {}
    result = check(poset, **options)
    yield _report("check", _holds(result.holds), poset=poset.name, **result.to_json())


def _thm5(poset, args):
    from .az import SkewPairSystem, second_az_identity

    if not args.pairs:
        raise PosetError("thm5 needs --pairs a:b,c:d (ids or labels)")
    pairs = []
    for token in split_top_level(args.pairs):
        a_text, _, b_text = token.strip().partition(":")
        fam_a, fam_b = parse_family(poset, a_text), parse_family(poset, b_text)
        if len(fam_a) != 1 or len(fam_b) != 1:
            raise PosetError(f"pair {token!r} must name one element on each side")
        pairs.append((*fam_a, *fam_b))
    report = second_az_identity(poset, SkewPairSystem(pairs=tuple(pairs)))
    return report.total, Fraction(1), report.to_json


def _thm1(poset, args):
    from .az import az_identity_sum

    report = az_identity_sum(poset, parse_family(poset, args.family))
    return report.total, Fraction(1), report.to_json


def _keylemma(poset, args):
    from .az import key_lemma_sum

    return key_lemma_sum(poset, parse_family(poset, args.family)), Fraction(1), None


def _cor2(poset, args):
    from .az import antichain_az

    lym, rem = antichain_az(poset, parse_family(poset, args.family))
    return lym + rem, Fraction(1), lambda: {"lym_part": _frac(lym), "remainder": _frac(rem)}


def _cor3(poset, args):
    from .az import k_sperner_az

    return k_sperner_az(poset, parse_family(poset, args.family), args.k), Fraction(args.k), None


# identity -> (poset, args) -> (total, expected, builder of the --breakdown JSON or None)
_IDENTITIES = {
    "thm1": _thm1,
    "keylemma": _keylemma,
    "cor2": _cor2,
    "cor3": _cor3,
    "thm5": _thm5,
}


def cmd_az(args):
    poset = load_poset(args.poset)
    start = time.perf_counter()
    total, expected, breakdown = _IDENTITIES[args.identity](poset, args)
    report = _report(
        "az",
        _equals(total, expected),
        poset=poset.name,
        identity=args.identity,
        inputs_digest=_digest(args.poset, args.family, args.pairs, args.identity, args.k),
        result=_frac(total),
        expected=_frac(expected),
        random_algorithm=RANDOM_ALGORITHM if args.family and args.family.startswith("random:") else None,
        ms=round(1000 * (time.perf_counter() - start), 2),
    )
    if breakdown is not None and args.breakdown:
        report["breakdown"] = breakdown()
    yield report


def _sperner_max(poset, args):
    from .sperner import max_antichain

    fam = max_antichain(poset)
    return "pass", {"size": len(fam), "family": sorted(fam)}


def _sperner_lym(poset, args):
    from .sperner import lym_sum

    return "pass", {"result": _frac(lym_sum(poset, parse_family(poset, args.family)))}


def _sperner_decompose(poset, args):
    from .sperner import dual_dilworth_decompose, is_k_sperner

    fam = parse_family(poset, args.family)
    parts = dual_dilworth_decompose(poset, fam)
    ok, chain = is_k_sperner(poset, fam, args.k)
    return _holds(ok), {
        "parts": [sorted(p) for p in parts],
        "chain": None if chain is None else list(chain),
    }


def _sperner_strict(poset, args):
    from .sperner import check_strict_k_sperner

    result = check_strict_k_sperner(poset, args.k)
    return _holds(result.holds), result.to_json()


# action -> (poset, args) -> (verdict, report fields after "action")
_SPERNER_ACTIONS = {
    "max": _sperner_max,
    "lym": _sperner_lym,
    "strict": _sperner_strict,
    "decompose": _sperner_decompose,
}


def cmd_sperner(args):
    poset = load_poset(args.poset)
    verdict, fields = _SPERNER_ACTIONS[args.action](poset, args)
    yield _report("sperner", verdict, poset=poset.name, action=args.action, **fields)


def _twopart_max(p, q, args):
    from .twopart import max_two_part_sperner_exact

    size, families = max_two_part_sperner_exact(p, q, enumerate_all=args.all)
    listed = (
        {"families": [sorted(f) for f in families]} if args.all else {"family": sorted(families[0])}
    )
    return "pass", {"size": size, "count": len(families), **listed}


def _twopart_strict(p, q, args):
    from .twopart import verify_strict_two_part

    result = verify_strict_two_part(p, q)
    return _holds(result.holds), result.to_json()


def _twopart_az(p, q, args):
    from .twopart import two_part_az_sum

    total = two_part_az_sum(p, q, parse_pair_family(args.family)).total
    expected = Fraction(q.height + 1)
    return _equals(total, expected), {
        "inputs_digest": _digest(args.p, args.q, args.family),
        "result": _frac(total),
        "expected": _frac(expected),
    }


def _twopart_identity(p, q, args):
    from .twopart import two_part_sperner_identity

    lym, rem = two_part_sperner_identity(p, q, parse_pair_family(args.family))
    expected = Fraction(min(p.height, q.height) + 1)
    return _equals(lym + rem, expected), {
        "inputs_digest": _digest(args.p, args.q, args.family),
        "lym": _frac(lym),
        "remainder": _frac(rem),
        "expected": _frac(expected),
    }


def _twopart_lym(p, q, args):
    from .twopart import two_part_lym

    return "pass", {"result": _frac(two_part_lym(p, q, parse_pair_family(args.family)))}


def _twopart_well_paired(p, q, args):
    from .twopart import well_paired_family

    fam, transversal = well_paired_family(p, q)
    return "pass", {"size": len(fam), "transversal": transversal.to_json(), "family": sorted(fam)}


# action -> (p, q, args) -> (verdict, report fields after "action")
_TWOPART_ACTIONS = {
    "max": _twopart_max,
    "verify-strict": _twopart_strict,
    "az": _twopart_az,
    "identity": _twopart_identity,
    "lym": _twopart_lym,
    "well-paired": _twopart_well_paired,
}


def cmd_twopart(args):
    p = load_poset(args.p)
    q = load_poset(args.q)
    verdict, fields = _TWOPART_ACTIONS[args.action](p, q, args)
    yield _report("twopart", verdict, p=p.name, q=q.name, action=args.action, **fields)


def cmd_cover(args):
    from .properties import build_chain_covering, verify_chain_covering

    poset = load_poset(args.poset)
    report = verify_chain_covering(poset, build_chain_covering(poset))
    yield _report("cover", _holds(report.holds), poset=poset.name, **report.to_json())


def cmd_suite(args):
    from . import acceptance

    criteria = acceptance.ALL_CRITERIA
    if args.criterion is not None:
        if not 1 <= args.criterion <= len(criteria):
            raise PosetError(
                f"--criterion must be between 1 and {len(criteria)}, got {args.criterion}"
            )
        criteria = [criteria[args.criterion - 1]]
    for fn in criteria:
        yield fn().to_json()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="azsperner",
        description="Exact checks of poset structure, LYM/AZ-type identities, and strict Sperner properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a poset and report its shape")
    sp.add_argument("--poset", "-p", required=True, help="family spec or @file.json")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("export", help="emit DOT or JSON")
    sp.add_argument("--poset", "-p", required=True)
    sp.add_argument("--dot", help="path for DOT output")
    sp.add_argument("--json", help="path for JSON output")
    sp.set_defaults(fn=cmd_export)

    sp = sub.add_parser("check", help="structural property checks")
    sp.add_argument("--poset", "-p", required=True)
    sp.add_argument("--property", required=True, choices=sorted(_PROPERTY_CHECKS))
    sp.add_argument("--mode", choices=["enumerate", "flow"])
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("az", help="identity verification")
    sp.add_argument("verb", choices=["verify"])
    sp.add_argument("--poset", "-p", required=True)
    sp.add_argument("--family", help="ids/labels, @file, or random:n:seed")
    sp.add_argument("--pairs", help="thm5 pair system a:b,c:d")
    sp.add_argument("--identity", required=True, choices=list(_IDENTITIES))
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--breakdown", action="store_true", help="include per-element terms")
    sp.set_defaults(fn=cmd_az)

    sp = sub.add_parser("sperner", help="antichain machinery")
    sp.add_argument("action", choices=list(_SPERNER_ACTIONS))
    sp.add_argument("--poset", "-p", required=True)
    sp.add_argument("--family")
    sp.add_argument("--k", type=int, default=1)
    sp.set_defaults(fn=cmd_sperner)

    sp = sub.add_parser("twopart", help="product-poset machinery")
    sp.add_argument("action", choices=list(_TWOPART_ACTIONS))
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--family", help="p:q pairs or @file.json")
    sp.add_argument("--all", action="store_true")
    sp.set_defaults(fn=cmd_twopart)

    sp = sub.add_parser("cover", help="build and verify a regular chain covering")
    sp.add_argument("--poset", "-p", required=True)
    sp.set_defaults(fn=cmd_cover)

    sp = sub.add_parser("suite", help="run the acceptance criteria")
    sp.add_argument("--criterion", type=int)
    sp.set_defaults(fn=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    passed = True
    try:
        for report in args.fn(args):
            emit(report)
            passed = _passes(report) and passed
    except PosetError as exc:
        emit({"cmd": args.command, "verdict": "error", "error": str(exc)})
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
