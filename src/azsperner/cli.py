"""Command-line front end.

Reports are JSON lines on stdout; every rational is emitted exactly as
"p/q".  Exit codes: 0 when all reports pass, 1 when any fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import acceptance
from .az import (
    SkewPairSystem,
    az_identity_sum,
    antichain_az,
    k_sperner_az,
    key_lemma_sum,
    second_az_identity,
)
from .core import RankedPoset, from_json
from .errors import PosetError
from .families import parse_poset_spec, split_top_level
from .properties import (
    build_chain_covering,
    check_level_connected,
    check_normal,
    check_regular,
    check_strictly_normal,
    check_strongly_regular,
    verify_chain_covering,
)
from .sperner import (
    check_strict_k_sperner,
    dual_dilworth_decompose,
    is_k_sperner,
    lym_sum,
    max_antichain,
)
from .twopart import (
    best_full_transversal,
    max_two_part_sperner_exact,
    two_part_az_sum,
    two_part_lym,
    two_part_sperner_identity,
    verify_strict_two_part,
    well_paired_family,
)

RANDOM_ALGORITHM = "mt19937"


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _read_json(path: str, what: str):
    """The parsed JSON of a file, or a PosetError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise PosetError(f"cannot read {what} file {path!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
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


def parse_family(poset: RankedPoset, text: str | None, seed: int | None = None) -> frozenset[int]:
    """Family literals: comma-separated ids or labels, @file, or random:n:seed."""
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
        rng = random.Random(rest[0] if rest else (seed or 0))
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
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()


def _report(cmd: str, verdict: str, **fields) -> dict:
    return {"cmd": cmd, "verdict": verdict, **fields}


def _digest(*parts) -> str:
    import hashlib

    text = "|".join(str(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- subcommands ----------------------------------------------------------


def cmd_gen(args) -> int:
    poset = load_poset(args.poset)
    report = _report(
        "gen",
        "pass",
        poset=poset.name,
        elements=poset.n,
        whitney=list(poset.whitney),
        graded=poset.is_graded,
        u_poset=poset.is_u_poset,
    )
    emit(report)
    return 0


def cmd_export(args) -> int:
    poset = load_poset(args.poset)
    wrote = []
    if args.dot:
        Path(args.dot).write_text(poset.to_dot())
        wrote.append(args.dot)
    if args.json:
        Path(args.json).write_text(poset.to_json_str(indent=2))
        wrote.append(args.json)
    if not wrote:
        sys.stdout.write(poset.to_dot())
        return 0
    emit(_report("export", "pass", poset=poset.name, wrote=wrote))
    return 0


_PROPERTY_CHECKS = {
    "regular": lambda p, mode: check_regular(p),
    "normal": lambda p, mode: check_normal(p, mode=mode or "flow"),
    "strictly-normal": lambda p, mode: check_strictly_normal(p),
    "level-connected": lambda p, mode: check_level_connected(p),
    "strongly-regular": lambda p, mode: check_strongly_regular(p),
}


def cmd_check(args) -> int:
    poset = load_poset(args.poset)
    result = _PROPERTY_CHECKS[args.property](poset, args.mode)
    obj = result.to_json()
    obj.pop("table", None)
    emit(
        _report(
            "check",
            "pass" if result.holds else "fail",
            poset=poset.name,
            **obj,
        )
    )
    return 0 if result.holds else 1


def cmd_az(args) -> int:
    poset = load_poset(args.poset)
    start = time.perf_counter()
    identity = args.identity
    breakdown = None  # builds the --breakdown JSON, only when asked for
    if identity == "thm5":
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
        total, expected = report.total, Fraction(1)
        breakdown = report.to_json
    else:
        fam = parse_family(poset, args.family, seed=args.seed)
        if identity == "thm1":
            rep = az_identity_sum(poset, fam)
            total, expected = rep.total, Fraction(1)
            breakdown = rep.to_json
        elif identity == "keylemma":
            total, expected = key_lemma_sum(poset, fam), Fraction(1)
        elif identity == "cor2":
            lym, rem = antichain_az(poset, fam)
            total, expected = lym + rem, Fraction(1)
            breakdown = lambda: {"lym_part": _frac(lym), "remainder": _frac(rem)}
        elif identity == "cor3":
            total, expected = k_sperner_az(poset, fam, args.k), Fraction(args.k)
        else:
            raise PosetError(f"unknown identity {identity!r}")
    verdict = "pass" if total == expected else "deviates"
    report = _report(
        "az",
        verdict,
        poset=poset.name,
        identity=identity,
        inputs_digest=_digest(args.poset, args.family, args.pairs, identity, args.k),
        result=_frac(total),
        expected=_frac(expected),
        random_algorithm=RANDOM_ALGORITHM if args.family and args.family.startswith("random:") else None,
        ms=round(1000 * (time.perf_counter() - start), 2),
    )
    if breakdown is not None and args.breakdown:
        report["breakdown"] = breakdown()
    emit(report)
    return 0 if verdict == "pass" else 1


def cmd_sperner(args) -> int:
    poset = load_poset(args.poset)
    if args.action == "max":
        fam = max_antichain(poset)
        emit(
            _report(
                "sperner",
                "pass",
                poset=poset.name,
                action="max",
                size=len(fam),
                family=sorted(fam),
            )
        )
        return 0
    if args.action == "lym":
        fam = parse_family(poset, args.family, seed=args.seed)
        emit(
            _report(
                "sperner",
                "pass",
                poset=poset.name,
                action="lym",
                result=_frac(lym_sum(poset, fam)),
            )
        )
        return 0
    if args.action == "decompose":
        fam = parse_family(poset, args.family, seed=args.seed)
        parts = dual_dilworth_decompose(poset, fam)
        ok, chain = is_k_sperner(poset, fam, max(args.k, len(parts)))
        emit(
            _report(
                "sperner",
                "pass" if ok else "fail",
                poset=poset.name,
                action="decompose",
                parts=[sorted(p) for p in parts],
                chain=None if chain is None else list(chain),
            )
        )
        return 0
    if args.action == "strict":
        result = check_strict_k_sperner(poset, args.k)
        emit(
            _report(
                "sperner",
                "pass" if result.holds else "fail",
                poset=poset.name,
                action="strict",
                **result.to_json(),
            )
        )
        return 0 if result.holds else 1
    raise PosetError(f"unknown sperner action {args.action!r}")


def cmd_twopart(args) -> int:
    p = load_poset(args.p)
    q = load_poset(args.q)
    if args.action == "max":
        size, families = max_two_part_sperner_exact(p, q, enumerate_all=args.all)
        report = _report(
            "twopart",
            "pass",
            p=p.name,
            q=q.name,
            action="max",
            size=size,
            count=len(families),
        )
        report["families" if args.all else "family"] = (
            [sorted(f) for f in families] if args.all else sorted(families[0])
        )
        emit(report)
        return 0
    if args.action == "verify-strict":
        result = verify_strict_two_part(p, q)
        emit(
            _report(
                "twopart",
                "pass" if result.holds else "fail",
                p=p.name,
                q=q.name,
                action="verify-strict",
                **result.to_json(),
            )
        )
        return 0 if result.holds else 1
    if args.action == "az":
        fam = parse_pair_family(args.family)
        report = two_part_az_sum(p, q, fam)
        expected = Fraction(q.height + 1)
        verdict = "pass" if report.total == expected else "deviates"
        emit(
            _report(
                "twopart",
                verdict,
                p=p.name,
                q=q.name,
                action="az",
                inputs_digest=_digest(args.p, args.q, args.family),
                result=_frac(report.total),
                expected=_frac(expected),
            )
        )
        return 0 if verdict == "pass" else 1
    if args.action == "identity":
        fam = parse_pair_family(args.family)
        lym, rem = two_part_sperner_identity(p, q, fam)
        expected = Fraction(min(p.height, q.height) + 1)
        verdict = "pass" if lym + rem == expected else "deviates"
        emit(
            _report(
                "twopart",
                verdict,
                p=p.name,
                q=q.name,
                action="identity",
                inputs_digest=_digest(args.p, args.q, args.family),
                lym=_frac(lym),
                remainder=_frac(rem),
                expected=_frac(expected),
            )
        )
        return 0 if verdict == "pass" else 1
    if args.action == "lym":
        fam = parse_pair_family(args.family)
        emit(
            _report(
                "twopart",
                "pass",
                p=p.name,
                q=q.name,
                action="lym",
                result=_frac(two_part_lym(p, q, fam)),
            )
        )
        return 0
    if args.action == "well-paired":
        fam, transversal = well_paired_family(p, q)
        _, value = best_full_transversal(p, q)
        emit(
            _report(
                "twopart",
                "pass",
                p=p.name,
                q=q.name,
                action="well-paired",
                size=value,
                transversal=transversal.to_json(),
                family=sorted(fam),
            )
        )
        return 0
    raise PosetError(f"unknown twopart action {args.action!r}")


def cmd_cover(args) -> int:
    poset = load_poset(args.poset)
    covering = build_chain_covering(poset)
    report = verify_chain_covering(poset, covering)
    emit(
        _report(
            "cover",
            "pass" if report.holds else "fail",
            poset=poset.name,
            **report.to_json(),
        )
    )
    return 0 if report.holds else 1


def cmd_suite(args) -> int:
    failures = 0
    wanted = args.criterion
    for idx, fn in enumerate(acceptance.ALL_CRITERIA, start=1):
        if wanted and idx != wanted:
            continue
        result = fn()
        emit(result.to_json())
        if not result.passed:
            failures += 1
    return 0 if failures == 0 else 1


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
    sp.add_argument(
        "--identity",
        required=True,
        choices=["thm1", "keylemma", "cor2", "cor3", "thm5"],
    )
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--breakdown", action="store_true", help="include per-element terms")
    sp.set_defaults(fn=cmd_az)

    sp = sub.add_parser("sperner", help="antichain machinery")
    sp.add_argument("action", choices=["max", "lym", "strict", "decompose"])
    sp.add_argument("--poset", "-p", required=True)
    sp.add_argument("--family")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(fn=cmd_sperner)

    sp = sub.add_parser("twopart", help="product-poset machinery")
    sp.add_argument(
        "action",
        choices=["max", "verify-strict", "az", "identity", "lym", "well-paired"],
    )
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--family", help="p:q pairs or @file.json")
    sp.add_argument("--all", action="store_true")
    sp.set_defaults(fn=cmd_twopart)

    sp = sub.add_parser("cover", help="build and verify a regular chain covering")
    sp.add_argument("--poset", "-p", required=True)
    sp.set_defaults(fn=cmd_cover)

    sp = sub.add_parser("suite", help="run the acceptance criteria")
    sp.add_argument("--level", default="desk", choices=["desk"])
    sp.add_argument("--criterion", type=int)
    sp.set_defaults(fn=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PosetError as exc:
        emit({"cmd": args.command, "verdict": "error", "error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
