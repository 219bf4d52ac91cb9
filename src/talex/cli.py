"""Command-line front end.

Exit codes: 0 success, 1 usage/parse error, 2 precondition violation
(e.g. p does not divide alpha), 3 internal certificate failure.
``--factor`` on a knot without the constructive factorization exits 0
with "split": false -- absence of a factorization is a finding.
"""

from __future__ import annotations

import argparse
import json
import sys

from .factorization import (
    CertificateFailure,
    NotSplit,
    conjecture_report,
)
from .knots import (
    NotFoundWithinBounds,
    PRESETS,
    TwoBridgeFraction,
    alexander,
    hp_expansion,
    presentation,
)
from .laurent import DegreeLimitExceeded, LaurentPoly
from .representations import NoValidAssignment
from .rings import NonExactDivision
from .twisted import (
    AllDenominatorsSingular,
    CrossCheckMismatch,
    binary_dihedral_total,
    dihedral_total,
    irr_dihedral_total,
    kmeta_total,
    metacyclic_total,
    nqp_total,
    perm_dihedral_total,
)
from .verify import SUITES, ItemError, run_suite

USAGE_ERROR, PRECONDITION_ERROR, CERTIFICATE_ERROR = 1, 2, 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_fraction(text):
    try:
        return TwoBridgeFraction.parse(text)
    except (ValueError, ZeroDivisionError) as e:
        raise CliError(f"bad fraction {text!r}: {e}", PRECONDITION_ERROR)


def _poly_out(p):
    return p.to_json()


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        if isinstance(value, dict) and "coeffs" in value:
            value = str(LaurentPoly.from_json(value))
        print(f"{key}: {value}")


def cmd_alexander(args):
    f = _parse_fraction(args.fraction)
    return {"alexander": _poly_out(alexander(presentation(f)))}


def _check_divides(f, p):
    if f.alpha % p != 0:
        raise CliError(
            f"p={p} does not divide alpha={f.alpha}", PRECONDITION_ERROR
        )


def cmd_dihedral(args):
    f = _parse_fraction(args.fraction)
    _check_divides(f, args.p)
    if args.rep == "perm":
        return {"D": _poly_out(perm_dihedral_total(f, args.p))}
    if args.rep == "irr":
        return {"D": _poly_out(irr_dihedral_total(f, args.p))}
    if not args.factor:
        return {"D": _poly_out(dihedral_total(f, args.p))}
    report = conjecture_report(f, args.p)
    return {
        "D": _poly_out(report.D),
        "F": _poly_out(report.F) if report.F is not None else None,
        "q": _poly_out(report.q) if report.q is not None else None,
        "f": _poly_out(report.f) if report.f is not None else None,
        "split": report.split,
        "hp": report.hp,
        "modp": report.modp,
        "remark53": report.remark53,
    }


def cmd_binary_dihedral(args):
    f = _parse_fraction(args.fraction)
    _check_divides(f, args.p)
    return {"D": _poly_out(binary_dihedral_total(f, args.p))}


def cmd_metacyclic(args):
    f = _parse_fraction(args.fraction)
    _check_divides(f, args.p)
    if args.rep == "max":
        return {"D": _poly_out(nqp_total(f, args.q, args.p))}
    return {"D": _poly_out(metacyclic_total(f, args.q, args.p))}


def cmd_kmeta(args):
    if args.preset:
        if args.preset not in PRESETS:
            raise CliError(f"unknown preset {args.preset!r}", USAGE_ERROR)
        pres = PRESETS[args.preset]()
    else:
        if not args.fraction:
            raise CliError("kmeta needs a fraction or --preset", USAGE_ERROR)
        pres = presentation(_parse_fraction(args.fraction))
    try:
        report = kmeta_total(pres, args.p, args.k)
    except (ValueError, NoValidAssignment) as e:
        raise CliError(str(e), PRECONDITION_ERROR)
    return {
        "total": _poly_out(report.total),
        "F": _poly_out(report.factor) if report.factor is not None else None,
        "period": report.period,
        "conjecture_a": report.conjecture_a_holds,
    }


def cmd_hp_test(args):
    f = _parse_fraction(args.fraction)
    result = hp_expansion(
        f, args.p, max_k=args.max_k, max_m=args.max_m, max_len=args.max_len
    )
    if isinstance(result, NotFoundWithinBounds):
        return {"hp": "inconclusive", "cf": None}
    return {"hp": "yes", "cf": list(result.entries)}


def cmd_verify(args):
    if args.suite not in SUITES:
        raise CliError(f"unknown suite {args.suite!r}", USAGE_ERROR)
    items = SUITES[args.suite](max_n=args.max_n, seed=args.seed)
    results, all_ok = run_suite(items, jobs=args.jobs)
    for name, ok, advisory in results:
        if isinstance(ok, ItemError):
            print(f"{'ERROR':8s} {name}: {ok}")
            continue
        if advisory:
            tag = "REPORT+" if ok else "REPORT-"
        else:
            tag = "PASS" if ok else "FAIL"
        print(f"{tag:8s} {name}")
    passed = sum(1 for _, ok, adv in results if ok and not adv)
    hard = sum(1 for *_x, adv in results if not adv)
    print(f"{passed}/{hard} checks passed"
          f" ({len(results) - hard} advisory findings reported)")
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="talex",
        description="Exact twisted Alexander polynomials of 2-bridge knots.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p_alex = add_parser("alexander", help="Alexander polynomial of K(beta/alpha)")
    p_alex.add_argument("fraction")
    p_alex.set_defaults(fn=cmd_alexander)

    p_di = add_parser("dihedral", help="total dihedral twisted polynomial")
    p_di.add_argument("fraction")
    p_di.add_argument("-p", type=int, required=True)
    p_di.add_argument(
        "--rep",
        choices=("xi", "irr", "perm"),
        default="xi",
        help="xi: total over Z[omega] (gamma route); irr: the 2n-dim "
        "integer representation directly; perm: the p-dim permutation one",
    )
    p_di.add_argument(
        "--factor", action="store_true", help="also run the f(t)f(-t) factorization"
    )
    p_di.set_defaults(fn=cmd_dihedral)

    p_bd = add_parser("binary-dihedral", help="binary dihedral total")
    p_bd.add_argument("fraction")
    p_bd.add_argument("-p", type=int, required=True)
    p_bd.set_defaults(fn=cmd_binary_dihedral)

    p_mc = add_parser("metacyclic", help="N(q,p) twisted polynomials")
    p_mc.add_argument("fraction")
    p_mc.add_argument("-p", type=int, required=True)
    p_mc.add_argument("-q", type=int, required=True)
    p_mc.add_argument(
        "--rep",
        choices=("irr", "max"),
        default="irr",
        help="irr: product over primitive roots; max: 2pq permutation module",
    )
    p_mc.set_defaults(fn=cmd_metacyclic)

    p_km = add_parser("kmeta", help="K-metacyclic twisted polynomial")
    p_km.add_argument("fraction", nargs="?")
    p_km.add_argument("--preset", help="preset knot name, e.g. 8_5")
    p_km.add_argument("-p", type=int, required=True)
    p_km.add_argument("-k", type=int, required=True)
    p_km.set_defaults(fn=cmd_kmeta)

    p_hp = add_parser("hp-test", help="bounded search for the H(p) expansion")
    p_hp.add_argument("fraction")
    p_hp.add_argument("-p", type=int, required=True)
    p_hp.add_argument("--max-k", type=int, default=4)
    p_hp.add_argument("--max-m", type=int, default=8)
    p_hp.add_argument("--max-len", type=int, default=7)
    p_hp.set_defaults(fn=cmd_hp_test)

    p_v = add_parser("verify", help="run a verification suite")
    p_v.add_argument("suite", help="paper | identities | appendix | census")
    p_v.add_argument("--max-n", type=int, default=None)
    p_v.add_argument("--seed", type=int, default=None)
    p_v.add_argument("--jobs", type=int, default=1)
    p_v.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        result = args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (NonExactDivision, CertificateFailure, CrossCheckMismatch) as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return CERTIFICATE_ERROR
    except (AllDenominatorsSingular, NotSplit, DegreeLimitExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return PRECONDITION_ERROR
    if isinstance(result, int):
        return result
    _emit(result, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
