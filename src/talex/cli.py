"""Command-line front end.

Exit codes: 0 success, 1 usage/parse error, 2 precondition violation
(a PreconditionError from the library, e.g. p does not divide alpha, or
a resource cap), 3 internal certificate failure (an AssertionError from
any certificate, those checked once at construction included, or an
inexact division).  The CLI checks no input itself: the library checks
each one where it is first read.
``--factor`` on a knot without the constructive factorization exits 0
with "split": false -- absence of a factorization is a finding.
"""

from __future__ import annotations

import argparse
import json
import sys

from .factorization import NotSplit, conjecture_report
from .intfactor import FactorizationTooHard
from .knots import (
    PRESETS,
    TwoBridgeFraction,
    alexander,
    hp_expansion,
    presentation,
)
from .laurent import (
    DegreeLimitExceeded,
    LaurentPoly,
    PreconditionError,
    _degree_cap,
)
from .rings import NonExactDivision
from .twisted import (
    binary_dihedral_total,
    dihedral_total,
    kmeta_total,
    metacyclic_total,
    nqp_total,
    perm_dihedral_total,
)

USAGE_ERROR, PRECONDITION_ERROR, CERTIFICATE_ERROR = 1, 2, 3


class UsageError(Exception):
    """A command line that names no knot, two knots, or an unknown preset
    or suite."""


def _emit(payload, fmt):
    """Print a command's payload; its polynomials are LaurentPoly values,
    encoded by to_json only for JSON output."""
    if fmt == "json":
        payload = {
            key: value.to_json() if isinstance(value, LaurentPoly) else value
            for key, value in payload.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def cmd_alexander(args):
    f = TwoBridgeFraction.parse(args.fraction)
    return {"alexander": alexander(presentation(f))}


def cmd_dihedral(args):
    f = TwoBridgeFraction.parse(args.fraction)
    if args.rep == "perm":
        return {"D": perm_dihedral_total(f, args.p)}
    if not args.factor:
        return {"D": dihedral_total(f, args.p)}
    report = conjecture_report(f, args.p)
    return {
        "D": report.D,
        "F": report.F,
        "q": report.q,
        "f": report.f,
        "split": report.split,
        "hp": report.hp,
        "modp": report.modp,
        "remark53": report.remark53,
    }


def cmd_binary_dihedral(args):
    f = TwoBridgeFraction.parse(args.fraction)
    return {"D": binary_dihedral_total(f, args.p)}


def cmd_metacyclic(args):
    f = TwoBridgeFraction.parse(args.fraction)
    if args.rep == "max":
        return {"D": nqp_total(f, args.q, args.p)}
    return {"D": metacyclic_total(f, args.q, args.p)}


def cmd_kmeta(args):
    if bool(args.preset) == bool(args.fraction):
        raise UsageError("kmeta takes one knot: a fraction or --preset")
    if args.preset:
        if args.preset not in PRESETS:
            raise UsageError(f"unknown preset {args.preset!r}")
        pres = PRESETS[args.preset]()
    else:
        pres = presentation(TwoBridgeFraction.parse(args.fraction))
    report = kmeta_total(pres, args.p, args.k)
    return {
        "total": report.total,
        "F": report.factor,
        "period": report.period,
        "conjecture_a": report.conjecture_a_holds,
    }


def cmd_hp_test(args):
    cf = hp_expansion(TwoBridgeFraction.parse(args.fraction), args.p)
    if cf is None:
        return {"hp": "no", "cf": None}
    return {"hp": "yes", "cf": list(cf.entries)}


def cmd_verify(args):
    # imported here, not at the top: the suites' goldens are built at
    # import time, and building them under a small TALEX_MAX_DEGREE must
    # not stop the other commands
    from .verify import SUITES, ItemError, run_suite

    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}")
    items = SUITES[args.suite](max_n=args.max_n, seed=args.seed)
    results, all_ok = run_suite(items)
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
        choices=("xi", "perm"),
        default="xi",
        help="xi: the 2n-dim irreducible total, over Z[omega] (gamma "
        "route); perm: the p-dim permutation one",
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

    p_hp = add_parser(
        "hp-test",
        help="the H(p) expansion [p*k1, 2*m1, ..., p*k_{l+1}] of any "
        "Schubert form, or none",
    )
    p_hp.add_argument("fraction")
    p_hp.add_argument("-p", type=int, required=True)
    p_hp.set_defaults(fn=cmd_hp_test)

    p_v = add_parser("verify", help="run a verification suite")
    p_v.add_argument("suite", help="paper | identities | appendix | census")
    p_v.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="census: the number of sampled knots (default 50); appendix: the "
        "largest n (default 20); paper and identities ignore it",
    )
    p_v.add_argument(
        "--seed",
        type=int,
        default=None,
        help="census: the sampling seed (default 7); the other suites ignore it",
    )
    p_v.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        _degree_cap()  # a malformed cap is refused by every command
        result = args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (NonExactDivision, AssertionError) as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return CERTIFICATE_ERROR
    except (PreconditionError, NotSplit, DegreeLimitExceeded, FactorizationTooHard) as e:
        print(f"error: {e}", file=sys.stderr)
        return PRECONDITION_ERROR
    if isinstance(result, int):
        return result
    _emit(result, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
