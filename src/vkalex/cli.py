"""Command-line frontend.

Subcommands: delta, writhe, zh, group, ideals, longitude, sieve.  Global
flags work both before and after the subcommand name.  Exit codes: 0 on
success, 2 on input errors (syntax, validation, missing files, operations
asked of the wrong kind of diagram), 3 on any other exception, which is a
bug.
"""

import argparse
import functools
import json
import sys

from . import alexander, gauss, groups, sieve
from .zh import zh as _zh
from .laurent import canonicalize, MONOMIAL_SIGN, UNIT_CLASSES


class UsageError(ValueError):
    """Flag combination the subcommand cannot honor."""


_INPUT_ERRORS = (gauss.GaussSyntaxError, gauss.GaussValidationError,
                 gauss.BadIndex, alexander.NotAKnot, sieve.CensusParseError,
                 UsageError, OSError)


def _add_common(parser, suppress):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--format", choices=["text", "json", "csv"],
                        default="text" if not suppress else default,
                        help="output format (csv only for sieve)")
    parser.add_argument("--unit-class", choices=sorted(UNIT_CLASSES),
                        default=MONOMIAL_SIGN if not suppress else default,
                        help="normalization applied to printed polynomials")
    parser.add_argument("--serial", action="store_true",
                        default=False if not suppress else default,
                        help="disable parallel evaluation in the sieve")
    parser.add_argument("--skip-bad", action="store_true",
                        default=False if not suppress else default,
                        help="count malformed census lines instead of failing")


def _diagram(code):
    return gauss.to_diagram(gauss.parse_gauss_code(code))


def _poly_str(poly, unit_class):
    return str(canonicalize(poly, unit_class))


def cmd_delta(args):
    d = _diagram(args.code)
    g = alexander.delta0(d)
    shown = _poly_str(g, args.unit_class)
    zero = g.is_zero()
    obstructed = not zero
    if args.format == "json":
        out = {"delta0": shown, "zero": zero, "obstructed": obstructed}
        print(json.dumps(out, indent=2))
    else:
        print(shown)
        print("zero: %s" % str(zero).lower())
        if obstructed:
            print("obstructed: true")
    return 0


def cmd_writhe(args):
    d = _diagram(args.code)
    w = alexander.writhe_polynomial(d)
    if args.format == "json":
        print(json.dumps({"writhe": str(w)}, indent=2))
    else:
        print(str(w))
    return 0


def cmd_zh(args):
    d = _diagram(args.code)
    z = _zh(d)
    code = gauss.to_code(z.diagram)
    parts = code.split(",")
    if args.format == "json":
        comps = [{"code": text, "omega": ci == z.omega_index}
                 for ci, text in enumerate(parts)]
        out = {
            "code": code,
            "components": comps,
            "omega_index": z.omega_index,
        }
        print(json.dumps(out, indent=2))
    else:
        print(code)
        print("components: %d" % len(parts))
        print("omega: %d" % z.omega_index)
    return 0


def _presentation(args):
    d = _diagram(args.code)
    return groups.reduced_group(d) if args.reduced else groups.wirtinger(d)


def cmd_group(args):
    p = _presentation(args)
    if args.simplify:
        p = groups.tietze_eliminate(p)
    if args.format == "json":
        gens = [{"name": "a%d" % (g + 1),
                 "component": tag} for g, tag in p.tags.items()]
        out = {
            "generators": gens,
            "relators": [groups.word_text(w) for w in p.relators],
            "deficiency": p.deficiency(),
        }
        print(json.dumps(out, indent=2))
    else:
        print(str(p))
    return 0


def cmd_ideals(args):
    if args.kmax < 0:
        raise UsageError("--kmax must be at least 0")
    p = _presentation(args)
    omega = next((j for j, g in enumerate(p.generators)
                  if p.tags[g] == groups.OMEGA), None)
    ideals = groups.elementary_ideals(groups.alexander_matrix(p), args.kmax,
                                      omega)
    rows = [{"k": k, "gcd": _poly_str(g, args.unit_class),
             "zero": g.is_zero(), "generator_count": count}
            for k, (g, count) in enumerate(ideals)]
    if args.format == "json":
        print(json.dumps({"ideals": rows}, indent=2))
    else:
        for row in rows:
            print("E_%d: gcd = %s (%d generators)"
                  % (row["k"], row["gcd"], row["generator_count"]))
    return 0


def cmd_longitude(args):
    d = _diagram(args.code)
    w = groups.word_text(groups.longitude(d, args.comp))
    if args.format == "json":
        print(json.dumps({"component": args.comp, "longitude": w}, indent=2))
    else:
        print(w)
    return 0


def cmd_sieve(args):
    records, skipped = sieve.load_census(args.census, skip_bad=args.skip_bad)
    flags = sieve.load_flags(args.flags) if args.flags else None
    report = sieve.run_sieve(records, parallel=not args.serial)
    if skipped:
        report.summary["skipped_lines"] = skipped
    if flags is not None:
        report = sieve.merge_external_flags(report, flags)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_text(), end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vkalex",
        description="Concordance invariants of virtual knots from Gauss codes")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        p.set_defaults(func=func)
        return p

    p = add("delta", cmd_delta,
            "generalized Alexander polynomial det(M - P)")
    p.add_argument("code", help="Gauss code, e.g. O1+U2+O3+U1+O2+U3+")

    p = add("writhe", cmd_writhe, "writhe polynomial of a knot")
    p.add_argument("code")

    p = add("zh", cmd_zh, "omega-extended diagram")
    p.add_argument("code")

    p = add("group", cmd_group, "Wirtinger presentation")
    p.add_argument("code")
    p.add_argument("--reduced", action="store_true",
                   help="present the group of the omega-extension")
    p.add_argument("--simplify", action="store_true",
                   help="eliminate generators occurring once in a relator")

    p = add("ideals", cmd_ideals, "elementary ideals of the group")
    p.add_argument("code")
    p.add_argument("--reduced", action="store_true",
                   help="use the omega-extension's group")
    p.add_argument("--kmax", type=int, default=2,
                   help="largest ideal index to compute (default 2)")

    p = add("longitude", cmd_longitude, "longitude word of a component")
    p.add_argument("code")
    p.add_argument("--comp", type=int, default=0,
                   help="component index (default 0)")

    p = add("sieve", cmd_sieve, "slice-obstruction sieve over a census file")
    p.add_argument("--census", required=True, help="census file path")
    p.add_argument("--flags", default=None,
                   help="external flags file to merge")

    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.format == "csv" and args.subcommand != "sieve":
            raise UsageError("csv format is only available for sieve")
        if args.subcommand == "sieve" and args.unit_class != MONOMIAL_SIGN:
            raise UsageError("--unit-class %s is not available for sieve, "
                             "which prints monomial-sign polynomials"
                             % args.unit_class)
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
