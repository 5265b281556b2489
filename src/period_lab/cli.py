"""Command-line interface.

Subcommands: ord, simulate, minpoly, period-set, ring (period-set,
period), algebra, verify.  Every subcommand takes --format text|json|csv;
JSON payloads carry a top-level {"schema": "period-lab/1"} key and are
byte-identical across runs for identical inputs.

Each command reads its inputs in one `with _reading_inputs(args):`
block, calls the library and returns (payload, text lines, CSV rows);
main adds the schema and command keys and prints what --format asks for.
The block refuses a --budget below 1 before any input is read, and turns
a ValueError (a bad field spec, polynomial or element) into a UsageError.
Comma lists (--rec, --init, --terms, --components) split at the commas
outside [...] coordinate lists, by the scanner that splits a polynomial
into terms (poly._split_outside_brackets), so unbalanced brackets fail
in its words in either.

Exit codes: 0 success, 1 computation error or a failing `verify` check,
2 usage error.  Diagnostics go to standard error only, so piped output
stays clean.  main maps UsageError to 2 and a ValueError, ArithmeticError
or RuntimeError raised by the computation to 1.

Start-up is most of a small command's cost, and building an argparse
parser costs more than most commands' answers, so main reads a
well-formed argv without one: the named command's _wire_* function
records its options on an _Options object, and _quick_args reads argv
against them.  Anything else (--help, --x=v, an abbreviation, a repeat,
a value that starts with '-', a bad value, a missing option, an extra
word, no or an unknown command) goes to argparse, so help, usage and
error texts are argparse's.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .ff import parse_field_spec
from .intfactor import lcm64
from .orders import poly_order, poly_order_bruteforce
from .period_sets import (
    order_set_bruteforce,
    period_set_closed_form,
    period_set_exact,
    period_set_lower_bound,
)
from .poly import _split_outside_brackets, format_poly, parse_poly
from .rings import (
    GroupAlgebra,
    component_periods,
    group_algebra_max_period,
    make_product_ring,
    ring_period_sets,
)
from .sequences import (
    Recurrence,
    _canonical_state,
    generate,
    minimal_poly,
    period_bruteforce,
)
from .verify import SCOPES, run_verify

SCHEMA = "period-lab/1"


class UsageError(Exception):
    """Bad input values (field specs, polynomials, flag combinations)."""


@contextmanager
def _reading_inputs(args):
    """Refuse a --budget below 1 before any input is read; a ValueError
    raised while a command reads its inputs is a UsageError."""
    _at_least(getattr(args, "budget", None), 1, "--budget")
    try:
        yield
    except ValueError as exc:
        raise UsageError(exc) from exc


def _at_least(value, low: int, flag: str) -> None:
    """Refuse an integer option below low; None (not given) passes."""
    if value is not None and value < low:
        raise UsageError(f"{flag} must be >= {low}")


def _elements(ctx, text: str) -> tuple:
    """The comma-separated elements of a field or ring."""
    return tuple(ctx.parse_element(s.strip()) for _, s in _split_outside_brackets(text, ","))


# -- ord ------------------------------------------------------------------------

def _run_ord(args) -> tuple:
    with _reading_inputs(args):
        field = parse_field_spec(args.field)
        f = parse_poly(field, args.poly)
        if f.is_zero:
            raise UsageError("--poly must be a nonzero polynomial")
    payload = {"field": field.spec(), "poly": format_poly(f), "method": args.method}
    text, rows = [], [["method", "order"]]
    if args.method in ("pipeline", "both"):
        result = poly_order(f)
        payload["order"] = result.order
        text.append(f"pipeline: {result.order}" if args.method == "both"
                    else str(result.order))
        rows.append(["pipeline", result.order])
        if args.explain:
            payload["strip_exponent"] = result.strip_exponent
            payload["factors"] = [
                {
                    "factor": format_poly(c.factor),
                    "multiplicity": c.multiplicity,
                    "base_order": c.base_order,
                    "char_exponent": c.char_exponent,
                    "contribution": c.contribution,
                }
                for c in result.contributions
            ]
            text.append(f"strip exponent: {result.strip_exponent}")
            for c in result.contributions:
                text.append(
                    f"factor {format_poly(c.factor)} ^ {c.multiplicity}: "
                    f"base order {c.base_order}, char exponent {c.char_exponent}, "
                    f"contribution {c.contribution}"
                )
    if args.method in ("bruteforce", "both"):
        brute = poly_order_bruteforce(f, budget=args.budget)
        payload["bruteforce"] = brute
        text.append(f"bruteforce: {brute}" if args.method == "both" else str(brute))
        rows.append(["bruteforce", brute])
    if args.method == "both":
        agree = payload["order"] == payload["bruteforce"]
        payload["agree"] = agree
        text.append(f"agree: {str(agree).lower()}")
    return payload, text, rows


# -- simulate ---------------------------------------------------------------------

def _run_simulate(args) -> tuple:
    with _reading_inputs(args):
        field = parse_field_spec(args.field)
        coeffs = _elements(field, args.rec)
        init = _elements(field, args.init)
        _at_least(args.terms, 0, "--terms")
        rec = Recurrence(field, coeffs)
        init = _canonical_state(rec, init)
    # state i of the trajectory is (a_i, ..., a_{i+k-1})
    n_states = max(args.terms, 1)
    count = n_states + rec.k - 1 if args.trajectory else args.terms
    seq = generate(rec, init, count, budget=args.budget)
    terms = seq[:args.terms]
    fmt_el = field.format_element
    payload = {
        "field": field.spec(),
        "recurrence": [fmt_el(c) for c in rec.coeffs],
        "initial": [fmt_el(s) for s in init],
        "terms": [fmt_el(t) for t in terms],
    }
    text = [" ".join(fmt_el(t) for t in terms)]
    rows = [["n", "term"]] + [[i, fmt_el(t)] for i, t in enumerate(terms)]
    if args.period:
        period = period_bruteforce(rec, init, budget=args.budget)
        payload["period"] = period
        text.append(f"period: {period}")
        rows.append(["period", period])
    if args.trajectory:
        payload["trajectory"] = [[fmt_el(s) for s in seq[i:i + rec.k]]
                                 for i in range(n_states)]
    return payload, text, rows


# -- minpoly -----------------------------------------------------------------------

def _run_minpoly(args) -> tuple:
    with _reading_inputs(args):
        field = parse_field_spec(args.field)
        terms = _elements(field, args.terms)
        _at_least(args.bound, 0, "--bound")
    m = minimal_poly(field, terms, args.bound)
    payload = {"field": field.spec(), "bound": args.bound, "minimal_poly": format_poly(m)}
    return payload, [format_poly(m)], [["minimal_poly"], [format_poly(m)]]


# -- period-set ----------------------------------------------------------------------

# --method name -> route, called as route(field, k, budget); --method all
# runs every route but the exact one, in this order
_PERIOD_SET_METHODS = {
    "closed": lambda field, k, budget: period_set_closed_form(k, field.q),
    "bound": lambda field, k, budget: period_set_lower_bound(k, field.q),
    "exact": lambda field, k, budget: period_set_exact(k, field.q, budget=budget),
    "bruteforce": lambda field, k, budget: order_set_bruteforce(field, k, budget=budget),
}


def _run_period_set(args) -> tuple:
    with _reading_inputs(args):
        field = parse_field_spec(args.field)
        _at_least(args.degree, 1, "--degree")
    k, q = args.degree, field.q
    methods = ([m for m in _PERIOD_SET_METHODS if m != "exact"] if args.method == "all"
               else [args.method])
    sets = {m: list(_PERIOD_SET_METHODS[m](field, k, args.budget)) for m in methods}
    base = {"q": q, "p": field.p, "e": field.e, "k": k}
    text = [f"field: {field.spec()}", f"degree: {k}"]
    text += [f"{m}: " + " ".join(map(str, vals)) for m, vals in sets.items()]
    if args.method == "all":
        equal = len({tuple(v) for v in sets.values()}) == 1
        payload = dict(base, method="all", sets=sets, equal=equal)
        text.append(f"equal: {str(equal).lower()}")
        rows = [["method", "period"]] + [[m, v] for m, vals in sets.items() for v in vals]
    else:
        payload = dict(base, method=args.method, period_set=sets[args.method])
        rows = [["period"]] + [[v] for v in sets[args.method]]
    return payload, text, rows


# -- ring -------------------------------------------------------------------------

def _product_ring(text: str):
    specs = [s.strip() for _, s in _split_outside_brackets(text, ",")]
    if specs == [""]:
        raise UsageError("--components must list at least one field")
    return make_product_ring(specs)


def _run_ring_period_set(args) -> tuple:
    with _reading_inputs(args):
        ring = _product_ring(args.components)
        _at_least(args.degree, 1, "--degree")
    k = args.degree
    component_sets, combined = ring_period_sets(ring, k, budget=args.budget)
    payload = {
        "components": [c.spec() for c in ring.components], "k": k,
        "component_period_sets": [list(s) for s in component_sets],
        "period_set": list(combined),
    }
    text = [f"ring: {ring.spec()}", f"degree: {k}"]
    for c, s in zip(ring.components, component_sets):
        text.append(f"component {c.spec()}: " + " ".join(str(v) for v in s))
    text.append("ring: " + " ".join(str(v) for v in combined))
    rows = [["period"]] + [[v] for v in combined]
    return payload, text, rows


def _run_ring_period(args) -> tuple:
    with _reading_inputs(args):
        ring = _product_ring(args.components)
        coeffs = _elements(ring, args.rec)
        init = _elements(ring, args.init)
        rec = Recurrence(ring, coeffs)
        init = _canonical_state(rec, init)
    cpers = component_periods(rec, init)
    period = lcm64(*cpers)
    payload = {
        "components": [c.spec() for c in ring.components],
        "recurrence": [ring.format_element(c) for c in rec.coeffs],
        "initial": [ring.format_element(s) for s in init],
        "component_periods": cpers,
        "period": period,
    }
    text = [f"component {c.spec()}: {cper}" for c, cper in zip(ring.components, cpers)]
    rows = [["component", "period"]] + [
        [c.spec(), cper] for c, cper in zip(ring.components, cpers)
    ]
    if args.method == "both":
        walked = period_bruteforce(rec, init)
        payload["simulated"] = walked
        text.append(f"simulated: {walked}")
        rows.append(["simulated", walked])
    text.append(f"period: {period}")
    rows.append(["lcm", period])
    return payload, text, rows


# -- algebra ------------------------------------------------------------------------

def _run_algebra(args) -> tuple:
    with _reading_inputs(args):
        _at_least(args.n, 2, "--n")
        _at_least(args.degree, 1, "--degree")
        if args.degree is not None and not args.max_period:
            raise UsageError("--degree needs --max-period")
        ga = GroupAlgebra(args.p, args.n)
    payload = {
        "p": ga.p, "n": ga.n,
        "factors": [
            {"poly": format_poly(f, variable="t"), "multiplicity": m}
            for f, m in ga.factors
        ],
        "factor_count": sum(m for _, m in ga.factors),
        "semisimple": ga.semisimple,
        "components": [c.spec() for c in ga.decomposition.components]
        if ga.semisimple else None,
    }
    text = [
        f"algebra: F_{ga.p}[t]/<t^{ga.n}-1>",
        "t^n-1 = " + " * ".join(
            f"({format_poly(f, variable='t')})" + (f"^{m}" if m > 1 else "")
            for f, m in ga.factors
        ),
        f"semisimple: {str(ga.semisimple).lower()}",
    ]
    if ga.semisimple:
        text.append("components: " + " + ".join(payload["components"]))
    rows = [["key", "value"],
            ["semisimple", str(ga.semisimple).lower()],
            ["factor_count", payload["factor_count"]]]
    if args.max_period:
        k = args.degree or 1
        maxp = group_algebra_max_period(ga, k, budget=args.budget)
        payload["degree"] = k
        payload["max_period"] = maxp
        text.append(f"max period (degree {k}): {maxp}")
        rows.append([f"max_period_degree_{k}", maxp])
    return payload, text, rows


# -- verify -------------------------------------------------------------------------

def _run_verify_cmd(args) -> tuple:
    report = run_verify(args.scope)
    payload = {
        "scope": args.scope,
        "checks": [
            {"name": c.name, "scope": c.scope, "claim": c.claim,
             "expected": c.expected, "computed": c.computed, "pass": c.passed}
            for c in report.checks
        ],
        "passed": report.passed,
    }
    text = []
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        text.append(f"{status} {c.name} ({c.elapsed_ms:.1f} ms): {c.claim}")
        if not c.passed:
            text.append(f"     expected {c.expected}")
            text.append(f"     computed {c.computed}")
    n_pass = sum(1 for c in report.checks if c.passed)
    text.append(f"{n_pass}/{len(report.checks)} checks passed")
    rows = [["name", "scope", "pass"]] + [
        [c.name, c.scope, str(c.passed).lower()] for c in report.checks
    ]
    return payload, text, rows


# -- parser wiring ---------------------------------------------------------------------

def _add_common(sub, *, budget=False):
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text",
                     help="output format (default text)")
    if budget:
        sub.add_argument("--budget", type=int, default=None,
                         help="work budget: brute-force polynomials, exact-route "
                              "candidate periods, lcm-closure pairs or walk steps "
                              "(default 10^6 or $PERIOD_LAB_BUDGET)")


def _wire_ord(p):
    p.add_argument("--field", required=True, help="field spec, e.g. 2 or 3^2")
    p.add_argument("--poly", required=True, help="polynomial text, e.g. x^5+x^4+1")
    p.add_argument("--method", choices=("pipeline", "bruteforce", "both"),
                   default="pipeline")
    p.add_argument("--explain", action="store_true",
                   help="include the per-factor ledger")
    _add_common(p, budget=True)
    p.set_defaults(run=_run_ord)


def _wire_simulate(p):
    p.add_argument("--field", required=True)
    p.add_argument("--rec", required=True,
                   help="coefficients c_0,...,c_{k-1}")
    p.add_argument("--init", required=True, help="initial state a_0,...,a_{k-1}")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--period", action="store_true",
                   help="also measure the period")
    p.add_argument("--trajectory", action="store_true",
                   help="include the state trajectory (JSON)")
    _add_common(p, budget=True)
    p.set_defaults(run=_run_simulate)


def _wire_minpoly(p):
    p.add_argument("--field", required=True)
    p.add_argument("--terms", required=True, help="comma-separated terms")
    p.add_argument("--bound", type=int, required=True,
                   help="degree bound (prefix must have >= 2*bound terms)")
    _add_common(p)
    p.set_defaults(run=_run_minpoly)


def _wire_period_set(p):
    p.add_argument("--field", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--method", choices=(*_PERIOD_SET_METHODS, "all"), default="closed")
    _add_common(p, budget=True)
    p.set_defaults(run=_run_period_set)


def _wire_ring_period_set(p):
    p.add_argument("--components", required=True,
                   help="comma-separated field specs, e.g. 2,3,5")
    p.add_argument("--degree", type=int, required=True)
    _add_common(p, budget=True)
    p.set_defaults(run=_run_ring_period_set)


def _wire_ring_period(p):
    p.add_argument("--components", required=True)
    p.add_argument("--rec", required=True,
                   help="ring coefficients; parts joined with '|', e.g. 1|1|1,0|2|3")
    p.add_argument("--init", required=True)
    p.add_argument("--method", choices=("lcm", "both"), default="lcm")
    _add_common(p)
    p.set_defaults(run=_run_ring_period)


def _wire_algebra(p):
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--max-period", action="store_true",
                   help="compute the maximum degree-k period")
    _add_common(p, budget=True)
    p.set_defaults(run=_run_algebra)


def _wire_verify(p):
    p.add_argument("--scope", choices=("all",) + SCOPES, default="all")
    _add_common(p)
    p.set_defaults(run=_run_verify_cmd)


# name -> (help, wiring); a nested table is a command group such as `ring`,
# whose subcommand lands in args.<name>_command
_RING_COMMANDS = {
    "period-set": ("period set over the ring", _wire_ring_period_set),
    "period": ("period of one ring recurrence", _wire_ring_period),
}
_COMMANDS = {
    "ord": ("order of a polynomial", _wire_ord),
    "simulate": ("generate a recurrence sequence", _wire_simulate),
    "minpoly": ("minimal polynomial of a sequence prefix", _wire_minpoly),
    "period-set": ("period set of a fixed degree", _wire_period_set),
    "ring": ("product-of-fields computations", _RING_COMMANDS),
    "algebra": ("cyclic group algebra F_p[t]/<t^n-1>", _wire_algebra),
    "verify": ("run the built-in verification suite", _wire_verify),
}


def _add_commands(parser, dest: str, table: dict) -> None:
    subs = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, wiring) in table.items():
        sub = subs.add_parser(name, help=help_text)
        if isinstance(wiring, dict):
            _add_commands(sub, f"{name}_command", wiring)
        else:
            wiring(sub)


def _command_path(argv) -> tuple:
    """The leaf command that argv starts with, as names from the top, e.g.
    ("ring", "period"); () when argv starts with none (an option such as
    --help, no or an unknown command, a group without its subcommand)."""
    table, path = _COMMANDS, ()
    for word in argv:
        if word not in table:
            return ()
        path += (word,)
        wiring = table[word][1]
        if not isinstance(wiring, dict):
            return path
        table = wiring
    return ()


def build_parser() -> argparse.ArgumentParser:
    """The argument parser with every subcommand; main builds it only
    for an argv that _quick_args does not read."""
    parser = argparse.ArgumentParser(
        prog="period-lab",
        description="Periods of linear recurrences over finite fields, "
                    "products of fields, and cyclic group algebras.",
    )
    _add_commands(parser, "command", _COMMANDS)
    return parser


class _Options:
    """The options that a _wire_* function declares: for each --flag its
    (dest, store_true, type, choices, required), and every default.  It
    takes only the add_argument keywords that _quick_args reads the way
    argparse does; any other is a TypeError."""

    def __init__(self):
        self.flags, self.defaults = {}, {}

    def add_argument(self, flag, *, required=False, default=None, type=None, choices=None,
                     action=None, help=None):
        if action not in (None, "store_true"):
            raise TypeError(f"_Options does not read action={action!r}")
        dest, store_true = flag.lstrip("-").replace("-", "_"), action == "store_true"
        self.flags[flag] = (dest, store_true, type, choices, required)
        self.defaults[dest] = False if store_true else default

    def set_defaults(self, **defaults):
        self.defaults.update(defaults)


def _quick_args(argv):
    """The namespace that build_parser().parse_args(argv) returns, read
    without argparse when argv is a command followed by exact option
    strings, each at most once, each non-flag option with a value that does
    not start with '-' and that converts and is among the choices, and every
    required option present; None for any other argv."""
    path = _command_path(argv)
    if not path:
        return None
    wiring = _COMMANDS
    for name in path:
        wiring = wiring[name][1]
    options = _Options()
    wiring(options)
    values = dict(options.defaults)
    words = iter(argv[len(path):])
    seen = set()
    for word in words:
        if word not in options.flags or word in seen:
            return None
        seen.add(word)
        dest, store_true, convert, choices, _ = options.flags[word]
        if store_true:
            values[dest] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if any(required and flag not in seen
           for flag, (*_, required) in options.flags.items()):
        return None
    dests = ["command"] + [f"{name}_command" for name in path[:-1]]
    return argparse.Namespace(**dict(zip(dests, path)), **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _quick_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        payload, text, rows = args.run(args)
        if args.format == "json":
            command = "-".join(filter(None, (args.command, getattr(args, "ring_command", None))))
            text = [json.dumps({"schema": SCHEMA, "command": command, **payload})]
        elif args.format == "csv":
            text = [",".join(map(str, row)) for row in rows]
        for line in text:
            print(line)
        return 1 if payload.get("passed") is False else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
