"""Command line interface.

Subcommands: dim (single dimensions), series (generating series), cayley
(tables, permanents, determinants, supports, counts), check (consistency
checkers), oracle (independent counting oracles).  Global flag: --json for
machine-readable output.  Exit codes: 0 success / checks pass, 1 check
failures, 2 usage errors, 3 resource guard refusals.

The argument parser is built once, when this module is imported, and every
`run` call parses with it; `build_parser` still returns a fresh parser.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from . import cayley, molien
from .errors import GuardExceeded
from .groups import (
    FiniteAbelianGroup,
    abelian_groups_up_to,
    parse_group,
    parse_order_profile,
    subset_sum_zero_count,
)
from .report import CheckReport

CONJECTURE_GRID = tuple(
    [(2, l) for l in range(2, 10)]
    + [(3, l) for l in range(3, 9)]
    + [(4, l) for l in range(4, 8)]
)

MAX_WITNESS_LINES = 10


class CheckMode(NamedTuple):
    """One `check` mode: its runner, the options it reads and the guarded tables it takes."""

    run: Callable[[argparse.Namespace], list[CheckReport]]  # reads exactly `options`, filled in
    options: dict[str, object]  # option -> this mode's default
    without_group: tuple[str, ...] = ()  # the options it reads only when --group is not given
    # (group, op, variant) of each permanent or determinant `run` takes, for refuse_before_table
    tables: Callable[[argparse.Namespace], Iterable[tuple[FiniteAbelianGroup, str, str]]] = lambda o: ()


def _groups(opts: argparse.Namespace) -> list[FiniteAbelianGroup]:
    return [parse_group(opts.group)] if opts.group is not None else abelian_groups_up_to(opts.max_order)


def _check_actions(opts: argparse.Namespace) -> list[CheckReport]:
    if opts.group is not None:
        return [cayley.check_action_identities(parse_group(opts.group), samples=opts.samples)]
    samples = 500 if opts.samples is None else opts.samples
    return ([cayley.check_action_identities(parse_group(spec)) for spec in ("C3", "C4", "C2xC2")]
            + [cayley.check_action_identities(parse_group(spec), samples=samples)
               for spec in ("C6", "C2xC3")])


def _check_conjecture(opts: argparse.Namespace) -> list[CheckReport]:
    if opts.n is not None or opts.l is not None:
        if opts.n is None or opts.l is None:
            raise ValueError("a single conjecture case needs both --n and --l")
        return [cayley.check_toeplitz_conjecture(opts.n, opts.l)]
    reports = []  # a failing cell halts the grid: a single counterexample is the headline
    for n, l in CONJECTURE_GRID:
        reports.append(cayley.check_toeplitz_conjecture(n, l))
        if not reports[-1].ok:
            break
    return reports


# the check modes, in the order `check all` runs them
CHECK_MODES = {
    "reciprocity": CheckMode(lambda o: [molien.check_reciprocity(o.max_total, o.fredman_total)],
                             {"max_total": 10, "fredman_total": 16}),
    "identity": CheckMode(lambda o: [molien.check_identity(name, o.order) for name in
                                     (molien.IDENTITIES if o.identity == "all" else (o.identity,))],
                          {"identity": "all", "order": None}),
    "hall": CheckMode(lambda o: [cayley.check_hall(o.max_order, o.max_order_ext)],
                      {"max_order": 6, "max_order_ext": 5},
                      tables=lambda o: [(g, "per", v)
                                        for g, v in cayley.hall_tables(o.max_order, o.max_order_ext)]),
    "invariance": CheckMode(lambda o: [cayley.check_invariance(g) for g in _groups(o)],
                            {"group": None, "max_order": 6}, ("max_order",),
                            lambda o: [(g, *t) for g in _groups(o) for t in cayley.INVARIANCE_TABLES]),
    "actions": CheckMode(_check_actions, {"group": None, "samples": None}),
    "lehmer": CheckMode(lambda o: [cayley.check_lehmer_congruence(p)
                                   for p in (cayley.LEHMER_PRIMES if o.p is None else (o.p,))], {"p": None}),
    "extended": CheckMode(lambda o: [cayley.check_extended_counts(g) for g in _groups(o)],
                          {"group": None, "max_order": 4}, ("max_order",),
                          lambda o: [(g, *t) for g in _groups(o) for t in cayley.EXTENDED_TABLES]),
    "conjecture": CheckMode(_check_conjecture, {"n": None, "l": None}),
}
# `check all` hands each of these options, when given, to every mode that reads it; every other
# option keeps each mode's default
CHECK_ALL_FORWARDS = ("max_total", "fredman_total", "max_order", "max_order_ext")

# dim and oracle: mode -> {option: default}, over the options that only some of the modes read.
# The parser gives these and the check options no default, so one given to a mode that does not
# read it is seen (exit 2); _read_options fills in the defaults after that check.
OPTION_READERS = {
    "dim": {"a": {}, "b": {}, "sw": {"p": 0}},
    "oracle": {"a": {"n": None, "m": None, "i": 0}, "dims": {"n": None, "p": 0, "m": None, "i": 0},
               "subsets": {"group": None}},
}
# (command, mode) -> (option -> default, the options it reads only without --group)
_MODE_OPTIONS = {(command, mode): (options, ()) for command, modes in OPTION_READERS.items()
                 for mode, options in modes.items()}
_MODE_OPTIONS.update({("check", mode): (row.options, row.without_group) for mode, row in CHECK_MODES.items()})
_MODE_OPTIONS["check", "all"] = (dict.fromkeys(CHECK_ALL_FORWARDS), ())


def _readers() -> dict[str, dict[str, list[str]]]:
    """command -> option -> the modes that read it, as the exit-2 message names them."""
    readers: dict[str, dict[str, list[str]]] = {}
    for (command, mode), (options, without_group) in _MODE_OPTIONS.items():
        for option in options:
            label = mode + (" without --group" if option in without_group else "")
            readers.setdefault(command, {}).setdefault(option, []).append(label)
    return readers


_READERS = _readers()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="abelinv",
        description="Isotypic dimensions, Molien-style series and symbolic Cayley-table "
        "permanents/determinants for finite abelian groups.",
    )
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub = p.add_subparsers(dest="command", required=True)

    dim = sub.add_parser("dim", help="single isotypic dimensions (cyclic groups)")
    dim.add_argument("kind", choices=["a", "b", "sw"],
                     help="a: symmetric power, b: exterior power, sw: mixed S^p (x) Lambda^m")
    dim.add_argument("--group", required=True, help="cyclic group, e.g. C6")
    dim.add_argument("--p", type=int, help="symmetric degree (sw only)")
    dim.add_argument("--m", type=int, required=True, help="power degree")
    dim.add_argument("--i", type=int, default=0, help="weight (character index)")

    ser = sub.add_parser("series", help="generating series")
    ser.add_argument("kind", choices=["sym", "ext", "bigraded"])
    ser.add_argument("--group", help="group spec, e.g. C4 or C2xC2")
    ser.add_argument("--profile", help="JSON file holding an order profile (ext/sym, invariants)")
    ser.add_argument("--i", type=int, default=0, help="weight (character index)")
    ser.add_argument("--order", type=int, help="truncation order (required for sym/bigraded)")

    cay = sub.add_parser("cayley", help="Cayley tables and their permanents/determinants")
    cay.add_argument("op", choices=["table", "per", "det", "support", "counts"])
    cay.add_argument("--group", required=True)
    cay.add_argument("--variant", choices=list(cayley.VARIANTS), default="plain")
    cay.add_argument("--l", type=int, help="table size (toeplitz only)")
    cay.add_argument("--alg", choices=["auto", "leibniz", "factored"], default="auto")

    chk = sub.add_parser("check", help="consistency checkers")
    chk.add_argument(
        "which",
        choices=[*CHECK_MODES, "all"],
    )
    chk.add_argument("--group", help="restrict a group-parameterized check to one group")
    chk.add_argument("--max-total", type=int, help="reciprocity sweep bound")
    chk.add_argument("--fredman-total", type=int, help="two-parameter swap sweep bound")
    chk.add_argument("--identity", choices=[*molien.IDENTITIES, "all"])
    chk.add_argument("--order", type=int, help="truncation override for identity checks")
    chk.add_argument("--max-order", type=int, help="largest group order in sweeps (default 6; extended 4)")
    chk.add_argument("--max-order-ext", type=int, help="largest group order for extended-table support")
    chk.add_argument("--samples", type=int, help="sampled permutations for the action identities "
                     "(default: exhaustive with --group, 500 for the order-6 groups without it)")
    chk.add_argument("--p", type=int, help="single prime for the congruence check")
    chk.add_argument("--n", type=int, help="cyclic order for a single conjecture case")
    chk.add_argument("--l", type=int, help="table size for a single conjecture case")

    orc = sub.add_parser("oracle", help="independent counting oracles")
    orc.add_argument("which", choices=["a", "dims", "subsets"])
    orc.add_argument("--group", help="group spec (subsets)")
    orc.add_argument("--n", type=int, help="cyclic order (a, dims)")
    orc.add_argument("--p", type=int, help="symmetric degree (dims)")
    orc.add_argument("--m", type=int, help="power degree (a, dims)")
    orc.add_argument("--i", type=int, help="weight (a, dims)")

    return p


# parse_args keeps no state on the parser and builds its help formatter at
# print time (so COLUMNS still sets the help width): one parser serves every run
_PARSER = build_parser()


def _require_cyclic(group: FiniteAbelianGroup, context: str) -> int:
    if not group.is_cyclic_presentation:
        raise ValueError(
            f"{context} needs a single-factor cyclic group (e.g. C6), got {group}"
        )
    return group.order


def _require_weight(i: int, n: int) -> None:
    # n < 1 is left to the callee's own message
    if n >= 1 and not 0 <= i < n:
        raise ValueError(f"character index {i} out of range for C{n}")


def _load_profile(path: str) -> dict[int, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_order_profile(json.load(fh))


def _emit(out: IO[str], args: argparse.Namespace, human: str, payload: dict | list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=False), file=out)
    else:
        print(human, file=out)


def _cmd_dim(args: argparse.Namespace, out: IO[str]) -> int:
    group = parse_group(args.group)
    n = _require_cyclic(group, "dim")
    _require_weight(args.i, n)
    if args.kind == "a":
        value = molien.sym_dim(n, args.m, args.i)
    elif args.kind == "b":
        value = molien.ext_dim(n, args.m, args.i)
    else:
        value = molien.sym_ext_dim(n, args.p, args.m, args.i)
    payload = {"kind": args.kind, "group": group.spec_string, "n": n,
               "m": args.m, "i": args.i, "value": value}
    if args.kind == "sw":
        payload["p"] = args.p
    _emit(out, args, str(value), payload)
    return 0


def _cmd_series(args: argparse.Namespace, out: IO[str]) -> int:
    if (args.group is None) == (args.profile is None):
        raise ValueError("series needs exactly one of --group or --profile")
    if args.kind == "bigraded":
        if args.profile is not None:
            raise ValueError("bigraded series are defined for cyclic groups, not profiles")
        group = parse_group(args.group)
        n = _require_cyclic(group, "series bigraded")
        _require_weight(args.i, n)
        if args.order is None:
            raise ValueError("series bigraded needs --order")
        s2 = molien.bigraded_series(n, args.i, args.order, min(args.order, n))
        payload = {"kind": "bigraded", "group": group.spec_string, "i": args.i,
                   "series": s2.to_json_obj()}
        _emit(out, args, str(s2), payload)
        return 0

    if args.profile is not None:
        source: molien.SeriesSource = _load_profile(args.profile)
        label = {"profile": {str(d): c for d, c in source.items()}}
    else:
        source = parse_group(args.group)
        label = {"group": source.spec_string}
    if args.kind == "sym":
        if args.order is None:
            raise ValueError("series sym needs --order")
        s1 = molien.sym_series(source, args.i, args.order)
    else:
        s1 = molien.ext_series(source, args.i, args.order)
    payload = {"kind": args.kind, **label, "i": args.i, "series": s1.to_json_obj()}
    _emit(out, args, str(s1), payload)
    return 0


def _cmd_cayley(args: argparse.Namespace, out: IO[str]) -> int:
    if args.op not in ("per", "det") and args.alg != "auto":
        raise ValueError(f"--alg {args.alg} applies to per and det only, not cayley {args.op}")
    group = parse_group(args.group)
    if args.op == "counts":
        if args.variant != "plain" or args.l is not None:
            raise ValueError("cayley counts counts the terms of the plain table; "
                             "it takes no --variant or --l")
        # the determinant first: its guard is decided before any table, so a refused group joins no support
        dc = cayley.determinant_term_count(group)
        pc = cayley.permanent_term_count(group)
        payload = {"group": group.spec_string, "permanent_terms": pc, "determinant_terms": dc}
        _emit(out, args, f"permanent_terms {pc}\ndeterminant_terms {dc}", payload)
        return 0

    if args.op == "support":
        # the zero-sum monomial prediction at the table's natural degree, its size; no table is built
        degree = cayley.table_size(group, args.variant, args.l)
        support = sorted(cayley.hall_support(group, degree))
        human = "\n".join([f"degree {degree} count {len(support)}"]
                          + [" ".join(map(str, exp)) for exp in support])
        payload = {"group": group.spec_string, "variant": args.variant, "degree": degree,
                   "count": len(support), "exponents": [list(e) for e in support]}
        _emit(out, args, human, payload)
        return 0

    if args.op == "per" and args.alg == "factored":
        raise ValueError("factored applies to determinants only")
    if args.op != "table":  # each guard is decided before the |G|^2 entries are read
        cayley.refuse_before_table(group, args.op, args.variant, args.l, args.alg)
    matrix = cayley.build_table(group, args.variant, size=args.l)
    if args.op == "table":
        _emit(out, args, matrix.format_table(), matrix.to_json_obj())
        return 0
    if args.op == "per":
        operation, poly = "permanent", cayley.permanent(matrix, args.alg)
    else:
        operation, poly = "determinant", cayley.determinant(matrix, args.alg)
    if not args.json:  # a C12 polynomial has 10^5 terms: render only the form printed
        print(poly, file=out)
        return 0
    payload = {"group": group.spec_string, "variant": matrix.variant, "size": matrix.size,
               "operation": operation, "terms": poly.to_json_obj()}  # the grid is not built
    _emit(out, args, "", payload)
    return 0


def _cmd_check(args: argparse.Namespace, out: IO[str]) -> int:
    runs = []
    for mode in CHECK_MODES if args.which == "all" else (args.which,):
        row = CHECK_MODES[mode]
        # the options given, else this mode's defaults (`check all` is given only those it forwards)
        opts = argparse.Namespace(**{o: d if getattr(args, o) is None else getattr(args, o)
                                     for o, d in row.options.items()})
        for group, op, variant in row.tables(opts):  # every guard before the first mode runs
            cayley.refuse_before_table(group, op, variant)
        runs.append((row, opts))
    reports = [report for row, opts in runs for report in row.run(opts)]

    if args.json:
        payload = reports[0].to_json_obj() if len(reports) == 1 else [r.to_json_obj() for r in reports]
        print(json.dumps(payload, indent=2, sort_keys=False), file=out)
    else:
        for rep in reports:
            print(rep.summary_line(), file=out)
            # the conjecture check reports its full monomial symmetric difference
            cap = len(rep.failures) if rep.check == "toeplitz-conjecture" else MAX_WITNESS_LINES
            for witness in rep.failures[:cap]:
                print(f"  witness: {json.dumps(witness, sort_keys=False)}", file=out)
            if len(rep.failures) > cap:
                print(f"  ... {len(rep.failures) - cap} more", file=out)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_oracle(args: argparse.Namespace, out: IO[str]) -> int:
    if args.which == "subsets":
        if not args.group:
            raise ValueError("oracle subsets needs --group")
        group = parse_group(args.group)
        value = subset_sum_zero_count(group)
        payload = {"oracle": "subsets", "group": group.spec_string, "value": value}
    elif args.which == "a":
        if args.n is None or args.m is None:
            raise ValueError("oracle a needs --n and --m")
        _require_weight(args.i, args.n)
        value = molien.sym_dim_oracle(args.n, args.m, args.i)
        payload = {"oracle": "a", "n": args.n, "m": args.m, "i": args.i, "value": value}
    else:
        if args.n is None or args.m is None:
            raise ValueError("oracle dims needs --n and --m (and optionally --p)")
        _require_weight(args.i, args.n)
        value = molien.sym_ext_dim_oracle(args.n, args.p, args.m, args.i)
        payload = {"oracle": "dims", "n": args.n, "p": args.p, "m": args.m,
                   "i": args.i, "value": value}
    _emit(out, args, str(value), payload)
    return 0


def _read_options(args: argparse.Namespace) -> None:
    """Refuse an option its mode does not read (ValueError), then fill in that mode's defaults."""
    command, mode = args.command, getattr(args, "which", getattr(args, "kind", None))
    reads, without_group = _MODE_OPTIONS.get((command, mode), ({}, ()))
    for option, readers in _READERS.get(command, {}).items():
        if getattr(args, option) is None:
            if option in reads:
                setattr(args, option, reads[option])
        elif option not in reads or option in without_group and args.group is not None:
            raise ValueError(f"{command} {mode}{' with --group' if option in reads else ''} does not read "
                             f"--{option.replace('_', '-')} (read by {command} {', '.join(readers)})")


_HANDLERS = {"dim": _cmd_dim, "series": _cmd_series, "cayley": _cmd_cayley, "check": _cmd_check,
             "oracle": _cmd_oracle}


@contextlib.contextmanager
def _exact_integers() -> Iterator[None]:
    """Lift CPython's limit on the digits str() gives an int (3.11 on), for one command and no longer.

    Every printed integer, human or JSON, goes through str(), so each is exact.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    """Parse and execute; returns the process exit code.

    `out` (default: sys.stdout) receives everything a command prints, --help
    included; only diagnostics (usage errors, `error:` and `refused:` lines)
    go to sys.stderr.
    """
    if out is None:
        out = sys.stdout
    try:
        with contextlib.redirect_stdout(out):
            args = _PARSER.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code) if ex.code else 0
    try:
        _read_options(args)
        with _exact_integers():
            return _HANDLERS[args.command](args, out)
    except GuardExceeded as ex:
        print(f"refused: {ex}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
