"""The benchmark's three workloads: op lists, execution, result digests and checks.

Each workload is a list of operations built from the run's seed.  An op is
executed through abelinv's public functions or `abelinv.cli.run`, always by
module attribute at call time so that the traced run's wrappers apply.  Its
result is reduced, outside the timed region, to a summary: a digest of a
canonical text form plus the few numbers the checks need.  After all ops of a
pass have run, every summary is checked against an independent route the
library already has, and for the fixed lists (`tables`, `verify`) also against
the digest recorded in `expected.json`.

Why these workloads:

* `queries` is the everyday lookup path: closed-form point dimensions with a
  tail of generating series.  It is nearly all numtheory/series/molien and
  touches no Cayley table.  Its point queries repeat (n, i) pairs, so a
  memoization change has something to hit.
* `tables` is symbolic permanents, determinants and zero-sum supports of Cayley
  tables of every presentation of order 2-9: nearly all cayley/polynom work
  plus groups table construction.
* `verify` is about a hundred distinct CLI invocations: `check all`, each
  checker broken out per group or cell, and the enumeration oracle sweeps.  It
  uses many tiny tables and permutation sweeps, loads the groups element
  arithmetic (Gray walk, action identities), and is the only workload that
  runs cli/report.

No op calls a route the roadmap removes (`ryser`, `--threads`), and every op
stays inside today's resource guards.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from abelinv import cayley, cli, groups, molien, numtheory, polynom, series

WORKLOADS = ("queries", "tables", "verify")
FIXED_LISTS = ("tables", "verify")


@dataclass(frozen=True)
class Op:
    id: str
    kind: str
    args: tuple


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "queries":
        return _queries(rng)
    ops = _tables() if workload == "tables" else _verify()
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# queries: seeded stream, fixed size and mix

# The point queries copy the shape of the only caller stream of the point
# dimensions the repo has: the checkers that `abelinv check all` runs.
# `caller_profile()` measures that stream; these constants are its output at
# this commit, rounded (the self-test re-measures them).  In it, 96.6% of the
# calls repeat an (n, i) pair seen before, because the checkers sweep m at a
# fixed (n, i).
CALLER_KIND_SHARE = {"sym_dim": 0.482, "ext_dim": 0.017, "sym_ext_dim": 0.501}
CALLER_REPEAT_SHARE = 0.966
POINT_QUERIES = 660
POINT_MAX = 120

# squarefree with three prime factors: every divisor d has c_d(i) != 0, so the
# cost of a cyclic series does not depend on the seeded character index
SQUAREFREE_8 = (30, 42, 66, 70, 78, 102, 105, 110, 114, 130, 138, 154, 165, 170, 174, 182,
                186, 190, 195, 222, 230, 231, 238, 246, 255, 258, 266, 273, 282, 285, 286, 290)
SYM_CYCLIC_ORDERS = (20, 25, 30, 40, 50, 60, 75, 90, 110, 130, 160, 200)
SYM_NONCYCLIC = (("C2xC10", 50), ("C2xC2xC6", 60), ("C3xC9", 40), ("C4xC12", 80),
                 ("C2xC4xC8", 100), ("C2xC2xC2xC4", 60), ("C5xC10", 40), ("C3xC3xC3", 30))
SYM_PROFILE_ORDERS = (30, 50, 70, 90, 120, 150)
# fixed squarefree orders for the cheap series: the p90 of a pass falls among
# these ops, so their cost should not depend on the seed
SQUAREFREE_UP_TO_200 = (21, 30, 42, 51, 66, 70, 78, 87, 102, 105, 110, 114, 130, 138, 154, 165,
                        170, 182, 190, 195)
EXT_NONCYCLIC = ("C2xC10", "C3xC9", "C4xC12", "C2xC4xC8", "C6xC6", "C10xC20")
EXT_PROFILES = (35, 77, 143, 187)
BIGRADED_SHAPES = ((20, 12), (24, 16), (30, 20), (30, 30), (40, 20), (40, 30)) * 2
ORDER_SUMS_NONCYCLIC = ("C2xC10", "C2xC2xC6", "C3xC9", "C4xC12", "C2xC4xC8", "C6xC6",
                        "C2xC2xC10", "C5xC10", "C2xC60", "C10xC20")
ORDER_SUMS_CYCLIC = SQUAREFREE_UP_TO_200[::2] + (33, 186)


def _spread(count: int, low: int, high: int, rng: random.Random) -> list[int]:
    """`count` values evenly spread over [low, high], in seeded order.

    Every seed gets the same multiset of sizes, so the cost of a pass and the
    median point-query time do not drift with the seed; the seed decides the
    pairing, the weights and the order.
    """
    values = [low + (k * (high - low + 1)) // count for k in range(count)]
    rng.shuffle(values)
    return values


def _point_queries() -> list[Op]:
    """`POINT_QUERIES` point dimensions with the caller stream's kind mix and repeat share.

    The distinct (n, i) pairs have n spread over 1..POINT_MAX and each is
    queried equally often.  The queries themselves are the same for every
    seed, because their cost depends on gcd(n, m) and gcd(n, i) and a
    seed-dependent mix would move the median; `build` shuffles their order.
    The exterior degree m of `ext_dim` and `sym_ext_dim` lies in 0..n, so
    every query evaluates the closed form.
    """
    shape = random.Random("queries:shape")
    kinds = [kind for kind, share in CALLER_KIND_SHARE.items() for _ in range(round(share * POINT_QUERIES))]
    shape.shuffle(kinds)
    distinct = round((1 - CALLER_REPEAT_SHARE) * len(kinds))
    ns = [1 + (k * POINT_MAX) // distinct for k in range(distinct)]
    degrees = _spread(len(kinds), 0, POINT_MAX, shape)
    sym_degrees = _spread(len(kinds), 0, POINT_MAX, shape)
    i_of = {n: shape.randrange(n) for n in ns}
    ops = []
    for k, (kind, u, p) in enumerate(zip(kinds, degrees, sym_degrees)):
        n = ns[k % distinct]
        i = i_of[n]
        if kind == "sym_dim":
            args = (n, u, i)
        else:
            m = u * n // POINT_MAX
            args = (n, m, i) if kind == "ext_dim" else (n, p, m, i)
        ops.append(Op(f"{kind}{args}", kind, args))
    return ops


def caller_profile() -> dict:
    """Kind mix and repeated-(n, i) share of the point-dimension calls made by `check all`.

    Wraps the three point functions wherever abelinv binds them, runs
    `cli.run(["check", "all"])` and restores them.
    """
    import sys

    calls: list[tuple[str, tuple]] = []
    patched = []
    for kind in CALLER_KIND_SHARE:
        original = getattr(molien, kind)

        def wrapper(*args, _original=original, _kind=kind):
            calls.append((_kind, args))
            return _original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("abelinv") and getattr(module, kind, None) is original:
                setattr(module, kind, wrapper)
                patched.append((module, kind, original))
    try:
        cli.run(["check", "all"], io.StringIO())
    finally:
        for module, kind, original in patched:
            setattr(module, kind, original)
    seen: set[tuple[int, int]] = set()
    repeats = 0
    for _, args in calls:
        key = (args[0], args[-1])
        repeats += key in seen
        seen.add(key)
    return {
        "calls": len(calls),
        "kind_share": {kind: sum(k == kind for k, _ in calls) / len(calls) for kind in CALLER_KIND_SHARE},
        "repeat_share": repeats / len(calls),
    }


def _queries(rng: random.Random) -> list[Op]:
    ops = _point_queries()

    def cyclic(order_at_least: int) -> int:
        return rng.choice([n for n in SQUAREFREE_8 if n >= order_at_least])

    for order in SYM_CYCLIC_ORDERS:
        n = cyclic(order)
        ops.append(_series_op("sym_series", f"C{n}", rng.randrange(n), order))
    for spec, order in SYM_NONCYCLIC:
        ops.append(_series_op("sym_series", spec, 0, order))
    for order in SYM_PROFILE_ORDERS:
        ops.append(_series_op("sym_series", f"profile:C{cyclic(order)}", 0, order))
    for n in SQUAREFREE_UP_TO_200:
        ops.append(_series_op("ext_series", f"C{n}", rng.randrange(n), None))
    for spec in EXT_NONCYCLIC:
        ops.append(_series_op("ext_series", spec, 0, None))
    for n in EXT_PROFILES:
        ops.append(_series_op("ext_series", f"profile:C{n}", 0, None))
    for s_order, t_order in BIGRADED_SHAPES:
        n = rng.choice([n for n in SQUAREFREE_8 if n <= 70])
        args = (n, rng.randrange(n), s_order, t_order)
        ops.append(Op(f"bigraded{args}", "bigraded", args))
    for n in ORDER_SUMS_CYCLIC:
        ops.append(_series_op("order_sums", f"C{n}", rng.randrange(n), None))
    for spec in ORDER_SUMS_NONCYCLIC:
        order = math.prod(int(f) for f in spec[1:].split("xC"))
        ops.append(_series_op("order_sums", spec, rng.randrange(order), None))
    rng.shuffle(ops)
    return ops


def _series_op(kind: str, source: str, i: int, order: int | None) -> Op:
    return Op(f"{kind}({source},{i},{order})", kind, (source, i, order))


def repeated_pair_share(ops: list[Op]) -> float:
    """Share of point queries whose (n, i) pair already occurred earlier in the stream."""
    seen: set[tuple[int, int]] = set()
    points = repeats = 0
    for op in ops:
        if op.kind in CALLER_KIND_SHARE:
            key = (op.args[0], op.args[-1])
            points += 1
            repeats += key in seen
            seen.add(key)
    return repeats / points if points else 0.0


# ---------------------------------------------------------------------------
# tables: fixed list, seeded order

ORDER_2_8 = ("C2", "C3", "C4", "C2xC2", "C5", "C6", "C2xC3", "C7", "C8", "C2xC4", "C2xC2xC2")
ORDER_8 = ("C8", "C2xC4", "C2xC2xC2")
TOEPLITZ_CELLS = (
    [(n, n) for n in range(2, 9)]
    + [(n, n + 1) for n in range(2, 8)]
    + [(n, l) for n in (2, 3, 4) for l in (7, 8, 9) if l > n + 1]
)


def _table_op(op: str, spec: str, variant: str, alg: str, size: int | None = None) -> Op:
    tail = f"/{size}" if size is not None else ""
    return Op(f"{op}.{alg}.{spec}.{variant}{tail}", op, (spec, variant, size, alg))


def _tables() -> list[Op]:
    ops: list[Op] = []
    for spec in ORDER_2_8:
        for variant in ("plain", "hat"):
            ops.append(_table_op("per", spec, variant, "auto"))
            if spec not in ORDER_8:
                ops.append(_table_op("det", spec, variant, "auto"))
    # order 8: auto determinants are factored today (0.3-0.45 s each), so two
    # of them; the Leibniz oracles for comparison
    ops += [_table_op("det", "C8", "plain", "auto"), _table_op("det", "C2xC2xC2", "hat", "auto")]
    for spec in ("C7",) + ORDER_8:
        for variant in ("plain", "hat"):
            ops.append(_table_op("per", spec, variant, "leibniz"))
    for spec, variant in (("C7", "plain"), ("C7", "hat"), ("C8", "plain"), ("C2xC2xC2", "hat")):
        ops.append(_table_op("det", spec, variant, "leibniz"))
    # order 9: auto would send the permanent to Ryser (40 s), so the Leibniz
    # oracle runs it; the factored determinant is the few-second cell
    ops += [_table_op("per", "C9", "plain", "leibniz"), _table_op("det", "C9", "plain", "factored")]
    for spec in ORDER_2_8[:8]:  # order <= 7; the order-8 extended permanents take 24 s
        ops.append(_table_op("per", spec, "extended", "auto"))
    for spec in ("C2", "C3", "C4", "C2xC2"):
        ops.append(_table_op("per", spec, "block2n", "auto"))
        ops.append(_table_op("det", spec, "extended", "auto"))
    for spec in ("C2", "C3"):
        ops.append(_table_op("det", spec, "block2n", "auto"))
    for n, l in TOEPLITZ_CELLS:
        ops.append(_table_op("per", f"C{n}", "toeplitz", "auto", l))
        if l <= 8:  # size-9 determinants are 9! Leibniz terms today
            ops.append(_table_op("det", f"C{n}", "toeplitz", "auto", l))
    for spec, degree in (("C6", 6), ("C7", 7), ("C8", 8), ("C2xC2xC2", 8), ("C10", 10),
                         ("C5", 6), ("C4", 8), ("C3", 9), ("C2xC3", 7)):
        ops.append(Op(f"hall.{spec}/{degree}", "hall", (spec, degree)))
    for spec in ("C6", "C7", "C8", "C2xC2xC2"):
        ops.append(Op(f"per_terms.{spec}", "per_terms", (spec,)))
    for spec in ("C6", "C7"):
        ops.append(Op(f"det_terms.{spec}", "det_terms", (spec,)))
    return ops


# ---------------------------------------------------------------------------
# verify: fixed list of distinct CLI invocations, seeded order

CLI_FAILING = {
    # exit 1 by design: the (4, 6) toeplitz counterexample halts the grid
    "check all": "toeplitz-conjecture",
    "check conjecture": "toeplitz-conjecture",
    "check conjecture --n 4 --l 6": "toeplitz-conjecture",
}
COUNTEREXAMPLE = {"exponents": [0, 0, 6, 0], "what": "predicted monomial missing"}


def _verify_commands() -> list[str]:
    cmds = ["check all", "check conjecture", "check reciprocity"]
    cmds += [f"check reciprocity --max-total {k} --fredman-total {k + 6}" for k in range(4, 10)]
    cmds += [f"check identity --identity {w}" for w in ("A", "B", "log2var", "log3var")]
    cmds += [f"check identity --identity {w} --order {o}"
             for w, orders in (("A", (10, 15, 25)), ("B", (10, 15, 25)), ("log2var", (10, 15)),
                               ("log3var", (5, 6)))
             for o in orders]
    cmds += ["check hall"] + [f"check hall --max-order {a} --max-order-ext {b}"
                              for a, b in ((2, 2), (3, 3), (4, 4), (5, 5), (5, 4), (6, 4))]
    cmds += [f"check invariance --group {g}" for g in ORDER_2_8 if g not in ("C8", "C2xC4")]
    cmds += [f"check actions --group {g}" for g in ("C2", "C3", "C4", "C2xC2", "C5")]
    cmds += [f"check actions --group {g} --samples {s}"
             for g, s in (("C6", 100), ("C2xC3", 100), ("C7", 100), ("C8", 60),
                          ("C2xC4", 60), ("C2xC2xC2", 60), ("C9", 40), ("C3xC3", 40))]
    cmds += ["check lehmer"] + [f"check lehmer --p {p}" for p in (3, 5, 7)]
    cmds += ["check extended"] + [f"check extended --group {g}" for g in ("C2", "C3", "C4", "C2xC2")]
    cmds += [f"check conjecture --n {n} --l {l}" for n, l in cli.CONJECTURE_GRID]
    cmds += [f"oracle subsets --group {g}"
             for g in ("C4", "C6", "C8", "C2xC4", "C10", "C12", "C2xC6", "C14", "C2xC8", "C2xC10")]
    cmds += [f"oracle a --n {n} --m {m} --i {i}"
             for n, m, i in ((2, 5, 1), (3, 6, 0), (4, 6, 1), (5, 5, 2), (5, 7, 0), (6, 6, 1),
                             (6, 8, 3), (7, 7, 0), (7, 7, 4), (8, 8, 3), (8, 9, 5), (9, 9, 1))]
    cmds += [f"oracle dims --n {n} --p {p} --m {m} --i {i}"
             for n, p, m, i in ((3, 2, 1, 0), (4, 3, 2, 1), (5, 2, 3, 4), (5, 4, 2, 0), (6, 3, 2, 1),
                                (6, 4, 3, 5), (7, 2, 3, 2), (7, 3, 4, 0), (8, 3, 3, 3), (8, 4, 5, 1))]
    cmds += ["--json check lehmer --p 5", "--json check identity --identity B --order 12",
             "--json check hall --max-order 3 --max-order-ext 3", "--json oracle subsets --group C10",
             "--json oracle a --n 5 --m 6 --i 2", "--json check conjecture --n 3 --l 5"]
    return cmds


def _verify() -> list[Op]:
    return [Op(f"cli:{cmd}", "cli", tuple(cmd.split())) for cmd in _verify_commands()]


# ---------------------------------------------------------------------------
# execution (timed)

def _source(spec: str):
    if spec.startswith("profile:"):
        return groups.parse_group(spec[len("profile:"):]).order_profile()
    return groups.parse_group(spec)


def prepare(op: Op):
    """Inputs handed to the op: a fresh group object or an order profile.

    Profiles are an input format, so they are built here, before timing.
    Table construction is part of the timed op.
    """
    if op.kind in ("sym_series", "ext_series", "order_sums"):
        return (_source(op.args[0]),) + op.args[1:]
    if op.kind in ("per", "det", "hall", "per_terms", "det_terms"):
        return (groups.parse_group(op.args[0]),) + op.args[1:]
    return op.args


def execute(op: Op, inputs):
    kind = op.kind
    if kind == "sym_dim":
        return molien.sym_dim(*inputs)
    if kind == "ext_dim":
        return molien.ext_dim(*inputs)
    if kind == "sym_ext_dim":
        return molien.sym_ext_dim(*inputs)
    if kind == "sym_series":
        return molien.sym_series(*inputs)
    if kind == "ext_series":
        return molien.ext_series(*inputs)
    if kind == "bigraded":
        return molien.bigraded_series(*inputs)
    if kind == "order_sums":
        return molien.character_order_sums(inputs[0], inputs[1])
    if kind in ("per", "det"):
        group, variant, size, alg = inputs
        matrix = cayley.build_table(group, variant, size=size)
        return cayley.permanent(matrix, alg) if kind == "per" else cayley.determinant(matrix, alg)
    if kind == "hall":
        return cayley.hall_support(*inputs)
    if kind == "per_terms":
        return cayley.permanent_term_count(*inputs)
    if kind == "det_terms":
        return cayley.determinant_term_count(*inputs)
    if kind == "cli":
        out = io.StringIO()
        rc = cli.run(list(inputs), out)
        return rc, out.getvalue()
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# summaries (untimed): digest of a canonical form plus what the checks need

_ELAPSED_TEXT = re.compile(r"elapsed=\d+(\.\d+)?s")


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def _cli_text(argv: tuple, text: str) -> str:
    if argv[0] == "--json":
        return json.dumps(_strip_elapsed(json.loads(text)), sort_keys=True)
    return _ELAPSED_TEXT.sub("elapsed=", text)


def _support_text(keys) -> str:
    return json.dumps(sorted(keys), separators=(",", ":"))


def summarize(op: Op, result) -> dict:
    kind = op.kind
    if kind in ("sym_dim", "ext_dim", "sym_ext_dim", "per_terms", "det_terms"):
        return {"digest": digest(str(result)), "value": result}
    if kind in ("sym_series", "ext_series"):
        coeffs = [str(c) for c in result.coeffs]
        return {"digest": digest(",".join(coeffs)), "coeffs": coeffs}
    if kind == "bigraded":
        grid = [[str(c) for c in row] for row in result.grid]
        return {"digest": digest(json.dumps(grid)), "grid": grid}
    if kind == "order_sums":
        return {"digest": digest(json.dumps(sorted(result.items()))), "sums": dict(result)}
    if kind in ("per", "det"):
        return {
            "digest": digest(json.dumps(result.sorted_terms(), separators=(",", ":"))),
            "terms": result.term_count(),
            "coeff_sum": result.coefficient_sum(),
            "support": digest(_support_text(result.terms)),
        }
    if kind == "hall":
        text = _support_text(result)
        return {"digest": digest(text), "count": len(result), "support": digest(text)}
    if kind == "cli":
        rc, text = result
        return {"digest": digest(f"{rc}\n{_cli_text(op.args, text)}"), "rc": rc, "text": text}
    raise ValueError(f"unknown op kind {kind!r}")


def corrupt(result):
    """A deliberately wrong copy of a result, for the benchmark's self-test."""
    if isinstance(result, int):
        return result + 1
    if isinstance(result, series.TruncatedSeries1):
        return result + series.TruncatedSeries1.one(result.order)
    if isinstance(result, series.TruncatedSeries2):
        return result + series.TruncatedSeries2.one(result.s_order, result.t_order)
    if isinstance(result, polynom.IntPolynomial):
        return result + polynom.IntPolynomial.constant(result.nvars, 1)
    if isinstance(result, tuple):  # (exit code, output) of a CLI run
        return (result[0], result[1] + "x")
    return type(result)()  # an empty support or sum table


# ---------------------------------------------------------------------------
# checks (untimed, after all ops of a pass): independent routes

class Checker:
    """Checks summaries of one pass; oracle results are memoized per pass."""

    def __init__(self, summaries: dict[str, dict], expected: dict[str, str] | None):
        self.summaries = summaries
        self.expected = expected
        self.memo: dict[tuple, dict] = {}

    def check(self, op: Op) -> str | None:
        """None when the result is right, else the reason it is not."""
        summary = self.summaries[op.id]
        if self.expected is not None:
            want = self.expected.get(op.id)
            if want != summary["digest"]:
                return f"digest {summary['digest']} != recorded {want}"
        return getattr(self, f"_check_{op.kind}")(op, summary)

    # -- queries ---------------------------------------------------------------

    def _check_sym_dim(self, op, s):
        n, m, i = op.args
        value = s["value"]
        # by-parts closed form (multinomial route) and the row total over all weights
        if value != molien.sym_ext_dim_by_parts(m, n, 0, i):
            return "by-parts closed form differs"
        row = sum(molien.sym_dim(n, m, j) for j in range(n) if j != i) + value
        if row != math.comb(n + m - 1, m):
            return f"weights sum to {row}, not the dimension of S^{m}"
        if math.comb(n + m - 1, m) <= 20000 and value != molien.sym_dim_oracle(n, m, i):
            return "enumeration oracle differs"
        return None

    def _ext_series_cyclic(self, n, i):
        key = ("ext_series", n, i)
        if key not in self.memo:
            self.memo[key] = molien.ext_series(groups.FiniteAbelianGroup((n,)), i).coeffs
        return self.memo[key]

    def _check_ext_dim(self, op, s):
        n, m, i = op.args
        want = self._ext_series_cyclic(n, i)[m] if m <= n else 0
        return None if s["value"] == want else f"series coefficient is {want}"

    def _check_sym_ext_dim(self, op, s):
        n, p, m, i = op.args
        # weights of S^p and Lambda^m add in the tensor product
        want = sum(molien.sym_dim(n, p, j) * molien.ext_dim(n, m, (i - j) % n) for j in range(n))
        return None if s["value"] == want else f"tensor convolution gives {want}"

    def _point_coeffs(self, n, i, order, kind):
        point = molien.sym_dim if kind == "sym_series" else molien.ext_dim
        return [str(Fraction(point(n, m, i))) for m in range(order + 1)]

    def _check_series(self, op, s):
        spec, i, _ = op.args
        order = len(s["coeffs"]) - 1
        if spec.startswith("profile:"):  # profiles in the stream are those of cyclic groups
            want = self._point_coeffs(groups.parse_group(spec[len("profile:"):]).order, 0, order, op.kind)
        else:
            group = groups.parse_group(spec)
            if group.is_cyclic_presentation:
                want = self._point_coeffs(group.order, i, order, op.kind)
            elif i != 0:
                return "non-cyclic series are checked at i = 0 only"
            else:
                # character sums against the element-order profile
                series_of = molien.sym_series if op.kind == "sym_series" else molien.ext_series
                want = [str(c) for c in series_of(group.order_profile(), 0, order).coeffs]
        return None if s["coeffs"] == want else "independent route gives other coefficients"

    _check_sym_series = _check_ext_series = _check_series

    def _check_bigraded(self, op, s):
        n, i, s_order, t_order = op.args
        for p, row in enumerate(s["grid"]):
            for m, c in enumerate(row):
                if c != str(molien.sym_ext_dim(n, p, m, i)):
                    return f"coefficient s^{p} t^{m} differs from the point dimension"
        return None

    def _check_order_sums(self, op, s):
        spec, i, _ = op.args
        group = groups.parse_group(spec)
        if group.is_cyclic_presentation:
            want = {d: numtheory.ramanujan_sum(d, i) for d in numtheory.divisors(group.order)}
        else:
            # floating-point sum of roots of unity, rounded
            chi = group.element(i)
            e = group.exponent
            acc: dict[int, complex] = {}
            for a in group.elements():
                t = group.char_exponent(chi, group.neg(a))
                d = group.element_order(a)
                acc[d] = acc.get(d, 0) + cmath.exp(2j * math.pi * t / e)
            want = {d: round(v.real) for d, v in acc.items()}
            if any(abs(v.imag) > 1e-6 or abs(v.real - round(v.real)) > 1e-6 for v in acc.values()):
                return "numeric character sums are not integers"
        return None if s["sums"] == want else f"independent sums {want}"

    # -- tables ------------------------------------------------------------------

    def _oracle(self, kind: str, spec: str, variant: str, size, alg: str) -> dict:
        """Summary of an in-list op with these arguments, else computed here."""
        op_id = _table_op(kind, spec, variant, alg, size).id
        if op_id in self.summaries:
            return self.summaries[op_id]
        key = (kind, spec, variant, size, alg)
        if key not in self.memo:
            op = _table_op(kind, spec, variant, alg, size)
            self.memo[key] = summarize(op, execute(op, prepare(op)))
        return self.memo[key]

    def _hall(self, spec: str, degree: int) -> dict:
        op = Op(f"hall.{spec}/{degree}", "hall", (spec, degree))
        if op.id in self.summaries:
            return self.summaries[op.id]
        if op.id not in self.memo:
            self.memo[op.id] = summarize(op, execute(op, prepare(op)))
        return self.memo[op.id]

    def _check_per(self, op, s):
        spec, variant, size, alg = op.args
        group = groups.parse_group(spec)
        n = group.order
        l = {"plain": n, "hat": n, "extended": n + 1, "block2n": 2 * n}.get(variant, size)
        if s["coeff_sum"] != math.factorial(l):
            return f"coefficients sum to {s['coeff_sum']}, not {l}!"
        if variant != "toeplitz" and s["support"] != self._hall(spec, l)["support"]:
            return "support differs from the zero-sum prediction"
        if alg != "leibniz" and s["digest"] != self._oracle("per", spec, variant, size, "leibniz")["digest"]:
            return "differs from the Leibniz expansion"
        return None

    def _check_det(self, op, s):
        spec, variant, size, alg = op.args
        n = groups.parse_group(spec).order
        if variant in ("extended", "block2n") or (variant == "toeplitz" and size > n):
            return None if s["terms"] == 0 else "a table with repeated rows has a nonzero determinant"
        if variant == "toeplitz":
            # the square toeplitz table of C_n is the transposed hat table
            other = self._oracle("det", spec, "hat", None, "factored")
            return None if s["digest"] == other["digest"] else "differs from the hat-table determinant"
        if alg == "leibniz":
            in_list = [self.summaries[o.id] for o in (_table_op("det", spec, variant, a) for a in ("auto", "factored"))
                       if o.id in self.summaries]
            other = in_list[0] if in_list else self._oracle("det", spec, variant, None, "factored")
            return None if s["digest"] == other["digest"] else "differs from the character factorization"
        other = self._oracle("det", spec, variant, None, "leibniz")
        return None if s["digest"] == other["digest"] else "differs from the Leibniz expansion"

    def _check_hall(self, op, s):
        spec, degree = op.args
        want = molien.sym_series(groups.parse_group(spec), 0, degree).coefficient(degree)
        return None if s["count"] == want else f"closed form counts {want} zero-sum vectors"

    def _check_per_terms(self, op, s):
        group = groups.parse_group(op.args[0])
        want = molien.sym_series(group, 0, group.order).coefficient(group.order)
        return None if s["value"] == want else f"closed form gives {want}"

    def _check_det_terms(self, op, s):
        want = self._oracle("det", op.args[0], "plain", None, "leibniz")["terms"]
        return None if s["value"] == want else f"Leibniz determinant has {want} terms"

    # -- verify ------------------------------------------------------------------

    def _check_cli(self, op, s):
        argv = list(op.args)
        as_json = argv[0] == "--json"
        cmd = " ".join(argv[1:] if as_json else argv)
        rc, text = s["rc"], s["text"]
        if cmd.startswith("oracle"):
            if rc != 0:
                return f"exit {rc}"
            value = json.loads(text)["value"] if as_json else int(text)
            return None if value == self._oracle_closed_form(argv[1:] if as_json else argv) \
                else "oracle differs from the closed form"
        failing = CLI_FAILING.get(cmd)
        want_rc = 1 if failing else 0
        if rc != want_rc:
            return f"exit {rc}, expected {want_rc}"
        if as_json:
            payload = json.loads(text)
            reports = payload if isinstance(payload, list) else [payload]
            bad = [r["check"] for r in reports if r["failures"]]
        else:
            reports = [line for line in text.splitlines() if not line.startswith("  ")]
            bad = [line.split()[1] for line in reports if line.startswith("FAIL")]
            if any(not line.startswith(("PASS", "FAIL")) for line in reports):
                return "unexpected output line"
        if not failing:
            return None if not bad else f"failing reports {bad}"
        if bad != [failing]:
            return f"failing reports {bad}, expected exactly [{failing}]"
        fail_line = next(line for line in text.splitlines() if line.startswith("FAIL"))
        witnesses = [json.loads(line.split("witness: ", 1)[1])
                     for line in text.splitlines() if line.startswith("  witness: ")]
        if "[n=4 l=6]" not in fail_line or witnesses != [COUNTEREXAMPLE]:
            return "counterexample is not the single (4, 6) witness [0, 0, 6, 0]"
        return None

    @staticmethod
    def _oracle_closed_form(argv: list[str]) -> int:
        opts = dict(zip(argv[2::2], argv[3::2]))
        if argv[1] == "subsets":
            return molien.zero_sum_subset_count(groups.parse_group(opts["--group"]))
        n, m, i = int(opts["--n"]), int(opts["--m"]), int(opts.get("--i", 0))
        if argv[1] == "a":
            return molien.sym_dim(n, m, i)
        return molien.sym_ext_dim(n, int(opts.get("--p", 0)), m, i)
