"""Compare the CLI output of this tree with another tree's, command by command.

    python3 tools/parity.py PARENT_TREE

Runs each command as `python -m abelinv` twice, with PYTHONPATH set to
PARENT_TREE/src and to this tree's src, and compares the exit codes, stdout
and stderr after masking the `elapsed` timings.  The commands are the
`verify` workload of the benchmark (perfbench/workloads._verify_commands,
read from this tree), the `--json` form of each, and a grid: `dim`, `series`,
`cayley` and `check actions` over the groups of order at most 8, `dim sw` with
gcd(p, q, m) > 1, `check actions --samples 500` at orders 6-9, one larger
`check reciprocity` and `check identity` each, `series sym|ext|bigraded` at the
squarefree orders 30, 42, 66, 70 and 210 (8 or 16 divisors, each filling
every d-th cell) and on C2xC2xC6, with the negative orders each builder
refuses, the checks whose planners
decide their table guards (admitted and refused runs of `check hall`,
`invariance`, `extended`, `conjecture` and `all`, and `check lehmer` at an
unsupported prime), the oracle routes (`cayley per|det --alg leibniz` at
sizes 1, 2, 4, 6, 8, 9 and 10 and `cayley det --alg factored` at orders 1-12, on the
plain and hat tables of every group of order at most 4, at orders 11 and 12 without
`--json`), `cayley per|det`
on the hat and toeplitz tables of orders 6-8, `cayley per` on the extended
tables of orders 1-10 and the n+1 toeplitz tables of n = 1-9 (and a refused
C13 extended table), one refused command for each
limit the checks above do not refuse (exit 3, each in well under a second),
and three commands whose `--json` output is 0.8-1.6 MB (C10 `per` and
`support`, a toeplitz `table` at l = 300).  Prints one line per command whose results differ and exits 1
if any do.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ELAPSED = re.compile(r'(elapsed(?:=|": ))[-+0-9.eE]+')
GROUPS = ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "C2xC3", "C7", "C8", "C2xC4", "C2xC2xC2")
ORDER_6_9 = ("C6", "C2xC3", "C7", "C8", "C2xC4", "C2xC2xC2", "C9", "C3xC3")
# commands whose --json output is 0.8-1.6 MB, written in many batches
LARGE = ("cayley per --group C10", "cayley support --group C10",
         "cayley table --group C1 --variant toeplitz --l 300")
# the planned checks: admitted (about 0.2 s each), then refused (the conjecture cells by their
# subset-DP states and by their table cells) or rejected (a prime the Lehmer check does not take)
SWEEPS = ("check hall --max-order 7 --max-order-ext 5", "check invariance --max-order 7",
          "check extended --max-order 5", "check conjecture --n 5 --l 11", "check conjecture --n 2 --l 200",
          "check extended --group C5", "check hall --max-order 3 --max-order-ext 6", "check invariance --group C1",
          "check invariance --max-order 13", "check hall --max-order 13", "check extended --max-order 8",
          "check all --max-order 8", "check extended --group C5000", "check conjecture --n 13 --l 13",
          "check conjecture --n 2 --l 8000", "check lehmer --p 4")

# the oracle routes: Leibniz at its parity-digit edges (l = 1, 2 and 10, repeated columns), at
# the benchmark's sizes, and summing the column translates of one part at orders 6-10 (the signs
# of the hat and toeplitz tables, cyclic and not), and the factored determinant at orders 1-12:
# the plain and hat tables of orders 1-4 (SMALL_FACTORED; C1 included), prime and composite
# exponents, strides n/e of 1 to 4, and the signs of the hat and toeplitz tables; at orders 11
# and 12 (FRONTIER, 1-2 s each) without the --json form, which is 6-17 MB
SMALL_FACTORED = tuple(f"cayley det --group {g}{v} --alg factored" for g in ("C1", "C2", "C3", "C4", "C2xC2")
                       for v in ("", " --variant hat"))
FRONTIER = tuple(f"cayley det --group {g} --alg factored" for g in ("C11", "C12", "C2xC6", "C3xC4", "C2xC2xC3"))
ORACLES = tuple(f"cayley {op} --group {g} --alg leibniz" for op in ("per", "det") for g in (
    "C1", "C2", "C2 --variant hat", "C3 --variant extended", "C4 --variant block2n",
    "C2 --variant toeplitz --l 10", "C8", "C2xC2xC2 --variant hat", "C9", "C10", "C3xC3 --variant hat",
    "C2xC5 --variant hat", "C6 --variant toeplitz")) + tuple(
    f"cayley det --group {g} --alg factored" for g in (
        "C5", "C7", "C8", "C9", "C10", "C2xC4", "C2xC5", "C3xC3", "C2xC2xC2 --variant hat", "C6 --variant toeplitz")
) + SMALL_FACTORED + FRONTIER

# bordered tables (the group listed once on each side plus one element): at orders 1-5 the
# class-count DP on the table's own lists, from order 6 the permanent expanded along its border over
# the plain table's layer n-1, and a table the guard refuses
BORDERED = tuple(f"cayley per --group {g} --variant extended" for g in (
    "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "C7", "C8", "C9", "C10", "C2xC4", "C2xC2xC2", "C3xC3")) + tuple(
    f"cayley per --group C{n} --variant toeplitz --l {n + 1}" for n in range(1, 10)) + (
    "cayley per --group C13 --variant extended",)

# series at squarefree orders with 8 or 16 divisors, where divisor d's run fills every d-th cell (and,
# bigraded, every d-th row): sym and bigraded to orders 24 and 40, ext whole and cut at 40 (past the
# polynomial's degree at n = 30); one non-cyclic group; and the negative orders each builder refuses
STRIDES = tuple(
    f"series {kind} --group C{n}{order} --i {i}" for n in (30, 42, 66, 70, 210) for i in (0, 1, n - 1)
    for kind, order in (("sym", " --order 24"), ("sym", " --order 40"), ("ext", ""), ("ext", " --order 40"),
                        ("bigraded", " --order 24"), ("bigraded", " --order 40"))) + tuple(
    f"series {kind} --group C2xC2xC6 --order 40 --i {i}" for kind in ("sym", "ext") for i in (0, 1, 23)) + tuple(
    f"series {kind} --group C4 --order -1" for kind in ("sym", "ext", "bigraded"))

# one refused command per limit not refused above: grid cells, Leibniz permutations, factored
# pushes, support enumeration, both action bounds, element-sum counting, dimension binomial bits,
# series coefficients, reciprocity comparisons, identity series terms and trial divisions
REFUSALS = ("cayley table --group C1 --variant toeplitz --l 2001", "cayley per --group C12 --alg leibniz",
            "cayley det --group C13 --alg factored", "cayley support --group C14", "check actions --group C9",
            "check actions --group C500 --samples 3", "oracle subsets --group C2000",
            "dim a --group C100000 --m 100000", "series sym --group C50 --order 100000",
            "check reciprocity --max-total 60", "check identity --identity log3var --order 60",
            "dim a --group C2305843009213693951 --m 0")

# square presentations of orders 6-8: each DP runs on the plain table's orbit record and keeps its sign-free result
PRESENTATIONS = tuple(f"cayley {op} --group {g} --variant {v}" for op in ("per", "det") for g, variants in (
    ("C6", ("hat", "toeplitz")), ("C7", ("hat", "toeplitz")), ("C8", ("hat", "toeplitz")),
    ("C2xC3", ("hat",)), ("C2xC4", ("hat",)), ("C2xC2xC2", ("hat",))) for v in variants)


def mask(text: str) -> str:
    """text with every timing, `elapsed=0.123s` or `"elapsed": 0.123`, replaced by `*`."""
    return ELAPSED.sub(r"\1*", text)


def grid_commands() -> list[str]:
    """dim, series, cayley, check and oracle commands, with and without --json."""
    cmds = [f"dim {kind} --group C{n} --m {m} --i {i}" for kind in ("a", "b")
            for n in range(1, 9) for m in (0, 1, n, n + 3) for i in (0, n - 1)]
    cmds += [f"dim sw --group C{n} --p {p} --m {m} --i {i}" for n in range(1, 9)
             for p, m in ((0, 1), (2, 1), (3, n)) for i in (0, n - 1)]
    # gcd(p, q, m) > 1 with q = n - m: the divisor sum past its d = 1 term
    cmds += [f"dim sw --group C{n} --p {p} --m {m} --i {i}" for n in range(2, 9)
             for d in range(2, n + 1) if n % d == 0 for p, m in ((d, d), (2 * d, n)) for i in (0, 1, d)]
    cmds += [f"series {kind} --group {g} --order 12 --i {i}" for kind in ("sym", "ext")
             for g in GROUPS for i in (0, 1)]
    cmds += [f"series bigraded --group C{n} --order 6 --i {i}" for n in range(1, 9) for i in (0, n - 1)]
    cmds += [f"cayley {op} --group {g}" for op in ("table", "per", "det", "support", "counts") for g in GROUPS]
    cmds += [f"cayley {op} --group {g} --variant {v}" for op in ("per", "det", "support")
             for g in ("C3", "C4", "C2xC2") for v in ("hat", "toeplitz", "extended")]
    cmds += PRESENTATIONS
    cmds += [f"check actions --group {g}" for g in GROUPS]
    cmds += [f"check actions --group {g} --samples 500" for g in ORDER_6_9]
    cmds += ["check reciprocity --max-total 12 --fredman-total 20", "check identity --order 20"]
    cmds += STRIDES + SWEEPS + ORACLES + BORDERED + REFUSALS + LARGE
    cmds = list(dict.fromkeys(cmds))  # C1 repeats some of its m and i
    return cmds + [f"--json {cmd}" for cmd in cmds if cmd not in FRONTIER]


def commands() -> list[str]:
    sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench")]
    import workloads  # the benchmark's own list of `verify` runs

    verify = workloads._verify_commands()
    json_forms = [f"--json {cmd}" for cmd in verify if not cmd.startswith("--json ")]
    return list(dict.fromkeys(verify + json_forms + grid_commands()))


def run(tree: Path, cmd: str) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "abelinv", *cmd.split()], env=env,
                          capture_output=True, text=True)
    return proc.returncode, mask(proc.stdout), mask(proc.stderr)


def differences(old: tuple[int, str, str], new: tuple[int, str, str]) -> list[str]:
    """The names of the fields of (exit code, stdout, stderr) that differ."""
    return [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/parity.py PARENT_TREE", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    cmds = commands()
    with ThreadPoolExecutor(max_workers=2) as pool:
        olds = list(pool.map(lambda cmd: run(parent, cmd), cmds))
        news = list(pool.map(lambda cmd: run(HERE, cmd), cmds))
    differing = 0
    for cmd, old, new in zip(cmds, olds, news):
        fields = differences(old, new)
        if fields:
            differing += 1
            print(f"{cmd}: {', '.join(fields)} differ (exit {old[0]} -> {new[0]})")
    print(f"{len(cmds)} commands, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
