"""The cost of braidops layer by layer, printed with no gate.

    python perf/layers.py

Run from a checkout, it measures that checkout's ``src``, which it puts first
on its import path and on its children's PYTHONPATH, so a copy of another
commit measures that commit.  It prints seven sections.

Library size.  The total line count of ``src/braidops``, and per module the
code lines (neither blank, nor a comment, nor in a docstring, found with
``ast``) and the tracemalloc peak of compiling the module's source.  Every
import compiles each module when no .pyc is written, and the largest compile
peak sets the process's import-time memory peak.

Cubic check and relation decider.  The mean time per pair of
``cubic_braid_check`` and of ``relation_holds`` on the braid words over a
fixed n = 3 and 4 catalogue (presets, case1, every ordered pair of case-2
lines, zeta pairs, consecutive degenerate-T pairs) and a copy of each pair
with (u + 1) d added to its second operator, in five groups:

- braiding: every pair is decided in two variables (T == T~ in the normal
  form T = (pu + q)(rv + s), or the divisible-T step and the multiplication
  lemma when a Q0 is zero), and the Hecke parameters are slot arithmetic,
  so the group applies no operator;
- failing: f is refuted by its value at one integer point;
- failing, Q0(v,v) = 0: the failing pairs among copies of the catalogue with
  both Q0 multiplied by (u - v), R0 kept.  Neither sf nor sigma_f is refuted
  on the diagonal; the divisible-T step decides both in two variables from
  T~ / (u - v) and T / (u - v), and f is refuted at the point, except in the
  one pair whose f holds, where its difference is built in three variables;
- T == T~ braiding, rebuilt with T + u^2, each operator keeping its own R0:
  T + u^2 is out of the normal form, so sf or sigma_f is refuted in two
  variables and f at the point;
- with a multiplication operator (Q0 = 0), decided by the divisible-T step
  and, for f, the multiplication lemma: each catalogue operator with nonzero
  Q0 next to 1 Id and 2 Id, in both orders, and the zeta pairs.

Slot arithmetic.  The mean time per call of the slot-level decisions over the
operators at index 1 of the same catalogue (the presets, two case1
operators, the four case-2 lines, four zeta pairs) and 20 operators with
random coefficients in Q(z), drawn with seed 1.  compose and
commutes_same_index take each operator with the next one and with its own
square; almost_equal takes the nonzero Q0 (or else T) of the same neighbours.

Family braid check.  The time per family of family_braid_check on three
n = 5 families: main_case2 with lines 1, 3, 4, 1 at (a, b, c, d) = (1, 2, 1,
2), the same family with its operator at index 2 perturbed as PDDO(T + h,
Q0 + h), h = u + 1, and a vanishing-Q0 family with one isolated index.  Each
logs, for one pass, the T builds (reads of ``PDDO.T`` on an operator that
kept none) and the Hecke formations (``PDDO.hecke_params`` calls on an
operator that has formed none): the main-case operators are built from their
T, and each operator keeps its Hecke parameters, so the case-2 family builds
no T and forms the parameters once per distinct operator.

Table sweep.  The mean time per operator application of polynomial_table for
two n = 5 families, each call including the family's braid check, over the
``multipoly._apply`` calls counted in one pass (n! - 1 = 119 for the sweep,
one per entry but w0's).  Then, for the three presets at n = 4 on the
staircase, the time per table, and the time per table with
``multipoly._apply`` made the identity (``identity_apply``), which leaves
the table's fixed cost: the braid check, the schedule, the actions and the
entries.

Table stages.  The time per run of each stage of two ``braidops table --n 4
--output json`` runs, a staircase preset and a preset on a dense seed of six
degree-3 terms: parse (argparse), family (``cli.build_family``), seed
(``cli._read_seed``), braid check (``family_braid_check``), sweep
(``polynomial_table`` with ``words.family_braid_check`` made a no-op,
``no_braid_check``), writer (``cli._print_table`` into a string buffer),
and the whole ``cli.main`` for comparison.  Each stage is timed alone, ten
runs to a pass, so that the stages sum to less than ``cli.main``, whose
stages evict each other's data from the caches.

An operator keeps its T and its Hecke parameters once formed, so a pass over
the same operators would find the first pass's work kept.  Each timed pass of
the first three sections therefore runs on copies made by
``PDDO.from_q0_r0(op.Q0, op.R0)``, which keep nothing, one copy per operator
of each argument tuple, and each pass of the family and table sections on
families built afresh by their constructors, as a caller builds them.

A failing pair's witness, the difference of its first failing coefficient,
is built in three variables when ``CubicReport.failure`` is first read, so
each cubic group is timed a second time with failure read.  Each cubic group
logs, for one pass, the three-variable products (``multipoly._mul_pairs``
calls) and their term pairs, len(a) len(b) summed, the polynomials built
(``MultiPoly._normal`` calls, slot polynomials included) and the operator
applications (``multipoly._apply`` calls) of a pass on such copies, and the
three-variable products and term pairs of reading each report's failure;
each slot case logs its ``MultiPoly._normal`` calls.  These counts and the
code lines do not depend on the machine.  Times are the best of 20 passes (5 for the n = 5 tables);
each pass starts after a collection and runs with the collector off, so
that a collection does not land in some passes and not in others.

Whole processes.  Per ``PROCESSES`` row, the best of 3 wall times of a child
``python -m braidops``, stdout discarded, and that run's peak RSS from
``os.wait4``.  A fresh interpreter (``SPAWN``) spawns each child and exits
with its status, since Linux counts the spawning process's peak RSS into the
child's.  The x1^300 table's applications merge slices of hundreds of terms;
the n = 6 demazure table, 69 MB, is the largest output that CI builds.
"""

import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path
from unittest import mock

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

from braidops import (PDDO, Isolated, OperatorFamily, SlotPoly, almost_equal,  # noqa: E402
                      cli, commutes_same_index, cubic_braid_check, degenerate_t_family,
                      family_braid_check, identity_op, main_case2, multipoly, pddo,
                      polynomial_table, preset, relation_holds, with_vanishing_q0, words,
                      zeta_pair)
from braidops.families import Case2Line, case1_operator, case2_operator  # noqa: E402
from braidops.sampling import (draw_degent_data, draw_isolated_pair,  # noqa: E402
                               random_field_element)

# Run in a fresh interpreter: compiling a module allocates less for each name
# that the process has interned already, as importing braidops or compiling
# this script would.
LIBRARY_SIZE = """import ast, pathlib, sys, tracemalloc
total = 0
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.py")):
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \\
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in docstrings and line.strip() and not line.strip().startswith("#"))
    total += code
    tracemalloc.start()
    compile(source, str(path), "exec")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{path.name}: {code} code lines, compile peak {peak / 1e6:.3f} MB")
print(f"src/braidops: {total} code lines")
"""


def catalogue() -> tuple[list, list, list]:
    """(pairs, zetas, ops): the consecutive pairs of the cubic check, the
    zeta pairs among them, and the operators of the slot-level decisions."""
    presets = [preset("pure_ddiff", 3), preset("demazure", 3), preset("grothendieck", 3, 1)]
    case1 = [case1_operator(*p) for p in ((1, 2, 1, 2, 3), (2, 3, 4, 6, 5))]
    lines = [case2_operator(1, 2, 1, 2, line) for line in Case2Line]
    zetas = {(a, b, v): zeta_pair(a, b, v) for a, b in ((1, 0), (-3, 5)) for v in (1, 2, 3, 4)}
    degent = [degenerate_t_family(4, *draw_degent_data(random.Random(seed), 4)) for seed in range(4)]
    rng = random.Random(1)

    def slot(degree, size):
        return SlotPoly({(rng.randint(0, degree), rng.randint(0, degree)):
                         random_field_element(rng, 5, with_zeta=True) for _ in range(size)})

    pairs = [(fam[1], fam[2]) for fam in presets] + [(op, op) for op in case1]
    pairs += [(l1, l2) for l1 in lines for l2 in lines] + list(zetas.values())
    pairs += [(fam[i], fam[i + 1]) for fam in degent for i in (1, 2)]
    ops = [fam[1] for fam in presets] + case1 + lines
    ops += [op for (_, _, v), pair in zetas.items() if v <= 2 for op in pair]
    ops += [PDDO.from_q0_r0(slot(3, 3), slot(2, 2)) for _ in range(20)]
    return pairs, list(zetas.values()), ops


def cubic_groups(pairs: list, zetas: list) -> dict:
    """The five groups of the module docstring, by name."""
    h, uv, u2 = SlotPoly.u() + 1, SlotPoly.u() - SlotPoly.v(), SlotPoly.u() * SlotPoly.u()
    ops = dict.fromkeys(op for pair in pairs for op in pair if op.Q0)
    pairs = pairs + [(pi, PDDO(varpi.T + h, varpi.Q0 + h)) for pi, varpi in pairs]
    groups = {"braiding": [], "failing": []}
    for pair in pairs:
        groups["braiding" if cubic_braid_check(*pair).passed else "failing"].append(pair)
    zero_diagonal = [(PDDO.from_q0_r0(uv * pi.Q0, pi.R0), PDDO.from_q0_r0(uv * varpi.Q0, varpi.R0))
                     for pi, varpi in pairs]
    groups["failing, Q0(v,v) = 0"] = [pair for pair in zero_diagonal if not cubic_braid_check(*pair).passed]
    groups["T == T~ braiding, rebuilt with T + u^2"] = [
        tuple(PDDO.from_q0_r0(pi.T + u2 - uv * op.R0, op.R0) for op in (pi, varpi))
        for pi, varpi in groups["braiding"] if pi.T == varpi.T]
    groups["with a multiplication operator"] = [
        pair for op in ops for m in (identity_op(1), identity_op(2)) for pair in ((op, m), (m, op))] + zetas
    return groups


def slot_cases(ops: list) -> dict:
    """name -> (function, argument tuples) of the slot-level decisions."""
    pairs = list(zip(ops, ops[1:])) + [(op, op.compose(op)) for op in ops]
    nonzero = [(a.Q0 or a.T, b.Q0 or b.T) for a, b in zip(ops, ops[1:])]
    return {
        "canonical_forms": (PDDO.canonical_forms, [(op,) for op in ops]),
        "compose": (PDDO.compose, pairs),
        "commutes_same_index": (commutes_same_index, pairs),
        "hecke_params": (PDDO.hecke_params, [(op,) for op in ops]),
        "almost_equal": (almost_equal, [pair for pair in nonzero if all(pair)]),
    }


def families() -> dict:
    """name -> constructor of the three families of the family section."""
    h = SlotPoly.u() + 1

    def case2():
        return main_case2(5, 1, 2, 1, 2, [Case2Line(k) for k in (1, 3, 4, 1)])

    def perturbed():
        ops = list(case2().ops)
        ops[1] = PDDO(ops[1].T + h, ops[1].Q0 + h)
        return OperatorFamily(5, tuple(ops))

    def vanq0():
        return with_vanishing_q0(5, 2, [Isolated(1, *draw_isolated_pair(random.Random(1), 2))])

    return {"case2 lines 1,3,4,1": case2, "case2 lines 1,3,4,1, index 2 perturbed": perturbed,
            "vanq0, isolated index 1": vanq0}


def fresh(calls: list) -> list:
    """The argument tuples with each operator replaced by a copy that keeps
    nothing, one copy per operator of a tuple, so that an operator that
    appears twice in a tuple is one object in the copy too."""
    def copies(args):
        made = {}
        return tuple(made.setdefault(id(a), PDDO.from_q0_r0(a.Q0, a.R0)) if isinstance(a, PDDO)
                     else a for a in args)
    return [copies(args) for args in calls]


@contextmanager
def counting():
    """Counts of the body: [three-variable products, their term pairs,
    MultiPoly._normal calls, multipoly._apply calls, T builds, Hecke
    formations], with the five names patched for the body (``mock``)."""
    counts = [0, 0, 0, 0, 0, 0]
    mul_pairs, normal, apply = multipoly._mul_pairs, multipoly.MultiPoly._normal.__func__, multipoly._apply
    t_read, hecke = PDDO.T, PDDO.hecke_params

    def counted_mul_pairs(a, b, n_vars):
        if n_vars == 3:
            counts[0] += 1
            counts[1] += len(a) * len(b)
        return mul_pairs(a, b, n_vars)

    def counted(k, real):
        def call(*args):
            counts[k] += 1
            return real(*args)
        return call

    def counted_t(op):
        counts[4] += op._t is None
        return t_read.fget(op)

    def counted_hecke(op):
        counts[5] += op._hecke is pddo._UNFORMED
        return hecke(op)

    with (mock.patch.multiple(multipoly, _mul_pairs=counted_mul_pairs, _apply=counted(3, apply)),
          mock.patch.object(multipoly.MultiPoly, "_normal", classmethod(counted(2, normal))),
          mock.patch.multiple(PDDO, T=property(counted_t), hecke_params=counted_hecke)):
        yield counts


def identity_apply():
    """A patch of multipoly._apply to return f: every table entry is the seed."""
    return mock.patch.object(multipoly, "_apply", lambda f, k, action: f)


def no_braid_check():
    """A patch of words.family_braid_check to return None: no braid check."""
    return mock.patch.object(words, "family_braid_check", lambda fam: None)


# The table stages' argvs: the seed is six distinct degree-3 monomials with
# coefficients +-1 and +-2 written p/1, as the table_build workload draws them.
DENSE_SEED = json.dumps([{"e": e, "c": c} for e, c in (
    ([3, 0, 0, 0], "1/1"), ([2, 1, 0, 0], "-1/1"), ([1, 1, 1, 0], "2/1"),
    ([0, 2, 0, 1], "-2/1"), ([1, 0, 1, 1], "1/1"), ([0, 0, 2, 1], "-1/1"))], separators=(",", ":"))
TABLE_ARGVS = {
    "preset:grothendieck --params 1, staircase":
        ["table", "--n", "4", "--family", "preset:grothendieck", "--params", "1"],
    "preset:demazure, dense seed":
        ["table", "--n", "4", "--family", "preset:demazure", "--seed-poly", DENSE_SEED],
}

SPAWN = """import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "braidops", *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss / 1024)  # KiB on Linux
sys.exit(os.waitstatus_to_exitcode(status))
"""
PROCESSES = (
    "hecke --n 100000 --family case2 --params 1,2,1,2 --output json",
    "table --n 6 --family preset:grothendieck --params 1",
    "table --n 6 --family preset:demazure",
    'table --n 3 --family preset:demazure --seed-poly [{"e":[300,0,0],"c":"1/1"}]',
    "table --n 5 --family case1 --params 1,2,1,2,3 --output json",
    "verify --n 500 --family preset:demazure --output json")


def run_process(argv: str) -> tuple[float, float]:
    """(wall s, peak RSS MiB) of ``python -m braidops`` on argv's words; raises unless it exits 0."""
    done = subprocess.run([sys.executable, "-c", SPAWN, *argv.split()], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdout=subprocess.PIPE, text=True, check=True)
    return tuple(map(float, done.stdout.split()))


def table_stages(argv: list, passes: int, runs: int = 10) -> dict:
    """stage -> the best of passes times, in seconds per run, of each stage of
    one table run (module docstring), runs runs in a pass, each on inputs made
    before the pass: the parsed arguments, a family built afresh for each
    run, the seed and the table."""
    args = cli._build_parser().parse_args(argv)
    family = (args.family, args.n, args.params, args.lines, args.config)
    seed = cli._read_seed(args, args.n)
    entries = polynomial_table(cli.build_family(*family), seed)

    def quietly(fn):
        def call(*args):
            with redirect_stdout(io.StringIO()):
                fn(*args)
        return call

    stages = {
        "parse": (cli._build_parser().parse_args, lambda: [(argv,)]),
        "family": (cli.build_family, lambda: [family]),
        "seed": (cli._read_seed, lambda: [(args, args.n)]),
        "braid check": (family_braid_check, lambda: [(cli.build_family(*family),)]),
        "sweep": (polynomial_table, lambda: [(cli.build_family(*family), seed)]),
        "writer": (quietly(cli._print_table), lambda: [(entries, args.n)]),
        "cli.main": (quietly(cli.main), lambda: [(list(argv),)]),
    }
    times = {}
    for name, (fn, make) in stages.items():
        with no_braid_check() if name == "sweep" else nullcontext():
            times[name] = best_of(passes, fn, lambda: [call for _ in range(runs) for call in make()]) / runs
    return times


def table_line(name: str, argv: list, passes: int, runs: int = 10) -> str:
    """The printed line of table_stages for the argv named name."""
    times = table_stages(argv, passes, runs)
    return (f"table {name}, n = 4, us per run: "
            + ", ".join(f"{stage} {t * 1e6:.1f}" for stage, t in times.items()))


def count_pass(fn, calls: list) -> list:
    """The counts of one pass of fn over the argument tuples."""
    with counting() as counts:
        for args in calls:
            fn(*args)
    return counts


def best_of(passes: int, fn, make) -> float:
    """The least time of passes passes of fn over the argument tuples that
    make() returns, called for each pass before it, each pass after a
    collection and with the collector off."""
    best = float("inf")
    for _ in range(passes):
        calls = make()
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        best = min(best, time.perf_counter() - start)
        gc.enable()
    return best


def main() -> None:
    def relation(pi, varpi):
        return relation_holds([(1, pi), (2, varpi), (1, pi)], [(2, varpi), (1, pi), (2, varpi)])

    def witness(pi, varpi):
        return cubic_braid_check(pi, varpi).failure

    lines = sum(path.read_text().count("\n") for path in (SRC / "braidops").glob("*.py"))
    print(f"{lines} total", flush=True)
    subprocess.run([sys.executable, "-c", LIBRARY_SIZE, str(SRC / "braidops")], check=True)
    pairs, zetas, ops = catalogue()
    for group, members in cubic_groups(pairs, zetas).items():
        products, term_pairs, built, applied = count_pass(cubic_braid_check, fresh(members))[:4]
        print(f"cubic_braid_check, {group}: {products} three-variable products, {term_pairs} term pairs, "
              f"{built} MultiPoly._normal calls, {applied} multipoly._apply calls over {len(members)} pairs")
        reports = [(cubic_braid_check(*pair),) for pair in members]
        products, term_pairs = count_pass(lambda report: report.failure, reports)[:2]
        print(f"cubic_braid_check, {group}, failure read: {products} three-variable products, "
              f"{term_pairs} term pairs over {len(members)} pairs")
        for name, check in (("cubic_braid_check", cubic_braid_check),
                            ("cubic_braid_check, failure read", witness), ("relation_holds", relation)):
            best = best_of(20, check, lambda: fresh(members))
            print(f"{name}, {group}: {best / len(members) * 1e6:.1f} us per pair over {len(members)} pairs")
    for name, (fn, calls) in slot_cases(ops).items():
        built, best = count_pass(fn, fresh(calls))[2], best_of(20, fn, lambda: fresh(calls))
        print(f"{name}: {best / len(calls) * 1e6:.1f} us per call over {len(calls)} calls, "
              f"{built} MultiPoly._normal calls in one pass")
    for name, build in families().items():
        t_builds, formations = count_pass(family_braid_check, [(build(),)])[4:]
        best = best_of(20, family_braid_check, lambda: [(build(),)])
        print(f"family_braid_check {name}: {best * 1e6:.1f} us per family, "
              f"{t_builds} T builds, {formations} Hecke formations in one pass")
    tables = {"preset:grothendieck --params 1": lambda: preset("grothendieck", 5, 1),
              "case2 lines 1,3,4,1": families()["case2 lines 1,3,4,1"]}
    for name, build in tables.items():
        applied = count_pass(polynomial_table, [(build(),)])[3]
        best = best_of(5, polynomial_table, lambda: [(build(),)])
        print(f"polynomial_table {name}, n = 5: {best / applied * 1e6:.1f} us per application, "
              f"{applied} multipoly._apply calls in one pass")
    for name in ("pure_ddiff", "demazure", "grothendieck"):
        def make(name=name):
            return [(preset(name, 4, 1 if name == "grothendieck" else None),)]
        best = best_of(20, polynomial_table, make)
        with identity_apply():
            fixed = best_of(20, polynomial_table, make)
        print(f"polynomial_table preset:{name}, n = 4, staircase: {best * 1e6:.1f} us per table, "
              f"{fixed * 1e6:.1f} us with multipoly._apply the identity")
    for name, argv in TABLE_ARGVS.items():
        print(table_line(name, argv, 20))
    for argv in PROCESSES:
        wall, rss = min(run_process(argv) for _ in range(3))
        print(f"python -m braidops {argv}: {wall:.2f} s wall, {rss:.1f} MiB peak RSS, best of 3 runs")


if __name__ == "__main__":
    main()
