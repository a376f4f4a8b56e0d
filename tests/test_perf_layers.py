"""The layer-cost harness perf/layers.py: its count pass, with no timing."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from braidops import (PDDO, MultiPoly, cubic_braid_check, family_braid_check, identity_op, multipoly,
                      polynomial_table, preset, staircase, words)
from braidops.families import case1_operator

_spec = importlib.util.spec_from_file_location(
    "layers", Path(__file__).resolve().parent.parent / "perf" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def _patched_names():
    return (multipoly._mul_pairs, multipoly.MultiPoly.__dict__["_normal"], multipoly._apply,
            PDDO.__dict__["T"], PDDO.__dict__["hecke_params"])


def test_cubic_groups_count_what_their_docstring_says():
    """Every group has pairs; the braiding group applies no operator.  No
    check multiplies in three variables but the one in the zero-diagonal
    group whose f holds, so that f's value at the point is 0; reading
    failure does, in every group but the braiding one."""
    pairs, zetas, _ = layers.catalogue()
    groups = layers.cubic_groups(pairs, zetas)
    assert len(groups) == 5 and all(groups.values())
    counts = {group: layers.count_pass(cubic_braid_check, members)
              for group, members in groups.items()}
    products, term_pairs, built, applied = counts["braiding"][:4]
    assert (products, term_pairs, applied) == (0, 0, 0) and built > 0
    built_in_three = [(group, pair) for group, members in groups.items() for pair in members
                      if layers.count_pass(cubic_braid_check, [pair])[0]]
    assert [group for group, _ in built_in_three] == ["failing, Q0(v,v) = 0"]
    assert cubic_braid_check(*built_in_three[0][1]).flags["f"]
    for group, members in groups.items():
        reports = [(cubic_braid_check(*pair),) for pair in members]
        products = layers.count_pass(lambda report: report.failure, reports)[0]
        assert (products > 0) is (group != "braiding")


def test_hecke_params_builds_t_once():
    """mu is d(T), read from the operator's T, which a copy that keeps
    nothing builds and keeps for every later read: at most 126 polynomials
    over fresh copies of the 37 slot-level operators (60 when mu was summed
    from Q0 and R0 with no T built), and none on a second pass."""
    _, _, ops = layers.catalogue()
    fn, calls = layers.slot_cases(ops)["hecke_params"]
    calls = layers.fresh(calls)
    assert len(calls) == 37
    assert layers.count_pass(fn, calls)[2] <= 126
    assert layers.count_pass(fn, calls)[2] == 0


def test_family_checks_build_t_and_nu_once_per_operator():
    """The main-case operators are built from their T and PDDO(T + h, Q0 + h)
    keeps its own, so neither case-2 family builds a T; each operator keeps
    its Hecke parameters, so the case-2 family forms them once for each of
    its three operator objects, and the perturbed one for the two of its one
    normal-form pair, (line 4, line 1).  The vanishing-Q0 family builds the T
    of its two operator objects, each once, and forms no Hecke parameters.
    A second check of the case-2 family builds and forms nothing."""
    expected = {"case2 lines 1,3,4,1": [0, 3], "case2 lines 1,3,4,1, index 2 perturbed": [0, 2],
                "vanq0, isolated index 1": [2, 0]}
    families = layers.families()
    assert list(families) == list(expected)
    for name, build in families.items():
        fam = build()
        assert layers.count_pass(family_braid_check, [(fam,)])[4:] == expected[name]
        assert family_braid_check(fam).passed is ("perturbed" not in name)
    case2 = families["case2 lines 1,3,4,1"]()
    assert len(set(map(id, case2.ops))) == 3
    family_braid_check(case2)
    assert layers.count_pass(family_braid_check, [(case2,)])[4:] == [0, 0]


def test_fresh_copies_keep_nothing():
    """A fresh copy equals its operator and keeps no T or Hecke parameters,
    so reading them builds and forms them, where its operator, which keeps
    both, does neither; an operator that appears twice in an argument tuple
    is one copy."""
    op = case1_operator(1, 2, 1, 2, 3)
    op.hecke_params()
    [(a, b, c)] = layers.fresh([(op, op, 5)])
    assert a is b and a is not op and a == op and c == 5
    with layers.counting() as counts:
        op.T, op.hecke_params()
    assert counts[4:] == [0, 0]
    with layers.counting() as counts:
        a.T, a.hecke_params()
    assert counts[4:] == [1, 1]


def test_counting_counts_and_restores_the_patched_names():
    """The five names are counted inside the body and are the original
    objects after it, also when it raises."""
    originals = _patched_names()
    f, g = MultiPoly.const(3, 2), MultiPoly.variable(3, 1) + 1
    with layers.counting() as counts:
        f * g
    assert counts == [1, 2, 1, 0, 0, 0]
    with layers.counting() as counts:
        identity_op(2).apply(1, g)
    assert counts[3] == 1
    op = case1_operator(1, 2, 1, 2, 3)
    copy = PDDO.from_q0_r0(op.Q0, op.R0)
    with layers.counting() as counts:
        op.T, copy.T, copy.T
        op.hecke_params(), op.hecke_params()
    assert counts[4:] == [1, 1]
    assert all(a is b for a, b in zip(_patched_names(), originals))
    with pytest.raises(RuntimeError):
        with layers.counting():
            raise RuntimeError("the counted body fails")
    assert all(a is b for a, b in zip(_patched_names(), originals))


def test_identity_apply_leaves_every_entry_the_seed_and_restores_apply():
    """Under identity_apply every entry of a table is the seed;
    multipoly._apply is the original after it, also when it raises."""
    apply, fam = multipoly._apply, preset("grothendieck", 4, 1)
    with layers.identity_apply():
        table = polynomial_table(fam)
    assert multipoly._apply is apply
    assert len(table) == 24 and all(entry.poly == staircase(4) for entry in table)
    with pytest.raises(RuntimeError):
        with layers.identity_apply():
            raise RuntimeError("the body fails")
    assert multipoly._apply is apply


def test_table_line_times_every_stage_and_restores_the_patched_names(capsys):
    """Each table line names its seven stages with a time each, prints
    nothing while it runs, and leaves words.family_braid_check and
    sys.stdout the original objects.  Under no_braid_check the braid check
    is a no-op, so the sweep stage times the sweep alone, and the check is
    the original after it, also when the body raises."""
    check, stdout = words.family_braid_check, sys.stdout
    stages = ["parse", "family", "seed", "braid check", "sweep", "writer", "cli.main"]
    assert len(layers.TABLE_ARGVS) == 2
    for name, argv in layers.TABLE_ARGVS.items():
        head, times = layers.table_line(name, argv, passes=1, runs=1).split(": ")
        fields = [field.rsplit(" ", 1) for field in times.split(", ")]
        assert head == f"table {name}, n = 4, us per run"
        assert [stage for stage, _ in fields] == stages and all(float(t) > 0 for _, t in fields)
    assert capsys.readouterr() == ("", "")
    assert words.family_braid_check is check and sys.stdout is stdout
    with layers.no_braid_check():
        assert words.family_braid_check(preset("demazure", 3)) is None
    assert words.family_braid_check is check
    with pytest.raises(RuntimeError):
        with layers.no_braid_check():
            raise RuntimeError("the body fails")
    assert words.family_braid_check is check


def test_processes_name_the_whole_process_rows():
    """The four runs whose output CI checks, a case1 table and a report."""
    assert layers.PROCESSES == (
        "hecke --n 100000 --family case2 --params 1,2,1,2 --output json",
        "table --n 6 --family preset:grothendieck --params 1",
        "table --n 6 --family preset:demazure",
        'table --n 3 --family preset:demazure --seed-poly [{"e":[300,0,0],"c":"1/1"}]',
        "table --n 5 --family case1 --params 1,2,1,2,3 --output json",
        "verify --n 500 --family preset:demazure --output json",
    )


def test_run_process_reads_each_child_alone():
    """A small table's wall time and peak RSS are positive, and its RSS is
    lower than a ballast of 64 MiB that this process holds: a runner that
    spawned the child from this process, or read getrusage(RUSAGE_CHILDREN)
    here, would read at least this process's peak."""
    ballast = b"\1" * (64 << 20)
    wall, rss = layers.run_process("table --n 3 --family preset:demazure")
    assert wall > 0 and 0 < rss < 64
    del ballast


def test_run_process_raises_on_a_nonzero_exit():
    with pytest.raises(subprocess.CalledProcessError) as raised:
        layers.run_process("table --n 3 --family preset:nope")
    assert raised.value.returncode == 2
