"""The three seeded workloads of the braidops benchmark.

Each workload owns a fixed catalogue of entries.  Entry ``i`` is drawn from
``random.Random(f"{workload}:{i}")``, so its inputs never change and its
output digest can be recorded once in ``golden.json``.  The catalogue is laid
out in rounds: ``pattern`` lists the kind of every slot of one round, and
slot ``j`` owns the entries ``j, j + len(pattern), j + 2 * len(pattern), ...``.
The run seed shuffles the entries of every slot independently and issues
rounds in slot order, so every run sees the same mix of kinds and a different
sample of inputs.

A workload turns an entry into a payload during set-up (``make``), runs the
payload against the public braidops API (``run``) and renders the output as
canonical text for the golden digest (``canon``).  ``known`` returns a
message when an output contradicts an answer that the mathematics fixes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable


class Lib:
    """The braidops modules, looked up afresh after every import.

    Every library call in this file goes through these module objects, so
    that the tracer's patches on module globals are seen.
    """

    def __init__(self):
        self.bo = importlib.import_module("braidops")
        self.cli = importlib.import_module("braidops.cli")
        self.families = importlib.import_module("braidops.families")
        self.sampling = importlib.import_module("braidops.sampling")


@dataclass(frozen=True)
class Record:
    entry: int  # catalogue index; its golden digest is stored under it
    kind: str
    payload: Any


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: tuple[str, ...]  # kind of every slot of one round, in issue order
    instances: int  # catalogue entries per slot
    pass_records: int  # records in one pass (see run.py)
    make: Callable[[Lib, random.Random, str], Any]
    run: Callable[[Lib, str, Any], Any]
    canon: Callable[[Any], str]
    known: Callable[[Lib, str, Any, Any], str | None]
    polys: Callable[[Any], list]  # output polynomials, as lists of coefficient strings

    @property
    def size(self) -> int:
        return len(self.pattern) * self.instances

    def order(self, seed: int) -> list[int]:
        """Every catalogue entry, in issue order for one run seed."""
        rng = random.Random(seed)
        slots = len(self.pattern)
        perms = [rng.sample(range(self.instances), self.instances) for _ in range(slots)]
        return [perms[j][r] * slots + j for r in range(self.instances) for j in range(slots)]

    def build(self, lib: Lib, entries: list[int]) -> list[Record]:
        records = []
        for entry in entries:
            kind = self.pattern[entry % len(self.pattern)]
            rng = random.Random(f"{self.name}:{entry}")
            records.append(Record(entry, kind, self.make(lib, rng, kind)))
        return records


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _poly_coeffs(p) -> list[str]:
    return [str(c) for c in p.terms.values()]


def coeff_bits(coeff: str) -> int:
    """Bit height of a coefficient in the textual form p/q or p/q+r/sz."""
    return max((int(d).bit_length() for d in re.findall(r"\d+", coeff)), default=0)


# -- shared parameter draws ---------------------------------------------------

# Parameters come from +-1 and +-2 (tables: +-1) so that the cost of one kind
# of record varies little from entry to entry: a pass holds only 12 verify or
# 20 table records, and its cost must not hinge on a few tall coefficients.
# Tables go further and fix everything but signs and coefficients.
_UNITS = (1, -1, 2, -2)
_SIGNS = (1, -1)


def _abcd(rng: random.Random) -> list[Fraction]:
    """(a, b, c, d) with d = bc / a, so that ad = bc."""
    a, b, c = (rng.choice(_UNITS) for _ in range(3))
    return [Fraction(a), Fraction(b), Fraction(c), Fraction(b * c, a)]


def _case1_params(rng: random.Random) -> list[Fraction]:
    """(a, b, c, d, e) with ad = bc and e outside {0, b - c}."""
    params = _abcd(rng)
    e = rng.choice([x for x in _UNITS if x != params[1] - params[2]])
    return params + [Fraction(e)]


def _lines(lib: Lib, rng: random.Random, count: int) -> list:
    """Per-index case2 lines, not all equal."""
    lines = lib.sampling.random_lines(rng, count)
    while len(set(lines)) == 1:
        lines = lib.sampling.random_lines(rng, count)
    return lines


# -- verify_sweep -------------------------------------------------------------


def _family(lib: Lib, rng: random.Random, constructor: str, n: int):
    bo = lib.bo
    if constructor == "case1":
        return bo.main_case1(n, *_case1_params(rng))
    if constructor == "case2":
        return bo.main_case2(n, *_abcd(rng), _lines(lib, rng, n - 1))
    if constructor == "degen-t":
        qhat = bo.SlotPoly({rng.choice(((1, 0), (0, 1))): rng.choice(_UNITS),
                            (0, 0): rng.choice(_UNITS)})
        a, b = [rng.choice(_UNITS) for _ in range(2)], [rng.choice(_UNITS) for _ in range(2)]
        p = [a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[1] * b[1]]
        splits = [(a, b), (b, a), (p, [1]), ([1], p)]
        return bo.degenerate_t_family(n, qhat, p, [rng.choice(splits) for _ in range(n - 1)])
    if constructor == "vanq0":
        mu = rng.choice(_UNITS)
        phi, psi = lib.sampling.draw_isolated_pair(rng, mu)
        return bo.with_vanishing_q0(n, mu, [bo.Isolated(rng.choice((1, n - 1)), phi, psi)])
    if constructor == "demazure":
        return bo.preset(constructor, n)
    return bo.preset(constructor, n, rng.choice(_UNITS))  # pure_ddiff, grothendieck


def _perturb(lib: Lib, rng: random.Random, fam):
    """Add h * d_i, h linear, to the operator at one random index i;
    generically the result fails the braid relations."""
    bo = lib.bo
    i = rng.randint(1, fam.n - 1)
    h = bo.SlotPoly({e: rng.choice(_UNITS) for e in rng.sample([(1, 0), (0, 1), (0, 0)], 2)})
    op = fam[i]
    ops = list(fam.ops)
    ops[i - 1] = bo.PDDO(op.T + h, op.Q0 + h)
    return bo.OperatorFamily(fam.n, tuple(ops), provenance="perturbed")


def _verify_make(lib: Lib, rng: random.Random, kind: str):
    # kind: "<verb>:<constructor>:<n>", verb in {verify, perturbed, commute}
    verb, constructor, n = kind.split(":")
    n = int(n)
    if verb == "commute":
        return _family(lib, rng, constructor, n), _family(lib, rng, constructor, n)
    fam = _family(lib, rng, constructor, n)
    return _perturb(lib, rng, fam) if verb == "perturbed" else fam


def _verify_run(lib: Lib, kind: str, payload):
    if kind.startswith("commute:"):
        return lib.bo.cross_family_commute(*payload)
    return lib.bo.family_braid_check(payload)


def _verify_canon(out) -> str:
    if hasattr(out, "cubic"):
        lines = [f"passed={out.passed}"]
        for pair in sorted(out.cubic):
            rep = out.cubic[pair]
            flags = "".join("1" if rep.flags[k] else "0" for k in sorted(rep.flags))
            fail = "" if rep.failure is None else f"{rep.failure[0]}:{rep.failure[1]}"
            lines.append(f"cubic{pair}={flags}|{fail}")
        lines += [f"quad{pair}={out.quad[pair]}" for pair in sorted(out.quad)]
        return "\n".join(lines)
    lines = [f"same{i}={out.same_index[i]}" for i in sorted(out.same_index)]
    lines += [f"distant{p}={out.distant[p]}" for p in sorted(out.distant)]
    lines += [f"consecutive{p}={out.consecutive[p]}" for p in sorted(out.consecutive)]
    return "\n".join(lines)


def _verify_known(lib: Lib, kind: str, payload, out) -> str | None:
    if kind.startswith("verify:") and not out.passed:
        return "a classified family failed the braid check"
    return None


def _verify_polys(out) -> list:
    if not hasattr(out, "cubic"):
        return []
    return [_poly_coeffs(rep.failure[1]) for rep in out.cubic.values() if rep.failure]


VERIFY_SWEEP = Workload(
    name="verify_sweep",
    # One round is one pass of about 10 s.  Three of the twelve slots are
    # perturbed families; the four 1.3-2 s kinds hold the 90th percentile
    # and the eight cheaper ones the median.
    pattern=(
        "verify:degen-t:4",
        "verify:vanq0:4",
        "perturbed:grothendieck:4",
        "verify:case2:5",
        "verify:pure_ddiff:6",
        "commute:case1:4",
        "verify:case1:5",
        "perturbed:case1:4",
        "verify:vanq0:5",
        "perturbed:case2:5",
        "verify:demazure:6",
        "verify:case2:4",
    ),
    instances=4,
    pass_records=12,
    make=_verify_make,
    run=_verify_run,
    canon=_verify_canon,
    known=_verify_known,
    polys=_verify_polys,
)


# -- table_build --------------------------------------------------------------


def _family_args(lib: Lib, rng: random.Random, constructor: str, n: int,
                 scale: int) -> list[str]:
    # The seed picks the signs of the parameters, and only within one class:
    # flipping the sign of a (with d) or of b, c and e together leaves the
    # work a table takes unchanged, so a pass costs the same for every seed.
    # A preset's parameter is +-scale.
    # "--params=" keeps argparse from reading a negative value as an option.
    a, s = rng.choice(_SIGNS), rng.choice(_SIGNS)
    if constructor == "case1":  # ad = bc; Hecke parameters (2s, 3)
        return ["--family", "case1", f"--params={a},{s},{-s},{-a},{-s}"]
    if constructor == "case2":
        return ["--family", "case2", f"--params={a},{s},{-s},{-a}",
                "--lines", ",".join(_CASE2_LINES[:n - 1])]
    if constructor == "demazure":
        return ["--family", "preset:demazure"]
    return ["--family", f"preset:{constructor}", f"--params={a * scale}"]


_CASE2_LINES = ("l1", "l3", "l4")


def _dense_seed(rng: random.Random, shape: str, n: int, n_terms: int) -> str:
    """A JSON term list of n_terms distinct monomials of degree 3.

    The monomials are fixed by shape and the seed picks the coefficients,
    so that the cost of a kind does not depend on the seed.  Coefficients
    are written p/q even when q = 1: the CLI first tries --seed-poly as a
    file name, and a name without '/' longer than 255 bytes makes that
    lookup fail.
    """
    draw = random.Random(shape)
    monomials = sorted({tuple(sorted(draw.choices(range(n), k=3))) for _ in range(64)})
    terms = []
    for picked in draw.sample(monomials, n_terms):
        e = [picked.count(k) for k in range(n)]
        terms.append({"e": e, "c": f"{rng.choice(_UNITS)}/1"})
    return json.dumps(terms, separators=(",", ":"))


def _table_make(lib: Lib, rng: random.Random, kind: str) -> list[str]:
    constructor, n, n_terms, *scale = kind.split(":")  # see TABLE_BUILD
    n = int(n)
    scale = int(scale[0]) if scale else 1
    argv = ["table", "--n", str(n), *_family_args(lib, rng, constructor, n, scale)]
    if n_terms == "x1":
        argv += ["--seed-poly", json.dumps([{"e": [1] + [0] * (n - 1), "c": "1/1"}])]
    elif int(n_terms):
        # Kinds that differ only in scale share their monomials.
        shape = f"{constructor}:{n}:{n_terms}"
        argv += ["--seed-poly", _dense_seed(rng, shape, n, int(n_terms))]
    return argv + ["--output", "json"]


def _table_run(lib: Lib, kind: str, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lib.cli.main(list(argv))
    return rc, buf.getvalue()


def _table_canon(out) -> str:
    rc, stdout = out
    return f"rc={rc}\n{stdout}"


def _table_known(lib: Lib, kind: str, argv, out) -> str | None:
    rc, stdout = out
    if rc != 0:
        return f"table exited with code {rc}"
    return None


def _table_polys(out) -> list:
    rc, stdout = out
    if rc != 0 or not stdout:
        return []
    return [[t["c"] for t in e["poly"]] for e in json.loads(stdout)["entries"]]


TABLE_BUILD = Workload(
    name="table_build",
    # kind: "<family>:<n>:<seed>[:<scale>]", the seed being 0 for the
    # staircase, x1 for the monomial x1, or a number of random terms, and the
    # preset's parameter +-scale (default 1).  No two slots can give the same
    # input, so a cache shared across the records of a pass finds nothing
    # that one table per process would not.  One round is one pass of about
    # 8 s.  The 90th percentile of a run lands in the middle of its six dense
    # two-term grothendieck tables, of like cost; the median lands among the
    # grothendieck staircase and dense demazure tables.
    pattern=(
        "case1:4:x1",
        "demazure:4:3",
        "pure_ddiff:4:6",
        "demazure:4:0",
        "grothendieck:4:0",
        "pure_ddiff:4:8",
        "demazure:4:4",
        "grothendieck:4:2",
        "pure_ddiff:4:4",
        "demazure:4:6",
        "case2:4:x1",
        "pure_ddiff:4:3",
        "grothendieck:4:1",
        "grothendieck:4:2:2",
        "pure_ddiff:4:5",
        "demazure:4:2",
        "grothendieck:4:0:2",
        "pure_ddiff:4:7",
        "demazure:4:5",
        "grothendieck:4:0:3",
    ),
    instances=4,
    pass_records=20,
    make=_table_make,
    run=_table_run,
    canon=_table_canon,
    known=_table_known,
    polys=_table_polys,
)


# -- slot_algebra -------------------------------------------------------------


def _zeta_element(lib: Lib, rng: random.Random):
    """A random element of Q(z) with a nonzero z part."""
    while True:
        x = lib.sampling.random_field_element(rng, 5, with_zeta=True, nonzero=True)
        if x.zeta_part:
            return x


def _zeta_slot(lib: Lib, rng: random.Random, max_degree: int, n_terms: int):
    terms = {}
    for _ in range(n_terms):
        r = rng.randint(0, max_degree)
        terms[(r, rng.randint(0, max_degree - r))] = _zeta_element(lib, rng)
    return lib.bo.SlotPoly(terms)


def _pqrs(lib: Lib, rng: random.Random) -> tuple:
    return (
        _zeta_slot(lib, rng, 3, 3),
        _zeta_slot(lib, rng, 3, 3),
        _zeta_slot(lib, rng, 2, 2),
        _zeta_slot(lib, rng, 1, 1),
    )


def _zeta_case1_params(lib: Lib, rng: random.Random) -> tuple:
    """(a, b, c, d, e) over Q(z) with ad = bc and e outside {0, b - c}."""
    a, b, c = (_zeta_element(lib, rng) for _ in range(3))
    d = b * c / a
    e = _zeta_element(lib, rng)
    while e == b - c:
        e = _zeta_element(lib, rng)
    return a, b, c, d, e


def _slot_make(lib: Lib, rng: random.Random, kind: str):
    first = _zeta_case1_params(lib, rng) if kind == "case1" else _pqrs(lib, rng)
    return first, _pqrs(lib, rng), lib.sampling.draw_zeta_params(rng)


def _slot_run(lib: Lib, kind: str, payload):
    bo = lib.bo
    first, second, zeta = payload
    if kind == "case1":
        op = lib.families.case1_operator(*first)
    else:
        op = bo.PDDO.from_pqrs(*first)
    forms = op.canonical_forms()
    hecke = op.hecke_params()
    square = op.compose(op)
    own = bo.commutes_same_index(op, square)
    other = bo.PDDO.from_pqrs(*second)
    composed = op.compose(other)
    commutes = bo.commutes_same_index(op, other)
    almost = bo.almost_equal(op.Q0 or op.T, other.Q0 or other.T)
    pi, varpi = bo.zeta_pair(*zeta)
    cubic = bo.cubic_braid_check(pi, varpi)
    return op, forms, hecke, square, own, composed, commutes, almost, cubic


_FORM_FIELDS = ("q0", "r0", "p_plus", "q_sup", "p_sup", "q_plus", "r_plus")


def _slot_canon(out) -> str:
    op, forms, hecke, square, own, composed, commutes, almost, cubic = out
    lines = [f"T={op.T}", f"Q0={op.Q0}"]
    lines += [f"{f}={getattr(forms, f)}" for f in _FORM_FIELDS]
    hp = "none" if hecke is None else f"{hecke[0]},{hecke[1]}"
    lines += [f"hecke={hp}", f"square={square.T}|{square.Q0}", f"own={own}",
              f"composed={composed.T}|{composed.Q0}", f"commutes={commutes}",
              f"almost={almost}", f"cubic={sorted(cubic.flags.items())}"]
    return "\n".join(lines)


def _slot_known(lib: Lib, kind: str, payload, out) -> str | None:
    op, forms, hecke, square, own, composed, commutes, almost, cubic = out
    if not own:
        return "an operator does not commute with its own square"
    if not cubic.passed:
        return "a zeta pair failed the cubic braid check"
    if kind == "case1":
        a, b, c, d, e = payload[0]
        if hecke != (b - c, e * (e + c - b)):
            return f"case1 Hecke parameters {hecke} differ from (b - c, e(e + c - b))"
    return None


def _slot_polys(out) -> list:
    op, forms, hecke, square, own, composed, commutes, almost, cubic = out
    polys = [op.T, op.Q0, square.T, square.Q0, composed.T, composed.Q0]
    polys += [getattr(forms, f) for f in _FORM_FIELDS]
    return [_poly_coeffs(p) for p in polys]


SLOT_ALGEBRA = Workload(
    name="slot_algebra",
    pattern=("random", "random", "case1"),
    instances=400,
    pass_records=120,
    make=_slot_make,
    run=_slot_run,
    canon=_slot_canon,
    known=_slot_known,
    polys=_slot_polys,
)


WORKLOADS = {w.name: w for w in (VERIFY_SWEEP, TABLE_BUILD, SLOT_ALGEBRA)}
