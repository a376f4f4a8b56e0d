"""Command-line harness: family construction, verification, Hecke parameter
extraction, commutation reports, and polynomial tables with JSON output.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration error.

Table convention (documented here because no canonical one exists): the
entry for a permutation w applies the family operators along a reduced word
of w^{-1} w0 to the seed polynomial, which defaults to the staircase
monomial x1^{n-1} x2^{n-2} ... x_{n-1}.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from pathlib import Path

from . import sampling
from .braid import CubicReport, FamilyReport, family_braid_check
from .commute import CommuteReport, cross_family_commute
from .families import (
    Case2Line,
    Interval,
    Isolated,
    OperatorFamily,
    degenerate_t_family,
    main_case1,
    main_case2,
    preset,
    with_vanishing_q0,
)
from .field import FieldElement
from .multipoly import MultiPoly, SlotPoly, _grlex_rank
from .words import MAX_TABLE_N, apply_word, polynomial_table, staircase

__all__ = ["main", "poly_to_json", "poly_from_json"]


class ConfigError(ValueError):
    """Bad command-line or config-file input."""


# -- JSON forms -------------------------------------------------------------


def poly_to_json(p: MultiPoly) -> list[dict]:
    return [{"e": list(e), "c": c} for e, c in p._printed_terms()]


# The largest exponent a seed or config term may hold; work grows with it.
MAX_EXPONENT = 100_000

# The JSON name of each type that json.loads returns.
_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}


class _Json:
    """A loaded JSON value, its source such as "vanq0 config" and its path such
    as isolated[0].phi[0].c; every refusal reads `<source>: <path> <problem>`."""

    def __init__(self, value, source: str, path: str = ""):
        self.value, self.source, self.path = value, source, path

    @classmethod
    def load(cls, text: str, source: str) -> "_Json":
        try:
            return cls(json.loads(text), source)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ConfigError(f"{source}: top level cannot be read as JSON ({exc})") from None

    def _at(self, key: int | str, value=None) -> "_Json":
        step = f"[{key}]" if type(key) is int else (
            f".{key}" if key.isidentifier() else f"[{json.dumps(key)}]")
        return _Json(value, self.source, (self.path + step).lstrip("."))

    def error(self, problem: str) -> ConfigError:
        return ConfigError(f"{self.source}: {self.path or 'top level'} {problem}")

    def _is(self, *kinds: type):
        if type(self.value) not in kinds:
            found = _JSON_TYPES.get(type(self.value), type(self.value).__name__)
            raise self.error(f"must be a JSON {_JSON_TYPES[kinds[0]]}, not {found}")
        return self.value

    def list(self) -> list["_Json"]:
        return [self._at(k, v) for k, v in enumerate(self._is(list))]

    def fields(self, required: tuple, optional: tuple = ()) -> dict[str, "_Json"]:
        """An object's fields; a misspelled one is refused, not ignored."""
        obj = self._is(dict)
        for key in obj:
            if key not in required and key not in optional:
                raise self._at(key).error("is an unknown field")
        for key in required:
            if key not in obj:
                raise self._at(key).error("is missing")
        return {key: self._at(key, v) for key, v in obj.items()}

    def string(self, read):
        """A string read by read; a ValueError it raises is refused here."""
        text = self._is(str)
        try:
            return read(text)
        except ValueError as exc:
            raise self.error(str(exc))

    def element(self) -> FieldElement:
        """A coefficient: a string such as "1/2" or "1/2-3z"."""
        text = self._is(str)
        try:
            return FieldElement.parse(text)
        except ValueError:
            raise self.error(f"{json.dumps(text)} is not a field element p/q or p/q+r/sz")

    def natural(self, limit: float = float("inf")) -> int:
        """A non-negative integer; an integral float such as 2.0 reads as 2."""
        x = self._is(int, float)
        if x < 0 or (type(x) is float and not x.is_integer()):
            raise self.error(f"{json.dumps(x)} is not a non-negative integer")
        if x > limit:
            raise self.error(f"{json.dumps(x)} exceeds the limit {limit}")
        return int(x)

    def terms(self, arity: int) -> dict[tuple[int, ...], FieldElement]:
        """The exponent -> coefficient map of a term list [{"e": [...], "c": "p/q"}],
        equal exponents summed.  Each item, exponent and coefficient is read
        through its path, so that a refusal names the first bad value."""
        terms, zero = {}, FieldElement.of(0)
        for item in self.list():
            item = item.fields(("e", "c"))
            exponents = item["e"].list()
            if len(exponents) != arity:
                raise item["e"].error(f"must have {arity} entries, not {len(exponents)}")
            e = tuple(x.natural(MAX_EXPONENT) for x in exponents)
            terms[e] = terms.get(e, zero) + item["c"].element()
        return terms


def poly_from_json(data: list[dict], n_vars: int) -> MultiPoly:
    return MultiPoly(n_vars, _Json(data, "term list").terms(n_vars))


# json.dumps(obj, indent=2, sort_keys=True) prints the reports.  Tables, apply
# and hecke print the same bytes through the writers below.  An int list fills
# one %d template per length, and an object one %s template per set of keys.
# A _Writer serves one listing and every polynomial in it: it ranks their
# distinct exponent vectors once in descending graded-lex order and formats
# the end of a term, its "e" block included, once per exponent vector.  A
# polynomial's text is then its term walk in that rank, each term its
# coefficient text between a fixed head and its exponents' ending.  No whole
# term text is kept, as a large table would keep one per distinct term.  A
# listing streams one item at a time.
# A report or an apply result is one print call: under python -u a closed pipe
# cuts its long text short without an error, and the newline that print writes
# next raises BrokenPipeError, so the exit status is 141 in either mode.


def _template(length: int, newline: str) -> str:
    """The %d template of the JSON of a list of length ints, on a line whose
    break and indent is newline."""
    if not length:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(["%d"] * length) + newline + "]"


def _object(keys, newline: str) -> str:
    """The %s template of the JSON of an object with these keys, given in
    sorted order, on a line whose break and indent is newline; each %s takes
    the JSON text of its key's value."""
    inner = newline + "  "
    return "{" + ",".join([f'{inner}"{key}": %s' for key in keys]) + newline + "}"


class _Writer:
    """The JSON texts of a listing's int lists and of the polynomials polys,
    these as poly_to_json gives them, on lines whose break and indent is
    newline."""

    def __init__(self, newline: str, polys):
        self.newline, self.templates = newline, {}
        self.rank = rank = _grlex_rank(polys)
        inner = newline + "  "
        field = inner + "  "
        # A term's text is head + coefficient + its exponents' ending, which
        # holds the "e" block; polys share one number of variables.
        self.head = inner + "{" + field + '"c": "'
        ending = '",' + field + '"e": ' + _template(len(next(iter(rank), ())), field) + inner + "}"
        self.endings = {e: ending % e for e in rank}

    def ints(self, values: tuple) -> str:
        template = self.templates.get(len(values))
        if template is None:
            template = self.templates[len(values)] = _template(len(values), self.newline)
        return template % values

    def poly(self, p: MultiPoly) -> str:
        if not p:
            return "[]"
        head, endings = self.head, self.endings
        parts = [head + c + endings[e] for e, c in p._printed_terms(self.rank)]
        return "[" + ",".join(parts) + self.newline + "]"


def _print_listing(key: str, items, n: int) -> None:
    """Print {key: [...], "n": n}, writing each item's text (at indent 4) as
    soon as items yields it.  key must sort before "n", and items must yield
    at least one text: a table has n! entries and hecke n - 1.  stdout is
    looked up now, so redirect_stdout holds."""
    write = sys.stdout.write
    separator = '{\n  "' + key + '": ['
    for text in items:
        write(separator + "\n    " + text)
        separator = ","
    write('\n  ],\n  "n": ' + str(n) + "\n}\n")


# -- family construction ----------------------------------------------------

_LINES = {f"l{line.value}": line for line in Case2Line}


def _line(name: str) -> Case2Line:
    key = name.strip().lower()
    if key not in _LINES:
        raise ConfigError(f"unknown line {key!r}; use l1..l4")
    return _LINES[key]


def _case1(family: str, n: int, params: list[FieldElement]) -> OperatorFamily:
    if len(params) != 5:
        raise ConfigError(f"{family} needs --params a,b,c,d,e")
    return main_case1(n, *params)


def _case2(family: str, n: int, params: list[FieldElement],
           lines: str | None) -> OperatorFamily:
    if len(params) != 4:
        raise ConfigError(f"{family} needs --params a,b,c,d")
    if lines == "":
        raise ConfigError("--lines is empty; give one of l1..l4 per index")
    choices = ([line.string(_line) for line in _Json(lines.split(","), "--lines").list()]
               if lines is not None else [Case2Line.LINE1] * (n - 1))
    return main_case2(n, *params, choices)


def _preset(family: str, n: int, params: list[FieldElement]) -> OperatorFamily:
    if len(params) > 1:
        raise ConfigError(f"{family} takes at most one --params value, got {len(params)}")
    return preset(family.split(":", 1)[1], n, *params)


def _read_file(option: str, path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{option}: cannot read {path!r} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{option}: cannot read {path!r} ({exc})") from None


def _config(family: str, config: str | None) -> _Json:
    if config is None:
        raise ConfigError("this family needs --config with a JSON file")
    if config == "":
        raise ConfigError("--config is empty; give a JSON file")
    return _Json.load(_read_file("--config", config), f"{family} config")


def _degen_t(family: str, n: int, config: str | None) -> OperatorFamily:
    cfg = _config(family, config).fields(("qhat", "p", "pairs"))
    pairs = []
    for pair in cfg["pairs"].list():
        sides = pair.list()
        if len(sides) != 2:
            raise pair.error(f"must hold two lists [q_l, q_r], not {len(sides)}")
        pairs.append(tuple([c.element() for c in side.list()] for side in sides))
    qhat = SlotPoly(cfg["qhat"].terms(2))
    return degenerate_t_family(n, qhat, [c.element() for c in cfg["p"].list()], pairs)


def _vanq0(family: str, n: int, config: str | None) -> OperatorFamily:
    cfg = _config(family, config).fields(("mu",), ("isolated", "intervals"))
    segments: list[Isolated | Interval] = []
    for iso in cfg["isolated"].list() if "isolated" in cfg else []:
        iso = iso.fields(("index", "phi", "psi"))
        phi, psi = (SlotPoly(iso[side].terms(2)) for side in ("phi", "psi"))
        segments.append(Isolated(iso["index"].natural(), phi, psi))
    for iv in cfg["intervals"].list() if "intervals" in cfg else []:
        iv = iv.fields(("start", "stop", *"abcd"), ("lines",))
        lines = [line.string(_line) for line in iv["lines"].list()] if "lines" in iv else None
        segments.append(Interval(
            start=iv["start"].natural(), stop=iv["stop"].natural(),
            **{x: iv[x].element() for x in "abcd"}, lines=lines,
        ))
    return with_vanishing_q0(n, cfg["mu"].element(), segments)


def _draw_vanq0(n: int, rng: random.Random) -> OperatorFamily:
    mu = sampling.random_field_element(rng, 5, nonzero=True)
    phi, psi = sampling.draw_isolated_pair(rng, mu)
    return with_vanishing_q0(n, mu, [Isolated(1, phi, psi)])


# family -> (the options of --params, --lines, --config it takes,
#            build(family, n, **options), its --random-trials draw(n, rng));
# "preset:" stands for every preset:<name>.
_FAMILIES = {
    "case1": (("params",), _case1,
              lambda n, rng: main_case1(n, *sampling.draw_case1_params(rng))),
    "case2": (("params", "lines"), _case2, lambda n, rng: main_case2(
        n, *sampling.draw_case2_params(rng), sampling.random_lines(rng, n - 1))),
    "degen-t": (("config",), _degen_t, lambda n, rng:
                degenerate_t_family(n, *sampling.draw_degent_data(rng, n))),
    "vanq0": (("config",), _vanq0, _draw_vanq0),
    "preset:": (("params",), _preset, None),
}


def _refuse_unused(who: str, given: dict[str, str | None], takes=()) -> None:
    for name, value in given.items():
        if value is not None and name not in takes:
            raise ConfigError(f"{who} takes no --{name}")


def build_family(family: str, n: int, params: str | None,
                 lines: str | None, config: str | None) -> OperatorFamily:
    if n < 2:
        raise ConfigError(f"--n must be at least 2, got {n}")
    key = "preset:" if family.startswith("preset:") else family
    if key not in _FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    options, build, _ = _FAMILIES[key]
    given = {"params": params, "lines": lines, "config": config}
    _refuse_unused(family, given, options)
    given["params"] = ([p.element() for p in _Json(params.split(","), "--params").list()]
                       if params is not None else [])
    return build(family, n, **{name: given[name] for name in options})


def _random_family(family: str, n: int, rng: random.Random) -> OperatorFamily:
    draw = _FAMILIES[family][2] if family in _FAMILIES else None
    if draw is None:
        raise ConfigError(f"--random-trials does not support family {family!r}")
    return draw(n, rng)


# -- report rendering -------------------------------------------------------


# section of a FamilyReport or CommuteReport -> its padded text label
_LABELS = {"cubic": "cubic  ", "quad": "quad   ", "same_index": "same-index  ",
           "distant": "distant     ", "consecutive": "consecutive "}


def _print_report(report: FamilyReport | CommuteReport, output: str) -> None:
    """Print a report's sections (its fields) in one print call: one `label
    (i,k): pass|FAIL` line per index pair and an `overall:` line, or JSON keyed
    "i,k".  A same-index entry i prints as (i,i) and "i"."""
    sections = {name: sorted(results.items()) for name, results in vars(report).items()}
    if output == "json":
        text = json.dumps({"passed": report.passed, **{name: {
            ",".join(map(str, key)) if type(key) is tuple else str(key):
                {"passed": r.passed, "flags": r.flags} if isinstance(r, CubicReport) else r
            for key, r in items
        } for name, items in sections.items()}}, indent=2, sort_keys=True)
    else:
        lines = []
        for name, items in sections.items():
            for key, r in items:
                i, k = key if type(key) is tuple else (key, key)
                flags = r.flags if isinstance(r, CubicReport) else {}
                bad = [coeff for coeff, ok in flags.items() if not ok]
                detail = f"  (failing coefficients: {', '.join(bad)})" if bad else ""
                lines.append(f"{_LABELS[name]}({i},{k}): {'pass' if r else 'FAIL'}{detail}")
        lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
        text = "\n".join(lines)
    print(text)


# -- subcommands ------------------------------------------------------------

# verify and commute report all (n-1)(n-2)/2 distant pairs.  On a 2-core
# machine, a whole verify process at n = 500 prints 2.7 MB of JSON in
# 0.4-0.6 s at 73-75 MiB peak RSS (text: 2.8 MB, 0.3-0.4 s, 57 MiB); at
# n = 1000, 10.6 MB of JSON in 1.3-2.0 s at 253 MiB (text: 11.4 MB, 0.9-1.4 s,
# 180 MiB).
MAX_REPORT_N = 500

# hecke lists n - 1 operators, and apply builds them.  On a 2-core machine a
# whole hecke process at n = 100,000 takes 0.5-0.65 s at 30 MiB peak RSS, and
# at n = 1,000,000 5.1-6.6 s at 123 MiB: the cost is linear in n.  A whole
# apply --family preset:demazure --word 1 process takes 0.23-0.26 s at 35 MiB
# at n = 100,000, and 0.84-1.18 s at 200 MiB at n = 1,000,000.
MAX_HECKE_N = 100_000


def _refuse_large_n(n: int, limit: int, commands: str) -> None:
    if n > limit:
        raise ConfigError(f"--n {n} exceeds the limit {limit} of {commands}")


def _cmd_verify(args) -> int:
    _refuse_large_n(args.n, MAX_REPORT_N, "verify and commute")
    if args.random_trials < 0:
        raise ConfigError(f"--random-trials must be at least 0, got {args.random_trials}")
    if args.rng_seed is not None and not args.random_trials:
        raise ConfigError("--rng-seed needs a positive --random-trials")
    if args.random_trials:
        _refuse_unused("--random-trials",
                       {"params": args.params, "lines": args.lines, "config": args.config})
        if args.output == "json":
            raise ConfigError("--random-trials prints text only; it takes no --output json")
        rng = random.Random(args.rng_seed or 0)
        failures = 0
        for trial in range(args.random_trials):
            report = family_braid_check(_random_family(args.family, args.n, rng))
            print(f"trial {trial}: {'pass' if report.passed else 'FAIL'}")
            failures += not report.passed
        print(f"{args.random_trials - failures}/{args.random_trials} trials passed")
        return 0 if failures == 0 else 1
    fam = build_family(args.family, args.n, args.params, args.lines, args.config)
    report = family_braid_check(fam)
    _print_report(report, args.output)
    return 0 if report.passed else 1


def _cmd_hecke(args) -> int:
    _refuse_large_n(args.n, MAX_HECKE_N, "hecke")
    fam = build_family(args.family, args.n, args.params, args.lines, args.config)
    params = {i: op.hecke_params() for i, op in enumerate(fam.ops, 1)}
    if args.output == "json":
        def text(x):  # a parameter as a JSON string, or null
            return "null" if x is None else f'"{x}"'
        entry = _object(("index", "mu", "nu"), "\n    ")
        _print_listing("hecke", (entry % (i, text(hp and hp[0]), text(hp and hp[1]))
                                 for i, hp in params.items()), fam.n)
        return 0
    for i, hp in params.items():
        relation = "no Hecke relation" if hp is None else f"mu = {hp[0]}, nu = {hp[1]}"
        print(f"pi_{i}: {relation}")
    return 0


def _cmd_commute(args) -> int:
    _refuse_large_n(args.n, MAX_REPORT_N, "verify and commute")
    fam1 = build_family(args.family, args.n, args.params, args.lines, args.config)
    fam2 = build_family(args.family2, args.n, args.params2, args.lines2, args.config2)
    report = cross_family_commute(fam1, fam2)
    _print_report(report, args.output)
    return 0 if report.passed else 1


def _read_seed(args, n: int) -> MultiPoly:
    text = args.seed_poly
    if text is None:
        return staircase(n)
    # A value that names no file, such as "" or one longer than a file name
    # may be, is read as inline JSON.
    if os.path.exists(text):
        text = _read_file("--seed-poly", text)
    return MultiPoly(n, _Json.load(text, "--seed-poly").terms(n))


def _print_table(entries, n: int) -> None:
    """Print the JSON of a table: its entries' perm, poly and word, and n."""
    write, entry = _Writer("\n      ", [e.poly for e in entries]), _object(
        ("perm", "poly", "word"), "\n    ")
    _print_listing("entries", (entry % (write.ints(e.perm.one_line), write.poly(e.poly),
                                        write.ints(e.word)) for e in entries), n)


def _cmd_table(args) -> int:
    if args.n > MAX_TABLE_N:  # refused before the family's n - 1 operators are built
        raise ConfigError(f"tables capped at n = {MAX_TABLE_N}")
    fam = build_family(args.family, args.n, args.params, args.lines, args.config)
    seed = _read_seed(args, fam.n)
    entries = polynomial_table(fam, seed)  # all of it, so a refusal prints nothing
    if args.output == "json":
        _print_table(entries, fam.n)
    else:
        width = max(len(str(e.perm.one_line)) for e in entries)
        for entry in entries:
            print(f"{str(entry.perm.one_line):<{width}}  {entry.poly}")
    return 0


def _cmd_apply(args) -> int:
    _refuse_large_n(args.n, MAX_HECKE_N, "apply")
    fam = build_family(args.family, args.n, args.params, args.lines, args.config)
    seed = _read_seed(args, fam.n)
    try:
        word = [int(w) for w in args.word.split(",")] if args.word else []
    except ValueError:
        raise ConfigError(
            f"--word {args.word!r} is not a comma-separated list of integers") from None
    for letter in word:
        if not 1 <= letter <= fam.n - 1:
            raise ConfigError(f"--word letter {letter} out of range 1..{fam.n - 1}")
    result = apply_word(fam, word, seed)
    if args.output == "json":
        write = _Writer("\n  ", (result,))
        print(_object(("n", "poly", "word"), "\n")
              % (fam.n, write.poly(result), write.ints(tuple(word))))
    else:
        print(result)
    return 0


# -- argument parsing -------------------------------------------------------


@functools.cache  # parse_args keeps no state, so one parser serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidops", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, output="text", suffixes=("",)):
        p = sub.add_parser(name, help=help)
        for s in suffixes:
            p.add_argument(f"--family{s}", required=True,
                           help=" | ".join(_FAMILIES) + "<pure_ddiff|demazure|grothendieck>")
            p.add_argument(f"--params{s}", help="comma-separated rationals (p/q)")
            p.add_argument(f"--lines{s}", help="per-index case2 lines, e.g. l1,l4,l2")
            p.add_argument(f"--config{s}", help="JSON config for degen-t / vanq0")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--output", choices=("text", "json"), default=output)
        p.set_defaults(func=func)
        return p

    p_verify = command("verify", _cmd_verify, "run the braid-relation checks")
    p_verify.add_argument("--random-trials", type=int, default=0)
    p_verify.add_argument("--rng-seed", type=int)
    command("hecke", _cmd_hecke, "print Hecke parameters per operator")
    command("commute", _cmd_commute, "cross-family commutation report", suffixes=("", "2"))
    p_table = command("table", _cmd_table, "polynomial table over S_n", output="json")
    p_table.add_argument("--seed-poly", help="JSON term list (inline or file)")
    p_apply = command("apply", _cmd_apply, "apply a word of operators to a polynomial",
                      output="json")
    p_apply.add_argument("--word", help="comma-separated indices, leftmost applied last")
    p_apply.add_argument("--seed-poly", help="JSON term list (inline or file)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: print nothing, and exit
        # as a process killed by SIGPIPE does (128 + 13), like cat in the same
        # pipe.  Pointing the descriptor at os.devnull lets the interpreter's
        # final flush of the unwritten rest succeed silently.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # not a descriptor, as under redirect_stdout
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; use a smaller --n or seed polynomial",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
