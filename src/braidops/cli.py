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
import random
import sys
from json.encoder import encode_basestring_ascii as _quote
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
from .multipoly import MultiPoly, SlotPoly
from .pddo import PDDO, per_operator
from .words import MAX_TABLE_N, apply_word, polynomial_table, staircase

__all__ = ["main", "poly_to_json", "poly_from_json"]


class ConfigError(ValueError):
    """Bad command-line or config-file input."""


# -- JSON forms -------------------------------------------------------------


def poly_to_json(p: MultiPoly) -> list[dict]:
    return [{"e": list(e), "c": str(c)} for e, c in p.sorted_terms()]


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
        """The exponent -> coefficient map of a term list [{"e": [...], "c": "p/q"}]."""
        terms = {}
        for item in self.list():
            item = item.fields(("e", "c"))
            exponents = item["e"].list()
            if len(exponents) != arity:
                raise item["e"].error(f"must have {arity} entries, not {len(exponents)}")
            e = tuple(x.natural(MAX_EXPONENT) for x in exponents)
            terms[e] = terms.get(e, FieldElement.of(0)) + item["c"].element()
        return terms


def poly_from_json(data: list[dict], n_vars: int) -> MultiPoly:
    return MultiPoly(n_vars, _Json(data, "term list").terms(n_vars))


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for the values
    the CLI prints: dicts with str keys, lists, str, int, bool and None.
    Anything else raises TypeError.  With an indent, json.dumps runs its pure
    Python encoder, which takes two to four times as long on a table (2-core
    machine)."""
    out: list[str] = []
    _write(obj, "\n", out.append)
    return "".join(out)


def _write(obj, newline: str, emit) -> None:
    """Emit obj as JSON text; newline is the line break and indent of the line
    obj starts on."""
    kind = type(obj)
    if kind is str:
        emit(_quote(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif kind is bool:
        emit("true" if obj else "false")
    elif obj is None:
        emit("null")
    elif kind is list:
        inner, separator = newline + "  ", "["
        for item in obj:
            emit(separator + inner)
            _write(item, inner, emit)
            separator = ","
        emit(newline + "]" if obj else "[]")
    elif kind is dict:
        inner, separator = newline + "  ", "{"
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(separator + inner + _quote(key) + ": ")
            _write(obj[key], inner, emit)
            separator = ","
        emit(newline + "}" if obj else "{}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


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
    choices = [_line(p) for p in lines.split(",")] if lines else [Case2Line.LINE1] * (n - 1)
    return main_case2(n, *params, choices)


def _preset(family: str, n: int, params: list[FieldElement]) -> OperatorFamily:
    if len(params) > 1:
        raise ConfigError(f"{family} takes at most one --params value, got {len(params)}")
    return preset(family.split(":", 1)[1], n, *params)


def _config(family: str, config: str | None) -> _Json:
    if not config:
        raise ConfigError("this family needs --config with a JSON file")
    return _Json.load(Path(config).read_text(), f"{family} config")


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
    """Print a report's sections (its fields): one `label (i,k): pass|FAIL`
    line per index pair and an `overall:` line, or JSON keyed "i,k".  A
    same-index entry i prints as (i,i) and "i"."""
    sections = {name: sorted(results.items()) for name, results in vars(report).items()}
    if output == "json":
        print(_dumps({"passed": report.passed, **{name: {
            ",".join(map(str, key)) if type(key) is tuple else str(key):
                {"passed": r.passed, "flags": r.flags} if isinstance(r, CubicReport) else r
            for key, r in items
        } for name, items in sections.items()}}))
        return
    for name, items in sections.items():
        for key, r in items:
            i, k = key if type(key) is tuple else (key, key)
            flags = r.flags if isinstance(r, CubicReport) else {}
            bad = [coeff for coeff, ok in flags.items() if not ok]
            detail = f"  (failing coefficients: {', '.join(bad)})" if bad else ""
            print(f"{_LABELS[name]}({i},{k}): {'pass' if r else 'FAIL'}{detail}")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")


# -- subcommands ------------------------------------------------------------

# verify and commute report all (n-1)(n-2)/2 distant pairs.  At n = 500 a run
# takes about 0.13 s, 2.8 MB of output and 70 MiB on a 2-core machine; at
# n = 1000, 0.5 s, 11 MB and 220 MiB.
MAX_REPORT_N = 500


def _refuse_large_report(n: int) -> None:
    if n > MAX_REPORT_N:
        raise ConfigError(f"--n {n} exceeds the limit {MAX_REPORT_N} of verify and commute")


def _cmd_verify(args) -> int:
    _refuse_large_report(args.n)
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
    fam = build_family(args.family, args.n, args.params, args.lines, args.config)
    params = dict(enumerate(per_operator(PDDO.hecke_params, ((op,) for op in fam.ops)), 1))
    if args.output == "json":
        print(_dumps({"n": fam.n, "hecke": [
            {"index": i, "mu": hp and str(hp[0]), "nu": hp and str(hp[1])}
            for i, hp in params.items()]}))
        return 0
    for i, hp in params.items():
        relation = "no Hecke relation" if hp is None else f"mu = {hp[0]}, nu = {hp[1]}"
        print(f"pi_{i}: {relation}")
    return 0


def _cmd_commute(args) -> int:
    _refuse_large_report(args.n)
    fam1 = build_family(args.family, args.n, args.params, args.lines, args.config)
    fam2 = build_family(args.family2, args.n, args.params2, args.lines2, args.config2)
    report = cross_family_commute(fam1, fam2)
    _print_report(report, args.output)
    return 0 if report.passed else 1


def _read_seed(args, n: int) -> MultiPoly:
    text = args.seed_poly
    if text is None:
        return staircase(n)
    # Neither an inline term list nor "" is looked up as a path: the lookup of
    # a list longer than the file-name limit fails, and "" names the directory.
    if text and not text.lstrip().startswith("[") and Path(text).exists():
        text = Path(text).read_text()
    return MultiPoly(n, _Json.load(text, "--seed-poly").terms(n))


def _cmd_table(args) -> int:
    if args.n > MAX_TABLE_N:  # refused before the family's n - 1 operators are built
        raise ConfigError(f"tables capped at n = {MAX_TABLE_N}")
    fam = build_family(args.family, args.n, args.params, args.lines, args.config)
    seed = _read_seed(args, fam.n)
    entries = polynomial_table(fam, seed)
    if args.output == "json":
        print(_dumps({
            "n": fam.n,
            "entries": [
                {"perm": list(entry.perm.one_line),
                 "word": list(entry.word),
                 "poly": poly_to_json(entry.poly)}
                for entry in entries
            ],
        }))
    else:
        width = max(len(str(e.perm.one_line)) for e in entries)
        for entry in entries:
            print(f"{str(entry.perm.one_line):<{width}}  {entry.poly}")
    return 0


def _cmd_apply(args) -> int:
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
        print(_dumps({"n": fam.n, "word": word, "poly": poly_to_json(result)}))
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
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; use a smaller --n or seed polynomial",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
