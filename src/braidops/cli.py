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
import json
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
from .multipoly import MultiPoly, SlotPoly
from .words import apply_word, polynomial_table, staircase

__all__ = ["main", "poly_to_json", "poly_from_json", "slot_from_json"]


class ConfigError(ValueError):
    """Bad command-line or config-file input."""


# -- JSON forms -------------------------------------------------------------


def poly_to_json(p: MultiPoly) -> list[dict]:
    return [{"e": list(e), "c": str(c)} for e, c in p.sorted_terms()]


def _list(value, field: str) -> list:
    """A JSON value that must be a list; a string would be read per character."""
    if type(value) is not list:
        raise TypeError(f"{field} must be a JSON list, not {type(value).__name__}")
    return value


def _string(value, field: str) -> str:
    """A JSON value that must be a string: a coefficient such as "1/2" or a line name."""
    if type(value) is not str:
        raise TypeError(f"{field} must be a JSON string, not {type(value).__name__}")
    return value


def _element(value, field: str) -> FieldElement:
    """A coefficient read from JSON; it must be a string such as "1/2"."""
    return FieldElement.parse(_string(value, field))


# The largest exponent a seed or config term may hold; work grows with it.
MAX_EXPONENT = 100_000


def _natural(x, field: str) -> int:
    """A non-negative integer read from JSON (an integral float such as 2.0
    is read as 2; bools, strings and other floats are refused)."""
    integral = type(x) is int or (type(x) is float and x.is_integer())
    if not integral or x < 0:
        raise ConfigError(f"{field} {x!r} is not a non-negative integer")
    return int(x)


def _exponents(raw) -> tuple[int, ...]:
    """An exponent vector read from JSON; each entry must be a non-negative
    integer of at most MAX_EXPONENT."""
    e = tuple(_natural(x, "exponent") for x in _list(raw, "exponent vector"))
    if max(e, default=0) > MAX_EXPONENT:
        raise ConfigError(f"exponent {max(e)} exceeds the limit {MAX_EXPONENT}")
    return e


def _fields(obj, where: str, required: tuple, optional: tuple = ()) -> dict:
    """A JSON object with every required field and no field outside
    required + optional; a misspelled field would otherwise be ignored."""
    if type(obj) is not dict:
        raise TypeError(f"{where} must be a JSON object, not {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown field {key!r} in {where}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing field {key!r} in {where}")
    return obj


def _terms(data, field: str) -> dict[tuple[int, ...], FieldElement]:
    """The exponent -> coefficient map of a JSON term list."""
    terms = {}
    for k, item in enumerate(_list(data, field)):
        where = f"{field} entry {k}"
        item = _fields(item, where, ("e", "c"))
        e = _exponents(item["e"])
        c = _element(item["c"], f"field 'c' in {where}")
        terms[e] = terms.get(e, FieldElement.of(0)) + c
    return terms


def poly_from_json(data: list[dict], n_vars: int) -> MultiPoly:
    return MultiPoly(n_vars, _terms(data, "term list"))


def slot_from_json(data: list[dict], field: str = "term list") -> SlotPoly:
    return SlotPoly(_terms(data, field))


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# -- family construction ----------------------------------------------------

_LINES = {f"l{line.value}": line for line in Case2Line}


def _line(name: str) -> Case2Line:
    key = name.strip().lower()
    if key not in _LINES:
        raise ConfigError(f"unknown line {key!r}; use l1..l4")
    return _LINES[key]


def _elements(data, field: str) -> list[FieldElement]:
    return [_element(c, f"{field} entry {j}") for j, c in enumerate(_list(data, field))]


def _case1(family: str, n: int, params: list[FieldElement]) -> OperatorFamily:
    if len(params) != 5:
        raise ConfigError(f"{family} needs --params a,b,c,d,e")
    return main_case1(n, *params)


def _case2(family: str, n: int, params: list[FieldElement],
           lines: str | None) -> OperatorFamily:
    if len(params) != 4:
        raise ConfigError(f"{family} needs --params a,b,c,d")
    choices = [_line(p) for p in lines.split(",")] if lines else [Case2Line.LINE1] * (n - 1)
    return main_case2(n, *params, choices)


def _preset(family: str, n: int, params: list[FieldElement]) -> OperatorFamily:
    if len(params) > 1:
        raise ConfigError(f"{family} takes at most one --params value, got {len(params)}")
    return preset(family.split(":", 1)[1], n, *params)


def _from_config(read):
    """The builder of a family given by --config: read(n, the loaded JSON)."""
    def build(family: str, n: int, config: str | None) -> OperatorFamily:
        if not config:
            raise ConfigError("this family needs --config with a JSON file")
        cfg = json.loads(Path(config).read_text())
        try:
            return read(n, cfg)
        except (TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed {family} config: {exc}") from exc
    return build


def _degen_t(n: int, cfg: dict) -> OperatorFamily:
    cfg = _fields(cfg, "degen-t config", ("qhat", "p", "pairs"))
    pairs = []
    for k, pair in enumerate(_list(cfg["pairs"], "pairs")):
        sides = [_list(q, "pairs entry") for q in _list(pair, "pairs entry")]
        if len(sides) != 2:
            raise TypeError(f"pairs entry {k} must hold two lists [q_l, q_r], not {len(sides)}")
        pairs.append(tuple(_elements(q, f"pairs entry {k} {side}")
                           for side, q in zip(("q_l", "q_r"), sides)))
    qhat = slot_from_json(cfg["qhat"], "qhat")
    return degenerate_t_family(n, qhat, _elements(cfg["p"], "p"), pairs)


def _vanq0(n: int, cfg: dict) -> OperatorFamily:
    cfg = _fields(cfg, "vanq0 config", ("mu",), ("isolated", "intervals"))
    segments: list[Isolated | Interval] = []
    for k, iso in enumerate(_list(cfg.get("isolated", []), "isolated")):
        where = f"isolated entry {k}"
        iso = _fields(iso, where, ("index", "phi", "psi"))
        segments.append(Isolated(
            index=_natural(iso["index"], "index"),
            phi=slot_from_json(iso["phi"], f"{where} phi"),
            psi=slot_from_json(iso["psi"], f"{where} psi")))
    for k, iv in enumerate(_list(cfg.get("intervals", []), "intervals")):
        where = f"intervals entry {k}"
        iv = _fields(iv, where, ("start", "stop", *"abcd"), ("lines",))
        lines = None
        if "lines" in iv:
            lines = [_line(_string(l, f"{where} lines entry {j}"))
                     for j, l in enumerate(_list(iv["lines"], "lines"))]
        segments.append(Interval(
            start=_natural(iv["start"], "start"), stop=_natural(iv["stop"], "stop"),
            **{x: _element(iv[x], f"field {x!r} in {where}") for x in "abcd"}, lines=lines,
        ))
    return with_vanishing_q0(n, _element(cfg["mu"], "field 'mu' in vanq0 config"), segments)


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
    "degen-t": (("config",), _from_config(_degen_t), lambda n, rng:
                degenerate_t_family(n, *sampling.draw_degent_data(rng, n))),
    "vanq0": (("config",), _from_config(_vanq0), _draw_vanq0),
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
    given["params"] = [FieldElement.parse(p) for p in params.split(",")] if params else []
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
    params = {i: fam[i].hecke_params() for i in range(1, fam.n)}
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
    if not args.seed_poly:
        return staircase(n)
    text = args.seed_poly
    # An inline term list is never looked up as a path: one longer than the
    # file-name limit would make the lookup itself fail.
    if not text.lstrip().startswith("[") and Path(text).exists():
        text = Path(text).read_text()
    try:
        return poly_from_json(json.loads(text), n)
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed --seed-poly: {exc}") from exc


def _cmd_table(args) -> int:
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
