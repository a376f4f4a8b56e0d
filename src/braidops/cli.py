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
from .braid import FamilyReport, family_braid_check
from .commute import cross_family_commute
from .families import (
    Case2Line,
    ConstraintError,
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


def _natural(x, field: str) -> int:
    """A non-negative integer read from JSON (an integral float such as 2.0
    is read as 2; bools, strings and other floats are refused)."""
    integral = type(x) is int or (type(x) is float and x.is_integer())
    if not integral or x < 0:
        raise ConfigError(f"{field} {x!r} is not a non-negative integer")
    return int(x)


def _exponents(raw) -> tuple[int, ...]:
    """An exponent vector read from JSON; each entry must be a non-negative
    integer."""
    return tuple(_natural(x, "exponent") for x in _list(raw, "exponent vector"))


def _terms(data, field: str) -> dict[tuple[int, ...], FieldElement]:
    """The exponent -> coefficient map of a JSON term list."""
    terms = {}
    for item in _list(data, field):
        e = _exponents(item["e"])
        terms[e] = terms.get(e, FieldElement.of(0)) + FieldElement.parse(item["c"])
    return terms


def poly_from_json(data: list[dict], n_vars: int) -> MultiPoly:
    terms = _terms(data, "term list")
    for e in terms:
        if len(e) != n_vars:
            raise ConfigError(f"exponent vector {e} does not have {n_vars} entries")
    return MultiPoly(n_vars, terms)


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
    return [FieldElement.parse(c) for c in _list(data, field)]


def _case1(family: str, n: int, params: list[FieldElement]) -> OperatorFamily:
    if len(params) != 5:
        raise ConfigError(f"{family} needs --params a,b,c,d,e")
    return main_case1(n, *params)


def _case2(family: str, n: int, params: list[FieldElement],
           lines: str | None) -> OperatorFamily:
    if len(params) != 4:
        raise ConfigError(f"{family} needs --params a,b,c,d")
    choices = [_line(p) for p in lines.split(",")] if lines else [Case2Line.LINE1] * (n - 1)
    if len(choices) != n - 1:
        raise ConfigError(f"expected {n - 1} line choices, got {len(choices)}")
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
    pairs = []
    for pair in _list(cfg["pairs"], "pairs"):
        q_l, q_r = _list(pair, "pairs entry")
        pairs.append((_elements(q_l, "pairs entry"), _elements(q_r, "pairs entry")))
    qhat = slot_from_json(cfg["qhat"], "qhat")
    return degenerate_t_family(n, qhat, _elements(cfg["p"], "p"), pairs)


def _vanq0(n: int, cfg: dict) -> OperatorFamily:
    segments: list[Isolated | Interval] = [
        Isolated(index=_natural(iso["index"], "index"),
                 phi=slot_from_json(iso["phi"], "phi"), psi=slot_from_json(iso["psi"], "psi"))
        for iso in _list(cfg.get("isolated", []), "isolated")
    ]
    for iv in _list(cfg.get("intervals", []), "intervals"):
        lines = [_line(l) for l in _list(iv["lines"], "lines")] if "lines" in iv else None
        segments.append(Interval(
            start=_natural(iv["start"], "start"), stop=_natural(iv["stop"], "stop"),
            **{k: FieldElement.parse(iv[k]) for k in "abcd"}, lines=lines,
        ))
    return with_vanishing_q0(n, FieldElement.parse(cfg["mu"]), segments)


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


def _report_json(report: FamilyReport) -> dict:
    return {
        "passed": report.passed,
        "cubic": {
            f"{i},{k}": {"passed": rep.passed, "flags": rep.flags}
            for (i, k), rep in report.cubic.items()
        },
        "quad": {f"{i},{k}": ok for (i, k), ok in report.quad.items()},
    }


def _print_report(report: FamilyReport, output: str) -> None:
    if output == "json":
        print(_dumps(_report_json(report)))
        return
    for (i, k), rep in sorted(report.cubic.items()):
        status = "pass" if rep.passed else "FAIL"
        detail = ""
        if not rep.passed:
            bad = [name for name, ok in rep.flags.items() if not ok]
            detail = f"  (failing coefficients: {', '.join(bad)})"
        print(f"cubic  ({i},{k}): {status}{detail}")
    for (i, k), ok in sorted(report.quad.items()):
        print(f"quad   ({i},{k}): {'pass' if ok else 'FAIL'}")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")


# -- subcommands ------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.random_trials < 0:
        raise ConfigError(f"--random-trials must be at least 0, got {args.random_trials}")
    if args.random_trials:
        _refuse_unused("--random-trials",
                       {"params": args.params, "lines": args.lines, "config": args.config})
        rng = random.Random(args.rng_seed)
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
    rows = []
    for i in range(1, fam.n):
        hp = fam[i].hecke_params()
        rows.append(
            {"index": i, "mu": None if hp is None else str(hp[0]),
             "nu": None if hp is None else str(hp[1])}
        )
    if args.output == "json":
        print(_dumps({"n": fam.n, "hecke": rows}))
    else:
        for row in rows:
            if row["mu"] is None:
                print(f"pi_{row['index']}: no Hecke relation")
            else:
                print(f"pi_{row['index']}: mu = {row['mu']}, nu = {row['nu']}")
    return 0


def _cmd_commute(args) -> int:
    fam1 = build_family(args.family, args.n, args.params, args.lines, args.config)
    fam2 = build_family(args.family2, args.n, args.params2, args.lines2, args.config2)
    report = cross_family_commute(fam1, fam2)
    if args.output == "json":
        print(_dumps({
            "passed": report.passed,
            "same_index": {str(i): ok for i, ok in report.same_index.items()},
            "distant": {f"{i},{k}": ok for (i, k), ok in report.distant.items()},
            "consecutive": {
                f"{i},{k}": ok for (i, k), ok in report.consecutive.items()
            },
        }))
    else:
        for i, ok in sorted(report.same_index.items()):
            print(f"same-index  ({i},{i}): {'pass' if ok else 'FAIL'}")
        for (i, k), ok in sorted(report.distant.items()):
            print(f"distant     ({i},{k}): {'pass' if ok else 'FAIL'}")
        for (i, k), ok in sorted(report.consecutive.items()):
            print(f"consecutive ({i},{k}): {'pass' if ok else 'FAIL'}")
        print(f"overall: {'pass' if report.passed else 'FAIL'}")
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
    word = [int(w) for w in args.word.split(",")] if args.word else []
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
    p_verify.add_argument("--rng-seed", type=int, default=0)
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
    except (ConfigError, ConstraintError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; use a smaller --n or seed polynomial",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
