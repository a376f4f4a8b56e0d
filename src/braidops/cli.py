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


def _exponents(raw) -> tuple[int, ...]:
    """An exponent vector read from JSON; each entry must be a non-negative
    integer (an integral float such as 2.0 is read as 2; bools are refused)."""
    out = []
    for x in raw:
        integral = type(x) is int or (type(x) is float and x.is_integer())
        if not integral or x < 0:
            raise ConfigError(f"exponent {x!r} is not a non-negative integer")
        out.append(int(x))
    return tuple(out)


def poly_from_json(data: list[dict], n_vars: int) -> MultiPoly:
    terms = {}
    for item in data:
        e = _exponents(item["e"])
        if len(e) != n_vars:
            raise ConfigError(f"exponent vector {e} does not have {n_vars} entries")
        terms[e] = terms.get(e, FieldElement.of(0)) + FieldElement.parse(item["c"])
    return MultiPoly(n_vars, terms)


def slot_from_json(data: list[dict]) -> SlotPoly:
    terms = {}
    for item in data:
        e = _exponents(item["e"])
        terms[e] = terms.get(e, FieldElement.of(0)) + FieldElement.parse(item["c"])
    return SlotPoly(terms)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# -- family construction ----------------------------------------------------

_LINES = {"l1": Case2Line.LINE1, "l2": Case2Line.LINE2,
          "l3": Case2Line.LINE3, "l4": Case2Line.LINE4}


def _parse_params(text: str | None) -> list[FieldElement]:
    if not text:
        return []
    return [FieldElement.parse(part) for part in text.split(",")]


def _line(name: str) -> Case2Line:
    key = name.strip().lower()
    if key not in _LINES:
        raise ConfigError(f"unknown line {key!r}; use l1..l4")
    return _LINES[key]


def _parse_lines(text: str | None, count: int) -> list[Case2Line]:
    if not text:
        return [Case2Line.LINE1] * count
    lines = [_line(p) for p in text.split(",")]
    if len(lines) != count:
        raise ConfigError(f"expected {count} line choices, got {len(lines)}")
    return lines


def _load_config(path: str | None) -> dict:
    if not path:
        raise ConfigError("this family needs --config with a JSON file")
    return json.loads(Path(path).read_text())


def _config_family(family: str, n: int, cfg: dict) -> OperatorFamily:
    if family == "degen-t":
        pairs = [
            ([FieldElement.parse(c) for c in ql], [FieldElement.parse(c) for c in qr])
            for ql, qr in cfg["pairs"]
        ]
        return degenerate_t_family(
            n,
            slot_from_json(cfg["qhat"]),
            [FieldElement.parse(c) for c in cfg["p"]],
            pairs,
        )
    segments: list[Isolated | Interval] = []
    for iso in cfg.get("isolated", []):
        segments.append(
            Isolated(
                index=int(iso["index"]),
                phi=slot_from_json(iso["phi"]),
                psi=slot_from_json(iso["psi"]),
            )
        )
    for iv in cfg.get("intervals", []):
        seg_lines = None
        if "lines" in iv:
            seg_lines = [_line(l) for l in iv["lines"]]
        segments.append(
            Interval(
                start=int(iv["start"]), stop=int(iv["stop"]),
                a=FieldElement.parse(iv["a"]), b=FieldElement.parse(iv["b"]),
                c=FieldElement.parse(iv["c"]), d=FieldElement.parse(iv["d"]),
                lines=seg_lines,
            )
        )
    return with_vanishing_q0(n, FieldElement.parse(cfg["mu"]), segments)


def build_family(family: str, n: int, params: str | None,
                 lines: str | None, config: str | None) -> OperatorFamily:
    if n < 2:
        raise ConfigError(f"--n must be at least 2, got {n}")
    values = _parse_params(params)
    if family == "case1":
        if len(values) != 5:
            raise ConfigError("case1 needs --params a,b,c,d,e")
        return main_case1(n, *values)
    if family == "case2":
        if len(values) != 4:
            raise ConfigError("case2 needs --params a,b,c,d")
        return main_case2(n, *values, _parse_lines(lines, n - 1))
    if family in ("degen-t", "vanq0"):
        try:
            return _config_family(family, n, _load_config(config))
        except (TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed {family} config: {exc}") from exc
    if family.startswith("preset:"):
        if len(values) > 1:
            raise ConfigError(
                f"{family} takes at most one --params value, got {len(values)}"
            )
        return preset(family.split(":", 1)[1], n, *values)
    raise ConfigError(f"unknown family {family!r}")


def _random_family(family: str, n: int, rng: random.Random) -> OperatorFamily:
    if family == "case1":
        return main_case1(n, *sampling.draw_case1_params(rng))
    if family == "case2":
        return main_case2(
            n, *sampling.draw_case2_params(rng), sampling.random_lines(rng, n - 1)
        )
    if family == "degen-t":
        qhat, p, pairs = sampling.draw_degent_data(rng, n)
        return degenerate_t_family(n, qhat, p, pairs)
    if family == "vanq0":
        mu = sampling.random_field_element(rng, 5, nonzero=True)
        phi, psi = sampling.draw_isolated_pair(rng, mu)
        return with_vanishing_q0(n, mu, [Isolated(1, phi, psi)])
    raise ConfigError(f"--random-trials does not support family {family!r}")


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
        rng = random.Random(args.rng_seed)
        failures = 0
        for trial in range(args.random_trials):
            fam = _random_family(args.family, args.n, rng)
            report = family_braid_check(fam)
            status = "pass" if report.passed else "FAIL"
            print(f"trial {trial}: {status}")
            failures += 0 if report.passed else 1
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
    path = Path(text)
    if path.exists():
        text = path.read_text()
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


def _add_family_args(parser, suffix: str = "") -> None:
    parser.add_argument(
        f"--family{suffix}", required=True,
        help="case1 | case2 | degen-t | vanq0 | preset:<pure_ddiff|demazure|grothendieck>",
    )
    parser.add_argument(f"--params{suffix}", help="comma-separated rationals (p/q)")
    parser.add_argument(f"--lines{suffix}", help="per-index case2 lines, e.g. l1,l4,l2")
    parser.add_argument(f"--config{suffix}", help="JSON config for degen-t / vanq0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidops", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the braid-relation checks")
    _add_family_args(p_verify)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--output", choices=("text", "json"), default="text")
    p_verify.add_argument("--random-trials", type=int, default=0)
    p_verify.add_argument("--rng-seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_hecke = sub.add_parser("hecke", help="print Hecke parameters per operator")
    _add_family_args(p_hecke)
    p_hecke.add_argument("--n", type=int, required=True)
    p_hecke.add_argument("--output", choices=("text", "json"), default="text")
    p_hecke.set_defaults(func=_cmd_hecke)

    p_commute = sub.add_parser("commute", help="cross-family commutation report")
    _add_family_args(p_commute)
    _add_family_args(p_commute, suffix="2")
    p_commute.add_argument("--n", type=int, required=True)
    p_commute.add_argument("--output", choices=("text", "json"), default="text")
    p_commute.set_defaults(func=_cmd_commute)

    p_table = sub.add_parser("table", help="polynomial table over S_n")
    _add_family_args(p_table)
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--seed-poly", help="JSON term list (inline or file)")
    p_table.add_argument("--output", choices=("text", "json"), default="json")
    p_table.set_defaults(func=_cmd_table)

    p_apply = sub.add_parser("apply", help="apply a word of operators to a polynomial")
    _add_family_args(p_apply)
    p_apply.add_argument("--n", type=int, required=True)
    p_apply.add_argument("--word", help="comma-separated indices, leftmost applied last")
    p_apply.add_argument("--seed-poly", help="JSON term list (inline or file)")
    p_apply.add_argument("--output", choices=("text", "json"), default="json")
    p_apply.set_defaults(func=_cmd_apply)

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
