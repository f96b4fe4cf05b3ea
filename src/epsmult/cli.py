"""Command-line front end.

Six subcommands compute the library's headline quantities and write
deterministic CSV or JSON reports: epsilon (the sequence e_n), amao (one
stabilized multiplicity), theorem-a (the convergence table with the
epsilon sequence appended), okounkov-volume (truncated-semigroup counts
and the volume-difference estimate), semigroup (level counts and volume
of a serialized semigroup), and lemmas (containment and truncation
checks over an input ideal and/or a seeded random corpus).

Exit codes: 0 success, 2 inconclusive stabilization, 4 parse errors
(ideal syntax, JSON schema, unusable command line), 3 any other violated
precondition.

Every report embeds its configuration, the parsed command line: the
subcommand and each of its options except --out, leaving out an optional
option that is unset.  The CSV tables render from the JSON rows, so
both formats carry the same values, and reruns with equal inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .corpus import corpus
from .errors import (
    DimensionMismatchError,
    EpsmultError,
    IdealSyntaxError,
    InconclusiveError,
)
from .families import GradedFamilySpec
from .ideals import MonomialIdeal, _exact_int, from_json_dict, to_json_dict
from .multiplicity import (
    amao,
    check_sat_power_containment,
    epsilon_sequence,
    swanson_c_search,
    theorem_a_table,
)
from .okounkov import epsilon_via_volumes, simplex_counts
from .semigroups import check_cone_conditions, semigroup_from_json_dict

_NAMED_VARS = {"x": 0, "y": 1, "z": 2, "w": 3}
# The largest ring a report accepts, in either ideal syntax and for semigroups.
_MAX_DIM = 16
_TOKEN = re.compile(r"[A-Za-z]+[0-9]*|[0-9]+|\^|\*|,|\+|\S")


# -- ideal parsing -----------------------------------------------------------


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse either the JSON schema or the human monomial-list syntax.

    Human syntax: comma-separated monomials over x, y, z, w (up to four
    variables) or x1..xd, with '*' between factors and '^' for powers,
    e.g. "x^2*y, y^3".  Whitespace is ignored everywhere.
    """
    stripped = text.strip()
    if not stripped:
        raise IdealSyntaxError("empty input", 1, 1)
    if stripped.startswith("{"):
        data = _parse_json(text)
        # before the ideal is formed: its int64 rows take dim columns
        if isinstance(data, dict) and isinstance(data.get("dim"), int):
            _check_dim(data["dim"])
        try:
            return from_json_dict(data)
        except (ValueError, TypeError, DimensionMismatchError) as exc:
            raise IdealSyntaxError(str(exc), 1, 1) from exc
    return _parse_human(text)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IdealSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise IdealSyntaxError("invalid JSON: nested too deeply", 1, 1) from exc
    except ValueError as exc:  # int() refuses a number past the interpreter's digit limit
        raise IdealSyntaxError("invalid JSON: a number has too many digits", 1, 1) from exc


def _check_dim(dim: int, line: int = 1, col: int = 1) -> None:
    # n^d in every report normalization would otherwise grow without bound
    if dim > _MAX_DIM:
        raise IdealSyntaxError(
            f"dimension {dim} exceeds the supported maximum {_MAX_DIM}", line, col
        )


def _tokenize(text: str):
    for lineno, line in enumerate(text.split("\n"), start=1):
        for match in _TOKEN.finditer(line):
            yield match.group(), lineno, match.start() + 1


def _parse_human(text: str) -> MonomialIdeal:
    gens: list[dict[int, int]] = []
    exps: dict[int, int] = {}
    due = ("", 1, 1)  # the ',' or '*' that a factor must follow; None once one is read
    scheme = var = None  # var: the variable just read, which a '^' may raise
    tokens = _tokenize(text)
    for tok in tokens:
        word, line, col = tok
        if word == "+":
            raise IdealSyntaxError("sums are not monomials", line, col)
        if word == "^" and var is not None:
            power = next(tokens, None)
            if power is None or not _is_number(power[0]):
                raise IdealSyntaxError(
                    "'^' must be followed by a nonnegative integer", line, col
                )
            exps[var] += _number(*power) - 1  # the variable counted itself once
            var = None
        elif word == ",":
            if due:
                _missing_factor(due, tok)
            gens.append(exps)
            exps, due, var = {}, tok, None
        elif due is None:
            if word != "*":
                raise IdealSyntaxError(f"expected '*' or ',' before {word!r}", line, col)
            due, var = tok, None
        else:
            var, scheme = _variable_index(word, scheme, line, col)
            exps[var] = exps.get(var, 0) + 1
            due = None
    if due:
        _missing_factor(due, due)
    gens.append(exps)
    dim = max(max(g) for g in gens) + 1
    return MonomialIdeal(dim, [tuple(g.get(a, 0) for a in range(dim)) for g in gens])


def _missing_factor(due, end) -> None:
    """Raise for a generator that ends (at `end`) where a factor is due after `due`."""
    if due[0] == "*":
        raise IdealSyntaxError("generator ends with a dangling '*'", due[1], due[2])
    raise IdealSyntaxError("empty generator", end[1], end[2])


def _is_number(tok: str) -> bool:
    # ASCII only: str.isdigit also takes "²" and "١", which the grammar does not
    return tok.isascii() and tok.isdigit()


def _number(tok: str, line: int, col: int) -> int:
    try:
        return int(tok)
    except ValueError as exc:  # past the interpreter's digit limit (4300 by default)
        raise IdealSyntaxError(f"a number has too many digits ({len(tok)})", line, col) from exc


def _variable_index(tok: str, scheme: str | None, line: int, col: int):
    if _is_number(tok):
        raise IdealSyntaxError(
            "bare integers are not monomials; use the JSON form for constant ideals", line, col
        )
    m = re.fullmatch(r"([A-Za-z]+?)([0-9]+)?", tok)
    if m is None:
        raise IdealSyntaxError(f"unexpected token {tok!r}", line, col)
    name, suffix = m.groups()
    if suffix is None and name not in _NAMED_VARS:
        raise IdealSyntaxError(
            f"unknown variable {name!r} (named variables are x, y, z, w)", line, col
        )
    if suffix is not None and name != "x":
        raise IdealSyntaxError(
            f"unknown variable {tok!r} (indexed variables are x1..xd)", line, col
        )
    kind = "named" if suffix is None else "indexed"
    if scheme not in (None, kind):
        raise IdealSyntaxError(
            "cannot mix named variables (x, y, z, w) with indexed x1..xd", line, col
        )
    if suffix is None:
        return _NAMED_VARS[name], kind
    index = _number(suffix, line, col)
    if index < 1:
        raise IdealSyntaxError("indexed variables start at x1", line, col)
    _check_dim(index, line, col)
    return index - 1, kind


# -- small rendering helpers -------------------------------------------------


def _decimal12(value: Fraction) -> str:
    # exact, rounded half to even; report values are never negative
    q = round(value * 10**12)
    return f"{q // 10**12}.{q % 10**12:012d}"


def _cell(value) -> str:
    # booleans and None by type, not by value: 1 == True and 0 == False
    text = str(value)
    return text.lower() if value is None or isinstance(value, bool) else text


def _table(header: str, rows: list[dict], keys=None) -> list[str]:
    """CSV lines: the header, then one line per row; an absent key is an empty cell."""
    keys = keys or header.split(",")
    return [header] + [",".join(_cell(row.get(k, "")) for k in keys) for row in rows]


def _emit(args, lines: list[str], payload: dict) -> None:
    config = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "out") and value is not None
    }
    if args.format == "json":
        text = json.dumps({"config": config, **payload}, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(["# config: " + json.dumps(config, sort_keys=True), *lines]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_text(arg: str) -> str:
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
            raise IdealSyntaxError(f"cannot read {arg}: {exc}", 1, 1) from exc
    if arg.endswith(".json") or os.sep in arg:
        raise IdealSyntaxError(f"no such file: {arg}", 1, 1)
    return arg


def _load_ideal(arg: str) -> MonomialIdeal:
    return parse_ideal(_load_text(arg))


def _ideal_cell(ideal: MonomialIdeal) -> str:
    gens = ";".join(" ".join(str(x) for x in g) for g in ideal.generators)
    return f"d={ideal.dim}:{gens}"


# -- subcommands -------------------------------------------------------------


def _cmd_epsilon(args) -> int:
    ideal = _load_ideal(args.ideal)
    lines, rows = _epsilon_rows(ideal, args.nmax)
    _emit(args, lines, {"rows": rows})
    return 0


def _cmd_amao(args) -> int:
    inner = _load_ideal(args.inner)
    outer = _load_ideal(args.outer)
    res = amao(inner, outer, k_max=args.kmax, window=args.window)
    payload = {"value": res.value, "stabilized_at": res.stabilized_at, "window": res.window}
    _emit(args, _table("value,stabilized_at,window", [payload]), payload)
    return 0


def _epsilon_rows(ideal: MonomialIdeal, nmax: int):
    est = epsilon_sequence(ideal, nmax)
    rows = [
        {
            "n": n,
            "length": length,
            "num": value.numerator,
            "den": value.denominator,
            "decimal": _decimal12(value),
        }
        for n, (length, value) in enumerate(zip(est.lengths, est.sequence), start=1)
    ]
    return _table("n,length,e_n(num),e_n(den)", rows, ("n", "length", "num", "den")), rows


def _cmd_theorem_a(args) -> int:
    ideal = _load_ideal(args.ideal)
    _exact_int(args.nmax, "n_max", 1)  # a bad --nmax must not cost a whole table
    table = theorem_a_table(ideal, m_max=args.mmax, k_max=args.kmax, window=args.window)
    rows = []
    for row in table:
        if row.status == "inconclusive":
            rows.append({"m": row.m, "status": "inconclusive"})
        else:
            rows.append(
                {
                    "m": row.m,
                    "status": "ok",
                    "a_m": row.a_value,
                    "ratio_num": row.ratio.numerator,
                    "ratio_den": row.ratio.denominator,
                    "ratio_decimal": _decimal12(row.ratio),
                    "stabilized_at": row.stabilized_at,
                }
            )
    eps_lines, eps_rows = _epsilon_rows(ideal, args.nmax)
    # an inconclusive row shows its status in the a_m column
    lines = _table(
        "m,a_m,ratio_num,ratio_den,stabilized_at",
        [{"a_m": row["status"], **row} for row in rows],
    )
    lines += ["# epsilon sequence", *eps_lines]
    _emit(args, lines, {"table": rows, "epsilon": eps_rows})
    stalled = [row for row in table if row.status == "inconclusive"]
    for row in stalled:
        print(
            f"inconclusive: m={row.m}: last {len(row.tail)} d-th differences: "
            + ", ".join(map(str, row.tail)),
            file=sys.stderr,
        )
    return 2 if stalled else 0


def _volume_sweep(counts: dict[int, int], dim: int, exact: Fraction | None):
    rows = []
    for n, count in counts.items():
        estimate = Fraction(count, n**dim)
        row = {
            "n": n,
            "count": count,
            "estimate_num": estimate.numerator,
            "estimate_den": estimate.denominator,
            "estimate_decimal": _decimal12(estimate),
        }
        if exact is not None:
            row["exact_num"] = exact.numerator
            row["exact_den"] = exact.denominator
        rows.append(row)
    header = "n,count,estimate_num,estimate_den,exact_num,exact_den"
    return _table(header, rows), rows


def _cmd_okounkov_volume(args) -> int:
    ideal = _load_ideal(args.ideal)
    # first, so that a rejected input costs no count; its counts close both sweeps
    est = epsilon_via_volumes(ideal, args.beta, args.nmax)
    lines: list[str] = []
    payload: dict = {}
    powers = GradedFamilySpec(ideal)
    # level n of both families in one count of I^n's grid
    levels = [simplex_counts(powers(n), args.beta * n) for n in range(1, args.nmax)]
    levels.append((est.count_saturated, est.count_powers))
    for j, kind in enumerate(("saturated_powers", "powers")):
        counts = {n: level[j] for n, level in enumerate(levels, 1)}
        sweep_lines, payload[kind] = _volume_sweep(counts, ideal.dim, None)
        lines += [f"# family: {kind}", *sweep_lines]
    value = est.value
    lines.append(
        "# epsilon_via_volumes: num=%d, den=%d, decimal=%s"
        % (value.numerator, value.denominator, _decimal12(value))
    )
    payload["epsilon_via_volumes"] = {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": _decimal12(value),
        "count_saturated": est.count_saturated,
        "count_powers": est.count_powers,
    }
    _emit(args, lines, payload)
    return 0


def _cmd_semigroup(args) -> int:
    data = _parse_json(_load_text(args.input))
    try:
        sg = semigroup_from_json_dict(data)
    except (ValueError, TypeError) as exc:
        raise IdealSyntaxError(str(exc), 1, 1) from exc
    _check_dim(sg.dim)
    _exact_int(args.nmax, "nmax", 1)
    exact = sg.exact_volume()
    lines = []
    payload: dict = {}
    if args.beta is not None:
        cones = check_cone_conditions(sg, args.beta)
        lines.append(f"# cone2={_cell(cones['cone2'])},cone3={_cell(cones['cone3'])}")
        payload["cone_conditions"] = cones
    sweep_lines, payload["rows"] = _volume_sweep(sg.counts(args.nmax), sg.dim, exact)
    lines.extend(sweep_lines)
    if exact is not None:
        payload["exact"] = {
            "num": exact.numerator,
            "den": exact.denominator,
            "decimal": _decimal12(exact),
        }
    _emit(args, lines, payload)
    return 0


def _cmd_lemmas(args) -> int:
    entries: list[tuple[str, MonomialIdeal]] = []
    if args.ideal is not None:
        entries.append(("input", _load_ideal(args.ideal)))
    # without an input ideal, the corpus is all there is to check
    _exact_int(args.nmax, "nmax (the corpus size)", 0 if entries else 1)
    _exact_int(args.kmax, "kmax", 1)
    for pos, ideal in enumerate(corpus(args.seed, args.nmax)):
        entries.append((f"corpus[{pos}]", ideal))
    rows = []
    for label, ideal in entries:
        containment = check_sat_power_containment(ideal, args.kmax)
        rows.append(
            {
                "label": label,
                **to_json_dict(ideal),
                "lemma3_ok": containment.ok,
                "lemma3_first_failure": containment.first_failure,
                "lemma4_grid_c": swanson_c_search(ideal).c,
            }
        )
    lines = _table(
        "label,ideal,lemma3_ok,lemma4_grid_c",
        [{**row, "ideal": _ideal_cell(ideal)} for row, (_, ideal) in zip(rows, entries)],
    )
    passes = sum(row["lemma3_ok"] for row in rows)
    grid_cs = [row["lemma4_grid_c"] for row in rows if row["lemma4_grid_c"] is not None]
    lines.append(f"# lemma3: {passes}/{len(rows)} pass")
    if args.ideal is not None and rows[0]["lemma4_grid_c"] is not None:
        lines.append(f"# lemma4 grid-c = {rows[0]['lemma4_grid_c']}")
    if grid_cs:
        lines.append(f"# lemma4: max grid-c = {max(grid_cs)}")
    payload = {
        "rows": rows,
        "lemma3_passes": passes,
        "lemma3_total": len(rows),
        "lemma4_max_grid_c": max(grid_cs) if grid_cs else None,
    }
    _emit(args, lines, payload)
    return 3 if passes < len(rows) else 0


# -- argument plumbing -------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsmult",
        description="Exact multiplicity computations for monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("epsilon", help="epsilon sequence of an ideal")
    p.add_argument("-i", "--ideal", required=True)
    p.add_argument("--nmax", type=int, default=10)
    common(p)
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("amao", help="stabilized relative multiplicity of a pair")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--window", type=int, default=3)
    common(p)
    p.set_defaults(func=_cmd_amao)

    p = sub.add_parser("theorem-a", help="convergence table plus epsilon sequence")
    p.add_argument("-i", "--ideal", required=True)
    p.add_argument("--mmax", type=int, default=6)
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--nmax", type=int, default=10, help="epsilon appendix length")
    common(p)
    p.set_defaults(func=_cmd_theorem_a)

    p = sub.add_parser(
        "okounkov-volume", help="truncated-semigroup counts and volume difference"
    )
    p.add_argument("-i", "--ideal", required=True)
    p.add_argument("--beta", type=int, default=4)
    p.add_argument("--nmax", type=int, default=50, help="probe level")
    common(p)
    p.set_defaults(func=_cmd_okounkov_volume)

    p = sub.add_parser("semigroup", help="level counts and volume of a semigroup")
    # the report records the semigroup as "input"; usage still reads -i IDEAL
    p.add_argument(
        "-i",
        "--ideal",
        dest="input",
        metavar="IDEAL",
        required=True,
        help="semigroup JSON (file or literal)",
    )
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--beta", type=int, default=None, help="also report cone conditions")
    common(p)
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("lemmas", help="containment and truncation lemma checks")
    p.add_argument("-i", "--ideal", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--nmax", type=int, default=50, help="corpus size")
    p.add_argument("--kmax", type=int, default=4, help="containment check depth")
    common(p)
    p.set_defaults(func=_cmd_lemmas)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 4 if code not in (0, None) else 0
    try:
        return args.func(args)
    except IdealSyntaxError as exc:
        print(
            f"error: {exc} (line {exc.line}, column {exc.column})",
            file=sys.stderr,
        )
        return 4
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (EpsmultError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
