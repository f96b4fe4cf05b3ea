"""Correctness checks of benchmark reports.

Every report is checked against invariants that hold whatever the program
does internally, recomputed here by brute force or closed form without
``epsmult``:

- exit code 0 (2 only for an inconclusive theorem-a row);
- every epsilon row has e_n = d! * length / n^d in lowest terms, the
  lengths match the table recorded with the benchmark, and for n <= 2
  they match a count of saturation(I^n) minus I^n over a box;
- okounkov-volume counts match an independent count at every level
  (I^n by a sweep over its staircase, saturation(I^n) = (x^(n a) y^(n b))
  in closed form), and the volume line agrees with the counts at the
  probe level;
- semigroup and sumset counts match their Ehrhart closed forms;
- lemmas reports echo the minimal generators, pass lemma 3, and give the
  grid constant recorded for the pool ideal.

For the default seed each report's bytes and exit code must also match
the digest recorded at the seed commit.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import combinations_with_replacement, product


def digest(stdout: str, code) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode("utf-8")).hexdigest()


def exponent_key(dim: int, exps) -> str:
    return f"{dim}:{','.join(str(e) for e in exps)}"


# -- independent oracles -------------------------------------------------------


def _member(gens, x) -> bool:
    return any(all(g <= v for g, v in zip(gen, x)) for gen in gens)


def power_generators(gens, n: int) -> list[tuple[int, ...]]:
    """Generators (not minimalized) of I^n: all sums of n generators."""
    return [tuple(map(sum, zip(*combo))) for combo in combinations_with_replacement(gens, n)]


def _in_saturation(gens, caps, x) -> bool:
    # Membership only sees each coordinate up to its largest generator
    # exponent, so x is in I : m^inf iff x + caps_j e_j is in I for every j.
    return all(
        _member(gens, tuple(v + caps[j] if i == j else v for i, v in enumerate(x)))
        for j in range(len(x))
    )


def brute_saturation_length(gens, n: int) -> int:
    """length(saturation(I^n) / I^n) by enumeration.

    With M the componentwise maximum of the generators of I^n, a point of
    the difference with x_j >= M_j would stay in it when x_j grows, so a
    finite difference lies inside the box prod [0, M_j).
    """
    power = power_generators(gens, n)
    caps = [max(col) for col in zip(*power)]
    return sum(
        1
        for x in product(*(range(c) for c in caps))
        if not _member(power, x) and _in_saturation(power, caps, x)
    )


def _minimal_2d(points) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for x, y in sorted(set(points)):
        if not out or y < out[-1][1]:
            out.append((x, y))
    return out


def _simplex_count_2d(staircase, cap: int) -> int:
    """Points of the ideal with x + y <= cap; `staircase` is minimal, sorted by x."""
    total, i, height = 0, 0, None
    for x in range(cap + 1):
        while i < len(staircase) and staircase[i][0] <= x:
            height = staircase[i][1]  # y falls along a sorted staircase
            i += 1
        if height is not None and height <= cap - x:
            total += cap - x - height + 1
    return total


def volume_counts_2d(gens, beta: int, nmax: int) -> tuple[list[int], list[int]]:
    """(#saturation(I^n), #I^n) in the simplex x + y <= beta*n, for n = 1..nmax.

    In two variables I = x^a y^b J with J primary to the maximal ideal, so
    saturation(I^n) = (x^(n a) y^(n b)).
    """
    base = _minimal_2d(gens)
    a, b = min(g[0] for g in base), min(g[1] for g in base)
    sat, plain, power = [], [], base
    for n in range(1, nmax + 1):
        if n > 1:
            power = _minimal_2d((p[0] + g[0], p[1] + g[1]) for p in power for g in base)
        room = beta * n - n * (a + b)
        sat.append(triangle_count(room) if room >= 0 else 0)
        plain.append(_simplex_count_2d(power, beta * n))
    return sat, plain


def minimal_generators(gens) -> list[tuple[int, ...]]:
    unique = set(map(tuple, gens))
    return sorted(
        g for g in unique if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in unique)
    )


def polygon_ehrhart(hull, n: int) -> int:
    """Lattice points of n*P for a lattice polygon P (Pick: A n^2 + B n / 2 + 1)."""
    edges = list(zip(hull, hull[1:] + hull[:1]))
    twice_area = abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in edges))
    boundary = sum(math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b in edges)
    return (twice_area * n * n + boundary * n) // 2 + 1


def polygon_area(hull) -> Fraction:
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return Fraction(abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in edges)), 2)


def triangle_count(level: int) -> int:
    """Lattice points of level * (unimodular triangle)."""
    return (level + 1) * (level + 2) // 2


# -- report checks -------------------------------------------------------------


class ReportError(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ReportError(message)


def _fraction(num: str, den: str) -> Fraction:
    n, d = int(num), int(den)
    _expect(d > 0 and math.gcd(n, d) == 1, f"{num}/{den} is not in lowest terms")
    return Fraction(n, d)


def _epsilon_rows(lines, dim: int, nmax: int) -> list[int]:
    _expect(lines[0] == "n,length,e_n(num),e_n(den)", "epsilon header")
    rows = [line.split(",") for line in lines[1 : nmax + 1]]
    _expect(len(rows) == nmax and all(len(r) == 4 for r in rows), "epsilon row count")
    lengths = []
    for n, (idx, length, num, den) in enumerate(rows, start=1):
        _expect(int(idx) == n, f"epsilon row {n} index")
        value = _fraction(num, den)
        _expect(value == Fraction(math.factorial(dim) * int(length), n**dim), f"e_{n} != d!*length/n^d")
        lengths.append(int(length))
    return lengths


def _check_lengths(op, lengths, reference) -> None:
    table = reference.get("epsilon_lengths", {})
    key = exponent_key(op.meta["dim"], op.meta["exponents"])
    _expect(key in table, f"no recorded lengths for {key}")
    _expect(lengths == table[key][: len(lengths)], f"lengths differ from the recorded table for {key}")
    for n in (1, 2):
        if n <= len(lengths):
            brute = brute_saturation_length(op.meta["generators"], n)
            _expect(lengths[n - 1] == brute, f"length at n={n} is not {brute}")


def _check_epsilon(op, lines, code, reference) -> None:
    _expect(code == 0, f"exit code {code}")
    nmax = int(op.argv[op.argv.index("--nmax") + 1])
    lengths = _epsilon_rows(lines[1:], op.meta["dim"], nmax)
    _expect(len(lines) == nmax + 2, "trailing lines")
    _check_lengths(op, lengths, reference)


def _check_theorem_a(op, lines, code, reference) -> None:
    _expect(lines[1] == "m,a_m,ratio_num,ratio_den,stabilized_at", "theorem-a header")
    row = lines[2].split(",")
    if row[1] == "inconclusive":
        _expect(code == 2 and row == ["1", "inconclusive", "", "", ""], "inconclusive row")
    else:
        _expect(code == 0, f"exit code {code}")
        _expect(row[0] == "1" and int(row[4]) >= 1, "theorem-a row")
        _expect(_fraction(row[2], row[3]) == int(row[1]), "a_1 / 1^d differs from the ratio")
    _expect(lines[3] == "# epsilon sequence", "epsilon appendix")
    nmax = int(op.argv[op.argv.index("--nmax") + 1])
    lengths = _epsilon_rows(lines[4:], op.meta["dim"], nmax)
    _expect(len(lines) == nmax + 5, "trailing lines")
    _check_lengths(op, lengths, reference)


def _count_rows(lines, nmax: int, dim: int):
    _expect(lines[0] == "n,count,estimate_num,estimate_den,exact_num,exact_den", "count header")
    rows = [line.split(",") for line in lines[1 : nmax + 1]]
    _expect(len(rows) == nmax and all(len(r) == 6 for r in rows), "count row count")
    counts = []
    for n, row in enumerate(rows, start=1):
        _expect(int(row[0]) == n, f"count row {n} index")
        count = int(row[1])
        _expect(_fraction(row[2], row[3]) == Fraction(count, n**dim), f"estimate at n={n}")
        counts.append(count)
    return counts, rows


def _check_okounkov(op, lines, code, reference) -> None:
    _expect(code == 0, f"exit code {code}")
    nmax, beta, gens = op.meta["nmax"], op.meta["beta"], op.meta["generators"]
    _expect(lines[1] == "# family: saturated_powers", "saturated section")
    sat, sat_rows = _count_rows(lines[2:], nmax, 2)
    _expect(lines[nmax + 3] == "# family: powers", "powers section")
    plain, plain_rows = _count_rows(lines[nmax + 4 :], nmax, 2)
    _expect(all(r[4] == r[5] == "" for r in sat_rows + plain_rows), "unexpected exact volume")
    want_sat, want_plain = volume_counts_2d(gens, beta, nmax)
    _expect(sat == want_sat, "saturated-power counts differ from the closed form")
    _expect(plain == want_plain, "power counts differ from the staircase sweep")
    tail = lines[2 * nmax + 5 :]
    _expect(len(tail) == 1 and tail[0].startswith("# epsilon_via_volumes: num="), "volume line")
    num, den = (part.split("=")[1] for part in tail[0][2:].split(", ")[:2])
    _expect(_fraction(num, den) == Fraction(2 * (sat[-1] - plain[-1]), nmax * nmax), "volume difference")


def _check_semigroup(op, lines, code, reference) -> None:
    _expect(code == 0, f"exit code {code}")
    meta = op.meta
    cone2 = all(sum(p) <= meta["beta"] for p in meta["points"])
    # All lattice points of a lattice polygon or box generate Z^(d+1).
    _expect(lines[1] == f"# cone2={'true' if cone2 else 'false'},cone3=true", "cone conditions")
    counts, rows = _count_rows(lines[2:], meta["nmax"], meta["dim"])
    _expect(len(lines) == meta["nmax"] + 3, "trailing lines")
    if meta["dim"] == 2:
        volume = polygon_area(meta["hull"])
        expected = [polygon_ehrhart(meta["hull"], n) for n in range(1, meta["nmax"] + 1)]
    else:
        volume = Fraction(math.prod(meta["box"]))
        expected = [math.prod(n * u + 1 for u in meta["box"]) for n in range(1, meta["nmax"] + 1)]
    _expect(counts == expected, "level counts differ from the Ehrhart closed form")
    _expect(all(_fraction(r[4], r[5]) == volume for r in rows), "exact volume")


def _check_lemmas(op, lines, code, reference) -> None:
    _expect(code == 0, f"exit code {code}")
    _expect(lines[1] == "label,ideal,lemma3_ok,lemma4_grid_c", "lemmas header")
    label, cell, ok, c = lines[2].split(",")
    gens = minimal_generators(op.meta["generators"])
    expected_cell = f"d={op.meta['dim']}:" + ";".join(" ".join(map(str, g)) for g in gens)
    _expect(label == "input" and cell == expected_cell, "echoed ideal is not the minimal generating set")
    _expect(ok == "true", "lemma 3 failed")
    recorded = reference.get("lemmas_grid_c", {})
    key = str(op.meta["pool_index"])
    _expect(key in recorded, f"no recorded grid constant for pool ideal {key}")
    want = recorded[key]
    _expect(c == ("none" if want is None else str(want)), "grid constant differs from the recorded one")
    tail = ["# lemma3: 1/1 pass"]
    if want is not None:
        tail += [f"# lemma4 grid-c = {want}", f"# lemma4: max grid-c = {want}"]
    _expect(lines[3:] == tail, "lemmas summary lines")


def _check_sumsets(op, lines, code, reference) -> None:
    _expect(code == 0, f"exit code {code}")
    expected = [
        f"{p},{k},{triangle_count(k * p)}"
        for p in op.meta["levels"]
        for k in range(1, op.meta["kmax"] + 1)
    ]
    _expect(lines == expected, "sumset counts differ from the closed form")


_CHECKS = {
    "epsilon": _check_epsilon,
    "theorem-a": _check_theorem_a,
    "okounkov-volume": _check_okounkov,
    "semigroup": _check_semigroup,
    "lemmas": _check_lemmas,
    "sumsets": _check_sumsets,
}


def check_report(op, stdout: str, code, reference: dict, digests: dict | None) -> str | None:
    """None when the report is correct, else the reason it is not.

    `digests` maps operation names to the recorded {"sha256", "exit"} of
    the default seed, or is None for any other seed.
    """
    if digests is not None:
        want = digests.get(op.name)
        if want is None:
            return "no recorded digest"
        if want != {"sha256": digest(stdout, code), "exit": code}:
            return "report differs from the recorded digest"
    try:
        _CHECKS[op.kind](op, stdout.splitlines(), code, reference)
    except (ReportError, ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
