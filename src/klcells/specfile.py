"""The small input DSL for groups and weight functions.

    group I2 4          # or: A n, B n, D n, or "group matrix" followed by
    L s = 1             #     a rank line and upper-triangle rows
    L t = 3/2

Lex-mode weights use basis vectors e_i of Z^n, 1 <= i <= rank:

    group B 2
    L lex s = e_1
    L lex t = e_2

Every generator gets exactly one weight line, or none does: a spec with
no weight line has weights None, for `characters`, which reads none.
Rational and lex styles cannot be mixed.  Parsing reports syntax errors
with line and column; semantic checks are delegated to validate_weights.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .coxeter import (CoxeterMatrix, WeightFunction, default_gen_names,
                      named_coxeter_matrix, validate_weights)
from .ordered_coeffs import Frozen


class SpecParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class ParsedSpec(Frozen):
    matrix: CoxeterMatrix
    gen_names: Tuple[str, ...]
    weights: Optional[WeightFunction]


def _meaningful_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            out.append((lineno, stripped))
    return out


_RATIONAL_RE = re.compile(r"^-?\d+(/0*[1-9]\d*)?$")  # no zero denominator
_UNIT_RE = re.compile(r"^e_(\d+)$")


def parse_spec(text: str) -> ParsedSpec:
    lines = _meaningful_lines(text)
    if not lines:
        raise SpecParseError(1, 1, "empty specification")
    pos = 0

    def need_line(what: str) -> Tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise SpecParseError(last + 1, 1, f"expected {what}")
        entry = lines[pos]
        pos += 1
        return entry

    lineno, line = need_line("a 'group' line")
    tokens = line.split()
    if tokens[0] != "group":
        raise SpecParseError(lineno, 1, "specification must start with 'group'")
    if len(tokens) == 3 and tokens[1] in ("A", "B", "D", "I2"):
        try:
            n = int(tokens[2])
        except ValueError:
            raise SpecParseError(lineno, line.index(tokens[2]) + 1,
                                 f"bad rank/order {tokens[2]!r}") from None
        try:
            matrix = named_coxeter_matrix(tokens[1], n)
        except ValueError as exc:
            raise SpecParseError(lineno, 7, str(exc)) from None
    elif len(tokens) == 2 and tokens[1] == "matrix":
        lineno, line = need_line("the rank")
        try:
            rank = int(line.strip())
        except ValueError:
            raise SpecParseError(lineno, 1, f"bad rank {line.strip()!r}") from None
        if rank < 1:
            raise SpecParseError(lineno, 1, "rank must be >= 1")
        rows = []
        for i in range(rank - 1):
            lineno, line = need_line(f"upper-triangle row {i + 1}")
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError:
                raise SpecParseError(lineno, 1, f"bad matrix row {line!r}") from None
            if len(row) != rank - 1 - i:
                raise SpecParseError(lineno, 1,
                                     f"expected {rank - 1 - i} entries, got {len(row)}")
            rows.append(row)
        try:
            matrix = CoxeterMatrix.from_upper_triangle(rank, rows)
        except ValueError as exc:
            raise SpecParseError(lineno, 1, str(exc)) from None
    else:
        raise SpecParseError(lineno, len("group ") + 1,
                             "expected 'A n', 'B n', 'D n', 'I2 m' or 'matrix'")

    gen_names = default_gen_names(matrix.rank)
    gen_index = {nm: i for i, nm in enumerate(gen_names)}

    rational: dict = {}
    lex_units: dict = {}
    while pos < len(lines):
        lineno, line = need_line("a weight line")
        tokens = line.split()
        if tokens[0] != "L":
            raise SpecParseError(lineno, 1, f"expected a weight line, got {line!r}")
        is_lex = len(tokens) >= 2 and tokens[1] == "lex"
        rest = tokens[2:] if is_lex else tokens[1:]
        if len(rest) != 3 or rest[1] != "=":
            raise SpecParseError(lineno, len(line) + 1,
                                 "weight lines look like 'L s = 1' or 'L lex s = e_1'")
        gen, value = rest[0], rest[2]
        if gen not in gen_index:
            raise SpecParseError(lineno, line.index(gen) + 1,
                                 f"unknown generator {gen!r}")
        g = gen_index[gen]
        if g in rational or g in lex_units:
            raise SpecParseError(lineno, 1, f"duplicate weight for {gen!r}")
        col = line.rindex(value) + 1
        if is_lex:
            if value == "0":
                lex_units[g] = None
            else:
                m = _UNIT_RE.match(value)
                if m is None:
                    raise SpecParseError(lineno, col,
                                         f"lex weights are 'e_i' or '0', got {value!r}")
                idx = int(m.group(1))
                if not 1 <= idx <= matrix.rank:
                    # Z^idx grows every exponent vector: an index above the
                    # rank adds nothing but time, quadratic in idx.
                    raise SpecParseError(lineno, col, f"basis index must be between 1 "
                                                      f"and the rank, {matrix.rank}")
                lex_units[g] = idx
        else:
            if not _RATIONAL_RE.match(value):
                raise SpecParseError(lineno, col, f"bad rational weight {value!r}")
            rational[g] = Fraction(value)

    if rational and lex_units:
        raise SpecParseError(lines[-1][0], 1,
                             "rational and lex weight lines cannot be mixed")
    assigned = rational or lex_units
    if not assigned:
        return ParsedSpec(matrix, gen_names, None)
    missing = [gen_names[g] for g in range(matrix.rank) if g not in assigned]
    if missing:
        last = lines[-1][0]
        raise SpecParseError(last, 1, f"missing weight for {', '.join(missing)}")

    if lex_units:
        arity = max((idx for idx in lex_units.values() if idx is not None), default=1)
        weights = WeightFunction.from_lex_units(
            [lex_units[g] for g in range(matrix.rank)], arity)
    else:
        weights = WeightFunction.rational([rational[g] for g in range(matrix.rank)])

    validate_weights(matrix, weights, gen_names)
    return ParsedSpec(matrix, gen_names, weights)
