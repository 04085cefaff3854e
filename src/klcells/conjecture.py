"""Cross-checks between Calogero-Moser cell data and Kazhdan-Lusztig cells.

The one desk-computable overlap is d = 2: the cyclic group mu_2 is the
Coxeter group A1 under the unique group isomorphism, the CM parameter c
matches the weight L(s) = c, and both pipelines produce cells and
per-cell characters that can be compared exactly.

For B2 = I2(4) only the KL side is computed; reports for the five
parameter regimes (b<a, b=a, a<b<2a, b=2a, b>2a) are persisted as
snapshots keyed by the KL cache content hash so regressions across runs
are visible.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from .cells import cells_report
from .characters import CharacterTable, character_table
from .cherednik_rank1 import Rank1Params, cm_multiplicities, cm_report, inertia_and_cells
from .coxeter import CoxeterGroup, WeightFunction, build_group, named_coxeter_matrix
from .hecke import HeckeAlgebra, kl_basis

MATCH = "MATCH"
MISMATCH = "MISMATCH"

# Deterministic sample points per B2 regime; the three open regimes get
# three points each so partition constancy can be asserted.
B2_REGIME_POINTS: Dict[str, List[Tuple[Fraction, Fraction]]] = {
    "b<a": [(Fraction(2), Fraction(1)), (Fraction(3), Fraction(1)),
            (Fraction(5), Fraction(2))],
    "b=a": [(Fraction(1), Fraction(1))],
    "a<b<2a": [(Fraction(2), Fraction(3)), (Fraction(3), Fraction(4)),
               (Fraction(2), Fraction(7, 2))],
    "b=2a": [(Fraction(1), Fraction(2))],
    "b>2a": [(Fraction(1), Fraction(3)), (Fraction(1), Fraction(4)),
             (Fraction(2), Fraction(5))],
}


def classify_b2_regime(a: Fraction, b: Fraction) -> str:
    if b < a:
        return "b<a"
    if b == a:
        return "b=a"
    if b < 2 * a:
        return "a<b<2a"
    if b == 2 * a:
        return "b=2a"
    return "b>2a"


@lru_cache(maxsize=None)
def _named_group(kind: str, n: int) -> Tuple[CoxeterGroup, CharacterTable]:
    """The named Coxeter group and its character table, built once: the
    suite reads A1 for every c value and I2(4) for every B2 point."""
    group = build_group(named_coxeter_matrix(kind, n))
    return group, character_table(group)


def _det_value(j: int, elem: int) -> int:
    """det^j evaluated at s^elem in mu_2."""
    return -1 if (j * elem) % 2 else 1


def check_rank1_vs_a1(c: Fraction) -> dict:
    """Compare CM cells/multiplicities at d=2 with the KL side for A1,
    L(s) = c, under the identification s^0 <-> e, s^1 <-> s.  The KL
    left cells, two-sided cells and cell characters are read from the
    `cells` report of A1 (`cells_report`), by element name."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be >= 0 so that L(s) = c is a weight")

    # Calogero-Moser side.
    params = Rank1Params.from_c(2, [c])
    data = inertia_and_cells(params)
    mults = cm_multiplicities(data)
    cm_cells = [sorted(b) for b in data.cells]
    # Character of each CM cell on the classes (e), (s) of A1.
    cm_chars = []
    for idx in range(len(cm_cells)):
        vals = []
        for elem in (0, 1):
            vals.append(sum(mults[(idx, j)] * _det_value(j, elem) for j in (0, 1)))
        cm_chars.append(vals)

    # Kazhdan-Lusztig side.
    group, chars = _named_group("A", 1)
    table = kl_basis(HeckeAlgebra(group, WeightFunction.rational([c])))
    report = cells_report(table, chars)
    left = report["left_cells"]["blocks"]
    two_sided = report["two_sided_cells"]["blocks"]
    kl_chars = [list(cc["values"].values()) for cc in report["cell_characters"]]

    # mu_2 exponent j maps to the A1 element of the same index.
    cm_named = [[group.name(j) for j in b] for b in cm_cells]
    cm_as_sets = {frozenset(b) for b in cm_named}
    left_match = cm_as_sets == {frozenset(b) for b in left}
    two_sided_match = cm_as_sets == {frozenset(b) for b in two_sided}
    chars_match = sorted(cm_chars) == sorted(kl_chars)

    aligned = left_match
    if left_match:
        kl_by_set = {frozenset(b): v for b, v in zip(left, kl_chars)}
        aligned = all(kl_by_set[frozenset(b)] == v
                      for b, v in zip(cm_named, cm_chars))

    verdict = MATCH if (left_match and two_sided_match and chars_match) else MISMATCH
    return {
        "d": 2,
        "c": str(c),
        "cm": cm_report(data),
        "kl_left_cells": left,
        "kl_two_sided_cells": two_sided,
        "cm_cell_characters": {f"cell_{i}": v for i, v in enumerate(cm_chars)},
        "kl_cell_characters": {f"cell_{i}": v for i, v in enumerate(kl_chars)},
        "cells_verdict": MATCH if (left_match and two_sided_match) else MISMATCH,
        "characters_verdict": MATCH if chars_match else MISMATCH,
        "per_cell_character_agreement": aligned,
        "verdict": verdict,
    }


def b2_regime_report(a: Fraction, b: Fraction) -> dict:
    """KL cells, cell order and cell characters of B2 at L = (a, b)."""
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise ValueError("regime parameters must be positive")
    group, chars = _named_group("I2", 4)
    doc = cells_report(kl_basis(HeckeAlgebra(group, WeightFunction.rational([a, b]))), chars)
    doc["weights"] = {"a": str(a), "b": str(b)}
    doc["regime"] = classify_b2_regime(a, b)
    return doc


REPORT_CHUNK = 1 << 16

_CONTAINERS = (dict, list, tuple)
_string = json.encoder.encode_basestring_ascii


def _scalar(o) -> str:
    """The JSON text of a str, None, bool or int; TypeError for anything
    else, floats included."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"cannot encode {type(o).__name__} {o!r} in a report")


def _members(o) -> Tuple[Optional[List[str]], Sequence]:
    """(names, items) of a non-empty container: for a dict its encoded keys
    in sorted order (TypeError unless every key is a str) and its values,
    for a list or tuple None and its items."""
    if isinstance(o, dict):
        keys = sorted(o)
        return list(map(_string, keys)), list(map(o.__getitem__, keys))
    return None, o


def _flat(o, nl: str) -> Optional[str]:
    """The text of o at line start nl (a newline and its indent) if o is
    a scalar or a container of scalars, else None.  A container of str alone
    or of int alone is one join over a C function."""
    if not isinstance(o, _CONTAINERS):
        return _scalar(o)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    names, items = _members(o)
    kinds = set(map(type, items))
    if kinds == {str}:
        texts = map(_string, items)
    elif kinds == {int}:
        texts = map(int.__repr__, items)
    elif any(issubclass(kind, _CONTAINERS) for kind in kinds):
        return None
    else:
        texts = map(_scalar, items)
    inner = nl + "  "
    if names is None:
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    return "{" + inner + ("," + inner).join(map(": ".join, zip(names, texts))) + nl + "}"


def _nested(o, nl: str) -> Iterator[str]:
    """The text of a container o that _flat leaves to it, in fragments."""
    names, items = _members(o)
    inner = nl + "  "
    yield "[" if names is None else "{"
    for i, item in enumerate(items):
        head = ("," if i else "") + inner
        if names is not None:
            head += names[i] + ": "
        text = _flat(item, inner)
        if text is None:
            yield head
            yield from _nested(item, inner)
        else:
            yield head + text
    yield nl + ("]" if names is None else "}")


def _report_pieces(doc, chunk: int) -> Iterator[str]:
    """The canonical JSON text of doc (stable key order, indent 2, trailing
    newline) in slices of `chunk` characters, the last one shorter: a
    write-through stream then makes one system call per slice, not one per
    token, and the whole text is never held at once."""
    buf: List[str] = []
    size = 0
    flat = _flat(doc, "\n")
    for fragment in chain(_nested(doc, "\n") if flat is None else (flat,), ("\n",)):
        buf.append(fragment)
        size += len(fragment)
        if size >= chunk:
            text = "".join(buf)
            size %= chunk
            end = len(text) - size
            for i in range(0, end, chunk):
                yield text[i:i + chunk]
            buf = [text[end:]]
    if size:
        yield "".join(buf)


def write_report(doc, fh: TextIO, chunk: int = REPORT_CHUNK) -> None:
    """Write emit_report(doc) to fh, one piece of at most `chunk` characters
    at a time."""
    for piece in _report_pieces(doc, chunk):
        fh.write(piece)


def emit_report(results: dict) -> str:
    """Canonical JSON text: stable key order, trailing newline."""
    return "".join(_report_pieces(results, REPORT_CHUNK))


def replace_file(path: str, write: Callable[[TextIO], None]) -> None:
    """Write `path` through a temporary file in its directory and an atomic
    rename, so readers see the old file or the whole new one.  The file
    gets the mode a plain open() would give it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:  # closes fd whatever fails
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def snapshot_path(reports_dir: str, report: dict) -> str:
    return os.path.join(reports_dir, f"b2_{report['key']}.json")


def store_snapshot(report: dict, reports_dir: str, update: bool = False) -> str:
    """Persist a B2 report; returns 'created', 'match' or 'drift'.

    An existing snapshot with different content means the pipeline output
    changed for identical inputs; callers treat that as a regression
    unless update is requested.  One that cannot be read raises
    ValueError, `cannot read 'PATH': reason`; a failed write raises the
    OSError.
    """
    os.makedirs(reports_dir, exist_ok=True)
    path = snapshot_path(reports_dir, report)
    payload = emit_report(report)
    if os.path.exists(path) and not update:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                old = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path!r}: {exc.strerror or exc}") from None
        return "match" if old == payload else "drift"
    replace_file(path, lambda fh: fh.write(payload))
    return "created"


def run_conjecture_suite(c_values: Sequence[Fraction],
                         b2_points: Optional[Dict[str, List[Tuple[Fraction, Fraction]]]] = None,
                         reports_dir: Optional[str] = None,
                         update_snapshots: bool = False) -> dict:
    """The full cross-check: rank-1 comparisons plus B2 regime reports."""
    rank1 = [check_rank1_vs_a1(c) for c in c_values]
    points = B2_REGIME_POINTS if b2_points is None else b2_points
    b2_entries = []
    regime_partitions: Dict[str, set] = {}
    for regime, pts in points.items():
        for (a, b) in pts:
            rep = b2_regime_report(a, b)
            status = None
            if reports_dir is not None:
                status = store_snapshot(rep, reports_dir, update=update_snapshots)
            partition_key = json.dumps(rep["left_cells"]["blocks"], sort_keys=True)
            regime_partitions.setdefault(rep["regime"], set()).add(partition_key)
            entry = {"a": str(a), "b": str(b), "regime": rep["regime"],
                     "left_cell_count": len(rep["left_cells"]["blocks"]),
                     "two_sided_cell_count": len(rep["two_sided_cells"]["blocks"]),
                     "key": rep["key"]}
            if status is not None:
                entry["snapshot"] = status
            b2_entries.append(entry)
    stable = {regime: len(keys) == 1 for regime, keys in regime_partitions.items()}
    doc = {
        "rank1_vs_a1": rank1,
        "b2_regimes": b2_entries,
        "b2_partition_constant_per_regime": stable,
        "verdict": MATCH if all(r["verdict"] == MATCH for r in rank1) else MISMATCH,
    }
    return doc
