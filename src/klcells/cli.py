"""Command-line front end.

    klcells cells SPECFILE [--cache-dir DIR] [--no-cache] [--size-cap N] [--output PATH]
    klcells klbasis SPECFILE ...
    klcells characters SPECFILE [--size-cap N] [--output PATH]
    klcells cm-rank1 --d 3 --c 1,1/2        (or --kappa 1,1,-2)
    klcells conjecture [--c-values 0,1/2,1] [--reports-dir DIR] [--no-b2]

Exit status: 0 on success, 1 on input errors (bad arguments, parse or
semantic errors), 2 on internal invariant violations.  JSON goes to
standard output (or --output) with stable key order; a warm KL cache
yields byte-identical output to a cold run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .cells import NonIntegerMultiplicity, cells_report
from .characters import character_table
from .cherednik_rank1 import (NonzeroConstantTerm, Rank1Params, cm_report,
                              inertia_and_cells)
from .conjecture import (B2_REGIME_POINTS, emit_report, replace_file,
                         run_conjecture_suite)
from .coxeter import (ConjugacyViolation, DEFAULT_SIZE_CAP, InfiniteOrTooLarge,
                      build_group)
from .hecke import BoxOverflow, HeckeAlgebra, KLTable, SlotOverflow, kl_basis
from .specfile import SpecParseError, parse_spec

CACHE_ENV = "KLCELLS_CACHE_DIR"
REPORTS_ENV = "KLCELLS_REPORTS_DIR"


class InputError(ValueError):
    """Bad command line, unreadable file, or malformed specification."""


class InternalCheckError(RuntimeError):
    """An invariant the pipeline guarantees was violated (exit status 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="klcells", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--output", help="write JSON here instead of stdout")

    def add_spec_command(name, help_text, kl_cache=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("specfile", help="input DSL file, or '-' for stdin")
        if kl_cache:
            p.add_argument("--cache-dir",
                           default=os.environ.get(CACHE_ENV),
                           help="KL basis cache directory (default: $KLCELLS_CACHE_DIR)")
            p.add_argument("--no-cache", action="store_true",
                           help="ignore any cache directory")
        p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP,
                       help="abort if the group or root system exceeds this")
        add_common(p)
        return p

    add_spec_command("cells", "left/right/two-sided KL cells and cell characters")
    add_spec_command("klbasis", "the Kazhdan-Lusztig basis table")
    add_spec_command("characters", "the exact character table of W", kl_cache=False)

    cm = sub.add_parser("cm-rank1", help="Calogero-Moser cell data for mu_d")
    cm.add_argument("--d", type=int, required=True)
    cm.add_argument("--c", help="comma-separated rationals c_1..c_{d-1}")
    cm.add_argument("--kappa", help="comma-separated rationals kappa_1..kappa_d")
    add_common(cm)

    conj = sub.add_parser("conjecture",
                          help="rank-1 vs A1 cross-check plus B2 regime reports")
    conj.add_argument("--c-values", default="0,1/2,1,3,7/5",
                      help="comma-separated rational c points for the d=2 check")
    conj.add_argument("--no-b2", action="store_true",
                      help="skip the B2 regime reports")
    conj.add_argument("--reports-dir",
                      default=os.environ.get(REPORTS_ENV, "reports"),
                      help="snapshot directory (default: $KLCELLS_REPORTS_DIR or ./reports)")
    conj.add_argument("--update-snapshots", action="store_true",
                      help="overwrite drifted snapshots instead of failing")
    add_common(conj)
    return parser


def _read_spec(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None


def _parse_rationals(text: str) -> List[Fraction]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad rational value {tok!r}") from None
    return out


def _read_cached_table(path: str, algebra: HeckeAlgebra) -> Optional[KLTable]:
    """The KL table cached at `path`, or None when there is no file or it
    does not load: an unreadable path, invalid JSON, or a document that
    `KLTable.from_json_dict` rejects (format, header, digest, invariants)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return KLTable.from_json_dict(doc, algebra)
    except (OSError, KeyError, TypeError, IndexError, ValueError, AttributeError,
            ArithmeticError, RecursionError):  # ValueError: also not JSON, not UTF-8
        return None


def _load_table(args) -> KLTable:
    spec = parse_spec(_read_spec(args.specfile))
    group = build_group(spec.matrix, gen_names=spec.gen_names,
                        size_cap=args.size_cap)
    algebra = HeckeAlgebra(group, spec.weights)
    cache_dir = None if args.no_cache else args.cache_dir
    if cache_dir is None:
        return kl_basis(algebra)
    path = os.path.join(cache_dir, f"kl_{algebra.content_key()}.json")
    table = _read_cached_table(path, algebra)
    if table is not None:
        return table
    # A missing or unreadable cache is a miss: recompute and replace it.
    # A cache that cannot be written costs a warning, never the result.
    table = kl_basis(algebra)
    text = table.to_cache_text()
    try:
        os.makedirs(cache_dir, exist_ok=True)
        replace_file(path, lambda fh: fh.write(text))
    except OSError as exc:
        sys.stderr.write(f"warning: KL cache not written: {exc}\n")
    return table


def _emit(doc: dict, output: Optional[str]) -> None:
    payload = emit_report(doc)
    if output:
        try:
            replace_file(output, lambda fh: fh.write(payload))
        except OSError as exc:
            raise InputError(f"cannot write {output!r}: {exc}") from None
    else:
        sys.stdout.write(payload)


def _run(args) -> int:
    if args.command == "cells":
        table = _load_table(args)
        chars = character_table(table.group)
        _emit(cells_report(table, chars), args.output)
    elif args.command == "klbasis":
        table = _load_table(args)
        _emit(table.to_json_dict(), args.output)
    elif args.command == "characters":
        spec = parse_spec(_read_spec(args.specfile))
        group = build_group(spec.matrix, gen_names=spec.gen_names,
                            size_cap=args.size_cap)
        _emit(character_table(group).to_json_dict(), args.output)
    elif args.command == "cm-rank1":
        if (args.c is None) == (args.kappa is None):
            raise InputError("give exactly one of --c or --kappa")
        try:
            if args.c is not None:
                params = Rank1Params.from_c(args.d, _parse_rationals(args.c))
            else:
                params = Rank1Params.from_kappa(args.d, _parse_rationals(args.kappa))
        except (ValueError, NonzeroConstantTerm) as exc:
            raise InputError(str(exc)) from None
        _emit(cm_report(inertia_and_cells(params)), args.output)
    elif args.command == "conjecture":
        c_values = _parse_rationals(args.c_values)
        if any(c < 0 for c in c_values):
            raise InputError("c values must be >= 0")
        try:
            doc = run_conjecture_suite(
                c_values,
                b2_points={} if args.no_b2 else B2_REGIME_POINTS,
                reports_dir=None if args.no_b2 else args.reports_dir,
                update_snapshots=args.update_snapshots,
            )
        except OSError as exc:
            raise InputError(f"cannot write {args.reports_dir!r}: {exc}") from None
        _emit(doc, args.output)
        drift = [e for e in doc["b2_regimes"] if e.get("snapshot") == "drift"]
        if drift:
            raise InternalCheckError(
                f"snapshot drift for {len(drift)} B2 parameter points "
                f"(rerun with --update-snapshots to accept)")
        if doc["verdict"] != "MATCH":
            raise InternalCheckError("rank-1 vs A1 comparison returned MISMATCH")
    else:
        raise InputError("missing command (try: cells, klbasis, characters, "
                         "cm-rank1, conjecture)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write("usage: klcells {cells,klbasis,characters,cm-rank1,conjecture} ...\n")
        return 1
    except (SlotOverflow, BoxOverflow) as exc:  # ValueErrors, but no fault of the input
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 2
    except (SpecParseError, ConjugacyViolation, InfiniteOrTooLarge, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (InternalCheckError, NonIntegerMultiplicity, AssertionError,
            ArithmeticError, KeyError, IndexError, TypeError) as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
