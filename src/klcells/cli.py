"""Command-line front end.

    klcells cells SPECFILE [--cache-dir DIR] [--no-cache] [--size-cap N] [--output PATH]
    klcells klbasis SPECFILE ...
    klcells characters SPECFILE [--size-cap N] [--output PATH]
    klcells cm-rank1 --d 3 --c 1,1/2        (or --kappa 1,1,-2)
    klcells conjecture [--c-values 0,1/2,1] [--reports-dir DIR] [--no-b2] [--update-snapshots]

Exit status: 0 on success, 1 on input errors (bad arguments, parse or
semantic errors) and on an output that cannot be written, 2 on
internal invariant violations.  JSON goes to standard output (or
--output) with stable key order; a warm KL cache yields byte-identical
output to a cold run.

A command ends once its output is flushed, through os._exit: the
interpreter's module teardown and final garbage collections do not run.
main(argv) only returns the status; it never ends the process.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, List, Optional, TextIO, Tuple

# Every command's module is imported here, when the CLI loads: the traced
# benchmark (perfbench/tracing.py) wraps functions only in the klcells
# modules loaded by `import klcells.cli`, and the package itself loads none.
from .cells import NonIntegerMultiplicity, cells_report
from .characters import character_table
from .cherednik_rank1 import Rank1Params, cm_report, inertia_and_cells
from .conjecture import (B2_REGIME_POINTS, replace_file, run_conjecture_suite,
                         write_report)
from .coxeter import DEFAULT_SIZE_CAP, build_group
from .hecke import HeckeAlgebra, KLTable, kl_basis
from .specfile import parse_spec

CACHE_ENV = "KLCELLS_CACHE_DIR"
REPORTS_ENV = "KLCELLS_REPORTS_DIR"


class InputError(ValueError):
    """Bad command line, unreadable input, or malformed specification."""


class InternalCheckError(RuntimeError):
    """An invariant the pipeline guarantees was violated (exit status 2)."""


class OutputError(Exception):
    """Standard output or an output path is closed or does not take the
    bytes (exit status 1); the arguments are the target and the reason."""


_OUTPUT = {"--output": ("output", str, None)}
_SPEC_OPTIONS = {"SPECFILE": ("specfile", str, None),
                 "--size-cap": ("size_cap", int, DEFAULT_SIZE_CAP), **_OUTPUT}
_KL_OPTIONS = {"--cache-dir": ("cache_dir", str, lambda: os.environ.get(CACHE_ENV)),
               "--no-cache": ("no_cache", bool, False), **_SPEC_OPTIONS}

# command -> {option: (attribute, kind, default)}: a `bool` option is a flag,
# a callable default is read at parse time, and SPECFILE is the one positional.
# An empty directory, given or from the environment, is none given.
_COMMANDS = {
    "cells": _KL_OPTIONS, "klbasis": _KL_OPTIONS, "characters": _SPEC_OPTIONS,
    "cm-rank1": {"--d": ("d", int, None), "--c": ("c", str, None),
                 "--kappa": ("kappa", str, None), **_OUTPUT},
    "conjecture": {
        "--c-values": ("c_values", str, "0,1/2,1,3,7/5"), "--no-b2": ("no_b2", bool, False),
        "--reports-dir": ("reports_dir", str, lambda: os.environ.get(REPORTS_ENV)),
        "--update-snapshots": ("update_snapshots", bool, False), **_OUTPUT},
}


def _parse_args(argv: List[str]) -> SimpleNamespace:
    """The namespace `_run` reads.  An option is `--name value` or `--name=value`,
    by its name or a unique prefix; a value after a space may not start with "--"."""
    if not argv or argv[0] not in _COMMANDS:
        raise InputError(f"unknown command {argv[0]!r}" if argv else "missing command")
    options = _COMMANDS[argv[0]]
    args = SimpleNamespace(command=argv[0], **{
        a: d() if callable(d) else d for a, _, d in options.values()})
    rest = iter(argv[1:])
    for tok in rest:
        if tok == "-" or not tok.startswith("-"):
            if "SPECFILE" not in options or args.specfile is not None:
                raise InputError(f"unexpected argument {tok!r}")
            args.specfile = tok
            continue
        name, eq, value = tok.partition("=")
        names = [o for o in options if o.startswith(name) and name.startswith("--")]
        if len(names) != 1:
            raise InputError(f"unknown option {name!r} for {args.command}")
        attr, kind, _ = options[names[0]]
        if kind is bool and eq:
            raise InputError(f"{names[0]} takes no value")
        if kind is not bool and not eq:
            value = next(rest, "--")
            if value.startswith("--"):
                raise InputError(f"{names[0]} needs a value")
        try:
            setattr(args, attr, True if kind is bool else kind(value))
        except ValueError:
            raise InputError(f"{names[0]} needs an integer, not {value!r}") from None
    if "SPECFILE" in options and args.specfile is None:
        raise InputError(f"{args.command} needs a SPECFILE (or - for stdin)")
    if getattr(args, "size_cap", 1) < 1:
        raise InputError("--size-cap must be at least 1")
    return args


def _read_spec(path: str) -> str:
    """The text of SPECFILE, or of standard input for `-`: its bytes
    decoded strictly as UTF-8, whatever the locale."""
    if path == "-":
        if sys.stdin is None:  # Python's stdin when fd 0 was closed at start-up
            raise InputError("cannot read standard input: it is closed")
        source, data = "standard input", sys.stdin.buffer.read()
    else:
        source = repr(path)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {source}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {source}: {exc}") from None


def _parse_rationals(text: str) -> List[Fraction]:
    """The comma-separated rationals of `text`; a list of blanks names none,
    and a blank beside a value is a stray comma."""
    toks = [tok.strip() for tok in text.split(",")]
    if not any(toks):
        return []
    out = []
    for tok in toks:
        if not tok:
            raise InputError(f"stray comma in {text!r}")
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


def _store_table(algebra: HeckeAlgebra, path: str) -> KLTable:
    """The KL table of `algebra`, computed, and written to the cache at
    `path`.  A cache that cannot be written costs a warning, never the
    result."""
    table = kl_basis(algebra)
    text = table.to_cache_text()
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        replace_file(path, lambda fh: fh.write(text))
    except OSError as exc:
        sys.stderr.write(f"warning: KL cache not written: {exc}\n")
    return table


def _load_table(args) -> Tuple[KLTable, Optional[str]]:
    """(table, path): the KL table of the spec, and the cache file it was
    read from, None when it was computed."""
    spec = parse_spec(_read_spec(args.specfile))
    if spec.weights is None:
        raise ValueError(f"missing weight for {', '.join(spec.gen_names)}")
    group = build_group(spec.matrix, gen_names=spec.gen_names, size_cap=args.size_cap)
    algebra = HeckeAlgebra(group, spec.weights)
    cache_dir = None if args.no_cache else args.cache_dir
    if not cache_dir:
        return kl_basis(algebra), None
    path = os.path.join(cache_dir, f"kl_{algebra.content_key()}.json")
    table = _read_cached_table(path, algebra)
    if table is not None:
        return table, path
    # A missing or unreadable cache is a miss: recompute and replace it.
    return _store_table(algebra, path), None


def _cells(args) -> dict:
    """The `cells` report.  A loaded table whose cell characters do not
    decompose is a miss (a re-signed edit can pass every check of the
    loader): it is recomputed, the cache replaced, with one warning, and
    the report made again.  Nothing is printed before it returns."""
    table, path = _load_table(args)
    chars = character_table(table.group)
    try:
        return cells_report(table, chars)
    except NonIntegerMultiplicity as exc:
        if path is None:
            raise
        sys.stderr.write(f"warning: KL cache {path!r} recomputed: {exc}\n")
    table = _store_table(table.algebra, path)
    return cells_report(table, chars)


def _write_stdout(write: Callable[[TextIO], None]) -> None:
    """`write(sys.stdout)`, then flush it, so that a closed stdout, a full
    device or a pipe whose reader quit fails here, inside `main`."""
    if sys.stdout is None:  # Python's stdout when fd 1 was closed at start-up
        raise OutputError("standard output", "it is closed")
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        raise OutputError("standard output", exc) from None


def _output_failed(target: str, reason) -> int:
    sys.stderr.write(f"error: cannot write {target}: {reason}\n")
    return 1


def _emit(doc: dict, output: Optional[str]) -> None:
    if output:
        try:
            replace_file(output, lambda fh: write_report(doc, fh))
        except OSError as exc:  # strerror leaves out the temporary file's name
            raise OutputError(repr(output), exc.strerror or exc) from None
    else:
        _write_stdout(lambda fh: write_report(doc, fh))


def _run(args) -> int:
    if args.command == "cells":
        _emit(_cells(args), args.output)
    elif args.command == "klbasis":
        _emit(_load_table(args)[0].to_json_dict(), args.output)
    elif args.command == "characters":
        spec = parse_spec(_read_spec(args.specfile))
        group = build_group(spec.matrix, gen_names=spec.gen_names, size_cap=args.size_cap)
        _emit(character_table(group).to_json_dict(), args.output)
    elif args.command == "cm-rank1":
        if args.d is None or (args.c is None) == (args.kappa is None):
            raise InputError("give --d and exactly one of --c or --kappa")
        try:
            if args.c is not None:
                params = Rank1Params.from_c(args.d, _parse_rationals(args.c))
            else:
                params = Rank1Params.from_kappa(args.d, _parse_rationals(args.kappa))
        except ValueError as exc:
            raise InputError(str(exc)) from None
        _emit(cm_report(inertia_and_cells(params)), args.output)
    else:  # conjecture
        reports_dir = args.reports_dir or "reports"
        c_values = _parse_rationals(args.c_values)
        if not c_values:
            raise InputError("--c-values names no c value")
        if any(c < 0 for c in c_values):
            raise InputError("c values must be >= 0")
        try:
            doc = run_conjecture_suite(
                c_values,
                b2_points={} if args.no_b2 else B2_REGIME_POINTS,
                reports_dir=None if args.no_b2 else reports_dir,
                update_snapshots=args.update_snapshots,
            )
        except OSError as exc:
            raise OutputError(repr(reports_dir), exc.strerror or exc) from None
        _emit(doc, args.output)
        drift = [e for e in doc["b2_regimes"] if e.get("snapshot") == "drift"]
        if drift:
            raise InternalCheckError(
                f"snapshot drift for {len(drift)} B2 parameter points "
                f"(rerun with --update-snapshots to accept)")
        if doc["verdict"] != "MATCH":
            raise InternalCheckError("rank-1 vs A1 comparison returned MISMATCH")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command in `argv` (default: sys.argv[1:]) and return its exit
    status, with its output flushed.  It never ends the process."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        if any(t == "-h" or len(t) > 2 and "--help".startswith(t) for t in argv):
            _write_stdout(lambda fh: fh.write(__doc__))  # -h, --help or a prefix, anywhere
            return 0
        return _run(_parse_args(argv))
    except OutputError as exc:
        return _output_failed(*exc.args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write("usage: klcells {cells,klbasis,characters,cm-rank1,conjecture} ...\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (InternalCheckError, AssertionError, ArithmeticError, KeyError,
            IndexError, TypeError) as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 2


def entry() -> None:
    """The `klcells` console script and `python -m klcells.cli`: run `main`,
    flush the standard streams and end the process with `os._exit`.

    Nothing is left to do once the output is out, so the interpreter's
    teardown (every module's, and the final garbage collections over the
    heap) is skipped: klcells registers no atexit handler and leaves no file
    open.  An exception out of `main` ends the process the usual way."""
    status = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:  # the bytes of a failed write, which main reported
        status = status or _output_failed("standard output", exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    entry()
