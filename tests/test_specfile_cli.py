import errno
import importlib.util
import io
import json
import os
import pkgutil
import shutil
import stat
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import klcells
from api_helpers import c_rows, fresh_python, orbit_representatives
from klcells.cells import NonIntegerMultiplicity
from klcells.cli import entry, main
from klcells.conjecture import B2_REGIME_POINTS
from klcells.coxeter import ConjugacyViolation, CoxeterMatrix, InfiniteOrTooLarge, build_group
from klcells.hecke import HeckeAlgebra, KLTable, kl_basis, payload_digest
from klcells.ordered_coeffs import LEX, LEX_BOUND, RATIONAL
from klcells.specfile import SpecParseError, parse_spec


def test_parse_named_group():
    spec = parse_spec("group I2 4\nL s = 1\nL t = 1\n")
    assert spec.matrix.entries == ((1, 4), (4, 1))
    assert spec.weights.mode == RATIONAL
    assert spec.weights[0].value == (Fraction(1),)


def test_parse_comments_and_blanks():
    text = """
    # a comment

    group A 2   # trailing comment
    L s = 1
    L t = 1
    """
    spec = parse_spec(text)
    assert spec.matrix.entries == ((1, 3), (3, 1))


def test_parse_matrix_form():
    text = "group matrix\n3\n3 2\n3\nL s = 1\nL t = 1\nL u = 1\n"
    spec = parse_spec(text)
    assert spec.matrix.entries == ((1, 3, 2), (3, 1, 3), (2, 3, 1))


def test_parse_rank_one_matrix():
    spec = parse_spec("group matrix\n1\nL s = 5/2\n")
    assert spec.matrix.rank == 1
    assert spec.weights[0].value == (Fraction(5, 2),)


def test_parse_lex_weights():
    spec = parse_spec("group B 2\nL lex s = e_1\nL lex t = e_2\n")
    assert spec.weights.mode == LEX
    assert spec.weights[0].value == (1, 0)
    assert spec.weights[1].value == (0, 1)
    spec0 = parse_spec("group B 2\nL lex s = e_1\nL lex t = 0\n")
    assert spec0.weights[1].value == (0,) * spec0.weights.arity


def test_lex_index_above_rank_is_a_parse_error(tmp_path, capsys):
    # Each unit index above the rank would lengthen every exponent vector
    # and cost time quadratic in the index, for no new weight function.
    with pytest.raises(SpecParseError) as err:
        parse_spec("group B 2\nL lex s = e_1\nL lex t = e_3\n")
    assert (err.value.line, err.value.col) == (3, 11)
    with pytest.raises(SpecParseError):
        parse_spec("group B 2\nL lex s = e_0\nL lex t = e_1\n")
    assert parse_spec("group B 2\nL lex s = e_2\nL lex t = e_2\n").weights.arity == 2
    spec = write(tmp_path / "b2.spec", "group B 2\nL lex s = e_1\nL lex t = e_60000\n")
    code, out, err = run_cli(capsys, "cells", spec, "--no-cache")
    assert (code, out) == (1, "")
    assert "line 3, col 11" in err and "rank, 2" in err


def test_semantic_error_conjugate_generators():
    with pytest.raises(ConjugacyViolation):
        parse_spec("group A 2\nL s = 1\nL t = 2\n")


def test_syntax_error_location():
    with pytest.raises(SpecParseError) as err:
        parse_spec("group B 2\nL s = 1\nL t\n")
    assert err.value.line == 3
    with pytest.raises(SpecParseError) as err:
        parse_spec("group Q 2\nL s = 1\n")
    assert err.value.line == 1
    with pytest.raises(SpecParseError) as err:
        parse_spec("group A 2\nL s = 1\nL s = 1\nL t = 1\n")
    assert err.value.line == 3
    with pytest.raises(SpecParseError) as err:
        parse_spec("group A 2\nL s = 1\n")  # missing weight for t
    assert "missing weight" in str(err.value)
    with pytest.raises(SpecParseError):
        parse_spec("group A 2\nL s = 1\nL lex t = e_1\n")  # mixed styles
    with pytest.raises(SpecParseError):
        parse_spec("")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_cells_a2(tmp_path, capsys):
    spec = write(tmp_path / "a2.spec", "group A 2\nL s = 1\nL t = 1\n")
    code, out, err = run_cli(capsys, "cells", spec, "--no-cache")
    assert code == 0, err
    doc = json.loads(out)
    assert len(doc["left_cells"]["blocks"]) == 4


def test_cli_cm_rank1(tmp_path, capsys):
    code, out, err = run_cli(capsys, "cm-rank1", "--d", "2", "--c", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["cells"] == [["s^0"], ["s^1"]]
    code, _, err = run_cli(capsys, "cm-rank1", "--d", "3", "--kappa", "1,1,-2")
    assert code == 0
    # both or neither of --c/--kappa is an input error
    code, _, err = run_cli(capsys, "cm-rank1", "--d", "2")
    assert code == 1
    code, _, err = run_cli(capsys, "cm-rank1", "--d", "2", "--c", "1", "--kappa", "0,0")
    assert code == 1
    # kappa off the sum-zero slice
    code, _, err = run_cli(capsys, "cm-rank1", "--d", "2", "--kappa", "1,1")
    assert code == 1 and "zero" in err
    # a c vector of the wrong length is refused before Q(zeta_d) is built
    code, _, err = run_cli(capsys, "cm-rank1", "--d", "100000", "--c", "1")
    assert code == 1 and "99999 entries" in err


def test_cli_unknown_command(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


def exit_status(capsys, *argv):
    """`run_cli`, counting a SystemExit raised by `main` as its exit status."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [],                                            # no command
    ["frobnicate"],                                # unknown command
    ["cells", "{spec}", "--frobnicate"],           # unknown option
    ["cells", "{spec}", "-x"],
    ["characters", "{spec}", "--cache-dir", "d"],  # an option of another command
    ["cells", "{spec}", "--output"],               # missing value
    ["klbasis", "{spec}", "--size-cap"],
    ["cells", "{spec}", "--no-cache=yes"],         # a flag takes no value
    ["cells", "{spec}", "--size-cap", "many"],     # not an integer
    ["characters", "{spec}", "--size-cap=1.5"],
    ["cm-rank1", "--d", "three", "--c", "1"],
    ["cells"],                                     # missing SPECFILE
    ["klbasis", "--no-cache"],
    ["cells", "{spec}", "{spec}"],                 # extra positional
    ["cm-rank1", "{spec}", "--d", "2", "--c", "1"],
    ["conjecture", "extra", "--no-b2"],
    ["cm-rank1", "--c", "1"],                      # cm-rank1 without --d
    ["cm-rank1", "--d", "1", "--c", "1"],          # d below 2
    ["cm-rank1", "--d", "0", "--c", "1"],
    ["characters", "{spec}", "--no-cache"],        # characters reads no KL cache
])
def test_argument_errors_exit_1_with_usage(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    spec = write(tmp_path / "a1.spec", "group A 1\nL s = 1\n")
    code, out, err = exit_status(capsys, *[a.replace("{spec}", spec) for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "usage" in err
    assert sorted(os.listdir(tmp_path)) == ["a1.spec"]


def test_generators_past_eight_are_named_s1_s2_and_on(tmp_path, capsys):
    """A1^9 has more generators than the letters s, ..., z: they are
    s1, ..., s9, and a weight for s is an error.  Only `klbasis` runs on
    it here: `cells` and `characters` take tens of seconds, as its 512
    elements are 512 classes."""
    names = [f"s{i}" for i in range(1, 10)]
    matrix = "group matrix\n9\n" + "".join(" ".join("2" * k) + "\n" for k in range(8, 0, -1))
    spec = write(tmp_path / "a1x9.spec", matrix + "".join(f"L {g} = 1\n" for g in names))
    code, out, err = run_cli(capsys, "klbasis", spec, "--no-cache")
    assert (code, err) == (0, "")
    assert json.loads(out)["generators"] == names
    bad = write(tmp_path / "bad.spec", matrix + "L s = 1\n")
    code, out, err = run_cli(capsys, "klbasis", bad, "--no-cache")
    assert (code, out) == (1, "") and "unknown generator 's'" in err


def test_option_value_may_follow_an_equals_sign(tmp_path, capsys):
    spec = write(tmp_path / "b2.spec", "group B 2\nL s = 1\nL t = 2\n")
    for spaced, joined in [
            (["cells", spec, "--no-cache", "--size-cap", "100"],
             ["cells", spec, "--no-cache", "--size-cap=100"]),
            (["cm-rank1", "--d", "3", "--c", "1,1/2"], ["cm-rank1", "--d=3", "--c=1,1/2"]),
            (["conjecture", "--c-values", "1/2", "--no-b2"],
             ["conjecture", "--c-values=1/2", "--no-b2"])]:
        code, out, err = run_cli(capsys, *spaced)
        assert (code, err) == (0, "") and out
        assert run_cli(capsys, *joined) == (0, out, "")


def test_options_may_be_abbreviated(tmp_path, capsys):
    spec = write(tmp_path / "b2.spec", "group B 2\nL s = 1\nL t = 2\n")
    code, out, _ = run_cli(capsys, "cells", spec, "--no-cache")
    assert code == 0
    cache = tmp_path / "cache"
    # --no-c is --no-cache: the cache directory is never made.
    assert run_cli(capsys, "cells", spec, "--cache", str(cache), "--no-c") == (0, out, "")
    assert not cache.exists()
    # --cache is --cache-dir, and a SPECFILE may follow the options.
    assert run_cli(capsys, "cells", "--cache", str(cache), spec) == (0, out, "")
    assert [f[:3] for f in os.listdir(cache)] == ["kl_"]


def test_reports_dir_env_var(tmp_path, capsys, monkeypatch):
    reports = tmp_path / "envreports"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("KLCELLS_REPORTS_DIR", str(reports))
    code, _, err = run_cli(capsys, "conjecture", "--c-values", "1")
    assert code == 0, err
    assert len(os.listdir(reports)) == sum(len(v) for v in B2_REGIME_POINTS.values())
    assert sorted(os.listdir(tmp_path)) == ["envreports"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["cells", "--help"],
                                  ["cm-rank1", "-h"], ["klbasis", "x.spec", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = exit_status(capsys, *argv)
    assert (code, err) == (0, "")
    assert "klcells" in out and "cells" in out


def test_a_value_may_not_start_with_two_dashes(tmp_path, capsys, monkeypatch):
    """`--cache-dir --no-cache` is a missing value, not a directory named
    '--no-cache'."""
    monkeypatch.chdir(tmp_path)
    spec = write(tmp_path / "a1.spec", "group A 1\nL s = 1\n")
    code, out, err = run_cli(capsys, "cells", spec, "--cache-dir", "--no-cache")
    assert (code, out) == (1, "") and "usage" in err
    assert sorted(os.listdir(tmp_path)) == ["a1.spec"]


@pytest.mark.parametrize("option, value", [("--kappa", "-2,1,1"), ("--c", "-1,1/2")])
def test_value_may_start_with_a_minus(capsys, option, value):
    """A kappa vector sums to zero, so one entry is negative, often the
    first; the token after --kappa or --c is its value."""
    code, out, err = run_cli(capsys, "cm-rank1", "--d", "3", option, value)
    assert (code, err) == (0, "") and out
    assert run_cli(capsys, "cm-rank1", "--d", "3", f"{option}={value}") == (0, out, "")


@pytest.mark.parametrize("command", ["cells", "klbasis", "characters"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_size_cap_below_1_is_an_input_error(tmp_path, capsys, command, cap):
    spec = write(tmp_path / "b3.spec", "group B 3\nL s = 1\nL t = 1\nL u = 1\n")
    code, out, err = run_cli(capsys, command, spec, "--size-cap", cap)
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "error: --size-cap must be at least 1"
    assert "usage" in err


def test_cli_input_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "cells", str(tmp_path / "missing.spec"))
    assert code == 1
    bad = write(tmp_path / "bad.spec", "group A 2\nL s = 1\nL t = 2\n")
    code, _, err = run_cli(capsys, "cells", bad)
    assert code == 1 and "conjugate" in err
    syn = write(tmp_path / "syn.spec", "group B 2\nL s = 1\nL t\n")
    code, _, err = run_cli(capsys, "cells", syn)
    assert code == 1 and "line 3" in err
    zero = write(tmp_path / "zero.spec", "group B 2\nL s = 1/0\nL t = 1\n")
    code, _, err = run_cli(capsys, "cells", zero)
    assert code == 1 and "line 2, col 7" in err


def test_cli_size_cap(tmp_path, capsys):
    spec = write(tmp_path / "a3.spec", "group A 3\nL s = 1\nL t = 1\nL u = 1\n")
    code, _, err = run_cli(capsys, "cells", spec, "--no-cache", "--size-cap", "5")
    assert code == 1 and "exceeds" in err
    # Q(zeta_N) with N = 2 * 99999999 is refused before it is built.
    big = write(tmp_path / "i2.spec", "group I2 99999999\nL s = 1\nL t = 1\n")
    code, out, err = run_cli(capsys, "cells", big, "--no-cache")
    assert (code, out) == (1, "") and "size cap" in err


def test_cli_output_flag(tmp_path, capsys):
    spec = write(tmp_path / "a1.spec", "group A 1\nL s = 1\n")
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "klbasis", spec, "--no-cache",
                           "--output", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert "c_basis" in doc


def test_cli_output_is_atomic_and_equals_stdout(tmp_path, capsys, monkeypatch):
    spec = write(tmp_path / "b2.spec", "group B 2\nL s = 1\nL t = 2\n")
    code, out, _ = run_cli(capsys, "cells", spec, "--no-cache")
    assert code == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out_path = out_dir / "cells.json"
    out_path.write_text("stale", encoding="utf-8")
    code, printed, _ = run_cli(capsys, "cells", spec, "--no-cache",
                               "--output", str(out_path))
    assert (code, printed) == (0, "")
    assert out_path.read_bytes() == out.encode("utf-8")
    assert [p.name for p in out_dir.iterdir()] == ["cells.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(out_path.stat().st_mode) == 0o666 & ~umask
    # A write that fails before the rename leaves the old file whole and
    # no temporary file behind.
    out_path.write_text("stale", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, _, err = run_cli(capsys, "cells", spec, "--no-cache",
                           "--output", str(out_path))
    assert code == 1 and "cannot write" in err and "disk full" in err
    assert out_path.read_text(encoding="utf-8") == "stale"
    assert [p.name for p in out_dir.iterdir()] == ["cells.json"]
    # An output path that cannot be written is an input error.
    code, _, err = run_cli(capsys, "cells", spec, "--no-cache",
                           "--output", str(tmp_path / "missing" / "cells.json"))
    assert code == 1 and "cannot write" in err


def run_broken_cells(tmp_path, capsys, monkeypatch, exc):
    """`klcells cells` on A1 with `cells_report` raising `exc`."""
    spec = write(tmp_path / "a1.spec", "group A 1\nL s = 1\n")

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("klcells.cli.cells_report", broken)
    return run_cli(capsys, "cells", spec, "--no-cache")


@pytest.mark.parametrize("exc", [KeyError("w"), IndexError("list index out of range"),
                                 TypeError("unsupported operand"),
                                 NonIntegerMultiplicity("multiplicity 1/2")])
def test_stray_internal_errors_exit_2(tmp_path, capsys, monkeypatch, exc):
    code, out, err = run_broken_cells(tmp_path, capsys, monkeypatch, exc)
    assert (code, out) == (2, "")
    assert err == f"internal invariant violation: {exc}\n"


@pytest.mark.parametrize("exc", [SpecParseError(2, 1, "unknown generator 'x'"),
                                 ConjugacyViolation("s", "t"),
                                 InfiniteOrTooLarge("group order exceeds the size cap")])
def test_input_errors_from_the_library_exit_1(tmp_path, capsys, monkeypatch, exc):
    code, out, err = run_broken_cells(tmp_path, capsys, monkeypatch, exc)
    assert (code, out) == (1, "")
    assert err == f"error: {exc}\n"


def test_cache_hit_is_byte_identical(tmp_path, capsys):
    spec = write(tmp_path / "b2.spec", "group B 2\nL s = 1\nL t = 2\n")
    cache = str(tmp_path / "cache")
    code, cold, _ = run_cli(capsys, "cells", spec, "--cache-dir", cache)
    assert code == 0
    cached_files = os.listdir(cache)
    assert len(cached_files) == 1 and cached_files[0].startswith("kl_")
    code, warm, _ = run_cli(capsys, "cells", spec, "--cache-dir", cache)
    assert code == 0
    assert warm == cold
    # klbasis output too
    code, cold_b, _ = run_cli(capsys, "klbasis", spec, "--cache-dir", cache)
    code, warm_b, _ = run_cli(capsys, "klbasis", spec, "--cache-dir", cache)
    assert warm_b == cold_b


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    spec = write(tmp_path / "a1.spec", "group A 1\nL s = 1\n")
    cache = tmp_path / "envcache"
    monkeypatch.setenv("KLCELLS_CACHE_DIR", str(cache))
    code, _, _ = run_cli(capsys, "klbasis", spec)
    assert code == 0
    assert any(f.startswith("kl_") for f in os.listdir(cache))


@pytest.mark.parametrize("command", ["cells", "klbasis"])
@pytest.mark.parametrize("env, args", [("", []), (None, ["--cache-dir", ""]),
                                       (None, ["--cache-dir="])])
def test_empty_cache_dir_is_no_cache(tmp_path, capsys, monkeypatch, command, env, args):
    """An empty cache directory, set as KLCELLS_CACHE_DIR= or given as
    --cache-dir "", is none: the --no-cache bytes, no warning, no file."""
    spec = write(tmp_path / "b2.spec", "group B 2\nL s = 1\nL t = 2\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.delenv("KLCELLS_CACHE_DIR", raising=False)
    expected = run_cli(capsys, command, spec, "--no-cache")
    assert expected[0] == 0 and expected[2] == ""
    if env is not None:
        monkeypatch.setenv("KLCELLS_CACHE_DIR", env)
    assert run_cli(capsys, command, spec, *args) == expected
    assert os.listdir(work) == []


@pytest.mark.parametrize("env, args", [("", []), (None, ["--reports-dir", ""])])
def test_empty_reports_dir_is_the_default(tmp_path, capsys, monkeypatch, env, args):
    """An empty reports directory, set as KLCELLS_REPORTS_DIR= or given as
    --reports-dir "", is none: the snapshots go to ./reports."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KLCELLS_REPORTS_DIR", raising=False)
    if env is not None:
        monkeypatch.setenv("KLCELLS_REPORTS_DIR", env)
    code, out, err = run_cli(capsys, "conjecture", "--c-values", "1", *args)
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "MATCH"
    assert os.listdir(tmp_path) == ["reports"]
    assert len(os.listdir(tmp_path / "reports")) == sum(len(v) for v in B2_REGIME_POINTS.values())


def test_cli_characters(tmp_path, capsys):
    spec = write(tmp_path / "b2.spec", "group B 2\nL s = 1\nL t = 1\n")
    code, out, _ = run_cli(capsys, "characters", spec)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["degrees"]) == [1, 1, 1, 1, 2]
    # characters reads no KL table, so it takes no cache options.
    code, out, err = run_cli(capsys, "characters", spec, "--no-cache")
    assert (code, out) == (1, "") and "--no-cache" in err


# Weights for s and t of A6 but none for the other generators.
PARTIAL_SPEC = "group A 6\nL s = 1\nL t = 1\n"
PARTIAL_ERROR = "error: line 3, col 1: missing weight for u, v, w, x\n"


def test_characters_needs_no_weight_line(tmp_path, capsys):
    """`characters` reads no weights: on a spec with no weight line it
    prints what it prints with weights.  A spec that gives some weights
    but not all is an error for it too."""
    weightless = write(tmp_path / "a6.spec", "group A 6\n")
    weighted = write(tmp_path / "a6w.spec",
                     "group A 6\n" + "".join(f"L {g} = 1\n" for g in "stuvwx"))
    code, out, err = run_cli(capsys, "characters", weightless)
    assert (code, err) == (0, "")
    assert run_cli(capsys, "characters", weighted) == (0, out, "")
    partial = write(tmp_path / "partial.spec", PARTIAL_SPEC)
    assert run_cli(capsys, "characters", partial) == (1, "", PARTIAL_ERROR)


@pytest.mark.parametrize("command", ["cells", "klbasis"])
def test_kl_commands_need_every_weight(command, tmp_path, capsys):
    """`cells` and `klbasis` on a spec with no weight line exit 1 with one
    line naming every generator, and on a spec missing some weights with
    the parser's error, which names the missing ones; nothing is printed
    to stdout and no KL cache is written."""
    cache = str(tmp_path / "cache")
    weightless = write(tmp_path / "a6.spec", "group A 6\n")
    assert run_cli(capsys, command, weightless, "--cache-dir", cache) == (
        1, "", "error: missing weight for s, t, u, v, w, x\n")
    partial = write(tmp_path / "partial.spec", PARTIAL_SPEC)
    assert run_cli(capsys, command, partial, "--cache-dir", cache) == (1, "", PARTIAL_ERROR)
    assert not os.path.exists(cache)


def test_cli_conjecture(tmp_path, capsys):
    reports = str(tmp_path / "reports")
    code, out, err = run_cli(capsys, "conjecture", "--c-values", "0,1",
                             "--reports-dir", reports)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["verdict"] == "MATCH"
    assert len(os.listdir(reports)) == sum(len(v) for v in B2_REGIME_POINTS.values())
    # second run: all snapshots must match
    code, out, _ = run_cli(capsys, "conjecture", "--c-values", "0,1",
                           "--reports-dir", reports)
    assert code == 0
    doc = json.loads(out)
    assert all(e["snapshot"] == "match" for e in doc["b2_regimes"])


def test_snapshots_get_the_output_file_mode(tmp_path, capsys):
    reports = tmp_path / "reports"
    code, _, err = run_cli(capsys, "conjecture", "--c-values", "1",
                           "--reports-dir", str(reports))
    assert code == 0, err
    umask = os.umask(0)
    os.umask(umask)
    names = sorted(p.name for p in reports.iterdir())
    assert len(names) == sum(len(v) for v in B2_REGIME_POINTS.values())
    assert all(n.startswith("b2_") and n.endswith(".json") for n in names)
    for p in reports.iterdir():
        assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~umask, p.name


def test_unusable_reports_dir_is_an_input_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "conjecture", "--c-values", "1",
                             "--reports-dir", str(blocker / "sub"))
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: cannot write {str(blocker / 'sub')!r}: ")


def test_unreadable_snapshot_is_a_read_error(tmp_path, capsys):
    """A snapshot that exists but cannot be read (here a directory in its
    place) is one `error: cannot read` line naming it, exit 1, not a write
    error of the reports directory."""
    reports = tmp_path / "rep"
    assert run_cli(capsys, "conjecture", "--c-values", "1", "--reports-dir", str(reports))[0] == 0
    snapshots = sorted(reports.iterdir())
    for path in snapshots:
        path.unlink()
        path.mkdir()
    code, out, err = run_cli(capsys, "conjecture", "--c-values", "1",
                             "--reports-dir", str(reports))
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: cannot read ") and line.endswith(": Is a directory")
    assert line[len("error: cannot read "):-len(": Is a directory")] in {
        repr(str(p)) for p in snapshots}


@pytest.mark.parametrize("c_values", ["", ","])
def test_conjecture_over_no_c_value_is_an_input_error(capsys, c_values):
    code, out, err = run_cli(capsys, "conjecture", "--c-values", c_values, "--no-b2")
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: --c-values names no c value"]


def stray_commas(values):
    """The comma-separated `values` with one blank token added: after the
    first value, at the end, at the start, and as a lone space."""
    first, rest = values.split(",", 1)
    return [f"{first},,{rest}", f"{values},", f",{values}", f"{first}, ,{rest}"]


@pytest.mark.parametrize("args", [
    *(("cm-rank1", "--d", "3", "--c", text) for text in stray_commas("1,1/2")),
    *(("cm-rank1", "--d", "3", "--kappa", text) for text in stray_commas("1,1,-2")),
    *(("conjecture", "--no-b2", "--c-values", text) for text in stray_commas("1,1/2")),
])
def test_stray_comma_is_an_input_error(capsys, args):
    """A blank beside a value is refused, not skipped: each list here is
    valid with its blank dropped, and `--c 1,,1/2` used to run as
    `--c 1,1/2`."""
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: stray comma in {args[-1]!r}"]


def test_cli_conjecture_no_b2(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--c-values", "1/2", "--no-b2")
    assert code == 0
    doc = json.loads(out)
    assert doc["b2_regimes"] == []
    assert doc["verdict"] == "MATCH"


def resign(doc):
    """`doc` with a `digest` that matches its (edited) payload."""
    doc["digest"] = payload_digest(doc)
    return json.dumps(doc)


def assert_resigned_edit_is_recomputed(tmp_path, capsys, spec_text, edit):
    """With `edit` applied to the KL cache document of `spec_text` and the
    file re-signed, `klbasis` recomputes: it prints the --no-cache bytes
    with exit 0 and rewrites the file."""
    spec = write(tmp_path / "edited.spec", spec_text)
    code, cold, _ = run_cli(capsys, "klbasis", spec, "--no-cache")
    assert code == 0
    cache = tmp_path / "cache"
    code, _, _ = run_cli(capsys, "klbasis", spec, "--cache-dir", str(cache))
    assert code == 0
    [path] = cache.iterdir()
    good = path.read_text(encoding="utf-8")
    doc = json.loads(good)
    edit(doc)
    path.write_text(resign(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "klbasis", spec, "--cache-dir", str(cache))
    assert (code, err) == (0, "")
    assert out == cold
    assert path.read_text(encoding="utf-8") == good


def element_keys(doc):
    """{name: key} for the elements of the group in the header of the KL
    cache document `doc`, which keys element w by its ShortLex index, str(w)."""
    group = build_group(CoxeterMatrix.from_rows(doc["matrix"]),
                        gen_names=tuple(doc["generators"]))
    return {group.name(w): str(w) for w in range(len(group))}


def rekey(doc, key):
    """`doc` with every element key of `c_basis` and `cs_products` mapped
    through `key`."""
    def coeffs(obj):
        return {key[y]: text for y, text in obj.items()}
    out = dict(doc)
    out["c_basis"] = {key[w]: coeffs(row) for w, row in doc["c_basis"].items()}
    out["cs_products"] = {f"{s}|{key[u]}": coeffs(obj)
                          for k, obj in doc["cs_products"].items() for s, u in [k.split("|")]}
    return out


def set_first_stored(doc, prefix, text):
    """Set p_(y,w) to `text` for the first stored y != w, by name, of the
    first row w whose name starts with `prefix`."""
    name = {k: nm for nm, k in element_keys(doc).items()}
    w, y = next((w, y) for w, row in sorted(doc["c_basis"].items(), key=lambda r: name[r[0]])
                if name[w].startswith(prefix) for y in sorted(row, key=name.get) if y != w)
    doc["c_basis"][w][y] = text


def test_lex_cache_past_the_coordinate_bound_is_recomputed(tmp_path, capsys):
    """A re-signed lex cache whose stored coefficient keeps the lex
    coordinate bound, but whose derived coefficients v^(-L(u)) p_(z,w)
    would pass it, is a miss."""
    # s, of weight e_1, is in L(w) for w = s..., so p_(sy,w) is derived
    # as v^(-e_1) p_(y,w) from each stored p_(y,w), y != w.
    assert_resigned_edit_is_recomputed(
        tmp_path, capsys, "group B 3\nL lex s = e_1\nL lex t = e_1\nL lex u = e_2\n",
        lambda doc: set_first_stored(doc, "s", f"1*v^(-{LEX_BOUND},0)"))


B3_LEX = "group B 3\nL lex s = e_1\nL lex t = e_1\nL lex u = e_2\n"
B3_RATIONAL = "group B 3\nL s = 1\nL t = 1\nL u = 3/2\n"


@pytest.mark.parametrize("spec_text, prefix, exponent", [
    (B3_LEX, "", f"-1,-{LEX_BOUND}"),
    (B3_RATIONAL, "", "-1000"),
    # On the edge of the box, L(w0) + max_s L(s) per coordinate: (7, 4)
    # and 12.  In a row w = s..., v^(-L(s)) times it is derived.
    (B3_LEX, "s", "-7,0"),
    (B3_RATIONAL, "s", "-12"),
], ids=["b3lex", "b3", "b3lex-derived", "b3-derived"])
def test_cache_past_the_slot_box_is_recomputed(tmp_path, capsys, spec_text, prefix, exponent):
    """A re-signed cache with a stored exponent outside the slot box, which
    holds every exponent of a KL table, is a miss, also when the exponent
    keeps the lex coordinate bound, and so is one with a stored exponent
    in the box that derives one outside it."""
    assert_resigned_edit_is_recomputed(
        tmp_path, capsys, spec_text,
        lambda doc: set_first_stored(doc, prefix, f"1*v^({exponent})"))


@pytest.mark.parametrize("weights", ["L s = 1\nL t = 1\nL u = 3/2\n",
                                     "L lex s = e_1\nL lex t = e_1\nL lex u = e_2\n"],
                         ids=["b3", "b3lex"])
def test_warm_cells_derives_no_row(tmp_path, capsys, monkeypatch, weights):
    """`cells` reads only the corrections: on a warm cache it checks the
    stored rows but derives none, nor builds the coset lists a derived row
    is read along, and prints the --no-cache bytes.  Warm
    `klbasis`, which derives every row, prints its --no-cache bytes too."""
    spec = write(tmp_path / "b3.spec", "group B 3\n" + weights)
    cache = str(tmp_path / "cache")
    expected = {}
    for cmd in ("cells", "klbasis"):
        code, expected[cmd], _ = run_cli(capsys, cmd, spec, "--no-cache")
        assert code == 0
    assert run_cli(capsys, "cells", spec, "--cache-dir", cache)[0] == 0

    def fail(*args):
        raise AssertionError("no KL work expected")

    monkeypatch.setattr("klcells.cli.kl_basis", fail)  # the warm runs are cache hits
    with monkeypatch.context() as patch:
        patch.setattr(KLTable, "_row", fail)
        patch.setattr(HeckeAlgebra, "_coset_lists", fail)
        assert run_cli(capsys, "cells", spec, "--cache-dir", cache) == (0, expected["cells"], "")
    assert run_cli(capsys, "klbasis", spec, "--cache-dir", cache) == (0, expected["klbasis"], "")


def test_unreadable_cache_is_recomputed(tmp_path, capsys):
    spec = write(tmp_path / "b2.spec", "group B 2\nL s = 1\nL t = 2\n")
    code, cold, _ = run_cli(capsys, "cells", spec, "--no-cache")
    assert code == 0
    cache = tmp_path / "cache"
    code, _, _ = run_cli(capsys, "cells", spec, "--cache-dir", str(cache))
    assert code == 0
    [path] = cache.iterdir()
    good = path.read_text(encoding="utf-8")
    # The cache keys element w by its ShortLex index, str(w): ix["s t"] == "3".
    ix = element_keys(json.loads(good))
    foreign = json.loads(good)
    foreign["key"] = "0" * 64
    malformed = json.loads(good)
    malformed["c_basis"][ix["e"]] = "1*v^(0)"
    # An exponent off the algebra's grid: weights 1 and 2 put every
    # exponent in Z, so v^(1/3) cannot come from this table.
    off_grid = json.loads(good)
    off_grid["c_basis"][ix["s t s"]][ix["s"]] = "1*v^(1/3)"
    zero_den = json.loads(good)
    zero_den["c_basis"][ix["s t s"]][ix["s"]] = "1*v^(1/0)"
    # The edits above keep a stale digest; those below the cases dict
    # re-sign the edited payload, so that the parse and invariant checks
    # are the ones to fail.  A format-1 cache held the indented full
    # table that `klbasis` prints; a format-2 cache held every row and
    # the full C_s C_w table, and its loader took the full rows; a
    # format-3 cache held what format 4 holds, keyed by element names; a
    # format-4 cache held every left-extremal coefficient, which format 5
    # holds only when it is right-extremal too; a format-5 cache held what
    # format 6 holds and p_(w,w) = 1 in every row (with these unequal
    # weights its C_s C_w products are format 6's); a format-6 cache held
    # the rows of every w with index(w) <= index(w^-1), which with these
    # weights (no diagram automorphism keeps L) are format 7's.
    code, format1, _ = run_cli(capsys, "klbasis", spec, "--no-cache")
    assert code == 0
    format2 = json.loads(format1)
    format2["format"] = 2
    format5 = json.loads(good)
    format5["format"] = 5
    for w, row in format5["c_basis"].items():
        row[w] = "1*v^(0)"
    format3 = rekey(format5, {k: nm for nm, k in ix.items()})
    format3["format"] = 3
    format4 = json.loads(json.dumps(format5))
    format4["format"] = 4
    for w, y, text in (("s t", "s", "1*v^(-2)"), ("s t s", "s t", "1*v^(-1)"),
                       ("t s t", "t s", "1*v^(-2)")):
        format4["c_basis"][ix[w]][ix[y]] = text
    format6 = json.loads(good)
    format6["format"] = 6
    wrong_format = json.loads(good)
    wrong_format["format"] = 1
    stale = json.loads(good)
    stale["c_basis"][ix["s t s"]][ix["s"]] = "1*v^(-3)"
    cases = {"{": "{", "{}": "{}", "[]": "[]", "truncated": good[: len(good) // 2],
             "nested too deep": "[" * 100000,
             "foreign": json.dumps(foreign), "malformed": json.dumps(malformed),
             "off grid": json.dumps(off_grid), "1/0": json.dumps(zero_den),
             "format 1": format1, "format 2": resign(format2), "format 3": resign(format3),
             "format 4": resign(format4), "format 5": resign(format5),
             "format 6": resign(format6),
             "wrong format": resign(wrong_format), "stale digest": json.dumps(stale)}
    # Only the key the writer writes names an element: element 5 ("s t s",
    # a stored row and the ascent pair "t|5") keyed in any other way, in
    # every place it is a key, is unknown.  "012" and "8" = |W| are past
    # the group, "05" is padded as "012" is, and "s t s" is format 3's key.
    for bad in ("012", "05", "+5", " 5", "5.0", str(len(ix)), "s t s"):
        cases[f"element key {bad!r}"] = resign(rekey(json.loads(good), {
            k: bad if k == ix["s t s"] else k for k in ix.values()}))
    # Row "s t": L(st) = {s} and R(st) = {t}, so it stores only
    # p_(st,st) = 1, which is not written: p_(t,st) = v^-1 is derived on
    # the left, p_(s,st) = v^-2 on the right and p_(e,st) = v^-3 on both.
    # Row "s t s": L = R = {s}, so p_(s,sts) = v^-3 + v^-1 is stored and
    # p_(e,sts) = v^-1 p_(s,sts) is derived.  Row "t s" is not stored: it is row "s t" inverted.
    # Ascent pair "t|s t s" (su = s t s t) holds the correction
    # m_(t s) = v + v^-1.
    e, s, t, st, ts, sts, tst, stst = (ix[nm] for nm in (
        "e", "s", "t", "s t", "t s", "s t s", "t s t", "s t s t"))
    for label, edit in [
            ("signed off grid", lambda d: d["c_basis"][sts].update({s: "1*v^(-1/3)"})),
            ("signed 1/0", lambda d: d["c_basis"][sts].update({s: "1*v^(-1/0)"})),
            ("p_ww != 1", lambda d: d["c_basis"][st].update({st: "1*v^(-1)"})),
            ("listed p_ww", lambda d: d["c_basis"][st].update({st: "1*v^(0)"})),
            ("non-negative lower exponent", lambda d: d["c_basis"][sts].update({s: "1*v^(1)"})),
            ("zero stored coefficient", lambda d: d["c_basis"][sts].update({s: "0"})),
            ("longer element in C_w", lambda d: d["c_basis"][t].update({tst: "1*v^(-1)"})),
            ("missing stored row", lambda d: d["c_basis"].pop(st)),
            ("derived row disagrees", lambda d: d["c_basis"].update({ts: {t: "1*v^(-2)"}})),
            ("non-extremal disagrees", lambda d: d["c_basis"][st].update({t: "1*v^(-2)"})),
            ("right-derived disagrees", lambda d: d["c_basis"][st].update({s: "1*v^(-1)"})),
            # The loader takes only what the writer writes: a row it does
            # not know, a header of another algebra, a field it does not
            # write, and the entries it derives, even at their derived values.
            ("unknown row name", lambda d: d["c_basis"].update({"q r": {"zz": "garbage"}})),
            ("wrong matrix", lambda d: d.update(matrix=[[1, 7], [7, 1]])),
            ("wrong weights", lambda d: d["weights"].update(s="99", t="-5")),
            ("extra top-level field", lambda d: d.update(comment="")),
            ("derived row", lambda d: d["c_basis"].update({ts: {}})),
            ("non-extremal coefficient", lambda d: d["c_basis"][st].update({t: "1*v^(-1)"})),
            ("right-derived coefficient", lambda d: d["c_basis"][st].update({s: "1*v^(-2)"})),
            ("C_su term", lambda d: d["cs_products"][f"t|{sts}"].update({stst: "1*v^(0)"})),
            ("unknown product element", lambda d: d["cs_products"][f"s|{e}"].update(q="1*v^(0)")),
            ("missing ascent key", lambda d: d["cs_products"].pop(f"t|{st}")),
            ("unknown product generator",
             lambda d: d["cs_products"].update({f"q|{e}": d["cs_products"].pop(f"s|{e}")})),
            ("key on a descent pair",
             lambda d: d["cs_products"].update({f"s|{s}": {s: "1*v^(-1) + 1*v^(1)"}})),
            ("C_su term disagrees", lambda d: d["cs_products"][f"s|{e}"].update({s: "1*v^(1)"})),
            ("zero correction", lambda d: d["cs_products"][f"t|{sts}"].update({t: "0"})),
            ("correction not bar-invariant",
             lambda d: d["cs_products"][f"t|{sts}"].update({t: "1*v^(-1)"})),
            ("correction at sy > y",
             lambda d: d["cs_products"][f"t|{sts}"].update({s: "1*v^(-1) + 1*v^(1)"})),
            ("correction not shorter than su",
             lambda d: d["cs_products"][f"t|{s}"].update({tst: "1*v^(0)"}))]:
        doc = json.loads(good)
        edit(doc)
        cases[label] = resign(doc)
    for label, broken in cases.items():
        path.write_text(broken, encoding="utf-8")
        code, out, err = run_cli(capsys, "cells", spec, "--cache-dir", str(cache))
        assert (code, err) == (0, ""), label
        assert out == cold, label
        # The bad file was replaced by a good one, atomically.
        assert path.read_text(encoding="utf-8") == good, label
        assert [p.name for p in cache.iterdir()] == [path.name]

    # Re-signing alone keeps the file valid: the digest covers the
    # canonical payload, not the bytes.
    path.write_text(resign(json.loads(good)), encoding="utf-8")
    code, out, err = run_cli(capsys, "cells", spec, "--cache-dir", str(cache))
    assert (code, err, out) == (0, "", cold)
    assert path.read_text(encoding="utf-8") == resign(json.loads(good))
    for label, text in [("B3 3/2", "L s = 1\nL t = 1\nL u = 3/2\n"),
                        ("B3 zero", "L s = 1\nL t = 1\nL u = 0\n"),
                        ("B3 lex", "L lex s = e_1\nL lex t = e_1\nL lex u = e_2\n")]:
        b3_spec = write(tmp_path / "b3.spec", "group B 3\n" + text)
        b3_cache = tmp_path / "b3-cache"
        code, b3_cold, _ = run_cli(capsys, "cells", b3_spec, "--cache-dir", str(b3_cache))
        assert code == 0, label
        [b3_path] = b3_cache.iterdir()
        spaced = resign(json.loads(b3_path.read_text(encoding="utf-8")))
        b3_path.write_text(spaced, encoding="utf-8")
        code, out, err = run_cli(capsys, "cells", b3_spec, "--cache-dir", str(b3_cache))
        assert (code, err, out) == (0, "", b3_cold), label
        assert b3_path.read_text(encoding="utf-8") == spaced, label
        b3_path.unlink()

    # A lex vector of the wrong arity is off the grid too.
    lex_spec = write(tmp_path / "b2lex.spec", "group B 2\nL lex s = e_1\nL lex t = e_2\n")
    code, lex_cold, _ = run_cli(capsys, "cells", lex_spec, "--cache-dir", str(cache))
    assert code == 0
    [lex_path] = [p for p in cache.iterdir() if p.name != path.name]
    lex_good = lex_path.read_text(encoding="utf-8")
    wrong_arity = json.loads(lex_good)
    wrong_arity["c_basis"][ix["s"]][ix["e"]] = "1*v^(-1,0,0)"
    for broken in (json.dumps(wrong_arity), resign(wrong_arity)):
        lex_path.write_text(broken, encoding="utf-8")
        code, out, err = run_cli(capsys, "cells", lex_spec, "--cache-dir", str(cache))
        assert (code, err, out) == (0, "", lex_cold)
        assert lex_path.read_text(encoding="utf-8") == lex_good

    # L(t) = 0: C_t C_w = C_tw is derived, so the cache holds no "t|..." key.
    zero_spec = write(tmp_path / "b2zero.spec", "group B 2\nL s = 1\nL t = 0\n")
    code, zero_cold, _ = run_cli(capsys, "cells", zero_spec, "--cache-dir", str(cache))
    assert code == 0
    [zero_path] = [p for p in cache.iterdir() if p.name not in (path.name, lex_path.name)]
    zero_good = zero_path.read_text(encoding="utf-8")
    zero_key = json.loads(zero_good)
    zero_key["cs_products"][f"t|{ix['e']}"] = {ix["t"]: "1*v^(0)"}
    zero_path.write_text(resign(zero_key), encoding="utf-8")
    code, out, err = run_cli(capsys, "cells", zero_spec, "--cache-dir", str(cache))
    assert (code, err, out) == (0, "", zero_cold)
    assert zero_path.read_text(encoding="utf-8") == zero_good


D4_EQUAL = "group D 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n"


def test_cache_rows_are_the_orbit_representatives(tmp_path, capsys):
    """A KL cache holds one row for each orbit of W under w -> w^-1 and the
    diagram automorphisms, that of its smallest index: 43 of the 192
    elements of D4, whose automorphisms are those of triality.  A
    re-signed D4 file that adds the row of another element, at its true
    value or empty, drops the row of a representative, empty or not, or
    moves a row to another element of its orbit is recomputed: the
    --no-cache stdout, exit 0, nothing on stderr, and the file replaced.
    So is the format-6 file, which wrote the rows of the 118 w with
    index(w) <= index(w^-1)."""
    spec = write(tmp_path / "d4.spec", D4_EQUAL)
    code, cold, _ = run_cli(capsys, "cells", spec, "--no-cache")
    assert code == 0
    cache = tmp_path / "cache"
    assert run_cli(capsys, "cells", spec, "--cache-dir", str(cache))[0] == 0
    [path] = cache.iterdir()
    good = path.read_text(encoding="utf-8")
    doc = json.loads(good)
    parsed = parse_spec(D4_EQUAL)
    W = build_group(parsed.matrix, gen_names=parsed.gen_names)
    table = kl_basis(HeckeAlgebra(W, parsed.weights))
    basis = c_rows(table)
    reps = orbit_representatives(W, parsed.weights)
    assert sorted(doc["c_basis"], key=int) == [str(r) for r in reps] and len(reps) == 43
    # Rows format 6 wrote but format 7 does not, with and without a
    # stored coefficient, and representatives' rows with and without.
    others = [w for w in range(len(W)) if w not in reps and W.inv(w) >= w]
    full = next(w for w in others if extremal_part(table, basis[w], w))
    empty = next(w for w in others if not extremal_part(table, basis[w], w))
    kept = next(r for r in reps if doc["c_basis"][str(r)])
    bare = next(r for r in reps if not doc["c_basis"][str(r)])
    moved = table.algebra.orbits[kept][0][0]  # the first element walked from `kept`
    cases = {"format 6": cache_text(format6_doc(table))}
    for label, edit in [
            ("added row", lambda rows: rows.update(
                {str(full): extremal_part(table, basis[full], full)})),
            ("added empty row", lambda rows: rows.update({str(empty): {}})),
            ("dropped row", lambda rows: rows.pop(str(kept))),
            ("dropped empty row", lambda rows: rows.pop(str(bare))),
            ("moved row", lambda rows: rows.update(
                {str(moved): extremal_part(table, basis[moved], moved)}) or rows.pop(str(kept)))]:
        edited = json.loads(good)
        edit(edited["c_basis"])
        cases[label] = resign(edited)
    for label, broken in cases.items():
        path.write_text(broken, encoding="utf-8")
        assert run_cli(capsys, "cells", spec, "--cache-dir", str(cache)) == (0, cold, ""), label
        assert path.read_text(encoding="utf-8") == good, label


def extremal_part(table, row, w):
    """{y: text} for the coefficients p_(y,w), y != w, of C_w = `row` that
    are extremal on both sides: sy < y for every s in L(w) and ys < y for
    every s in R(w) with L(s) > 0, keyed by index."""
    W, positive = table.group, table.algebra.positive
    left = [s for s in W.left_descents(w) if positive[s]]
    right = [s for s in W.left_descents(W.inv(w)) if positive[s]]
    return {str(y): c.render() for y, c in row.items()
            if y != w and all(W.lmul_gen(s, y) < y for s in left)
            and all(W.mul(y, W.generator(s)) < y for s in right)}


def cache_text(doc):
    """The KL cache file of the payload `doc`, as the writer renders it."""
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return f'{body[:-1]},"digest":"{payload_digest(doc)}"}}'


def format6_doc(table):
    """The payload of the KL cache file that format 6 wrote for `table`:
    the extremal part of each row C_w with index(w) <= index(w^-1), which
    format 7 keeps only for the orbit representatives, and format 7's
    products."""
    W, basis = table.group, c_rows(table)
    doc = json.loads(table.to_cache_text())
    del doc["digest"]
    doc["format"] = 6
    doc["c_basis"] = {str(w): extremal_part(table, basis[w], w)
                      for w in range(len(W)) if W.inv(w) >= w}
    return doc


def format5_text(table):
    """The KL cache file that format 5 wrote for `table`: format 6's rows
    with p_(w,w) = 1 in each, and the corrections of every ascent pair,
    `{}` for none."""
    W = table.group
    old = format6_doc(table)
    old["format"] = 5
    old["c_basis"] = {w: {**row, w: "1*v^(0)"} for w, row in old["c_basis"].items()}
    old["cs_products"] = {
        f"{W.gen_names[s]}|{u}": {str(y): m.render()
                                  for y, m in sorted(table.cs_product_in_c(s, u).items())
                                  if y != W.lmul_gen(s, u)}
        for s in range(W.rank) for u in range(len(W))
        if table.algebra.positive[s] and W.lmul_gen(s, u) > u}
    return cache_text(old)


def test_equal_parameter_cache_holds_no_product(tmp_path, capsys, monkeypatch):
    """With equal parameters the cache holds no C_s C_w product and no
    row its p_(w,w): `cells` derives the corrections from the rows.  A
    listed p_(w,w), any product entry, even at its true value, and a
    deleted row are each recomputed, re-signed, and the file replaced.  A
    format-5 file is replaced once, then hit, and the hit reads no row
    and builds no coset list; so is a format-6 file, which holds the rows
    of every w with index(w) <= index(w^-1)."""
    text = "group B 2\nL s = 1\nL t = 1\n"
    spec = write(tmp_path / "b2.spec", text)
    code, cold, _ = run_cli(capsys, "cells", spec, "--no-cache")
    assert code == 0
    cache = tmp_path / "cache"
    assert run_cli(capsys, "cells", spec, "--cache-dir", str(cache))[0] == 0
    [path] = cache.iterdir()
    good = path.read_text(encoding="utf-8")
    doc = json.loads(good)
    assert doc["cs_products"] == {}
    assert not [w for w, row in doc["c_basis"].items() if w in row]
    parsed = parse_spec(text)
    table = kl_basis(HeckeAlgebra(build_group(parsed.matrix, gen_names=parsed.gen_names),
                                  parsed.weights))
    old = format5_text(table)
    products = json.loads(old)["cs_products"]
    ix = element_keys(doc)
    e, s, ts, sts = (ix[nm] for nm in ("e", "s", "t s", "s t s"))
    # C_s C_ts = C_sts + C_s: mu(s, ts) = 1, the v^-1 coefficient of p_(s,ts).
    assert products[f"s|{ts}"] == {s: "1*v^(0)"}
    cases = {}
    for label, edit in [
            ("listed p_ww", lambda d: d["c_basis"][sts].update({sts: "1*v^(0)"})),
            ("listed p_ee", lambda d: d["c_basis"][e].update({e: "1*v^(0)"})),
            ("empty product", lambda d: d["cs_products"].update({f"s|{e}": {}})),
            ("product at its value", lambda d: d["cs_products"].update(
                {f"s|{ts}": products[f"s|{ts}"]})),
            ("every product at its value", lambda d: d["cs_products"].update(products)),
            ("products not a dict", lambda d: d.update(cs_products=[])),
            ("deleted empty row", lambda d: d["c_basis"].pop(e)),
            ("deleted row", lambda d: d["c_basis"].pop(sts))]:
        edited = json.loads(good)
        edit(edited)
        cases[label] = resign(edited)
    for label, broken in cases.items():
        path.write_text(broken, encoding="utf-8")
        assert run_cli(capsys, "cells", spec, "--cache-dir", str(cache)) == (0, cold, ""), label
        assert path.read_text(encoding="utf-8") == good, label

    def fail(*args):
        raise AssertionError("no KL work expected")

    format6 = cache_text(format6_doc(table))
    assert len(json.loads(format6)["c_basis"]) == 7 > len(doc["c_basis"]) == 5
    for label, text in (("format 5", old), ("format 6", format6)):
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "cells", spec, "--cache-dir", str(cache)) == (0, cold, ""), label
        assert path.read_text(encoding="utf-8") == good, label
    inode = path.stat().st_ino
    monkeypatch.setattr("klcells.cli.kl_basis", fail)
    monkeypatch.setattr(KLTable, "_row", fail)
    monkeypatch.setattr(HeckeAlgebra, "_coset_lists", fail)
    assert run_cli(capsys, "cells", spec, "--cache-dir", str(cache)) == (0, cold, "")
    assert path.stat().st_ino == inode


def test_unusable_cache_dir_is_a_miss(tmp_path, capsys):
    spec = write(tmp_path / "a1.spec", "group A 1\nL s = 1\n")
    code, cold, _ = run_cli(capsys, "cells", spec, "--no-cache")
    assert code == 0
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory", encoding="utf-8")
    code, out, err = run_cli(capsys, "cells", spec, "--cache-dir", str(blocker / "sub"))
    assert code == 0
    assert out == cold
    [line] = err.splitlines()
    assert line.startswith("warning: ")


D4 = "group D 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n"


def run_main(*argv):
    """(status, stdout, stderr) of main(argv), run in process; for
    hypothesis tests, which take no function-scoped capsys."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module", params=["d4", "b3"])
def warm_cells(request, tmp_path_factory):
    """(argv, path, good, cold) for `cells` on D4 or B3 with L = (1,1,3/2)
    through a KL cache: the command, the cache file, its bytes, and the
    --no-cache output."""
    tmp = tmp_path_factory.mktemp(request.param)
    spec = write(tmp / "spec", {"d4": D4, "b3": B3_RATIONAL}[request.param])
    code, cold, _ = run_main("cells", spec, "--no-cache")
    assert code == 0
    argv = ("cells", spec, "--cache-dir", str(tmp / "cache"))
    assert run_main(*argv) == (0, cold, "")
    [path] = (tmp / "cache").iterdir()
    return argv, path, path.read_text(encoding="utf-8"), cold


def json_slots(obj):
    """(dict, key) for every entry of every dict in the JSON value `obj`."""
    out = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.append((obj, key))
            out += json_slots(value)
    elif isinstance(obj, list):
        for value in obj:
            out += json_slots(value)
    return out


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_unsigned_cache_edit_is_a_silent_miss(warm_cells, data):
    """A KL cache file with a byte flipped, cut short, or with one key or
    value of its document changed, and its digest not recomputed, is a
    miss: `cells` prints the --no-cache bytes with exit 0 and nothing on
    stderr, and writes the file anew."""
    argv, path, good, cold = warm_cells
    raw = good.encode()
    kind = data.draw(st.sampled_from(["flip", "truncate", "key", "value"]))
    if kind == "flip":
        i = data.draw(st.integers(0, len(raw) - 1))
        edited = raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255))]) + raw[i + 1:]
    elif kind == "truncate":
        edited = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        doc = json.loads(good)
        parent, key = data.draw(st.sampled_from(json_slots(doc)))
        if kind == "key":
            new = data.draw(st.one_of(st.sampled_from(sorted(parent)), st.text(max_size=3)))
            assume(new not in parent)
            parent[new] = parent.pop(key)
        else:
            new = data.draw(st.one_of(st.sampled_from([v for d, k in json_slots(doc)
                                                       for v in [d[k]] if not isinstance(v, dict)]),
                                      st.sampled_from([None, 0, "", {}, []])))
            assume(new != parent[key])
            parent[key] = new
        edited = json.dumps(doc).encode()
    path.write_bytes(edited)
    assert run_main(*argv) == (0, cold, "")
    assert path.read_text(encoding="utf-8") == good


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_resigned_cache_edit_never_exits_2(warm_cells, data):
    """A KL cache file with one stored coefficient or correction swapped
    for another text of the file, a digit of it doubled, or it dropped,
    and the digest recomputed, may print other cells (the loader does not
    promise to catch it), but `cells` exits 0.  Where a cell character
    does not decompose, the table is recomputed: one warning line, the
    --no-cache bytes and the file written anew."""
    argv, path, good, cold = warm_cells
    doc = json.loads(good)
    slots = [(row, y) for section in ("c_basis", "cs_products")
             for row in doc[section].values() for y in row]
    row, y = data.draw(st.sampled_from(slots))
    kind = data.draw(st.sampled_from(["swap", "digit", "drop"]))
    if kind == "swap":
        row[y] = data.draw(st.sampled_from(sorted({r[k] for r, k in slots})))
    elif kind == "digit":
        i = data.draw(st.sampled_from([i for i, ch in enumerate(row[y]) if ch.isdigit()]))
        row[y] = row[y][:i] + row[y][i] + row[y][i:]
    else:
        del row[y]
    path.write_text(resign(doc), encoding="utf-8")
    code, out, err = run_main(*argv)
    assert code == 0
    if err:
        [line] = err.splitlines()
        assert line.startswith("warning: ")
        assert out == cold and path.read_text(encoding="utf-8") == good


def test_cache_whose_cell_character_does_not_decompose_is_recomputed(tmp_path, capsys):
    """A re-signed D4 cache with p_(y,w) = v^-1 in place of v^-2 at
    w = s t u v t (index 58), y = s u t (index 17), passes every check of the
    loader, but a cell character built from it does not decompose: `cells`
    warns once, recomputes and replaces the file, and prints the
    --no-cache bytes with exit 0."""
    spec = write(tmp_path / "d4.spec", D4)
    code, cold, _ = run_cli(capsys, "cells", spec, "--no-cache")
    assert code == 0
    cache = tmp_path / "cache"
    assert run_cli(capsys, "cells", spec, "--cache-dir", str(cache)) == (0, cold, "")
    [path] = cache.iterdir()
    good = path.read_text(encoding="utf-8")
    doc = json.loads(good)
    assert doc["c_basis"]["58"]["17"] == "1*v^(-2)"
    doc["c_basis"]["58"]["17"] = "1*v^(-1)"
    path.write_text(resign(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "cells", spec, "--cache-dir", str(cache))
    assert (code, out) == (0, cold)
    [line] = err.splitlines()
    assert line.startswith(f"warning: KL cache {str(path)!r} recomputed: cell [")
    assert path.read_text(encoding="utf-8") == good


def test_fresh_table_whose_cell_character_does_not_decompose_exits_2(tmp_path, capsys,
                                                                     monkeypatch):
    """Only a loaded table is recomputed: a table computed on a cache miss,
    or recomputed after a loaded one failed, that gives a cell character
    that does not decompose is a fault of the program (exit 2)."""
    spec = write(tmp_path / "a1.spec", "group A 1\nL s = 1\n")
    cache = str(tmp_path / "cache")
    assert run_cli(capsys, "cells", spec, "--cache-dir", cache)[0] == 0

    def broken(*args):
        raise NonIntegerMultiplicity("cell [0] decomposes with non-integer multiplicities")

    monkeypatch.setattr("klcells.cli.cells_report", broken)
    code, out, err = run_cli(capsys, "cells", spec, "--cache-dir", cache)
    warning, violation = err.splitlines()
    assert (code, out) == (2, "") and warning.startswith("warning: KL cache ")
    assert violation == "internal invariant violation: cell [0] decomposes with non-integer multiplicities"
    shutil.rmtree(cache)
    assert run_cli(capsys, "cells", spec, "--cache-dir", cache) == (
        2, "", "internal invariant violation: cell [0] decomposes with non-integer multiplicities\n")


def test_import_loads_no_dataclasses():
    """Every command is a fresh process, so start-up counts: importing the
    package and its CLI loads neither dataclasses nor inspect, which
    dataclasses imports."""
    assert fresh_python("import klcells, klcells.cli, sys; "
                        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
                        ) == "[]\n"


def test_import_loads_no_hashlib():
    """Loading the CLI loads neither hashlib (and OpenSSL's _hashlib) nor
    argparse (and the gettext it imports): the digests come from the
    interpreter's built-in SHA-256, and the CLI parses argv from a table."""
    assert fresh_python("import klcells.cli, sys; print(sorted({'hashlib', '_hashlib', "
                        "'argparse', 'gettext'} & sys.modules.keys()))") == "[]\n"


@pytest.mark.skipif(not (importlib.util.find_spec("_sha256") or importlib.util.find_spec("_sha2")),
                    reason="this interpreter has no built-in SHA-256 module")
def test_cached_cells_never_load_openssl(tmp_path):
    """A cold `cells` run that writes the KL cache, and a warm one that
    reads it and checks its digest, never load OpenSSL's _hashlib."""
    spec = write(tmp_path / "b3.spec", "group B 3\nL s = 1\nL t = 1\nL u = 3/2\n")
    cache = str(tmp_path / "cache")
    out = fresh_python(
        "import io, os, sys, contextlib, klcells.cli\n"
        "for run in ('cold', 'warm'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = klcells.cli.main(['cells', {spec!r}, '--cache-dir', {cache!r}])\n"
        f"    print(run, code, len(os.listdir({cache!r})), '_hashlib' in sys.modules)\n")
    assert out == "cold 0 1 False\nwarm 0 1 False\n"


def test_library_calls_load_no_kl_code():
    """The package imports none of its modules, so a caller of the
    character, rank-1 and group code pays for no Hecke algebra, cells,
    conjecture, spec parser or CLI."""
    assert fresh_python("import klcells.characters, klcells.cherednik_rank1, "
                        "klcells.coxeter, sys; print(sorted({'klcells.hecke', "
                        "'klcells.cells', 'klcells.conjecture', 'klcells.specfile', "
                        "'klcells.cli'} & sys.modules.keys()))") == "[]\n"


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(klcells.__path__)))
def test_each_submodule_name_is_the_module(name):
    """`import klcells.<name> as x` binds the module, never a function of the
    same name that the package namespace could shadow it with."""
    scope = {}
    exec(f"import klcells.{name} as x", scope)
    assert isinstance(scope["x"], types.ModuleType)
    assert scope["x"].__name__ == f"klcells.{name}"


class Exited(Exception):
    """Raised by the patched `os._exit`."""


def run_entry(monkeypatch, capsys, status, flush_error=None):
    """`entry()` with a `main` that writes one line to stdout without
    flushing it and returns `status`, and an `os._exit` that raises.
    Returns the flushes of stdout and the exit, in order, and stderr."""
    log = []

    class Stdout(io.StringIO):
        def flush(self):
            log.append(("flush", self.getvalue()))
            if flush_error:
                raise flush_error

    def fake_main():
        sys.stdout.write("doc\n")
        return status

    def fake_exit(code):
        log.append(("exit", code))
        raise Exited

    monkeypatch.setattr(sys, "stdout", Stdout())
    monkeypatch.setattr("klcells.cli.main", fake_main)
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(Exited):
        entry()
    return log, capsys.readouterr().err


@pytest.mark.parametrize("status", [0, 1, 2])
def test_entry_exits_with_the_status_of_main_after_the_flush(monkeypatch, capsys, status):
    assert run_entry(monkeypatch, capsys, status) == (
        [("flush", "doc\n"), ("exit", status)], "")


def test_entry_turns_a_failed_final_flush_into_exit_1(monkeypatch, capsys):
    """A flush that fails after a successful `main` is exit 1 with one error
    line, never a silent 0.  After a failed `main` the flush only meets the
    bytes whose write `main` already reported, and the status stands."""
    broken = OSError(errno.EPIPE, os.strerror(errno.EPIPE))
    log, err = run_entry(monkeypatch, capsys, 0, broken)
    assert log == [("flush", "doc\n"), ("exit", 1)]
    assert err == f"error: cannot write standard output: {broken}\n"
    assert run_entry(monkeypatch, capsys, 2, broken) == (
        [("flush", "doc\n"), ("exit", 2)], "")


D4_SPEC = "group D 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n"


PYTHON_M_CLI = [sys.executable, "-m", "klcells.cli"]


def cli_env(unbuffered=False):
    """The environment of a fresh `python -m klcells.cli` from this source
    tree, with a buffered stdout unless `unbuffered`."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONUNBUFFERED" and not k.startswith("KLCELLS_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(klcells.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def cli_process(*argv, unbuffered=False, **kwargs):
    return subprocess.run(PYTHON_M_CLI + list(argv), env=cli_env(unbuffered),
                          timeout=120, **kwargs)


@pytest.mark.parametrize("sink", ["file", "pipe"])
@pytest.mark.parametrize("argv", [
    ["cells", "d4.spec", "--no-cache"],
    ["klbasis", "d4.spec", "--no-cache"],  # 376 KB: many pieces of output
    ["characters", "d4.spec"],
    ["cm-rank1", "--d", "3", "--c", "1,1/2"],
    ["conjecture", "--no-b2"],
], ids=["cells", "klbasis", "characters", "cm-rank1", "conjecture"])
def test_process_prints_the_bytes_of_main(tmp_path, capsys, monkeypatch, argv, sink):
    """A command ends through `os._exit` once its output is flushed: the
    process prints every byte that `main` prints, to a file and to a pipe."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "d4.spec", D4_SPEC)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if sink == "file":
        with open(tmp_path / "out.json", "wb") as fh:
            run = cli_process(*argv, cwd=tmp_path, stdout=fh, stderr=subprocess.PIPE)
        printed = (tmp_path / "out.json").read_bytes()
    else:
        run = cli_process(*argv, cwd=tmp_path, capture_output=True)
        printed = run.stdout
    assert (run.returncode, run.stderr) == (0, b"")
    assert printed == out.encode("utf-8")


def test_process_exits_1_on_input_errors_and_2_on_drift(tmp_path):
    run = cli_process("cells", "missing.spec", cwd=tmp_path, capture_output=True)
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr.startswith(b"error: cannot read 'missing.spec'")
    reports = tmp_path / "reports"
    shutil.copytree(os.path.join(os.path.dirname(__file__), "golden", "b2"), reports)
    edited = sorted(reports.iterdir())[0]
    edited.write_text(edited.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    run = cli_process("conjecture", "--reports-dir", str(reports), cwd=tmp_path,
                      capture_output=True)
    assert run.returncode == 2
    assert json.loads(run.stdout)["verdict"] == "MATCH"
    assert run.stderr == (b"internal invariant violation: snapshot drift for 1 B2 "
                          b"parameter points (rerun with --update-snapshots to accept)\n")


def stdout_error(code):
    return f"error: cannot write standard output: [Errno {code}] {os.strerror(code)}\n".encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "write-through"])
@pytest.mark.parametrize("argv", [["cm-rank1", "--d", "3", "--c", "1,1/2"],
                                  ["klbasis", "d4.spec", "--no-cache"]],
                         ids=["one-piece", "many-pieces"])
def test_full_stdout_exits_1_with_one_error_line(tmp_path, argv, unbuffered):
    """A document that fits the buffer fails at the flush, a larger one at a
    write; both end in the same line, with no traceback."""
    write(tmp_path / "d4.spec", D4_SPEC)
    with open("/dev/full", "wb") as full:
        run = cli_process(*argv, unbuffered=unbuffered, cwd=tmp_path, stdout=full,
                          stderr=subprocess.PIPE)
    assert (run.returncode, run.stderr) == (1, stdout_error(errno.ENOSPC))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "write-through"])
def test_stdout_pipe_closed_early_exits_1_with_one_error_line(tmp_path, unbuffered):
    """`klcells klbasis d4.spec | head -c 10`."""
    write(tmp_path / "d4.spec", D4_SPEC)
    proc = subprocess.Popen(PYTHON_M_CLI + ["klbasis", "d4.spec", "--no-cache"],
                            env=cli_env(unbuffered), cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "arity'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, stdout_error(errno.EPIPE))


@pytest.mark.parametrize("argv", [["cm-rank1", "--d", "3", "--c", "1,1/2"], ["--help"]])
def test_closed_stdout_exits_1_with_one_error_line(tmp_path, argv):
    """`klcells ... >&-`: Python starts with sys.stdout None."""
    run = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *PYTHON_M_CLI, *argv],
                         env=cli_env(), cwd=tmp_path, capture_output=True, timeout=120)
    assert (run.returncode, run.stderr) == (
        1, b"error: cannot write standard output: it is closed\n")


def test_main_reports_an_unwritable_stdout_and_returns(monkeypatch, capsys):
    """`main` never ends the process: a stdout that refuses the bytes is
    status 1, returned, with the error line on stderr."""

    class Full(io.StringIO):
        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for stdout in (Full(), None):
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["cm-rank1", "--d", "2", "--c", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write standard output: ")


UNWRITABLE = {  # argv, and the path as given
    "output": (["cells", "a1.spec", "--no-cache", "--output", "missing/x.json"],
               "missing/x.json"),
    "reports-dir": (["conjecture", "--c-values", "1", "--reports-dir", "file/x"], "file/x"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unwritable_output_path_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                            case):
    """An --output in a missing directory and a --reports-dir under a
    regular file: one line that names the path as given, with no usage line
    and no temporary file name, from `main` and from a process."""
    argv, path = UNWRITABLE[case]
    write(tmp_path / "a1.spec", "group A 1\nL s = 1\n")
    write(tmp_path / "file", "")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    run = cli_process(*argv, cwd=tmp_path, capture_output=True, text=True)
    for status, stdout, stderr in ((code, out, err), (run.returncode, run.stdout, run.stderr)):
        assert (status, stdout) == (1, "")
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith(f"error: cannot write {path!r}: ")
        assert not any(s in stderr for s in ("Traceback", "usage", ".tmp"))


def test_spec_that_is_not_utf8_fails_alike_from_a_file_and_from_stdin(tmp_path, capsys,
                                                                      monkeypatch):
    """A spec is decoded strictly as UTF-8 from a file and from standard
    input alike, whatever the locale: both fail with the decode error,
    naming their source, from `main` and from a process with no LANG."""
    data = b"\xff\xfe"
    (tmp_path / "bad.spec").write_bytes(data)
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    expected = {"bad.spec": f"error: cannot read 'bad.spec': {reason}\n",
                "-": f"error: cannot read standard input: {reason}\n"}
    monkeypatch.chdir(tmp_path)
    env = {k: v for k, v in cli_env().items() if not k.startswith(("LANG", "LC_"))}
    for source, err in expected.items():
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))
        assert run_cli(capsys, "cells", source, "--no-cache") == (1, "", err)
        run = subprocess.run(PYTHON_M_CLI + ["cells", source, "--no-cache"], input=data, env=env,
                             cwd=tmp_path, capture_output=True, timeout=120)
        assert (run.returncode, run.stdout, run.stderr.decode()) == (1, b"", err)


def test_spec_on_stdin_is_read_as_utf8_bytes(tmp_path, capsys, monkeypatch):
    """A spec on standard input is its UTF-8 bytes, with CRLF line ends as
    a file may have them: the same output as the file."""
    text = "group A 2\r\nL s = 1\r\nL t = 1\r\n"
    spec = write(tmp_path / "a2.spec", text)
    expected = run_cli(capsys, "cells", spec, "--no-cache")
    assert expected[0] == 0
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    assert run_cli(capsys, "cells", "-", "--no-cache") == expected


def test_closed_stdin_is_an_input_error(tmp_path, capsys, monkeypatch):
    """`klcells cells - <&-`: Python starts with sys.stdin None."""
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run_cli(capsys, "cells", "-")
    run = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", *PYTHON_M_CLI, "cells", "-"],
                         env=cli_env(), cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    for status, stdout, stderr in ((code, out, err), (run.returncode, run.stdout, run.stderr)):
        assert (status, stdout) == (1, "")
        assert stderr.startswith("error: cannot read standard input: it is closed\n")
        assert "Traceback" not in stderr
