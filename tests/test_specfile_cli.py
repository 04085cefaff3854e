import json
import os
import stat
from fractions import Fraction

import pytest

from klcells.cli import main
from klcells.conjecture import B2_REGIME_POINTS
from klcells.coxeter import ConjugacyViolation
from klcells.hecke import payload_digest
from klcells.ordered_coeffs import LEX, RATIONAL
from klcells.specfile import SpecParseError, parse_spec, render_spec


def test_parse_named_group():
    spec = parse_spec("group I2 4\nL s = 1\nL t = 1\n")
    assert spec.name == "I2 4"
    assert spec.matrix.entries == ((1, 4), (4, 1))
    assert spec.mode == RATIONAL
    assert spec.weights[0].value == (Fraction(1),)


def test_parse_comments_and_blanks():
    text = """
    # a comment

    group A 2   # trailing comment
    L s = 1
    L t = 1
    """
    spec = parse_spec(text)
    assert spec.name == "A 2"


def test_parse_matrix_form():
    text = "group matrix\n3\n3 2\n3\nL s = 1\nL t = 1\nL u = 1\n"
    spec = parse_spec(text)
    assert spec.name is None
    assert spec.matrix.entries == ((1, 3, 2), (3, 1, 3), (2, 3, 1))


def test_parse_rank_one_matrix():
    spec = parse_spec("group matrix\n1\nL s = 5/2\n")
    assert spec.matrix.rank == 1
    assert spec.weights[0].value == (Fraction(5, 2),)


def test_parse_lex_weights():
    spec = parse_spec("group B 2\nL lex s = e_1\nL lex t = e_2\n")
    assert spec.mode == LEX
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


def test_parse_render_identity():
    cases = [
        "group I2 4\nL s = 1\nL t = 2\n",
        "group A 3\nL s = 1/2\nL t = 1/2\nL u = 1/2\n",
        "group matrix\n2\n5\nL s = 0\nL t = 0\n",
        "group B 2\nL lex s = e_1\nL lex t = e_2\n",
        "group B 2\nL lex s = 0\nL lex t = e_1\n",
    ]
    for text in cases:
        spec = parse_spec(text)
        assert parse_spec(render_spec(spec)) == spec


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


@pytest.mark.parametrize("exc", [KeyError("w"), IndexError("list index out of range"),
                                 TypeError("unsupported operand")])
def test_stray_internal_errors_exit_2(tmp_path, capsys, monkeypatch, exc):
    spec = write(tmp_path / "a1.spec", "group A 1\nL s = 1\n")

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("klcells.cli.cells_report", broken)
    code, out, err = run_cli(capsys, "cells", spec, "--no-cache")
    assert (code, out) == (2, "")
    assert err == f"internal invariant violation: {exc}\n"


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


def test_cli_characters(tmp_path, capsys):
    spec = write(tmp_path / "b2.spec", "group B 2\nL s = 1\nL t = 1\n")
    code, out, _ = run_cli(capsys, "characters", spec)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["degrees"]) == [1, 1, 1, 1, 2]
    # characters reads no KL table, so it takes no cache options.
    code, out, err = run_cli(capsys, "characters", spec, "--no-cache")
    assert (code, out) == (1, "") and "--no-cache" in err


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


def test_unreadable_cache_is_recomputed(tmp_path, capsys):
    spec = write(tmp_path / "b2.spec", "group B 2\nL s = 1\nL t = 2\n")
    code, cold, _ = run_cli(capsys, "cells", spec, "--no-cache")
    assert code == 0
    cache = tmp_path / "cache"
    code, _, _ = run_cli(capsys, "cells", spec, "--cache-dir", str(cache))
    assert code == 0
    [path] = cache.iterdir()
    good = path.read_text(encoding="utf-8")
    foreign = json.loads(good)
    foreign["key"] = "0" * 64
    malformed = json.loads(good)
    malformed["c_basis"]["e"] = "1*v^(0)"
    # An exponent off the algebra's grid: weights 1 and 2 put every
    # exponent in Z, so v^(1/3) cannot come from this table.
    off_grid = json.loads(good)
    off_grid["c_basis"]["s"]["e"] = "1*v^(1/3)"
    zero_den = json.loads(good)
    zero_den["c_basis"]["s"]["e"] = "1*v^(1/0)"
    # The edits above keep a stale digest; those below the cases dict
    # re-sign the edited payload, so that the parse and invariant checks
    # are the ones to fail.  A format-1 cache held the indented full
    # table that `klbasis` prints; a format-2 cache held every row and
    # the full C_s C_w table, and its loader took the full rows.
    code, format1, _ = run_cli(capsys, "klbasis", spec, "--no-cache")
    assert code == 0
    format2 = json.loads(format1)
    format2["format"] = 2
    wrong_format = json.loads(good)
    wrong_format["format"] = 1
    stale = json.loads(good)
    stale["c_basis"]["s t"]["s"] = "1*v^(-3)"
    cases = {"{": "{", "{}": "{}", "[]": "[]", "truncated": good[: len(good) // 2],
             "nested too deep": "[" * 100000,
             "foreign": json.dumps(foreign), "malformed": json.dumps(malformed),
             "off grid": json.dumps(off_grid), "1/0": json.dumps(zero_den),
             "format 1": format1, "format 2": resign(format2),
             "wrong format": resign(wrong_format), "stale digest": json.dumps(stale)}
    # Row "s t": L(st) = {s}, so p_(s,st) = v^-2 is stored and
    # p_(t,st) = v^-1 and p_(e,st) = v^-1 p_(s,st) are derived.  Row
    # "t s" is not stored: it is row "s t" inverted.  Ascent pair "t|s t s"
    # (su = s t s t) holds the correction m_(t s) = v + v^-1.
    for label, edit in [
            ("signed off grid", lambda d: d["c_basis"]["s t"].update(s="1*v^(-1/3)")),
            ("signed 1/0", lambda d: d["c_basis"]["s t"].update(s="1*v^(-1/0)")),
            ("p_ww != 1", lambda d: d["c_basis"]["s t"].update({"s t": "1*v^(-1)"})),
            ("non-negative lower exponent",
             lambda d: d["c_basis"]["s t"].update(s="1*v^(1)")),
            ("longer element in C_w", lambda d: d["c_basis"]["t"].update({"t s": "1*v^(-1)"})),
            ("missing stored row", lambda d: d["c_basis"].pop("s t")),
            ("derived row disagrees",
             lambda d: d["c_basis"].update({"t s": {"t s": "1*v^(0)", "t": "1*v^(-2)"}})),
            ("non-extremal disagrees", lambda d: d["c_basis"]["s t"].update(t="1*v^(-2)")),
            # The loader takes only what the writer writes: a row it does
            # not know, a header of another algebra, a field it does not
            # write, and the entries it derives, even at their derived values.
            ("unknown row name", lambda d: d["c_basis"].update({"q r": {"zz": "garbage"}})),
            ("wrong matrix", lambda d: d.update(matrix=[[1, 7], [7, 1]])),
            ("wrong weights", lambda d: d["weights"].update(s="99", t="-5")),
            ("extra top-level field", lambda d: d.update(comment="")),
            ("derived row", lambda d: d["c_basis"].update(
                {"t s": {"t s": "1*v^(0)", "t": "1*v^(-1)"}})),
            ("non-extremal coefficient", lambda d: d["c_basis"]["s t"].update(t="1*v^(-1)")),
            ("C_su term", lambda d: d["cs_products"]["t|s t s"].update({"s t s t": "1*v^(0)"})),
            ("unknown product element", lambda d: d["cs_products"]["s|e"].update(q="1*v^(0)")),
            ("missing ascent key", lambda d: d["cs_products"].pop("t|s t")),
            ("unknown product generator",
             lambda d: d["cs_products"].update({"q|e": d["cs_products"].pop("s|e")})),
            ("key on a descent pair",
             lambda d: d["cs_products"].update({"s|s": {"s": "1*v^(-1) + 1*v^(1)"}})),
            ("C_su term disagrees", lambda d: d["cs_products"]["s|e"].update(s="1*v^(1)")),
            ("zero correction", lambda d: d["cs_products"]["t|s t s"].update(t="0")),
            ("correction not bar-invariant",
             lambda d: d["cs_products"]["t|s t s"].update(t="1*v^(-1)")),
            ("correction at sy > y",
             lambda d: d["cs_products"]["t|s t s"].update(s="1*v^(-1) + 1*v^(1)")),
            ("correction not shorter than su",
             lambda d: d["cs_products"]["t|s"].update({"t s t": "1*v^(0)"}))]:
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
    wrong_arity["c_basis"]["s"]["e"] = "1*v^(-1,0,0)"
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
    zero_key["cs_products"]["t|e"] = {"t": "1*v^(0)"}
    zero_path.write_text(resign(zero_key), encoding="utf-8")
    code, out, err = run_cli(capsys, "cells", zero_spec, "--cache-dir", str(cache))
    assert (code, err, out) == (0, "", zero_cold)
    assert zero_path.read_text(encoding="utf-8") == zero_good


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
