"""The benchmark's tracer wraps klcells functions by name; a traced name
that the library renames or removes is only reported in the traced
child's stderr and drops its per-layer metric, so check that every name
still resolves.  The traced run also reads the KL cache files
(`count_terms`, the ordered_coeffs probe), so check that they still can."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from api_helpers import fresh_python
from klcells.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # run.py's dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = load("perfbench_tracing", "tracing.py")


@pytest.mark.parametrize("modname, attr", [(m, a) for m, a, _ in tracing.FUNCTIONS])
def test_traced_function_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("modname, clsname, attr",
                         [(m, c, a) for m, c, a, _ in tracing.METHODS])
def test_traced_method_exists(modname, clsname, attr):
    cls = getattr(importlib.import_module(modname), clsname)
    # The tracer looks the method up in the class's own namespace.
    assert attr in vars(cls)


def test_the_cli_loads_every_traced_module():
    """The tracer wraps functions only in the klcells modules that `import
    klcells.cli` has loaded, and the package loads none of its own, so the
    CLI's imports must reach every traced module."""
    traced = sorted({m for m, _, _ in tracing.FUNCTIONS} | {m for m, _, _, _ in tracing.METHODS})
    assert fresh_python("import klcells.cli, sys; "
                        f"print(sorted(set({traced!r}) - sys.modules.keys()))") == "[]\n"


def test_benchmark_reads_the_kl_cache(tmp_path, capsys):
    run = load("perfbench_run", "run.py")
    probe = load("perfbench_probe", "probe.py")
    spec = tmp_path / "b3.spec"
    spec.write_text("group B 3\nL s = 1\nL t = 1\nL u = 3/2\n", encoding="utf-8")
    cache = tmp_path / "cache"
    assert main(["cells", str(spec), "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert main(["klbasis", str(spec), "--no-cache"]) == 0
    full = json.loads(capsys.readouterr().out)
    [path] = [str(p) for p in cache.iterdir()]
    terms = run.count_terms([path])
    # Both sections are cached in part: C_s C_w as the ascent corrections.
    assert 0 < terms["hecke.cs_terms"] < sum(
        0 if t == "0" else t.count(" + ") + 1
        for coeffs in full["cs_products"].values() for t in coeffs.values())
    assert 0 < terms["hecke.c_terms"] < sum(
        t.count(" + ") + 1 for coeffs in full["c_basis"].values() for t in coeffs.values())
    # An equal-parameter cache holds no C_s C_w product, and of the rows
    # only their off-diagonal coefficients.  B3 with L = (0,0,1) is the
    # smallest cache the benchmark writes, and D4 the one whose rows are
    # cut most, to one per orbit under w -> w^-1 and triality; the probe
    # draws from their rows.
    equal_paths = []
    for name, text in (("b3short", "group B 3\nL s = 0\nL t = 0\nL u = 1\n"),
                       ("d4", "group D 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n")):
        spec.write_text(text, encoding="utf-8")
        equal_cache = tmp_path / f"{name}-cache"
        assert main(["cells", str(spec), "--cache-dir", str(equal_cache)]) == 0
        capsys.readouterr()
        [equal_path] = [str(p) for p in equal_cache.iterdir()]
        terms = run.count_terms([equal_path])
        assert terms["hecke.c_terms"] > 0 and terms["hecke.cs_terms"] == 0, name
        equal_paths.append(equal_path)
    for cached in (path, *equal_paths):
        metrics = probe.ordered_coeffs(1, [cached])
        for op in ("mul", "add", "split_bar", "parse", "render"):
            assert metrics[f"ordered_coeffs.{op}_ns.rational"] > 0
            assert metrics[f"ordered_coeffs.{op}_ns.rational.ops"] > 0


def test_traced_runs_record_the_gated_spans(tmp_path):
    """The spans and counters that CI's traced benchmark gate requires to
    be nonzero (its table of workload -> metrics; the two lists must
    match) are recorded: a warm `cells` run times the cache load and the
    cell characters and counts the left cells, and `verify_orthogonality`
    times the decomposition.  The tracer patches klcells globally, so it
    runs in a fresh interpreter."""
    spec = tmp_path / "b3.spec"
    spec.write_text("group B 3\nL s = 1\nL t = 1\nL u = 3/2\n", encoding="utf-8")
    code = f"""
import importlib.util, json
import klcells.characters, klcells.cli, klcells.coxeter
spec = importlib.util.spec_from_file_location("tracing", {str(PERFBENCH / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer("contract")
tracing.install(tracer)
phases = {{}}
def phase(name, run):
    start, counters = len(tracer.spans), dict(tracer.counters)
    run()
    phases[name] = {{"spans": sorted({{s[0] for s in tracer.spans[start:]}}),
                     "counters": {{k: n - counters.get(k, 0) for k, n in tracer.counters.items()}}}}
argv = ["cells", {str(spec)!r}, "--cache-dir", {str(tmp_path / "cache")!r},
        "--output", {str(tmp_path / "cells.json")!r}]
klcells.cli.main(argv)  # cold: fills the cache
phase("warm", lambda: klcells.cli.main(argv))
phase("orthogonality", lambda: klcells.characters.verify_orthogonality(
    klcells.characters.character_table(
        klcells.coxeter.build_group(klcells.coxeter.named_coxeter_matrix("D", 4)))))
print(json.dumps(phases))
"""
    phases = json.loads(fresh_python(code))
    warm = phases["warm"]
    assert {"hecke.from_json_dict", "cells.cell_character"} <= set(warm["spans"])
    assert warm["counters"].get("cells.left_cells", 0) > 0
    assert "hecke.kl_basis" not in warm["spans"]  # a cache hit
    assert "characters.decompose" in phases["orthogonality"]["spans"]
