"""Stage times of the KL cell pipeline on a fixed ladder of groups.

    python3 tools/ladder.py [--slow] [--runs N] [--out-dir DIR] [TREE ...]

Each TREE is a checkout of this repository (default: the one holding
this file); its `src/` is what gets timed.  Every rung runs in a fresh
process, one stage after another, as a command would:

    group            build_group
    classes          CoxeterGroup.conjugacy_classes
    kl               kl_basis (with the HeckeAlgebra it is built on)
    characters       character_table
    cells_report     cells_report
    cache_text       KLTable.to_cache_text
    load             KLTable.from_json_dict after json.loads, on a new
                     HeckeAlgebra, as a warm command loads the cache
    to_json_dict     KLTable.to_json_dict of the loaded table
    write_report     write_report of that document to os.devnull

Each stage gets its CPU time (time.process_time) and wall time
(time.perf_counter).  The process records its peak RSS from VmHWM in
/proc/self/status (not ru_maxrss, which can keep the high-water mark of
the process that spawned it), the cache text's bytes and the left and
two-sided cell counts.

The runs alternate between the trees, and so does the order within each
run, so that drift of the machine falls on every tree alike.  For each
TREE the script writes BENCH_<rev>.json into DIR (default: the directory
holding tools/; made if missing), with every sample and the median of
each figure.  <rev> is the tree's short git HEAD, followed by "+" and the
first 8 hex digits of `src_sha256` (a digest of src/klcells/*.py) when
src/ differs from HEAD.  On a 2-core Xeon (CPython 3.11) the default rungs
take about 9 s a run and 330 MB at most (F4 lex), (Z/2)^7 about 0.45 s of
it and B4×A1 lex, whose KL table is built in the dict ring, about 1.7 s;
--slow adds B5 and A6, about 85 s more, and B5 peaks at 0.42 GB.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))

F4 = "group matrix\n4\n3 2 2\n4 2\n3\n"
# (Z/2)^7: 128 classes of one element each, for the character table and
# cells_report on many classes.
A1_7 = "group matrix\n7\n" + "".join(" ".join("2" * n) + "\n" for n in range(6, 0, -1))

# B4 x A1, the A1 on the fifth generator.
B4_A1 = "group matrix\n5\n3 2 2 2\n3 2 2\n4 2\n2\n"

# rung -> (head of its spec, its weights per generator in order)
RUNGS = {
    "A4": ("group A 4\n", "1,1,1,1"),
    "D4": ("group D 4\n", "1,1,1,1"),
    "B4 (1,1,1,2)": ("group B 4\n", "1,1,1,2"),
    "A5": ("group A 5\n", "1,1,1,1,1"),
    "F4": (F4, "1,1,1,1"),
    "F4 (1,1,2,2)": (F4, "1,1,2,2"),
    "F4 lex": (F4, "e_1,e_1,e_2,e_2"),
    "(Z/2)^7": (A1_7, "1,1,1,1,1,1,1"),
    # 1485 slots, past _MAX_SLOTS: KL in the dict ring
    "B4×A1 lex": (B4_A1, "e_1,e_1,e_1,e_2,e_3"),
}
SLOW_RUNGS = {
    "B5 (1,1,1,1,2)": ("group B 5\n", "1,1,1,1,2"),
    "A6": ("group A 6\n", "1,1,1,1,1,1"),
}
STAGES = ("group", "classes", "kl", "characters", "cells_report", "cache_text", "load",
          "to_json_dict", "write_report")


def spec_text(rung: str) -> str:
    head, weights = {**RUNGS, **SLOW_RUNGS}[rung]
    lex = "lex " if "e_" in weights else ""
    return head + "".join(f"L {lex}{name} = {w}\n"
                          for name, w in zip("stuvwxyz", weights.split(",")))


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_rung(rung: str) -> dict:
    """The stages of one rung, timed in this process."""
    from klcells.cells import cells_report
    from klcells.characters import character_table
    from klcells.conjecture import write_report
    from klcells.coxeter import build_group
    from klcells.hecke import HeckeAlgebra, KLTable, kl_basis
    from klcells.specfile import parse_spec

    stages: Dict[str, dict] = {}

    def timed(name, call):
        cpu, wall = time.process_time(), time.perf_counter()
        out = call()
        stages[name] = {"cpu_s": time.process_time() - cpu,
                        "wall_s": time.perf_counter() - wall}
        return out

    spec = parse_spec(spec_text(rung))
    group = timed("group", lambda: build_group(spec.matrix, gen_names=spec.gen_names))
    timed("classes", group.conjugacy_classes)
    table = timed("kl", lambda: kl_basis(HeckeAlgebra(group, spec.weights)))
    chars = timed("characters", lambda: character_table(group))
    report = timed("cells_report", lambda: cells_report(table, chars))
    text = timed("cache_text", table.to_cache_text)
    doc = json.loads(text)
    loaded = timed("load", lambda: KLTable.from_json_dict(doc, HeckeAlgebra(group, spec.weights)))
    full = timed("to_json_dict", loaded.to_json_dict)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        timed("write_report", lambda: write_report(full, sink))
    return {"size": len(group), "stages": stages, "peak_rss_mb": peak_rss_mb(),
            "cache_bytes": len(text.encode()),
            "left_cells": len(report["left_cells"]["blocks"]),
            "two_sided_cells": len(report["two_sided_cells"]["blocks"])}


def git(tree: str, *args: str) -> str:
    return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def describe(tree: str) -> dict:
    """rev, git HEAD and src_sha256 of a checkout (module docstring)."""
    src = os.path.join(tree, "src", "klcells")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    head = git(tree, "rev-parse", "HEAD")
    clean = subprocess.run(["git", "-C", tree, "diff", "--quiet", "HEAD", "--", "src"]
                           ).returncode == 0
    rev = head[:7] if clean else f"{head[:7]}+{digest.hexdigest()[:8]}"
    return {"rev": rev, "git_head": head, "src_sha256": digest.hexdigest()}


def child(tree: str, rung: str) -> dict:
    """One rung of `tree` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--rung", rung],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{rung} failed on {tree} with exit {proc.returncode}")
    return json.loads(proc.stdout)


def median_of(samples: List[dict]) -> dict:
    """The samples of one rung and the median of each figure; cache
    bytes and cell counts must be the same in every run."""
    first = samples[0]
    for key in ("size", "cache_bytes", "left_cells", "two_sided_cells"):
        if any(s[key] != first[key] for s in samples):
            raise SystemExit(f"{key} differs between runs")
    stages = {}
    for name in STAGES:
        stages[name] = {}
        for clock in ("cpu_s", "wall_s"):
            runs = [s["stages"][name][clock] for s in samples]
            stages[name][clock] = statistics.median(runs)
            stages[name][f"{clock}_runs"] = runs
    rss = [s["peak_rss_mb"] for s in samples]
    return {"size": first["size"], "stages": stages, "peak_rss_mb": statistics.median(rss),
            "peak_rss_mb_runs": rss, "cache_bytes": first["cache_bytes"],
            "left_cells": first["left_cells"], "two_sided_cells": first["two_sided_cells"]}


def main(argv: List[str]) -> int:
    if argv[:1] == ["--rung"]:
        json.dump(run_rung(argv[1]), sys.stdout)
        return 0
    slow, runs, out_dir, trees = False, 5, os.path.dirname(HERE), []
    args = iter(argv)
    for arg in args:
        if arg == "--slow":
            slow = True
        elif arg == "--runs":
            runs = int(next(args))
        elif arg == "--out-dir":
            out_dir = next(args)
        elif arg.startswith("-"):
            raise SystemExit(__doc__)
        else:
            trees.append(os.path.abspath(arg))
    trees = trees or [os.path.dirname(HERE)]
    rungs = [*RUNGS, *(SLOW_RUNGS if slow else ())]
    os.makedirs(out_dir, exist_ok=True)
    for tree in trees:  # fill the bytecode cache before anything is timed
        subprocess.run([sys.executable, "-c", "import klcells.cli"], check=True,
                       env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")))
    samples = {tree: {rung: [] for rung in rungs} for tree in trees}
    for i in range(runs):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            for rung in rungs:
                samples[tree][rung].append(child(tree, rung))
        print(f"run {i + 1} of {runs} done", file=sys.stderr)
    for tree in trees:
        doc = {**describe(tree), "runs": runs,
               "python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count(),
               "rungs": {rung: {"spec": spec_text(rung), **median_of(samples[tree][rung])}
                         for rung in rungs}}
        path = os.path.join(out_dir, f"BENCH_{doc['rev']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
