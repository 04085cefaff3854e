#!/usr/bin/env python3
"""The klcells benchmark.

    python3 perfbench/run.py --workload kl_cold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is used from ./src as it
stands (no install, no build).  Workloads (see README.md in this
directory): kl_cold, cells_warm, exact_algebra.

A pass runs every operation of the workload once, one at a time, each
in its own child process: `python3 -m klcells.cli ...` (what users run)
or perfbench/child.py making one public library call.  Every child's
stdout must match its committed SHA-256 digest (digests.json), and
library calls must return True or None as documented.

--trace 0: set up SETUP_REPS times (median is setup_s), then run whole
passes until --seconds would be exceeded, and report the end-to-end
metrics as medians over the passes.  Times are divided by the machine's
slowdown, which a fixed reference kernel measures before and after every
operation (see README.md); the raw samples go to the info line.

--trace 1: set up once, then run one untraced pass, the same pass with
spans around the public klcells calls, and the same pass again under a
second PYTHONHASHSEED (every digest must still match), followed by the
kernel probes; report the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the
environment and the per-pass samples.  The metric names and units are
those of BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Plan  # noqa: E402

HASH_SEED = "0"
SECOND_HASH_SEED = "12345"
SETUP_REPS = 3
OP_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 170.0
DIGESTS_PATH = os.path.join(HERE, "digests.json")
T0_PLACEHOLDER = "{t0}"  # replaced by the spawn time of the child


# The reference kernel's time at full speed on the 2-core 2.1 GHz
# CPython 3.11.7 machine the bounds were set on; under load it took up to
# twice as long.  Time metrics are divided by the kernel's current
# slowdown against it (see README.md).
REF_NOMINAL_S = 0.011


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the program's hot loops: dicts
    keyed by Fractions and by int tuples, small-int arithmetic, and short
    strings."""
    acc: Dict[object, int] = {}
    for i in range(2500):
        k = Fraction(i % 97, 1 + i % 5)
        acc[k] = acc.get(k, 0) + i
        t = (i % 13, -(i % 7))
        acc[t] = acc.get(t, 0) ^ i
        acc[i % 11] = len(str(i)) + acc.get(i % 11, 0)
    return len(acc)


def slowdown() -> float:
    """The machine's current slowdown against REF_NOMINAL_S (median of 3)."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times) / REF_NOMINAL_S


class NormalisedClock:
    """Wall time in laps, each divided by the mean slowdown measured at its
    two ends; the probes' own time is left out of both sums."""

    def __init__(self) -> None:
        self.raw = 0.0
        self.norm = 0.0
        self._last = slowdown()
        self._start = time.perf_counter()

    def lap(self) -> None:
        lap = time.perf_counter() - self._start
        now = slowdown()
        self.raw += lap
        self.norm += lap / ((self._last + now) / 2)
        self._last = now
        self._start = time.perf_counter()


class BenchError(Exception):
    """The benchmark cannot run here (missing program or files)."""


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def kl_cache_files(path: str) -> List[str]:
    out = []
    for base, _, files in os.walk(path):
        out += [os.path.join(base, f) for f in files
                if f.startswith("kl_") and f.endswith(".json")]
    return sorted(out)


@dataclass
class OpResult:
    op: Op
    rc: int
    wall: float
    cpu: float
    rss_kb: int
    digest: str
    cache_bytes: int
    error: Optional[str] = None
    trace_path: Optional[str] = None
    slowdown: float = 1.0  # mean of the reference probes around the op

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class PassResult:
    ops: List[OpResult] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.wall / r.slowdown for r in self.ops)

    @property
    def cpu(self) -> float:
        return sum(r.cpu / r.slowdown for r in self.ops)

    @property
    def raw_wall(self) -> float:
        return sum(r.wall for r in self.ops)

    @property
    def raw_cpu(self) -> float:
        return sum(r.cpu for r in self.ops)

    @property
    def peak_rss_kb(self) -> int:
        return max((r.rss_kb for r in self.ops), default=0)

    @property
    def cache_bytes(self) -> int:
        return sum(r.cache_bytes for r in self.ops)

    @property
    def failed(self) -> List[OpResult]:
        return [r for r in self.ops if not r.ok]


class Runner:
    """Runs operations in child processes inside one work directory."""

    def __init__(self, work: str, digests: Optional[Dict[str, str]], deadline: float):
        """With digests None (recording) stdout is not compared."""
        self.work = work
        self.digests = digests
        self.deadline = deadline
        self.ctx = ""  # the set-up directory the passes use
        self._serial = 0

    # -- child processes -------------------------------------------------

    def child_env(self, hash_seed: str) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("KLCELLS_") and k not in
               ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "PYTHONHASHSEED",
                "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP", "PYTHONINSPECT")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPYCACHEPREFIX"] = os.path.join(self.ctx, "pycache")
        return env

    def spawn(self, argv: List[str], env: Dict[str, str], out_path: str,
              err_path: str):
        """Run argv to completion; returns (rc, wall, cpu, maxrss_kb).  An
        argument T0_PLACEHOLDER becomes the perf_counter reading at start."""
        timeout = max(1.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            argv = [repr(t0) if a == T0_PLACEHOLDER else a for a in argv]
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=ROOT, stdin=subprocess.DEVNULL)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss)

    def _resolve(self, op: Op, fresh_dir: str) -> List[str]:
        out = []
        for a in op.args:
            if a.startswith("{spec:"):
                a = os.path.join(self.ctx, "specs", a[6:-1] + ".spec")
            elif a == "{cache}":
                a = self.cache_dir(op, fresh_dir)
            elif a == "{reports}":
                a = os.path.join(self.ctx, "reports")
            out.append(a)
        return out

    def cache_dir(self, op: Op, fresh_dir: str) -> str:
        if op.cache == "fresh":
            return fresh_dir
        return os.path.join(self.ctx, "warm", op.cache.split(":", 1)[1])

    def run_op(self, op: Op, hash_seed: str = HASH_SEED, traced: bool = False,
               keep_cache: bool = False) -> OpResult:
        self._serial += 1
        tag = f"{self._serial:05d}"
        fresh = os.path.join(self.work, "cold", f"{tag}-{op.name}")
        if op.cache == "fresh":
            os.makedirs(fresh)
        args = self._resolve(op, fresh)
        py = sys.executable
        trace_path = None
        if traced:
            trace_path = os.path.join(self.work, "traces", f"{tag}.json")
            argv = [py, os.path.join(HERE, "child.py"), "--trace", trace_path,
                    "--op-id", f"{tag}:{op.name}", "--t0", T0_PLACEHOLDER,
                    op.kind] + args
        elif op.kind == "cli":
            argv = [py, "-m", "klcells.cli"] + args
        else:
            argv = [py, os.path.join(HERE, "child.py"), "lib"] + args
        out_path = os.path.join(self.work, "out", tag + ".stdout")
        err_path = os.path.join(self.work, "out", tag + ".stderr")
        rc, wall, cpu, rss = self.spawn(argv, self.child_env(hash_seed),
                                           out_path, err_path)
        digest = sha256_file(out_path)
        cache_bytes = 0
        if op.cache == "fresh":
            cache_bytes = dir_bytes(fresh)
        elif op.cache == "reports":
            cache_bytes = dir_bytes(os.path.join(self.ctx, "reports"))
        elif op.cache:
            cache_bytes = dir_bytes(self.cache_dir(op, fresh))
        res = OpResult(op, rc, wall, cpu, rss, digest, cache_bytes,
                       trace_path=trace_path)
        res.error = self._check(op, rc, digest, out_path, err_path)
        if op.cache == "fresh" and not keep_cache:
            shutil.rmtree(fresh)
        os.remove(out_path)
        os.remove(err_path)
        return res

    def _check(self, op: Op, rc: int, digest: str, out_path: str,
               err_path: str) -> Optional[str]:
        if rc != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read()[-400:].decode("utf-8", "replace").strip()
            return f"exit status {rc}: {tail}"
        expected = None if self.digests is None else self.digests.get(op.key)
        if self.digests is not None and expected is None:
            return f"no committed digest for {op.key!r}"
        if self.digests is not None and digest != expected:
            return f"stdout digest {digest[:12]} != committed {expected[:12]}"
        if op.expect is not None:
            with open(out_path, "r", encoding="utf-8") as fh:
                result = json.load(fh).get("result")
            if (op.expect == "true" and result is not True) or \
                    (op.expect == "none" and result is not None):
                return f"library call returned {result!r}, expected {op.expect}"
        return None

    # -- set-up and passes ---------------------------------------------

    def setup(self, plan: Plan, rep: int) -> Tuple[float, float]:
        """Prepare one set-up directory and make it the passes' context:
        spec files, the byte-compiled package (a fresh pycache, filled by
        one `import klcells.cli`), plus the KL caches (cells_warm) or the
        B2 snapshots (exact_algebra).  Returns its normalised and raw wall
        time."""
        clock = NormalisedClock()
        self.ctx = os.path.join(self.work, f"setup{rep}")
        os.makedirs(os.path.join(self.ctx, "specs"))
        for sid, text in workloads.all_specs().items():
            with open(os.path.join(self.ctx, "specs", sid + ".spec"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
        out = os.path.join(self.work, "out", "import.stdout")
        rc, *_ = self.spawn([sys.executable, "-c",
                             "import klcells.cli, klcells; print(klcells.__file__)"],
                            self.child_env(HASH_SEED), out, out + ".err")
        with open(out, "r", encoding="utf-8") as fh:
            where = fh.read().strip()
        if rc != 0 or not where.startswith(os.path.join(ROOT, "src") + os.sep):
            raise BenchError(f"klcells does not import from {ROOT}/src (got {where!r})")
        clock.lap()
        failures = []
        for op in plan.setup_ops:
            r = self.run_op(op)
            clock.lap()
            if not r.ok:
                failures.append(f"{r.op.name}: {r.error}")
        if failures:
            raise BenchError("set-up failed: " + "; ".join(failures))
        return clock.norm, clock.raw

    def run_pass(self, order: List[Op], hash_seed: str = HASH_SEED,
                 traced: bool = False, keep_cache: bool = False) -> PassResult:
        result = PassResult()
        before = slowdown()
        for op in order:
            r = self.run_op(op, hash_seed, traced, keep_cache)
            after = slowdown()
            r.slowdown = (before + after) / 2
            before = after
            result.ops.append(r)
        return result


# -- metrics ----------------------------------------------------------------


def load_benchmark_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        raise BenchError(f"{path} not found")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_metrics(setups: List[Tuple[float, float]],
                       passes: List[PassResult]) -> Dict[str, float]:
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    return {
        "setup_s": statistics.median(norm for norm, _ in setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_kb for p in passes) / 1024.0,
        "cache_bytes": statistics.median(p.cache_bytes for p in passes),
        "success_rate": 1.0 - failed / attempted,
    }


def count_terms(paths: List[str]) -> Dict[str, int]:
    """Laurent terms in the C_w expansions and in the C_s C_w table of the
    given KL cache files, counted from their rendered coefficients."""
    out = {"hecke.c_terms": 0, "hecke.cs_terms": 0}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        for section, name in (("c_basis", "hecke.c_terms"),
                              ("cs_products", "hecke.cs_terms")):
            for coeffs in doc[section].values():
                out[name] += sum(0 if t == "0" else t.count(" + ") + 1
                                 for t in coeffs.values())
    return out


# Per-layer metric -> span names whose self times it sums.
SPAN_METRICS = {
    "coxeter.build_group_s": ["coxeter.build_group"],
    "coxeter.conjugacy_classes_s": ["coxeter.conjugacy_classes"],
    "hecke.kl_basis_s": ["hecke.kl_basis"],
    "hecke.to_json_s": ["hecke.to_json_dict", "hecke.json_dump"],
    "hecke.from_json_s": ["hecke.json_load", "hecke.from_json_dict"],
    "characters.character_table_s": ["characters.character_table"],
    "characters.decompose_s": ["characters.decompose"],
    "characters.verify_orthogonality_s": ["characters.verify_orthogonality"],
    "cells.left_preorder_s": ["cells.left_preorder"],
    "cells.cells_s": ["cells.cells"],
    "cells.cell_character_s": ["cells.cell_character"],
    "cells.report_s": ["cells.report"],
    "cherednik_rank1.verify_presentation_s": ["cherednik_rank1.verify_presentation"],
    "cherednik_rank1.is_central_s": ["cherednik_rank1.is_central"],
    "conjecture.suite_s": ["conjecture.suite"],
}
COUNTERS = ("cells.left_cells", "cells.two_sided_cells", "cells.preorder_edges")


def span_metrics(traced: PassResult) -> Dict[str, float]:
    selfs: Dict[str, float] = {}
    counters: Dict[str, int] = {c: 0 for c in COUNTERS}
    import_s = 0.0
    for r in traced.ops:
        if r.trace_path is None or not os.path.exists(r.trace_path):
            continue
        with open(r.trace_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        for span, own in zip(doc["spans"], tracing.self_times(doc["spans"])):
            selfs[span[0]] = selfs.get(span[0], 0.0) + own
        for name, n in doc["counters"].items():
            counters[name] = counters.get(name, 0) + n
        import_s += doc["imported"] - doc["t0"]
    out: Dict[str, float] = {m: sum(selfs.get(s, 0.0) for s in spans)
                             for m, spans in SPAN_METRICS.items()}
    out.update(counters)
    out["cli.import_s"] = import_s
    return out


def run_probe(runner: Runner, kind: str, seed: int, paths: List[str]) -> Dict[str, float]:
    if not paths:
        return {}
    out = os.path.join(runner.work, "out", f"probe-{kind}.stdout")
    rc, *_ = runner.spawn([sys.executable, os.path.join(HERE, "probe.py"), kind,
                           str(seed)] + paths, runner.child_env(HASH_SEED),
                          out, out + ".err")
    if rc != 0:
        with open(out + ".err", "r", encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(f"probe {kind} failed (exit {rc}): {fh.read()[-400:]}\n")
        return {}
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def probe_inputs(runner: Runner, traced: PassResult):
    """KL cache files the workload wrote (the traced pass keeps its cold
    caches) or read (the set-up caches), and the spec files it used."""
    caches = (kl_cache_files(os.path.join(runner.work, "cold"))
              + kl_cache_files(os.path.join(runner.ctx, "warm")))
    specs = sorted({os.path.join(runner.ctx, "specs", a[6:-1] + ".spec")
                    for r in traced.ops for a in r.op.args if a.startswith("{spec:")})
    return caches, specs


# -- environment ------------------------------------------------------------


def git_revision() -> Optional[str]:
    """HEAD of the checkout if it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                h.update(sha256_file(path).encode())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "hash_seeds": [HASH_SEED, SECOND_HASH_SEED],
    }


# -- main -------------------------------------------------------------------


def emit(spec: dict, section: str, values: Dict[str, float], info: dict,
         attempted: int, failed: int, correct: bool) -> None:
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        info["unlisted_metrics"] = unknown
    info["env"]["loadavg_end"] = list(os.getloadavg())
    sys.stdout.write(json.dumps(info, sort_keys=True) + "\n")
    sys.stdout.write(json.dumps({"correct": correct, "attempted": attempted,
                                 "failed": failed, "metrics": metrics}) + "\n")


def op_samples(passes: List[PassResult]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for p in passes:
        for r in p.ops:
            out.setdefault(r.op.name, []).append(r.wall / r.slowdown)
    return out


def report_failures(passes: List[PassResult]) -> List[str]:
    lines = [f"{r.op.name} [{r.op.key}]: {r.error}"
             for p in passes for r in p.failed]
    for line in lines:
        sys.stderr.write("FAILED " + line + "\n")
    return lines


def timed_run(runner: Runner, plan: Plan, seconds: float, spec: dict, info: dict) -> None:
    setups = []
    for rep in range(SETUP_REPS):
        if rep:
            shutil.rmtree(runner.ctx)
        setups.append(runner.setup(plan, rep))
    passes: List[PassResult] = []
    spans: List[float] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start + statistics.median(spans)
                         <= seconds and time.monotonic() < runner.deadline - 30):
        t = time.perf_counter()
        passes.append(runner.run_pass(plan.pass_order()))
        spans.append(time.perf_counter() - t)
    values = end_to_end_metrics(setups, passes)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    info.update(passes=len(passes),
                setup_s_samples=[norm for norm, _ in setups],
                raw_setup_s_samples=[raw for _, raw in setups],
                wall_s_samples=[p.wall for p in passes],
                raw_wall_s_samples=[p.raw_wall for p in passes],
                cpu_s_samples=[p.cpu for p in passes],
                raw_cpu_s_samples=[p.raw_cpu for p in passes],
                slowdown_samples=[r.slowdown for p in passes for r in p.ops],
                op_wall_s_samples=op_samples(passes),
                failures=report_failures(passes))
    emit(spec, "end_to_end", values, info, attempted, failed, failed == 0)


def traced_run(runner: Runner, plan: Plan, seed: int, spec: dict, info: dict) -> None:
    runner.setup(plan, 0)
    order = plan.pass_order()
    untraced = runner.run_pass(order)
    traced = runner.run_pass(order, traced=True, keep_cache=True)
    reseeded = runner.run_pass(order, hash_seed=SECOND_HASH_SEED)
    passes = [untraced, traced, reseeded]
    values: Dict[str, float] = span_metrics(traced)
    caches, specs = probe_inputs(runner, traced)
    values.update(count_terms(caches))
    values.update(run_probe(runner, "ordered_coeffs", seed, caches))
    values.update(run_probe(runner, "cyclotomic", seed, specs))
    values["trace.untraced_wall_s"] = untraced.wall
    values["trace.traced_wall_s"] = traced.wall
    values["trace_overhead"] = traced.wall / untraced.wall
    values["raw.wall_s"] = untraced.raw_wall
    values["raw.cpu_s"] = untraced.raw_cpu
    values["machine.slowdown"] = statistics.median(r.slowdown for r in untraced.ops)
    for r in untraced.ops:
        values[f"op.{r.op.name}.wall_s"] = r.wall / r.slowdown
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    values["error_rate"] = failed / attempted
    same = [a.digest == b.digest for a, b in zip(untraced.ops, reseeded.ops)]
    info.update(hash_seed_digests_equal=all(same), failures=report_failures(passes),
                raw_traced_wall_s=traced.raw_wall)
    emit(spec, "per_layer", values, info, attempted, failed,
         failed == 0 and all(same))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if not os.path.exists(os.path.join(ROOT, "src", "klcells", "cli.py")):
            raise BenchError(f"the program is missing: no src/klcells under {ROOT}")
        spec = load_benchmark_spec()
        if not os.path.exists(DIGESTS_PATH):
            raise BenchError(f"{DIGESTS_PATH} not found")
        with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
            digests = json.load(fh)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment()}
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work = os.path.join(work_root, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("out", "cold", "traces"):
        os.makedirs(os.path.join(work, sub))
    runner = Runner(work, digests, deadline)
    plan = workloads.make_plan(args.workload, args.seed)
    try:
        if args.trace:
            traced_run(runner, plan, args.seed, spec, info)
        else:
            timed_run(runner, plan, args.seconds, spec, info)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
