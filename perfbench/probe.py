"""Kernel probes over the workload's own data, in a child process.

    python3 perfbench/probe.py ordered_coeffs SEED CACHE_FILE...
    python3 perfbench/probe.py cyclotomic SEED SPEC_FILE...

ordered_coeffs: the Laurent coefficients of the given KL cache files
(C_w expansions and C_s C_w products) are parsed with LaurentElt.parse;
a seeded sample of them is then timed through mul, add, split_bar
(split_by_sign followed by bar of the positive part, as in the KL
construction), parse and render, separately per exponent mode.

cyclotomic: the entries of the character tables of the given groups are
timed through mul, add and conj.

Each timing is the median over REPEATS batches of ns per operation; the
".ops" figure is the number of operations in one batch.  One JSON object
of metrics is printed.
"""

import json
import random
import statistics
import sys
import time

REPEATS = 5
SAMPLE = 400


def _time_batch(fn, items) -> float:
    """Median ns per call of fn over the items, REPEATS batches."""
    per_op = []
    for _ in range(REPEATS):
        t = time.perf_counter_ns()
        for it in items:
            fn(it)
        per_op.append((time.perf_counter_ns() - t) / len(items))
    return statistics.median(per_op)


def ordered_coeffs(seed: int, paths) -> dict:
    from klcells.ordered_coeffs import LaurentElt

    by_mode = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        mode, arity = doc["mode"], doc["arity"]
        texts = [txt for section in ("c_basis", "cs_products")
                 for coeffs in doc[section].values() for txt in coeffs.values()]
        by_mode.setdefault(mode, []).append((arity, texts))

    rng = random.Random(seed)
    out = {}
    for mode, tables in sorted(by_mode.items()):
        # Pairs are drawn within one table: exponents of different tables
        # may live in different groups (lex arity).
        texts, pairs = [], []
        per_table = max(1, SAMPLE // len(tables))
        for arity, table_texts in tables:
            picked = [rng.choice(table_texts) for _ in range(per_table)]
            elts = [LaurentElt.parse(t, mode, arity) for t in picked]
            texts += [(t, arity) for t in picked]
            pairs += list(zip(elts, elts[1:] + elts[:1]))
        elts = [a for a, _ in pairs]
        probes = {
            "mul": (lambda p: p[0] * p[1], pairs),
            "add": (lambda p: p[0] + p[1], pairs),
            "split_bar": (lambda x: x.split_by_sign()[2].bar(), elts),
            "parse": (lambda ta: LaurentElt.parse(ta[0], mode, ta[1]), texts),
            "render": (lambda x: x.render(), elts),
        }
        for op, (fn, items) in probes.items():
            out[f"ordered_coeffs.{op}_ns.{mode}"] = _time_batch(fn, items)
            out[f"ordered_coeffs.{op}_ns.{mode}.ops"] = len(items)
    return out


def cyclotomic(seed: int, paths) -> dict:
    from klcells.characters import character_table
    from klcells.coxeter import build_group
    from klcells.specfile import parse_spec

    entries = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            spec = parse_spec(fh.read())
        group = build_group(spec.matrix, gen_names=spec.gen_names)
        entries.append([x for row in character_table(group).rows for x in row])
    rng = random.Random(seed)
    per_table = max(1, SAMPLE // max(1, len(entries)))
    pairs = []
    for values in entries:
        picked = [rng.choice(values) for _ in range(per_table)]
        pairs += list(zip(picked, picked[1:] + picked[:1]))
    elts = [a for a, _ in pairs]
    out = {}
    for op, (fn, items) in {"mul": (lambda p: p[0] * p[1], pairs),
                            "add": (lambda p: p[0] + p[1], pairs),
                            "conj": (lambda x: x.conj(), elts)}.items():
        out[f"cyclotomic.{op}_ns"] = _time_batch(fn, items)
        out[f"cyclotomic.{op}_ns.ops"] = len(items)
    return out


def main(argv) -> int:
    kind, seed, paths = argv[0], int(argv[1]), argv[2:]
    probe = {"ordered_coeffs": ordered_coeffs, "cyclotomic": cyclotomic}[kind]
    sys.stdout.write(json.dumps(probe(seed, paths), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
