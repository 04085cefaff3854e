#!/usr/bin/env python3
"""Record the SHA-256 digest of every operation's stdout into digests.json.

    python3 perfbench/record_digests.py

Runs every operation of every pool point once (KL operations cold, with
an empty cache directory; each conjecture run after the set-up run that
creates its snapshots), under PYTHONHASHSEED 0 and again under the
second hash seed, and refuses to write unless both give the same bytes
and every operation succeeded.  Run it only on a commit whose output is
known to be right: the digests are the benchmark's correctness gate.
"""

import json
import os
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    work = os.path.join(run.HERE, "_work", f"record-{os.getpid()}")
    for sub in ("out", "cold", "traces"):
        os.makedirs(os.path.join(work, sub))
    runner = run.Runner(work, None, time.monotonic() + 1e9)
    digests = {}
    problems = []
    try:
        runner.setup(workloads.Plan("record", [], [], None), 0)
        for hash_seed in (run.HASH_SEED, run.SECOND_HASH_SEED):
            for op in workloads.every_op():
                if op.key.startswith("conjecture-setup|"):
                    shutil.rmtree(os.path.join(runner.ctx, "reports"), ignore_errors=True)
                res = runner.run_op(op, hash_seed)
                if not res.ok:
                    problems.append(f"{op.key}: {res.error}")
                elif digests.setdefault(op.key, res.digest) != res.digest:
                    problems.append(f"{op.key}: digest differs under hash seed {hash_seed}")
                print(f"{hash_seed:>5} {res.wall:7.2f}s {op.key}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        for p in problems:
            print("PROBLEM", p, file=sys.stderr)
        return 1
    with open(run.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
