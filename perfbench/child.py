"""One benchmark operation, run in its own process.

    python3 perfbench/child.py lib NAME ARGS...        one public library call
    python3 perfbench/child.py --trace FILE --op-id ID --t0 T cli ARGS...
    python3 perfbench/child.py --trace FILE --op-id ID --t0 T lib NAME ARGS...

Untraced CLI operations do not use this file: the runner starts
`python3 -m klcells.cli` directly, which is what users run.  With
--trace the operation runs with spans around the public klcells calls
(see tracing.py); T is the runner's perf_counter reading when it started
this process, so the span "cli.import" covers interpreter start plus
`import klcells.cli`.  Library calls print one JSON object whose
"result" the runner checks.
"""

import json
import sys
import time
from fractions import Fraction


def lib_call(name: str, args) -> dict:
    from klcells.characters import character_table, verify_orthogonality
    from klcells.cherednik_rank1 import (Rank1Params, euler_element, is_central,
                                         verify_presentation)
    from klcells.coxeter import build_group, named_coxeter_matrix

    if name == "verify_orthogonality":
        kind, n = args
        group = build_group(named_coxeter_matrix(kind, int(n)))
        table = character_table(group)
        result = verify_orthogonality(table)
        return {"call": name, "group": f"{kind} {n}", "order": len(group),
                "irreducibles": len(table.rows), "result": result}
    d, c = args
    params = Rank1Params.from_c(int(d), [Fraction(x) for x in c.split(",")])
    if name == "verify_presentation":
        residual = verify_presentation(params)
        result = None if residual is None else residual.render()
    elif name == "is_central":
        result = is_central(euler_element(params), params)
    else:
        raise SystemExit(f"unknown library call {name!r}")
    return {"call": name, "d": int(d), "c": c, "result": result}


def main(argv) -> int:
    trace_path = None
    op_id = ""
    t0 = None
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--trace":
            trace_path = value
        elif flag == "--op-id":
            op_id = value
        elif flag == "--t0":
            t0 = float(value)
        else:
            raise SystemExit(f"unknown flag {flag}")
    mode, rest = argv[0], argv[1:]

    tracer = None
    if trace_path is not None:
        import tracing
        import klcells.cli  # noqa: F401  (the import the span measures)
        imported = time.perf_counter()
        tracer = tracing.Tracer(op_id)
        tracing.install(tracer)
    if mode == "cli":
        import klcells.cli
        rc = klcells.cli.main(rest)
    elif mode == "lib":
        doc = lib_call(rest[0], rest[1:])
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        rc = 0
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    if tracer is not None:
        tracer.write(trace_path, {"t0": t0, "imported": imported, "rc": rc})
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
