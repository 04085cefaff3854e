"""The three benchmark workloads: parameter pools, spec files and operations.

A workload is a list of operation templates.  The run seed picks one
parameter point per regime from a fixed pool and, per pass, the order of
the operations.  Pool points inside one regime are chosen to cost about
the same (scaled weights or the same group), so the seed changes the
inputs and the output bytes but not the size of the work.  Every pool
point has committed stdout digests (see digests.json), so any seed can
be checked for correctness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("kl_cold", "cells_warm", "exact_algebra")

_GENS = "stuvwxyz"
_H3_MATRIX = "matrix\n3\n5 2\n3"


def _spec(group: str, weights: List[str], lex: bool = False) -> str:
    """Spec text in the klcells input language; `group` is 'D 4' or a
    'matrix' block."""
    lines = [f"group {group}"]
    kw = "L lex" if lex else "L"
    lines += [f"{kw} {_GENS[i]} = {w}" for i, w in enumerate(weights)]
    return "\n".join(lines) + "\n"


def _scaled(group: str, base: List[str], factors: List[str]) -> List[Tuple[str, str]]:
    out = []
    for f in factors:
        ws = [str(Fraction(w) * Fraction(f)) for w in base]
        out.append((f"x{f.replace('/', '_')}", _spec(group, ws)))
    return out


# regime -> [(point id, spec text)].  Within a regime the points cost the
# same to within a few per cent on the KL side.
KL_POOLS: Dict[str, List[Tuple[str, str]]] = {
    # Equal parameters: the KL basis of D4 (|W| = 192) and H3 (120).
    "d4_equal": _scaled("D 4", ["1"] * 4, ["1", "2", "3"]),
    "h3_equal": _scaled(_H3_MATRIX, ["1"] * 3, ["1", "2", "3"]),
    # A zero weight: C_s C_w = C_sw for L(s) = 0.
    "b3_zero": [("x1", _spec("B 3", ["1", "1", "0"])),
                ("x2", _spec("B 3", ["2", "2", "0"])),
                ("x3", _spec("B 3", ["3", "3", "0"])),
                ("short0", _spec("B 3", ["0", "0", "1"]))],
    # Unequal integer weights.
    "b3_int": [("a1b2", _spec("B 3", ["1", "1", "2"])),
               ("a2b4", _spec("B 3", ["2", "2", "4"])),
               ("a1b3", _spec("B 3", ["1", "1", "3"])),
               ("a2b1", _spec("B 3", ["2", "2", "1"]))],
    # Unequal non-integer rational weights (Fraction exponents).
    "b3_rational": [("a1b3_2", _spec("B 3", ["1", "1", "3/2"])),
                    ("a2_3b1", _spec("B 3", ["2/3", "2/3", "1"])),
                    ("a1b5_2", _spec("B 3", ["1", "1", "5/2"])),
                    ("a3_2b1", _spec("B 3", ["3/2", "3/2", "1"]))],
    # Generic lexicographic weights (tuple exponents).
    "b3_lex": [("e1e2", _spec("B 3", ["e_1", "e_1", "e_2"], lex=True)),
               ("e2e1", _spec("B 3", ["e_2", "e_2", "e_1"], lex=True)),
               ("e1e3", _spec("B 3", ["e_1", "e_1", "e_3"], lex=True)),
               ("e3e1", _spec("B 3", ["e_3", "e_3", "e_1"], lex=True))],
}

KL_COLD_REGIMES = ("d4_equal", "h3_equal", "b3_zero", "b3_int", "b3_rational", "b3_lex")
CELLS_WARM_REGIMES = ("d4_equal", "b3_int", "b3_rational", "b3_lex")

# Groups whose character tables the exact-algebra workload computes.
CHARACTER_GROUPS = {"d5": _spec("D 5", ["1"] * 5),
                    "b5": _spec("B 5", ["1"] * 5),
                    "a6": _spec("A 6", ["1"] * 6)}
ORTHOGONALITY_GROUPS = (("D", 4), ("B", 4), ("A", 5))
# d -> pool of c = (c_1, ..., c_{d-1}) for the rank-1 centre checks.
# Constant integer c costs the same for each constant; mixed or
# fractional c costs up to twice as much at d = 8, which would make the
# seed move the pass time.
RANK1_CENTRE_POOLS: Dict[int, List[str]] = {
    d: [",".join([str(k)] * (d - 1)) for k in (1, 2, 3)] for d in (6, 7, 8)
}
# `klcells cm-rank1` sweep: the seed picks CM_SWEEP_SIZE distinct points.
CM_POOL: List[Tuple[str, ...]] = [
    ("--d", "2", "--c", "1"), ("--d", "2", "--c", "3/2"),
    ("--d", "3", "--c", "1,1/2"), ("--d", "3", "--c", "1,1"),
    ("--d", "3", "--kappa", "1,1,-2"), ("--d", "4", "--c", "1,1/2,1"),
    ("--d", "4", "--c", "1,0,1"), ("--d", "4", "--kappa", "1,-1,2,-2"),
    ("--d", "5", "--c", "1,1,1,1"), ("--d", "5", "--c", "1,1/2,1/3,1/4"),
    ("--d", "6", "--c", "1,1,1,1,1"), ("--d", "6", "--c", "1,0,1,0,1"),
]
CM_SWEEP_SIZE = 4
CONJECTURE_C_POOL = ["0,1/2,1,3,7/5", "0,1,2,5/2", "1/3,1,4,9/7", "0,3/4,1,2"]


@dataclass(frozen=True)
class Op:
    """One operation: a `klcells` CLI call or one public library call.

    `args` may hold the placeholders {spec:<id>}, {cache}, {reports}; the
    runner substitutes paths.  `key` names the committed stdout digest;
    operations with the same key must print the same bytes.  `expect` is
    the value a library call must return ("true" or "none")."""

    name: str
    kind: str  # "cli" or "lib"
    args: Tuple[str, ...]
    key: str
    cache: Optional[str] = None  # "fresh", "warm:<regime>" or "reports"
    expect: Optional[str] = None


def spec_id(regime: str, point: str) -> str:
    return f"{regime}@{point}"


def all_specs() -> Dict[str, str]:
    """Every spec file any workload may use, by spec id."""
    out = {spec_id(r, p): text for r, pts in KL_POOLS.items() for p, text in pts}
    out.update({spec_id("chars", g): t for g, t in CHARACTER_GROUPS.items()})
    return out


def cells_op(prefix: str, command: str, regime: str, point: str, cache: str) -> Op:
    sid = spec_id(regime, point)
    return Op(f"{prefix}.{command}.{regime}", "cli",
              (command, "{spec:%s}" % sid, "--cache-dir", "{cache}"),
              f"{command}|{sid}", cache=cache)


def _orth_op(kind: str, n: int) -> Op:
    return Op(f"exact.verify_orthogonality.{kind.lower()}{n}", "lib",
              ("verify_orthogonality", kind, str(n)),
              f"verify_orthogonality|{kind}{n}", expect="true")


def _centre_ops(d: int, c: str) -> List[Op]:
    return [Op(f"exact.verify_presentation.d{d}", "lib", ("verify_presentation", str(d), c),
               f"verify_presentation|{d}|{c}", expect="none"),
            Op(f"exact.is_central.d{d}", "lib", ("is_central", str(d), c),
               f"is_central|{d}|{c}", expect="true")]


def _cm_op(i: int, point: Tuple[str, ...]) -> Op:
    return Op(f"exact.cm_rank1.{i}", "cli", ("cm-rank1",) + point,
              "cm-rank1|" + " ".join(point))


def conjecture_op(cvals: str) -> Op:
    return Op("exact.conjecture", "cli",
              ("conjecture", "--reports-dir", "{reports}", "--c-values", cvals),
              f"conjecture|{cvals}", cache="reports")


def conjecture_setup_op(cvals: str) -> Op:
    """The setup run that creates the B2 snapshots; it prints 'created'."""
    op = conjecture_op(cvals)
    return Op("setup.conjecture", "cli", op.args, f"conjecture-setup|{cvals}")


def warm_fill_op(regime: str, point: str) -> Op:
    """Setup for cells_warm: a cold `klbasis` run that writes the cache."""
    return cells_op("setup", "klbasis", regime, point, f"warm:{regime}")


def _characters_ops() -> List[Op]:
    return [Op(f"exact.characters.{g}", "cli",
               ("characters", "{spec:%s}" % spec_id("chars", g)),
               f"characters|{g}") for g in sorted(CHARACTER_GROUPS)]


@dataclass
class Plan:
    """The seed's choices for one run: the operations of a pass, the setup
    operations, and the RNG that orders each pass."""

    workload: str
    ops: List[Op]
    setup_ops: List[Op]
    rng: random.Random

    def pass_order(self) -> List[Op]:
        order = list(self.ops)
        self.rng.shuffle(order)
        return order


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    points = {r: rng.choice(KL_POOLS[r])[0] for r in sorted(KL_POOLS)}
    if workload == "kl_cold":
        ops = [cells_op("cold", "cells", r, points[r], "fresh") for r in KL_COLD_REGIMES]
        setup: List[Op] = []
    elif workload == "cells_warm":
        ops = []
        for r in CELLS_WARM_REGIMES:
            for command in ("cells", "klbasis"):
                ops.append(cells_op("warm", command, r, points[r], f"warm:{r}"))
        setup = [warm_fill_op(r, points[r]) for r in CELLS_WARM_REGIMES]
    elif workload == "exact_algebra":
        ops = _characters_ops()
        ops += [_orth_op(k, n) for k, n in ORTHOGONALITY_GROUPS]
        for d in sorted(RANK1_CENTRE_POOLS):
            ops += _centre_ops(d, rng.choice(RANK1_CENTRE_POOLS[d]))
        ops += [_cm_op(i, p) for i, p in enumerate(rng.sample(CM_POOL, CM_SWEEP_SIZE))]
        cvals = rng.choice(CONJECTURE_C_POOL)
        ops.append(conjecture_op(cvals))
        setup = [conjecture_setup_op(cvals)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(workload, ops, setup, rng)


def every_op() -> List[Op]:
    """Every operation of every pool point, for recording digests.  KL
    operations are listed with a fresh cache, so the digest is that of a
    cold run; warm runs must print the same bytes."""
    ops: List[Op] = []
    for r, pts in KL_POOLS.items():
        for p, _ in pts:
            for command in ("cells", "klbasis"):
                ops.append(cells_op("record", command, r, p, "fresh"))
    ops += _characters_ops()
    ops += [_orth_op(k, n) for k, n in ORTHOGONALITY_GROUPS]
    for d, pool in sorted(RANK1_CENTRE_POOLS.items()):
        for c in pool:
            ops += _centre_ops(d, c)
    ops += [_cm_op(i, p) for i, p in enumerate(CM_POOL)]
    for cvals in CONJECTURE_C_POOL:
        ops += [conjecture_setup_op(cvals), conjecture_op(cvals)]
    return ops
