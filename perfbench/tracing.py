"""Spans and counters recorded around the public functions of klcells.

A traced child process calls `install`, which replaces every reference to
a listed public function (in every loaded klcells module, so calls
between modules such as cells_report -> left_preorder are caught too)
with a wrapper that records a span.  Spans are kept in memory and
written to one JSON file when the operation ends.  Nothing under src/
changes; a target that a later version of the library renames or
removes is reported on stderr and skipped.

A span is [name, start, end, parent, op]: perf_counter seconds, the
index of the enclosing span or None, and the operation's id.  Self time is a span's duration
minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional

_json_dump = json.dump
_json_dumps = json.dumps
_json_load = json.load

# (module, attribute, span name)
FUNCTIONS = [
    ("klcells.coxeter", "build_group", "coxeter.build_group"),
    ("klcells.hecke", "kl_basis", "hecke.kl_basis"),
    ("klcells.characters", "character_table", "characters.character_table"),
    ("klcells.characters", "decompose", "characters.decompose"),
    ("klcells.characters", "verify_orthogonality", "characters.verify_orthogonality"),
    ("klcells.cells", "left_preorder", "cells.left_preorder"),
    ("klcells.cells", "cells", "cells.cells"),
    ("klcells.cells", "left_cell_character", "cells.cell_character"),
    ("klcells.cells", "cells_report", "cells.report"),
    ("klcells.cherednik_rank1", "verify_presentation", "cherednik_rank1.verify_presentation"),
    ("klcells.cherednik_rank1", "is_central", "cherednik_rank1.is_central"),
    ("klcells.conjecture", "run_conjecture_suite", "conjecture.suite"),
]
# (module, class, method, span name)
METHODS = [
    ("klcells.coxeter", "CoxeterGroup", "conjugacy_classes", "coxeter.conjugacy_classes"),
    ("klcells.hecke", "KLTable", "to_json_dict", "hecke.to_json_dict"),
    ("klcells.hecke", "KLTable", "from_json_dict", "hecke.from_json_dict"),
]


def _is_kl_doc(obj) -> bool:
    return isinstance(obj, dict) and "c_basis" in obj and "cs_products" in obj


class Tracer:
    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, name: Optional[str] = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        if name is not None:
            self.spans[idx][0] = name
        self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn: Callable, name: Callable[..., str],
             on_result: Optional[Callable] = None) -> Callable:
        """`name(args, kwargs, result)` gives the span name once the call
        has returned; `on_result(args, kwargs, result)` updates counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin("?")
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, name(args, kwargs, result))
                if on_result is not None:
                    on_result(args, kwargs, result)
        return traced

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra, spans=self.spans, counters=self.counters)
        with open(path, "w", encoding="utf-8") as fh:
            _json_dump(doc, fh)


def _replace_everywhere(old, new) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "klcells" or modname.startswith("klcells."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def _count_preorder(tracer: Tracer):
    def on_result(args, kwargs, graph):
        succ = getattr(graph, "succ", None)
        if succ is not None:
            # Edges other than the reflexive loops.
            tracer.count("cells.preorder_edges", sum(len(s) for s in succ) - len(succ))
    return on_result


def _count_cells(tracer: Tracer):
    def on_result(args, kwargs, partition):
        kind = args[1] if len(args) > 1 else kwargs.get("kind")
        blocks = getattr(partition, "blocks", None)
        if blocks is not None and kind in ("left", "two-sided"):
            tracer.count("cells.left_cells" if kind == "left" else "cells.two_sided_cells",
                         len(blocks))
    return on_result


def install(tracer: Tracer) -> None:
    """Wrap the public functions; klcells and its submodules must already
    be imported."""
    counters = {"cells.left_preorder": _count_preorder(tracer),
                "cells.cells": _count_cells(tracer)}
    for modname, attr, span in FUNCTIONS:
        mod = sys.modules.get(modname)
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is None:
            sys.stderr.write(f"trace: {modname}.{attr} not found, not traced\n")
            continue
        wrapped = tracer.wrap(fn, lambda a, k, r, span=span: span, counters.get(span))
        _replace_everywhere(fn, wrapped)
    for modname, clsname, attr, span in METHODS:
        cls = getattr(sys.modules.get(modname), clsname, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            sys.stderr.write(f"trace: {modname}.{clsname}.{attr} not found, not traced\n")
            continue
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(
                tracer.wrap(raw.__func__, lambda a, k, r, span=span: span)))
        else:
            setattr(cls, attr, tracer.wrap(raw, lambda a, k, r, span=span: span))
    # Serialization of KL tables goes through the json module; a call whose
    # argument or result is a KL table document is a hecke span.
    json.dump = tracer.wrap(
        _json_dump, lambda a, k, r: "hecke.json_dump" if _is_kl_doc(a[0]) else "json.dump")
    json.dumps = tracer.wrap(
        _json_dumps, lambda a, k, r: "hecke.json_dump" if _is_kl_doc(a[0]) else "json.dumps")
    json.load = tracer.wrap(
        _json_load, lambda a, k, r: "hecke.json_load" if _is_kl_doc(r) else "json.load")


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [(s[2] - s[1]) if s[2] is not None else 0.0 for s in spans]
    for s in spans:
        parent = s[3]
        if parent is not None and s[2] is not None:
            out[parent] -= s[2] - s[1]
    return out
