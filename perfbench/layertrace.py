"""Spans around calls into echelon's layers, installed from outside.

`Tracer.install()` replaces each public function and method named in
`LAYERS` with a wrapper that records a span: (name, start, end, parent span,
job id). Module-level functions are also replaced wherever another echelon
module re-imported them (`echelon.systems.gauche_rref`, `echelon.cli.solve`,
...). A name missing from the program is listed in `absent` instead of
failing. `uninstall()` restores every original.

Scalar arithmetic dunders are not wrapped: they run once per field
operation, so wrapping them would distort the run. Their time counts toward
the self time of the calling layer.

`summarize(groups, names)` turns recorded spans into per-layer totals.
"""
from __future__ import annotations

import sys
import time

# layer -> (module, public functions and Class.method names)
LAYERS = {
    "cli": ("echelon.cli", (
        "main", "build_parser", "parse_matrix", "parse_system",
        "format_matrix", "format_vector",
    )),
    "scalars": ("echelon.scalars", (
        "parse_scalar", "as_scalar", "GF", "FieldSpec.zero", "FieldSpec.one", "Scalar.inv",
    )),
    "matrices": ("echelon.matrices", (
        "std_basis",
        "Vector.__post_init__", "Vector.from_values", "Vector.zero", "Vector.is_zero",
        "Vector.__add__", "Vector.__rmul__", "Vector.__eq__", "Vector.__str__",
        "Matrix.__post_init__", "Matrix.from_rows", "Matrix.from_columns",
        "Matrix.identity", "Matrix.zero", "Matrix.entry", "Matrix.row", "Matrix.column",
        "Matrix.__matmul__", "Matrix.__eq__", "Matrix.to_rows", "Matrix.with_entry",
        "Matrix.take_columns", "Matrix.augment", "Matrix.__str__",
    )),
    "gauche": ("echelon.gauche", (
        "gauche_rref", "gauche_basis", "journal_vector",
        "KeeperState.__init__", "KeeperState.llq", "KeeperState.admit",
    )),
    "rowops": ("echelon.rowops", (
        "rref_violation", "is_rref", "gauss_jordan", "apply_ops",
        "equivalence_script", "format_op", "parse_ops",
    )),
    "nullspace": ("echelon.nullspace", (
        "null_basis", "graph_relations", "null_contains", "null_equal",
        "column_in_span", "columns_independent",
        "GraphRelations.lines", "GraphRelations.solution_for",
    )),
    "systems": ("echelon.systems", (
        "solve", "solution_equivalent", "row_equivalent",
        "LinearSystem.__post_init__", "LinearSystem.augmented",
    )),
}

_SWEEP = "gauche.gauche_rref"
_KEEPER_STATE = "gauche.KeeperState.__init__"
_COLUMN = "gauche.KeeperState.llq"
_OPLOG = "rowops.gauss_jordan"
_PARSE = ("cli.parse_matrix", "cli.parse_system")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list = []
        self.stack = [-1]
        self.job = -1
        self.ops_logged = 0
        self.absent: list[str] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count_ops = name == _OPLOG

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, self.job)
            if count_ops:
                self.ops_logged += len(getattr(result, "ops", ()))
            return result

        return traced

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        self.absent = []
        replaced = {}
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules.get(modname)
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
                if raw is None:
                    self.absent.append(f"{layer}.{qual}")
                    continue
                label = f"{layer}.{qual}"
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(label, raw.__func__)))
                elif callable(raw):
                    wrapped = self._wrap(label, raw)
                    self._set(owner, attr, wrapped)
                    if not owner_name:
                        replaced[id(raw)] = (raw, wrapped)
                else:
                    self.absent.append(label)
        # rebind module-level functions wherever another module re-imported them
        for modname, module in list(sys.modules.items()):
            if modname != "echelon" and not modname.startswith("echelon."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(namespace, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def take(self) -> list:
        """The spans recorded so far; recording starts afresh."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(groups, names: list[str]) -> dict[str, float]:
    """Per-layer totals over groups of spans (name index, start, end,
    parent, job). Span ids and parents are positions within their group.

    Self time is a span's duration minus the durations of its direct
    children. A KeeperState built outside gauche_rref is a sweep of its own.
    """
    layer_of = [name.split(".", 1)[0] for name in names]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    out.update({"cli.parse_s": 0.0, "gauche.sweeps": 0, "gauche.columns": 0})
    for spans in groups:
        durations = [end - start for _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        for (_, _, _, parent, _), dur in zip(spans, durations):
            if parent >= 0:
                child[parent] += dur
        for sid, (index, _, _, parent, _) in enumerate(spans):
            layer = layer_of[index]
            out[f"{layer}.self_s"] += durations[sid] - child[sid]
            out[f"{layer}.calls"] += 1
            name = names[index]
            if name in _PARSE:
                out["cli.parse_s"] += durations[sid]
            elif name == _SWEEP or (
                name == _KEEPER_STATE and (parent < 0 or names[spans[parent][0]] != _SWEEP)
            ):
                out["gauche.sweeps"] += 1
            elif name == _COLUMN:
                out["gauche.columns"] += 1
    return out
