"""Spans and counters recorded around sympcoh's module boundaries.

The program itself carries no tracing.  `Tracer.install` wraps the
public functions and methods listed in `_FUNCTIONS`, `_METHODS` and
`_CACHED_PROPERTIES` from the outside and rebinds every wrapper in each
sympcoh module that holds the original object, because the modules
import one another's functions by name (`from .linalg import kernel`).
`Tracer.uninstall` puts every original back.

Spans live in parallel arrays (name, start, end, parent span, op id), so
the tens of thousands of spans of a verify op stay small in memory.  A layer's
self time is its span duration minus the durations of its direct child
spans; single-threaded nesting means those children never overlap.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from functools import cached_property, wraps
from pathlib import Path
from time import perf_counter

# Module-level functions: (defining module, attribute, span name).
_FUNCTIONS = (
    ("models", "parse_model_text", "parsing"),
    ("parsing", "parse_structure_equations", "parsing"),
    ("parsing", "parse_form", "parsing"),
    ("lie", "build_lie_algebra", "lie.build"),
    ("lie", "check_properties", "lie.properties"),
    ("exterior", "contract", "exterior.contract"),
    ("exterior", "operator_matrix", "exterior.operator_matrix"),
    ("exterior", "render_form", "report.render"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "image", "linalg.image"),
    ("linalg", "subspace_intersect", "linalg.subspace_intersect"),
    ("linalg", "subspace_sum", "linalg.subspace_sum"),
    ("linalg", "quotient_structure", "linalg.quotient_structure"),
    ("linalg", "inverse", "linalg.inverse"),
    ("linalg", "solve", "linalg.solve"),
    ("symplectic", "validate_symplectic", "symplectic.validate"),
    ("cohomology", "de_rham_cohomology", "cohomology.de_rham"),
    ("verify", "random_symplectic_structure", "verify.random_structure"),
    ("verify", "operator_identity_suite", "verify.operator_suite"),
    ("verify", "theorem_suite", "verify.theorem_suite"),
    ("verify", "equivalence_suite", "verify.equivalence_suite"),
)

# Methods: (module, class, attribute, span name, memoized).
_METHODS = (
    ("exterior", "Form", "wedge", "exterior.wedge", False),
    ("linalg", "QMatrix", "__matmul__", "linalg.matmul", False),
    ("symplectic", "SymplecticStructure", "primitive_subspace", "symplectic.primitive", False),
    ("symplectic", "SymplecticStructure", "lefschetz_decompose", "symplectic.lefschetz", False),
    ("cohomology", "SymplecticCohomology", "primitive_ph_plus", "cohomology.primitive_d_plus_d_lambda", True),
    ("cohomology", "SymplecticCohomology", "primitive_ph_d", "cohomology.primitive_d", False),
    ("cohomology", "SymplecticCohomology", "hrs_group", "cohomology.hrs", True),
    ("cohomology", "SymplecticCohomology", "decomposition", "cohomology.hrs", True),
    ("cohomology", "SymplecticCohomology", "hlc", "cohomology.hlc", True),
    ("cohomology", "SymplecticCohomology", "dd_lemma", "cohomology.hlc", False),
    ("cohomology", "SymplecticCohomology", "dd_lemma_per_degree", "cohomology.hlc", True),
    ("cohomology", "SymplecticCohomology", "l_cohomology_matrix", "cohomology.hlc", True),
    ("report", "Report", "to_json", "report.render", False),
)

# cached_property members: (module, class, attribute, span name or None).
# Their `.func` gets the span; the class attribute is swapped for a data
# descriptor that also sees the accesses served from the instance cache.
_CACHED_PROPERTIES = (
    ("symplectic", "SymplecticStructure", "star_op", "symplectic.star"),
    ("cohomology", "SymplecticCohomology", "properties", None),
    ("cohomology", "SymplecticCohomology", "de_rham", None),
    ("cohomology", "SymplecticCohomology", "betti", None),
    ("cohomology", "SymplecticCohomology", "dlambda_dims", "cohomology.d_lambda"),
    ("cohomology", "SymplecticCohomology", "d_plus_dlambda", "cohomology.d_plus_d_lambda"),
    ("cohomology", "SymplecticCohomology", "ddlambda_dims", "cohomology.dd_lambda"),
)

# Every *_check method of SymplecticCohomology shares one span.
_CHECKS_SPAN = "cohomology.checks"

# Functions whose matrix or subspace arguments are summed into
# `<span>.cells` (rows x cols) and `<span>.nnz` (nonzero entries).
_SIZED = {
    "linalg.rref", "linalg.kernel", "linalg.image", "linalg.subspace_intersect",
    "linalg.subspace_sum", "linalg.quotient_structure", "linalg.inverse",
    "linalg.solve", "linalg.matmul",
}

OP_SPAN = "op"


def _sympcoh_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "sympcoh" or name.startswith("sympcoh.")) and m is not None]


class Tracer:
    """Records spans and counters while installed; does nothing otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counters: dict[str, int] = defaultdict(int)
        self.memo_calls: dict[str, int] = defaultdict(int)
        self.memo_hits: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.op_id = -1
        self._stack = [-1]
        self._memo_seen: dict[tuple, object] = {}
        self._op_counts: dict[int, tuple[int, int]] = {}
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Run one benchmark op under a root span; memo identities reset per op."""
        self.op_id = op_id
        self._memo_seen.clear()
        forms, entries = self._exact_totals()
        idx = self._open(self._name_id(OP_SPAN))
        try:
            return fn()
        finally:
            self._close(idx)
            after = self._exact_totals()
            self._op_counts[op_id] = (after[0] - forms, after[1] - entries)

    def _exact_totals(self) -> tuple[int, int]:
        return self.counters["exterior.form.count"], self.counters["linalg.qmatrix.entries"]

    def _sizes(self, name: str, args) -> None:
        cells = nnz = 0
        for arg in args:
            matrix = getattr(arg, "basis", arg)  # a Subspace counts by its basis
            if not hasattr(matrix, "rows"):
                continue  # a vector argument, as in solve(m, b)
            cells += matrix.nrows * matrix.ncols
            nnz += sum(1 for row in matrix.rows for x in row if x)
        self.counters[name + ".cells"] += cells
        self.counters[name + ".nnz"] += nnz

    def _note_bits(self, reduced) -> None:
        best = self.max_bits
        for row in reduced.rows:
            for x in row:
                if x:
                    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
                    if bits > best:
                        best = bits
        self.max_bits = best

    def _memo(self, label: str, key: tuple, result):
        """Count a memoized call; a hit returns the very object returned before."""
        self.memo_calls[label] += 1
        seen = self._memo_seen.get(key)
        if seen is result:
            self.memo_hits[label] += 1
        else:
            self._memo_seen[key] = result

    # -- wrappers -------------------------------------------------------

    def _spanned(self, fn, name: str, memo_label: str | None = None):
        nid = self._name_id(name)
        sized = name in _SIZED
        is_rref = name == "linalg.rref"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if sized:
                self._sizes(name, args)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if is_rref:
                self._note_bits(result[0])
            if memo_label is not None:
                self._memo(memo_label, (id(args[0]), memo_label, args[1:],
                                        tuple(sorted(kwargs.items()))), result)
            return result

        return wrapper

    def _counting_init(self, original, counter: str, entries: bool):
        counters = self.counters

        @wraps(original)
        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            counters[counter] += obj.nrows * obj.ncols if entries else 1

        return __init__

    # -- install / uninstall ------------------------------------------------

    def _swap(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr) if not isinstance(owner, type) else owner.__dict__[attr]
        self._undo.append((owner, attr, original, replacement))
        setattr(owner, attr, replacement)

    def _rebind_everywhere(self, original, wrapper) -> int:
        holders = [(module, attr) for module in _sympcoh_modules()
                   for attr, value in vars(module).items() if value is original]
        for module, attr in holders:
            self._swap(module, attr, wrapper)
        return len(holders)

    def install(self) -> None:
        import sympcoh  # noqa: F401  (loads every submodule)

        mods = {m.__name__.rpartition(".")[2]: m for m in _sympcoh_modules()}
        for modname, attr, span in _FUNCTIONS:
            original = getattr(mods[modname], attr)
            if not self._rebind_everywhere(original, self._spanned(original, span)):
                raise RuntimeError(f"sympcoh.{modname}.{attr} not found")
        for modname, clsname, attr, span, memoized in _METHODS:
            cls = getattr(mods[modname], clsname)
            label = f"{clsname}.{attr}" if memoized else None
            self._swap(cls, attr, self._spanned(cls.__dict__[attr], span, label))
        coh_cls = mods["cohomology"].SymplecticCohomology
        for attr, value in list(vars(coh_cls).items()):
            if attr.endswith("_check") and callable(value):
                self._swap(coh_cls, attr, self._spanned(value, _CHECKS_SPAN))
        for modname, clsname, attr, span in _CACHED_PROPERTIES:
            cls = getattr(mods[modname], clsname)
            prop = cls.__dict__[attr]
            if span is not None:
                self._swap(prop, "func", self._spanned(prop.func, span))
            self._swap(cls, attr, _ObservedCachedProperty(self, prop, f"{clsname}.{attr}"))
        for cls, counter, entries in (
            (mods["exterior"].Form, "exterior.form.count", False),
            (mods["linalg"].QMatrix, "linalg.qmatrix.entries", True),
        ):
            self._swap(cls, "__init__", self._counting_init(cls.__dict__["__init__"], counter, entries))
        holder = self._holder_of({id(undo[2]) for undo in self._undo})
        if holder:
            raise RuntimeError(f"{holder} still holds an unwrapped original")

    def uninstall(self) -> None:
        replacements = [undo[3] for undo in self._undo]  # alive while ids are compared
        while self._undo:
            owner, attr, original, _ = self._undo.pop()
            setattr(owner, attr, original)
        holder = self._holder_of({id(obj) for obj in replacements})
        if holder:
            raise RuntimeError(f"{holder} still holds a tracing wrapper")

    @staticmethod
    def _holder_of(ids: set[int]) -> str | None:
        """Name of a sympcoh module or class attribute whose value is in *ids*."""
        for module in _sympcoh_modules():
            for attr, value in vars(module).items():
                if id(value) in ids:
                    return f"{module.__name__}.{attr}"
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for cattr, cvalue in vars(value).items():
                        if id(cvalue) in ids or (isinstance(cvalue, cached_property)
                                                 and id(cvalue.func) in ids):
                            return f"{module.__name__}.{attr}.{cattr}"
        return None

    # -- results --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time (s) and call count."""
        n = len(self.span_start)
        own = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                own[parent] -= self.span_end[i] - self.span_start[i]
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.span_name[i]]
            totals[name] += own[i]
            calls[name] += 1
        return totals, calls

    def op_signatures(self) -> dict[int, tuple]:
        """Per op: Form and QMatrix-entry counts plus calls per span name."""
        calls: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for i in range(len(self.span_start)):
            calls[self.span_op[i]][self.span_name[i]] += 1
        return {
            op: (counts, tuple(sorted(calls[op].items())))
            for op, counts in self._op_counts.items()
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines [name, start, end, parent, op], counters first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({
                "counters": dict(self.counters),
                "max_bits": self.max_bits,
                "memo_calls": dict(self.memo_calls),
                "memo_hits": dict(self.memo_hits),
                "spans": len(self.span_start),
            }) + "\n")
            names = self.names
            for i in range(len(self.span_start)):
                out.write(
                    f'["{names[self.span_name[i]]}",{self.span_start[i]!r},'
                    f"{self.span_end[i]!r},{self.span_parent[i]},{self.span_op[i]}]\n"
                )


class _ObservedCachedProperty:
    """Data descriptor in front of a cached_property, counting cache hits."""

    def __init__(self, tracer: Tracer, prop, label: str):
        self.tracer = tracer
        self.prop = prop
        self.label = label

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        result = self.prop.__get__(obj, owner)
        self.tracer._memo(self.label, (id(obj), self.label), result)
        return result

    def __set__(self, obj, value):
        # Defining __set__ makes this a data descriptor, so __get__ runs
        # even once the value sits in the instance __dict__.
        obj.__dict__[self.prop.attrname] = value
