"""Per-layer tracing for the benchmark's traced run.

Each layer function is wrapped at every ``poset_ramsey`` module attribute
that refers to it, which is where its callers look it up (for example
``cli.ramsey_exact`` and ``search.ramsey_exact`` are one function).  The
kernel twins' own module globals are left alone: calls inside a kernel are
not a layer boundary.  A wrapper records a span (name, start, end, parent
span, op id); spans stay in memory and are written out once, at the end.
A function that is missing from the program is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

_KERNEL_INTERNALS = ("poset_ramsey._kernels.pure", "poset_ramsey._kernels._ckernels")

#: (span name, module, attribute).  "Class.method" attributes are patched on
#: the class.
SPAN_TARGETS = [
    ("kernels.witness_search", "poset_ramsey._kernels", "witness_search"),
    ("kernels.find_induced_copy", "poset_ramsey._kernels", "find_induced_copy"),
    ("search.ramsey_exact", "poset_ramsey.search", "ramsey_exact"),
    ("search.find_witness", "poset_ramsey.search", "find_witness"),
    ("search.verify_witness", "poset_ramsey.search", "verify_witness"),
    ("search.ground_permutation_tables", "poset_ramsey.search", "ground_permutation_tables"),
    ("search.find_colored_copy", "poset_ramsey.search", "find_colored_copy"),
    ("bounds.spindle_bound_report", "poset_ramsey.bounds", "spindle_bound_report"),
    ("bounds.multipartite_bound_report", "poset_ramsey.bounds", "multipartite_bound_report"),
    ("bounds.log2_interval", "poset_ramsey.bounds", "log2_interval"),
    ("lattice.random_coloring", "poset_ramsey.lattice", "random_coloring"),
    ("lattice.coloring_from_text", "poset_ramsey.lattice", "coloring_from_text"),
    ("lattice.Coloring.blue_vertices", "poset_ramsey.lattice", "Coloring.blue_vertices"),
    ("posets.max_antichain", "poset_ramsey.posets", "max_antichain"),
    ("posets.dilworth_cover", "poset_ramsey.posets", "dilworth_cover"),
    ("posets.find_poset_copy", "poset_ramsey.posets", "find_poset_copy"),
    ("posets.make_boolean_poset", "poset_ramsey.posets", "make_boolean_poset"),
    ("extract.collect_chain_family", "poset_ramsey.extract", "collect_chain_family"),
    ("extract.chain_or_red", "poset_ramsey.extract", "chain_or_red"),
    ("extract.find_blue_prefix_chain", "poset_ramsey.extract", "find_blue_prefix_chain"),
    ("extract.pigeonhole_end_classes", "poset_ramsey.extract", "pigeonhole_end_classes"),
    ("extract.class_induced_poset", "poset_ramsey.extract", "class_induced_poset"),
    ("extract.assemble_spindle", "poset_ramsey.extract", "assemble_spindle"),
    ("extract.distinctness_contradiction", "poset_ramsey.extract", "distinctness_contradiction"),
    ("extract.classify_clear", "poset_ramsey.extract", "classify_clear"),
    ("extract.verify_certificate", "poset_ramsey.extract", "verify_certificate"),
    ("cli.main", "poset_ramsey.cli", "main"),
]

#: Called per vertex; counted without a span so that tracing stays cheap.
COUNT_TARGETS = [
    ("lattice.Coloring.is_blue", "poset_ramsey.lattice", "Coloring.is_blue"),
]


class Tracer:
    """Span store and per-name aggregates for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.name_id = array("l")
        self._stack: list[int] = []
        self._child = [0.0]  # time covered by children, per open span
        self.op_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self._child.append(0.0)
        self.start.append(time.perf_counter())
        return index

    def _finish(self, index: int, name: str) -> float:
        now = time.perf_counter()
        self.end[index] = now
        duration = now - self.start[index]
        self._stack.pop()
        children = self._child.pop()
        self._child[-1] += duration
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - children
        return duration

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._finish(index, name)
            if on_result is not None:
                on_result(self, args, result, duration)
            return result

        return traced

    def wrap_count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target the program lacks is recorded absent."""
        for name, module, attr in SPAN_TARGETS:
            self._patch(name, module, attr, lambda n, f: self.wrap(n, f, _RESULT_HOOKS.get(n)))
        for name, module, attr in COUNT_TARGETS:
            self._patch(name, module, attr, self.wrap_count)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, name: str, module: str, attr: str, make: Callable) -> None:
        try:
            owner: object = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            if name not in self.absent:
                self.absent.append(name)
            return
        wrapper = make(name, original)
        if path:  # a method: its callers look it up on the class
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name in _KERNEL_INTERNALS:
                continue
            if mod_name != "poset_ramsey" and not mod_name.startswith("poset_ramsey."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Span table as gzip'd tab-separated text: one line per span."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )


# Witness-search statuses of the kernel interface (see poset_ramsey._kernels).
_STATUS_NONE, _STATUS_FOUND = 0, 1


def _witness_search_result(tracer: Tracer, args: tuple, result: tuple, duration: float) -> None:
    status, _, nodes = result
    num_bits, perm_tables = args[0], args[7]
    extra = tracer.extra
    extra["kernels.witness_search.nodes"] += nodes
    for group in ("sym" if perm_tables else "plain", f"N{num_bits}"):
        extra[f"kernels.witness_search.{group}.nodes"] += nodes
        extra[f"kernels.witness_search.{group}.busy_s"] += duration
    if status in (_STATUS_FOUND, _STATUS_NONE):
        extra["search.dims_closed"] += 1
    if status == _STATUS_FOUND:
        extra["search.witnesses"] += 1


def _find_induced_copy_result(tracer: Tracer, args: tuple, result: object, duration: float) -> None:
    if result is not None:
        tracer.extra["kernels.find_induced_copy.found"] += 1


def _spindle_bound_result(tracer: Tracer, args: tuple, result: object, duration: float) -> None:
    tracer.extra["bounds.scan_steps"] += getattr(result, "k_star", None) or 0


_RESULT_HOOKS = {
    "kernels.witness_search": _witness_search_result,
    "kernels.find_induced_copy": _find_induced_copy_result,
    "bounds.spindle_bound_report": _spindle_bound_result,
}
