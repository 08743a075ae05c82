"""Span tracer that wraps twotower's public functions from outside the package.

Modules import each other with `from .x import y`, so a function lives
under its name in several module namespaces; `install` rebinds the
wrapper in every one of them and `uninstall` puts the originals back.
Spans stay in memory (name, parent, op, start, end) until `write`, and
self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

LAYERS = {
    "arith": ("factor", "is_fundamental", "is_prime", "kronecker", "crt_prime_search"),
    "quadforms": ("narrow_class_group", "wide_class_group", "prime_class_info"),
    "redei": ("classify_open_case", "redei_matrix"),
    "tower": ("analyze", "cl2_order", "splitting_count"),
    "search": ("complete_tuple",),
    "splitlab": ("iter_rows", "verify_real_pair", "verify_imag_triple"),
}


PACKAGE = "twotower"


class Tracer:
    def __init__(self):
        self.names = ["op"]  # id 0 is the root span of one benchmark op
        self.calls = [0]
        self.span_name = array("i")
        self.parent = array("i")
        self.span_op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.discs: set[int] = set()
        self.proven = 0
        self.fields_returned = 0
        self.primes_checked = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.span_op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def run_op(self, fn, *args):
        """Run one benchmark op under a root span."""
        self.op_id += 1
        self.calls[0] += 1
        i = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(i)

    # -- wrapping ------------------------------------------------------

    def _observer(self, name: str):
        """Counter update for the few functions whose results feed a ratio."""
        if name.startswith("quadforms."):
            return lambda args, result: self.discs.add(args[0])
        if name == "tower.analyze":

            def proven(args, result):
                self.proven += result.verdict == "InfiniteProven"

            return proven
        if name == "search.complete_tuple":

            def returned(args, result):
                self.fields_returned += len(result)

            return returned
        if name.startswith("splitlab.verify_"):

            def checked(args, result):
                self.primes_checked += result.checked

            return checked
        return None

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, observe = self.calls, self._observer(name)

        if inspect.isgeneratorfunction(fn):
            # One span per resumption; the call is counted once.
            def wrapper(*args, **kwargs):
                calls[name_id] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    self.primes_checked += 1
                    yield item

        else:

            def wrapper(*args, **kwargs):
                calls[name_id] += 1
                i = self._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(i)
                if observe is not None:
                    observe(args, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span: its duration minus its children's."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def classify_calls_in_search(self) -> int:
        """classify_open_case spans with a complete_tuple span above them."""
        classify = self.names.index("redei.classify_open_case")
        complete = self.names.index("search.complete_tuple")
        n = 0
        for i, name_id in enumerate(self.span_name):
            if name_id != classify:
                continue
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != complete:
                p = self.parent[p]
            n += p >= 0
        return n

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        own = self.self_times()
        by_name = [0.0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            by_name[name_id] += own[i]
        out: dict[str, tuple[float, str]] = {}
        for layer, fns in LAYERS.items():
            total = 0.0
            for fn_name in fns:
                name_id = self.names.index(f"{layer}.{fn_name}")
                out[f"{layer}.{fn_name}.calls"] = (self.calls[name_id], "count")
                out[f"{layer}.{fn_name}.self_s"] = (by_name[name_id], "s")
                total += by_name[name_id]
            out[f"{layer}.self_s"] = (total, "s")
        analyzed = self.calls[self.names.index("tower.analyze")]
        classified = self.classify_calls_in_search()
        out["quadforms.distinct_disc"] = (len(self.discs), "count")
        out["tower.proven_ratio"] = (self.proven / analyzed if analyzed else 0.0, "ratio")
        out["search.accept_ratio"] = (
            self.fields_returned / classified if classified else 0.0,
            "ratio",
        )
        out["splitlab.primes_checked"] = (self.primes_checked, "count")
        return out

    def write(self, path) -> int:
        """Write every span as TSV (id, parent, op, name, start, end); return the count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for i, (p, op, name_id, s, e) in enumerate(
                zip(self.parent, self.span_op, self.span_name, self.start, self.end)
            ):
                fh.write(f"{i}\t{p}\t{op}\t{names[name_id]}\t{s:.9f}\t{e:.9f}\n")
        return len(self.start)
