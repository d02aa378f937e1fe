"""Spans and counters around sqcirc's public functions, from outside the package.

The package binds its helpers with `from .x import y`, so a function is
looked up under several module names.  `Tracer.install` replaces every
binding of each traced function in every loaded `sqcirc` module, so nested
calls are recorded too.  Coarse functions get a span each; hot leaves only
bump a counter on the innermost open span.  Records stay in memory until
`dump` writes them at the end of the process.
"""
from __future__ import annotations

import inspect
import json
import sys
import time

SPANS = (
    "cli.main",
    "verifier.exhaustive_search",
    "verifier.verify_word",
    "verifier.theorem_check",
    "verifier.analyze",
    "verifier.json_document",
    "verifier.corpus_analyze",
    "injection.build_injection",
    "circuits.all_small_circuits",
    "circuits.circuit_order_ranges",
    "circuits.small_circuits",
    "squares.distinct_squares",
    "squares.square_classes",
    "words.complexity_profile",
)
COUNTED = (
    "squares.match_runs",
    "words.least_rotation",
    "circuits.realize",
    "circuits.maximal_edge",
    "injection.inject_class",
)
# In a sweep the operation is one canonical word: each verify_word call
# starts the next operation, and the distinct_squares call that follows it
# belongs to the same one.
OP_ROOT = "verifier.verify_word"

# span record fields
NAME, PARENT, OP, START, END, COUNTS, SIZE = range(7)


class Tracer:
    def __init__(self, op=None) -> None:
        self.op = op
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.loose: dict[str, int] = {}  # counts made outside every span

    def install(self) -> None:
        for qualname in SPANS + COUNTED:
            mod, func = qualname.split(".")
            original = getattr(sys.modules[f"sqcirc.{mod}"], func)
            if qualname in COUNTED:
                wrapper = self._counted(qualname, original)
            elif inspect.isgeneratorfunction(original):
                wrapper = self._generator_span(qualname, original)
            else:
                wrapper = self._span(qualname, original)
            for name, module in list(sys.modules.items()):
                if name == "sqcirc" or name.startswith("sqcirc."):
                    for attr, value in vars(module).items():
                        if value is original:
                            setattr(module, attr, wrapper)

    def _open(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, self.op,
               time.perf_counter(), 0.0, {}, -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self.stack.pop()
        rec[END] = time.perf_counter()

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            if name == OP_ROOT:
                self.op = args[0]
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if isinstance(result, (dict, list, frozenset)):
                rec[SIZE] = len(result)
            return result
        return wrapper

    def _generator_span(self, name, fn):
        # One span per resumption; the n-th item yielded is operation n.
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            item_no = 0
            while True:
                item_no += 1
                self.op = item_no
                rec = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                yield item
        return wrapper

    def _counted(self, name, fn):
        spans, stack, loose = self.spans, self.stack, self.loose

        def wrapper(*args, **kwargs):
            counts = spans[stack[-1]][COUNTS] if stack else loose
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "loose": self.loose}, fh)


def summarize(trace: dict) -> dict[str, dict[str, float]]:
    """Per function: calls, self seconds, items returned, leaf counts under it.

    Self time is a span's duration minus the durations of its direct child
    spans; spans nest strictly because the program is single-threaded.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, dict[str, float]] = {}
    leaves: dict[str, float] = dict(trace["loose"])
    for i, rec in enumerate(spans):
        agg = out.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0, "returned": 0})
        agg["calls"] += 1
        agg["self_s"] += rec[END] - rec[START] - child_time[i]
        if rec[SIZE] >= 0:
            agg["returned"] += rec[SIZE]
        for leaf, c in rec[COUNTS].items():
            agg[leaf] = agg.get(leaf, 0) + c
            leaves[leaf] = leaves.get(leaf, 0) + c
    for leaf, c in leaves.items():
        out[leaf] = {"calls": c}
    return out


def merge(into: dict, other: dict) -> None:
    for name, agg in other.items():
        dst = into.setdefault(name, {})
        for key, value in agg.items():
            dst[key] = dst.get(key, 0) + value
