"""Layer spans recorded from outside the library.

`Tracer.installed()` rebinds each traced function in every ``treefield``
module that holds it -- including names bound by ``from ... import`` such as
``correlator.partition_to_tree`` or ``treestate.fuse_batch`` -- to a wrapper
that records one span per call, and restores the originals on exit.  Spans
(name, op, parent, start, end) stay in compact in-memory arrays until the
run ends; self time is a span's duration minus the time of its nested traced
spans.  The library is synchronous and single-threaded, so there is no
waiting or queueing to record.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

# module -> traced functions; the names double as metric prefixes
TRACED: Dict[str, Tuple[str, ...]] = {
    "dyadic": ("partition_to_tree", "tree_to_partition", "common_refinement",
               "regular_partition", "minimal_supporting_partition"),
    "correlator": ("request_from_document", "n_point", "staircase_samples"),
    "treestate": ("vacuum_expectation_batch",),
    "fusion": ("fuse_batch",),
    "thompson": ("parse_word", "compose", "reduce", "pullback_partition",
                 "transformed_vacuum_expectation_batch"),
    "spectral": ("eigendecompose",),
    "models": ("preset",),
}
SPAN_NAMES: Tuple[str, ...] = tuple(
    f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _leaves_and_insertions(tree, V, leaf_ops, *_, **__) -> Tuple[Tuple[str, int], ...]:
    return (("leaves", tree.leaf_count()), ("insertions", len(leaf_ops)))


def _generators(word, *_, **__) -> Tuple[Tuple[str, int], ...]:
    return (("generators", len(str(word).split())),)


# counters taken from a call's arguments, outside the span's timed interval
COUNTERS: Dict[str, Callable] = {
    "treestate.vacuum_expectation_batch": _leaves_and_insertions,
    "thompson.parse_word": _generators,
}


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counters: Dict[str, int] = {}
        self.current_op = -1
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = SPAN_NAMES.index(name)
        count = COUNTERS.get(name)
        names, ops, parents = self.name, self.op, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if count is not None:
                for key, k in count(*args, **kwargs):
                    self.counters[key] = self.counters.get(key, 0) + k
            idx = len(names)
            names.append(nid)
            ops.append(self.current_op)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "treefield" or key.startswith("treefield."))]
        rebound: List[Tuple[object, str, Callable]] = []
        try:
            for mod_name, fns in TRACED.items():
                home = sys.modules[f"treefield.{mod_name}"]
                for fn_name in fns:
                    orig = getattr(home, fn_name)
                    wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapper)
                                rebound.append((m, attr, orig))
            yield self
        finally:
            for m, attr, orig in reversed(rebound):
                setattr(m, attr, orig)

    def totals(self) -> Dict[str, Tuple[int, int]]:
        """name -> (calls, self ns) over all recorded spans."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_ns[k] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_ns[k]) for k, name in enumerate(SPAN_NAMES)}

    def span_count(self) -> int:
        return len(self.name)


def layer_metrics(totals: Dict[str, Tuple[int, int]], per: int,
                  names: Tuple[str, ...]) -> Dict[str, float]:
    """`<module>.<function>.self_ms` and `.calls`, each divided by `per`."""
    out: Dict[str, float] = {}
    for name in names:
        calls, self_ns = totals[name]
        out[f"{name}.self_ms"] = self_ns / 1e6 / per
        out[f"{name}.calls"] = calls / per
    return out
