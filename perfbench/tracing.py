"""In-memory spans around calls into the library's modules.

Spans are recorded from the benchmark's own files: ``rebound`` swaps a
module attribute that library code looks up at call time (for example
``magsearch.index.greedy_search``, which stage 2 calls once per node) for a
wrapper that opens a span, calls the original and closes the span. The
library source is untouched, and every binding is restored on exit.

A hook whose module or attribute no longer exists is skipped, so a later
change that stops calling a function shows a span count of 0 instead of
breaking the benchmark.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Tracer:
    """Columnar span store: name, start, end, parent, query id and a count.

    ``count`` is the work a span reports at its boundary, such as rows
    scored or distance computations. Spans of one query share its id;
    spans outside queries carry -1.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.qid = array("q")
        self.count = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str, qid: int | None = None) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        if qid is None:
            qid = self.qid[parent] if parent >= 0 else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.qid.append(qid)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.count[idx] = count
        self._stack.pop()

    @contextmanager
    def span(self, name: str, qid: int | None = None):
        idx = self.open(name, qid)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: Callable[[tuple], str],
             qid: Callable[[tuple, dict], int] | None,
             count: Callable[[tuple, object], int] | None) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name(args), qid(args, kwargs) if qid else None)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(idx, count(args, out) if count and out is not None else 0)
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.asarray(self.names, dtype=str),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "qid": np.frombuffer(self.qid, dtype=np.int64).copy(),
                "count": np.frombuffer(self.count, dtype=np.int64).copy()}

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


@dataclass(frozen=True)
class Hook:
    """Rebind ``module.attr`` to a traced wrapper while the hook is active."""

    module: str
    attr: str
    name: Callable[[tuple], str]
    qid: Callable[[tuple, dict], int] | None = None
    count: Callable[[tuple, object], int] | None = None


def named(span: str) -> Callable[[tuple], str]:
    return lambda args: span


@contextmanager
def rebound(tracer: Tracer, hooks: list[Hook]):
    saved = []
    try:
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                continue
            orig = getattr(module, hook.attr, None)
            if orig is None:
                continue
            setattr(module, hook.attr,
                    tracer.wrap(orig, hook.name, hook.qid, hook.count))
            saved.append((module, hook.attr, orig))
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def wrapper_cost_s(calls: int = 200_000) -> float:
    """Per-call cost of a traced wrapper over a bare call, on a no-op."""
    def noop(*args, **kwargs):
        return None

    wrapped = Tracer().wrap(noop, named("noop"), None, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(1)
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped(1)
    return max(0.0, (time.perf_counter() - t0 - bare) / calls)
