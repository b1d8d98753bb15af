"""In-memory span tracer that wraps wavefocp's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and the
benchmark op it belongs to, plus an optional work quantity (points, nodes,
bytes, flops) computed from its arguments or result after the span closes.
A wrapper is bound to the function's defining module and to every name that
a ``from ... import`` already bound elsewhere in the package, so calls
between modules are traced too. Direct recursion (``expressions.evaluate``
walking its tree) stays inside the outermost span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

Quantity = Callable[[tuple, object], float]

OP_SPAN = "bench.op"


class Tracer:
    """Records spans in flat arrays; ``summary`` derives self times and counts."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, nid: int, op_id: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(op_id)
        self.qty.append(0.0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark op; every span inside carries op_id."""
        i = self._open(0, op_id)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn: Callable, quantity: Quantity | None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_id, stack, op = self.name_id, self._stack, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                return fn(*args, **kwargs)
            i = self._open(nid, op[top] if top >= 0 else -1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if quantity is not None:
                self.qty[i] = quantity(args, result)
            return result

        return traced

    def install(self, package: str, targets: dict[str, dict[str, Quantity | None]]) -> None:
        """Wrap package.<module>.<function> for every target, everywhere it is bound."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        for module_name, functions in targets.items():
            home = sys.modules[f"{package}.{module_name}"]
            for fname, quantity in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module_name}.{fname}", original, quantity)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (span minus its children), quantity sum and max."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        qty = np.frombuffer(self.qty)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {
                "calls": float(sel.sum()),
                "self_s": float(self_s[sel].sum()),
                "qty_sum": float(qty[sel].sum()),
                "qty_max": float(qty[sel].max()) if sel.any() else 0.0,
            }
        return out

    def write(self, path: Path) -> None:
        """Dump all spans (times in seconds from the first span) as a compressed .npz."""
        start = np.frombuffer(self.start)
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=start - t0,
            end=np.frombuffer(self.end) - t0,
            qty=np.frombuffer(self.qty),
        )
