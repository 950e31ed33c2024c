"""In-memory layer spans for traced runs.

The fresh-interpreter operation child imports this module before it
times ``import repro.cli``, so it uses as little of the standard library
as it can: what it imported would be charged to the interpreter's
start-up instead of to the layer that needs it.
"""

from __future__ import annotations

import importlib
import time


class Tracer:
    """In-memory spans (name, start, end, parent) around layer calls.

    :meth:`wrap` replaces a module or class attribute, named by string,
    with a timing shim and resolves it when called: an entry point that
    the program no longer has is recorded in :attr:`absent` instead of
    failing the run.  :meth:`restore` puts every original back.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def call(self, name: str, fn: object, *args: object,
             **kwargs: object) -> object:
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, target: str, name: str) -> bool:
        """Shim ``"module:attr"`` or ``"module:Class.attr"``."""
        module_name, _, path = target.partition(":")
        try:
            owner: object = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return False
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                self.absent.append(target)
                return False
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(target)
            return False
        tracer = self

        def shim(*args: object, **kwargs: object) -> object:
            index = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        setattr(owner, attr, shim)
        self._patched.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, float]:
        """Per span name, the summed self time."""
        return {name: sum(values)
                for name, values in self_times(self.spans).items()}

    def clear(self) -> None:
        self.spans.clear()


def self_times(spans: list) -> dict[str, list[float]]:
    """Per span name, each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out.setdefault(name, []).append(end - start - child_time[i])
    return out


