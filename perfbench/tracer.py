"""Spans and counters recorded around calls into the program's layers.

The benchmark traces from its own files: ``Tracer.wrap`` replaces a function
at the attribute where its caller looks it up (``nogo._nullspace`` is found
in the ``nogo`` module's globals at call time) and ``Tracer.restore`` puts
the original back.  A name that no longer exists is recorded as absent
rather than raising, so the layers it fed are reported as absent.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else None
        t.spans.append([self.name, perf_counter(), 0.0, parent, t.run])
        t._stack.append(self.index)

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._stack.pop()


_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """In-memory spans ``[name, start, end, parent index, run id]`` and
    counters.  Disabled, it records nothing and ``span`` costs one call."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.run: object = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._tried: set[str] = set()
        self._wrapped: set[str] = set()

    @property
    def absent(self) -> set[str]:
        """Span names none of whose attributes could be wrapped."""
        return self._tried - self._wrapped

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Callable[[object], None] | None = None,
    ) -> None:
        """Record a span ``name`` and count one call each time ``owner.attr``
        is called; ``on_result`` sees every return value."""
        self._tried.add(name)
        original = getattr(owner, attr, None)
        if not callable(original):
            return
        self._wrapped.add(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            self.counts[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def child_time(self, parents: set[str], children: set[str] | None = None) -> float:
        """Time the direct children (all, or those named in ``children``) of
        spans named in ``parents`` cover.  Calls are single-threaded, so
        sibling spans never overlap and coverage is their summed duration."""
        covered = 0.0
        for n, start, end, parent, _ in self.spans:
            if parent is not None and self.spans[parent][0] in parents:
                if children is None or n in children:
                    covered += end - start
        return covered

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with path.open("w", encoding="utf-8") as out:
            for n, start, end, parent, run in self.spans:
                out.write(
                    json.dumps({"name": n, "start": start, "end": end, "parent": parent, "run": run})
                    + "\n"
                )
