"""In-memory spans around the benchmark's calls into gpcal.

A span records (name, start, end, parent, seed).  Names are
``<layer>.<call>``, where the layer is a module of ``gpcal`` (``kernels``,
``gp``, ``loo``, ``estimation``, ``rpie``, ``bench``, ``cli``) or
``workload`` for the benchmark's own operation boundaries.  With tracing
off, ``span`` returns one shared no-op context, so untraced runs pay a
method call and nothing else.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool, seed: int):
        self.enabled = enabled
        self.seed = seed
        self.spans = []          # [name, start, end, parent]
        self._stack = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return _Span(self, name)

    def durations(self, name: str) -> list:
        """Wall seconds of every closed span called ``name``."""
        return [end - start for n, start, end, _ in self.spans
                if n == name and end is not None]

    def self_seconds(self, first: int = 0, stop: int | None = None) -> dict:
        """Per-layer self time of spans[first:stop]: each span's duration
        minus the time its direct children cover, summed by layer.  Children
        of one span run one after another, so their durations add without
        overlap.  Only the calls the benchmark makes are spans, so a layer
        reached through another layer's public call counts toward that
        caller's self time."""
        spans = self.spans[first:stop]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None and parent >= first:
                child_time[parent - first] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time[i]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "seed": self.seed}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False
