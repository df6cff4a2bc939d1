"""In-memory span tracing around terrainopt's public callables.

The tracer replaces a callable at the module attribute its caller looks
up (``terrainopt.evolve.evaluate`` is the name ``run_nsga2`` calls) with
a wrapper that records one span per call: name, start, end, parent span
and the workload-run id. Spans stay in memory until :meth:`Tracer.dump`.
Nothing inside the package is edited; :meth:`Tracer.uninstall` puts the
original callables back.

An optional observer runs after a call's span has closed and derives
counts from its arguments and result (cells raised by a fill, bytes of a
raster file). Its time is charged to no layer: it is subtracted from the
duration of every span open around it, so counting inflates neither a
layer's self time nor any total.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

_ROOT = -1


class Summary(NamedTuple):
    calls: dict
    total: dict
    own: dict
    split: dict
    faults: list


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # span id -> (name, start, end, parent id); ids index this list
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        # span id -> observer time spent inside that span, at any depth
        self._hidden: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Trace calls made through ``module.attr`` as spans named ``name``."""
        original = getattr(module, attr)
        if getattr(original, "__traced__", False):
            raise RuntimeError(f"{module.__name__}.{attr} is already traced")
        spans, stack, hidden = self.spans, self._stack, self._hidden

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else _ROOT
            spans.append(None)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (name, start, end, parent)
            if observe is not None:
                observe(self, args, result)
                elapsed = perf_counter() - end
                for open_id in stack:
                    hidden[open_id] += elapsed
            return result

        traced.__traced__ = True
        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def summary(self, roots: str = "cli.") -> Summary:
        """Aggregate the spans by name; split the spans named ``roots*`` by self time.

        A span's duration excludes the observer time spent inside it; its
        self time is that duration minus its direct children's.
        ``split[root][name]`` is the share of a root span's duration spent
        as self time of spans named ``name`` beneath it (the root's own
        name included). A fault is a span whose children
        cover more than the span itself, or a span nested in one of the
        same name (a callable traced twice).
        """
        durations = [
            end - start - self._hidden.get(span_id, 0.0)
            for span_id, (_, start, end, _) in enumerate(self.spans)
        ]
        covered = [0.0] * len(self.spans)
        faults = []
        for (name, _, _, parent), duration in zip(self.spans, durations):
            if parent != _ROOT:
                covered[parent] += duration
                if self.spans[parent][0] == name:
                    faults.append(f"{name} nested in itself")
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        # a parent's id is always lower than its children's
        root_of = [None] * len(self.spans)
        split = defaultdict(lambda: defaultdict(float))
        for span_id, (name, _, _, parent) in enumerate(self.spans):
            duration = durations[span_id]
            # 1 us slack: child and parent clocks are read at different instants
            if covered[span_id] > duration + 1e-6:
                faults.append(
                    f"{name}: children cover {covered[span_id]:.6f} s of {duration:.6f} s"
                )
            self_time = duration - covered[span_id]
            calls[name] += 1
            total[name] += duration
            own[name] += self_time
            root = span_id if name.startswith(roots) else (
                root_of[parent] if parent != _ROOT else None
            )
            root_of[span_id] = root
            if root is not None:
                split[self.spans[root][0]][name] += self_time
        for root_name, parts in split.items():
            root_total = total[root_name]
            for name in parts:
                parts[name] /= root_total
        return Summary(
            dict(calls), dict(total), dict(own), {k: dict(v) for k, v in split.items()}, faults[:10]
        )

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )
