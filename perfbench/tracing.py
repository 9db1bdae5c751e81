"""In-memory spans for the traced benchmark run, and the layer metrics
computed from them.

A span is (name, start, end, parent index, request id).  The benchmark
records one around each request and one around each public call it makes
into a layer.  ``mp.special`` is only reached from inside other modules,
so the traced run alone wraps the module attributes those modules call
through (``_sp.zeta`` and friends); no library source changes.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# special-function wrappers: span name -> attributes of lihex.mp.special.
# The private Hurwitz sum is wrapped too because dirichlet_beta reaches
# it directly; nested spans of one name count once in busy time.
SPECIAL_WRAPS = {
    "mp.special.zeta": ("zeta",),
    "mp.special.dirichlet_beta": ("dirichlet_beta",),
    "mp.special.bernoulli": ("bernoulli",),
    "mp.special.hurwitz": ("hurwitz", "_hurwitz_int"),
    "mp.special.polylog": ("polylog",),
    "mp.special.gamma": ("gamma",),
}


class Tracer:
    """Collects spans while enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []      # [name, start, end, parent, rid]
        self._stack: list[int] = []
        self.rid = -1
        self.now = time.perf_counter     # the clock spans are read from

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), 0.0, parent, self.rid])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.now()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install_special_wrappers(self) -> None:
        from lihex.mp import special
        for name, attrs in SPECIAL_WRAPS.items():
            for attr in attrs:
                setattr(special, attr, self.wrap(name, getattr(special, attr)))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")


class SpanStats:
    """Per-name totals over a span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children.setdefault(s[3], []).append(i)
            self.by_name.setdefault(s[0], []).append(i)
        self.names = set(self.by_name)

    def _outermost(self, name: str):
        """Spans of ``name`` with no ancestor of the same name."""
        for i in self.by_name.get(name, []):
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                yield i

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, []))

    def busy(self, name: str) -> float | None:
        """Wall time inside ``name``; None when the span never appeared."""
        if name not in self.names:
            return None
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._outermost(name))

    def self_time(self, name: str) -> float | None:
        """Busy time minus the part of it that child spans cover."""
        if name not in self.names:
            return None
        total = 0.0
        for i in self._outermost(name):
            start, end = self.spans[i][1], self.spans[i][2]
            covered = 0.0
            cursor = start
            # children are disjoint or touching; grandchildren lie
            # inside their parents
            kids = sorted((self.spans[k][1], self.spans[k][2])
                          for k in self.children.get(i, []))
            for a, b in kids:
                a = max(a, cursor)
                if b > a:
                    covered += b - a
                    cursor = b
            total += (end - start) - covered
        return total
