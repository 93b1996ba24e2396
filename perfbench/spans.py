"""Spans and counters recorded around calls into warpspec's public functions.

Nothing here edits the package: `Tracer.install` replaces each public
function of the traced modules with a wrapper, in every warpspec module that
holds a reference to it, so calls between modules (the CLI calling
`build_construction`, `scan_channels` calling `detect_embedded_eigenvalue`)
are seen too.  `Tracer.uninstall` puts the originals back.

A span is (id, name, start, end, parent, q_calls at start, q_calls at end).
Counters are plain sums.  Both stay in memory until `write` is called.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict

# the traced package modules; a module's name is the first part of its span
# names, except that _format's functions belong to the cli layer
MODULES = ("warp_geometry", "channel_reduction", "halfline_solver", "embedded_construction",
           "growth_and_identities", "cli", "_format")
LAYER_OF = {"_format": "cli"}

# called once per CSV cell; its time is inside the write_csv_atomic span
UNWRAPPED = {"cli.fmt_float"}

# results kept for the per-layer accuracy budget, by span name
KEEP_RESULTS = {
    "embedded_construction.build_construction",
    "halfline_solver.decaying_solution",
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    q_start: int
    q_end: int
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        q0 = int(self.counters["q_calls"])
        span = Span(sid, name, time.perf_counter(), 0.0, parent, q0, q0)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            span.q_end = int(self.counters["q_calls"])
        if name in KEEP_RESULTS:
            self.results[name].append(out)
        return out

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def count_q(self, q_fn):
        """Counting wrapper for a channel potential's q_fn."""
        counters = self.counters

        def counted(x):
            t0 = time.perf_counter()
            out = q_fn(x)
            counters["q_self_s"] += time.perf_counter() - t0
            counters["q_calls"] += 1
            counters["q_points"] += getattr(x, "size", 1)
            return out

        return counted

    def count_shape(self, shape):
        """ShapeFns whose callables count into the shape_calls counter."""
        counters = self.counters

        def counted(fn):
            if fn is None:
                return None

            def inner(r):
                counters["shape_calls"] += 1
                return fn(r)

            return inner

        return dataclasses.replace(
            shape, **{f.name: counted(getattr(shape, f.name)) for f in dataclasses.fields(shape)}
        )

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every public function of the traced modules, wherever it is bound."""
        import warpspec

        pkg = {name: mod for name, mod in sys.modules.items() if name.startswith("warpspec")}
        originals = {}
        for short in MODULES:
            mod = pkg[f"{warpspec.__name__}.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{LAYER_OF.get(short, short)}.{attr}"
                if not callable(fn) or isinstance(fn, type) or name in UNWRAPPED:
                    continue
                originals[id(fn)] = (fn, self.wrap(name, fn))
        for mod in pkg.values():
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, self._counting(attr, hit[1]))
        if not any(attr == "channel_potential" for _, attr, _ in self._patched):
            raise RuntimeError("channel_potential was not found among the traced functions")

    def _counting(self, attr: str, traced):
        """Channel potentials leave the traced call with a counting q_fn."""
        if attr not in ("channel_potential", "synthetic_channel"):
            return traced

        @functools.wraps(traced)
        def make(*args, **kwargs):
            q = traced(*args, **kwargs)
            return dataclasses.replace(q, q_fn=self.count_q(q.q_fn))

        return make

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # ------------------------------------------------------------ queries

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the outermost spans called name."""
        spans = self.named(name)
        ids = {s.id for s in spans}
        return sum(s.duration for s in spans if not self._has_ancestor_in(s, ids))

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans[span.id + 1 :] if s.parent == span.id]

    def _has_ancestor_in(self, span: Span, ids: set[int]) -> bool:
        p = span.parent
        while p is not None:
            if p in ids:
                return True
            p = self.spans[p].parent
        return False

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - child[s.id]
        return dict(out)

    def write(self, path) -> None:
        doc = {
            "spans": [dataclasses.asdict(s) for s in self.spans],
            "counters": dict(self.counters),
            "self_s": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
