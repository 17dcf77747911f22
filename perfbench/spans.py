"""Spans recorded around calls into braidcomb's public functions.

The benchmark never edits the library.  For a traced run it replaces each
function named in TRACED, in every braidcomb module namespace that holds
it, by a wrapper that records a span (id, parent, request, name, start,
end, error) in memory.  Uninstalling restores the original objects, so the
untraced path runs exactly the library's own code.

Self time is a span's duration minus the part of it covered by its child
spans.  A sizer, keyed by span name, turns a call's arguments and result
into a size (letters, relators) right after the span's end is taken; spans
named in `keep` instead hold on to their arguments and result, for sizes
too costly to read inside a parent's span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# Public functions wrapped in a traced run, by layer (= braidcomb module).
# These are the calls the workloads and the CLI make into each layer; the
# leaf helpers below them (concat, exponent_sum, action_conjugator, ...) stay
# inside their caller's self time.  A name a later version drops is skipped.
TRACED = {
    "words": ("parse_word", "format_word"),
    "presentations": ("orbit_presentation", "artin_presentation", "quotient_by"),
    "combing": ("comb", "words_equal"),
    "abelian": ("relation_matrix", "smith_normal_form", "cokernel", "h1"),
    "fibration": (
        "fibre_presentation",
        "boundary_matrix_ab",
        "quotient_check",
        "exactness_report",
        "boundary_sum_identity",
        "nonsplit_witness_s2",
    ),
    "cli": ("main",),
}

@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int  # -1 for a root span
    request: int  # the operation index; -1 during set-up
    name: str
    start: float
    end: float
    error: str | None  # exception class name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, sizers=None, keep=frozenset()) -> None:
        self.sizers = sizers or {}
        self.keep = keep
        self.spans: list[Span] = []
        self.sizes: dict[int, int] = {}
        self.kept: dict[int, tuple[tuple, object]] = {}
        self.request = -1
        self.stack: list[int] = []
        self.next_id = 0
        self.patches: list | None = None
        self.installed = False

    def wrap(self, name: str, fn):
        sizer = self.sizers.get(name)
        keep = name in self.keep

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(span_id)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans.append(Span(span_id, parent, self.request, name, start, end, error))
            if sizer is not None:
                self.sizes[span_id] = sizer(args, result)
            if keep:
                self.kept[span_id] = (args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def plan(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every TRACED function
        bound in a loaded braidcomb module; built once, on first install."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "braidcomb" or key.startswith("braidcomb."))
        ]
        package = sys.modules["braidcomb"]
        out = []
        for layer, names in TRACED.items():
            module = getattr(package, layer, None)
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original and not attr.startswith("_"):
                            out.append((mod, attr, original, wrapper))
        return out

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        if self.patches is None:
            self.patches = self.plan()
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for mod, attr, original, _ in self.patches or ():
            setattr(mod, attr, original)
        self.installed = False


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id >= 0:
            children[s.parent_id].append((s.start, s.end))
    return {
        s.span_id: s.duration - covered(s.start, s.end, children.get(s.span_id, []))
        for s in spans
    }


def totals_by_name(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total duration, total self time)."""
    own = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = out[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += own[s.span_id]
    return {name: (calls, dur, selft) for name, (calls, dur, selft) in out.items()}


def span_record(s: Span) -> list:
    return [s.span_id, s.parent_id, s.request, s.name, s.start, s.end, s.error]
