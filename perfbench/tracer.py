"""In-memory span tracer that wraps library methods from the outside.

:meth:`Tracer.install` replaces each target method (or module-level
function) with a wrapper that records one span ``(name, start, end,
parent)`` per call; :meth:`Tracer.uninstall` puts the originals back.
Nothing under ``src/`` knows about it, and the untraced measurement
never installs it.

Spans live in a flat list in start order; ``parent`` is the index of
the enclosing span (``-1`` for a top-level call).  A layer's self time
is its spans' durations minus the part of each interval covered by the
span's children (:func:`self_times`).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int]
#: ``observe(counters, args, result)`` — runs after a traced call to
#: record work counts at the same boundary as the span.
Observer = Callable[[Dict[str, float], Sequence[Any], Any], None]


class Target:
    """One traced callable: ``module:Class.method`` or ``module:function``."""

    def __init__(
        self,
        group: str,
        module: str,
        qualname: str,
        observe: Optional[Observer] = None,
    ) -> None:
        self.group = group
        self.module = module
        self.qualname = qualname
        self.observe = observe

    def __repr__(self) -> str:
        return f"{self.module}:{self.qualname}"


class Tracer:
    """Records spans for the installed targets while installed."""

    def __init__(
        self, targets: Sequence[Target], clock: Callable[[], float] = perf_counter
    ) -> None:
        self.targets = list(targets)
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        #: Objects seen as ``self`` of a traced method, per group.
        self.instances: Dict[str, Dict[int, Any]] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wrapped: Dict[int, Any] = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target; unresolvable ones are listed in
        :attr:`missing` and skipped (their layer reports no calls)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            for owner, attr, original in self._resolve(target):
                wrapper = self._wrapped.get(id(original))
                if wrapper is None:
                    wrapper = self._wrap(target, original)
                    self._wrapped[id(original)] = wrapper
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _resolve(self, target: Target) -> List[Tuple[Any, str, Any]]:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            module = None
        cls_name, _, method = target.qualname.rpartition(".")
        if cls_name:
            cls = getattr(module, cls_name, None)
            for klass in getattr(cls, "__mro__", ()):
                if method in vars(klass):
                    return [(klass, method, vars(klass)[method])]
        else:
            original = getattr(module, method, None)
            if callable(original):
                # Patch every module that bound the function by name
                # (``from x import f``), so callers see the wrapper.
                return [
                    (mod, method, original)
                    for name, mod in list(sys.modules.items())
                    if name.split(".")[0] == target.module.split(".")[0]
                    and getattr(mod, method, None) is original
                ]
        if repr(target) not in self.missing:
            self.missing.append(repr(target))
        return []

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, self.clock
        counters, observe, name = self.counters, target.observe, target.group
        seen = self.instances.setdefault(name, {})
        is_method = "." in target.qualname

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append((name, 0.0, 0.0, -1))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if is_method:
                seen[id(args[0])] = args[0]
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    # -- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzipped TSV: name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def self_times(
    spans: Sequence[Span], scale: Optional[Callable[[float], float]] = None
) -> Tuple[Dict[str, int], Dict[str, float], float]:
    """Per-name call counts and self seconds, plus top-level seconds.

    Self time is a span's duration minus the union of its children's
    intervals clipped to it.  Spans must be in start order (the order
    :class:`Tracer` records them in).  ``scale(start)``, when given,
    multiplies each span's contribution (reference-speed time).
    """
    covered = [0.0] * len(spans)
    frontier: Dict[int, float] = {}
    for name, start, end, parent in spans:
        if parent < 0:
            continue
        _, p_start, p_end, _ = spans[parent]
        lo = max(start, p_start, frontier.get(parent, p_start))
        hi = min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
            frontier[parent] = hi
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    top = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        factor = 1.0 if scale is None else scale(start)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + ((end - start) - covered[idx]) * factor
        if parent < 0:
            top += (end - start) * factor
    return calls, self_s, top
