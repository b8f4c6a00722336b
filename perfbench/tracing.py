"""Span tracer that wraps tribcount's public functions from outside the package.

Wrapping happens at every name through which callers reach a function:
the defining module, the package re-exports, the aliases other modules bind
at import (``fast_count._t``, ``oracle.find_repetitions``, ...) and the
``cli._STATS`` table.  Each wrapper is named after the defining module and
function, so an alias records under the canonical name.

Hot leaves (block lengths, exact division, segment lookups) run hundreds of
times per count, so they are only counted, per top-level call; every other
public function records a span ``(name, start, end, parent, op, tag)``.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("tribcount", "tribcount.cli", "tribcount.closed_forms",
           "tribcount.fast_count", "tribcount.core_word", "tribcount.oracle",
           "tribcount._kernels")

COUNTED = frozenset({
    "core_word.trib_number", "core_word.exact_div", "core_word.kernel_number",
    "fast_count.square_gamma", "fast_count.cube_gamma",
})


def _scan_tag(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    exhaustive = args[1] if len(args) > 1 else kwargs.get("exhaustive", False)
    kind = "exhaustive" if exhaustive else "restricted"
    return {"case": f"{kind}_{n}",
            "records": len(result.squares) + len(result.cubes)}


def _find_repetitions_tag(args, kwargs, result):
    # the numpy scan compares word[L:] with word[:-L], n - L bytes, for
    # every distinct root length L with power * L <= n
    word, root_lens, power = args[:3]
    n = len(word)
    roots = [L for L in set(int(x) for x in root_lens) if power * L <= n]
    return {"roots": len(roots), "bytes": sum(n - L for L in roots)}


TAGGERS = {
    "oracle.scan_repetitions": _scan_tag,
    "_kernels.find_repetitions": _find_repetitions_tag,
}


def canonical_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _is_public_function(value) -> bool:
    return (callable(value) and not isinstance(value, type)
            and getattr(value, "__module__", "").startswith("tribcount")
            and not getattr(value, "__name__", "_").startswith("_"))


class Tracer:
    """Records spans and per-root call counts while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.op = 0
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.roots = defaultdict(int)
        self._stack = []
        self._cur = None
        self._patched = []

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack
        tagger = TAGGERS.get(name)

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            if parent < 0:
                self._cur = {}
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, None)
                if parent < 0:
                    self._close_root(name)
            if tagger is not None:
                spans[idx] = spans[idx][:5] + (tagger(args, kwargs, result),)
            return result

        return wrapper

    def _counter(self, fn, name):
        def wrapper(*args, **kwargs):
            cur = self._cur
            if cur is not None:
                cur[name] = cur.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _close_root(self, name):
        total = self.counts[name]
        for key, calls in self._cur.items():
            total[key] += calls
        self.roots[name] += 1
        self._cur = None

    def install(self):
        """Wrap every public tribcount function at every name it is bound to."""
        wrapped = {}

        def wrap(fn):
            if id(fn) not in wrapped:
                name = canonical_name(fn)
                make = self._counter if name in COUNTED else self._span
                wrapped[id(fn)] = make(fn, name)
            return wrapped[id(fn)]

        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if _is_public_function(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrap(value))
        stats = importlib.import_module("tribcount.cli")._STATS
        for key, value in list(stats.items()):
            self._patched.append((stats, key, value))
            stats[key] = wrap(value)

    def uninstall(self):
        for target, attr, value in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._patched.clear()

    def take(self) -> dict:
        """Hand over what was recorded and start afresh (the wrappers keep
        references to the span list, so it is emptied in place)."""
        out = {"spans": list(self.spans),
               "counts": {k: dict(v) for k, v in self.counts.items()},
               "roots": dict(self.roots)}
        self.spans.clear()
        self.counts.clear()
        self.roots.clear()
        return out


# ---------------------------------------------------------------------------
# reductions


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op, tag in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, child)]
