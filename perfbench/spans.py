"""Span recording and function hooks, applied to a library from outside.

A Recorder keeps spans in flat arrays in memory: name, parent span, the
operation the span belongs to, start and end.  Hooks replace library
functions and methods by wrappers that open and close a span (or only
count calls) and put the originals back on exit.  Nothing here knows the
library being traced; the hook targets are passed in by name.
"""

import functools
import importlib
import math
import sys
import time
from array import array
from contextlib import contextmanager


class Recorder:
    """Spans of one single-threaded run, kept in memory until written out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_index = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_kinds = []
        self._stack = []
        self._op = -1

    def intern(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_idx):
        i = len(self.name)
        self.name.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i):
        self.end[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def operation(self, kind):
        """One operation of the given kind: a root span whose id every span
        opened inside it shares."""
        if self._op != -1:
            raise RuntimeError("operations do not nest")
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        i = self.open(self.intern("bench." + kind))
        try:
            yield
        finally:
            self.close(i)
            self._op = -1

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]


def self_times(rec):
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another on a single thread, so
    their intervals are disjoint and the covered time is their sum.
    """
    dur = rec.durations()
    own = list(dur)
    for i, p in enumerate(rec.parent):
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


def totals(rec, kinds, dur=None, own=None, under=None):
    """name -> [calls, inclusive s, self s] over spans of operations of the
    given kinds, and the number of such operations.  With `under`, only
    spans that run inside a span of that name count."""
    if dur is None:
        dur, own = self_times(rec)
    wanted = {k for k, kind in enumerate(rec.op_kinds) if kind in kinds}
    inside = None
    if under is not None:
        # a parent is always recorded before its children
        u = rec._name_index.get(under, -2)
        inside = bytearray(len(rec.name))
        for i, p in enumerate(rec.parent):
            if p >= 0 and (rec.name[p] == u or inside[p]):
                inside[i] = 1
    out = {}
    for i, op in enumerate(rec.op):
        if op in wanted and (inside is None or inside[i]):
            row = out.setdefault(rec.names[rec.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += own[i]
    return out, len(wanted)


def percentile(samples, p):
    """Nearest-rank p-th percentile, refused unless at least ten samples
    lie above it (so p90 needs at least 100 samples)."""
    n = len(samples)
    rank = math.ceil(p * n / 100)
    if rank < 1 or n - rank < 10:
        raise ValueError(f"p{p} of {n} samples has fewer than ten samples above it")
    return sorted(samples)[rank - 1]


def span_wrapper(rec, name, fn):
    idx = rec.intern(name)
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = open_(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            close(i)
    return wrapper


def count_wrapper(counts, name, fn):
    counts.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class Hooks:
    """Replace library callables by wrappers for the life of a with-block.

    Each target is "module.function" or "module.Class.method", relative to
    `package`.  A function is replaced under every attribute of every
    loaded module of the package that is bound to the same function
    object, because modules import functions from each other by name.  A
    target the library no longer has is reported as "absent", not raised.
    """

    def __init__(self, package, targets, make_wrapper):
        self.package = package
        self.targets = list(targets)
        self.make_wrapper = make_wrapper
        self.status = {}
        self._undo = []

    def _resolve(self, target):
        modname, _, rest = target.partition(".")
        try:
            owner = importlib.import_module(f"{self.package}.{modname}")
        except ImportError:
            return None, None, None
        *path, attr = rest.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        fn = vars(owner).get(attr)
        return owner, attr, fn if callable(fn) else None

    def __enter__(self):
        prefix = self.package + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(prefix))]
        for target in self.targets:
            owner, attr, fn = self._resolve(target)
            if fn is None:
                self.status[target] = "absent"
                continue
            wrapper = self.make_wrapper(target, fn)
            if isinstance(owner, type):
                self._bind(owner, attr, fn, wrapper)
            else:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._bind(mod, name, fn, wrapper)
            self.status[target] = "hooked"
        return self

    def _bind(self, owner, name, fn, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, fn))

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()
        return False

    def absent(self):
        return sorted(t for t, s in self.status.items() if s == "absent")
