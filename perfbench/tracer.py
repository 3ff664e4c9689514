"""In-memory spans and counters around iet3's layers, installed from outside.

A wrapped function is replaced at every name inside the iet3 package that
binds it, so a function imported into several modules (sign_of_surd lives
in qfield and is bound in iet, invariance and sturmian) is wrapped in each.
Spans are tuples (id, parent id, root id, name, start, end, ok); the root id
is the span of the benchmark operation that caused them.  They stay in a
list until the run writes them out.  A name that no longer exists is
recorded in `absent` instead of failing the run.
"""

import functools
import sys
import time
from collections import defaultdict


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "iet3" or name.startswith("iet3."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self._cells = {}
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- installing wrappers --------------------------------------------------

    def _replace(self, module, attr, make):
        """Wrap module.attr (or Class.method for attr "Class.method") everywhere."""
        mod = sys.modules.get(module)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = getattr(owner, name, None) if owner is not None else None
        if orig is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make(orig)
        if owner_name:
            self._restore.append((owner, name, orig))
            setattr(owner, name, wrapper)
            return
        for m in _package_modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._restore.append((m, key, orig))
                    setattr(m, key, wrapper)

    def span(self, module, attr, name, on_result=None):
        """Record a span per call; `name` may be a function of the arguments."""
        self._replace(module, attr, lambda fn: self._span_wrapper(fn, name, on_result))

    def count(self, module, attr, key):
        """Count calls only: for functions too hot to hold a span per call."""
        cell = self._cells.setdefault(key, [0])

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted
        self._replace(module, attr, make)

    def count_yields(self, module, attr, key):
        """Count the items a generator function yields."""
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    counts[key] += n
            return counted
        self._replace(module, attr, make)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        for key, cell in self._cells.items():
            self.counts[key] += cell[0]
            cell[0] = 0

    # -- spans ----------------------------------------------------------------

    def _span_wrapper(self, fn, name, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            root = stack[0] if stack else sid
            label = name(args, kwargs) if callable(name) else name
            stack.append(sid)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, root, label, t0, t1, ok))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def root(self, name, fn):
        """Run fn() as a root span: the benchmark operation itself."""
        return self._span_wrapper(fn, name, None)()

    # -- summaries ------------------------------------------------------------

    def totals(self):
        """name -> (calls, total seconds, self seconds, seconds of ok calls)."""
        child = defaultdict(float)
        for _sid, parent, _root, _name, t0, t1, _ok in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        for sid, _parent, _root, name, t0, t1, ok in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[sid]
            if ok:
                row[3] += t1 - t0
        return out

    def dump(self):
        keys = ("id", "parent", "root", "name", "start", "end", "ok")
        return {"spans": [dict(zip(keys, s)) for s in self.spans],
                "counts": dict(self.counts), "absent": list(self.absent)}
