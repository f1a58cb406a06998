"""Span tracing of eulerchar's public functions, from outside the package.

:class:`Tracer` wraps each function in :data:`TARGETS` and patches the
wrapper into every ``eulerchar`` module that holds the original under any
name (``euler_char`` imports ``local_data`` by name, ``cli`` imports most
functions by name, methods live on their class).  A span is (name, parent,
start, end) in four integer arrays kept in memory; :meth:`Tracer.write`
puts them on disk once the run is over.  Self time is a span minus its
children; the tracer runs in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

#: (metric prefix, module, attribute); "Class.method" names a method.
TARGETS = (
    ("cli.main", "eulerchar.cli", "main"),
    ("curves.count_points", "eulerchar.curves", "count_points"),
    ("curves.local_data", "eulerchar.curves", "local_data"),
    ("cyclotomic_fields.infinite_inertia_places", "eulerchar.cyclotomic_fields",
     "infinite_inertia_places"),
    ("cyclotomic_fields.split", "eulerchar.cyclotomic_fields", "split"),
    ("padics.check_prime", "eulerchar.padics", "check_prime"),
    ("euler_char.build_chi_input", "eulerchar.euler_char", "build_chi_input"),
    ("lambda_algebra.weierstrass_prepare", "eulerchar.lambda_algebra", "weierstrass_prepare"),
    ("lambda_algebra.mul", "eulerchar.lambda_algebra", "LambdaSeries.__mul__"),
    ("lambda_algebra.parse", "eulerchar.lambda_algebra", "LambdaSeries.from_json"),
    ("lambda_algebra.parse", "eulerchar.lambda_algebra", "series_from_text"),
    ("gamma_modules.generalized_chi", "eulerchar.gamma_modules", "generalized_chi"),
    ("gamma_modules.finite_level_oracle", "eulerchar.gamma_modules", "finite_level_oracle"),
    ("gamma_modules.smith_normal_form", "eulerchar.gamma_modules", "smith_normal_form"),
    ("akashi.akashi_series", "eulerchar.akashi", "akashi_series"),
    ("akashi.check_multiplicativity", "eulerchar.akashi", "check_multiplicativity"),
)

COUNT_POINTS = "curves.count_points"


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.kind = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.count_keys = []   # (curve, q) of every count_points call
        self._undo = []

    def _wrap(self, name, fn):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self.stack
        keys = self.count_keys if name == COUNT_POINTS else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            if keys is not None:
                keys.append(args[:2])
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("eulerchar")]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def summary(self) -> dict:
        """Calls and self time per span name, plus count_points' distinct share."""
        n = len(self.start)
        child = [0] * n
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        calls = {name: 0 for name in self.names}
        self_ns = {name: 0 for name in self.names}
        for i in range(n):
            name = self.names[kind[i]]
            calls[name] += 1
            self_ns[name] += end[i] - start[i] - child[i]
        keys = self.count_keys
        return {"calls": calls,
                "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
                "count_points_distinct": len(set(keys)),
                "count_points_calls": len(keys)}

    def write(self, path: Path):
        """Spans as int64 columns (name id, parent, start ns, end ns) plus a JSON index."""
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in (self.kind, self.parent, self.start, self.end):
                column.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(
            {"names": self.names, "spans": len(self.start),
             "columns": ["name_id", "parent", "start_ns", "end_ns"], "dtype": "int64"}))
