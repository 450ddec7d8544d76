"""Per-layer tracing from outside the program.

A `Tracer` rebinds public protoreg functions in the modules that call them
(for example `protoreg.engine.total_loss`) to wrappers that record one span
per call: name, start, end, the span that caused it, and the number of grid
points the call samples. The original bindings come back when the tracer's
`with` block ends. Spans stay in memory until `dump` writes them out.
"""
from __future__ import annotations

import json
import math
import time
from collections import defaultdict


def _voxels(dims) -> int:
    return math.prod(int(d) for d in dims)


# (module, attribute, span name, points sampled per call or None)
TRACED = (
    ("engine", "register", "engine.register", None),
    ("engine", "rigid_align", "engine.rigid_align", None),
    ("engine", "resample_rigid", "engine.resample_rigid",
     lambda moving, like, t: _voxels(like.dims)),
    ("engine", "total_loss", "similarity.total_loss",
     lambda fixed, moving, fld, *a, **k: _voxels(fld.dims)),
    ("engine", "loss_gradient", "similarity.loss_gradient",
     lambda fixed, moving, fld, *a, **k: _voxels(fld.dims)),
    ("engine", "build_pyramid", "volgrid.build_pyramid", None),
    ("engine", "upsample_field", "volgrid.upsample_field",
     lambda fld, target_dims: 3 * _voxels(target_dims)),
    ("engine", "anatomy_map", "priors.anatomy_map", None),
    ("engine", "risk_map", "priors.risk_map", None),
    ("engine", "gate", "priors.gate", None),
    ("engine", "film", "condition.film", None),
    ("engine", "fold_fraction", "metrics.fold_fraction", None),
    ("io", "read_volume", "io.read_volume", None),
    ("io", "write_volume", "io.write_volume", None),
)


class Tracer:
    def __init__(self, package):
        self._package = package
        self._saved = []
        self._stack = []
        self.spans = []          # (id, name, start, end, parent, points)

    def _wrap(self, name, fn, points):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                n = points(*args, **kwargs) if points is not None else 0
                self.spans[span_id] = (span_id, name, start, end, parent, n)
        return traced

    def __enter__(self):
        for mod_name, attr, name, points in TRACED:
            mod = getattr(self._package, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, points))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def totals(self):
        """name -> [calls, seconds, points], plus per-size seconds and calls
        as name -> {points: [calls, seconds]}."""
        tot = defaultdict(lambda: [0, 0.0, 0])
        by_size = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for _, name, start, end, _, n in self.spans:
            t = tot[name]
            t[0] += 1
            t[1] += end - start
            t[2] += n
            s = by_size[name][n]
            s[0] += 1
            s[1] += end - start
        return tot, by_size

    def dump(self, path):
        rows = [{"id": i, "name": n, "start": s, "end": e, "parent": p, "points": k}
                for i, n, s, e, p, k in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rows, f)
