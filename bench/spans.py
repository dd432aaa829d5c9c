"""Span recording around cusplab's layer entry points, from outside the package.

``Tracer.install`` replaces every entry point listed in ``ENTRY_POINTS`` by a
wrapper that records a span (name, start, end, parent span, op id) while the
tracer is active.  A module-level function is replaced at every attribute of
a cusplab module that holds it, so calls through names imported elsewhere
(``mesh.log_radius_at``, ``probe.log_radius_at``, the package namespace) are
seen as well; a method is replaced on its class.  ``Tracer.remove`` puts every
original back.  Spans live in flat arrays while the run lasts and are written
out once, at the end.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> entry points, as (defining module, attribute or Class.method)
ENTRY_POINTS = {
    "potential": [("cusplab.potential", "PotentialField.value"),
                  ("cusplab.potential", "PotentialField.value_log_r"),
                  ("cusplab.potential", "PotentialField.value_by_quadrature")],
    "density": [("cusplab.density", "DensityProfile.__call__")],
    "contour": [("cusplab.contour", "axis_crossings"),
                ("cusplab.contour", "log_radius_at"),
                ("cusplab.contour", "radius_at"),
                ("cusplab.contour", "trace_contour")],
    "mesh": [("cusplab.mesh", "build_cross_section"),
             ("cusplab.mesh", "triangulate"),
             ("cusplab.mesh", "mesh_quality")],
    "fem": [("cusplab.fem", "assemble"),
            ("cusplab.fem", "solve_dirichlet"),
            ("cusplab.fem", "SolutionField.__call__")],
    "wos": [("cusplab.wos", "estimate")],
}
LAYERS = tuple(ENTRY_POINTS)


def _cusplab_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "cusplab" or name.startswith("cusplab.")]


class Tracer:
    """Records nested spans around the entry points while ``active`` is set."""

    def __init__(self):
        self.names = []              # span name per name id
        self.layer_of = []           # layer index per name id
        self.active = False
        self.op_id = -1
        self._name = array("i")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._patched = []           # (owner, attribute, original)

    def _wrap(self, name_id, fn):
        tracer = self
        name, parent, op, start, end, stack = (
            self._name, self._parent, self._op, self._start, self._end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _cusplab_modules()
        for layer_index, layer in enumerate(LAYERS):
            for module_name, attr in ENTRY_POINTS[layer]:
                name_id = len(self.names)
                self.names.append(f"{module_name.split('.')[-1]}.{attr}")
                self.layer_of.append(layer_index)
                home = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[method]
                    self._patch(owner, method, original, self._wrap(name_id, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name_id, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_targets(self):
        return [(owner, attr) for owner, attr, _ in self._patched]

    def spans(self):
        """All recorded spans as numpy columns."""
        return {"name": np.frombuffer(self._name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
                "op": np.frombuffer(self._op, dtype=np.int64).copy(),
                "start": np.frombuffer(self._start, dtype=np.float64).copy(),
                "end": np.frombuffer(self._end, dtype=np.float64).copy()}

    def save(self, path, ops):
        """Write the spans, with the op each span's op id refers to."""
        np.savez(path, names=np.array(self.names), layers=np.array(LAYERS),
                 layer_of=np.array(self.layer_of), ops=np.array([repr(op) for op in ops]),
                 **self.spans())


def self_times(parent, duration):
    """Span duration minus the time of its direct child spans."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered


def inside(parent, mask):
    """True for spans that have an ancestor span selected by mask."""
    out = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return out
        out[live] |= mask[anc[live]]
        anc[live] = parent[anc[live]]
