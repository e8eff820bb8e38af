"""Per-function call counts and self time, recorded from outside latticelight.

``install`` replaces every public module-level function of the latticelight
modules with a timing wrapper, at every place inside the package that binds
it: module globals (so ``cli`` calling its imported ``omega`` is seen, as is
``walk.step_power`` calling ``bloch_data``) and values of module-level dicts
(``cli.COMMANDS``).  The program itself is not modified.

Spans are aggregated in memory by (caller, callee) edge rather than stored
one by one: a dispersion grid makes about half a million calls.  Self time
of a call is its duration minus the durations of the wrapped calls made
directly inside it.
"""

from __future__ import annotations

import functools
import time
import types

ROOT = "<root>"


class Tracer:
    """Aggregates wrapped calls into edges (caller, callee) -> [calls, total, self, items]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.edges = {}
        # each frame is [name, time spent in wrapped children]
        self._stack = [[ROOT, 0.0]]

    def wrap(self, name, fn, items=None):
        """Return ``fn`` wrapped so each call adds to the edge from the current caller.

        ``items``, when given, is called with the same arguments and its
        result is added to the edge's item count (grid points, k-points).
        """
        clock = self.clock
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                if items is not None:
                    edge[3] += items(*args, **kwargs)

        return wrapper

    def functions(self):
        """Per callee: {"calls", "total_s", "self_s", "items"} summed over callers."""
        out = {}
        for (_, name), (calls, total, self_s, items) in self.edges.items():
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0})
            agg["calls"] += calls
            agg["total_s"] += total
            agg["self_s"] += self_s
            agg["items"] += items
        return out

    def edge_list(self):
        return [
            {"caller": caller, "callee": callee, "calls": c, "total_s": t, "self_s": s, "items": i}
            for (caller, callee), (c, t, s, i) in sorted(self.edges.items())
        ]


def public_functions(module, layer):
    """{function object: "layer.name"} for public functions defined in ``module``."""
    return {
        obj: f"{layer}.{attr}"
        for attr, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not attr.startswith("_")
        and obj.__module__ == module.__name__
    }


def install(tracer, layers, bind_modules, items=None):
    """Wrap the public functions of ``layers`` ({layer name: module}) everywhere they are bound.

    ``bind_modules`` are searched for bindings (globals and module-level dict
    values).  ``items`` maps a qualified name to an item counter.  Returns
    the number of bindings replaced.
    """
    items = items or {}
    names = {}
    for layer, module in layers.items():
        names.update(public_functions(module, layer))
    wrapped = {fn: tracer.wrap(name, fn, items.get(name)) for fn, name in names.items()}

    replaced = 0
    for module in bind_modules:
        namespace = vars(module)
        for attr, obj in list(namespace.items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                namespace[attr] = wrapped[obj]
                replaced += 1
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in list(obj.items()):
                    if isinstance(value, types.FunctionType) and value in wrapped:
                        obj[key] = wrapped[value]
                        replaced += 1
    return replaced
