"""Per-layer tracing from outside the package.

``Tracer.install`` wraps functions of every layer module of ``quasitoric``
and rebinds each name that refers to them: the module attribute, every
from-import alias in every ``quasitoric.*`` module, and every class
attribute, including aliases such as ``QuadScalar.__radd__ = __add__``.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back, and
``install`` can put the same wrappers in place again.

What is wrapped:
- in every layer but ``scalar``: the public functions and methods (also
  ``__post_init__``, the validating constructor), and any private function
  that another module imports.  A call records a span only when it enters
  a layer from another one; a call within the layer it is already in is
  counted but adds no span, so spans stay few and a layer's self time is
  still the time spent in its own code.
- in ``scalar``: six counters and no spans.  A span per scalar operation
  would time the wrapper, not the operation, so scalar time stays in the
  self time of the layer that does the arithmetic.
- the 2-D vector helpers of ``linalg`` (``dot``, ``cross``, ``solve2x2``,
  ...) are not wrapped, for the same reason: they are a few scalar
  operations each, called tens of thousands of times per op, and their
  time belongs to the caller (mostly ``polyhedron``).  ``linalg`` self
  time is row reduction and integer solving.

Spans hold name, start, end, parent and op id.  They are kept in memory in
flat arrays and can be written out at the end with ``dump``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = (
    "scalar",
    "linalg",
    "polyhedron",
    "fan",
    "quasilattice",
    "gale",
    "delzant",
    "cut",
    "foliation",
    "pipeline",
    "jsonio",
    "cli",
)

# scalar counters: qualified name in quasitoric.scalar -> metric
SCALAR_COUNTERS = {
    "QuadScalar.__init__": "scalar.quad_new",
    "QuadScalar.__mul__": "scalar.mul_calls",
    "QuadScalar.__add__": "scalar.add_calls",
    "QuadScalar.sign": "scalar.sign_calls",
    "QuadScalar.inv": "scalar.inv_calls",
    "is_squarefree": "scalar.squarefree_calls",
}

# call counts reported per op: metric -> wrapped function
CALL_COUNTERS = {
    "polyhedron.vrep_calls": "polyhedron.vrep_from_hrep",
    "pipeline.trapezoid_calls": "pipeline.trapezoid",
    "linalg.rref_calls": "linalg.rref",
    "linalg.integer_solve_calls": "linalg.integer_solve",
    "quasilattice.member_calls": "quasilattice.Quasilattice.member",
    "quasilattice.ray_meets_calls": "quasilattice.Quasilattice.ray_meets",
}

# linalg functions left unwrapped (see the module docstring)
VECTOR_HELPERS = frozenset(
    ("vec2", "vadd", "vsub", "vneg", "smul", "dot", "cross", "rot90", "is_zero_vec", "solve2x2")
)

HARNESS = "bench"  # the layer of the per-op root span


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__post_init__"


def _package_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "quasitoric" or name.startswith("quasitoric."))
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # wrapped function names, "layer.qualname"
        self.layer_of: list[str] = []
        self.calls: list[int] = []  # per name, every call
        self.extra: dict[str, float] = {}  # observed totals (half-planes in, ...)
        # spans, one entry each in five flat arrays
        self.s_op = array("q")
        self.s_parent = array("q")
        self.s_name = array("q")
        self.s_start = array("q")
        self.s_end = array("q")
        self._ids: list[int] = []  # open spans
        self._layers: list[str] = []  # their layers
        self.op_id = -1
        self._swaps: list[tuple] = []  # (owner, attribute, original, wrapper)

    # -- names ------------------------------------------------------------------

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def add(self, key: str, value: float):
        self.extra[key] = self.extra.get(key, 0) + value

    # -- spans --------------------------------------------------------------------

    def open_span(self, idx: int, layer: str) -> int:
        sid = len(self.s_name)
        self.s_op.append(self.op_id)
        self.s_parent.append(self._ids[-1] if self._ids else -1)
        self.s_name.append(idx)
        self.s_start.append(perf_counter_ns())
        self.s_end.append(0)
        self._ids.append(sid)
        self._layers.append(layer)
        return sid

    def close_span(self, sid: int):
        self.s_end[sid] = perf_counter_ns()
        self._ids.pop()
        self._layers.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run fn(*args) as op `op_id` under a root span of the harness."""
        if not self.names or self.names[0] != f"{HARNESS}.op":
            raise RuntimeError("install the tracer before running ops")
        self.op_id = op_id
        sid = self.open_span(0, HARNESS)
        try:
            return fn(*args)
        finally:
            self.close_span(sid)

    def span_wrapper(self, fn, name: str, layer: str, observe=None):
        idx = self._name(name, layer)
        calls, layers = self.calls, self._layers
        open_span, close_span = self.open_span, self.close_span

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if layers and layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                sid = open_span(idx, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(sid)
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn, name: str):
        idx = self._name(name, "scalar")
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------------

    def install(self):
        """Put the wrappers in place; they are built on the first call."""
        if not self._swaps:
            self._build()
        for owner, attr, _, new in self._swaps:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in reversed(self._swaps):
            setattr(owner, attr, old)

    def _build(self):
        modules = _package_modules()
        self._name(f"{HARNESS}.op", HARNESS)
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper

        def targets(mod):
            """(qualname, function) for every function defined in mod, at
            module level and in its classes."""
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield name, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in vars(obj).items():
                        fn = _function_of(val)
                        if fn is not None:
                            yield f"{name}.{attr}", fn

        imported = {
            id(obj)
            for mod in modules.values()
            for obj in vars(mod).values()
            if inspect.isfunction(obj) and obj.__module__ != mod.__name__
        }
        for layer in LAYERS:
            mod = modules.get(f"quasitoric.{layer}")
            if mod is None:
                continue
            for qualname, fn in targets(mod):
                if id(fn) in wrapped or (layer == "linalg" and qualname in VECTOR_HELPERS):
                    continue  # an alias of a function already wrapped, or a helper
                if layer == "scalar":
                    if qualname in SCALAR_COUNTERS:
                        wrapped[id(fn)] = self.count_wrapper(fn, SCALAR_COUNTERS[qualname])
                elif _is_public(qualname.rsplit(".", 1)[-1]) or id(fn) in imported:
                    name = f"{layer}.{qualname}"
                    wrapped[id(fn)] = self.span_wrapper(fn, name, layer, OBSERVERS.get(name))
        self._plan_swaps(modules, wrapped)

    def _plan_swaps(self, modules, wrapped):
        swaps = self._swaps
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    swaps.append((mod, name, obj, wrapped[id(obj)]))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        fn = _function_of(val)
                        if fn is None or id(fn) not in wrapped:
                            continue
                        w = wrapped[id(fn)]
                        if isinstance(val, staticmethod):
                            new = staticmethod(w)
                        elif isinstance(val, classmethod):
                            new = classmethod(w)
                        elif isinstance(val, property):
                            new = property(w, val.fset, val.fdel, val.__doc__)
                        else:
                            new = w
                        swaps.append((obj, attr, val, new))

    # -- output -------------------------------------------------------------------

    def state(self) -> dict:
        """Everything summarize() needs: names, call counts, observed
        totals, and the span arrays (op, parent, name, start_ns, end_ns)."""
        return {
            "names": self.names,
            "layer_of": self.layer_of,
            "calls": self.calls,
            "extra": self.extra,
            "spans": [self.s_op, self.s_parent, self.s_name, self.s_start, self.s_end],
        }


def dump(state: dict, path: str):
    """Write the spans as gzipped JSON lines; line i + 1 is span i."""
    names = state["names"]
    with gzip.open(path, "wt") as f:
        f.write(json.dumps({"fields": ["op", "parent", "name", "start_ns", "end_ns"]}) + "\n")
        for op, parent, idx, start, end in zip(*state["spans"]):
            f.write(json.dumps([op, parent, names[idx], start, end], separators=(",", ":")) + "\n")


def _function_of(val):
    if isinstance(val, (staticmethod, classmethod)):
        val = val.__func__
    elif isinstance(val, property):
        val = val.fget
    return val if inspect.isfunction(val) else None


def _observe_vrep(tracer: Tracer, args, result):
    tracer.add("polyhedron.halfplanes_in", len(args[0]))
    tracer.add("polyhedron.facets_out", len(result.hrep))


OBSERVERS = {"polyhedron.vrep_from_hrep": _observe_vrep}


# -- self time -----------------------------------------------------------------


def self_times(starts, ends, parents) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children are counted once, and
    only inside the parent's interval)."""
    children: dict[int, list[int]] = {}
    for sid, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(sid)
    out = []
    for sid, (s, e) in enumerate(zip(starts, ends)):
        covered = 0
        cur_s = cur_e = None
        for c in sorted(children.get(sid, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(e - s - covered)
    return out


def summarize(state: dict, n_ops: int) -> dict:
    """Per-op layer metrics from a tracer state: self_ms per layer (and for
    the harness), the named call counts and observed totals, and the
    traced op time."""
    ops, parents, names, starts, ends = state["spans"]
    own = self_times(starts, ends, parents)
    self_ns = {layer: 0 for layer in LAYERS + (HARNESS,)}
    op_ns = 0
    for sid, idx in enumerate(names):
        layer = state["layer_of"][idx]
        self_ns[layer] = self_ns.get(layer, 0) + own[sid]
        if parents[sid] < 0:
            op_ns += ends[sid] - starts[sid]
    per_op = max(n_ops, 1)
    out = {f"{layer}.self_ms": ns / 1e6 / per_op for layer, ns in self_ns.items()}
    out["trace.op_ms"] = op_ns / 1e6 / per_op
    calls = dict(zip(state["names"], state["calls"]))
    for metric in SCALAR_COUNTERS.values():
        out[metric] = calls.get(metric, 0) / per_op
    for metric, fn in CALL_COUNTERS.items():
        out[metric] = calls.get(fn, 0) / per_op
    extra = state["extra"]
    for key in ("polyhedron.halfplanes_in", "jsonio.bytes_out"):
        out[key] = extra.get(key, 0) / per_op
    hp = extra.get("polyhedron.halfplanes_in", 0)
    out["polyhedron.facets_kept_ratio"] = extra.get("polyhedron.facets_out", 0) / hp if hp else 0.0
    return out
