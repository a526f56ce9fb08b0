"""Layer tracing for the traced benchmark run, built from the benchmark's own code.

`Tracer.install()` replaces the public functions and methods of each abelinv
module with timing wrappers, in the defining module and wherever another
module imported the name (for example `molien.ramanujan_sum` or
`cayley.hall_support`).  Nothing under `src/` is edited; the wrappers live
only in the traced child process.

Accounting, per call while an operation is running:

* A call into a layer different from its caller's opens a frame.  When the
  frame closes, its duration minus the durations of its child frames is added
  to the callee layer's self time, and the whole duration is added to the
  parent's child time.  Self times of all layers plus the benchmark's own
  root frames therefore add up to the traced wall time of the operations.
* A call into the caller's own layer is only counted: its time is already
  self time of that layer, so no frame is needed.  Functions whose inclusive
  time is a metric (permanent, determinant, hall_support, the enumeration
  oracles) always open a frame.
* Module-level functions are recorded as spans (name, start, end, parent
  span, operation).  Methods (element arithmetic, series and cyclotomic
  arithmetic) and generator resumes are timed and counted into their layer
  but not recorded one by one; there are millions of them in a pass.

The library is serial and has no queues, so no layer has a wait time to
record.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from array import array

LAYERS = ("numtheory", "groups", "series", "molien", "polynom", "cayley", "cli")
BENCH = len(LAYERS)  # root frame of each operation: the benchmark's own code

MODULE_LAYER = {
    "numtheory": "numtheory",
    "groups": "groups",
    "series": "series",
    "molien": "molien",
    "polynom": "polynom",
    "cayley": "cayley",
    "cli": "cli",
    "report": "cli",
}

# functions whose inclusive time (outermost call) is reported as a metric
TIMED = {
    "cayley.permanent": "cayley.permanent_s",
    "cayley.determinant": "cayley.determinant_s",
    "cayley.hall_support": "cayley.support_s",
    "molien.sym_dim_oracle": "molien.oracle_s",
    "molien.ext_dim_oracle": "molien.oracle_s",
    "molien.sym_ext_dim_oracle": "molien.oracle_s",
}

ELEM_OPS = ("add", "sub", "neg", "scale", "index")
WRAPPED_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__")


class Tracer:
    """Per-process trace state; `active` is true only while an operation runs."""

    def __init__(self) -> None:
        self.active = False
        nlayers = len(LAYERS) + 1
        self.calls = [0] * nlayers
        self.self_s = [0.0] * nlayers
        self.errors = [0] * nlayers
        self.counters: dict[str, float] = {}
        self.names: list[str] = []
        self.name_calls: list[int] = []
        self.frames: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_index = -1
        self.op_wall_s = 0.0

    # -- bookkeeping -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.name_calls.append(0)
        return len(self.names) - 1

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _open_span(self, name_id: int, parent: int, start: float) -> int:
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_op.append(self.op_index)
        self.span_start.append(start)
        self.span_end.append(0.0)
        return len(self.span_start) - 1

    # -- operation root frames ----------------------------------------------

    def begin_op(self, index: int, kind: str) -> None:
        self.op_index = index
        name_id = self._op_name_ids.get(kind)
        if name_id is None:
            name_id = self._op_name_ids[kind] = self._name_id(f"op.{kind}")
        start = time.perf_counter()
        span = self._open_span(name_id, -1, start)
        self.frames.append([BENCH, start, 0.0, span])
        self.active = True

    def end_op(self) -> None:
        end = time.perf_counter()
        self.active = False
        layer, start, child, span = self.frames.pop()
        self.span_end[span] = end
        self.self_s[BENCH] += (end - start) - child
        self.op_wall_s += end - start

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: int, qualname: str, record: bool, hook=None):
        tracer = self
        name_id = self._name_id(qualname)
        timed_key = TIMED.get(qualname)
        depth = [0]
        frames = self.frames
        calls = self.calls
        self_s = self.self_s
        errors = self.errors
        name_calls = self.name_calls
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[layer] += 1
            name_calls[name_id] += 1
            parent = frames[-1]
            if parent[0] == layer and timed_key is None:
                if hook is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                hook(tracer, args, result)
                return result
            start = pc()
            span = tracer._open_span(name_id, parent[3], start) if record else parent[3]
            frame = [layer, start, 0.0, span]
            frames.append(frame)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent[0] != layer:
                    errors[layer] += 1
                raise
            finally:
                end = pc()
                frames.pop()
                depth[0] -= 1
                dur = end - start
                self_s[layer] += dur - frame[2]
                parent[2] += dur
                if record:
                    tracer.span_end[span] = end
                if timed_key is not None and depth[0] == 0:
                    tracer.add(timed_key, dur)
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, layer: int, qualname: str, caller: str):
        """Times each resume of a generator into `layer`; counts items yielded."""
        tracer = self
        name_id = self._name_id(qualname)
        frames = self.frames
        self_s = self.self_s
        pc = time.perf_counter
        per_caller = f"numtheory.compositions.{caller}"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                yield from it
                return
            tracer.calls[layer] += 1
            tracer.name_calls[name_id] += 1
            items = 0
            try:
                while True:
                    parent = frames[-1]
                    frame = [layer, 0.0, 0.0, parent[3]]
                    frames.append(frame)
                    start = pc()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = pc()
                        frames.pop()
                        self_s[layer] += (end - start) - frame[2]
                        parent[2] += end - start
                    items += 1
                    yield item
            finally:
                tracer.add("numtheory.compositions", items)
                tracer.add(per_caller, items)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function and method of the package's modules."""
        import importlib

        self._op_name_ids: dict[str, int] = {}
        self.frames.clear()
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULE_LAYER}
        replaced: dict[int, object] = {}
        generators: dict[int, tuple] = {}
        for modname, module in modules.items():
            layer = LAYERS.index(MODULE_LAYER[modname])
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                qualname = f"{modname}.{name}"
                if inspect.isclass(value):
                    self._wrap_class(value, layer, qualname)
                elif inspect.isgeneratorfunction(value):
                    generators[id(value)] = (value, layer, qualname, module)
                elif callable(value):
                    wrapped = self._wrap(value, layer, qualname, record=True, hook=HOOKS.get(qualname))
                    replaced[id(value)] = wrapped
                    setattr(module, name, wrapped)
        # names imported across modules, and the package's re-exports
        for module in [package, *modules.values()]:
            for name, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, name, replaced[id(value)])
                elif id(value) in generators:
                    fn, layer, qualname, home = generators[id(value)]
                    if module is home:
                        continue  # recursion inside the generator stays unwrapped
                    caller = module.__name__.rsplit(".", 1)[-1]
                    setattr(module, name, self._wrap_generator(fn, layer, qualname, caller))

    def _wrap_class(self, cls, layer: int, qualname: str) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            hook = HOOKS.get(f"{qualname}.{name}")
            if isinstance(value, classmethod):
                inner = self._wrap(value.__func__, layer, f"{qualname}.{name}", record=False, hook=hook)
                setattr(cls, name, classmethod(inner))
            elif inspect.isfunction(value):
                setattr(cls, name, self._wrap(value, layer, f"{qualname}.{name}", record=False, hook=hook))

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals for the operations run so far (one pass)."""
        out: dict[str, float] = {}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[li]
            out[f"{layer}.self_s"] = self.self_s[li]
            out[f"{layer}.errors"] = self.errors[li]
        by_name = dict(zip(self.names, self.name_calls))
        c = self.counters
        out["numtheory.ramanujan_calls"] = by_name.get("numtheory.ramanujan_sum", 0)
        out["numtheory.compositions"] = c.get("numtheory.compositions", 0)
        out["groups.elem_ops"] = sum(by_name.get(f"groups.FiniteAbelianGroup.{m}", 0) for m in ELEM_OPS)
        out["groups.walk_steps"] = c.get("groups.walk_steps", 0)
        out["series.mul_calls"] = (by_name.get("series.TruncatedSeries1.__mul__", 0)
                                   + by_name.get("series.TruncatedSeries2.__mul__", 0))
        out["molien.oracle_s"] = c.get("molien.oracle_s", 0.0)
        out["polynom.cyc_mults"] = by_name.get("polynom.CyclotomicInt.__mul__", 0)
        out["polynom.terms_out"] = c.get("polynom.terms_out", 0)
        out["cayley.permanent_s"] = c.get("cayley.permanent_s", 0.0)
        out["cayley.determinant_s"] = c.get("cayley.determinant_s", 0.0)
        out["cayley.support_s"] = c.get("cayley.support_s", 0.0)
        out["cayley.terms_out"] = c.get("cayley.terms_out", 0)
        visited = c.get("numtheory.compositions.cayley", 0)
        out["cayley.support_hit_ratio"] = c.get("cayley.support_found", 0) / visited if visited else 0.0
        out["cli.bytes_out"] = c.get("cli.bytes_out", 0)
        out["bench.self_s"] = self.self_s[BENCH]
        out["trace.wall_s"] = self.op_wall_s
        return out

    def write_spans(self, path) -> int:
        """Write the recorded spans, times relative to the first span, as gzipped JSON."""
        t0 = self.span_start[0] if self.span_start else 0.0
        spans = [
            [self.span_name[k], self.span_parent[k], self.span_op[k],
             round(self.span_start[k] - t0, 9), round(self.span_end[k] - t0, 9)]
            for k in range(len(self.span_start))
        ]
        doc = {"fields": ["name", "parent", "op", "start_s", "end_s"], "names": self.names, "spans": spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(spans)


# -- counters taken from results at a layer boundary ---------------------------

def _walk_steps(tracer, args, result) -> None:
    tracer.add("groups.walk_steps", (1 << args[0].order) - 1)  # Gray walk over all subsets


def _poly_terms(tracer, args, result) -> None:
    if hasattr(result, "terms"):
        tracer.add("polynom.terms_out", len(result.terms))


def _cayley_terms(tracer, args, result) -> None:
    tracer.add("cayley.terms_out", len(result.terms))


def _support_found(tracer, args, result) -> None:
    tracer.add("cayley.support_found", len(result))


def _cli_bytes(tracer, args, result) -> None:
    if len(args) > 1 and hasattr(args[1], "getvalue"):  # run(argv, out) with a captured stream
        tracer.add("cli.bytes_out", len(args[1].getvalue().encode("utf-8")))


HOOKS = {
    "groups.subset_sum_zero_count": _walk_steps,
    "polynom.IntPolynomial.__mul__": _poly_terms,
    "polynom.CycPolynomial.__mul__": _poly_terms,
    "cayley.permanent": _cayley_terms,
    "cayley.determinant": _cayley_terms,
    "cayley.hall_support": _support_found,
    "cli.run": _cli_bytes,
}
