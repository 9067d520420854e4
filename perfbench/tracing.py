"""Per-layer tracing of the repository benchmark, from outside the program.

:class:`Tracer` wraps public functions and methods of the program's
layers for the length of one traced run and restores every original
afterwards.  Two kinds of record are kept:

* **Layer accumulators** for per-op layers (millions of calls): a call
  count plus inclusive and self time per layer.  A stack of open
  wrapped calls gives the self time — a call's duration minus the part
  its wrapped children cover — so the layers' self times plus
  ``other_s`` (time in no wrapped layer) add up to the traced wall.
* **Job-level spans** (resolve, record, freeze, price, cache get/put,
  run_sweep, and each job and priced point), kept in memory and written
  out at the end.  All spans of one job share its id.

Every binding of a wrapped module-level function in the ``repro``
package is replaced (modules that imported it by name included), so
all repro modules are imported before wrapping.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One program layer: its metric names and the callables it owns."""

    name: str
    self_metric: str
    calls_metric: str
    targets: tuple[str, ...]  # "module:function" or "module:Class.method"


_MACHINE_SKIP = {"__init__", "_coerce", "_require_values", "burst"}

LAYERS = (
    Layer("streams.analyze", "streams.analyze_s", "streams.analyze_calls",
          ("repro.streams.runstats:analyze_pair",
           "repro.record.columnar:analyze_segments")),
    Layer("machine", "machine.self_s", "machine.calls",
          ("repro.machine.context:Machine.*",)),
    Layer("arch.transfer", "arch.transfer_s", "arch.transfer_calls",
          ("repro.arch.transfer:TransferModel.load_stream",
           "repro.arch.transfer:TransferModel.load_values")),
    Layer("streams.ops", "streams.ops_s", "streams.ops_calls",
          tuple(f"repro.streams.ops:{name}" for name in (
              "intersect", "intersect_count", "subtract", "subtract_count",
              "merge", "merge_count", "vinter", "vmerge"))),
    Layer("gpm", "gpm.self_s", "gpm.calls", ("repro.gpm.apps:run_app",)),
    Layer("tensorops", "tensorops.self_s", "tensorops.calls",
          ("repro.tensorops.taco:CompiledKernel.run",)),
    Layer("record.capture", "record.capture_s", "record.capture_calls",
          tuple(f"repro.arch.trace:Trace.{m}" for m in (
              "new_burst", "add_op", "add_scalar", "add_cpu_scalar",
              "add_sc_scalar"))
          + tuple(f"repro.record.columnar:ColumnarTrace.{m}" for m in (
              "new_burst", "add_op_keys", "add_scalar", "add_cpu_scalar",
              "add_sc_scalar"))),
    Layer("record.freeze", "record.freeze_s", "record.freeze_calls",
          ("repro.arch.trace:Trace.freeze",
           "repro.record.columnar:ColumnarTrace.freeze")),
    Layer("perf.cache_write", "perf.cache_write_s", "perf.cache_write_calls",
          ("repro.perf.cache:RunCache.put",)),
    Layer("perf.cache_read", "perf.cache_read_s", "perf.cache_read_calls",
          ("repro.perf.cache:RunCache.get",)),
    Layer("workloads.price", "workloads.price_s", "workloads.price_calls",
          ("repro.workloads.pricing:price_run",)),
    Layer("arch.sc_model", "arch.sc_model_s", "arch.sc_model_calls",
          ("repro.arch.sparsecore:SparseCoreModel.cost",)),
    Layer("arch.cpu_model", "arch.cpu_model_s", "arch.cpu_model_calls",
          ("repro.arch.cpu:CpuModel.cost",)),
    Layer("accel.model", "accel.model_s", "accel.model_calls",
          ("repro.accel.flexminer:FlexMinerModel.cost",
           "repro.accel.triejax:TrieJaxModel.cost",
           "repro.accel.gramer:GramerModel.cost",
           "repro.accel.gpu:GpuModel.cost",
           "repro.accel.tensor_accels:OuterSpaceModel.cost",
           "repro.accel.tensor_accels:ExTensorModel.cost",
           "repro.accel.tensor_accels:GammaModel.cost")),
    Layer("arch.config_fp", "arch.config_fp_s", "arch.config_fp_calls",
          ("repro.arch.config:config_fingerprint",)),
    Layer("perf.engine", "perf.engine_self_s", "perf.engine_calls",
          ("repro.perf.engine:run_jobs_report",
           "repro.perf.engine:_execute_job")),
    Layer("explore", "explore.self_s", "explore.calls",
          ("repro.explore.sweep:run_sweep",)),
    Layer("graph.load", "graph.load_s", "graph.load_calls",
          ("repro.graph.datasets:load_graph",)),
    Layer("tensor.load", "tensor.load_s", "tensor.load_calls",
          ("repro.tensor.datasets:load_matrix",
           "repro.tensor.datasets:load_tensor")),
)

#: Job-level span name of each spanned layer target (``resolve`` and
#: ``record`` spans wrap callables outside every layer; see ``install``).
SPANS = {
    "repro.arch.trace:Trace.freeze": "freeze",
    "repro.record.columnar:ColumnarTrace.freeze": "freeze",
    "repro.workloads.pricing:price_run": "price",
    "repro.perf.cache:RunCache.get": "cache.get",
    "repro.perf.cache:RunCache.put": "cache.put",
    "repro.explore.sweep:run_sweep": "run_sweep",
    "repro.perf.engine:_execute_job": "point",
}

#: Per-layer metrics beyond each layer's self time and call count.
EXTRA_METRICS = {
    "arch.transfer_bytes": "B",
    "perf.cache_write_bytes": "B",
    "perf.reads_per_trace": "ratio",
    "perf.cache_hit_ratio": "ratio",
    "arch.sc_evals_per_point": "ratio",
    "other_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[layer.self_metric] = "s"
        units[layer.calls_metric] = "count"
    units.update(EXTRA_METRICS)
    return units


class _Acc:
    __slots__ = ("calls", "self_s", "incl_s", "depth", "nbytes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.nbytes = 0


def _import_all_repro() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _resolve(target: str):
    """``(owner, attribute names)`` of one target string."""
    module_name, _, qual = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in qual:
        return module, [qual]
    cls_name, _, attr = qual.partition(".")
    cls = getattr(module, cls_name)
    if attr == "*":
        return cls, [name for name, value in vars(cls).items()
                     if inspect.isfunction(value)
                     and name not in _MACHINE_SKIP]
    return cls, [attr]


class Tracer:
    """Install layer wrappers, collect accumulators and spans, remove."""

    def __init__(self):
        self.acc = {layer.name: _Acc() for layer in LAYERS}
        self.spans: list[dict] = []
        self.cache_keys: set = set()
        self.cache_hits = 0
        self._stack: list[float] = []
        self._jobs: list[int] = []
        self._open: list[tuple[str, float]] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- job ids -----------------------------------------------------------

    def begin_job(self, label: str) -> None:
        """Open a job: spans until :meth:`end_job` share its id."""
        self._next_id += 1
        self._jobs.append(self._next_id)
        self._open.append((label, time.perf_counter()))

    def end_job(self) -> None:
        label, start = self._open.pop()
        self._emit("job", start, time.perf_counter() - start, label=label)
        self._jobs.pop()

    def _emit(self, name: str, start: float, dur: float, **attrs) -> None:
        if not self._jobs:
            return
        self.spans.append({
            "id": self._jobs[-1],
            "parent": self._jobs[-2] if len(self._jobs) > 1 else None,
            "name": name, "start": start - self._t0, "dur": dur, **attrs})

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, acc: _Acc, span: str | None, post):
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            new_job = span == "point"
            if new_job:
                tracer._next_id += 1
                tracer._jobs.append(tracer._next_id)
            stack.append(0.0)
            acc.depth += 1
            t0 = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf() - t0
                child = stack.pop()
                acc.depth -= 1
                acc.calls += 1
                acc.self_s += dt - child
                if acc.depth == 0:
                    acc.incl_s += dt
                if stack:
                    stack[-1] += dt
                if post is not None:
                    post(acc, args, result)
                if span is not None:
                    tracer._emit(span, t0, dt)
                if new_job:
                    tracer._jobs.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_only(self, fn, span: str):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._emit(span, t0, perf() - t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def _post_for(self, layer: str):
        if layer == "arch.transfer":
            def post(acc, args, result):
                acc.nbytes += int(args[2])
            return post
        if layer == "perf.cache_write":
            def post(acc, args, result):
                for path in args[0]._paths(args[1]):
                    if path.exists():
                        acc.nbytes += path.stat().st_size
            return post
        if layer == "perf.cache_read":
            def post(acc, args, result):
                self.cache_keys.add(args[1])
                self.cache_hits += result is not None
            return post
        return None

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_function(self, original, wrapper) -> None:
        """Replace every binding of a module-level function."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        _import_all_repro()
        for layer in LAYERS:
            acc = self.acc[layer.name]
            post = self._post_for(layer.name)
            for target in layer.targets:
                owner, names = _resolve(target)
                for name in names:
                    span = SPANS.get(target)
                    original = vars(owner)[name]
                    wrapper = self._wrap(original, acc, span, post)
                    if inspect.isclass(owner):
                        self._patch(owner, name, wrapper)
                    else:
                        self._patch_function(original, wrapper)
        owner, (name,) = _resolve(
            "repro.workloads.spec:WorkloadSpec.resolve_dataset")
        self._patch(owner, name, self._span_only(vars(owner)[name],
                                                 "resolve"))
        from repro.workloads import pipeline

        recorders = pipeline._RECORDERS
        for family, fn in list(recorders.items()):
            self._patched.append((recorders, family, fn))
            recorders[family] = self._span_only(fn, "record")
        self._t0 = time.perf_counter()
        return self

    def remove(self) -> None:
        """Restore every original binding, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, wall: float, untraced_wall: float) -> dict:
        """Every per-layer metric of one traced run of ``wall`` seconds."""
        out = {}
        for layer in LAYERS:
            acc = self.acc[layer.name]
            out[layer.self_metric] = acc.self_s
            out[layer.calls_metric] = acc.calls
        reads = self.acc["perf.cache_read"].calls
        prices = self.acc["workloads.price"].calls
        out.update({
            "arch.transfer_bytes": self.acc["arch.transfer"].nbytes,
            "perf.cache_write_bytes": self.acc["perf.cache_write"].nbytes,
            "perf.reads_per_trace":
                reads / len(self.cache_keys) if self.cache_keys else 0.0,
            "perf.cache_hit_ratio": self.cache_hits / reads if reads else 0.0,
            "arch.sc_evals_per_point":
                self.acc["arch.sc_model"].calls / prices if prices else 0.0,
            "other_s": wall - sum(a.self_s for a in self.acc.values()),
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead": wall / untraced_wall - 1.0,
        })
        return out

    def layer_table(self) -> list[dict]:
        """Calls, self and inclusive seconds of each layer."""
        return [{"layer": layer.name, "calls": self.acc[layer.name].calls,
                 "self_s": self.acc[layer.name].self_s,
                 "inclusive_s": self.acc[layer.name].incl_s}
                for layer in LAYERS]

    def write(self, path) -> None:
        """Write the spans (one JSON object per line) and layer table."""
        with open(path, "w") as out:
            for row in self.layer_table():
                out.write(json.dumps({"kind": "layer", **row}) + "\n")
            for span in self.spans:
                out.write(json.dumps({"kind": "span", **span}) + "\n")


__all__ = ["LAYERS", "Layer", "SPANS", "Tracer", "metric_units"]
