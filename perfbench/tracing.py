"""Per-layer tracing for the benchmark, installed from outside the package.

Every public function of every ``bayesreloc`` module is replaced, in each
module namespace that holds it, by a wrapper that records one span per
call.  Callers look functions up by name in their own module (for example
``mc_posterior`` calls the ``draw_mask`` it imported from ``regressor``),
so patching every binding catches every call, and all bindings of one
function share one wrapper named after the module that defines it.

Spans stay in memory while the workload runs and are written out once at
the end.  A layer's self time is its span's duration minus the durations of
its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import pkgutil
import time
import types

import numpy as np

# Per-layer metrics, in the order BENCHMARK.json lists them.  Names of the
# form <module>.<function>.<field> are computed from that function's
# statistics; the others are listed in _SPECIAL below.  A function that no
# longer exists is reported as absent, with zero values.
PER_LAYER = (
    ("regressor.draw_mask.calls", "count"),
    ("regressor.draw_mask.self_s", "s"),
    ("regressor.draw_mask.us_per_call", "us"),
    ("regressor.forward.calls", "count"),
    ("regressor.forward.self_s", "s"),
    ("regressor.forward.us_per_call", "us"),
    ("regressor.forward.flops", "flop-computed"),
    ("regressor.loss_gradient.calls", "count"),
    ("regressor.loss_gradient.self_s", "s"),
    ("regressor.loss_gradient.us_per_example", "us"),
    ("regressor.train.self_s", "s"),
    ("seeding.derive_rng.calls", "count"),
    ("seeding.derive_rng.self_s", "s"),
    ("mc_posterior.sample_posterior.self_s", "s"),
    ("mc_posterior.estimate.calls", "count"),
    ("mc_posterior.estimate.self_s", "s"),
    ("mc_posterior.estimate.us_per_call", "us"),
    ("mc_posterior.localize.calls", "count"),
    ("mc_posterior.passes", "count"),
    ("mc_posterior.degenerate", "count"),
    ("geometry.quaternion_mean.calls", "count"),
    ("geometry.quaternion_mean.self_s", "s"),
    ("geometry.normalize.calls", "count"),
    ("geometry.normalize.self_s", "s"),
    ("calibration.z_score.calls", "count"),
    ("calibration.z_score.self_s", "s"),
    ("special.reg_lower_gamma.calls", "count"),
    ("special.reg_lower_gamma.self_s", "s"),
    ("calibration.fit_gamma.calls", "count"),
    ("calibration.fit_gamma.self_s", "s"),
    ("calibration.fit_gamma.iterations", "count"),
    ("calibration.ks_statistic.self_s", "s"),
    ("calibration.calibrate.s", "s"),
    ("scenes.nearest_neighbour_pose.calls", "count"),
    ("scenes.nearest_neighbour_pose.self_s", "s"),
    ("scenes.generate_scene.s", "s"),
    ("scenes.save_dataset.s", "s"),
    ("scenes.load_dataset.s", "s"),
    ("scenes.dataset.bytes", "bytes"),
    ("regressor.save_checkpoint.s", "s"),
    ("regressor.load_checkpoint.s", "s"),
    ("regressor.checkpoint.bytes", "bytes"),
    ("detector.detect.calls", "count"),
    ("detector.detect.self_s", "s"),
    ("detector.ties", "count"),
    ("detector.confusion.s", "s"),
    ("harness.run_eval.s", "s"),
    ("harness.run_eval.self_s", "s"),
    ("harness.run_sweep.s", "s"),
    ("harness.run_sweep.self_s", "s"),
    ("stats.self_s", "s"),
    ("cli.gen.s", "s"),
    ("cli.calibrate.s", "s"),
    ("cli.eval.s", "s"),
    ("cli.sweep.s", "s"),
    ("cli.hist.s", "s"),
    ("cli.detect.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount


def _path_bytes(path) -> int:
    if os.path.isdir(path):
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    return os.path.getsize(path)


def _forward_flops(stat, args, kwargs, result):
    # Multiply-adds of the dense layers, from the widths: 2 * in * out per
    # layer and input row.  Computed, not measured.
    net = args[0]
    rows = len(args[1]) if np.ndim(args[1]) == 2 else 1
    stat.add("flops", rows * sum(2 * layer.weights.size for layer in net.layers))


def _bytes_hook(stat, args, kwargs, result):
    stat.add("bytes", _path_bytes(args[0]))


def _attr_counter(key, attr):
    def hook(stat, args, kwargs, result):
        stat.add(key, float(getattr(result, attr, 0)))

    return hook


def _arg_counter(key, position, keyword, default):
    def hook(stat, args, kwargs, result):
        value = args[position] if len(args) > position else kwargs.get(keyword, default)
        stat.add(key, float(value))

    return hook


def _batch_counter(stat, args, kwargs, result):
    stat.add("examples", len(args[1]))


def _hooks(fn_name: str, fn):
    """Counters recorded after a call returns, keyed by qualified name."""
    if fn_name == "regressor.forward":
        return _forward_flops
    if fn_name == "regressor.loss_gradient":
        return _batch_counter
    if fn_name in ("scenes.save_dataset", "scenes.load_dataset",
                   "regressor.save_checkpoint", "regressor.load_checkpoint"):
        return _bytes_hook
    if fn_name == "mc_posterior.estimate":
        return _attr_counter("degenerate", "degenerate")
    if fn_name == "detector.detect":
        return _attr_counter("ties", "tie")
    if fn_name == "calibration.fit_gamma":
        return _attr_counter("iterations", "iterations")
    if fn_name == "mc_posterior.localize":
        params = list(inspect.signature(fn).parameters.values())
        names = [p.name for p in params]
        if "num_samples" not in names:
            return None
        position = names.index("num_samples")
        return _arg_counter("passes", position, "num_samples", params[position].default)
    return None


class Tracer:
    """Span recorder for one workload process.

    ``install`` patches the package, ``uninstall`` restores it.  ``span``
    records a span from the benchmark's own code, such as one CLI command.
    ``request`` tags later spans with the unit of work they belong to.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stats: dict[str, _Stat] = {}
        self.spans: list = []
        self._stack: list = []
        self.request = -1
        self._patched: list = []
        self.wrapped: set[str] = set()

    def _stat(self, name: str) -> tuple[int, _Stat]:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = _Stat()
        return self._name_ids[name], self.stats[name]

    def _enter(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [idx, 0.0]
        self._stack.append(frame)
        return idx, parent, frame

    def _leave(self, nid, stat, idx, parent, frame, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        stat.calls += 1
        stat.total += dur
        stat.self_time += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        self.spans[idx] = (nid, parent, self.request, t0, t1)

    def _wrap(self, name: str, fn):
        nid, stat = self._stat(name)
        hook = _hooks(name, fn)
        clock = time.perf_counter
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            idx, parent, frame = enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(nid, stat, idx, parent, frame, t0, clock())
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        nid, stat = self._stat(name)
        idx, parent, frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(nid, stat, idx, parent, frame, t0, time.perf_counter())

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith(package.__name__ + ".")
                ):
                    continue
                if id(obj) not in wrappers:
                    home = obj.__module__.rsplit(".", 1)[-1]
                    name = f"{home}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                    self.wrapped.add(name)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def write_spans(self, path: str) -> None:
        done = [s for s in self.spans if s is not None]
        arr = np.array(done, dtype=float).reshape(len(done), 5)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=arr[:, 0].astype(np.int32),
            parent=arr[:, 1].astype(np.int64),
            request=arr[:, 2].astype(np.int64),
            start=arr[:, 3],
            end=arr[:, 4],
        )

    def absent(self) -> list[str]:
        """Functions named in PER_LAYER that the package no longer has."""
        missing = set()
        for metric, _ in PER_LAYER:
            parts = metric.split(".")
            if len(parts) == 3 and parts[0] not in ("cli", "trace"):
                fn = f"{parts[0]}.{parts[1]}"
                if fn not in self.wrapped and metric not in _SPECIAL:
                    missing.add(fn)
        return sorted(missing)

    def metrics(self, overhead_frac: float) -> dict[str, dict]:
        out = {}
        for metric, unit in PER_LAYER:
            out[metric] = {"value": self._value(metric, overhead_frac), "unit": unit}
        return out

    def _value(self, metric: str, overhead_frac: float) -> float:
        if metric == "trace.overhead_frac":
            return overhead_frac
        if metric in _SPECIAL:
            return _SPECIAL[metric](self.stats)
        fn, field = metric.rsplit(".", 1)
        stat = self.stats.get(fn)
        if stat is None or stat.calls == 0:
            return 0.0
        if field == "calls":
            return float(stat.calls)
        if field == "s":
            return stat.total
        if field == "self_s":
            return stat.self_time
        if field == "us_per_call":
            return stat.total / stat.calls * 1e6
        if field == "us_per_example":
            examples = stat.counts.get("examples", 0.0)
            return stat.total / examples * 1e6 if examples else 0.0
        return stat.counts.get(field, 0.0)


def _counter(key, *functions):
    def value(stats):
        return sum(stats[f].counts.get(key, 0.0) for f in functions if f in stats)

    return value


# Metrics that sum a counter over several functions or a self time over a
# whole module, rather than read one function's statistics.
_SPECIAL = {
    "mc_posterior.passes": _counter("passes", "mc_posterior.localize"),
    "mc_posterior.degenerate": _counter("degenerate", "mc_posterior.estimate"),
    "detector.ties": _counter("ties", "detector.detect"),
    "scenes.dataset.bytes": _counter("bytes", "scenes.save_dataset", "scenes.load_dataset"),
    "regressor.checkpoint.bytes": _counter(
        "bytes", "regressor.save_checkpoint", "regressor.load_checkpoint"
    ),
    "stats.self_s": lambda stats: sum(
        s.self_time for name, s in stats.items() if name.startswith("stats.")
    ),
}
