"""Span recorder that times calls into alebench from outside the program.

The recorder replaces public functions by module attribute with a wrapper
that records a span (name, layer, start, end, parent) and, for a few
functions, counts read from the call's arguments, result or exception.
The program's source is never touched: each wrapper sits on the attribute
the *calling* module looks up, e.g. ``alebench.bench.lms_run``.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans, so the self times of all layers add up to
the root span, which is the call into ``alebench.cli.main``.

A target that a later version of the program no longer has is reported
as absent instead of failing the run; the metrics it fed read zero.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (calling module, attribute, layer).  filter_frame called while a run_pso
# span is open belongs to the "pso.cost" layer instead of "ale", and so does
# the rest of a cost evaluation (evaluate_cost), so that run_pso's own self
# time is the swarm bookkeeping alone.
TARGETS = (
    ("alebench.cli", "parse_config", "bench"),
    ("alebench.cli", "run_experiment", "bench"),
    ("alebench.cli", "emit_csv", "bench"),
    ("alebench.bench", "generate_bits", "signal"),
    ("alebench.bench", "modulate", "signal"),
    ("alebench.bench", "demodulate", "signal"),
    ("alebench.bench", "align_and_compare", "signal"),
    ("alebench.bench", "transmit", "channel"),
    ("alebench.channel", "apply_nonlinear", "channel"),
    ("alebench.channel", "add_awgn", "channel"),
    ("alebench.bench", "lms_run", "lms"),
    ("alebench.bench", "run_pso", "pso"),
    ("alebench.bench", "filter_frame", "ale"),
    ("alebench.pso", "evaluate_cost", "pso.cost"),
    ("alebench.pso", "filter_frame", "ale"),
    ("alebench.bench", "mse", "metrics"),
)

LAYERS = ("cli", "bench", "signal", "channel", "ale", "lms", "pso", "pso.cost", "metrics")

# Bytes per complex128 sample and the arrays a filter_frame pass must touch
# at minimum: read d, write y, write e.
_COMPLEX_BYTES = 16
_FILTER_MIN_ARRAYS = 3


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


class Counters:
    """Algorithm counts observed at the layer boundaries of one run."""

    def __init__(self):
        self.filter_calls = 0
        self.cost_evals = 0
        self.flops = 0
        self.bytes = 0
        self.pso_iters = 0
        self.pso_early_stops = 0
        self.pso_stalls = 0
        self.pso_steps = 0
        self.lms_samples = 0
        self.lms_diverged = 0
        self.lms_divergence_index = []
        self.csv_bytes = 0


class SpanRecorder:
    """Records spans and counts while installed; restores the program after."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, layer, start, end, parent index]
        self.counters = Counters()
        self.absent = []
        self._stack = []
        self._installed = []

    # ------------------------------------------------------------------
    # installation

    def install(self):
        for module_name, attr, layer in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._mark_absent(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self._mark_absent(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(attr, layer, original))
            self._installed.append((module, attr, original))

    def _mark_absent(self, label):
        if label not in self.absent:
            self.absent.append(label)

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def reset(self):
        self.spans = []
        self.counters = Counters()
        self._stack = []

    @contextmanager
    def span(self, name, layer):
        index = self._open(name, layer)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name, layer, fn):
        observe = getattr(self, f"_observe_{name}", None)

        def wrapper(*args, **kwargs):
            span_layer = layer
            if name == "filter_frame" and self._inside("run_pso"):
                span_layer = "pso.cost"
            index = self._open(name, span_layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._close(index)
                if observe is not None:
                    self._observe(observe, span_layer, args, kwargs, None, err)
                raise
            self._close(index)
            if observe is not None:
                self._observe(observe, span_layer, args, kwargs, result, None)
            return result

        return wrapper

    def _observe(self, observe, layer, args, kwargs, result, err):
        # The program's return types may change in a later version; a count
        # that can no longer be read is reported absent, not fatal.
        try:
            observe(layer, args, kwargs, result, err)
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            self._mark_absent(f"{observe.__name__[len('_observe_'):]}: {type(exc).__name__}")

    # ------------------------------------------------------------------
    # counts

    def _observe_filter_frame(self, layer, args, kwargs, result, err):
        c = self.counters
        c.filter_calls += 1
        if layer == "pso.cost":
            c.cost_evals += 1
        if err is None:
            h = len(_arg(args, kwargs, 0, "d"))
            taps = _arg(args, kwargs, 2, "cfg").taps
            # complex-by-real multiply-add per tap (4 flops) and d - y (2 flops)
            c.flops += 4 * h * taps + 2 * h
            c.bytes += _FILTER_MIN_ARRAYS * _COMPLEX_BYTES * h

    def _observe_run_pso(self, layer, args, kwargs, result, err):
        if err is not None:
            return
        c = self.counters
        history = list(result[1].history)
        max_iters = _arg(args, kwargs, 1, "cfg").max_iters
        c.pso_iters += len(history)
        c.pso_early_stops += int(len(history) < max_iters)
        c.pso_steps += max(len(history) - 1, 0)
        c.pso_stalls += sum(1 for a, b in zip(history, history[1:]) if not b < a)

    def _observe_lms_run(self, layer, args, kwargs, result, err):
        c = self.counters
        if err is None:
            c.lms_samples += len(result.run.valid)
            return
        if type(err).__name__ != "DivergenceError":
            return
        ale = _arg(args, kwargs, 2, "ale")
        first = ale.delay + ale.taps - 1
        c.lms_diverged += 1
        c.lms_divergence_index.append(err.sample_index)
        c.lms_samples += err.sample_index - first + 1

    def _observe_emit_csv(self, layer, args, kwargs, result, err):
        if err is None:
            self.counters.csv_bytes += sum(p.stat().st_size for p in result)

    # ------------------------------------------------------------------
    # summaries

    def layer_times(self):
        """(self seconds per layer, total seconds per span name)."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        total = {}
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            if parent is not None:
                child[parent] += duration
        for (name, layer, start, end, parent), covered in zip(self.spans, child):
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - covered
        return self_s, total

    def root_seconds(self):
        return sum(end - start for _, _, start, end, parent in self.spans if parent is None)

    def write(self, path):
        """Write the spans as CSV: index, name, layer, start, end, parent."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,layer,start_s,end_s,parent\n")
            for i, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(
                    f"{i},{name},{layer},{start - origin:.9f},{end - origin:.9f},"
                    f"{'' if parent is None else parent}\n"
                )
