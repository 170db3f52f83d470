"""Span tracing of mincodes' public functions, installed from outside the
package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds every reference to it that the package holds: module attributes,
names imported by value (``cli`` imports ``weight_distribution_bruteforce``,
``dimension`` and ``summarize`` directly) and functions stored in
module-level dicts (``pointset.FAMILIES``, ``spectra.LENGTHS``).  Calls that
go through a module's globals, such as ``summarize`` calling
``weight_distribution_bruteforce``, are traced too.  Generator functions
are left alone: their work runs while the caller iterates, so a span around
the call would be empty.

Each call records a span ``[name, start, end, parent, instance, layer]`` in
memory; ``write`` saves them when the benchmark ends.  A span's self time is
its duration minus the time its child spans cover, and it is charged to the
layer the function belongs to (``LAYERS``).  A public function with no layer
of its own is charged to its caller's layer, or to ``harness`` when the
benchmark called it.  Time outside every span is the harness's own, so the
layer self times plus the harness time add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("field", "pointset", "code", "spectra", "cli")

#: layer charged with each function's self time (module-qualified names)
LAYERS = {
    "field.make_field": "field.build",
    "field.field_of_order": "field.build",
    "pointset.family1": "pointset.construct",
    "pointset.family2": "pointset.construct",
    "pointset.family3": "pointset.construct",
    "pointset.family4": "pointset.construct",
    "pointset.tilde_join": "pointset.tilde_join",
    "pointset.is_cutting": "pointset.is_cutting",
    "code.weight_distribution_bruteforce": "code.weights",
    "code.is_minimal_direct": "code.is_minimal_direct",
    "code.dimension": "code.dimension",
    "spectra.family2_min_weight": "spectra.min_weight",
    "spectra.family3_min_weight": "spectra.min_weight",
    "cli.verify_one": "cli.verify_one",
    "cli.main": "cli.main",
    "cli.cmd_weights": "cli.main",
    "cli.cmd_minimal": "cli.main",
    "cli.cmd_verify_all": "cli.main",
}

#: layer of a module's public functions that ``LAYERS`` does not name;
#: every other unnamed function is charged to its caller's layer
MODULE_LAYERS = {"spectra": "spectra.closed_form"}

HARNESS = "harness"


def _defining_set(args, kwargs):
    return args[0] if args else kwargs["d"]


def _is_tilde(d) -> bool:
    # tilde_join tags its result "[D1,D2]~"
    return str(d.family or "").endswith("~")


def _count_enumeration(counts: Counter, d) -> int:
    """Computed work of one pass over the projective classes of D."""
    q, k, n = d.field.q, d.dim, len(d)
    classes = (q ** k - 1) // (q - 1)
    counts["code.classes"] += classes
    counts["code.field_ops"] += classes * n * k
    return classes


def _observe_points(counts, args, kwargs, result):
    counts["pointset.points"] += len(result)


def _observe_cutting(counts, args, kwargs, result):
    counts["pointset.is_cutting.calls"] += 1
    _count_enumeration(counts, _defining_set(args, kwargs))


def _observe_weights(counts, args, kwargs, result):
    counts["code.weights.calls"] += 1
    _count_enumeration(counts, _defining_set(args, kwargs))


def _observe_minimal(counts, args, kwargs, result):
    d = _defining_set(args, kwargs)
    classes = _count_enumeration(counts, d)
    # bit-packed support matrix: one row of ceil(n/64) uint64 per class
    support = classes * max((len(d) + 63) // 64, 1) * 8
    counts["code.support_bytes"] = max(counts["code.support_bytes"], support)


def _observe_verify_one(counts, args, kwargs, result):
    status = result[0]
    counts["cli.pass"] += status == "PASS"
    counts["cli.skip"] += status == "SKIP"


def _observe_main(counts, args, kwargs, result):
    counts["cli.pass"] += result == 0
    counts["cli.skip"] += result == 3  # EXIT_BUDGET


def _observe_summarize(counts, args, kwargs, result):
    # the direct check was over budget and only the AB verdict is known
    counts["cli.skip"] += result.minimality_method != "direct"


OBSERVERS = {
    "pointset.family1": _observe_points,
    "pointset.family2": _observe_points,
    "pointset.family3": _observe_points,
    "pointset.family4": _observe_points,
    "pointset.tilde_join": _observe_points,
    "pointset.is_cutting": _observe_cutting,
    "code.weight_distribution_bruteforce": _observe_weights,
    "code.is_minimal_direct": _observe_minimal,
    "code.summarize": _observe_summarize,
    "cli.verify_one": _observe_verify_one,
    "cli.main": _observe_main,
}


def public_functions(module):
    """(name, callable) for each public, non-generator function that the
    module itself defines, lru-cached ones included."""
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        target = inspect.unwrap(obj)
        if (inspect.isfunction(target)
                and target.__module__ == module.__name__
                and not inspect.isgeneratorfunction(target)):
            yield name, obj


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, instance, layer or None]
        self.spans: list[list] = []
        #: identifier of the instance the harness is running
        self.instance = None
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[dict, object, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"mincodes.{short}"]
            for name, fn in public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "mincodes" and not modname.startswith("mincodes."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                self._rebind(namespace, key, value, wrappers)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._rebind(value, k, v, wrappers)

    def _rebind(self, container: dict, key, value, wrappers: dict) -> None:
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            self._patches.append((container, key, value))
            container[key] = hit[1]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def _wrap(self, name: str, fn):
        layer = LAYERS.get(name, MODULE_LAYERS.get(name.split(".")[0]))
        observe = OBSERVERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_layer = layer
            if name == "pointset.is_cutting" and _is_tilde(
                    _defining_set(args, kwargs)):
                span_layer = "pointset.is_cutting.tilde"
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.instance, span_layer]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    # -- reduction --------------------------------------------------------------

    def _layers(self, first: int) -> list[str]:
        """Layer of each span from index ``first`` on, callers resolved."""
        layers: list[str] = []
        for _, _, _, parent, _, layer in self.spans[first:]:
            caller = layers[parent - first] if parent >= first else HARNESS
            layers.append(layer or caller)
        return layers

    def layer_self_times(self, first: int, wall_s: float) -> dict[str, float]:
        """Self time per layer of the spans recorded from index ``first``
        on, over a phase that took ``wall_s``; time outside every span is
        charged to the harness."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        top = 0.0
        for _, start, end, parent, _, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
            else:
                top += end - start
        totals: dict[str, float] = defaultdict(float)
        for span, layer, inner in zip(spans, self._layers(first), child):
            totals[layer] += (span[2] - span[1]) - inner
        totals[HARNESS] += wall_s - top
        return dict(totals)

    def top_level_calls(self, first: int, prefix: str) -> int:
        """Spans from ``first`` on in a layer starting with ``prefix``
        whose caller's layer does not."""
        layers = self._layers(first)
        return sum(
            1 for (_, _, _, parent, _, _), layer in zip(self.spans[first:],
                                                        layers)
            if layer.startswith(prefix) and not (
                parent >= first and layers[parent - first].startswith(prefix)))

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "span_fields": [
                "name", "start", "end", "parent", "instance", "layer"],
                "spans": self.spans}, fh)
