"""Outside-in tracer: spans around calls into cellform's public functions.

The tracer changes nothing in the library. ``install`` replaces each traced
function, in every cellform module that holds a reference to it, with a
wrapper that records a span; ``uninstall`` puts the originals back. Methods
are wrapped on their class. A target that no longer exists (say, after a
refactor renames it) is reported as absent and simply records no calls.

A span has a layer name, start, end, parent span and request id. Spans are
kept in compact arrays in memory and written out by ``save`` at the end of a
run. Self time (a span's duration minus its child spans and minus the time
spent in count hooks) is accumulated per request and layer as spans close,
so reports need no second pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _graph_counts(args, kwargs, graph):
    return {"edges": len(graph.edges)}


def _parts_counts(args, kwargs, batch):
    population = args[1]
    return {"rows": len(population),
            "distinct": len({tuple(p) for p in population}),
            "feasible_rows": int((np.asarray(batch.violations) == 0).sum())}


def _keeps_counts(args, kwargs, batch):
    return {"rows": len(args[1]),
            "feasible_rows": int((np.asarray(batch.violations) == 0).sum())}


# (layer, module, attribute path, count hook). Several targets may feed one
# layer; ga.crossover covers both crossover operators.
TARGETS = (
    ("instance.parse_instance", "instance", "parse_instance", None),
    ("flowgraph.build_graph", "flowgraph", "build_graph", _graph_counts),
    ("cuts.build_basis", "cuts", "build_basis", None),
    ("cuts.decode_partition", "cuts", "decode_partition", None),
    ("ga.run_ga", "ga", "run_ga", None),
    ("ga.init_population", "ga", "init_population", None),
    ("ga.roulette_select", "ga", "roulette_select", None),
    ("ga.crossover", "ga", "crossover_any", None),
    ("ga.crossover", "ga", "crossover_boundary", None),
    ("ga.mutate", "ga", "mutate", None),
    ("ga.sort_chromosome", "ga", "sort_chromosome", None),
    ("evaluation.evaluate_parts", "evaluation",
     "PopulationEvaluator.evaluate_parts", _parts_counts),
    ("evaluation.evaluate_keeps", "evaluation",
     "PopulationEvaluator.evaluate_keeps", _keeps_counts),
    ("evaluation.selection_weights", "evaluation",
     "PopulationEvaluator.selection_weights", None),
    ("evaluation.intercellular_traffic", "evaluation",
     "intercellular_traffic", None),
    ("evaluation.count_violations", "evaluation", "count_violations", None),
    ("evaluation.evaluate_partition", "evaluation", "evaluate_partition",
     None),
    ("baselines.run_ega", "baselines", "run_ega", None),
    ("baselines.run_multikmeans", "baselines", "run_multikmeans", None),
)

PACKAGE = "cellform"
REQUEST = "request"
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class Tracer:
    """Records spans for calls into the targets while installed."""

    def __init__(self):
        self.names = [REQUEST, *LAYERS]
        self._code = {name: i for i, name in enumerate(self.names)}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrappers = self._build_wrappers()
        # span arrays: layer code, start/end (ns since creation), parent, req
        self.t0 = time.perf_counter_ns()
        self.layer = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request_of = array("q")
        # open spans: [span index, layer code, start ns, child+hook ns]
        self._stack: list[list] = []
        self.request = -1
        # per request: layer -> [self ns, calls, total ns]; counter -> sum
        self.self_ns: dict[int, dict[str, list[int]]] = {}
        self.counts: dict[int, dict[str, int]] = {}
        self.hook_ns = 0

    # ----- patching -----------------------------------------------------

    def _modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _build_wrappers(self):
        wrappers = []
        for layer, module_name, path, hook in TARGETS:
            target = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            if isinstance(owner, type):
                # the plain function, so that uninstall restores it exactly
                original = vars(owner).get(attr)
            else:
                original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(original, self._code[layer], hook)
            wrappers.append((owner, attr, original, wrapper))
        return wrappers

    def install(self):
        """Swap every reference to a target for its wrapper."""
        modules = self._modules()
        for owner, attr, original, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original, wrapper))

    def uninstall(self):
        """Restore every original reference."""
        while self._patches:
            owner, name, original, _ = self._patches.pop()
            setattr(owner, name, original)

    # ----- spans --------------------------------------------------------

    def _open(self, code: int) -> list:
        index = len(self.layer)
        parent = self._stack[-1][0] if self._stack else -1
        self.layer.append(code)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(parent)
        self.request_of.append(self.request)
        frame = [index, code, 0, 0]
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list, end: int, hook_ns: int):
        index, code, start, inner = frame
        self._stack.pop()
        self.start[index] = start - self.t0
        self.end[index] = end - self.t0
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration + hook_ns
        cell = self.self_ns[self.request].setdefault(self.names[code],
                                                    [0, 0, 0])
        cell[0] += duration - inner
        cell[1] += 1
        cell[2] += duration

    def _wrap(self, original, code: int, hook):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer._open(code)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(frame, time.perf_counter_ns(), 0)
                raise
            end = time.perf_counter_ns()
            hook_ns = 0
            if hook is not None:
                counted = hook(args, kwargs, result)
                req = tracer.counts[tracer.request]
                for key, value in counted.items():
                    name = f"{tracer.names[code]}.{key}"
                    req[name] = req.get(name, 0) + value
                hook_ns = time.perf_counter_ns() - end
                tracer.hook_ns += hook_ns
            tracer._close(frame, end, hook_ns)
            return result

        return traced

    def run_request(self, request_id: int, func, *args):
        """Call ``func(*args)`` inside a root span, with the tracer live.

        Returns (result, duration in seconds of the root span).
        """
        self.request = request_id
        self.self_ns[request_id] = {}
        self.counts[request_id] = {}
        self.install()
        try:
            frame = self._open(self._code[REQUEST])
            try:
                result = func(*args)
            finally:
                end = time.perf_counter_ns()
                self._close(frame, end, 0)
        finally:
            self.uninstall()
        return result, (end - frame[2]) / 1e9

    def save(self, path):
        """Write every span to ``path`` as a NumPy .npz archive."""
        np.savez_compressed(
            path, names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request_of, dtype=np.int64))
