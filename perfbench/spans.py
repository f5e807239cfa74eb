"""Outside-in tracing of the quantile-alloc package for the benchmark's traced run.

The tracer wraps the package's functions from outside: each target function
is replaced by a wrapper at every module that binds it (``esw_solvers`` and
``chores_solvers`` each bind their own ``max_cardinality_bipartite``), and
``Instance.__post_init__`` and ``Graph.__post_init__`` are wrapped on their
classes.  A wrapper records one span (layer name, start, end, parent span and
operation id) in flat arrays held in memory; ``write`` saves them when the
run ends.  A layer's self time is the duration of its spans minus the
durations of their child spans.

Only the traced run imports this module, so the timed run carries none of it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

#: Layer name -> (module, attribute) targets.  Each target is wrapped at
#: every package module that binds the same function object.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "cli.parse_instance": [("cli", "parse_instance")],
    "core.threshold_binary": [("core", "threshold_binary")],
    "core.bundle_value": [("core", "bundle_value")],
    "core.welfare": [("core", name) for name in ("usw", "esw", "usc", "esc")],
    "matching.graph_build": [("matching", "bipartite_graph")],
    "matching.cardinality": [("matching", "max_cardinality_bipartite")],
    "matching.weighted_bipartite": [("matching", "max_weight_bipartite")],
    "matching.weighted_general": [("matching", "max_weight_general")],
    "esw_solvers.decider": [
        ("esw_solvers", name)
        for name in (
            "balanced_esw_binary",
            "unbalanced_esw_binary_frac",
            "unbalanced_esw_binary_third",
            "unbalanced_esw_binary_tau0",
            "unbalanced_esw_binary_tau1",
            "_identical_binary_esw",
        )
    ],
    "esw_solvers.search": [
        ("esw_solvers", name)
        for name in ("balanced_esw", "unbalanced_esw", "identical_unbalanced_esw")
    ],
    "chores_solvers.decider": [
        ("chores_solvers", name)
        for name in ("balanced_esc_binary", "_esc_tau0_binary", "_esc_tau1_binary")
    ],
    "chores_solvers.search": [
        ("chores_solvers", name) for name in ("balanced_esc", "esc_tau0", "esc_tau1")
    ],
    "chores_solvers.setcover": [("chores_solvers", "usc_tau0_setcover")],
    "usw_solvers": [
        ("usw_solvers", name)
        for name in (
            "greedy_balanced_usw",
            "scapegoat_usw",
            "optimistic_exact_usw",
            "identical_binary_usw_unbalanced",
        )
    ],
    "oracle": [("oracle", "opt_welfare")],
    "construct": [
        ("_construct", name)
        for name in ("owner_from_bundles", "round_robin_pad", "balanced_blocks", "all_to_first")
    ],
}

#: Layer name -> (module, class) whose ``__post_init__`` (validation) is wrapped.
VALIDATORS = {
    "core.instance_validate": ("core", "Instance"),
    "matching.graph_build": ("matching", "Graph"),
}

ROOT = "op"

PACKAGE = "quantile_alloc"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("B")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.counters: dict[str, int] = {"matching.graph.edges": 0, "oracle.allocations": 0}
        self.missing: list[str] = []
        self.patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as operation ``op_id`` under a root span."""
        self.current_op = op_id
        idx = self._open(self._name_id(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _span_wrapper(self, layer: str, fn):
        name_id = self._name_id(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _count_wrapper(self, counter: str, fn, amount):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += amount(*args)
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ install

    def _patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in the already imported package."""
        self.missing = []
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}

        def rebind(original, replacement) -> None:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, replacement)

        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(by_name.get(module_name), attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                rebind(original, self._span_wrapper(layer, original))

        for layer, (module_name, class_name) in VALIDATORS.items():
            cls = getattr(by_name.get(module_name), class_name, None)
            if cls is None or "__post_init__" not in vars(cls):
                self.missing.append(f"{module_name}.{class_name}.__post_init__")
                continue
            self._patch(cls, "__post_init__", self._span_wrapper(layer, vars(cls)["__post_init__"]))
        graph_cls = getattr(by_name.get("matching"), "Graph", None)
        if graph_cls is not None:
            self._patch(graph_cls, "__post_init__", self._count_wrapper(
                "matching.graph.edges", graph_cls.__post_init__, lambda graph: len(graph.edges)))

        # One oracle evaluation per enumerated allocation: counted, not spanned.
        evaluate = getattr(by_name.get("oracle"), "evaluate", None)
        if evaluate is None:
            self.missing.append("oracle.evaluate")
        else:
            rebind(evaluate, self._count_wrapper("oracle.allocations", evaluate, lambda *args: 1))

    def uninstall(self) -> None:
        """Put back every function and method that ``install`` replaced."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def layer_totals(self) -> dict[str, tuple[int, int, int]]:
        """Layer -> (span count, total duration ns, total self time ns)."""
        count = len(self.name)
        start, end, parent = self.start, self.end, self.parent
        child = array("q", bytes(8 * count))
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [[0, 0, 0] for _ in self.names]
        name = self.name
        for i in range(count):
            dur = end[i] - start[i]
            entry = totals[name[i]]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
        return {n: (c, d, s) for n, (c, d, s) in zip(self.names, totals)}

    def write(self, path: Path) -> None:
        """Save the spans: ``<path>.json`` describes ``<path>.bin``, which holds
        the five arrays back to back in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = [("name", self.name), ("parent", self.parent), ("op", self.op),
                  ("start_ns", self.start), ("end_ns", self.end)]
        with open(path.with_suffix(".bin"), "wb") as handle:
            for _, arr in arrays:
                arr.tofile(handle)
        header = {
            "spans": len(self.name),
            "names": self.names,
            "arrays": [{"field": f, "typecode": a.typecode, "itemsize": a.itemsize} for f, a in arrays],
            "byteorder": sys.byteorder,
            "counters": self.counters,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
