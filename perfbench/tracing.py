"""Span tracing of the expcycles modules from outside the package.

`instrument` replaces the public functions of each traced module by
timing wrappers for the duration of a `with` block, and rebinds every
name under which another expcycles module imported the same function
(`ecdynamics.decompose_table`, `cli.primes_in_range`, ...). Calls made
inside a module resolve its globals at call time, so they are traced as
well, e.g. census_table -> exp_table and census_graph -> decompose_table.

Per-point functions are left alone: wrapping them would time the
wrapper, and their call counts follow from the table sizes.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager, suppress
from time import perf_counter

import numpy as np

TRACED_MODULES = ("modarith", "dynamics", "bounds", "ecdynamics", "cli")

PER_POINT = frozenset({
    "modarith.mul_mod", "modarith.pow_mod",
    "dynamics.apply", "dynamics.iterate", "dynamics.orbit",
    "ecdynamics.is_on_curve", "ecdynamics.point_neg", "ecdynamics.point_add",
    "ecdynamics.scalar_mul", "ecdynamics.ec_apply",
})

# Work size recorded with a span, from the call's arguments and result:
# nodes for the table passes, bits for the exact bound values.
SIZE_OF = {
    "dynamics.exp_table": lambda args, result: args[0].p,
    "dynamics.census_table": lambda args, result: args[0].p - 1,
    "dynamics.census_graph": lambda args, result: args[0].p - 1,
    "dynamics.decompose_table": lambda args, result: len(args[0]) - args[1],
    "ecdynamics.ec_table": lambda args, result: args[0].n,
    "bounds.thm2_bound_explicit": lambda args, result: result[1].bit_length(),
    "bounds.thm3_bound": lambda args, result: result.numerator.bit_length(),
}

# The memory model of dynamics._check_budget, in bytes per node.
MODEL_BYTES_PER_NODE = 56


class Tracer:
    """Spans kept in flat arrays: name id, parent index, item id, start, end, size."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.current = -1
        self.item_id = -1

    def wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        size_of = SIZE_OF.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            parent = self.current
            self.name.append(name_id)
            self.parent.append(parent)
            self.item.append(self.item_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.size.append(0)
            self.current = index
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.start[index] = start
                self.current = parent
            if size_of is not None:
                with suppress(AttributeError, IndexError, TypeError):  # a changed signature reads 0
                    self.size[index] = size_of(args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total and self seconds, summed size.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child[:n]
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        size = np.bincount(a["name"], weights=a["size"].astype(np.float64), minlength=k)
        largest = np.zeros(k, dtype=np.int64)
        np.maximum.at(largest, a["name"], a["size"])
        return {
            q: {"calls": int(calls[i]), "total_s": float(total[i]),
                "self_s": float(self_s[i]), "size": int(size[i]),
                "largest": int(largest[i])}
            for i, q in enumerate(self.names)
        }


@contextmanager
def instrument(tracer: Tracer):
    """Trace the public functions of TRACED_MODULES while the block runs."""
    import expcycles.cli  # noqa: F401  (imports every traced module)

    wrapped = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"expcycles.{short}"]
        for attr, obj in vars(module).items():
            qualname = f"{short}.{attr}"
            if (attr.startswith("_") or qualname in PER_POINT or isinstance(obj, type)
                    or not callable(obj) or getattr(obj, "__module__", None) != module.__name__):
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(qualname, obj))
    restore = []
    for name, module in list(sys.modules.items()):
        if name != "expcycles" and not name.startswith("expcycles."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
                restore.append((module, attr, obj))
    try:
        yield tracer
    finally:
        for module, attr, obj in restore:
            setattr(module, attr, obj)


# Per-layer metrics: name -> (unit, better). Everything here is reported on
# every workload; a layer the workload does not call reads 0.
LAYER_METRICS = {
    "dynamics.exp_table.calls": ("count", "lower"),
    "dynamics.exp_table.self_s": ("s", "lower"),
    "dynamics.exp_table.nodes": ("count", "lower"),
    "dynamics.exp_table.ns_per_node": ("ns", "lower"),
    "dynamics.census_table.calls": ("count", "lower"),
    "dynamics.census_table.self_s": ("s", "lower"),
    "dynamics.census_table.ns_per_node": ("ns", "lower"),
    "dynamics.census_graph.self_s": ("s", "lower"),
    "dynamics.decompose_table.self_s": ("s", "lower"),
    "dynamics.decompose_table.ns_per_node": ("ns", "lower"),
    "dynamics.census_graph.rss_bytes_per_node": ("B", "lower"),
    "dynamics.mem_model_ratio": ("ratio", "lower"),
    "dynamics.table_bytes": ("B", "lower"),
    "bounds.verify.calls": ("count", "lower"),
    "bounds.verify.self_s": ("s", "lower"),
    "bounds.thm2_bound_explicit.self_s": ("s", "lower"),
    "bounds.thm3_bound.self_s": ("s", "lower"),
    "bounds.bound_bits": ("bit", "lower"),
    "ecdynamics.curve_order.self_s": ("s", "lower"),
    "ecdynamics.ec_table.self_s": ("s", "lower"),
    "ecdynamics.ec_table.ns_per_node": ("ns", "lower"),
    "ecdynamics.ec_census.self_s": ("s", "lower"),
    "modarith.primes_in_range.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.fraction_decimal.self_s": ("s", "lower"),
    "cli.tasks": ("count", "lower"),
    "cli.items_failed": ("count", "lower"),
    "cli.pool_speedup": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def layer_metrics(totals: dict, *, traced_wall: float, untraced_wall: float,
                  e2e_wall: float, graph_rss_bytes_per_node: float,
                  tasks: int, items_failed: int) -> dict[str, float]:
    """The LAYER_METRICS values from span totals and the run's wall times."""
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0, "largest": 0}

    def t(q):
        return totals.get(q, zero)

    def ns_per_node(q):
        size = t(q)["size"]
        return t(q)["self_s"] / size * 1e9 if size else 0.0

    cli_self = sum(v["self_s"] for q, v in totals.items()
                   if q.startswith("cli.") and q != "cli.fraction_decimal")
    values = {
        "dynamics.exp_table.calls": t("dynamics.exp_table")["calls"],
        "dynamics.exp_table.self_s": t("dynamics.exp_table")["self_s"],
        "dynamics.exp_table.nodes": t("dynamics.exp_table")["size"],
        "dynamics.exp_table.ns_per_node": ns_per_node("dynamics.exp_table"),
        "dynamics.census_table.calls": t("dynamics.census_table")["calls"],
        "dynamics.census_table.self_s": t("dynamics.census_table")["self_s"],
        "dynamics.census_table.ns_per_node": ns_per_node("dynamics.census_table"),
        "dynamics.census_graph.self_s": t("dynamics.census_graph")["self_s"],
        "dynamics.decompose_table.self_s": t("dynamics.decompose_table")["self_s"],
        "dynamics.decompose_table.ns_per_node": ns_per_node("dynamics.decompose_table"),
        "dynamics.census_graph.rss_bytes_per_node": graph_rss_bytes_per_node,
        "dynamics.mem_model_ratio": graph_rss_bytes_per_node / MODEL_BYTES_PER_NODE,
        # computed: the largest exponent table, int64 entries
        "dynamics.table_bytes": 8 * t("dynamics.exp_table")["largest"],
        "bounds.verify.calls": t("bounds.verify")["calls"],
        "bounds.verify.self_s": t("bounds.verify")["self_s"],
        "bounds.thm2_bound_explicit.self_s": t("bounds.thm2_bound_explicit")["self_s"],
        "bounds.thm3_bound.self_s": t("bounds.thm3_bound")["self_s"],
        "bounds.bound_bits": t("bounds.thm2_bound_explicit")["size"]
        + t("bounds.thm3_bound")["size"],
        "ecdynamics.curve_order.self_s": t("ecdynamics.curve_order")["self_s"],
        "ecdynamics.ec_table.self_s": t("ecdynamics.ec_table")["self_s"],
        "ecdynamics.ec_table.ns_per_node": ns_per_node("ecdynamics.ec_table"),
        "ecdynamics.ec_census.self_s": t("ecdynamics.ec_census")["self_s"],
        "modarith.primes_in_range.self_s": t("modarith.primes_in_range")["self_s"],
        "cli.self_s": cli_self,
        "cli.fraction_decimal.self_s": t("cli.fraction_decimal")["self_s"],
        "cli.tasks": tasks,
        "cli.items_failed": items_failed,
        "cli.pool_speedup": untraced_wall / e2e_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_s": traced_wall - sum(v["self_s"] for v in totals.values()),
    }
    assert values.keys() == LAYER_METRICS.keys()
    return values
