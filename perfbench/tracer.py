"""Span tracer for the public functions of each kisindim layer.

`install()` wraps the functions in `WRAPPED` and rebinds every alias of
each one across the loaded `kisindim.*` modules (bounds imports `in_cone`,
`cone_generators` and others by name).  A wrapped call appends a span
[group, start, end, parent span, request id] to an in-memory list; `report()`
turns the spans into calls and self time (duration minus the time covered by
direct child spans) per group.  A name missing from its module is reported as
absent, not as an error, so the benchmark keeps running when a layer drops a
function.  Nothing that runs once per search node is wrapped.
"""

from __future__ import annotations

import functools
import sys
import time

# group -> (module, function names); a group sums its functions
WRAPPED = {
    "polyhedra.in_cone": ("polyhedra", ("in_cone",)),
    "polyhedra.extreme_points_of_sum": ("polyhedra", ("extreme_points_of_sum",)),
    "polyhedra.cone_generators": ("polyhedra", ("cone_generators",)),
    "polyhedra.enumerate_vertices": ("polyhedra", ("enumerate_vertices",)),
    "polyhedra.cone_hull": ("polyhedra", ("cone_hull",)),
    "solver.dim_exact": ("solver", ("dim_exact",)),
    "bounds.k_polytopes": ("bounds", ("k_polytopes",)),
    "bounds.theorem_bounds": ("bounds", ("theorem_bounds",)),
    "bounds.witness": ("bounds", ("witness_le_e", "witness_le_mu")),
    "bounds.min_over_permutations": ("bounds", ("min_over_permutations",)),
    "kisin_model.cone_q": ("kisin_model", ("cone_q",)),
    "kisin_model.transforms": ("kisin_model", ("q_from_mu", "mu_from_q")),
    "kisin_model.dim_phi": ("kisin_model", ("dim_phi",)),
    "perm.rho_w": ("perm", ("rho_w",)),
    "perm.hasse_dot": ("perm", ("hasse_dot",)),
    "cli.main": ("cli", ("main",)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.absent: list[str] = []
        self.nodes = 0
        self.refusals = 0
        self.candidates = 0
        self.kept = 0

    def _wrap(self, group, fn, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [group, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "BudgetExceeded":
                    self.refusals += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_dim(self, args, result):
        self.nodes += getattr(result, "nodes", 0)

    def _after_sum(self, args, result):
        self.candidates += len(getattr(args[0], "vertices", ()))
        self.kept += len(result)

    def install(self) -> None:
        after = {"solver.dim_exact": self._after_dim,
                 "polyhedra.extreme_points_of_sum": self._after_sum}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "kisindim" or name.startswith("kisindim."))]
        for group, (mod_name, names) in WRAPPED.items():
            home = sys.modules.get(f"kisindim.{mod_name}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.absent.append(f"{mod_name}.{name}")
                    continue
                wrapper = self._wrap(group, fn, after.get(group))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def report(self) -> dict:
        """Calls and self seconds per group, plus the exact counters."""
        child_time = [0.0] * len(self.spans)
        for group, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        groups = {g: {"calls": 0, "self_s": 0.0} for g in WRAPPED}
        for i, (group, start, end, _, _) in enumerate(self.spans):
            groups[group]["calls"] += 1
            groups[group]["self_s"] += end - start - child_time[i]
        return {"groups": groups, "absent": self.absent, "nodes": self.nodes,
                "refusals": self.refusals, "candidates": self.candidates,
                "kept": self.kept}
