"""In-memory span tracer that wraps the package's public functions.

Nothing inside the package is changed: install() rebinds, in every layer
module and in the package namespace, each module-level binding of a public
function (including the copies that ``from .x import y`` makes) to a timing
wrapper, plus three DomainBox methods and the callables compile_expr
returns.  uninstall() puts the originals back.

Spans are aggregated as they close, keyed by (parent function, function),
so memory stays flat however many spans a run opens.  A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = (
    "expr",
    "scalar_fields",
    "family",
    "verification",
    "casimir",
    "darboux",
    "dynamics",
    "builtin_systems",
    "cli",
)
DOMAIN_METHODS = ("sample", "contains", "point_for_index")
EVAL = "expr.eval"  # spans of the callables compile_expr returns
INTEGRATORS = ("dynamics.integrate", "dynamics.integrate_reduced")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}  # outermost spans only, so recursion counts once
        self.self_time: dict[str, float] = {}
        self.failed: dict[str, int] = {}
        self.edges: dict[tuple[str | None, str], int] = {}
        self.counters: dict[str, int] = {"points_accepted": 0, "steps": 0, "structure_in_steps": 0}
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, name: str, fn, post=None):
        for table, zero in ((self.calls, 0), (self.total, 0.0), (self.self_time, 0.0), (self.failed, 0)):
            table.setdefault(name, zero)
        stack, depth, edges = self._stack, self._depth, self.edges
        calls, total, self_time, failed = self.calls, self.total, self.self_time, self.failed

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[name] = level
                calls[name] += 1
                if level == 0:
                    total[name] += dur
                self_time[name] += dur - frame[1]
                if not ok:
                    failed[name] += 1
                if stack:
                    stack[-1][1] += dur
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1
            return post(out) if post is not None else out

        wrapper.__wrapped__ = fn
        return wrapper

    def _inside_integrator(self) -> bool:
        return any(self._depth.get(n) for n in INTEGRATORS)

    # -- per-function hooks -------------------------------------------------

    def _post_hooks(self):
        counters = self.counters

        def compiled(fn):
            wrapped = self._wrap(EVAL, fn)
            wrapped.source = fn.source
            wrapped.varnames = fn.varnames
            return wrapped

        def accepted(points):
            counters["points_accepted"] += len(points)
            return points

        def steps(traj):
            counters["steps"] += len(traj) - 1
            return traj

        def structure(value):
            if self._inside_integrator():
                counters["structure_in_steps"] += 1
            return value

        return {
            "expr.compile_expr": compiled,
            "scalar_fields.DomainBox.sample": accepted,
            "dynamics.integrate": steps,
            "dynamics.integrate_reduced": steps,
            "family.structure_matrix_at": structure,
        }

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("poisson3d")
        modules = {layer: importlib.import_module(f"poisson3d.{layer}") for layer in LAYERS}
        owned = {m.__name__: layer for layer, m in modules.items()}
        hooks = self._post_hooks()
        wrappers = {}  # id(original function) -> wrapper
        for module in list(modules.values()) + [package]:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = owned.get(obj.__module__)
                if layer is None:
                    continue
                if id(obj) not in wrappers:
                    name = f"{layer}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
                self._patch(module, attr, wrappers[id(obj)])
        box = modules["scalar_fields"].DomainBox
        for method in DOMAIN_METHODS:
            name = f"scalar_fields.DomainBox.{method}"
            self._patch(box, method, self._wrap(name, vars(box)[method], hooks.get(name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        for table in (self.calls, self.failed):
            for k in table:
                table[k] = 0
        for table in (self.total, self.self_time):
            for k in table:
                table[k] = 0.0
        self.edges.clear()
        for k in self.counters:
            self.counters[k] = 0

    def snapshot(self) -> dict:
        """Counts and times of everything recorded since the last reset."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "failed": dict(self.failed),
            "counters": dict(self.counters),
            "edges": sorted([p or "", c, n] for (p, c), n in self.edges.items()),
        }


def per_layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """Reduce one traced pass to the per-layer metrics (value, unit)."""
    calls, total, self_t, failed, counters = (
        snap["calls"], snap["total"], snap["self"], snap["failed"], snap["counters"],
    )
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (sum(calls[n] for n in names), "count")
        out[f"{layer}.self_s"] = (sum(self_t[n] for n in names), "s")
        out[f"{layer}.failed"] = (sum(failed[n] for n in names), "count")

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    drawn = n("scalar_fields.DomainBox.point_for_index")
    accepted = counters["points_accepted"]
    steps = counters["steps"]
    out.update({
        "expr.eval_calls": (n(EVAL), "count"),
        "expr.eval_s": (t(EVAL), "s"),
        "expr.compile_calls": (n("expr.compile_expr"), "count"),
        "expr.compile_s": (t("expr.compile_expr"), "s"),
        "expr.differentiate_s": (t("expr.differentiate"), "s"),
        "scalar_fields.points_drawn": (drawn, "count"),
        "scalar_fields.points_accepted": (accepted, "count"),
        "scalar_fields.accept_ratio": (accepted / drawn if drawn else 0.0, "ratio"),
        "scalar_fields.sample_s": (t("scalar_fields.DomainBox.sample"), "s"),
        "scalar_fields.psi_inverse_calls": (n("scalar_fields.psi_inverse"), "count"),
        "scalar_fields.psi_inverse_s": (t("scalar_fields.psi_inverse"), "s"),
        "family.make_spec_s": (t("family.make_family_spec"), "s"),
        "family.structure_matrix_calls": (n("family.structure_matrix_at"), "count"),
        "family.chi_calls": (n("family.chi"), "count"),
        "verification.jacobi_calls": (n("verification.jacobi_residual"), "count"),
        "verification.jacobi_s": (t("verification.jacobi_residual"), "s"),
        "casimir.value_calls": (n("casimir.casimir_value"), "count"),
        "casimir.value_s": (t("casimir.casimir_value"), "s"),
        "casimir.default_index_s": (t("casimir.default_casimir_index"), "s"),
        "darboux.build_chart_s": (t("darboux.build_chart"), "s"),
        "darboux.inverse_map_calls": (n("darboux.inverse_map"), "count"),
        "darboux.inverse_map_s": (t("darboux.inverse_map"), "s"),
        "darboux.pushforward_s": (t("darboux.pushforward_matrix"), "s"),
        "darboux.canonical_s": (t("darboux.canonical_check"), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.integrate_s": (t("dynamics.integrate"), "s"),
        "dynamics.integrate_reduced_s": (t("dynamics.integrate_reduced"), "s"),
        "dynamics.structure_calls_per_step": (
            counters["structure_in_steps"] / steps if steps else 0.0, "count/step"),
        "cli.load_spec_s": (t("cli.load_spec_file"), "s"),
        "builtin_systems.build_s": (t("builtin_systems.build_system"), "s"),
    })
    return out


def counts_only(snap: dict) -> dict:
    """The parts of a snapshot that must repeat exactly for a fixed seed."""
    return {"calls": snap["calls"], "failed": snap["failed"], "counters": snap["counters"], "edges": snap["edges"]}
