"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps the public functions of each genequo module (and the
callables that ``compile_expression`` returns) at every binding site: modules
import names directly (``solver.phi``, ``penalty.phi``, ``cli.compile_expression``,
``sphere_directions`` in seven modules), so patching the defining module alone
would miss calls.  ``Tracer.uninstall`` puts every original back, so untraced
jobs in the same process run the unmodified code.

A span covers one call into a layer.  A call made while the same layer is
already the innermost open span (recursion, or ``distance`` calling
``project`` on one cone) stays inside that span.  A layer's self time is its
spans' total duration minus the time of spans opened inside them.  Spans are
aggregated in memory as they close: calls, self time, and a few counts read
off arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

JOB = "job"

# (module, function name, layer)
FUNCTION_LAYERS = [
    ("cli", "load_spec", "cli.load_spec"),
    ("cli", "build_cone", "cli.build"),
    ("cli", "build_mapping", "cli.build"),
    ("cli", "build_objective", "cli.build"),
    ("cli", "build_certificate", "cli.build"),
    ("cli", "spec_digest", "cli.render"),
    ("cli", "render_machine", "cli.render"),
    ("mappings", "phi", "mappings.phi"),
    ("mappings", "evaluate", "mappings.evaluate"),
    ("geometry", "excess_to_cone", "geometry.excess_to_cone"),
    ("geometry", "dist_to_set", "geometry.dist_to_set"),
    ("sampling", "sphere_directions", "sampling.sphere_directions"),
    ("increase", "check_increase_inclusion", "increase.check_inclusion"),
    ("increase", "estimate_increase_bound", "increase.estimate"),
    ("solver", "solve", "solver.solve"),
    ("solver", "descent_step", "solver.descent_step"),
    ("penalty", "exactness_experiment", "penalty.exactness_experiment"),
    ("penalty", "strict_global_check", "penalty.strict_global_check"),
    ("penalty", "pattern_search", "penalty.pattern_search"),
    ("penalty", "grid_points", "penalty.grid"),
]

# (class name in genequo.geometry, layer); spans cover these methods.
CONE_LAYERS = [
    ("Orthant", "geometry.cone.orthant"),
    ("NonnegHalfLine", "geometry.cone.half_line"),
    ("NonposHalfLine", "geometry.cone.half_line"),
    ("PolyhedralCone", "geometry.cone.polyhedral"),
]
CONE_METHODS = ("project", "distance", "distance_many")

# phi calls are also counted per enclosing layer, for phi-per-step and
# phi-per-grid-point.
NESTED = {"mappings.phi": ("solver.descent_step", "penalty.exactness_experiment",
                           "penalty.strict_global_check")}


class Tracer:
    """Aggregates spans of traced jobs; one instance per workload process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()
        self.counts: Counter = Counter()
        self.jobs = 0
        self.binding_sites: dict[str, int] = {}
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._sphere_keys: set = set()
        self._patches: list[tuple] = []
        self._hooks = {
            "mappings.phi": self._on_phi,
            "geometry.excess_to_cone": self._on_excess,
            "increase.check_inclusion": self._on_inclusion,
            "solver.solve": self._on_solve,
            "penalty.grid": self._on_grid,
        }

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, fn):
        hook = self._hooks.get(layer)
        on_args = self._on_sphere_args if layer == "sampling.sphere_directions" else None
        sig = inspect.signature(fn) if on_args else None
        stack, active, nested_of = self._stack, self._active, NESTED.get(layer, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            for outer in nested_of:
                if active[outer]:
                    self.nested[(outer, layer)] += 1
            if on_args:
                on_args(sig, args, kwargs)
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            active[layer] += 1
            failed = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
                raise
            finally:
                self._close(frame)
                if hook:
                    hook(None if failed else result, failed)
            return result

        return traced

    def _close(self, frame) -> None:
        layer, start, child = frame
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self._active[layer] -= 1
        self.calls[layer] += 1
        self.self_s[layer] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def run_job(self, job):
        """Run job() with every layer wrapped, inside a root span."""
        self.install()
        self._sphere_keys = set()
        frame = [JOB, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return job()
        finally:
            self._stack.pop()
            self.self_s[JOB] += time.perf_counter() - frame[1] - frame[2]
            self.jobs += 1
            self.uninstall()

    # -- result and argument hooks -------------------------------------------

    def _on_phi(self, res, exc):
        if res is not None and not res.exact:
            self.counts["phi.sampled"] += 1

    def _on_excess(self, res, exc):
        if res is not None and res.method == "sampled-lower-bound":
            self.counts["excess.sampled"] += 1

    def _on_inclusion(self, res, exc):
        if res is not None:
            self.counts[f"inclusion.{res.verdict}"] += 1
            self.counts["inclusion.candidates"] += res.n_candidates

    def _on_solve(self, res, exc):
        report = res if exc is None else getattr(exc, "report", None)
        if report is not None:
            self.counts["solve.iterations"] += report.iterations

    def _on_grid(self, res, exc):
        if res is not None:
            self.counts["grid.points"] += len(res)

    def _on_sphere_args(self, sig, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.values())
        if key not in self._sphere_keys:
            self._sphere_keys.add(key)
            self.counts["sphere.distinct"] += 1

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "genequo" or name.startswith("genequo."))]
        for mod_name, fn_name, layer in FUNCTION_LAYERS:
            original = getattr(sys.modules[f"genequo.{mod_name}"], fn_name)
            self._patch_bindings(modules, original, self.wrap(layer, original), fn_name)
        cli = sys.modules["genequo.cli"]
        compile_original = cli.compile_expression

        def compile_traced(*args, **kwargs):
            return self.wrap("expr.eval", compile_original(*args, **kwargs))

        self._patch_bindings(modules, compile_original, compile_traced, "compile_expression")
        geometry = sys.modules["genequo.geometry"]
        for cls_name, layer in CONE_LAYERS:
            cls = getattr(geometry, cls_name)
            for method in CONE_METHODS:
                original = getattr(cls, method)
                owned = method in vars(cls)
                self._patches.append((cls, method, original, owned))
                setattr(cls, method, self.wrap(layer, original))

    def _patch_bindings(self, modules, original, replacement, name) -> None:
        sites = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, True))
                    setattr(mod, attr, replacement)
                    sites += 1
        self.binding_sites[name] = sites

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, per traced job unless the name says otherwise."""
        jobs = max(self.jobs, 1)
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for layer in ("cli.load_spec", "expr.eval", "mappings.phi", "mappings.evaluate",
                      "geometry.excess_to_cone", "geometry.dist_to_set",
                      "geometry.cone.orthant", "geometry.cone.half_line",
                      "geometry.cone.polyhedral", "sampling.sphere_directions",
                      "increase.check_inclusion", "solver.solve", "solver.descent_step"):
            out[f"{layer}.calls"] = calls[layer] / jobs
        for layer in ("cli.load_spec", "cli.build", "cli.render", "expr.eval",
                      "mappings.phi", "mappings.evaluate", "geometry.excess_to_cone",
                      "geometry.dist_to_set", "geometry.cone.orthant",
                      "geometry.cone.half_line", "geometry.cone.polyhedral",
                      "sampling.sphere_directions", "increase.check_inclusion",
                      "increase.estimate", "solver.descent_step",
                      "penalty.exactness_experiment", "penalty.strict_global_check",
                      "penalty.pattern_search"):
            out[f"{layer}.self_s"] = self_s[layer] / jobs
        out["mappings.phi.sampled_ratio"] = ratio(counts["phi.sampled"], calls["mappings.phi"])
        out["geometry.excess_to_cone.sampled_ratio"] = ratio(
            counts["excess.sampled"], calls["geometry.excess_to_cone"])
        out["sampling.sphere_directions.repeat_ratio"] = 1.0 - ratio(
            counts["sphere.distinct"], calls["sampling.sphere_directions"]) \
            if calls["sampling.sphere_directions"] else 0.0
        for verdict in ("certified", "refuted", "inconclusive"):
            out[f"increase.check_inclusion.{verdict}"] = counts[f"inclusion.{verdict}"] / jobs
        out["increase.check_inclusion.candidates_per_check"] = ratio(
            counts["inclusion.candidates"], calls["increase.check_inclusion"])
        out["solver.solve.iterations"] = ratio(counts["solve.iterations"], calls["solver.solve"])
        out["solver.descent_step.phi_per_step"] = ratio(
            self.nested[("solver.descent_step", "mappings.phi")], calls["solver.descent_step"])
        out["penalty.grid.points"] = counts["grid.points"] / jobs
        out["penalty.phi_per_grid_point"] = ratio(
            self.nested[("penalty.exactness_experiment", "mappings.phi")]
            + self.nested[("penalty.strict_global_check", "mappings.phi")],
            counts["grid.points"])
        out["job.unattributed_s"] = self_s[JOB] / jobs
        return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, u in ((".calls", "count/job"), ("_s", "s/job"), ("_ratio", "ratio"),
                      (".candidates_per_check", "count/check"),
                      (".iterations", "count/solve"), (".phi_per_step", "count/step"),
                      (".phi_per_grid_point", "count/point"), (".probe_errors", "count")):
        if metric.endswith(suffix):
            return u
    return "count/job"
