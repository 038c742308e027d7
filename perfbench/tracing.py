"""In-memory span tracer installed around the public calls of each macflow
module, from outside the program.

Every ``macflow`` module reaches the others through module attributes at
call time (``ops.diffusion_matrix``, ``spla.splu``,
``verification.step_audit``), so replacing those attributes with timing
wrappers traces the real call graph without editing ``src/``.  Functions a
module imported by name (``from .fields import project_face``) are replaced
in every ``macflow`` namespace that binds them.

A span is ``(name, layer, start, end, parent, count)``.  A layer's self time
is the summed duration of its spans minus the part covered by child spans.
Bookkeeping the tracer itself does inside a traced call (reading a factor's
fill, a file's size) runs in a ``trace`` span, which no layer owns.
"""

import inspect
import json
import os
import time

# Public operators that build sparse matrices; every other public operator
# is a matrix-free apply.
ASSEMBLY = ("divergence_matrix", "divergence_constraint_matrix",
            "pressure_gradient_matrix", "diffusion_matrix",
            "convection_matrix", "transport_matrix")
# MacMesh methods that compute arrays on each call; the other public methods
# return stored arrays or shapes, and tracing them would cost more than
# their work.
MESH_METHODS = ("interior_mask", "face_centers", "cell_centers",
                "pair_volumes", "pair_exterior_mask", "dual_face_blocks")
KRYLOV = ("gmres", "lgmres", "bicgstab", "cg", "minres", "gcrotmk", "qmr",
          "cgs", "tfqmr")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, layer, fn, count=None):
        """Time ``fn`` as span ``name`` of ``layer``; ``count(args, kwargs,
        result)`` gives the span's work count, evaluated in a ``trace``
        span so its cost is charged to no layer."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, clock(), 0.0,
                          stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if count is not None:
                book = len(spans)
                spans.append(["trace.count", "trace", clock(), 0.0,
                              stack[-1] if stack else -1, None])
                spans[idx][5] = count(args, kwargs, result)
                spans[book][3] = clock()
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # A name the program no longer has is skipped, so that a later refactor
    # leaves its metric at 0 instead of breaking the benchmark.
    def _patch_function(self, namespaces, module, attr, name, layer, count=None):
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = self.wrap(name, layer, original, count)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, key, wrapped)

    def _patch_method(self, cls, attr, name, layer, count=None):
        if attr not in vars(cls):
            return
        self._set(cls, attr, self.wrap(name, layer, cls.__dict__[attr], count))

    def install(self):
        """Wrap every traced entry point; :meth:`uninstall` restores them."""
        import scipy.sparse.linalg as spla

        import macflow
        from macflow import (config, fields, mesh, operators, output,
                             problems, solver, verification)

        namespaces = [macflow, config, fields, mesh, operators, output,
                      problems, solver, verification]
        for module_name in ("cli", "convergence"):
            mod = getattr(macflow, module_name, None)
            if mod is not None:
                namespaces.append(mod)

        for attr in ("build_mesh", "mesh_metrics", "dual_faces_of"):
            self._patch_function(namespaces, mesh, attr, f"mesh.{attr}", "mesh")
        for attr in MESH_METHODS:
            self._patch_method(mesh.MacMesh, attr, f"mesh.{attr}", "mesh")

        for attr in fields.__all__:
            if inspect.isfunction(getattr(fields, attr, None)):
                layer = ("fields.project" if attr.startswith("project_")
                         else "fields")
                self._patch_function(namespaces, fields, attr,
                                     f"fields.{attr}", layer)

        op_names = [a for a in operators.__all__
                    if inspect.isfunction(getattr(operators, a, None))
                    and a != "dump_matrix_coo"] + ["mass_fluxes"]
        for attr in op_names:
            if attr in ASSEMBLY:
                self._patch_function(namespaces, operators, attr,
                                     f"operators.{attr}", "operators.assemble",
                                     count=_nnz)
            else:
                self._patch_function(namespaces, operators, attr,
                                     f"operators.{attr}", "operators.apply")

        self._set(spla, "splu", self._traced_splu(spla.splu))
        for attr in KRYLOV:
            if hasattr(spla, attr):
                self._set(spla, attr, self._traced_krylov(attr, getattr(spla, attr)))

        for attr in ("transport_solve", "momentum_solve", "advance_timestep",
                     "initial_state", "run_simulation"):
            self._patch_function(namespaces, solver, attr, f"solver.{attr}",
                                 "solver")
        for attr in ("__init__", "momentum_solve"):
            self._patch_method(solver.StepSolver, attr,
                               f"solver.StepSolver.{attr}", "solver")

        self._patch_function(namespaces, problems, "make_problem",
                             "problems.make_problem", "problems")
        for attr in ("forcing_faces", "errors_vs_exact"):
            self._patch_method(problems.Problem, attr,
                               f"problems.Problem.{attr}", "problems")
        self._patch_function(namespaces, config, "load_config",
                             "config.load_config", "config")

        for attr in ("step_audit", "check_dualities", "check_inequalities",
                     "check_fortin", "kinetic_energy", "velocity_l2",
                     "velocity_estimate_bounds", "dual_mass_balance_residual"):
            self._patch_function(namespaces, verification, attr,
                                 f"verification.{attr}", "verification")

        for attr in ("write_vtk_rectilinear", "write_staggered_csv",
                     "write_report_csv"):
            self._patch_function(namespaces, output, attr, f"output.{attr}",
                                 "output", count=_written_file)
        self._patch_method(output.DiagnosticsCsvWriter, "__call__",
                           "output.DiagnosticsCsvWriter.__call__", "output",
                           count=_diagnostics_file)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _traced_splu(self, splu):
        tracer = self

        def fill(args, kwargs, lu):
            return int(lu.L.nnz + lu.U.nnz)

        factor = self.wrap("scipy.splu", "solver.factor", splu, count=fill)

        def traced_splu(*args, **kwargs):
            return _TracedLU(factor(*args, **kwargs), tracer)

        return traced_splu

    def _traced_krylov(self, attr, fn):
        iterations = [0]

        def counted(*args, **kwargs):
            user = kwargs.get("callback")

            def callback(*cb_args):
                iterations[0] += 1
                if user is not None:
                    user(*cb_args)

            kwargs["callback"] = callback
            if attr == "gmres" and kwargs.get("callback_type") is None:
                kwargs["callback_type"] = "pr_norm"
            iterations[0] = 0
            return fn(*args, **kwargs)

        return self.wrap(f"scipy.{attr}", "solver.krylov", counted,
                         count=lambda a, k, r: iterations[0])


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is a ``solver.trisolve`` span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap("scipy.SuperLU.solve", "solver.trisolve",
                                 lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _nnz(args, kwargs, matrix):
    return int(matrix.nnz)


def _written_file(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return (os.fspath(path), os.path.getsize(path))


def _diagnostics_file(args, kwargs, result):
    writer = args[0]
    return (os.fspath(writer.path), os.path.getsize(writer.path))


# -- aggregation -------------------------------------------------------------

# Calls whose metric is the time inside the call, children included.
INCLUSIVE = {
    "solver.setup_s": "solver.StepSolver.__init__",
    "solver.step_s": "solver.advance_timestep",
    "solver.transport_s": "solver.transport_solve",
    "solver.momentum_s": "solver.StepSolver.momentum_solve",
    "problems.forcing_s": "problems.Problem.forcing_faces",
    "verification.audit_s": "verification.step_audit",
}
CHECKS = ("verification.check_dualities", "verification.check_inequalities",
          "verification.check_fortin")


def layer_metrics(spans):
    """Per-layer totals of one traced unit, keyed by metric name."""
    n = len(spans)
    child = [0.0] * n
    for name, layer, start, end, parent, count in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time = {}
    calls = {}
    counts = {}
    files = {}
    inclusive = {}
    for idx, (name, layer, start, end, parent, count) in enumerate(spans):
        self_time[layer] = self_time.get(layer, 0.0) + (end - start - child[idx])
        calls[layer] = calls.get(layer, 0) + 1
        if isinstance(count, tuple):
            files[count[0]] = max(files.get(count[0], 0), count[1])
        elif count is not None:
            counts[layer] = counts.get(layer, 0) + count
        # outermost span of this name on its stack: nested repeats are
        # already inside it
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][4]
        if p < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)

    def s(layer):
        return self_time.get(layer, 0.0)

    out = {
        "solver.factor_s": s("solver.factor"),
        "solver.factor_calls": calls.get("solver.factor", 0),
        "solver.factor_fill_nnz": counts.get("solver.factor", 0),
        "solver.trisolve_s": s("solver.trisolve"),
        "solver.trisolve_calls": calls.get("solver.trisolve", 0),
        "solver.krylov_s": s("solver.krylov"),
        "solver.krylov_iters": counts.get("solver.krylov", 0),
        "solver.self_s": s("solver"),
        "operators.assemble_s": s("operators.assemble"),
        "operators.assemble_calls": calls.get("operators.assemble", 0),
        "operators.assemble_nnz": counts.get("operators.assemble", 0),
        "operators.apply_s": s("operators.apply"),
        "operators.apply_calls": calls.get("operators.apply", 0),
        "verification.check_s": sum(inclusive.get(c, 0.0) for c in CHECKS),
        "verification.self_s": s("verification"),
        "fields.project_s": s("fields.project"),
        "fields.project_calls": calls.get("fields.project", 0),
        "fields.self_s": s("fields"),
        "mesh.s": s("mesh"),
        "output.write_s": s("output"),
        "output.bytes": sum(files.values()),
    }
    for metric, name in INCLUSIVE.items():
        out[metric] = inclusive.get(name, 0.0)
    return out


def write_spans(spans, path):
    """Write spans as JSON lines."""
    with open(path, "w") as fh:
        for name, layer, start, end, parent, count in spans:
            fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                 "end": end, "parent": parent,
                                 "count": count}) + "\n")
