"""Outside-in tracer for one lowrank_sde CLI run.

The tracer replaces public names in the namespace of the module that
calls them, for example ``lowrank_sde.harness.generate`` or
``lowrank_sde.integrators.solve_spsd_minnorm``, with wrappers that record
a span around each call.  Leaving the ``with`` block puts every replaced
name back, also when the block raises.  Wrappers hand arguments and
return values through untouched, so a traced run writes the same bytes
as an untraced one.

Spans stay in memory as tuples ``(id, name, layer, start, end, parent,
thread, cell)`` and are written out once the run has ended.  Each thread
keeps its own stack of open spans.  A cell started by
``harness._map_cells`` gets the span that was open in the calling thread
as its parent, also when it runs on a worker thread.

Three things the tracer has to route around:

* ``integrate`` looks its low-rank steppers up in
  ``integrators._DLR_STEPS``, which holds them by reference, so the
  entries of that dict are replaced, not the module attributes.
* ``EnsembleState`` is used in ``isinstance`` checks, so the class stays
  and only its ``__post_init__`` (the validation) is wrapped.
* Drift and diffusion are closures stored on each ``SdeModel``, so the
  tracer wraps them on every model built while it is active.
"""

import csv
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict

_perf_counter = time.perf_counter
_get_ident = threading.get_ident

# (module, attribute, span name, layer) of every replaced public name.
# The span name is the layer plus the public name that is called.
CALL_SITES = (
    ("cli", "load_specs", "cli.load_specs", "cli"),
    ("cli", "run_experiment", "harness.run_experiment", "harness"),
    ("harness", "generate", "noise.generate", "noise"),
    ("harness", "coarsen", "noise.coarsen", "noise"),
    ("harness", "integrate", "integrators.integrate", "integrators"),
    ("integrators", "em_step", "integrators.em_step", "integrators"),
    ("harness", "init_rank_k", "ensemble.init_rank_k", "ensemble"),
    ("harness", "mean_square_norm", "ensemble.mean_square_norm", "ensemble"),
    ("integrators", "mean_square_norm", "ensemble.mean_square_norm",
     "ensemble"),
    ("integrators", "gramian", "ensemble.gramian", "ensemble"),
    ("integrators", "expectation_outer", "ensemble.expectation_outer",
     "ensemble"),
    ("integrators", "reconstruct", "ensemble.reconstruct", "ensemble"),
    ("integrators", "solve_spsd_minnorm", "linalg.solve_spsd_minnorm",
     "linalg"),
    ("integrators", "reduced_qr", "linalg.reduced_qr", "linalg"),
    ("harness", "l2_sup_error", "diagnostics.l2_sup_error", "diagnostics"),
    ("harness", "relative_l2_sup_error", "diagnostics.relative_l2_sup_error",
     "diagnostics"),
    # every file the harness writes goes through one of these
    ("harness", "_write_rows", "harness.output", "harness"),
    ("harness", "_write_manifest", "harness.output", "harness"),
    ("harness", "write_error_report_csv", "harness.output", "harness"),
    ("harness", "write_bound_trace_csv", "harness.output", "harness"),
    ("harness", "save_snapshot", "harness.output", "harness"),
)

STEP_SCHEMES = ("em", "dlr_em", "dlr_ps_em", "dlr_ps_sde")
_VALIDATE = "ensemble.EnsembleState.__post_init__"


class Tracer:
    """Context manager that traces calls between lowrank_sde modules.

    Use ``with Tracer() as tracer: tracer.call("cli.main", "cli", fn,
    *args)``; afterwards ``tracer.spans`` holds every span and
    :func:`layer_metrics` turns them into per-layer numbers.
    """

    def __init__(self):
        self.spans = []
        self.blocks = 0
        self.redundant_blocks = 0
        self.bytes_computed = 0
        self.coarsen_block_adds = 0
        self._keys = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []
        self._active = False

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, layer, fn, *args, parent=None, **kwargs):
        """Call fn inside a span; parent defaults to this thread's top."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        # next() on a count and list.append are single calls into C, so
        # worker threads cannot interleave inside them
        span_id = next(self._ids)
        stack.append(span_id)
        start = _perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf_counter()
            stack.pop()
            self.spans.append((span_id, name, layer, start, end, parent,
                               _get_ident(), getattr(self._local, "cell",
                                                     None)))

    def wrap(self, fn, name, layer, on_call=None):
        """Return a pass-through wrapper of fn that records a span."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            return tracer.call(name, layer, fn, *args, **kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        import lowrank_sde.cli
        import lowrank_sde.ensemble
        import lowrank_sde.harness
        import lowrank_sde.integrators
        import lowrank_sde.models
        import lowrank_sde.noise

        modules = {
            "cli": lowrank_sde.cli,
            "harness": lowrank_sde.harness,
            "integrators": lowrank_sde.integrators,
        }
        hooks = {
            "noise.generate": self._count_generate(lowrank_sde.noise.generate),
            "noise.coarsen": self._count_coarsen(lowrank_sde.noise.coarsen),
        }
        try:
            for module, attr, name, layer in CALL_SITES:
                owner = modules[module]
                self._replace(owner, attr, self.wrap(
                    getattr(owner, attr), name, layer, hooks.get(name)))
            steps = lowrank_sde.integrators._DLR_STEPS
            for scheme in list(steps):
                self._replace(steps, scheme, self.wrap(
                    steps[scheme], "integrators.%s_step" % scheme,
                    "integrators"))
            state_cls = lowrank_sde.ensemble.EnsembleState
            self._replace(state_cls, "__post_init__", self.wrap(
                state_cls.__post_init__, _VALIDATE, "ensemble"))
            model_cls = lowrank_sde.models.SdeModel
            self._replace(model_cls, "__init__",
                          self._traced_model_init(model_cls.__init__))
            self._replace(lowrank_sde.harness, "_map_cells",
                          self._traced_map_cells(
                              lowrank_sde.harness._map_cells))
        except BaseException:
            self._restore()
            raise
        self._active = True
        return self

    def __exit__(self, *exc):
        self._active = False
        self._restore()
        return False

    def _traced_model_init(self, original):
        tracer = self

        def __init__(model, *args, **kwargs):
            original(model, *args, **kwargs)
            model.drift_many = tracer.wrap(
                model.drift_many, "models.drift_many", "models")
            model.diffusion_dw = tracer.wrap(
                model.diffusion_dw, "models.diffusion_dw", "models")

        return __init__

    def _traced_map_cells(self, original):
        tracer = self

        def _map_cells(fn, cells):
            if not tracer._active:
                return original(fn, cells)
            parent = tracer.current()

            def run_cell(cell):
                previous = getattr(tracer._local, "cell", None)
                tracer._local.cell = "%s@dt=%g" % (cell[0], cell[1])
                try:
                    return tracer.call("harness.cell", "harness", fn, cell,
                                       parent=parent)
                finally:
                    tracer._local.cell = previous

            return original(run_cell, cells)

        return _map_cells

    # -- noise counters (read arguments, never change them) -----------------

    def _count_generate(self, generate):
        signature = inspect.signature(generate)

        def on_call(args, kwargs):
            a = signature.bind(*args, **kwargs).arguments
            seed, n_steps = int(a["seed"]), int(a["n_steps"])
            with self._lock:
                before = len(self._keys)
                self._keys.update((seed, step) for step in range(n_steps))
                self.blocks += n_steps
                self.redundant_blocks += n_steps - (len(self._keys) - before)
                self.bytes_computed += (
                    n_steps * int(a["m"]) * int(a["m_paths"]) * 8)

        return on_call

    def _count_coarsen(self, coarsen):
        signature = inspect.signature(coarsen)

        def on_call(args, kwargs):
            a = signature.bind(*args, **kwargs).arguments
            fine, factor = a["fine"], int(a["factor"])
            if factor > 1 and fine.n_steps % factor == 0:
                total = fine.coarsen_factor * factor
                with self._lock:
                    self.coarsen_block_adds += (
                        (fine.n_steps // factor) * (total - 1))

        return on_call

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "layer", "start", "end", "parent",
                             "thread", "cell"))
            writer.writerows(self.spans)


def self_times(spans):
    """Map span id to its duration minus the union of its children.

    Children of one span can overlap when they are cells running on a
    pool, so the covered part of the parent is a union of intervals.
    """
    children = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            children[span[5]].append((span[3], span[4]))
    result = {}
    for span_id, _, _, start, end, _, _, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[span_id] = (end - start) - covered
    return result


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced run of ``wall_s`` seconds."""
    spans = tracer.spans
    own = self_times(spans)
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    exclusive = defaultdict(float)
    by_layer = defaultdict(float)
    cell_s = []
    root_children = 0.0
    roots = {s[0] for s in spans if s[5] is None}
    for span_id, name, layer, start, end, parent, _, _ in spans:
        calls[name] += 1
        inclusive[name] += end - start
        exclusive[name] += own[span_id]
        by_layer[layer] += own[span_id]
        if name == "harness.cell":
            cell_s.append(end - start)
        if parent in roots:
            root_children += end - start

    steps = sum(calls["integrators.%s_step" % s] for s in STEP_SCHEMES)
    low_rank_steps = steps - calls["integrators.em_step"]

    def per_step(count):
        # only the low-rank steps build states and Gramians
        return count / low_rank_steps if low_rank_steps else 0.0

    def step_us(scheme):
        name = "integrators.%s_step" % scheme
        return 1e6 * inclusive[name] / calls[name] if calls[name] else 0.0

    metrics = {
        "noise.generate_s": exclusive["noise.generate"],
        "noise.generate_calls": calls["noise.generate"],
        "noise.blocks": tracer.blocks,
        "noise.redundant_block_frac": (
            tracer.redundant_blocks / tracer.blocks if tracer.blocks else 0.0),
        "noise.bytes_computed": tracer.bytes_computed,
        "noise.coarsen_s": exclusive["noise.coarsen"],
        "noise.coarsen_block_adds": tracer.coarsen_block_adds,
        "models.drift_s": exclusive["models.drift_many"],
        "models.drift_calls": calls["models.drift_many"],
        "models.diffusion_s": exclusive["models.diffusion_dw"],
        "models.diffusion_calls": calls["models.diffusion_dw"],
    }
    for scheme in STEP_SCHEMES:
        metrics["integrators.step_us.%s" % scheme] = step_us(scheme)
    metrics.update({
        "integrators.steps": steps,
        "integrators.step_self_s": sum(
            exclusive["integrators.%s_step" % s] for s in STEP_SCHEMES),
        "integrators.loop_self_s": exclusive["integrators.integrate"],
        "ensemble.validate_s": exclusive[_VALIDATE],
        "ensemble.validations_per_step": per_step(calls[_VALIDATE]),
        "ensemble.gramian_s": exclusive["ensemble.gramian"],
        "ensemble.gramians_per_step": per_step(calls["ensemble.gramian"]),
        "ensemble.reconstruct_s": exclusive["ensemble.reconstruct"],
        "ensemble.mean_square_norm_s": exclusive["ensemble.mean_square_norm"],
        "ensemble.expectation_outer_s": exclusive[
            "ensemble.expectation_outer"],
        "ensemble.init_rank_k_s": exclusive["ensemble.init_rank_k"],
        "linalg.solve_s": exclusive["linalg.solve_spsd_minnorm"],
        "linalg.solve_calls": calls["linalg.solve_spsd_minnorm"],
        "linalg.qr_s": exclusive["linalg.reduced_qr"],
        "linalg.qr_calls": calls["linalg.reduced_qr"],
        "diagnostics.error_metrics_s": (
            exclusive["diagnostics.l2_sup_error"]
            + exclusive["diagnostics.relative_l2_sup_error"]),
        "diagnostics.error_metrics_calls": (
            calls["diagnostics.l2_sup_error"]
            + calls["diagnostics.relative_l2_sup_error"]),
        "harness.cells": calls["harness.cell"],
        "harness.cell_s.median": statistics.median(cell_s) if cell_s else 0.0,
        "harness.cell_s.max": max(cell_s, default=0.0),
        "harness.output_s": inclusive["harness.output"],
        "harness.self_s": (exclusive["harness.run_experiment"]
                           + exclusive["harness.cell"]),
        "cli.load_specs_s": exclusive["cli.load_specs"],
        "trace.coverage_frac": root_children / wall_s,
    })
    layers = {"layer_self_s.%s" % layer: seconds
              for layer, seconds in sorted(by_layer.items())}
    return metrics, layers
