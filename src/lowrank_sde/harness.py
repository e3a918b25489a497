"""Config-driven experiment runner.

An experiment is described by one section of an INI file; the section
name becomes the experiment name.  Parsing is fail-closed: unknown
keys, malformed values, and inconsistent combinations raise SpecError
instead of being ignored.  Four experiment kinds exist:

``convergence``
    Couples every requested coarse step size to a single fine grid,
    integrates the configured schemes, and reports L2-sup errors and
    fitted orders against the configured reference (pathwise exact
    values for the scalar oracle, otherwise a fine full-order run and
    a fine splitting run on the same grid and initial samples), folding
    the errors node by node.
``singular_values``
    Traces the smallest Gramian eigenvalue per step for each
    (scheme, dt) cell, next to the simple and accumulated lower
    bounds and the step-size condition derived from them.  Bound
    violations are flagged in a separate file, never fatal.
``stability``
    Runs the low-rank schemes at each dt and classifies each run as
    stable (final mean-square norm < 1e-3 x initial), unstable (> 10 x
    initial, or overflow/failure), inconclusive, or failed (no step
    completed).
``single_run``
    One scheme on one grid, serializing factored snapshots at
    configured times.

Every kind steps its time lattices on one thread: the fine grid of a
sweep, or the grid of each dt.  A cell is an ``integrators.Stepper`` on
its lattice, its own record.  Each step's standard normal block is
drawn once and scaled for every lattice that has that step, and one
``advance_all`` call steps all cells due on it, the low-rank ones as
one stack.  No noise grid is stored; a cell's bytes do not depend on
the other cells (in a sweep, while the finest dt stays).

``run_experiment`` runs every kind: it sets up, runs the kind's body and
writes a ``manifest.json`` recording the resolved spec, the library
version, wall time, the BLAS thread counts, the body's summary (a
non-finite number as null) with each cell's ``failures`` entry and
lattice end (``horizons``), and a SHA-256 digest of each file written;
re-running a spec reproduces every CSV byte for byte.  Outputs are
named by the %g labels of dts and snapshot times, so values that share
a label fail validation.
"""

import configparser
import ctypes
import hashlib
import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import __version__
from .diagnostics import (
    BoundTrace,
    ErrorReport,
    dt_condition,
    fit_order,
    fold_sup_sq,
    gramian_bound_refined,
    k1_bound,
    k4_bound,
    l2_sup_errors,
    write_bound_trace_csv,
    write_error_report_csv,
)
from .ensemble import (
    EnsembleState,
    init_rank_k,
    mean_square_norm,
    save_snapshot,
)
from .errors import SpecError, StepFailed
from .integrators import RANK_POLICIES, SCHEMES, Stepper, advance_all
from .models import build_model, gbm_exact_value
from .noise import BlockSum, BrownianGrid, lattice_blocks

# unused here; perfbench/tracer.py wraps these names on this module
from .diagnostics import l2_sup_error, relative_l2_sup_error  # noqa: F401
from .integrators import integrate  # noqa: F401
from .noise import coarsen, generate  # noqa: F401


def _map_cells(fn, cells):
    return [fn(cell) for cell in cells]


KINDS = ("convergence", "singular_values", "stability", "single_run")
REFERENCES = ("exact", "em_fine", "dlr_ps_sde_fine")

STABLE_FACTOR = 1e-3
UNSTABLE_FACTOR = 10.0
GRAMIAN_FLOOR_FRACTION = 0.8


def _parse_bool(section, key, raw):
    word = raw.strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise SpecError("[%s] %s: expected a boolean, got %r"
                        % (section, key, raw))
    return configparser.ConfigParser.BOOLEAN_STATES[word]


def _parse_floats(section, key, raw):
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise SpecError("[%s] %s: expected comma-separated numbers, got %r"
                        % (section, key, raw))


def _parse_one(section, key, raw, cast=int):
    try:
        return cast(raw)
    except ValueError:
        raise SpecError("[%s] %s: expected one %s, got %r"
                        % (section, key, cast.__name__, raw))


def _word(section, key, raw):
    return raw.strip()


def _words(section, key, raw):
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# INI key -> (ExperimentSpec field, parser, kinds): kinds None marks a
# key every section must set, () an optional key of any kind, else the
# kinds that may set it.  Keys are checked and parsed in this order.
_KEYS = {
    "kind": ("kind", _word, None),
    "model": ("model", _word, None),
    "schemes": ("schemes", _words, None),
    "rank": ("rank", _parse_one, None),
    "paths": ("paths", _parse_one, None),
    "seed": ("seed", _parse_one, None),
    "t_final": ("t_final", partial(_parse_one, cast=float), None),
    "dt": ("dt_values", _parse_floats, None),
    "output_dir": ("output_dir", _word, None),
    "reference": ("reference", _word, ("convergence",)),
    "fine_factor": ("fine_factor", _parse_one, ("convergence",)),
    "debug_identities": ("debug_identities", _parse_bool, ()),
    "linear_fast_path": ("linear_fast_path", _parse_bool, ()),
    "rank_policy": ("rank_policy", _word, ()),
    "snapshot_times": ("snapshot_times", _parse_floats, ("single_run",)),
}


def _kind_only(where, kind, keys):
    """Raise SpecError if one of the ``_KEYS`` keys belongs to other kinds:
    this kind would ignore it, and the manifest would still record it."""
    for key in keys:
        kinds = _KEYS[key][2]
        if kinds and kind not in kinds:
            raise SpecError("%s key %r only applies to kind %s"
                            % (where, key, "/".join(kinds)))


def _steps_for(dt, t_final, where):
    n = t_final / dt
    if not np.isfinite(n):
        raise SpecError("%s: t_final / dt overflows at dt=%g" % (where, dt))
    n = int(round(n))
    if n < 1:
        raise SpecError("%s: dt=%g exceeds t_final=%g" % (where, dt, t_final))
    return n


def _check_labels(where, what, values, labelled):
    """Raise SpecError if two ``values`` share the %g label of their
    ``labelled`` counterparts, which names their output files and rows."""
    labels = [_g(value) for value in labelled]
    for j, label in enumerate(labels):
        i = labels.index(label)
        if i < j:
            raise SpecError("%s %s %r and %r share the label %s of their "
                            "outputs" % (where, what, values[i], values[j],
                                         label))


def _off_node(t, node, t_final):
    """True when t misses the grid node by more than 1e-9 max(1, t_final)."""
    return abs(t - node) > 1e-9 * max(1.0, t_final)


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved description of one experiment section, and its plan:
    ``n_steps`` per dt and, for single_run, ``snapshot_nodes`` per
    snapshot time; not fields, so ``asdict`` echoes the section alone."""

    name: str
    kind: str
    model: str
    model_overrides: dict = field(default_factory=dict)
    schemes: tuple = ()
    rank: int = 1
    paths: int = 1
    seed: int = 0
    t_final: float = 1.0
    dt_values: tuple = ()
    reference: str = ""
    fine_factor: int = 10
    output_dir: str = "."
    debug_identities: bool = False
    linear_fast_path: bool = False
    rank_policy: str = "abort"
    snapshot_times: tuple = ()

    def __post_init__(self):
        where = "[%s]" % self.name
        if self.kind not in KINDS:
            raise SpecError("%s kind must be one of %s, got %r"
                            % (where, "/".join(KINDS), self.kind))
        defaults = {f.name: f.default for f in fields(self)}
        _kind_only(where, self.kind, [
            key for key, (name, _, kinds) in _KEYS.items()
            if kinds and getattr(self, name) != defaults[name]])
        if not self.schemes:
            raise SpecError("%s schemes must be non-empty" % where)
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise SpecError("%s unknown scheme %r (known: %s)"
                                % (where, scheme, ", ".join(SCHEMES)))
        if len(set(self.schemes)) != len(self.schemes):
            raise SpecError("%s schemes repeat" % where)
        if self.kind in ("singular_values", "stability") \
                and "em" in self.schemes:
            raise SpecError("%s kind %s traces factored ensembles; the "
                            "full-order scheme has none" % (where, self.kind))
        if self.rank < 1:
            raise SpecError("%s rank must be >= 1" % where)
        if self.paths < 1:
            raise SpecError("%s paths must be >= 1" % where)
        if not 0 <= self.seed < 2 ** 53:
            raise SpecError("%s seed must lie in [0, 2^53): the Philox key "
                            "holds it as a float64, so larger seeds can "
                            "share a stream" % where)
        if not np.isfinite(self.t_final) or self.t_final <= 0.0:
            raise SpecError("%s t_final must be positive" % where)
        if not self.dt_values:
            raise SpecError("%s dt must list at least one value" % where)
        for dt in self.dt_values:
            if not np.isfinite(dt) or dt <= 0.0:
                raise SpecError("%s dt values must be positive" % where)
        if len(self.dt_values) > 1 \
                and any(np.diff(self.dt_values) >= 0.0):
            raise SpecError("%s dt values must be strictly decreasing"
                            % where)
        if self.rank_policy not in RANK_POLICIES:
            raise SpecError("%s rank_policy must be one of %s"
                            % (where, "/".join(RANK_POLICIES)))
        if not self.output_dir:
            raise SpecError("%s output_dir must not be empty" % where)
        # every kind steps each dt, so validation fails where a run would
        object.__setattr__(self, "n_steps", tuple(
            _steps_for(dt, self.t_final, where) for dt in self.dt_values))
        # output file names and rows carry %g labels of the dts
        _check_labels(where, "dt values", self.dt_values, self.dt_values)
        if self.kind == "convergence":
            if self.reference not in REFERENCES:
                raise SpecError("%s convergence needs reference one of %s"
                                % (where, "/".join(REFERENCES)))
            if self.reference == "exact" and self.model != "gbm_oracle":
                raise SpecError("%s exact reference is only available for "
                                "gbm_oracle" % where)
            if self.fine_factor < 1:
                raise SpecError("%s fine_factor must be >= 1" % where)
            if self.reference != "exact" and self.fine_factor < 2:
                raise SpecError("%s fine references need fine_factor >= 2"
                                % where)
            for dt, n in zip(self.dt_values, self.n_steps):
                if _off_node(n * dt, self.t_final, self.t_final):
                    raise SpecError("%s dt=%g does not divide t_final=%g"
                                    % (where, dt, self.t_final))
            n_fine = self.fine_steps()
            for dt, n in zip(self.dt_values, self.n_steps):
                if n_fine % n:
                    raise SpecError(
                        "%s fine grid of %d steps is not a multiple of the "
                        "dt=%g grid" % (where, n_fine, dt))
        if self.kind == "single_run":
            if len(self.schemes) != 1:
                raise SpecError("%s single_run takes exactly one scheme"
                                % where)
            if len(self.dt_values) != 1:
                raise SpecError("%s single_run takes exactly one dt" % where)
            dt, n = self.dt_values[0], self.n_steps[0]
            nodes = []
            for t in self.snapshot_times:
                i = round(t / dt) if np.isfinite(t / dt) else -1
                if i < 0 or i > n or _off_node(i * dt, t, self.t_final):
                    raise SpecError("%s snapshot time %g is not a grid node"
                                    % (where, t))
                nodes.append(i)
            # snapshots are named by their node's time on the run's lattice
            _check_labels(where, "snapshot times", self.snapshot_times,
                          [n * dt / n * i for i in nodes])
            object.__setattr__(self, "snapshot_nodes", tuple(nodes))

    def fine_steps(self):
        """Number of steps of the shared fine grid (convergence only)."""
        return self.fine_factor * self.n_steps[-1]


def _checked_model(spec):
    """(model, law) of a spec, after the checks that need the model:
    rank <= min(d, paths), and a linear drift for the linear shortcut."""
    model, law = build_model(spec.model, spec.model_overrides)
    if spec.rank > min(model.d, spec.paths):
        raise SpecError("[%s] rank %d exceeds min(d=%d, paths=%d)"
                        % (spec.name, spec.rank, model.d, spec.paths))
    if spec.linear_fast_path and not model.is_linear_drift:
        raise SpecError("[%s] linear_fast_path needs a model with linear "
                        "drift" % spec.name)
    return model, law


def load_specs(path):
    """Parse an INI experiment file into a list of ExperimentSpec.

    Raises SpecError for unreadable files, unknown keys, malformed
    values, unknown models or model overrides, combinations the runners
    cannot honor, and two sections that share an output directory.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise SpecError("cannot read spec file %s: %s" % (path, exc))
    except configparser.Error as exc:
        raise SpecError("malformed spec file %s: %s" % (path, exc))
    if not parser.sections():
        raise SpecError("spec file %s defines no experiment sections" % path)

    specs = []
    owners = {}
    for section in parser.sections():
        raw = dict(parser.items(section))
        overrides = {key[len("model."):]: value for key, value in raw.items()
                     if key.startswith("model.")}
        for key in raw:
            if key not in _KEYS and not key.startswith("model."):
                raise SpecError("[%s] unknown key %r" % (section, key))
        # also a key that repeats its default in another kind's section
        _kind_only("[%s]" % section, raw.get("kind", ""),
                   [key for key in _KEYS if key in raw])
        for key, (_, _, kinds) in _KEYS.items():
            if key not in raw and kinds is None:
                raise SpecError("[%s] missing required key %r"
                                % (section, key))
        values = {name: parse(section, key, raw[key])
                  for key, (name, parse, _) in _KEYS.items() if key in raw}
        spec = ExperimentSpec(name=section, model_overrides=overrides,
                              **values)
        _checked_model(spec)
        owner = owners.setdefault(os.path.abspath(spec.output_dir), section)
        if owner != section:
            raise SpecError("[%s] and [%s] share output_dir %s; each would "
                            "overwrite the other's outputs"
                            % (owner, section, spec.output_dir))
        specs.append(spec)
    return specs


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(spec, outputs, wall_seconds, summary, blas_threads):
    manifest = {
        "spec": asdict(spec),
        "version": __version__,
        "wall_time_seconds": wall_seconds,
        "blas_threads": blas_threads,
        "seed": spec.seed,
        "outputs": {name: _sha256(os.path.join(spec.output_dir, name))
                    for name in sorted(outputs)},
        "summary": summary,
    }
    with open(os.path.join(spec.output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _json_float(x):
    """x as a float, or None (JSON null) when it is not finite."""
    return float(x) if np.isfinite(x) else None


def _write_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _g(value):
    return "%g" % value


def _prepare(spec):
    """Shared setup: checked model, output dir, initial cloud, and the
    factored state when a low-rank scheme or a fine reference runs."""
    model, law = _checked_model(spec)
    os.makedirs(spec.output_dir, exist_ok=True)
    samples = law(spec.seed, spec.paths)
    state0 = None
    if spec.reference in ("em_fine", "dlr_ps_sde_fine") \
            or any(s != "em" for s in spec.schemes):
        state0 = init_rank_k(samples, spec.rank)
    return model, samples, state0


def _stepper(spec, model, samples, state0, scheme, grid, **recording):
    """Stepper of one scheme with the spec's step options, from the
    samples for "em" and from their rank-k factorization else."""
    init = samples if scheme == "em" else state0
    return Stepper(model, scheme, init, grid,
                   debug=spec.debug_identities,
                   fast_linear=spec.linear_fast_path,
                   rank_policy=spec.rank_policy, **recording)


def _lattice(spec, model, n, t1):
    """Lattice of n steps over [0, t1]; the run streams its increments."""
    return BrownianGrid(seed=spec.seed, t0=0.0, t1=t1, n_steps=n,
                        m=model.m, m_paths=spec.paths, increments=None)


class _Level:
    """Cells, keyed by scheme, stepping on each sum of ``factor`` fine
    blocks, and the running per-path sups of references and errors."""

    def __init__(self, factor, cells, references):
        self.block_sum = BlockSum(factor)
        self.cells = cells
        self.ref_sup_sq = dict.fromkeys(references)
        self.cell_sup_sq = {scheme: dict.fromkeys(references)
                            for scheme in cells}

    def fold(self, ref_clouds):
        for name, ref in ref_clouds.items():
            self.ref_sup_sq[name] = fold_sup_sq(self.ref_sup_sq[name], ref)
        for scheme, stepper in self.cells.items():
            if stepper.failed:
                continue
            cloud = stepper.cloud()
            sups = self.cell_sup_sq[scheme]
            for name, ref in ref_clouds.items():
                sups[name] = fold_sup_sq(sups[name], cloud - ref)


def _run_fixed_dt(spec, model, samples, state0, **recording):
    """Step a stepper per scheme on the lattice of each dt, of its n in
    ``spec.n_steps`` ending at n * dt (with a warning when that
    is not t_final), one ``advance_all`` call per step for all live
    cells.  Returns (scheme, dt, stepper) of every cell, scheme-major."""
    grids, by_dt = [], []
    for dt, n in zip(spec.dt_values, spec.n_steps):
        horizon = n * dt
        if _off_node(horizon, spec.t_final, spec.t_final):
            warnings.warn("[%s] dt=%g does not divide t_final=%g; the run "
                          "ends at t=%.17g" % (spec.name, dt, spec.t_final,
                                               horizon))
        grids.append(_lattice(spec, model, n, horizon))
        by_dt.append({scheme: _stepper(spec, model, samples, state0,
                                      scheme, grids[-1], **recording)
                      for scheme in spec.schemes})
    for blocks in lattice_blocks(grids):
        advance_all([(cell, block)
                     for cells, block in zip(by_dt, blocks)
                     if block is not None
                     for cell in cells.values() if not cell.failed])
    return [(scheme, dt, cells[scheme]) for scheme in spec.schemes
            for dt, cells in zip(spec.dt_values, by_dt)]


def _convergence(spec, path, model, samples, state0):
    """Coupled step-size sweep with fitted convergence orders.

    The fine reference steppers step on each fine block, or the exact
    oracle's Brownian motion adds it to one running sum; each coarse
    dt's ``_Level`` sums the blocks left to right into its cells' next
    increment, and one ``advance_all`` call takes the steps due on a
    block.  At every coarse node the pathwise squared distance of each
    cell to each reference, and the reference's own squared norm, are
    folded into running per-path maxima; the exact reference there is
    ``gbm_exact_value`` at the node's lattice time and that sum.  The
    steppers record nothing (``record_nodes=()``), so memory is
    O((cells + 2) d M) whatever the horizon.

    Writes errors_<scheme>_vs_<reference>.csv per pair, slopes.csv and
    status.csv (ok/failed per cell; failed cells are excluded from the
    fits).  A failing fine reference raises StepFailed before any file
    is written.  Like every body, returns (result, summary, cells).
    """
    n_fine = spec.fine_steps()
    fine = _lattice(spec, model, n_fine, spec.t_final)
    exact = spec.reference == "exact"
    fine_steppers = {} if exact else {
        "em_fine": Stepper(model, "em", samples, fine, record_nodes=()),
        "dlr_ps_sde_fine": Stepper(model, "dlr_ps_sde", state0, fine,
                                   record_nodes=(),
                                   rank_policy=spec.rank_policy),
    }
    ref_names = ["exact"] if exact else list(fine_steppers)
    w = np.zeros((1, spec.paths))  # W at the fine node, for "exact"

    levels = []
    for n in spec.n_steps:
        grid = _lattice(spec, model, n, spec.t_final)
        levels.append(_Level(n_fine // n, {
            scheme: _stepper(spec, model, samples, state0, scheme, grid,
                             record_nodes=())
            for scheme in spec.schemes}, ref_names))

    def fold(stepped, node):
        ref_clouds = {name: ref.cloud() for name, ref in fine_steppers.items()}
        if exact:
            ref_clouds["exact"] = gbm_exact_value(model.mu, model.sigma,
                                                  fine.time(node), w)
        for level in stepped:
            level.fold(ref_clouds)

    fold(levels, 0)
    for node, (block,) in enumerate(lattice_blocks([fine]), 1):
        if exact:
            w += block
        due = [(ref, block) for ref in fine_steppers.values()]
        stepped = []
        for level in levels:
            dw = level.block_sum.push(block)
            if dw is not None:
                stepped.append(level)
                due += [(cell, dw) for cell in level.cells.values()
                        if not cell.failed]
        advance_all(due)
        for name, ref in fine_steppers.items():
            if ref.failed:
                raise StepFailed("fine reference %s failed: %s"
                                 % (name, ref.error))
        if stepped:
            fold(stepped, node)

    cells = [(scheme, dt, level.cells[scheme]) for scheme in spec.schemes
             for dt, level in zip(spec.dt_values, levels)]
    status_rows = [(scheme, _g(dt), "failed" if cell.failed else "ok")
                   for scheme, dt, cell in cells]
    reports = {}
    slope_rows = []
    for scheme in spec.schemes:
        done = [(dt, level) for dt, level in zip(spec.dt_values, levels)
                if not level.cells[scheme].failed]
        for ref_name in ref_names:
            pairs = [l2_sup_errors(level.cell_sup_sq[scheme][ref_name],
                                   level.ref_sup_sq[ref_name])
                     for _, level in done]
            dts = np.array([dt for dt, _ in done])
            errs = np.array([err for err, _ in pairs])
            rels = np.array([rel for _, rel in pairs])
            if dts.size >= 3 and np.all(errs > 0.0):
                order = fit_order(dts, errs)
            else:
                order = float("nan")
            report = ErrorReport(
                dt_values=dts, l2_sup_errors=errs, relative_errors=rels,
                fitted_order=order, scheme=scheme, reference=ref_name)
            reports[(scheme, ref_name)] = report
            write_error_report_csv(report, path(
                "errors_%s_vs_%s.csv" % (scheme, ref_name)))
            slope_rows.append((scheme, ref_name, "%.17g" % order,
                               str(dts.size)))

    _write_rows(path("slopes.csv"), "scheme,reference,fitted_order,points",
                slope_rows)
    _write_rows(path("status.csv"), "scheme,dt,status", status_rows)

    summary = {"fitted_orders": {"%s vs %s" % key:
                                 _json_float(reports[key].fitted_order)
                                 for key in reports},
               "fine_steps": n_fine}
    return {"reports": reports}, summary, cells


def _singular_values(spec, path, model, samples, state0):
    """Per-step smallest Gramian eigenvalue against its lower bounds.

    Writes singular_values_<scheme>_dt<dt>.csv per cell plus a
    violations.csv listing every recorded node whose observed value
    drops below 0.8 x (certified noise floor x dt).  Violations are
    reported, never fatal.
    """
    c_lgb = model.c_lgb
    e0 = mean_square_norm(samples)
    sigma_b = model.sigma_b_lower or 0.0

    results = _run_fixed_dt(spec, model, samples, state0)

    violation_rows = []
    traces = {}
    for scheme, dt, cell in results:
        if scheme == "dlr_em":
            k_bound = k1_bound(cell.grid.t1, e0, c_lgb)
        else:
            k_bound = k4_bound(cell.grid.t1, e0, c_lgb, cell.grid.t1)
        observed = cell.sigma_min_gramians
        valid = np.isfinite(observed)
        last = int(np.max(np.nonzero(valid))) if valid.any() else -1
        times = cell.grid.times()[:last + 1]
        sigma = observed[:last + 1]
        sigma_0 = sigma[0] if sigma.size else 0.0
        sup_msq = float(np.nanmax(cell.mean_square_norms)) \
            if np.isfinite(cell.mean_square_norms).any() else np.inf

        simple = np.full(sigma.shape, sigma_b * dt)
        refined = np.empty_like(sigma)
        if sigma.size:
            with np.errstate(over="ignore"):  # as in gramian_bound_refined
                denom = 4.0 * c_lgb * (1.0 + k_bound)
            cap = sigma_b ** 2 / denom if denom > 0.0 else np.inf
            refined[0] = min(sigma_0, cap)
            for i in range(1, sigma.size):
                refined[i] = gramian_bound_refined(
                    sigma_0, sigma_b, c_lgb, k_bound, dt, i - 1)
        dt_hat = np.array([dt_condition(max(s, 0.0), c_lgb, sup_msq)
                           for s in sigma])

        trace = BoundTrace(times=times, sigma_k_observed=sigma,
                           bound_simple=simple, bound_refined=refined,
                           dt_condition=dt_hat)
        traces[(scheme, dt)] = trace
        write_bound_trace_csv(trace, path(
            "singular_values_%s_dt%s.csv" % (scheme, _g(dt))))

        if sigma_b > 0.0:
            threshold = GRAMIAN_FLOOR_FRACTION * sigma_b * dt
            for i in range(1, sigma.size):
                if sigma[i] < threshold:
                    violation_rows.append(
                        (scheme, _g(dt), "%.17g" % times[i],
                         "%.17g" % sigma[i], "%.17g" % threshold))

    _write_rows(path("violations.csv"), "scheme,dt,t,sigma_k,threshold",
                violation_rows)

    return ({"traces": traces, "violations": violation_rows},
            {"violations": len(violation_rows)}, results)


def classify_stability(initial, final, completed):
    """Label one run from its first and last mean-square norms.

    A run that already contracted below the stable threshold counts as
    stable even if a later step failed (the factorization degenerates
    once the ensemble underflows); any other failure or overflow is
    unstable.  ``_stability`` labels a run with no step "failed".
    """
    if np.isfinite(final) and final < STABLE_FACTOR * initial:
        return "stable"
    if not completed or not np.isfinite(final):
        return "unstable"
    if final > UNSTABLE_FACTOR * initial:
        return "unstable"
    return "inconclusive"


def _stability(spec, path, model, samples, state0):
    """Mean-square norm traces and a stable/unstable verdict per cell.

    Writes norms_<scheme>_dt<dt>.csv (t, mean_square_norm over the
    computed prefix) and classification.csv; a run that fails at its
    first step is failed, any other as ``classify_stability`` says.
    """
    results = _run_fixed_dt(spec, model, samples, state0, sigma_min=False)

    class_rows = []
    classifications = {}
    for scheme, dt, cell in results:
        msq = cell.mean_square_norms[:cell.node + 1]  # the nodes reached
        rows = [("%.17g" % t, "%.17g" % value)
                for t, value in zip(cell.grid.times(), msq)]
        _write_rows(path("norms_%s_dt%s.csv" % (scheme, _g(dt))),
                    "t,mean_square_norm", rows)
        verdict = ("failed" if cell.failed and cell.node == 0 else
                   classify_stability(msq[0], msq[-1], not cell.failed))
        classifications[(scheme, dt)] = verdict
        class_rows.append((scheme, _g(dt), verdict))

    _write_rows(path("classification.csv"), "scheme,dt,classification",
                class_rows)

    summary = {"classification": {"%s dt=%s" % (s, _g(dt)): v
                                  for (s, dt), v in classifications.items()}}
    return {"classifications": classifications}, summary, results


def _single_run(spec, path, model, samples, state0):
    """One scheme, one grid, with factored snapshots at chosen times.

    Writes trace.csv (t, mean_square_norm, sigma_k per node) and
    snapshot_<t>.csv files; the full-order scheme is serialized with
    an identity basis so snapshots share one format.
    """
    scheme = spec.schemes[0]
    n = spec.n_steps[0]
    cells = _run_fixed_dt(spec, model, samples, state0,
                          record_nodes=sorted({0, n, *spec.snapshot_nodes}))
    [(_, _, cell)] = cells
    if cell.error:
        raise StepFailed("single run failed: %s" % cell.error)

    times = cell.grid.times()
    by_node = dict(zip(cell.node_indices, cell.node_states))
    for node in spec.snapshot_nodes:
        entry = by_node[node]
        if scheme == "em":
            entry = EnsembleState(t=times[node], u=np.eye(model.d), y=entry)
        save_snapshot(entry, path("snapshot_t%s.csv" % _g(times[node])))

    trace_rows = [("%.17g" % times[i],
                   "%.17g" % cell.mean_square_norms[i],
                   "%.17g" % cell.sigma_min_gramians[i])
                  for i in range(n + 1)]
    _write_rows(path("trace.csv"), "t,mean_square_norm,sigma_k", trace_rows)

    summary = {"final_mean_square_norm":
               _json_float(cell.mean_square_norms[-1])}
    return {"trajectory": cell}, summary, cells


_BODIES = {
    "convergence": _convergence,
    "singular_values": _singular_values,
    "stability": _stability,
    "single_run": _single_run,
}


def _openblas_threads():
    """(get, set) of the thread count of NumPy's bundled OpenBLAS, or
    None when NumPy's library exports no such pair."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread over the block, then restore the count
    it found; yields {"found", "used"}, or None if it cannot be set.  Same
    bits; a 10 x 2000 SVD stalled 80 ms at 2 threads on 2 vCPUs."""
    control = _openblas_threads()
    if control is None:
        yield None
        return
    get, put = control
    found = get()
    put(1)
    try:
        yield {"found": found, "used": get()}
    finally:
        put(found)


def run_experiment(spec):
    """Run one ExperimentSpec of any kind and write its manifest.json.

    The kind's body gets the spec, ``path(name)``, which records a file
    name and returns its path in the output directory, and the model,
    initial samples and state of ``_prepare``; it returns its result,
    its summary and its (scheme, dt, stepper) cells, whose ``failures``
    and ``horizons`` this adds to the summary.  The run holds OpenBLAS
    to one thread (``_one_blas_thread``).  Returns the body's result
    plus ``failures`` and ``output_dir``."""
    started = time.monotonic()
    names = []

    def path(name):
        names.append(name)
        return os.path.join(spec.output_dir, name)

    with _one_blas_thread() as blas_threads:
        result, summary, cells = _BODIES[spec.kind](spec, path,
                                                    *_prepare(spec))
        failures = [{"scheme": scheme, "dt": dt, "error": cell.error}
                    for scheme, dt, cell in cells if cell.failed]
        summary = dict(summary, failures=failures, horizons={
            "%s dt=%s" % (scheme, _g(dt)): cell.grid.t1
            for scheme, dt, cell in cells})
        _write_manifest(spec, names, time.monotonic() - started, summary,
                        blas_threads)
    return dict(result, failures=failures, output_dir=spec.output_dir)
