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
    stable (final mean-square norm < 1e-3 x initial), unstable
    (> 10 x initial, or overflow/failure), or inconclusive.
``single_run``
    One scheme on one grid, serializing factored snapshots at
    configured times.

Every kind runs as one walk on one thread over lanes, one time lattice
each: the fine grid of a sweep, or the grid of one dt.  Each step's
standard normal block is drawn once and scaled for every lane that has
that step, and one ``advance_all`` call steps all cells due on it, the
low-rank ones as one stack.  No noise grid is stored; a cell's bytes do
not depend on the other cells (in a sweep, while the finest dt stays).

``run_experiment`` runs every kind: it sets up, runs the kind's body and
writes a ``manifest.json`` recording the resolved spec, the library
version, wall time, the body's summary and a SHA-256 digest of each file
written; re-running a spec reproduces every CSV byte for byte.  Outputs
are named by the %g labels of dts and snapshot times, so values that
share a label fail validation.
"""

import configparser
import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import __version__
from .diagnostics import (
    BoundTrace,
    ErrorReport,
    dt_condition,
    empirical_c_lgb,
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

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def _parse_bool(section, key, raw):
    word = raw.strip().lower()
    if word not in _BOOL_WORDS:
        raise SpecError("[%s] %s: expected a boolean, got %r"
                        % (section, key, raw))
    return _BOOL_WORDS[word]


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
    """Resolved description of one experiment section."""

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
        if not 0 <= self.seed < 2 ** 64:
            raise SpecError("%s seed must lie in [0, 2^64), the range of "
                            "a Philox key" % where)
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
        n_values = [_steps_for(dt, self.t_final, where)
                    for dt in self.dt_values]
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
            for dt, n in zip(self.dt_values, n_values):
                if _off_node(n * dt, self.t_final, self.t_final):
                    raise SpecError("%s dt=%g does not divide t_final=%g"
                                    % (where, dt, self.t_final))
            n_fine = self.fine_steps()
            for dt, n in zip(self.dt_values, n_values):
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
            dt, n = self.dt_values[0], n_values[0]
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

    def fine_steps(self):
        """Number of steps of the shared fine grid (convergence only)."""
        return self.fine_factor * _steps_for(
            self.dt_values[-1], self.t_final, self.name)


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
        kind = raw.get("kind", "")
        for key, (_, _, kinds) in _KEYS.items():
            if key in raw and kinds and kind not in kinds:
                raise SpecError("[%s] key %r only applies to kind %s"
                                % (section, key, "/".join(kinds)))
        for key, (_, _, kinds) in _KEYS.items():
            if key not in raw and kinds is None:
                raise SpecError("[%s] missing required key %r"
                                % (section, key))
        fields = {name: parse(section, key, raw[key])
                  for key, (name, parse, _) in _KEYS.items() if key in raw}
        spec = ExperimentSpec(name=section, model_overrides=overrides,
                              **fields)
        model, _ = build_model(spec.model, spec.model_overrides)
        if spec.rank > min(model.d, spec.paths):
            raise SpecError("[%s] rank %d exceeds min(d=%d, paths=%d)"
                            % (section, spec.rank, model.d, spec.paths))
        if spec.linear_fast_path and not model.is_linear_drift:
            raise SpecError("[%s] linear_fast_path needs a model with "
                            "linear drift" % section)
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


def _write_manifest(spec, out_dir, outputs, wall_seconds, summary):
    manifest = {
        "spec": asdict(spec),
        "version": __version__,
        "wall_time_seconds": wall_seconds,
        "seed": spec.seed,
        "outputs": {name: _sha256(os.path.join(out_dir, name))
                    for name in sorted(outputs)},
        "summary": summary,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _g(value):
    return "%g" % value


def _prepare(spec):
    """Shared setup: output dir, model, initial cloud, and the factored
    state when a low-rank scheme or the fine splitting reference runs."""
    os.makedirs(spec.output_dir, exist_ok=True)
    model, law = build_model(spec.model, spec.model_overrides)
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


def _lattice(spec, model, n, t1, coarsen_factor=1):
    """Lattice of n steps over [0, t1]; the walk streams its increments."""
    return BrownianGrid(seed=spec.seed, t0=0.0, t1=t1, n_steps=n,
                        m=model.m, m_paths=spec.paths, increments=None,
                        coarsen_factor=coarsen_factor)


class _ExactReference:
    """Pathwise exact oracle values on the fine grid, from a running
    Brownian sum of the streamed increments."""

    low_rank = failed = False  # advance_all calls its advance; never fails

    def __init__(self, model, grid):
        self._mu = model.mu
        self._sigma = model.sigma
        self._time = grid.time
        self._node = 0
        self._w = np.zeros((1, grid.m_paths))

    def advance(self, dw):
        self._w += dw
        self._node += 1
        return True

    def cloud(self):
        return gbm_exact_value(self._mu, self._sigma,
                               self._time(self._node), self._w)


@dataclass
class _Level:
    """Cells, keyed by scheme, stepping on each sum of ``block_sum.factor``
    lane blocks; in a sweep also the running per-path sups of errors."""

    block_sum: BlockSum
    cells: dict
    ref_sup_sq: dict = field(default_factory=dict)
    cell_sup_sq: dict = field(default_factory=dict)

    def step(self, block, due):
        """Push a lane block; queue the cells on ``due`` if they step."""
        dw = self.block_sum.push(block)
        if dw is not None:
            due += [(stepper, dw) for stepper in self.cells.values()
                    if not stepper.failed]
        return dw is not None

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


@dataclass
class _Lane:
    """One time lattice of the walk: its references, which step on
    every block and must not fail, and its levels."""

    grid: BrownianGrid
    levels: list
    references: dict = field(default_factory=dict)

    def fold(self, levels):
        """Fold the references' current clouds into the given levels."""
        ref_clouds = {name: ref.cloud()
                      for name, ref in self.references.items()}
        for level in levels:
            level.fold(ref_clouds)

    def step(self, block, due):
        """Queue the steps due on a block; returns the levels it steps."""
        due += [(ref, block) for ref in self.references.values()]
        return [level for level in self.levels if level.step(block, due)]

    def settle(self, stepped):
        """Raise if a reference failed, else fold them into ``stepped``."""
        for name, ref in self.references.items():
            if ref.failed:
                raise StepFailed("fine reference %s failed: %s"
                                 % (name, ref.traj.error))
        if stepped and self.references:
            self.fold(stepped)


def _walk(lanes):
    """Step every lane on its blocks of ``lattice_blocks``, in lockstep;
    one ``advance_all`` call takes every step due on a block."""
    for blocks in lattice_blocks([lane.grid for lane in lanes]):
        due = []
        stepped = [(lane, lane.step(block, due))
                   for lane, block in zip(lanes, blocks) if block is not None]
        advance_all(due)
        for lane, levels in stepped:
            lane.settle(levels)


def _run_fixed_dt(spec, model, samples, state0, **recording):
    """Walk one lane per dt, of n = round(t_final / dt) steps ending at
    n * dt (with a warning when that is not t_final), whose one level
    holds a stepper per scheme.  Returns (scheme, dt, trajectory) of
    every cell, scheme-major."""
    lanes = []
    for dt in spec.dt_values:
        n = _steps_for(dt, spec.t_final, spec.name)
        horizon = n * dt
        if _off_node(horizon, spec.t_final, spec.t_final):
            warnings.warn("[%s] dt=%g does not divide t_final=%g; the run "
                          "ends at t=%.17g" % (spec.name, dt, spec.t_final,
                                               horizon))
        grid = _lattice(spec, model, n, horizon)
        cells = {scheme: _stepper(spec, model, samples, state0, scheme,
                                  grid, **recording)
                 for scheme in spec.schemes}
        lanes.append(_Lane(grid, [_Level(BlockSum(1), cells)]))
    _walk(lanes)
    return [(scheme, dt, lane.levels[0].cells[scheme].traj)
            for scheme in spec.schemes
            for dt, lane in zip(spec.dt_values, lanes)]


def _convergence(spec, path, model, samples, state0):
    """Coupled step-size sweep with fitted convergence orders.

    The walk has one lane, the fine grid.  The fine references step on
    each fine block, and each coarse dt sums the blocks left to right
    into its cells' next increment.  At every coarse node the pathwise
    squared distance of each cell to each reference, and the
    reference's own squared norm, are folded into running per-path
    maxima.  The steppers record nothing (``record_nodes=()``), so
    memory is O((cells + 2) d M) whatever the horizon.

    Writes errors_<scheme>_vs_<reference>.csv per pair, slopes.csv and
    status.csv (ok/failed per cell; failed cells are excluded from the
    fits).  A failing fine reference raises StepFailed before any file
    is written.
    """
    n_values = [_steps_for(dt, spec.t_final, spec.name)
                for dt in spec.dt_values]
    n_fine = spec.fine_factor * n_values[-1]
    fine = _lattice(spec, model, n_fine, spec.t_final)
    if spec.reference == "exact":
        references = {"exact": _ExactReference(model, fine)}
    else:
        references = {
            "em_fine": Stepper(model, "em", samples, fine, record_nodes=()),
            "dlr_ps_sde_fine": Stepper(model, "dlr_ps_sde", state0, fine,
                                       record_nodes=(),
                                       rank_policy=spec.rank_policy),
        }

    levels = []
    for n in n_values:
        grid = _lattice(spec, model, n, spec.t_final, n_fine // n)
        levels.append(_Level(
            block_sum=BlockSum(n_fine // n),
            cells={scheme: _stepper(spec, model, samples, state0, scheme,
                                    grid, record_nodes=())
                   for scheme in spec.schemes},
            ref_sup_sq=dict.fromkeys(references),
            cell_sup_sq={scheme: dict.fromkeys(references)
                         for scheme in spec.schemes}))
    lane = _Lane(fine, levels, references)
    lane.fold(levels)
    _walk([lane])

    reports = {}
    failures = []
    status_rows = []
    slope_rows = []
    for scheme in spec.schemes:
        done = []  # (dt, level) of the scheme's completed cells
        for dt, level in zip(spec.dt_values, levels):
            error = level.cells[scheme].traj.error
            status_rows.append((scheme, _g(dt), "ok" if error is None
                                else "failed"))
            if error is None:
                done.append((dt, level))
            else:
                failures.append({"scheme": scheme, "dt": dt,
                                 "error": error})
        for ref_name in references:
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

    summary = {
        "fitted_orders": {"%s vs %s" % key: reports[key].fitted_order
                          for key in reports},
        "failures": failures,
        "fine_steps": n_fine,
    }
    return {"reports": reports, "failures": failures}, summary


def _singular_values(spec, path, model, samples, state0):
    """Per-step smallest Gramian eigenvalue against its lower bounds.

    Writes singular_values_<scheme>_dt<dt>.csv per cell plus a
    violations.csv listing every recorded node whose observed value
    drops below 0.8 x (certified noise floor x dt).  Violations are
    reported, never fatal.
    """
    c_lgb = model.c_lgb
    if c_lgb is None:
        c_lgb = empirical_c_lgb(model, 0.0, samples)
    e0 = mean_square_norm(samples)
    sigma_b = model.sigma_b_lower or 0.0

    results = _run_fixed_dt(spec, model, samples, state0)

    violation_rows = []
    failures = []
    traces = {}
    for scheme, dt, traj in results:
        if scheme == "dlr_em":
            k_bound = k1_bound(traj.t1, e0, c_lgb)
        else:
            k_bound = k4_bound(traj.t1, e0, c_lgb, traj.t1)
        if traj.error:
            failures.append({"scheme": scheme, "dt": dt,
                             "error": traj.error})
        observed = traj.sigma_min_gramians
        valid = np.isfinite(observed)
        last = int(np.max(np.nonzero(valid))) if valid.any() else -1
        times = traj.times[:last + 1]
        sigma = observed[:last + 1]
        sigma_0 = sigma[0] if sigma.size else 0.0
        sup_msq = float(np.nanmax(traj.mean_square_norms)) \
            if np.isfinite(traj.mean_square_norms).any() else np.inf

        simple = np.full(sigma.shape, sigma_b * dt)
        refined = np.empty_like(sigma)
        if sigma.size:
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

    summary = {"violations": len(violation_rows), "failures": failures,
               "horizons": {"%s dt=%s" % (scheme, _g(dt)): traj.t1
                            for scheme, dt, traj in results}}
    return {"traces": traces, "violations": violation_rows,
            "failures": failures}, summary


def classify_stability(initial, final, completed):
    """Label one run from its first and last mean-square norms.

    A run that already contracted below the stable threshold counts as
    stable even if a later step failed (the factorization degenerates
    once the ensemble underflows); any other failure or overflow is
    unstable.
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
    computed prefix) and classification.csv; overflowing or failing
    runs classify as unstable.
    """
    results = _run_fixed_dt(spec, model, samples, state0, sigma_min=False)

    class_rows = []
    classifications = {}
    for scheme, dt, traj in results:
        msq = traj.mean_square_norms
        computed = ~np.isnan(msq)
        last = int(np.max(np.nonzero(computed))) if computed.any() else -1
        rows = [("%.17g" % traj.times[i], "%.17g" % msq[i])
                for i in range(last + 1)]
        _write_rows(path("norms_%s_dt%s.csv" % (scheme, _g(dt))),
                    "t,mean_square_norm", rows)

        initial = msq[0] if last >= 0 else np.nan
        final = msq[last] if last >= 0 else np.nan
        verdict = classify_stability(initial, final, traj.completed)
        classifications[(scheme, dt)] = verdict
        class_rows.append((scheme, _g(dt), verdict))

    _write_rows(path("classification.csv"), "scheme,dt,classification",
                class_rows)

    summary = {"classification": {"%s dt=%s" % (s, _g(dt)): v
                                  for (s, dt), v in classifications.items()},
               "horizons": {"%s dt=%s" % (s, _g(dt)): traj.t1
                            for s, dt, traj in results}}
    return {"classifications": classifications}, summary


def _single_run(spec, path, model, samples, state0):
    """One scheme, one grid, with factored snapshots at chosen times.

    Writes trace.csv (t, mean_square_norm, sigma_k per node) and
    snapshot_<t>.csv files; the full-order scheme is serialized with
    an identity basis so snapshots share one format.
    """
    scheme = spec.schemes[0]
    dt = spec.dt_values[0]
    n = _steps_for(dt, spec.t_final, spec.name)
    snapshot_nodes = [int(round(t / dt)) for t in spec.snapshot_times]
    record = sorted({0, n, *snapshot_nodes})

    [(_, _, traj)] = _run_fixed_dt(spec, model, samples, state0,
                                   record_nodes=record)
    if traj.error:
        raise StepFailed("single run failed: %s" % traj.error)

    by_node = dict(zip(traj.node_indices,
                       traj.node_states if scheme != "em"
                       else traj.node_values))
    for node in snapshot_nodes:
        entry = by_node[node]
        if scheme == "em":
            entry = EnsembleState(t=traj.times[node],
                                  u=np.eye(model.d), y=entry)
        save_snapshot(entry, path("snapshot_t%s.csv" % _g(traj.times[node])))

    trace_rows = [("%.17g" % traj.times[i],
                   "%.17g" % traj.mean_square_norms[i],
                   "%.17g" % traj.sigma_min_gramians[i])
                  for i in range(n + 1)]
    _write_rows(path("trace.csv"), "t,mean_square_norm,sigma_k", trace_rows)

    summary = {"final_mean_square_norm": float(traj.mean_square_norms[-1]),
               "horizons": {"%s dt=%s" % (scheme, _g(dt)): traj.t1}}
    return {"trajectory": traj}, summary


_BODIES = {
    "convergence": _convergence,
    "singular_values": _singular_values,
    "stability": _stability,
    "single_run": _single_run,
}


def run_experiment(spec):
    """Run one ExperimentSpec of any kind and write its manifest.json.

    The kind's body gets the spec, ``path(name)``, which records a file
    name and returns its path in the output directory, and the model,
    initial samples and state of ``_prepare``.  Returns the body's
    result plus ``output_dir``."""
    started = time.monotonic()
    names = []

    def path(name):
        names.append(name)
        return os.path.join(spec.output_dir, name)

    result, summary = _BODIES[spec.kind](spec, path, *_prepare(spec))
    _write_manifest(spec, spec.output_dir, names,
                    time.monotonic() - started, summary)
    return dict(result, output_dir=spec.output_dir)
