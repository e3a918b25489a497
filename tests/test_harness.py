"""Tests for the INI-driven experiment harness and its CLI."""

import configparser
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lowrank_sde.cli
import lowrank_sde.harness
from lowrank_sde.cli import main as cli_main
from lowrank_sde.diagnostics import (dt_condition, l2_sup_error,
                                     relative_l2_sup_error)
from lowrank_sde.ensemble import init_rank_k, load_snapshot
import lowrank_sde.integrators
import lowrank_sde.noise
from lowrank_sde.errors import ModelBlowUp, SpecError, StepFailed
from lowrank_sde.harness import (
    KINDS,
    ExperimentSpec,
    _off_node,
    classify_stability,
    load_specs,
    run_experiment,
)
from lowrank_sde.integrators import RANK_POLICIES, SCHEMES, integrate
from lowrank_sde.models import build_model
from lowrank_sde.noise import coarsen, generate

import reference


def make_spec(tmp_path, **overrides):
    """A spec, by default an exact-reference sweep; the sweep's keys are
    set only for kind convergence, the one kind that reads them."""
    fields = dict(
        name="test", kind="convergence", model="gbm_oracle",
        schemes=("em",), rank=1, paths=200, seed=5, t_final=1.0,
        dt_values=(0.1, 0.05, 0.025), output_dir=str(tmp_path / "out"))
    fields.update(overrides)
    if fields["kind"] == "convergence":
        fields = dict(dict(reference="exact", fine_factor=1), **fields)
    return ExperimentSpec(**fields)


def write_ini(tmp_path, body, name="spec.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def cell_options(spec):
    return dict(debug=spec.debug_identities,
                fast_linear=spec.linear_fast_path,
                rank_policy=spec.rank_policy)


def stored_run(spec, scheme, grid, **options):
    """One scheme run alone by ``integrate`` over a stored grid, from the
    spec's samples ("em") or their rank-k factorization, recording every
    node."""
    model, law = build_model(spec.model, spec.model_overrides)
    samples = law(spec.seed, spec.paths)
    init = samples if scheme == "em" else init_rank_k(samples, spec.rank)
    return integrate(model, scheme, init, grid,
                     record_nodes=range(grid.n_steps + 1), **options)


def stored_grid_run(spec, scheme, dt):
    """The trajectory of one fixed-dt cell run alone by ``integrate``
    over a stored ``generate`` grid."""
    model, _ = build_model(spec.model, spec.model_overrides)
    n = round(spec.t_final / dt)
    grid = generate(spec.seed, 0.0, n * dt, n, model.m, spec.paths)
    return stored_run(spec, scheme, grid, **cell_options(spec))


def stored_sweep_rows(spec, scheme):
    """The rows a sweep writes for one scheme, by the stored oracle:
    ``integrate`` over ``coarsen``ed ``generate`` grids, with
    ``l2_sup_error`` against fine references that record every node.

    Returns the rows of each error file and of status.csv; raises
    StepFailed if a fine reference fails."""
    model, _ = build_model(spec.model, spec.model_overrides)
    fine = generate(spec.seed, 0.0, spec.t_final, spec.fine_steps(),
                    model.m, spec.paths)
    if spec.reference == "exact":
        refs = {"exact": reference.recorded(
            fine, range(fine.n_steps + 1),
            reference.gbm_exact_values(model.mu, model.sigma, fine))}
    else:
        refs = {"em_fine": stored_run(spec, "em", fine),
                "dlr_ps_sde_fine": stored_run(
                    spec, "dlr_ps_sde", fine, rank_policy=spec.rank_policy)}
        for name, ref in refs.items():
            if ref.failed:
                raise StepFailed("fine reference %s failed" % name)
    rows = {"errors_%s_vs_%s.csv" % (scheme, name): [] for name in refs}
    rows["status.csv"] = []
    for dt in spec.dt_values:
        factor = fine.n_steps // round(spec.t_final / dt)
        traj = stored_run(spec, scheme, coarsen(fine, factor),
                          **cell_options(spec))
        rows["status.csv"].append("%s,%g,%s" % (
            scheme, dt, "failed" if traj.failed else "ok"))
        for name, ref in refs.items():
            if not traj.failed:
                rows["errors_%s_vs_%s.csv" % (scheme, name)].append(
                    "%.17g,%.17g,%.17g" % (dt, l2_sup_error(traj, ref),
                                           relative_l2_sup_error(traj, ref)))
    return rows


def scheme_rows(spec, scheme, dts):
    """The rows of one sweep scheme at the given dts, of each error file
    and of status.csv, as ``stored_sweep_rows`` returns them."""
    def lines(name):
        return (Path(spec.output_dir) / name).read_text().splitlines()[1:]

    refs = (("exact",) if spec.reference == "exact"
            else ("em_fine", "dlr_ps_sde_fine"))
    mine = tuple("%.17g," % dt for dt in dts)
    rows = {name: [line for line in lines(name) if line.startswith(mine)]
            for name in ("errors_%s_vs_%s.csv" % (scheme, ref)
                         for ref in refs)}
    rows["status.csv"] = [line for line in lines("status.csv")
                          if line.startswith(tuple("%s,%g," % (scheme, dt)
                                                   for dt in dts))]
    return rows


GBM_INI = """
[gbm]
kind = convergence
model = gbm_oracle
schemes = em
rank = 1
paths = 300
seed = 11
t_final = 1.0
dt = 0.1,0.05,0.025,0.0125
reference = exact
fine_factor = 1
output_dir = {out}
"""

# a low-rank sweep against a fine reference and a stability run, to
# follow GBM_INI in one spec file
TOY_AND_STABILITY_INI = """
[toy]
kind = convergence
model = toy_example_3
schemes = dlr_em,dlr_ps_sde
rank = 2
paths = 50
seed = 3
t_final = 0.1
dt = 0.02,0.01
reference = em_fine
fine_factor = 2
output_dir = {out}/toy

[stab]
kind = stability
model = stability_model
schemes = dlr_em
rank = 2
paths = 50
seed = 3
t_final = 0.1
dt = 0.02
output_dir = {out}/stab
"""


class TestExperimentSpecValidation:
    def test_valid_spec_accepted(self, tmp_path):
        spec = make_spec(tmp_path)
        assert spec.kind == "convergence"
        assert spec.fine_steps() == 40

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="kind"):
            make_spec(tmp_path, kind="walk")

    def test_empty_schemes_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="schemes"):
            make_spec(tmp_path, schemes=())

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="unknown scheme"):
            make_spec(tmp_path, schemes=("em", "milstein"))

    def test_duplicate_schemes_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="repeat"):
            make_spec(tmp_path, schemes=("em", "em"))

    def test_full_order_scheme_rejected_for_gramian_kinds(self, tmp_path):
        for kind in ("singular_values", "stability"):
            with pytest.raises(SpecError, match="full-order"):
                make_spec(tmp_path, kind=kind, schemes=("em", "dlr_em"),
                          dt_values=(0.1,), reference="", fine_factor=10)

    def test_positive_scalars_enforced(self, tmp_path):
        with pytest.raises(SpecError, match="rank"):
            make_spec(tmp_path, rank=0)
        with pytest.raises(SpecError, match="paths"):
            make_spec(tmp_path, paths=0)
        with pytest.raises(SpecError, match="t_final"):
            make_spec(tmp_path, t_final=-1.0)
        with pytest.raises(SpecError, match="dt"):
            make_spec(tmp_path, dt_values=(0.1, -0.05, 0.025))

    def test_dt_values_must_strictly_decrease(self, tmp_path):
        with pytest.raises(SpecError, match="decreasing"):
            make_spec(tmp_path, dt_values=(0.05, 0.1))
        with pytest.raises(SpecError, match="decreasing"):
            make_spec(tmp_path, dt_values=(0.1, 0.1))

    def test_unknown_rank_policy_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="rank_policy"):
            make_spec(tmp_path, rank_policy="pivot")

    def test_convergence_needs_known_reference(self, tmp_path):
        with pytest.raises(SpecError, match="reference"):
            make_spec(tmp_path, reference="")

    def test_exact_reference_demands_oracle_model(self, tmp_path):
        with pytest.raises(SpecError, match="exact"):
            make_spec(tmp_path, model="toy_example_1", schemes=("dlr_em",),
                      rank=2)

    def test_fine_reference_needs_refinement(self, tmp_path):
        with pytest.raises(SpecError, match="fine_factor"):
            make_spec(tmp_path, model="toy_example_1", schemes=("dlr_em",),
                      rank=2, reference="em_fine", fine_factor=1)

    def test_dt_must_divide_horizon(self, tmp_path):
        with pytest.raises(SpecError, match="divide"):
            make_spec(tmp_path, dt_values=(0.3,))

    def test_coarse_grids_must_divide_fine_grid(self, tmp_path):
        # 25 and 40 steps share no common refinement at factor 1
        with pytest.raises(SpecError, match="multiple"):
            make_spec(tmp_path, dt_values=(0.04, 0.025))

    def test_single_run_shape(self, tmp_path):
        with pytest.raises(SpecError, match="one scheme"):
            make_spec(tmp_path, kind="single_run", schemes=("em", "dlr_em"),
                      dt_values=(0.1,), reference="", fine_factor=10)
        with pytest.raises(SpecError, match="one dt"):
            make_spec(tmp_path, kind="single_run", schemes=("em",),
                      dt_values=(0.1, 0.05), reference="", fine_factor=10)

    def test_snapshot_times_must_hit_grid_nodes(self, tmp_path):
        with pytest.raises(SpecError, match="snapshot"):
            make_spec(tmp_path, kind="single_run", schemes=("em",),
                      dt_values=(0.1,), reference="", fine_factor=10,
                      snapshot_times=(0.55,))
        spec = make_spec(tmp_path, kind="single_run", schemes=("em",),
                         dt_values=(0.1,), reference="", fine_factor=10,
                         snapshot_times=(0.5, 1.0))
        assert spec.snapshot_times == (0.5, 1.0)
        # t / dt overflows to inf (t * dt would not): no node, not a crash
        with pytest.raises(SpecError, match="not a grid node"):
            make_spec(tmp_path, kind="single_run", schemes=("em",),
                      t_final=1e-9, dt_values=(1e-10,), reference="",
                      snapshot_times=(1e300,))

    @pytest.mark.parametrize("kind", KINDS)
    def test_dt_values_sharing_a_label_rejected(self, tmp_path, kind):
        # cells, their files and their rows are named by %g of the dt, so
        # the second dt's outputs would overwrite the first's
        with pytest.raises(SpecError, match="share the label 0.001"):
            make_spec(tmp_path, kind=kind, schemes=("dlr_em",),
                      dt_values=(0.0010000002, 0.0010000001))

    @pytest.mark.parametrize("t_final, dt, times", [
        (1.000002, 1e-6, (1.000001, 1.000002)),  # distinct nodes
        (1.0, 0.1, (0.5, 0.5)),  # one node twice
        (1.0, 0.1, (0.5, 0.5 + 1e-10)),  # one node, within tolerance
    ])
    def test_snapshot_times_sharing_a_label_rejected(self, tmp_path, t_final,
                                                     dt, times):
        # a snapshot is named by %g of its node's time: two would write
        # one file (validation only: the first case runs 10^6 steps)
        with pytest.raises(SpecError, match="share the label"):
            make_spec(tmp_path, kind="single_run", schemes=("em",),
                      t_final=t_final, dt_values=(dt,), reference="",
                      snapshot_times=times)

    @pytest.mark.parametrize("kind, fields", [
        ("stability", dict(reference="em_fine", fine_factor=3,
                           snapshot_times=(0.5,))),
        ("singular_values", dict(fine_factor=3)),
        ("single_run", dict(reference="em_fine")),
        ("convergence", dict(snapshot_times=(0.5,))),
    ])
    def test_field_of_another_kind_rejected(self, tmp_path, kind, fields):
        # the kind would ignore it, and the manifest would record it
        with pytest.raises(SpecError, match="only applies to kind"):
            make_spec(tmp_path, kind=kind, schemes=("dlr_em",),
                      dt_values=(0.1,), **fields)


class TestLoadSpecs:
    def test_round_trip(self, tmp_path):
        path = write_ini(tmp_path, GBM_INI.format(out=tmp_path / "out"))
        specs = load_specs(path)
        assert len(specs) == 1
        assert specs[0].name == "gbm"
        assert specs[0].dt_values == (0.1, 0.05, 0.025, 0.0125)
        assert specs[0].reference == "exact"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_specs(str(tmp_path / "absent.ini"))

    def test_empty_file_rejected(self, tmp_path):
        path = write_ini(tmp_path, "\n")
        with pytest.raises(SpecError, match="no experiment"):
            load_specs(path)

    def test_unknown_key_rejected(self, tmp_path):
        body = GBM_INI.format(out=tmp_path) + "verbosity = 3\n"
        with pytest.raises(SpecError, match="unknown key 'verbosity'"):
            load_specs(write_ini(tmp_path, body))

    def test_missing_required_key_rejected(self, tmp_path):
        body = GBM_INI.format(out=tmp_path).replace("seed = 11\n", "")
        with pytest.raises(SpecError, match="missing required key 'seed'"):
            load_specs(write_ini(tmp_path, body))

    def test_kind_only_key_rejected_elsewhere(self, tmp_path):
        body = """
[sv]
kind = singular_values
model = toy_example_1
schemes = dlr_em
rank = 2
paths = 100
seed = 1
t_final = 1.0
dt = 0.1
output_dir = {out}
reference = exact
""".format(out=tmp_path)
        with pytest.raises(SpecError, match="only applies to"):
            load_specs(write_ini(tmp_path, body))

    def test_model_overrides_routed_and_checked(self, tmp_path):
        body = GBM_INI.format(out=tmp_path).replace(
            "model = gbm_oracle", "model = gbm_oracle\nmodel.mu = 0.2")
        specs = load_specs(write_ini(tmp_path, body))
        assert specs[0].model_overrides == {"mu": "0.2"}
        bad = GBM_INI.format(out=tmp_path).replace(
            "model = gbm_oracle", "model = gbm_oracle\nmodel.rate = 0.2")
        with pytest.raises(SpecError, match="override"):
            load_specs(write_ini(tmp_path, bad))

    def test_rank_checked_against_model(self, tmp_path):
        body = GBM_INI.format(out=tmp_path).replace("rank = 1", "rank = 2")
        with pytest.raises(SpecError, match="rank 2 exceeds"):
            load_specs(write_ini(tmp_path, body))

    def test_fast_path_needs_linear_drift(self, tmp_path):
        body = """
[t3]
kind = convergence
model = toy_example_3
schemes = dlr_em
rank = 2
paths = 100
seed = 1
t_final = 1.0
dt = 0.1,0.05
reference = em_fine
fine_factor = 2
linear_fast_path = yes
output_dir = {out}
""".format(out=tmp_path)
        with pytest.raises(SpecError, match="linear_fast_path"):
            load_specs(write_ini(tmp_path, body))

    def test_model_checks_also_guard_specs_built_in_code(self, tmp_path):
        # run_experiment makes load_specs' checks against the model
        # before it creates the output directory
        for fields, match in (
                (dict(model="toy_example_3", schemes=("dlr_em",), rank=2,
                      reference="em_fine", fine_factor=2,
                      linear_fast_path=True), "linear_fast_path"),
                (dict(model="toy_example_2", schemes=("dlr_em",), rank=5,
                      reference="em_fine", fine_factor=2), "rank 5 exceeds")):
            spec = make_spec(tmp_path, **fields)
            with pytest.raises(SpecError, match=match):
                run_experiment(spec)
            assert not os.path.exists(spec.output_dir)

    def test_malformed_values_rejected(self, tmp_path):
        # t_final is one number: a list may not run to its first value
        for field, bad in (("paths = 300", "paths = many"),
                           ("dt = 0.1,0.05,0.025,0.0125", "dt = 0.1,fast"),
                           ("seed = 11", "seed = 1.5"),
                           ("t_final = 1.0", "t_final = 1, 5")):
            body = GBM_INI.format(out=tmp_path).replace(field, bad)
            with pytest.raises(SpecError, match="expected"):
                load_specs(write_ini(tmp_path, body))

    @pytest.mark.parametrize("seed, valid", [
        (0, True), (2 ** 53 - 1, True),
        (-1, False), (2 ** 53, False), (2 ** 64 - 1, False)])
    def test_seed_bound(self, tmp_path, capsys, seed, valid):
        body = GBM_INI.format(out=tmp_path / "out").replace(
            "seed = 11", "seed = %d" % seed)
        path = write_ini(tmp_path, body)
        if valid:
            assert load_specs(path)[0].seed == seed
            assert cli_main(["validate", path]) == 0
        else:
            with pytest.raises(SpecError, match=r"\[0, 2\^53\)"):
                load_specs(path)
            assert cli_main(["validate", path]) == 2
            assert "spec error" in capsys.readouterr().err

    def test_seeds_past_the_bound_share_a_law(self):
        # the reason for the bound: the initial law's Philox key
        # [seed, 2**63] is a float64 array, which rounds 2**53 + 1
        _, law = build_model("toy_example_1")
        assert np.array_equal(law(2 ** 53, 50), law(2 ** 53 + 1, 50))
        assert not np.array_equal(law(2 ** 53 - 1, 50), law(2 ** 53, 50))

    def test_sections_sharing_output_dir_rejected(self, tmp_path):
        # the second section would overwrite classification.csv and the
        # manifest, and leave the first one's norms files unlisted; paths
        # are compared normalized
        section = """
[{name}]
kind = stability
model = toy_example_1
schemes = dlr_em
rank = 1
paths = 10
seed = 3
t_final = 0.2
dt = 0.1
output_dir = {out}
"""
        first = section.format(name="first", out=tmp_path / "shared")
        for out in ("shared", "shared/", "sub/../shared", "./shared"):
            body = first + section.format(name="second",
                                          out=tmp_path / "x" / ".." / out)
            with pytest.raises(SpecError, match=r"\[first\] and \[second\]"):
                load_specs(write_ini(tmp_path, body))
        body = first + section.format(name="second", out=tmp_path / "other")
        assert [spec.name for spec in load_specs(write_ini(tmp_path, body))] \
            == ["first", "second"]

    def test_boolean_words(self, tmp_path):
        for word, value in configparser.ConfigParser.BOOLEAN_STATES.items():
            for raw in (word, word.upper(), "  %s  " % word):
                body = (GBM_INI.format(out=tmp_path)
                        + "debug_identities = %s\n" % raw)
                spec = load_specs(write_ini(tmp_path, body))[0]
                assert spec.debug_identities is value, raw
        for raw in ("2", "maybe"):
            bad = GBM_INI.format(out=tmp_path) + "debug_identities = %s\n" % raw
            with pytest.raises(SpecError, match="boolean"):
                load_specs(write_ini(tmp_path, bad))


class TestRunConvergence:
    def test_unfitted_orders_are_json_null(self, tmp_path):
        # the manifest must stay strict JSON
        def reject(constant):
            raise ValueError("non-standard JSON constant %s" % constant)

        for name, overrides, expected in [
                # two points fit no order
                ("two", dict(model="toy_example_2", schemes=("dlr_em",),
                             rank=2, paths=50, dt_values=(0.1, 0.05),
                             reference="em_fine", fine_factor=2),
                 {"dlr_em vs em_fine": None,
                  "dlr_em vs dlr_ps_sde_fine": None}),
                # nor do errors that are exactly zero (constant paths),
                # which fit_order would reject in the middle of the run
                ("zero", dict(model_overrides={"mu": 0.0, "sigma": 0.0}),
                 {"em vs exact": None})]:
            run_experiment(make_spec(tmp_path, output_dir=str(
                tmp_path / name), **overrides))
            text = (tmp_path / name / "manifest.json").read_text()
            orders = json.loads(text, parse_constant=reject)["summary"][
                "fitted_orders"]
            assert orders == expected

    def test_exact_reference_recovers_half_order(self, tmp_path):
        spec = make_spec(tmp_path, paths=400,
                         dt_values=(0.1, 0.05, 0.025, 0.0125))
        out = run_experiment(spec)
        report = out["reports"][("em", "exact")]
        assert 0.3 <= report.fitted_order <= 0.7
        assert np.all(np.diff(report.l2_sup_errors) < 0.0)
        for name in ("errors_em_vs_exact.csv", "slopes.csv", "status.csv",
                     "manifest.json"):
            assert os.path.exists(os.path.join(spec.output_dir, name))

    def test_fine_references_cover_all_schemes(self, tmp_path):
        spec = make_spec(
            tmp_path, model="toy_example_2", rank=2, paths=300,
            schemes=("dlr_em", "dlr_ps_em", "dlr_ps_sde"), t_final=1.0,
            dt_values=(0.1, 0.05, 0.02), reference="em_fine", fine_factor=4)
        out = run_experiment(spec)
        assert not out["failures"]
        for scheme in spec.schemes:
            for ref in ("em_fine", "dlr_ps_sde_fine"):
                report = out["reports"][(scheme, ref)]
                assert report.l2_sup_errors.size == 3
                assert np.all(report.l2_sup_errors >= 0.0)
                path = os.path.join(spec.output_dir,
                                    "errors_%s_vs_%s.csv" % (scheme, ref))
                data = np.loadtxt(path, delimiter=",", skiprows=1)
                assert data.shape == (3, 3)

    def test_failed_cells_flagged_and_excluded(self, tmp_path):
        # the plain low-rank scheme collapses on the nonlinear model
        spec = make_spec(
            tmp_path, model="toy_example_3", rank=2, paths=300,
            schemes=("dlr_em", "dlr_ps_sde"), t_final=10.0,
            dt_values=(0.1, 0.05), reference="em_fine", fine_factor=4)
        out = run_experiment(spec)
        assert {f["scheme"] for f in out["failures"]} == {"dlr_em"}
        assert out["reports"][("dlr_em", "em_fine")].dt_values.size == 0
        assert np.isnan(out["reports"][("dlr_em", "em_fine")].fitted_order)
        assert out["reports"][("dlr_ps_sde", "em_fine")].dt_values.size == 2
        status = (tmp_path / "out" / "status.csv").read_text().splitlines()
        assert "dlr_em,0.1,failed" in status
        assert "dlr_ps_sde,0.1,ok" in status

    def test_outputs_reproducible_and_digested(self, tmp_path):
        spec_a = make_spec(tmp_path, output_dir=str(tmp_path / "a"))
        spec_b = make_spec(tmp_path, output_dir=str(tmp_path / "b"))
        run_experiment(spec_a)
        run_experiment(spec_b)
        with open(tmp_path / "a" / "manifest.json") as fh:
            man_a = json.load(fh)
        with open(tmp_path / "b" / "manifest.json") as fh:
            man_b = json.load(fh)
        assert man_a["outputs"] == man_b["outputs"]
        for name in ("errors_em_vs_exact.csv", "slopes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_cell_set_does_not_change_outputs(self, tmp_path):
        # all cells step on the shared blocks of one fine lattice, so a
        # scheme's errors do not depend on the other schemes of the sweep
        # nor, row by row, on its coarser dts
        def error_csvs(name, schemes, dt_values):
            spec = make_spec(tmp_path, model="toy_example_2", rank=2,
                             paths=200, schemes=schemes, dt_values=dt_values,
                             reference="em_fine", fine_factor=2,
                             output_dir=str(tmp_path / name))
            run_experiment(spec)
            return {ref: (tmp_path / name / ("errors_dlr_ps_sde_vs_%s.csv"
                                             % ref)).read_bytes()
                    for ref in ("em_fine", "dlr_ps_sde_fine")}

        ladder = (0.1, 0.05, 0.025)
        together = error_csvs("together", ("em", "dlr_em", "dlr_ps_sde"),
                               ladder)
        assert error_csvs("alone", ("dlr_ps_sde",), ladder) == together
        fewer = error_csvs("fewer", ("dlr_ps_sde",), ladder[1:])
        for ref, data in together.items():
            lines = data.splitlines()
            assert fewer[ref].splitlines() == [lines[0]] + lines[2:]
        status = (tmp_path / "fewer" / "status.csv").read_text()
        assert status.splitlines()[1:] == [
            line for line in (tmp_path / "together" / "status.csv")
            .read_text().splitlines()
            if line.startswith(("dlr_ps_sde,0.05,", "dlr_ps_sde,0.025,"))]

    @pytest.mark.parametrize("model, reference, fine_factor", [
        ("toy_example_2", "em_fine", 2),
        ("gbm_oracle", "exact", 1),
        ("gbm_oracle", "exact", 3),
    ])
    def test_cells_match_integrate_over_coarsened_grids(
            self, tmp_path, model, reference, fine_factor):
        # every streamed row, errors and status, equals the stored
        # oracle's: coarse grids summed from one stored fine grid and
        # errors over recorded clouds
        spec = make_spec(tmp_path, model=model, rank=1, paths=100,
                         schemes=SCHEMES, dt_values=(0.1, 0.05, 0.025),
                         reference=reference, fine_factor=fine_factor)
        run_experiment(spec)
        for scheme in spec.schemes:
            rows = scheme_rows(spec, scheme, spec.dt_values)
            assert len(rows["status.csv"]) == 3
            assert rows == stored_sweep_rows(spec, scheme)

    def test_full_order_scheme_alone_against_fine_references(self, tmp_path):
        # the fine splitting reference starts from the rank-k samples
        # even when no cell of the sweep is low-rank
        spec = make_spec(tmp_path, model="toy_example_2", rank=2,
                         dt_values=(0.1, 0.05), reference="em_fine",
                         fine_factor=2)
        out = run_experiment(spec)
        assert not out["failures"]
        assert out["reports"][("em", "dlr_ps_sde_fine")].dt_values.size == 2

    @pytest.mark.parametrize("failing, cause", [
        pytest.param("em_fine", "injected", id="em_fine"),
        pytest.param("dlr_ps_sde_fine", "second moments overflowed",
                     id="dlr_ps_sde_fine"),
        pytest.param("dlr_ps_sde_fine", "basis solve overflowed",
                     id="dlr_ps_sde_fine-basis_solve")])
    def test_failing_reference_raises_before_any_output(self, tmp_path,
                                                        monkeypatch, failing,
                                                        cause):
        if failing == "em_fine":
            # no registered model makes the full-order run fail before
            # the splitting one, so its step fails on purpose here
            em_step = lowrank_sde.integrators.em_step

            def failing_em_step(model, x, t, dt, dw):
                if t >= 0.5:
                    raise ModelBlowUp("injected at t=%g" % t, t=t, path=0)
                return em_step(model, x, t, dt, dw)

            monkeypatch.setattr(lowrank_sde.integrators, "em_step",
                                failing_em_step)
            spec = make_spec(tmp_path, model="toy_example_2", rank=2,
                             schemes=("dlr_em",), dt_values=(0.1, 0.05),
                             reference="em_fine", fine_factor=2)
        elif cause.startswith("second"):
            # the moved samples' second moments overflow at the first
            # fine step, a step before the full-order run overflows: one
            # step of 2 takes them from 1 past ~1e154, so the basis
            # solve's overflow (from ~1e77 on) never gets its turn
            spec = make_spec(tmp_path, model_overrides={"mu": 1e154},
                             t_final=8.0, dt_values=(8.0, 4.0),
                             reference="em_fine", fine_factor=2)
        else:
            # past ~1e154 the basis solve's norms overflow while the
            # samples, and the full-order run, are still finite
            spec = make_spec(tmp_path,
                             model_overrides={"mu": 800.0, "sigma": 0.1},
                             schemes=("dlr_em",), paths=50,
                             reference="em_fine", fine_factor=4)
        with pytest.raises(StepFailed, match="fine reference %s failed: "
                           ".*%s" % (failing, cause)):
            run_experiment(spec)
        assert os.listdir(spec.output_dir) == []

    def test_peak_memory_independent_of_horizon(self, tmp_path):
        # the sweep streams its noise and folds its errors node by node,
        # so four times the horizon on the same dt ladder may not take
        # four times the memory (storing the noise grid and the node
        # clouds did)
        def peak_bytes(t_final):
            spec = make_spec(
                tmp_path, model="toy_example_2", rank=2, paths=1000,
                schemes=("em", "dlr_em", "dlr_ps_sde"), t_final=t_final,
                dt_values=(0.2, 0.1, 0.05), reference="em_fine",
                fine_factor=2)
            tracemalloc.start()
            try:
                run_experiment(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(1.0)  # warm-up: lazy imports and caches
        assert peak_bytes(4.0) < 1.25 * peak_bytes(1.0)


class TestRunSingularValues:
    def sv_spec(self, tmp_path, **overrides):
        fields = dict(
            name="sv", kind="singular_values", model="toy_example_1",
            schemes=("dlr_em", "dlr_ps_em", "dlr_ps_sde"), rank=2,
            paths=400, seed=9, t_final=1.0, dt_values=(0.1, 0.05),
            reference="", output_dir=str(tmp_path / "sv"))
        fields.update(overrides)
        return ExperimentSpec(**fields)

    def test_traces_written_with_bounds(self, tmp_path):
        spec = self.sv_spec(tmp_path)
        out = run_experiment(spec)
        assert not out["failures"]
        for scheme in spec.schemes:
            for dt in spec.dt_values:
                trace = out["traces"][(scheme, dt)]
                n = round(spec.t_final / dt)
                assert trace.times.size == n + 1
                # certified noise floor: sigma_B * dt beyond the start
                assert np.allclose(trace.bound_simple, 1e-8 * dt)
                assert np.all(trace.sigma_k_observed[1:]
                              >= 0.8 * 1e-8 * dt)
                assert np.all(trace.dt_condition > 0.0)
                path = os.path.join(
                    spec.output_dir,
                    "singular_values_%s_dt%g.csv" % (scheme, dt))
                data = np.loadtxt(path, delimiter=",", skiprows=1)
                assert data.shape == (n + 1, 5)

    def test_no_violations_for_elliptic_noise(self, tmp_path):
        spec = self.sv_spec(tmp_path)
        out = run_experiment(spec)
        assert out["violations"] == []
        lines = (tmp_path / "sv" / "violations.csv").read_text().splitlines()
        assert lines == ["scheme,dt,t,sigma_k,threshold"]

    def test_singular_start_violates_only_the_forward_scheme(self, tmp_path):
        # k = 3 on the rank-2 initial law starts from a singular Gramian:
        # dlr_em stays at sigma_k = 0 on every node after t = 0, while the
        # splitting schemes regain the floor 0.8 sigma_B dt at once
        spec = self.sv_spec(tmp_path, rank=3, rank_policy="svd", seed=38,
                            paths=200, t_final=0.1, dt_values=(0.02, 0.01))
        out = run_experiment(spec)
        rows = [line.split(",") for line in (
            tmp_path / "sv" / "violations.csv").read_text().splitlines()[1:]]
        assert len(rows) == 15
        for dt, n in zip(spec.dt_values, (5, 10)):
            mine = [row for row in rows if row[1] == "%g" % dt]
            times = out["traces"][("dlr_em", dt)].times[1:]
            assert len(mine) == n
            assert [row[0] for row in mine] == ["dlr_em"] * n
            assert [row[2] for row in mine] == ["%.17g" % t for t in times]
            for row in mine:
                assert row[3:] == ["0", "%.17g" % (0.8e-8 * dt)]
        manifest = json.loads((tmp_path / "sv" / "manifest.json").read_text())
        assert manifest["summary"]["violations"] == 15
        assert manifest["summary"]["failures"] == []

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), paths=st.integers(16, 64),
           rank=st.integers(1, 2),
           dt_values=st.lists(st.sampled_from((0.1, 0.05, 0.02)),
                              min_size=1, max_size=2, unique=True),
           sigma_b=st.floats(1e-12, 1e-2),
           t_final=st.sampled_from((1.0, 2.0, 3.0)))
    # the growth envelope K lands just below the top of the float range,
    # so the refined bound's 4 c (1 + K) overflows
    @example(seed=0, paths=16, rank=1, dt_values=[0.1], sigma_b=0.0078125,
             t_final=2.0)
    def test_gramian_floor_property(self, seed, paths, rank, dt_values,
                                    sigma_b, t_final):
        # the paper's claim under uniformly elliptic noise: from a
        # non-singular first Gramian, every scheme keeps sigma_k >= 0.8
        # sigma_B dt at every node after t = 0.  The initial law has rank
        # 2, so k = 3 would start from a singular Gramian, which the
        # claim does not cover
        with tempfile.TemporaryDirectory() as root:
            spec = ExperimentSpec(
                name="floor", kind="singular_values", model="toy_example_1",
                model_overrides={"sigma_b": sigma_b},
                schemes=("dlr_em", "dlr_ps_em", "dlr_ps_sde"), rank=rank,
                paths=paths, seed=seed, t_final=t_final,
                dt_values=tuple(sorted(dt_values, reverse=True)),
                reference="", output_dir=root)
            out = run_experiment(spec)
        assert out["failures"] == []
        assert out["violations"] == []
        for (scheme, dt), trace in out["traces"].items():
            assert trace.times.size == round(t_final / dt) + 1
            assert np.all(trace.sigma_k_observed[1:]
                          >= 0.8 * sigma_b * dt), (scheme, dt)

    def test_degenerate_noise_traces_zero_bounds(self, tmp_path):
        spec = self.sv_spec(tmp_path, model="toy_example_2")
        out = run_experiment(spec)
        trace = out["traces"][("dlr_ps_sde", 0.1)]
        assert np.all(trace.bound_simple == 0.0)
        assert np.all(trace.bound_refined == 0.0)
        assert out["violations"] == []

    def test_cell_set_does_not_change_outputs(self, tmp_path):
        # every lattice scales the same per-step blocks, so a cell's trace
        # is the same whichever other schemes and dts run with it
        name = "singular_values_dlr_ps_em_dt0.1.csv"
        run_experiment(self.sv_spec(
            tmp_path, dt_values=(0.1, 0.0625, 0.05)))
        run_experiment(self.sv_spec(
            tmp_path, schemes=("dlr_ps_em",), dt_values=(0.1,),
            output_dir=str(tmp_path / "alone")))
        assert (tmp_path / "alone" / name).read_bytes() == \
            (tmp_path / "sv" / name).read_bytes()

    def test_cell_matches_integrate_over_generate(self, tmp_path):
        # the trajectory enters the trace through its node times, its
        # Gramian floors and the sup of its mean-square norms
        spec = self.sv_spec(tmp_path)
        run_experiment(spec)
        traj = stored_grid_run(spec, "dlr_ps_sde", 0.05)
        rows = [line.split(",") for line in (
            tmp_path / "sv" / "singular_values_dlr_ps_sde_dt0.05.csv"
        ).read_text().splitlines()[1:]]
        assert not traj.failed and len(rows) == 21
        c_lgb = build_model(spec.model, {})[0].c_lgb
        sup_msq = float(np.max(traj.mean_square_norms))
        for i, row in enumerate(rows):
            sigma = traj.sigma_min_gramians[i]
            assert row[0] == "%.17g" % traj.grid.times()[i]
            assert row[1] == "%.17g" % sigma
            assert row[4] == "%.17g" % dt_condition(max(sigma, 0.0), c_lgb,
                                                    sup_msq)


class TestClassifyStability:
    def test_labels(self):
        assert classify_stability(1.0, 1e-4, True) == "stable"
        assert classify_stability(1.0, 50.0, True) == "unstable"
        assert classify_stability(1.0, 0.5, True) == "inconclusive"
        # both cuts are strict
        assert classify_stability(1.0, 1e-3, True) == "inconclusive"
        assert classify_stability(1.0, 10.0, True) == "inconclusive"
        assert classify_stability(1.0, np.inf, True) == "unstable"
        assert classify_stability(1.0, np.nan, True) == "unstable"
        # failure after contracting below threshold still counts stable
        assert classify_stability(1.0, 1e-200, False) == "stable"
        assert classify_stability(1.0, 0.5, False) == "unstable"

    def test_cuts_scale_with_the_initial_norm(self):
        # at initial 1.0 a cut of STABLE_FACTOR * initial and one of
        # STABLE_FACTOR / initial agree; at 4.0 they do not
        assert classify_stability(4.0, 1e-3, True) == "stable"
        assert classify_stability(4.0, 4e-3, True) == "inconclusive"
        assert classify_stability(4.0, 20.0, True) == "inconclusive"
        assert classify_stability(4.0, 41.0, True) == "unstable"
        assert classify_stability(0.25, 1e-3, True) == "inconclusive"

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(initial=st.floats(1e-100, 1e100),
           final=st.one_of(st.floats(1e-150, 1e150), st.sampled_from(
               (0.0, np.inf, np.nan))),
           completed=st.booleans(), power=st.integers(-60, 60))
    def test_label_unchanged_when_both_norms_scale_by_a_power_of_two(
            self, initial, final, completed, power):
        # scaling by 2^power is exact here, so it must not move a label
        scale = 2.0 ** power
        assert classify_stability(initial * scale, final * scale,
                                  completed) \
            == classify_stability(initial, final, completed)


class TestRunStability:
    def test_contracting_and_expanding_runs(self, tmp_path):
        spec = ExperimentSpec(
            name="stab", kind="stability", model="stability_model",
            schemes=("dlr_ps_sde",), rank=4, paths=300, seed=3,
            t_final=12.0, dt_values=(0.0911, 0.05),
            output_dir=str(tmp_path / "stab"))
        with pytest.warns(UserWarning, match="does not divide"):
            out = run_experiment(spec)
        # dt=0.05 contracts hard (underflow-collapse tolerated)
        assert out["classifications"][("dlr_ps_sde", 0.05)] == "stable"
        rows = (tmp_path / "stab" / "classification.csv").read_text()
        assert "dlr_ps_sde,0.05,stable" in rows
        for dt in spec.dt_values:
            path = tmp_path / "stab" / ("norms_dlr_ps_sde_dt%g.csv" % dt)
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            assert data.ndim == 2 and data.shape[1] == 2
            assert np.all(np.isfinite(data))

    def stab_spec(self, tmp_path, name, **overrides):
        fields = dict(
            name="stab", kind="stability", model="stability_model",
            schemes=("dlr_em", "dlr_ps_em", "dlr_ps_sde"), rank=4,
            paths=100, seed=3, t_final=1.0, dt_values=(0.1, 0.0625, 0.05),
            output_dir=str(tmp_path / name))
        fields.update(overrides)
        return ExperimentSpec(**fields)

    def test_cell_set_does_not_change_outputs(self, tmp_path):
        # the cells step in lockstep on shared blocks; a cell whose lattice
        # ends first reads the same bytes as when it runs alone
        def lines(name, csv):
            return (tmp_path / name / csv).read_text().splitlines()

        run_experiment(self.stab_spec(tmp_path, "together"))
        for scheme, dt in (("dlr_ps_sde", 0.1), ("dlr_em", 0.0625)):
            name = "alone_%s_%g" % (scheme, dt)
            run_experiment(self.stab_spec(tmp_path, name, schemes=(scheme,),
                                          dt_values=(dt,)))
            csv = "norms_%s_dt%g.csv" % (scheme, dt)
            assert (tmp_path / name / csv).read_bytes() == \
                (tmp_path / "together" / csv).read_bytes()
            verdict = lines(name, "classification.csv")[1]
            assert verdict in lines("together", "classification.csv")

    def test_failed_cells_reported_in_summary(self, tmp_path):
        # rank 14 leaves sadr_model's first basis rank deficient: each
        # cell fails at step 0 and classifies failed, and the manifest
        # says why
        spec = ExperimentSpec(
            name="stab", kind="stability", model="sadr_model",
            schemes=("dlr_em", "dlr_ps_sde"), rank=14, paths=200, seed=3,
            t_final=0.05, dt_values=(0.01,),
            output_dir=str(tmp_path / "abort"))
        out = run_experiment(spec)
        summary = json.loads(
            (tmp_path / "abort" / "manifest.json").read_text())["summary"]
        assert [(f["scheme"], f["dt"]) for f in summary["failures"]] == [
            ("dlr_em", 0.01), ("dlr_ps_sde", 0.01)]
        for failure in summary["failures"]:
            assert failure["error"].startswith("StepFailed at step 0")
            assert "rank-deficient basis" in failure["error"]
        assert out["failures"] == summary["failures"]
        assert set(out["classifications"].values()) == {"failed"}
        assert (tmp_path / "abort" / "norms_dlr_em_dt0.01.csv").read_text() \
            .count("\n") == 2
        run_experiment(replace(spec, rank_policy="svd",
                               output_dir=str(tmp_path / "svd")))
        assert json.loads((tmp_path / "svd" / "manifest.json").read_text())[
            "summary"]["failures"] == []

    def test_underflowing_cells_are_stable_and_report_underflow(self,
                                                                tmp_path):
        # every scheme contracts this ensemble towards the float underflow
        # limit (t ~ 7.4 at dt 0.05, ~ 11.8 at dt 0.02); each cell is
        # stable, and its failure is the underflow, not a blow-up of the
        # basis solve or a rank-deficient basis built from subnormals
        spec = self.stab_spec(tmp_path, "under", paths=200, seed=35,
                              t_final=20.0, dt_values=(0.05, 0.02))
        out = run_experiment(spec)
        summary = json.loads(
            (tmp_path / "under" / "manifest.json").read_text())["summary"]
        assert list(summary["classification"].values()) == ["stable"] * 6
        assert [(f["scheme"], f["dt"]) for f in summary["failures"]] == [
            (scheme, dt) for scheme in spec.schemes for dt in (0.05, 0.02)]
        for failure in summary["failures"]:
            assert failure["error"].startswith("EnsembleUnderflow at step ")
        assert out["failures"] == summary["failures"]

    def test_linear_shortcut_steps_through_underflow(self, tmp_path):
        # the dlr_em shortcut forms no basis solve, so the same contracting
        # ensemble runs to t_final, its norms reaching zero
        spec = self.stab_spec(tmp_path, "fast", schemes=("dlr_em",),
                              linear_fast_path=True, paths=200, seed=35,
                              t_final=20.0, dt_values=(0.05, 0.02))
        out = run_experiment(spec)
        assert out["failures"] == []
        assert list(out["classifications"].values()) == ["stable"] * 2
        for dt in spec.dt_values:
            data = np.loadtxt(tmp_path / "fast" / ("norms_dlr_em_dt%g.csv"
                                                   % dt),
                              delimiter=",", skiprows=1)
            assert data.shape == (round(20.0 / dt) + 1, 2)
            assert data[-1, 0] == 20.0 and data[-1, 1] == 0.0

    def test_cell_matches_integrate_over_generate(self, tmp_path):
        spec = self.stab_spec(tmp_path, "stab")
        run_experiment(spec)
        traj = stored_grid_run(spec, "dlr_em", 0.0625)
        assert not traj.failed
        expected = "t,mean_square_norm\n" + "".join(
            "%.17g,%.17g\n" % pair
            for pair in zip(traj.grid.times(), traj.mean_square_norms))
        assert (tmp_path / "stab" / "norms_dlr_em_dt0.0625.csv") \
            .read_text() == expected

    def test_each_block_drawn_once(self, tmp_path, monkeypatch):
        # nine cells on three lattices share one standard normal block
        # per step
        draws = []
        block = lowrank_sde.noise._standard_normal_block

        def counting_block(gen, seed_word, step, out):
            draws.append((seed_word, step))
            return block(gen, seed_word, step, out)

        monkeypatch.setattr(lowrank_sde.noise, "_standard_normal_block",
                            counting_block)
        run_experiment(self.stab_spec(tmp_path, "stab"))
        assert draws == [(3, step) for step in range(20)]

    def test_one_eigh_and_one_qr_per_step(self, tmp_path, monkeypatch):
        # the nine cells settle as one stack, and a stability run forms
        # no node Gramian: the run factors once per step, all cells
        # together; counting starts at the first step, after the setup
        calls = dict.fromkeys(("eigh", "eigvalsh", "svd", "qr"), 0)
        armed = []
        advance_all = lowrank_sde.harness.advance_all

        def counted_advance_all(pairs):
            if not armed:
                armed.append(True)
                reference.count_factorizations(monkeypatch, calls)
            advance_all(pairs)

        monkeypatch.setattr(lowrank_sde.harness, "advance_all",
                            counted_advance_all)
        out = run_experiment(self.stab_spec(tmp_path, "stab"))
        assert len(out["classifications"]) == 9
        assert calls == {"eigh": 20, "eigvalsh": 0, "svd": 0, "qr": 20}

    def test_peak_memory_independent_of_horizon(self, tmp_path):
        # the cells stream their noise, so four times the horizon may
        # not take four times the memory (a stored grid per cell did)
        def peak_bytes(t_final):
            spec = self.stab_spec(tmp_path, "stab", model="toy_example_1",
                                  rank=2, paths=1000, t_final=t_final,
                                  dt_values=(0.05, 0.025))
            tracemalloc.start()
            try:
                run_experiment(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(1.0)  # warm-up: lazy imports and caches
        assert peak_bytes(4.0) < 1.25 * peak_bytes(1.0)


class TestRunSingle:
    def test_snapshots_round_trip(self, tmp_path):
        spec = ExperimentSpec(
            name="one", kind="single_run", model="toy_example_1",
            schemes=("dlr_ps_sde",), rank=2, paths=250, seed=21,
            t_final=1.0, dt_values=(0.05,), snapshot_times=(0.5, 1.0),
            output_dir=str(tmp_path / "one"))
        out = run_experiment(spec)
        traj = out["trajectory"]
        state = load_snapshot(str(tmp_path / "one" / "snapshot_t1.csv"))
        assert state.t == pytest.approx(1.0)
        assert state.u.shape == (2, 3)
        np.testing.assert_allclose(state.u, traj.node_states[-1].u)
        trace = np.loadtxt(tmp_path / "one" / "trace.csv", delimiter=",",
                           skiprows=1)
        assert trace.shape == (21, 3)

    def test_full_order_snapshot_uses_identity_basis(self, tmp_path):
        spec = ExperimentSpec(
            name="one", kind="single_run", model="toy_example_1",
            schemes=("em",), rank=1, paths=100, seed=21,
            t_final=0.5, dt_values=(0.1,), snapshot_times=(0.5,),
            output_dir=str(tmp_path / "em_one"))
        run_experiment(spec)
        state = load_snapshot(str(tmp_path / "em_one" / "snapshot_t0.5.csv"))
        np.testing.assert_allclose(state.u, np.eye(3))
        assert state.y.shape == (3, 100)


class TestHorizon:
    @pytest.mark.parametrize("kind, scheme", [
        ("singular_values", "dlr_ps_sde"),
        ("stability", "dlr_em"),
        ("single_run", "dlr_em"),
    ])
    def test_non_dividing_dt_warns_and_reports_horizon(self, tmp_path, kind,
                                                       scheme):
        # round(1 / 0.3) = 3 steps end at 0.9: the run warns and reports
        # that horizon, and writes the CSVs of a spec with t_final = 0.9
        def spec(name, t_final):
            return ExperimentSpec(
                name=name, kind=kind, model="toy_example_1",
                schemes=(scheme,), rank=2, paths=100, seed=3,
                t_final=t_final, dt_values=(0.3,),
                output_dir=str(tmp_path / name))

        with pytest.warns(UserWarning, match="does not divide t_final=1"):
            run_experiment(spec("long", 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(spec("exact", 0.9))
        with open(tmp_path / "long" / "manifest.json") as fh:
            summary = json.load(fh)["summary"]
        assert summary["horizons"] == {
            "%s dt=0.3" % scheme: pytest.approx(0.9, rel=1e-12)}
        names = sorted(n for n in os.listdir(tmp_path / "exact")
                       if n.endswith(".csv"))
        assert names
        for name in names:
            assert (tmp_path / "long" / name).read_bytes() == \
                (tmp_path / "exact" / name).read_bytes()

    @pytest.mark.parametrize("t_final", [0.5, 1.0, 4.0])
    def test_a_time_at_the_tolerance_is_on_the_node(self, t_final):
        # a time is off its node only when it misses by more than
        # 1e-9 max(1, t_final): at exactly that distance it is on it
        tol = 1e-9 * max(1.0, t_final)
        assert not _off_node(tol, 0.0, t_final)
        assert not _off_node(-tol, 0.0, t_final)
        assert _off_node(1.2 * tol, 0.0, t_final)


class TestCellRecord:
    # the ExperimentSpec fields, which the manifest echoes and no more
    FIELDS = ("name", "kind", "model", "model_overrides", "schemes", "rank",
              "paths", "seed", "t_final", "dt_values", "reference",
              "fine_factor", "output_dir", "debug_identities",
              "linear_fast_path", "rank_policy", "snapshot_times")

    def test_validation_keeps_the_plan(self, tmp_path):
        spec = make_spec(tmp_path, fine_factor=3)
        assert spec.n_steps == (10, 20, 40)
        assert spec.fine_steps() == 120
        single = make_spec(tmp_path, kind="single_run", dt_values=(0.3,),
                           snapshot_times=(0.6, 0.0, 0.9))
        assert single.n_steps == (3,)
        assert single.snapshot_nodes == (2, 0, 3)
        # a replaced spec is validated, and planned, again
        assert replace(spec, dt_values=(0.5,)).n_steps == (2,)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_summary_carries_failures_and_horizons(self, tmp_path,
                                                         kind):
        extra = {"single_run": dict(dt_values=(0.25,),
                                    snapshot_times=(0.5,))}.get(kind, {})
        spec = make_spec(tmp_path, kind=kind, schemes=("dlr_em",), **extra)
        out = run_experiment(spec)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        summary = manifest["summary"]
        assert summary["failures"] == out["failures"] == []
        assert summary["horizons"] == {
            "dlr_em dt=%g" % dt: pytest.approx(1.0, rel=1e-15)
            for dt in spec.dt_values}
        # the echo is the section: the plan is not a field
        assert sorted(manifest["spec"]) == sorted(self.FIELDS)
        assert manifest["spec"] == json.loads(json.dumps(asdict(spec)))


class TestBlasThreads:
    def test_run_holds_one_thread_and_restores_the_callers(self, tmp_path,
                                                           monkeypatch):
        control = lowrank_sde.harness._openblas_threads()
        if control is None:
            pytest.skip("this NumPy's BLAS exports no thread control")
        get, put = control
        during = []
        prepare = lowrank_sde.harness._prepare

        def recording_prepare(spec):
            during.append(get())
            return prepare(spec)

        monkeypatch.setattr(lowrank_sde.harness, "_prepare",
                            recording_prepare)
        before = get()
        put(2)
        try:
            callers = get()
            run_experiment(make_spec(tmp_path))
            assert get() == callers
            # a run that raises restores the count too
            with pytest.raises(SpecError, match="rank"):
                run_experiment(make_spec(tmp_path, rank=2,
                                         schemes=("dlr_em",)))
            assert get() == callers
        finally:
            put(before)
        assert during == [1, 1]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["blas_threads"] == {"found": callers, "used": 1}

    def test_missing_thread_control_is_a_no_op(self, tmp_path, monkeypatch):
        # a library without the symbols (another BLAS or NumPy build)
        monkeypatch.setattr(lowrank_sde.harness.ctypes, "CDLL",
                            lambda path: SimpleNamespace())
        run_experiment(make_spec(tmp_path))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["blas_threads"] is None
        assert set(manifest["outputs"]) == {
            "errors_em_vs_exact.csv", "slopes.csv", "status.csv"}


class TestCli:
    @staticmethod
    def fresh_process(code):
        """stdout of ``code`` run by a new interpreter that imports
        lowrank_sde from this checkout."""
        src = os.path.dirname(os.path.dirname(lowrank_sde.cli.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        return out.stdout

    def test_import_loads_no_scipy_subpackage_but_special(self):
        # a fresh `import lowrank_sde.cli` is the setup time of every run;
        # of scipy it loads only the compiled ufuncs behind ndtri, not
        # scipy.special's __init__, which pulls in scipy's array-API layer
        # and numpy.f2py, numpy.testing and numpy.ma (scipy.linalg alone
        # would cost about 0.3 s)
        code = ("import json, sys, lowrank_sde.cli, scipy; print(json.dumps("
                "[sorted(name for name in scipy.__all__ "
                "if 'scipy.' + name in sys.modules), sorted(sys.modules)]))")
        subpackages, modules = json.loads(self.fresh_process(code))
        assert subpackages == []
        for name in ("scipy.special", "scipy.special._basic",
                     "scipy._lib._array_api", "numpy.f2py", "numpy.testing",
                     "numpy.ma"):
            assert name not in modules
        assert "scipy.special._ufuncs" in modules
        assert "numpy.random" in modules

    @pytest.mark.parametrize("first, second", [
        ("lowrank_sde.noise", "scipy.special"),
        ("scipy.special", "lowrank_sde.noise"),
    ])
    def test_scipy_special_imports_either_side(self, first, second):
        # the real package init runs whenever scipy.special is imported,
        # before or after the noise module, and shares its ndtri ufunc
        code = ("import importlib, math\n"
                "importlib.import_module(%r)\n"
                "importlib.import_module(%r)\n"
                "import scipy.special, lowrank_sde.noise\n"
                "assert scipy.special.ndtri is lowrank_sde.noise.ndtri\n"
                "assert abs(scipy.special.erf(0.5) - math.erf(0.5)) < 1e-15\n"
                "assert scipy.special.logsumexp([0.0, 0.0]) == math.log(2)\n"
                "print('ok')" % (first, second))
        assert self.fresh_process(code).split() == ["ok"]

    def test_ndtri_falls_back_to_the_package_import(self):
        # a scipy whose scipy.special holds no _ufuncs module: the direct
        # load fails and the noise module imports the package instead
        code = ("import importlib.util, sys\n"
                "find_spec = importlib.util.find_spec\n"
                "def elsewhere(name, package=None):\n"
                "    spec = find_spec(name, package)\n"
                "    if name == 'scipy.special':\n"
                "        spec.submodule_search_locations = []\n"
                "    return spec\n"
                "importlib.util.find_spec = elsewhere\n"
                "import lowrank_sde.noise, scipy.special\n"
                "assert scipy.special.ndtri is lowrank_sde.noise.ndtri\n"
                "assert 'scipy.special._basic' in sys.modules\n"
                "print('ok')")
        assert self.fresh_process(code).split() == ["ok"]

    def test_run_imports_nothing(self, tmp_path):
        # every import happens before the run starts, so none of its
        # cost is booked in a run's wall time
        path = write_ini(tmp_path, GBM_INI.format(out=tmp_path / "gbm")
                         + TOY_AND_STABILITY_INI.format(out=tmp_path))
        code = ("import sys, lowrank_sde.cli\n"
                "before = set(sys.modules)\n"
                "assert lowrank_sde.cli.main(['run', %r]) == 0\n"
                "print('imported:', *sorted(set(sys.modules) - before))"
                % path)
        assert self.fresh_process(code).splitlines()[-1] == "imported:"

    def test_validate_and_run_exit_zero(self, tmp_path, capsys):
        path = write_ini(tmp_path, GBM_INI.format(out=tmp_path / "cli_out"))
        assert cli_main(["validate", path]) == 0
        assert "1 experiment(s)" in capsys.readouterr().out
        assert cli_main(["run", path]) == 0
        assert (tmp_path / "cli_out" / "manifest.json").exists()

    def test_invalid_spec_exits_two(self, tmp_path, capsys):
        body = GBM_INI.format(out=tmp_path) + "verbosity = 3\n"
        path = write_ini(tmp_path, body)
        assert cli_main(["validate", path]) == 2
        assert "spec error" in capsys.readouterr().err
        assert cli_main(["run", path]) == 2

    @pytest.mark.parametrize("model, seed, extra", [
        ("toy_example_1", "3", "model.sigma_b = abc"),
        ("sadr_model", "3", "model.d = 2.5"),
        ("toy_example_1", "-1", ""),
        ("toy_example_1", str(2 ** 70), ""),
        ("gbm_oracle", "3", "model.mu = nan"),
        ("toy_example_2", "3", "model.sigma_b = inf"),
        ("gbm_oracle", "3", "model.mu = 1e200"),
    ])
    def test_uncastable_override_or_seed_exits_two(self, tmp_path, capsys,
                                                   model, seed, extra):
        body = """
[bad]
kind = stability
model = {model}
schemes = dlr_em
rank = 1
paths = 10
seed = {seed}
t_final = 0.2
dt = 0.1
output_dir = {out}
{extra}
""".format(model=model, seed=seed, out=tmp_path / "bad_out", extra=extra)
        path = write_ini(tmp_path, body)
        assert cli_main(["validate", path]) == 2
        assert "spec error" in capsys.readouterr().err
        assert cli_main(["run", path]) == 2
        assert not (tmp_path / "bad_out").exists()

    @pytest.mark.parametrize("kind, extra", [
        ("convergence", "reference = em_fine\nfine_factor = 2"),
        ("stability", ""),
    ])
    def test_overflowing_step_count_exits_two(self, tmp_path, capsys, kind,
                                              extra):
        # t_final / dt is inf: validation must reject what a run would
        # fail on, for every kind
        body = """
[huge]
kind = {kind}
model = toy_example_1
schemes = dlr_em
rank = 1
paths = 10
seed = 3
t_final = 1e300
dt = 1e-10
output_dir = {out}
{extra}
""".format(kind=kind, out=tmp_path / "huge_out", extra=extra)
        path = write_ini(tmp_path, body)
        assert cli_main(["validate", path]) == 2
        assert "overflows" in capsys.readouterr().err
        assert cli_main(["run", path]) == 2
        assert not (tmp_path / "huge_out").exists()

    def test_empty_output_dir_exits_two(self, tmp_path, capsys):
        # validation rejects it, so a run cannot fail on it with exit 3
        body = GBM_INI.format(out="")
        assert "output_dir = \n" in body
        path = write_ini(tmp_path, body)
        assert cli_main(["validate", path]) == 2
        assert "output_dir must not be empty" in capsys.readouterr().err
        assert cli_main(["run", path]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_runtime_failure_exits_three(self, tmp_path, capsys):
        body = """
[collapse]
kind = single_run
model = toy_example_3
schemes = dlr_em
rank = 2
paths = 300
seed = 4
t_final = 10.0
dt = 0.1
output_dir = {out}
""".format(out=tmp_path / "fail_out")
        path = write_ini(tmp_path, body)
        assert cli_main(["run", path]) == 3
        assert "run failed" in capsys.readouterr().err

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only library, linear-algebra and I/O errors count as a failed
        # run; anything else is a bug and keeps its traceback
        def broken_runner(spec):
            raise TypeError("broken runner")

        monkeypatch.setattr(lowrank_sde.cli, "run_experiment", broken_runner)
        path = write_ini(tmp_path, GBM_INI.format(out=tmp_path / "cli_out"))
        with pytest.raises(TypeError, match="broken runner"):
            cli_main(["run", path])

    def test_list_models_prints_registry(self, capsys):
        assert cli_main(["list-models"]) == 0
        out = capsys.readouterr().out
        for name in ("gbm_oracle", "toy_example_1", "toy_example_2",
                      "toy_example_3", "stability_model", "sadr_model",
                      "laplacian_model"):
            assert name in out
        # the whole listing: names, d, m and descriptions, byte for byte
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ab3cdba051d81789244e67f42704de53770f2b74cd730f3813a92b394cc3bff3")


FUZZ_BASE = {"kind": "stability", "model": "toy_example_1",
             "schemes": "dlr_em", "rank": "1", "paths": "10", "seed": "3",
             "t_final": "1", "dt": "0.1", "output_dir": "out"}
FUZZ_KIND_KEYS = {"convergence": {"reference": "em_fine",
                                  "fine_factor": "2"},
                  "single_run": {"snapshot_times": "0.5"}}
FUZZ_NUMBER_KEYS = ("t_final", "dt", "snapshot_times", "rank", "paths",
                    "seed", "fine_factor", "model.sigma_b", "model.mu",
                    "model.d")
FUZZ_WORD_KEYS = ("kind", "model", "schemes", "reference", "rank_policy",
                  "debug_identities", "linear_fast_path", "output_dir",
                  "model.noise_profile", "verbosity")
# no large integers: a model.d of that size would allocate its matrices;
# 1e308 / dt overflows for every dt below 1
FUZZ_NUMBERS = ("0", "1", "2", "3", "7", "-1", "-0.5", "0.1", "0.05, 0.1",
                "0.1, 0.05", "2.5", "1e-10", "1e-300", "1e300", "1e308",
                "-1e300", "1e400", "inf", "-inf", "nan", "0.1, nan")
FUZZ_WORDS = ("", "abc", "yes", "em", "dlr_em, dlr_ps_sde", "exact",
              "em_fine", "svd", "gbm_oracle", "sadr_model", "stability_model",
              "single_run", "convergence", "singular_values")


@st.composite
def fuzzed_sections(draw):
    """A valid section of a random kind with one to three keys replaced
    by edge-case values, mostly of the key's own type, or removed."""
    kind = draw(st.sampled_from(("convergence", "singular_values",
                                 "stability", "single_run")))
    section = dict(FUZZ_BASE, kind=kind, **FUZZ_KIND_KEYS.get(kind, {}))
    keys = st.sampled_from(FUZZ_NUMBER_KEYS + FUZZ_WORD_KEYS)
    for key in draw(st.lists(keys, min_size=1, max_size=3)):
        own, other = ((FUZZ_NUMBERS, FUZZ_WORDS) if key in FUZZ_NUMBER_KEYS
                      else (FUZZ_WORDS, FUZZ_NUMBERS))
        value = draw(st.one_of(st.sampled_from(own), st.sampled_from(own),
                               st.sampled_from(own), st.sampled_from(other),
                               st.floats().map(repr), st.none()))
        if value is None:
            section.pop(key, None)
        else:
            section[key] = value
    return section


class TestLoadSpecsProperty:
    @settings(derandomize=True, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzzed_sections())
    # a t_final / dt and a snapshot index that are not finite once
    # escaped as OverflowError and ValueError
    @example(dict(FUZZ_BASE, kind="convergence", t_final="1e300",
                  dt="1e-10", **FUZZ_KIND_KEYS["convergence"]))
    @example(dict(FUZZ_BASE, kind="single_run", snapshot_times="nan"))
    # mu ** 2 in the oracle's growth constant once raised OverflowError
    @example(dict(FUZZ_BASE, model="gbm_oracle", **{"model.mu": "1e200"}))
    def test_returns_specs_or_raises_spec_error(self, tmp_path, section):
        body = "[fuzz]\n" + "".join("%s = %s\n" % item
                                    for item in section.items())
        try:
            specs = load_specs(write_ini(tmp_path, body))
        except SpecError:
            return
        assert [type(spec) for spec in specs] == [ExperimentSpec]


# name: (overrides, d) of every model, at a small d
SMALL_MODELS = {
    "toy_example_1": ({}, 3), "toy_example_2": ({}, 3),
    "toy_example_3": ({}, 3), "stability_model": ({"d": "4"}, 4),
    "sadr_model": ({"d": "5"}, 5), "laplacian_model": ({"d": "4"}, 4),
    "gbm_oracle": ({}, 1),
}


def random_small_spec(seed):
    """Fields of a random small spec (kind, model, scheme subset, dt
    ladder, M <= 64, k <= d, step options) and one scheme of it with the
    dts it runs at alone: one dt, or in a sweep the finest and a subset
    of the others."""
    rng = np.random.default_rng(seed)
    kind = KINDS[rng.integers(len(KINDS))]
    name = sorted(SMALL_MODELS)[rng.integers(len(SMALL_MODELS))]
    overrides, d = SMALL_MODELS[name]
    pool = SCHEMES if kind in ("convergence", "single_run") else SCHEMES[1:]
    count = 1 if kind == "single_run" else rng.integers(1, len(pool) + 1)
    schemes = tuple(str(s) for s in rng.permutation(pool)[:count])
    if kind == "convergence":
        steps = rng.integers(1, 4) * 2 ** np.arange(rng.integers(1, 4))
    else:
        steps = np.sort(rng.choice(np.arange(1, 9), replace=False, size=(
            1 if kind == "single_run" else rng.integers(1, 4))))
    t_final = float(rng.choice((0.25, 0.5, 1.0)))
    paths = int(rng.integers(1, 65))
    linear = build_model(name, overrides)[0].is_linear_drift
    fields = dict(
        name="prop", kind=kind, model=name, model_overrides=dict(overrides),
        schemes=schemes, rank=int(rng.integers(1, min(d, paths) + 1)),
        paths=paths, seed=int(rng.integers(2 ** 32)), t_final=t_final,
        dt_values=tuple(t_final / int(n) for n in steps),
        rank_policy=RANK_POLICIES[rng.integers(2)],
        debug_identities=bool(rng.integers(2)),
        linear_fast_path=linear and bool(rng.integers(2)))
    dt_values = fields["dt_values"]
    if kind == "convergence":
        references = ("em_fine", "dlr_ps_sde_fine")
        if name == "gbm_oracle":
            references += ("exact",)
        fields["reference"] = references[rng.integers(len(references))]
        fields["fine_factor"] = int(rng.integers(
            1 if fields["reference"] == "exact" else 2, 4))
        dts = tuple(dt for dt in dt_values[:-1] if rng.integers(2)) \
            + dt_values[-1:]
    else:
        dts = (dt_values[rng.integers(len(dt_values))],)
    if kind == "single_run":
        fields["snapshot_times"] = (t_final,)
    return fields, schemes[rng.integers(len(schemes))], dts


def fixed_dt_csvs(kind, scheme, dt):
    """The CSV a fixed-dt cell writes alone, and the shared one it has
    rows in (None for a single run)."""
    return {
        "stability": ("norms_%s_dt%g.csv" % (scheme, dt),
                      "classification.csv"),
        "singular_values": ("singular_values_%s_dt%g.csv" % (scheme, dt),
                            "violations.csv"),
        "single_run": ("trace.csv", None),
    }[kind]


def cell_outputs(spec, scheme, dts):
    """Run ``spec`` and return what its outputs hold of one scheme at the
    given dts: in a sweep its rows of each error file and of status.csv,
    else the cell's own CSV and its rows of the shared one; "failed" if
    the run raised StepFailed."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(spec)
    except StepFailed:
        return "failed"
    if spec.kind == "convergence":
        return scheme_rows(spec, scheme, dts)
    (dt,) = dts
    own, shared = fixed_dt_csvs(spec.kind, scheme, dt)
    out = Path(spec.output_dir)
    outputs = {own: (out / own).read_text()}
    if shared:
        outputs[shared] = [
            line for line in (out / shared).read_text().splitlines()
            if line.startswith("%s,%g," % (scheme, dt))]
    return outputs


def stored_cell_rows(spec, scheme, dt):
    """The per-node columns of a fixed-dt cell's own CSV, by
    ``integrate`` over ``generate``: (t, mean-square norm) of the
    computed prefix for stability, (t, sigma_k) of the finite prefix
    for singular_values, and every trace row of a completed single run
    ("failed" else)."""
    traj = stored_grid_run(spec, scheme, dt)
    if spec.kind == "single_run":
        if traj.failed:
            return "failed"
        columns = (traj.grid.times(), traj.mean_square_norms,
                   traj.sigma_min_gramians)
        size = len(columns[0])
    else:
        tracked = (traj.mean_square_norms if spec.kind == "stability"
                   else traj.sigma_min_gramians)
        kept = (~np.isnan(tracked) if spec.kind == "stability"
                else np.isfinite(tracked))
        columns = (traj.grid.times(), tracked)
        size = int(np.max(np.nonzero(kept))) + 1 if kept.any() else 0
    return [",".join("%.17g" % column[i] for column in columns)
            for i in range(size)]


# rank 3 on toy_example_1 leaves dlr_em's first basis rank deficient,
# and on toy_example_2 the fine splitting reference's too
PINNED = dict(
    name="prop", model="toy_example_1", model_overrides={}, schemes=SCHEMES,
    rank=3, paths=16, seed=1, t_final=0.5, dt_values=(0.25, 0.125))
PINNED_SWEEP = dict(PINNED, kind="convergence", reference="em_fine",
                    fine_factor=2)


class TestCellProperty:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1).map(random_small_spec))
    # stacks of Gramians whose scales differ by orders of magnitude, so
    # a truncation threshold shared across the stack would change bytes
    @example(random_small_spec(48))
    @example(random_small_spec(464))
    @example((PINNED_SWEEP, "dlr_em", (0.25, 0.125)))
    @example((PINNED_SWEEP, "dlr_ps_em", (0.125,)))
    @example((dict(PINNED_SWEEP, model="toy_example_2"), "em", (0.125,)))
    @example((dict(PINNED, kind="single_run", schemes=("dlr_em",),
                   dt_values=(0.125,), snapshot_times=(0.5,)),
              "dlr_em", (0.125,)))
    def test_cells_invariant_to_cell_set_and_equal_stored_runs(self, drawn):
        # a cell writes the same bytes alone as among the spec's other
        # cells, and the same values as the stored-grid oracle
        fields, scheme, dts = drawn
        with tempfile.TemporaryDirectory() as root:
            spec = ExperimentSpec(output_dir=os.path.join(root, "all"),
                                  **fields)
            alone = ExperimentSpec(**dict(
                fields, schemes=(scheme,), dt_values=dts,
                output_dir=os.path.join(root, "alone")))
            outputs = cell_outputs(spec, scheme, dts)
            assert cell_outputs(alone, scheme, dts) == outputs
            if spec.kind == "convergence":
                try:
                    stored = stored_sweep_rows(alone, scheme)
                except StepFailed:
                    stored = "failed"
                assert outputs == stored
            elif outputs == "failed":
                assert stored_cell_rows(spec, scheme, dts[0]) == "failed"
            else:
                own, _ = fixed_dt_csvs(spec.kind, scheme, dts[0])
                width = 3 if spec.kind == "single_run" else 2
                rows = [",".join(line.split(",")[:width])
                        for line in outputs[own].splitlines()[1:]]
                assert rows == stored_cell_rows(spec, scheme, dts[0])
