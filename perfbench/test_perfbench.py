"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

import lowrank_sde.cli  # noqa: E402
import lowrank_sde.ensemble  # noqa: E402
import lowrank_sde.harness  # noqa: E402
import lowrank_sde.integrators  # noqa: E402
import lowrank_sde.models  # noqa: E402
from lowrank_sde.harness import load_specs  # noqa: E402

# a convergence sweep small enough to run in about a second; it calls
# every traced layer, coarsen and the error metrics included
TINY = bench.Workload(
    "tiny", "test only", "tiny",
    {"kind": "convergence", "model": "toy_example_2",
     "schemes": "dlr_em, dlr_ps_em, dlr_ps_sde", "rank": "2", "paths": "200",
     "t_final": "1", "dt": "0.1, 0.05", "reference": "em_fine",
     "fine_factor": "2"})
TINY_2T = dataclasses.replace(TINY, threads="2")


@pytest.fixture
def checkout(tmp_path):
    """A scratch checkout root whose src is the repository's src."""
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return str(tmp_path)


def patched_names():
    modules = {"cli": lowrank_sde.cli, "harness": lowrank_sde.harness,
               "integrators": lowrank_sde.integrators}
    names = {(module, attr): getattr(modules[module], attr)
             for module, attr, _, _ in tracing.CALL_SITES}
    names.update({("_DLR_STEPS", scheme): fn for scheme, fn
                  in lowrank_sde.integrators._DLR_STEPS.items()})
    state_cls = lowrank_sde.ensemble.EnsembleState
    names["EnsembleState.__post_init__"] = state_cls.__dict__["__post_init__"]
    model_cls = lowrank_sde.models.SdeModel
    names["SdeModel.__init__"] = model_cls.__dict__["__init__"]
    names["harness._map_cells"] = lowrank_sde.harness._map_cells
    return names


def test_tracer_restores_every_patched_name():
    before = patched_names()
    with tracing.Tracer():
        during = patched_names()
    assert patched_names() == before
    assert all(during[key] is not before[key] for key in before)

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert patched_names() == before


def test_traced_digests_equal_untraced_and_self_time_within_wall(tmp_path):
    src = os.path.join(ROOT, "src")
    digests = []
    for workload in (TINY, TINY_2T):
        work = str(tmp_path / workload.section)
        os.makedirs(work, exist_ok=True)
        spans = os.path.join(work, "spans.csv")
        plain = bench.run_cli(workload, 7, work, "plain", src, 120)
        traced = bench.run_cli(workload, 7, work, "traced", src, 120, spans)
        for run in (plain, traced):
            assert run.rc == 0 and not run.problems, run.problems
            digests.append(run.digests)

        metrics = traced.traced
        assert metrics["integrators.steps"] * 200 == TINY.path_steps()
        assert metrics["harness.cells"] == 6
        assert metrics["noise.generate_calls"] == 1
        assert metrics["noise.coarsen_block_adds"] == 3 * (10 * 3 + 20 * 1)
        assert metrics["diagnostics.error_metrics_calls"] == 6 * 2 * 2
        with open(spans, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ids = {row["id"]: row for row in rows}
        for row in rows:
            if row["name"] == "harness.cell":
                assert ids[row["parent"]]["name"] == "harness.run_experiment"
                assert row["cell"]
        if workload.threads is None:
            # concurrent cells may add up to more than the wall time
            assert sum(traced.layers.values()) <= traced.wall_s
    assert len(digests[0]) == 8
    assert all(d == digests[0] for d in digests)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (1, "root", "cli", 0.0, 10.0, None, 1, None),
        # two cells on a pool overlap in [2, 4]
        (2, "harness.cell", "harness", 1.0, 4.0, 1, 2, "a"),
        (3, "harness.cell", "harness", 2.0, 6.0, 1, 3, "b"),
        (4, "noise.generate", "noise", 2.0, 3.0, 3, 3, "b"),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_metric_names_match_benchmark_json(checkout, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    end_to_end = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    assert end_to_end == list(bench.END_TO_END)
    assert per_layer == list(bench.PER_LAYER)
    for workload in declared["workloads"]:
        assert workload["why"] == bench.WORKLOADS[workload["name"]].why

    for trace, names in ((0, end_to_end), (1, per_layer)):
        line = bench.measure(TINY, 11, 0, trace, checkout, print)
        printed = capsys.readouterr().out
        assert line["correct"] and line["failed"] == 0, printed
        assert [(k, v["unit"]) for k, v in line["metrics"].items()] == names
        for name, unit in names:
            assert " %s " % name in printed and " %s " % unit in printed
        assert "run_failure_rate" in printed


def test_seed_reaches_the_generated_ini(tmp_path):
    for workload in bench.WORKLOADS.values():
        path = tmp_path / ("%s.ini" % workload.name)
        path.write_text(workload.ini_text(424242, str(tmp_path / "out")))
        (spec,) = load_specs(str(path))
        assert spec.seed == 424242
        assert spec.output_dir == str(tmp_path / "out")


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "triptych",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
