"""Benchmark of the lowrank_sde experiment harness, end to end and by layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload is one INI section run through the public entry point
``lowrank_sde.cli.main(["run", <ini>])`` in a fresh process, one run at
a time (a closed loop with one caller).  The seed goes into the
generated INI and nowhere else.

--trace 0 runs at least two whole repetitions of the workload, and more
while they fit in --seconds, and reports the end-to-end metrics
``wall_s``, ``path_steps_per_s``, ``peak_rss_mb`` and ``setup_s``.
--trace 1 runs the workload once untraced and once under the outside-in
tracer and reports the per-layer metrics.  Every run is checked: a
non-zero exit, a missing or extra output CSV, or a CSV whose sha256
differs from the pinned digest (default seed) or from the other runs at
the same seed counts as failed.

Human-readable lines come first; the last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.  A
fuller record of each run, with the environment, goes to
``.perfbench/results/`` in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 20240817
DEFAULT_SECONDS = 32
SETUP_PROBES = 8
# every run must end within 180 s; leave room for the last child to stop
DEADLINE_S = 165.0

END_TO_END = (
    ("wall_s", "s"),
    ("path_steps_per_s", "path-steps/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("noise.generate_s", "s"),
    ("noise.generate_calls", "count"),
    ("noise.blocks", "count"),
    ("noise.redundant_block_frac", "fraction"),
    ("noise.bytes_computed", "bytes"),
    ("noise.coarsen_block_adds", "count"),
    ("models.drift_s", "s"),
    ("models.drift_calls", "count"),
    ("models.diffusion_s", "s"),
    ("models.diffusion_calls", "count"),
    ("integrators.step_us.dlr_em", "us"),
    ("integrators.step_us.dlr_ps_em", "us"),
    ("integrators.step_us.dlr_ps_sde", "us"),
    ("integrators.steps", "count"),
    ("integrators.step_self_s", "s"),
    ("integrators.loop_self_s", "s"),
    ("ensemble.validate_s", "s"),
    ("ensemble.validations_per_step", "1/step"),
    ("ensemble.gramian_s", "s"),
    ("ensemble.gramians_per_step", "1/step"),
    ("ensemble.reconstruct_s", "s"),
    ("ensemble.mean_square_norm_s", "s"),
    ("ensemble.expectation_outer_s", "s"),
    ("ensemble.init_rank_k_s", "s"),
    ("linalg.solve_s", "s"),
    ("linalg.solve_calls", "count"),
    ("linalg.qr_s", "s"),
    ("linalg.qr_calls", "count"),
    ("diagnostics.error_metrics_calls", "count"),
    ("harness.cells", "count"),
    ("harness.cell_s.median", "s"),
    ("harness.cell_s.max", "s"),
    ("harness.output_s", "s"),
    ("harness.output_bytes", "bytes"),
    ("harness.self_s", "s"),
    ("cli.load_specs_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage_frac", "fraction"),
)

# Printed and recorded, but left out of the result line: on the
# stability workloads these layers never run, so the time reads exactly
# 0 on every run there.
RECORD_ONLY = (
    ("noise.coarsen_s", "s"),
    ("diagnostics.error_metrics_s", "s"),
    ("integrators.step_us.em", "us"),
)

_SCHEMES = "dlr_em, dlr_ps_em, dlr_ps_sde"
_TRIPTYCH = {
    "kind": "stability", "model": "stability_model", "schemes": _SCHEMES,
    "rank": "4", "paths": "2000", "t_final": "20",
    "dt": "0.0911, 0.0909, 0.0907",
}


@dataclass(frozen=True)
class Workload:
    """One INI section plus the cell-thread setting of its process.

    threads is the LOWRANK_SDE_THREADS value the child gets, or None to
    run it with that variable unset.
    """

    name: str
    why: str
    section: str
    keys: dict
    threads: str = None

    def ini_text(self, seed, output_dir):
        lines = ["[%s]" % self.section]
        lines += ["%s = %s" % item for item in self.keys.items()]
        lines += ["seed = %d" % seed, "output_dir = %s" % output_dir]
        return "\n".join(lines) + "\n"

    def path_steps(self):
        """Sum over every integrate call of n_steps x M."""
        t_final = float(self.keys["t_final"])
        n_values = [int(round(t_final / float(dt)))
                    for dt in self.keys["dt"].split(",")]
        steps = len(self.keys["schemes"].split(",")) * sum(n_values)
        if self.keys["kind"] == "convergence":
            # the em and dlr_ps_sde references on the shared fine grid
            steps += 2 * int(self.keys["fine_factor"]) * n_values[-1]
        return steps * int(self.keys["paths"])


WORKLOADS = {w.name: w for w in (
    Workload(
        "toy_sweep",
        "small d: per-step overhead, state validation, small linalg, and "
        "the 240 MB stored noise grid with coarsen",
        "toy_sweep",
        {"kind": "convergence", "model": "toy_example_2", "schemes": _SCHEMES,
         "rank": "2", "paths": "2000", "t_final": "5",
         "dt": "0.1, 0.05, 0.02, 0.01", "reference": "em_fine",
         "fine_factor": "10"}),
    Workload(
        "sadr_sweep",
        "model evaluation dominates (sin on 25 x 1000) with k=18 basis "
        "solves; a step-overhead fix should show little here",
        "sadr_sweep",
        {"kind": "convergence", "model": "sadr_model", "schemes": _SCHEMES,
         "rank": "18", "paths": "1000", "t_final": "10",
         "dt": "0.04, 0.02, 0.01", "reference": "em_fine",
         "fine_factor": "5", "rank_policy": "svd"}),
    Workload(
        "triptych",
        "nine independent stability cells, each generating its own noise; "
        "no coarsen or error metrics; the single-threaded baseline",
        "triptych", _TRIPTYCH),
    Workload(
        "triptych_2t",
        "the stability triptych (T=20) with LOWRANK_SDE_THREADS=2: the only "
        "workload that runs cells on the harness thread pool",
        "triptych", _TRIPTYCH, threads="2"),
)}


# -- environment --------------------------------------------------------------

def thread_variables(environ):
    return {key: value for key, value in sorted(environ.items())
            if key.endswith("_NUM_THREADS") or key == "LOWRANK_SDE_THREADS"}


def child_environment(workload, src_dir):
    env = dict(os.environ)
    env.pop("LOWRANK_SDE_THREADS", None)
    if workload.threads is not None:
        env["LOWRANK_SDE_THREADS"] = workload.threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def src_lines(src_dir):
    package = os.path.join(src_dir, "lowrank_sde")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def environment(workload, src_dir):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": os.cpu_count(),
        "threads_found": thread_variables(os.environ),
        "threads_child": thread_variables(child_environment(workload, "")),
        "src_lines": src_lines(src_dir),
    }


# -- one run of the CLI -------------------------------------------------------

def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_digests(out_dir):
    """sha256 of every CSV the run wrote, and the bytes of all its files.

    manifest.json holds the wall time, so it is counted but not hashed.
    """
    digests, size = {}, 0
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        path = os.path.join(out_dir, name)
        size += os.path.getsize(path)
        if name.endswith(".csv"):
            digests[name] = sha256(path)
    return digests, size


@dataclass
class CliRun:
    rc: int
    wall_s: float = math.nan
    peak_rss_mb: float = math.nan
    digests: dict = field(default_factory=dict)
    output_bytes: int = 0
    traced: dict = None
    layers: dict = None
    problems: list = field(default_factory=list)


def run_cli(workload, seed, work_dir, tag, src_dir, timeout, spans_path=None):
    """Run the workload once in a fresh process and collect its outputs."""
    out_dir = os.path.join(work_dir, "out-%s" % tag)
    ini = os.path.join(work_dir, "%s.ini" % tag)
    with open(ini, "w") as fh:
        fh.write(workload.ini_text(seed, out_dir))
    result_path = os.path.join(work_dir, "result-%s.json" % tag)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), src_dir, ini,
           result_path] + ([spans_path] if spans_path else [])
    try:
        proc = subprocess.run(
            cmd, cwd=work_dir, env=child_environment(workload, src_dir),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return CliRun(rc=-1, problems=["timed out after %.0f s" % timeout])
    if proc.returncode != 0 or not os.path.exists(result_path):
        return CliRun(rc=proc.returncode or -1,
                      problems=["child failed: %s" % proc.stderr[-500:]])
    with open(result_path) as fh:
        result = json.load(fh)
    run = CliRun(rc=result["rc"], wall_s=result["wall_s"],
                 peak_rss_mb=result["peak_rss_mb"],
                 traced=result.get("metrics"), layers=result.get("layers"))
    if run.rc != 0:
        run.problems.append("lowrank-sde exited %d: %s"
                            % (run.rc, proc.stderr[-500:]))
    run.digests, run.output_bytes = output_digests(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return run


def setup_probe(ini, src_dir, workload, timeout):
    """Seconds from process start to validated spec, or None on failure."""
    code = ("import sys, lowrank_sde.cli as cli; "
            "sys.exit(0 if cli.load_specs(sys.argv[1]) else 1)")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, ini],
                            env=child_environment(workload, src_dir),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms, which would
    # quantize the measurement; a timer kills a hung probe instead
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    return elapsed if rc == 0 else None


# -- checking outputs ---------------------------------------------------------

def load_golden():
    with open(os.path.join(HERE, "golden_digests.json")) as fh:
        return json.load(fh)


def spec_key(workload, seed):
    """Identity of a run's outputs: the INI without its output_dir.

    triptych and triptych_2t share it, so their outputs must agree.
    """
    text = workload.ini_text(seed, "-")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_runs(runs, workload, seed, root):
    """Flag runs whose CSVs differ from the pinned or agreed digests.

    At the default seed every run must match the pinned digests.  At
    any other seed every run must write the pinned file names and match
    the first good run and any digests that an earlier invocation in
    this checkout recorded for the same spec.  Returns what the digests
    were checked against.
    """
    golden = load_golden()
    pinned = golden["workloads"].get(workload.name)
    names = sorted(pinned) if pinned else None
    for run in runs:
        if run.rc == 0 and not run.problems and names \
                and sorted(run.digests) != names:
            run.problems.append("output files %s, expected %s"
                                % (sorted(run.digests), names))
    good = [r for r in runs if r.rc == 0 and not r.problems]
    if seed == golden["seed"] and pinned:
        expected, source = pinned, "pinned digests"
    else:
        cache_dir = os.path.join(root, ".perfbench", "digests")
        os.makedirs(cache_dir, exist_ok=True)
        cache = os.path.join(cache_dir, spec_key(workload, seed) + ".json")
        if os.path.exists(cache):
            with open(cache) as fh:
                expected = json.load(fh)
            source = "digests of an earlier invocation at this seed"
        elif good:
            expected = good[0].digests
            source = "the first run of this invocation"
            with open(cache, "w") as fh:
                json.dump(expected, fh, indent=1, sort_keys=True)
        else:
            return "nothing (no run succeeded)"
    for run in good:
        differ = sorted(set(run.digests) ^ set(expected)) or [
            n for n in expected if run.digests[n] != expected[n]]
        if differ:
            run.problems.append("sha256 differs from %s: %s"
                                % (source, ", ".join(differ)))
    return source


# -- measuring ----------------------------------------------------------------

def describe(values):
    """Median, sample count and the highest percentile with >= 10 beyond."""
    n = len(values)
    text = "median of n=%d" % n
    ordered = sorted(values)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100.0 >= 10:
            rank = min(n - 1, int(pct / 100.0 * n))
            return text + ", p%d %.6g" % (pct, ordered[rank])
    return text + ", no percentile above the median has 10 samples beyond it"


def measure(workload, seed, seconds, trace, root, log):
    """Run one workload, print its report and return its result line."""
    src_dir = os.path.join(root, "src")
    started = time.monotonic()
    work_dir = os.path.join(root, ".perfbench", "work-%s-%d-%d"
                            % (workload.name, seed, os.getpid()))
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload.name, seed, trace)
    # one spans file per workload, so repeated traced runs do not pile up
    spans_path = os.path.join(results_dir, workload.name + "-spans.csv")
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(workload, src_dir)}
    values, shown = {}, {}

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    try:
        if trace:
            plain = run_cli(workload, seed, work_dir, "plain", src_dir,
                            remaining())
            traced = run_cli(workload, seed, work_dir, "traced", src_dir,
                             remaining(), spans_path)
            runs = [plain, traced]
            # both runs are checked against the same digests, so the
            # traced CSVs must equal the untraced ones
            source = check_runs(runs, workload, seed, root)
            if traced.traced is not None:
                values = dict(traced.traced)
                values["harness.output_bytes"] = traced.output_bytes
                values["trace.overhead_frac"] = (
                    traced.wall_s / plain.wall_s - 1)
                record["layer_self_s"] = traced.layers
                record["spans"] = os.path.relpath(spans_path, root)
            wanted = PER_LAYER + RECORD_ONLY
        else:
            ini = os.path.join(work_dir, "setup.ini")
            with open(ini, "w") as fh:
                fh.write(workload.ini_text(seed, os.path.join(work_dir, "x")))
            # first import compiles bytecode; users pay that only once
            setup_probe(ini, src_dir, workload, 60)
            # half the probes before the repetitions and half after, so
            # they sample the machine at both ends of the run
            setup = [setup_probe(ini, src_dir, workload, 60)
                     for _ in range(SETUP_PROBES // 2)]
            runs = []
            measure_start = time.monotonic()
            while True:
                elapsed = time.monotonic() - measure_start
                if runs:
                    mean = elapsed / len(runs)
                    if mean > remaining() or (
                            len(runs) >= 2 and elapsed + mean > seconds):
                        break
                runs.append(run_cli(workload, seed, work_dir,
                                    "run%d" % len(runs), src_dir,
                                    remaining()))
            setup += [setup_probe(ini, src_dir, workload, 60)
                      for _ in range(SETUP_PROBES - len(setup))]
            source = check_runs(runs, workload, seed, root)
            walls = [r.wall_s for r in runs if r.rc == 0 and not r.problems]
            walls = walls or [r.wall_s for r in runs]
            rss = [r.peak_rss_mb for r in runs]
            setup_ok = [s for s in setup if s is not None]
            if len(setup_ok) < len(setup):
                runs[0].problems.append("%d setup probes failed"
                                        % (len(setup) - len(setup_ok)))
            wall = statistics.median(walls)
            values = {
                "wall_s": wall,
                "path_steps_per_s": workload.path_steps() / wall,
                "peak_rss_mb": statistics.median(rss),
                "setup_s": statistics.median(setup_ok or [math.nan]),
            }
            shown = {"wall_s": describe(walls),
                     "path_steps_per_s": "path-steps %d / median wall_s"
                                         % workload.path_steps(),
                     "peak_rss_mb": describe(rss),
                     "setup_s": describe(setup_ok)}
            wanted = END_TO_END
            record["runs_wall_s"] = walls
            record["setup_probes_s"] = setup
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = {k: v for k, v in values.items() if math.isfinite(v)}
    failed = sum(1 for r in runs if r.rc != 0 or r.problems)
    record.update(
        digests_checked_against=source,
        runs=[{"rc": r.rc, "wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb,
               "problems": r.problems, "digests": r.digests} for r in runs],
        metrics=values)
    with open(os.path.join(results_dir, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    env = record["environment"]
    log("workload %s  seed %d  trace %d  runs %d  (%s)"
        % (workload.name, seed, trace, len(runs), workload.why))
    log("  env: python %s, numpy %s, scipy %s, blas %s, nproc %s, "
        "src_lines %d" % (env["python"], env["numpy"], env["scipy"],
                          env["blas"], env["nproc"], env["src_lines"]))
    log("  thread variables found %s, given to the run %s"
        % (env["threads_found"], env["threads_child"]))
    for name, unit in wanted:
        if name in values:
            log("  %-34s %14.6g %-13s %s"
                % (name, values[name], unit, shown.get(name, "")))
    log("  %-34s %14.6g %-13s %d of %d runs failed"
        % ("run_failure_rate", failed / len(runs), "fraction", failed,
           len(runs)))
    log("  CSV digests checked against %s" % source)
    for i, run in enumerate(runs):
        for problem in run.problems:
            log("  run %d: %s" % (i, problem))

    units = dict(wanted)
    reported = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0 and all(n in values for n, _ in reported),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name, _ in reported if name in values},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lowrank_sde",
                                       "cli.py")):
        print("no lowrank_sde sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    def log(text):
        print(text, flush=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        lines[name] = measure(WORKLOADS[name], args.seed, args.seconds,
                              args.trace, ROOT, log)
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {name: l["metrics"] for name, l in lines.items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
