"""Run ``lowrank-sde run <ini>`` once in this fresh process and report it.

Usage:
    python3 child.py <src_dir> <ini> <result.json> [<spans.csv>]

Imports the package from <src_dir> (and refuses any other copy), times
``lowrank_sde.cli.main(["run", <ini>])`` and writes a JSON object with
the exit code, the wall time in seconds and the process's peak RSS in
MB to <result.json>.  With <spans.csv> the call runs under the tracer,
the result also holds the per-layer metrics and the spans are written
to <spans.csv> after the run.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    src_dir, ini, result_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    src_dir = os.path.realpath(src_dir)
    sys.path.insert(0, src_dir)
    import lowrank_sde.cli

    package_dir = os.path.dirname(os.path.realpath(lowrank_sde.cli.__file__))
    if os.path.dirname(package_dir) != src_dir:
        print("imported lowrank_sde from %s, expected %s"
              % (package_dir, src_dir), file=sys.stderr)
        return 2

    result = {}
    argv_cli = ["run", ini]
    if spans_path is None:
        start = time.perf_counter()
        rc = lowrank_sde.cli.main(argv_cli)
        wall_s = time.perf_counter() - start
    else:
        from tracer import Tracer, layer_metrics

        with Tracer() as tracer:
            start = time.perf_counter()
            rc = tracer.call("cli.main", "cli", lowrank_sde.cli.main,
                             argv_cli)
            wall_s = time.perf_counter() - start
        result["metrics"], result["layers"] = layer_metrics(tracer, wall_s)
        tracer.write_spans(spans_path)
    result.update(
        rc=rc, wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
