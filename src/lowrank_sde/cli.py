"""Command-line entry point.

Verbs:
    run <spec-file>       execute every experiment section in the file
    list-models           print the registered model names
    validate <spec-file>  parse and validate without running

Exit codes: 0 on success, 2 when validation fails, 3 when a run fails
at runtime (a library, linear-algebra or I/O error); others propagate.
"""

import argparse
import sys

import numpy as np

from .errors import LowRankSdeError, SpecError
from .harness import load_specs, run_experiment
from .models import MODEL_BUILDERS, build_model


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lowrank-sde",
        description="Run low-rank SDE ensemble experiments from INI specs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="execute every experiment in a spec file")
    run_parser.add_argument("spec_file", help="path to an INI spec file")

    sub.add_parser("list-models", help="print the registered models")

    validate_parser = sub.add_parser(
        "validate", help="check a spec file without running it")
    validate_parser.add_argument("spec_file", help="path to an INI spec file")
    return parser


def _list_models(out):
    for name in sorted(MODEL_BUILDERS):
        model, _ = build_model(name, {})
        out.write("%-18s d=%-3d m=%-3d %s\n"
                  % (name, model.d, model.m, model.description))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-models":
        return _list_models(sys.stdout)

    try:
        specs = load_specs(args.spec_file)
    except SpecError as exc:
        print("spec error: %s" % exc, file=sys.stderr)
        return 2

    if args.command == "validate":
        print("ok: %d experiment(s) in %s"
              % (len(specs), args.spec_file))
        return 0

    for spec in specs:
        try:
            run_experiment(spec)
        except SpecError as exc:
            print("spec error in [%s]: %s" % (spec.name, exc),
                  file=sys.stderr)
            return 2
        except (LowRankSdeError, np.linalg.LinAlgError, OSError) as exc:
            print("run failed in [%s]: %s" % (spec.name, exc),
                  file=sys.stderr)
            return 3
        print("[%s] %s -> %s" % (spec.name, spec.kind, spec.output_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
