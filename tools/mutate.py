"""Mutation gauge for the numerical contract.

Draws ``--count`` mutants at random (``random.Random(SEED)``) from
every mutation site of the modules in ``MODULES`` and runs the test
suite once per mutant, one at a time, each in a fresh temporary copy
of the checkout; the checkout itself is never written.  The unmutated
copy runs first and must pass.  A site is one of

* a binary ``+ - * /``, swapped as ``+ <-> -`` and ``* <-> /``;
* a comparison ``< <= > >= == !=``, swapped as ``< <-> <=``,
  ``> <-> >=`` and ``== <-> !=``;
* a float literal other than 0.0, multiplied by 1.5.

The mutant is written as a one-token edit of the source text, so every
other byte of the module, line numbers included, is unchanged.  Each
run is

    python -m pytest -x -q tests --deselect <test_05>

under ``TIMEOUT`` seconds.  A mutant is *killed* when that run fails,
*survived* when it passes and *timed out* when the timeout stops it.
Each is printed as ``module:line (function) col C  old -> new``.
A surviving mutant costs a whole suite run, so the gauge stays outside
the suite.

    python3 tools/mutate.py                 # 24 mutants
    python3 tools/mutate.py --count 100

Only the standard library is used.
"""

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "lowrank_sde")
MODULES = ("diagnostics.py", "ensemble.py", "harness.py", "integrators.py",
           "linalg.py", "noise.py")
KNOWN_FAILURE = \
    "tests/test_acceptance.py::test_05_multiplicative_noise_convergence_order"
SEED = 7
TIMEOUT = 600.0  # seconds per suite run

_SWAPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}


class Mutant:
    """One edit: replace ``old`` by ``new`` at (line, col) of module, in
    ``function``, the qualified name of the innermost def or class
    around it (``<module>`` at top level)."""

    def __init__(self, module, line, col, old, new, function):
        self.module, self.line, self.col = module, line, col
        self.old, self.new, self.function = old, new, function

    def __str__(self):
        # the function names the site when an edit shifts the lines
        return "%s:%d (%s) col %d  %s -> %s" % (
            self.module, self.line, self.function, self.col, self.old,
            self.new)

    def apply(self, text):
        lines = text.splitlines(keepends=True)
        row = lines[self.line - 1]
        if row[self.col:self.col + len(self.old)] != self.old:
            raise ValueError("%s does not match the source" % self)
        lines[self.line - 1] = (row[:self.col] + self.new
                                + row[self.col + len(self.old):])
        return "".join(lines)


def _operator_token(ops, start, end, symbol):
    """The position of the first ``symbol`` OP token in [start, end)."""
    for position, string in ops:
        if start <= position < end and string == symbol:
            return position
    raise ValueError("no %r between %r and %r" % (symbol, start, end))


def _scopes(tree, prefix=""):
    """(first line, last line, qualified name) of every def and class in
    ``tree``, each before the ones nested in it."""
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = prefix + child.name
            found.append((child.lineno, child.end_lineno, name))
            found.extend(_scopes(child, name + "."))
        else:
            found.extend(_scopes(child, prefix))
    return found


def sites(module, text):
    """Every mutant of one module's source, in source order."""
    ops = [(tok.start, tok.string)
           for tok in tokenize.generate_tokens(io.StringIO(text).readline)
           if tok.type == tokenize.OP]
    rows = text.splitlines()

    def char(line, byte_col):  # ast counts UTF-8 bytes, tokenize chars
        return len(rows[line - 1].encode()[:byte_col].decode())

    tree = ast.parse(text)
    scopes = _scopes(tree)

    def function(line):  # the innermost scope is the last one around line
        names = [name for first, last, name in scopes
                 if first <= line <= last]
        return names[-1] if names else "<module>"

    found = []
    for node in ast.walk(tree):
        pairs = []
        if isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
            pairs = [(node.left, node.op, node.right)]
        elif isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            pairs = [(left, op, right) for left, op, right
                     in zip(operands, node.ops, operands[1:])
                     if type(op) in _SWAPS]
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and node.value * 1.5 != node.value):  # not 0.0 or inf
            old = ast.get_source_segment(text, node)
            if node.lineno == node.end_lineno:
                found.append(Mutant(module, node.lineno,
                                    char(node.lineno, node.col_offset),
                                    old, repr(node.value * 1.5),
                                    function(node.lineno)))
        for left, op, right in pairs:
            old, new = _SWAPS[type(op)]
            line, col = _operator_token(
                ops, (left.end_lineno,
                      char(left.end_lineno, left.end_col_offset)),
                (right.lineno, char(right.lineno, right.col_offset)), old)
            found.append(Mutant(module, line, col, old, new,
                                function(line)))
    return sorted(found, key=lambda m: (m.line, m.col))


def draw(root, count):
    """``count`` mutants drawn without replacement from all sites."""
    every = []
    for module in MODULES:
        with open(os.path.join(root, PACKAGE, module)) as fh:
            every.extend(sites(module, fh.read()))
    return random.Random(SEED).sample(every, min(count, len(every)))


def run(root, mutant):
    """Run the suite on a temporary copy of the checkout carrying
    ``mutant`` (None: no edit); returns ("killed" | "survived" |
    "timed out", seconds)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        # the whole tree: some tests read files outside src/ and tests/
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".perfbench"))
        if mutant is not None:
            path = os.path.join(tree, PACKAGE, mutant.module)
            with open(path) as fh:
                text = mutant.apply(fh.read())
            with open(path, "w") as fh:
                fh.write(text)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", "tests",
                 "--deselect", KNOWN_FAILURE],
                cwd=tree, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT,
                env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start
        seconds = time.perf_counter() - start
    return ("survived" if proc.returncode == 0 else "killed"), seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=24)
    args = parser.parse_args(argv)
    mutants = draw(ROOT, args.count)
    # a kill means something only if the unmutated copy passes
    verdict, seconds = run(ROOT, None)
    if verdict != "survived":
        sys.exit("the unmutated copy did not pass (%s after %.1f s)"
                 % (verdict, seconds))
    tally = dict.fromkeys(("killed", "survived", "timed out"), 0)
    for i, mutant in enumerate(mutants, 1):
        verdict, seconds = run(ROOT, mutant)
        tally[verdict] += 1
        print("%2d  %-9s %6.1f s  %s" % (i, verdict, seconds, mutant),
              flush=True)
    print("seed %d: %d mutants, %s" % (
        SEED, len(mutants),
        ", ".join("%d %s" % (n, v) for v, n in tally.items())))


if __name__ == "__main__":
    main()
