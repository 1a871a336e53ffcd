"""Every function defined in src/qahd is reached by a command-line verb.

A fixed list of CLI invocations runs under `sys.setprofile`; each function
that `ast` finds in the package must be called by one of them, or stand in
`ALLOWED` with the reason it is kept without a verb reaching it.  Library
code that no verb reaches is either test scaffolding in disguise or dead,
and this test names it when it returns.
"""

import ast
import shlex
import sys
from pathlib import Path

from qahd import cli, pairing

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(cli.__file__).parent  # as imported, the prefix of co_filename

# (file, qualified name) -> why it stays although no verb calls it
ALLOWED = {
    ("pairing.py", "TestFunction.values"): "the benchmark's tracer binds it as the pairing.bump layer",
    ("logform.py", "AngularPart.add"): "form algebra of the tests",
    ("logform.py", "AngularPart.scale"): "form algebra of the tests",
    ("logform.py", "LogForm.add"): "form algebra of the tests",
    ("logform.py", "LogForm.scale"): "form algebra of the tests",
    ("logform.py", "LogForm.sub"): "form algebra of the tests",
    ("logform.py", "LogForm.raw_norm"): "form algebra of the tests",
    ("logform.py", "forms_equal"): "the tests' equality of forms",
    ("logform.py", "AngularPart.__repr__"): "debugging output",
    ("logform.py", "LogForm.__repr__"): "debugging output",
    ("logform.py", "MultiForm.__repr__"): "debugging output",
    ("cli.py", "main"): "the console-script entry point; the tests call run",
}

# (command line, exit code): the README examples are added below
INVOCATIONS = [
    # every apply op, and the zero form
    ('apply -n 1 "log(r)^2" --op euler', 0),
    ('apply "log(r)" --op delta=2,0.5', 0),
    ('apply "r*log(r)^2" --op power=euler_minus_lambda,2', 0),
    ('apply "r*log(r)^2" --op power=delta_a,2 --a 3', 0),
    ('apply "0" --op euler', 0),
    # the parser and renderer on divisions, powers of sums and complex literals
    ('parse -n 2 "(1+2i)*x1^(-1-2i)/x2 - -r"', 0),
    ('classify -n 2 "(x1+r)^2 - 3*(1+2i)*x2*log(r)/r^2"', 0),
    ('classify -n 2 "x1^2*r^(-3)*log(r)^2 + r^(-1)" --format text', 0),
    ('verify -n 1 "log(r)" --degree 0 --order 1 --format text', 0),
    # pairing in every dimension, around the origin and away from it
    ('pair -n 2 "r" --center 0.5 0 --width 1', 0),
    ('pair -n 3 "x1*r^(-1)" --center 3 0 0 --width 1 --kr 16 --kw 16', 0),
    ('pair-verify -n 1 "r*log(r)" --center 5 --kr 16 --kw 16', 0),
    ("pair -n 1 0 --center 5", 0),
    # identify on one ray
    ('identify -n 1 "r^2*log(r)" --x0 1 --M 12 --kmax 2', 0),
    # exit 1: a false verdict
    ('verify -n 1 "log(r)" --degree 0 --order 0', 1),
    # exit 2: input and usage errors
    ('classify "(r"', 2),
    ('classify -n 2 "x3"', 2),
    ('classify "x1^1.5"', 2),
    ('classify "(x1+r)^100000"', 2),
    ('verify "0" --degree 0 --order 0', 2),
    ("verify r --degree abc --order 0", 2),
    ("apply r --op dilate=nan", 2),
    ('pair -n 1 "r^(-2)" --center 0.5', 2),
    ("pair -n 4 r --center 1 0 0 0", 2),
    ('pair -n 3 "r" --center 3 0 0 --kr 1024 --kw 1024', 2),
    ('identify -n 1 "r^2" --x0 1 --M 4 --kmax 4', 2),
    ("identify -n 1 r --M 5000", 2),
    ("nonsense", 2),
    # exit 3: numerical failures
    ('classify "10^400"', 3),
    ('identify -n 1 "r^2 + r^3" --x0 1 --kmax 4', 3),
    ('identify -n 1 "log(r)^0.5" --x0 2 --kmax 1', 3),
    ('matrix --a 1e300 --lambda 1 --size 4', 3),
]


def defined_functions():
    """(file, qualified name) -> first line of every function and method in
    the package; for a decorated one, the first decorator's line, as in its
    code object's co_firstlineno."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path.name, prefix + child.name)] = first
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def test_every_function_is_reached_by_a_verb(capsys):
    readme = (ROOT / "README.md").read_text()
    runs = [(shlex.split(line, comments=True)[1:], 0)
            for line in readme.splitlines() if line.startswith("qahd ")]
    runs += [(shlex.split(line), code) for line, code in INVOCATIONS]
    called = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(PACKAGE)):
            called.add((Path(code.co_filename).name, code.co_firstlineno, code.co_name))

    # the memoized functions run again, under the profiler
    cli.build_parser.cache_clear()
    pairing._gauss.cache_clear()
    codes = []
    sys.setprofile(record)
    try:
        for argv, _ in runs:
            codes.append(cli.run(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in runs]
    functions = defined_functions()
    assert set(ALLOWED) <= set(functions), "an allowed function no longer exists"
    reached = {(path, name) for (path, name), line in functions.items()
               if (path, line, name.rpartition(".")[2]) in called}
    assert sorted(set(functions) - reached - set(ALLOWED)) == []
