import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import qgraph as qg
from qgraph import control, errors, feller, graphs, noise, sim, spectral, treepaths

MODULES = (graphs, spectral, noise, feller, control, treepaths, sim, errors)


def test_package_exports_are_the_modules_lists():
    """qgraph.__all__ is the modules' __all__ lists joined, each name bound to
    its module's object, and every public class or function a module defines
    is in its module's list."""
    assert qg.__all__ == ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert len(set(qg.__all__)) == len(qg.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qg, name) is getattr(module, name)
        defined = {
            name for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module.__name__
        }
        assert defined <= set(module.__all__), module.__name__


def test_no_module_reads_the_environment():
    """qgraph reads no environment variables: no module names os.environ or getenv."""
    from pathlib import Path

    src = Path(qg.__file__).parent
    readers = [p.name for p in sorted(src.glob("*.py"))
               if any(word in p.read_text("utf-8") for word in ("environ", "getenv"))]
    assert readers == []


def test_one_exception_family_per_exit_code():
    """errors holds the package's only exception classes: a base, one family
    per failure exit code (validation 2, numerical 3), and InvalidGraphError,
    the one class that carries data.  The validation family is also a
    ValueError, so callers that catch ValueError keep catching it."""
    assert errors.__all__ == ["QGraphError", "QGraphValidationError",
                              "QGraphNumericalError", "InvalidGraphError"]
    assert qg.QGraphError.__bases__ == (Exception,)
    assert qg.QGraphValidationError.__bases__ == (qg.QGraphError, ValueError)
    assert qg.QGraphNumericalError.__bases__ == (qg.QGraphError,)
    assert qg.InvalidGraphError.__bases__ == (qg.QGraphValidationError,)
    assert qg.InvalidGraphError(["a", "b"]).violations == ["a", "b"]
    for module in MODULES:
        if module is not errors:
            assert not [obj for obj in vars(module).values()
                        if inspect.isclass(obj) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__], module.__name__


_LAZY_IMPORTS = """
import json, sys
import qgraph, qgraph.cli

HEAVY = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "numpy.f2py")
loaded = {"import": [m for m in HEAVY if m in sys.modules]}
qgraph.save_graph(qgraph.star_graph([1.0, 1.0, 1.0]), "star.json")
qgraph.save_graph(qgraph.interval_graph(1.0), "interval.json")
sampled = qgraph.Coefficient.cell_samples([0.5, 1.0])
qgraph.save_graph(qgraph.interval_graph(1.0, p=sampled), "sampled.json")
for name, argv in [
        ("st-active", ["st-active", "--graph", "star.json"]),
        ("tree-rule", ["feller", "--graph", "star.json", "--noise", "diag:v1=1,v2=1"]),
        ("hautus", ["feller", "--graph", "star.json", "--noise", "diag:v1=1"]),
        ("spectrum", ["spectrum", "--graph", "star.json", "--mesh", "64", "--modes", "8"]),
        ("control", ["control", "--graph", "interval.json", "--noise", "diag:v1=1",
                     "--z0", "1=1", "--horizon", "1", "--mesh", "64", "--modes", "6"]),
        ("invariant", ["invariant", "--graph", "star.json", "--noise", "diag:v1=1",
                       "--mesh", "64", "--modes", "6"]),
        ("simulate", ["simulate", "--graph", "interval.json", "--noise", "diag:v1=1",
                      "--samples", "200", "--steps", "20", "--modes", "6"]),
        ("sampled", ["spectrum", "--graph", "sampled.json", "--mesh", "32", "--modes", "4"])]:
    assert qgraph.cli.main(argv) == 0, name
    loaded[name] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(loaded))
"""


def test_scipy_submodules_load_on_first_solve(tmp_path):
    """Importing qgraph.cli, st-active, a tree-rule feller, and the solving
    commands on edgewise-constant graphs (a Hautus feller, spectrum, control,
    invariant and simulate on the unit star or interval) load none of scipy's
    sparse and LAPACK modules (nor numpy.f2py, which scipy.sparse pulls in);
    the first solve with sampled coefficients, which runs ARPACK, loads them."""
    src = str(Path(qg.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS], cwd=tmp_path, env={
        **os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    for name in ("import", "st-active", "tree-rule", "hautus", "spectrum", "control", "invariant",
                 "simulate"):
        assert loaded[name] == [], name
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(loaded["sampled"])
