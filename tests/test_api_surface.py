"""Every name a module exports through __all__ exists, importing the
package pulls in no optional heavy dependency, and only the command line
turns results into text."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import ultraseq

MODULES = ["ultraseq"] + [
    f"ultraseq.{m.name}" for m in pkgutil.iter_modules(ultraseq.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_import_does_not_load_scipy():
    # a fresh interpreter: this test session may have loaded scipy elsewhere
    src = os.path.dirname(os.path.dirname(ultraseq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, {', '.join(MODULES)}; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_python_m_ultraseq_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(ultraseq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "ultraseq", *argv], env=env, capture_output=True, text=True)

    out = run("norm", "n^2")
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.splitlines()[0] == "norm(n^2) under 1/log(n): exact e^2 = 7.3890561"
    out = run("norm", "n^^")
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("error: cannot parse 'n^^'")


_TEXT_HELPERS = {"format_value", "_fmt_point"}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "ultraseq.cli"])
def test_only_the_command_line_formats_values(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not (defined | imported) & _TEXT_HELPERS


@pytest.mark.parametrize("name", ["spaces", "gennum", "temperate", "genfun"])
def test_library_results_hold_no_report_text(name):
    mod = importlib.import_module(f"ultraseq.{name}")
    results = [
        cls for cls in vars(mod).values()
        if inspect.isclass(cls) and cls.__module__ == mod.__name__ and dataclasses.is_dataclass(cls)
    ]
    assert results
    for cls in results:
        assert "lines" not in {f.name for f in dataclasses.fields(cls)}, cls.__name__
        assert not hasattr(cls, "report_lines"), cls.__name__


def test_import_runs_no_package_function():
    # a fresh interpreter imports the package under a profiler: only module
    # bodies, class bodies and comprehensions of the package may run, so
    # no table or grid is built at import; a call after the import is seen
    pkg = os.path.dirname(ultraseq.__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.dirname(pkg), os.environ.get("PYTHONPATH", "")]))
    code = f"""
import inspect, sys
ran = []
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith({os.path.join(pkg, "")!r}):
        if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in ("<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"):
            ran.append(code.co_qualname)
sys.setprofile(profile)
import ultraseq, ultraseq.cli, ultraseq.corpus
imported = list(ran)
ultraseq.growth.constant(2.0)
sys.setprofile(None)
print(repr((imported, ran)))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    imported, ran = ast.literal_eval(out.stdout)
    assert imported == []
    assert ran[0] == "constant"
