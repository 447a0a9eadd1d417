"""The package's public surface is what its callers use.

``genmargin`` exports exactly the names the demos and the README's Python
blocks import from it, and they import nothing from a submodule.  Every
other name is imported from its module.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import types

import pytest

import genmargin
from genmargin import srmc

ROOT = pathlib.Path(__file__).resolve().parents[1]


def caller_sources():
    """``(name, source)`` of each demo and each Python block of the README."""
    out = [(p.name, p.read_text()) for p in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    out += [(f"README block {k}", block)
            for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S))]
    return out


def genmargin_imports(source):
    """``(module, names)`` of each import of genmargin in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "genmargin":
            yield node.module, {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "genmargin":
                    yield a.name, set()


def test_exports_are_what_the_demos_and_readme_import():
    sources = caller_sources()
    assert sum(name.startswith("README") for name, _ in sources) >= 1
    assert len(sources) >= 5
    imported = set()
    for name, source in sources:
        for module, names in genmargin_imports(source):
            assert module == "genmargin", f"{name} imports from {module}"
            imported |= names
    exported = {name for name, value in vars(genmargin).items()
                if not name.startswith("__") and not isinstance(value, types.ModuleType)}
    assert exported == imported
    assert len(exported) == 17


def test_readme_quickstart_runs_as_written(capsys):
    block = dict(caller_sources())["README block 0"]
    stated = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert stated == ["(1.0, 102.0)", "((1.0, 1.0), (20.0, 200.0))", "(1.0, 20.0)"]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)      # noqa: S102 - the README's own code
    assert scope["group"].gid == 6
    assert capsys.readouterr().out.splitlines() == stated


def public_functions():
    """Each public function, and each public method of a public class,
    that a ``genmargin`` module defines."""
    for info in pkgutil.iter_modules(genmargin.__path__):
        module = importlib.import_module(f"genmargin.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(value)):
                yield value
            elif inspect.isclass(value):
                methods = (getattr(value, m) for m in vars(value) if not m.startswith("_"))
                yield from (m for m in methods if inspect.isfunction(m) or inspect.ismethod(m))


PUBLIC = list(public_functions())


def test_public_functions_are_found():
    names = {fn.__qualname__ for fn in PUBLIC}
    assert {"classify", "compute_srmc", "srmc_step", "resolved_step",
            "PrimalDecision.is_feasible", "main"} <= names


@pytest.mark.parametrize("fn", PUBLIC + [srmc._rule], ids=lambda fn: fn.__qualname__)
def test_tolerance_comes_from_one_place(fn):
    # each reads its tolerance itself (srmc.RULE_TOL, tolerances.current())
    assert not [p for p in inspect.signature(fn).parameters if p.startswith("tol")]


@pytest.mark.parametrize("fn", [srmc.compute_srmc, srmc.srmc_step, srmc.resolved_step],
                         ids=lambda fn: fn.__qualname__)
def test_short_run_slack_is_not_an_argument(fn):
    # the perturbed solve's slack is srmc.default_epsilon(params); the model
    # builders keep their epsilon, which is part of the LP they build
    assert "epsilon" not in inspect.signature(fn).parameters
