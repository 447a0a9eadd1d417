"""The package's public surface is what its callers use.

``genmargin`` exports exactly the names the demos and the README's Python
blocks import from it, and they import nothing from a submodule.  Every
other name is imported from its module.
"""

import ast
import inspect
import pathlib
import re
import types

import pytest

import genmargin
from genmargin import model, srmc

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


@pytest.mark.parametrize("fn", [srmc.predict_srmc_from_lrmc, srmc._rule,
                                model.PrimalDecision.is_feasible, model.feasibility_limit],
                         ids=lambda fn: fn.__qualname__)
def test_tolerance_comes_from_one_place(fn):
    # each reads its tolerance itself (srmc.RULE_TOL, tolerances.current())
    assert "tol" not in inspect.signature(fn).parameters
