"""Import hygiene, checked with ``ast``: every name the package sources,
the tests and the tools import is used (or marked ``# noqa: F401``), and
every ``__all__`` entry of the package resolves.  No linter is assumed to
be installed."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "padicfourier").glob("*.py"))
#: every Python file whose imports are checked: the package, the tests and
#: the tools (their names do not collide, so the file name is the test id)
CHECKED = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name -> line of every import, except ``from __future__`` and
    those marked ``# noqa: F401``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = alias.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations, plus the
    ``__all__`` entries."""
    return names_read(tree) | set(exported_names(tree))


def names_read(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= names_read(ast.parse(annotation.value, mode="eval"))
    return used


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_every_import_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree, text.splitlines()).items()
        if name not in used_names(tree)
    )
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_all_entry_resolves(path):
    module_name = "padicfourier" if path.stem == "__init__" else f"padicfourier.{path.stem}"
    module = importlib.import_module(module_name)
    missing = [name for name in exported_names(ast.parse(path.read_text()))
               if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_the_checks_see_an_unused_import_and_a_dangling_export():
    source = "from fractions import Fraction\nimport math  # noqa: F401\n__all__ = ['x']\n"
    tree = ast.parse(source)
    names = imported_names(tree, source.splitlines())
    assert names == {"Fraction": 1}
    assert "Fraction" not in used_names(tree)
    assert exported_names(tree) == ["x"]


@pytest.mark.parametrize("name", ["distributions.py", "singular.py"])
def test_the_left_side_does_not_import_the_right_sides_gamma(name):
    # J is checked against Gamma_p(pi_alpha) |t|^-alpha; if J were built
    # from the same Gamma, the check could not fail
    path = SOURCES[0].parent / name
    text = path.read_text()
    names = imported_names(ast.parse(text), text.splitlines())
    assert not {"gamma_p", "gamma_pi"} & set(names), f"{name} imports Gamma_p"


def test_the_right_side_does_not_import_the_left_sides_kernels():
    # the PLog polynomial is built from Bernoulli numbers alone and the
    # power family from Gamma; sharing J's power sums or J0 would let a
    # fault in them cancel out of the check
    path = SOURCES[0].parent / "asymptotics.py"
    text = path.read_text()
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}  # noqa lines too
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    kernels = {
        "faulhaber_sum",
        "faulhaber_coeffs",
        "ball_tail",
        "j0_closed_form",
        "_pairing",
    }
    assert not kernels & names, "asymptotics.py reaches a kernel of J"


@pytest.mark.parametrize("name", ["testfn.py", "distributions.py"])
def test_the_evaluator_builds_its_own_roots(name):
    # the oracle reads chi_p off singular's root tables; if the split
    # evaluator's partial transform read them too, a fault in them could
    # not show as a disagreement
    path = SOURCES[0].parent / name
    text = path.read_text()
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not {"singular", "_turns", "_roots"} & names, f"{name} reaches the oracle's roots"
