"""Tests for the package as a whole: its import hygiene and public surface."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import periodlab

PACKAGE = Path(periodlab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
README = Path(__file__).resolve().parent.parent / "README.md"


def _bound_names(tree, lines):
    """(name, line) for every name an import binds, except ``__future__``
    imports, star imports and names on a line marked ``# noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, alias.lineno


def _used_names(tree):
    """Every ``ast.Name`` of the module, every name inside a string
    annotation, and every name the module's ``__all__`` re-exports."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    annotations = [a.annotation for a in ast.walk(tree)
                   if isinstance(a, (ast.arg, ast.AnnAssign))]
    annotations += [f.returns for f in ast.walk(tree)
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    used = _used_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _bound_names(tree, text.splitlines())
              if name not in used]
    assert unused == []


def _reads(tree):
    """(name, innermost enclosing function or None) for every name and
    attribute the module reads or assigns."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                found.add((child.id, scope))
            elif isinstance(child, ast.Attribute):
                found.add((child.attr, scope))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, None)
    return found


def _imports(tree):
    """Every module and name the module imports, split at the dots."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            found.update(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in node.names
                         for part in alias.name.split("."))
    return found


def _identifiers(tree):
    """Every name the module reads, assigns, defines or imports."""
    return ({name for name, _ in _reads(tree)} | _imports(tree)
            | {node.name for node in ast.walk(tree) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))})


def test_the_rules_meet_the_oracle_only_in_add_sp_checks():
    """The one seam: the oracle is run from ``add_sp_checks`` alone, and
    the matrix modules and the parameter algebra do not see each other."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert {(module, scope) for module, tree in trees.items()
            for name, scope in _reads(tree)
            if name == "oracle_verdicts"} == {("distinction", "add_sp_checks")}
    assert [module for module, tree in trees.items()
            if "attach_oracle_checks" in _identifiers(tree)] == []
    assert _imports(trees["param_core"]).isdisjoint(
        {"matrix_lab", "group_models"})
    rules = {"segment_self_duality", "multiplicities", "is_tempered",
             "sl2_duality_sign", "is_linear_distinguished", "validate_rds",
             "factors_through_sp_symbolic", "is_x_elliptic_symbolic",
             "centralizer_dimension_symbolic", "self_duality"}
    for module in ("linalg", "matrix_lab", "group_models"):
        assert rules.isdisjoint(_identifiers(trees[module])), module
    # the matrices stand on the scalars alone: of the package, linalg
    # imports errors and exactnum, relatively, and nothing else
    imports = [node for node in ast.walk(trees["linalg"])
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {node.module for node in imports
            if getattr(node, "level", 0)} <= {"errors", "exactnum"}
    assert "periodlab" not in _imports(ast.Module(
        [node for node in imports if not getattr(node, "level", 0)], []))


def _package_imports(tree):
    """(module, name, innermost enclosing function or None) for every name
    imported from the package, relatively or as ``periodlab``: ``from .a
    import b`` gives ("a", "b"), ``from . import a`` gives ("", "a")."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and (
                    child.level or (child.module or "").startswith(
                        "periodlab")):
                module = (child.module or "").removeprefix("periodlab")
                found.extend((module.lstrip("."), alias.name, scope)
                             for alias in child.names)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, None)
    return found


def test_no_module_imports_a_private_name_of_another():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert [(module, f"{source}.{name}")
            for module, tree in trees.items()
            for source, name, _ in _package_imports(tree)
            if name.startswith("_") and source != module] == []


def test_group_models_imports_the_oracle_only_to_forward_two_names():
    """The catalog module holds no oracle code: it imports ``matrix_lab``
    only in its module ``__getattr__``, which forwards exactly the two
    names the benchmark's tracer looks up there."""
    from periodlab import group_models, matrix_lab
    tree = ast.parse((PACKAGE / "group_models.py").read_text(encoding="utf-8"))
    assert {scope for source, name, scope in _package_imports(tree)
            if "matrix_lab" in (source, name)} == {"__getattr__"}
    assert {"commutant_dimension", "_class_hom", "centralizer_dimension",
            "invariant_isotropic_exists"}.isdisjoint(vars(group_models))
    for name in ("commutant_dimension", "invariant_isotropic_exists"):
        assert getattr(group_models, name) is getattr(matrix_lab, name)
    assert not hasattr(group_models, "centralizer_dimension")


def test_only_linalg_sees_the_matrix_representation():
    """``linalg`` owns the representation: no other module imports numpy,
    reads a matrix's ``re``, ``im``, ``den`` or ``data`` slot, or calls
    ``as_complex``; ``exactnum`` reads the ``re`` and ``im`` of its own
    ``QQi``."""
    slots = {"re", "im", "den", "data", "as_complex"}
    numpy, reads = [], {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "numpy" in _imports(tree):
            numpy.append(path.stem)
        attrs = {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
        if slots & attrs:
            reads[path.stem] = sorted(slots & attrs)
    assert numpy == ["linalg"]
    reads.pop("linalg", None)
    assert reads == {"exactnum": ["im", "re"]}


def test_the_readme_names_no_private_identifier():
    """The README documents the public surface: no name in its code, inline
    or fenced, starts with an underscore, alone or after a dot."""
    text = README.read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    assert sorted({name for span in code
                   for name in re.findall(r"(?<!\w)_\w+", span)}) == []


def test_public_names_resolve():
    names = periodlab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(periodlab, n)] == []


def _python(*args):
    """Run a fresh interpreter on ``args`` with this package importable."""
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})


def test_star_import_runs_without_warnings():
    result = _python("-W", "error", "-c", "from periodlab import *")
    assert result.returncode == 0, result.stderr


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    # the public names resolve on first use; dir() lists them all before
    result = _python("-c", "import sys, periodlab as p; "
                           "print(set(p.__all__) <= set(dir(p))); "
                           "print(sorted(m for m in sys.modules if "
                           "m.startswith('periodlab.') or m == 'numpy'))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["True", "[]"]


def test_the_catalog_and_models_are_built_without_the_oracle():
    # group_models holds no oracle code and imports matrix_lab only to
    # forward two names
    result = _python("-c", "import sys, periodlab.group_models as g; "
                           "g.builtin_catalog(); "
                           "[g.sl2_surrogate(k) for k in range(1, 7)]; "
                           "print('periodlab.matrix_lab' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_a_cold_start_does_not_import_configparser():
    # only catalog files need configparser; load_catalog imports it itself
    result = _python("-c", "import sys, periodlab; "
                           "periodlab.builtin_catalog(); "
                           "print('configparser' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
