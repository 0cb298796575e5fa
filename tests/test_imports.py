"""Every name a module, test or demo imports is used in that file.

No linter is installed, so this parse is the guard against dead imports.
``__init__.py`` is skipped: its imports are the package's re-exports.
``bench/`` is left out: its probes import modules in order to time them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tamperstore"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_modules_found():
    assert len(MODULES) >= 10
    assert {p.parent.name for p in SCRIPTS} == {"tests", "demos"}


def _script_id(path: Path) -> str:
    return f"{path.parent.name}/{path.stem}"


@pytest.mark.parametrize(
    "module",
    MODULES + SCRIPTS,
    ids=[p.stem for p in MODULES] + [_script_id(p) for p in SCRIPTS],
)
def test_no_unused_imports(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    used = _referenced(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{module.name} imports names it never uses: {', '.join(unused)}"


def test_checker_sees_an_unused_import():
    tree = ast.parse("import os\nfrom x import y as z\ndef f(a: z) -> None:\n    pass\n")
    assert set(_imported(tree)) - _referenced(tree) == {"os"}
