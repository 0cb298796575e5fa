"""Every name a module, test or demo imports is used in that file, every
function, class and public module-level constant ``src`` defines is
reached outside the tests (a classmethod only when it is named on its
class, or on ``cls`` inside it), and the package reads no environment
variable.

No linter is installed, so these parses are the guard against dead imports
and against code that only tests reach.  ``__init__.py`` is skipped: its
imports are the package's re-exports.  ``bench/`` is left out of the import
check, since its probes import modules in order to time them, but counts as
a user of the package.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tamperstore"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
USERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


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
    """Names read or deleted; a name only assigned to is not a use."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


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


def _defined(tree: ast.Module) -> set[str]:
    """Every function, method and class defined, dunder methods aside, and
    every public name a module-level assignment binds."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                and not name.id.startswith("_")
            }
    return out


def _mentioned(tree: ast.Module) -> set[str]:
    """Names, attributes, imported names and identifier-shaped strings
    (``bench/spans.py`` patches attributes by their names)."""
    out = _referenced(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def _named_attributes(tree: ast.AST) -> set[tuple[str, str]]:
    """(owner, attribute) for every ``owner.attribute`` whose owner is a plain name."""
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }


def _unnamed_classmethods(path: Path, tree: ast.Module, named: set) -> list[str]:
    """The classmethods of ``tree`` named neither as ``Class.name`` in
    ``named`` nor as ``cls.name`` inside their own class.

    A bare attribute name would count a method as reached by any
    attribute of that name (``MacKey.random`` by ``rng.random``).
    """
    out = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        own = _named_attributes(cls)
        for item in cls.body:
            is_classmethod = isinstance(item, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "classmethod" for d in item.decorator_list
            )
            if not is_classmethod:
                continue
            if (cls.name, item.name) not in named and ("cls", item.name) not in own:
                out.append(f"{path.stem}.{cls.name}.{item.name}")
    return out


def test_every_definition_in_src_is_reached_outside_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES + USERS}
    mentioned = set().union(*map(_mentioned, trees.values()))
    named = set().union(*map(_named_attributes, trees.values()))
    unreached = sorted(
        f"{path.stem}.{name}" for path in MODULES for name in _defined(trees[path]) - mentioned
    )
    for path in MODULES:
        unreached += _unnamed_classmethods(path, trees[path], named)
    assert not unreached, f"defined in src but reached only from tests: {', '.join(unreached)}"


def test_checker_sees_a_classmethod_named_only_on_an_instance():
    tree = ast.parse(
        "class K:\n"
        "    @classmethod\n    def make(cls): return cls.build()\n"
        "    @classmethod\n    def build(cls): return cls()\n"
        "    @classmethod\n    def random(cls): return cls()\n"
        "K.make()\nrng.random()\n"
    )
    assert _unnamed_classmethods(Path("m.py"), tree, _named_attributes(tree)) == ["m.K.random"]


def test_checker_sees_public_module_constants_only():
    tree = ast.parse(
        "A = 1\n_B = 2\nC: int = 3\nD, E = 4, 5\nF[0] = 6\n"
        "def f():\n    G = 7\n    return A\n"
    )
    assert _defined(tree) == {"A", "C", "D", "E", "f"}
    assert _defined(tree) - _mentioned(tree) == {"C", "D", "E", "f"}


_ENV_KNOB = re.compile(r"environ|getenv|expanduser")


def test_package_reads_no_environment():
    # the package writes only where its caller says: no knob in the
    # environment, no default under the home directory
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _ENV_KNOB.search(line)
    ]
    assert not hits, "\n".join(hits)
