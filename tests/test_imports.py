"""Every module of the package and every test module uses each name it
imports, every public function and class, and every public method of an
exported class, has a caller outside the tests, and the README's quick
start runs."""

import ast
import inspect
import re
import types
from pathlib import Path

import unraveling

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "unraveling"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_use_every_imported_name():
    unused = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, "imported but unused: " + ", ".join(unused)


def read_names(source: str) -> set[str]:
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# The members of an exported class that the caller guard checks.
MEMBER_KINDS = (types.FunctionType, property, staticmethod, classmethod)


def quick_start() -> str:
    """The README's one python block."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    return block


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    """So has every public method, property, static and class method of an
    exported class.  The README's quick start counts as a caller."""
    callers = [p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += [p.read_text() for p in ROOT.glob("bench/*.py")]
    callers.append(quick_start())
    read = set().union(*map(read_names, callers))
    unread = []
    for name in unraveling.__all__:
        value = getattr(unraveling, name)
        if (inspect.isfunction(value) or inspect.isclass(value)) and name not in read:
            unread.append(name)
        if inspect.isclass(value):
            unread += [
                f"{name}.{member}"
                for member, attr in vars(value).items()
                if not member.startswith("_")
                and isinstance(attr, MEMBER_KINDS)
                and member not in read
            ]
    assert not unread, "public names read only by tests: " + ", ".join(unread)


def test_readme_quick_start_runs():
    exec(compile(quick_start(), "README.md", "exec"), {})
