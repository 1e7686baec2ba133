"""Every module of the package and every test module uses each name it imports."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "unraveling"


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
