"""No linter is installed here, so this is the lint rule worth having: a
name a ``src/repro`` module imports is used in that module, re-exported
through ``__all__`` (or an ``__init__.py``), or marked ``# noqa``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                getattr(node, "module", "") == "__future__"
                or "noqa" in lines[node.lineno - 1]):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # __all__ = [...]
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            used |= {element.value for element in node.value.elts}
    return [f"{path.relative_to(SRC)}:{line}: {name}"
            for name, line in imported.items() if name not in used | {"*"}]


def test_every_imported_name_is_used():
    found = [finding for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py" for finding in unused_imports(path)]
    assert not found, "\n".join(found)
