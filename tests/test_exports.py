import ast
from pathlib import Path

import fotensor


def test_export_surface():
    # A stale __all__ entry breaks `from fotensor import *`.
    assert len(set(fotensor.__all__)) == len(fotensor.__all__)
    namespace = {}
    exec("from fotensor import *", namespace)
    assert set(fotensor.__all__) <= set(namespace)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (from __future__ aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_has_an_unused_import():
    # __init__.py imports to re-export; every other module reads what it imports.
    package = Path(fotensor.__file__).parent
    unused = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (found := _unused_imports(path.read_text()))
    }
    assert unused == {}


def test_unused_import_check_sees_one():
    assert _unused_imports("import os\nimport sys\nfrom a import b as c, d\nsys.exit(d)") == [
        "os (line 1)",
        "c (line 3)",
    ]
