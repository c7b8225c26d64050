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


def _unreferenced(sources: dict[str, str], exported=frozenset()) -> list[str]:
    """Module-level functions, classes and constants of the modules (module
    name -> source), as module.name, that no other statement of theirs reads
    and exported does not list, then the methods and properties of the
    classes it does not list, as module.Class.name, whose name no attribute
    access in the modules reads (dunder methods aside). A module reads
    another's name through `from .module import name`, save __init__, which
    imports to re-export."""
    defined = {}
    readers = {}
    methods = []
    attributes = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined[module, statement.name] = statement
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            defined[module, node.id] = statement
            if isinstance(statement, ast.ClassDef) and statement.name not in exported:
                methods.extend(
                    (module, statement.name, item.name)
                    for item in statement.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                )
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault((module, node.id), set()).add(statement)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and module != "__init__":
                    for alias in node.names:
                        readers.setdefault((node.module, alias.name), set()).add(statement)
    return [
        f"{module}.{name}"
        for (module, name), statement in defined.items()
        if not (name.startswith("__") or name in exported)
        and not readers.get((module, name), set()) - {statement}
    ] + [f"{module}.{cls}.{name}" for module, cls, name in methods if name not in attributes]


def test_every_definition_is_read_in_the_package_or_exported():
    # No code that only its own tests reach: a definition that nothing in
    # src/ reads, and that the package does not export, is dead.
    package = Path(fotensor.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unreferenced(sources, set(fotensor.__all__)) == []


def test_dead_code_check_sees_one():
    sources = {
        "a": "X, Y = 1, 2\ndef f(t):\n    return f(t)\ndef g():\n    return X\nclass C:\n    pass\n",
        "b": "from .a import g\nprint(g())\n",
        "__init__": "from .a import C, f\n",
    }
    # f reads only itself, Y nothing, and C only __init__ imports.
    assert _unreferenced(sources) == ["a.Y", "a.f", "a.C"]
    assert _unreferenced(sources, {"C", "f"}) == ["a.Y"]


def test_dead_code_check_sees_an_unread_method():
    sources = {
        "a": (
            "class C:\n"
            "    def __len__(self):\n        return 0\n"
            "    def f(self):\n        return self.g\n"
            "    @property\n    def g(self):\n        return 1\n"
            "    def h(self):\n        return 2\n"
            "class D:\n    def h(self):\n        return 3\n"
        ),
        "b": "from .a import C, D\nprint(C().f(), D())\n",
    }
    # f and g are read as attributes; h nowhere, and D is exported.
    assert _unreferenced(sources) == ["a.C.h", "a.D.h"]
    assert _unreferenced(sources, {"D"}) == ["a.C.h"]
