import ast
import os

import hawkesfeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKED_DIRS = ("src", "tests", "scripts")


def test_every_export_resolves_once():
    names = hawkesfeed.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(hawkesfeed, n)]
    assert missing == []


def unused_imports(source):
    """(line, name) of each name the module imports and never reads; a
    name listed in `__all__` counts as read, `__future__` imports do not
    bind one."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_import_scan_finds_an_unused_name():
    source = ("from __future__ import annotations\nimport os.path\nimport math\n"
              "from a import b as c, d\n__all__ = ['d']\nos.path.join(math.pi)\n")
    assert unused_imports(source) == [(4, "c")]


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for top in CHECKED_DIRS:
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [d for d in dirs if not d.startswith(".")]
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path) as fh:
                        source = fh.read()
                    found += [f"{os.path.relpath(path, ROOT)}:{line}: {unused}"
                              for line, unused in unused_imports(source)]
    assert found == []
