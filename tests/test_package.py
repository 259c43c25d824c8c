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


def python_sources(tops):
    """(path relative to the root, source) of every module under `tops`."""
    for top in tops:
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [d for d in dirs if not d.startswith(".")]
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path) as fh:
                        yield os.path.relpath(path, ROOT), fh.read()


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path}:{line}: {unused}"
             for path, source in python_sources(CHECKED_DIRS)
             for line, unused in unused_imports(source)]
    assert found == []


def json_dump_uses(source):
    """Lines that call `json.dump` or import `dump` from `json`: it always
    runs the pure-Python encoder, where `JSONEncoder.encode` takes the C one
    and writes the same bytes."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dump" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(alias.name == "dump" for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_json_dump_scan_finds_each_use():
    source = ("import json\nfrom json import dumps, dump as d\njson.dumps(x)\n"
              "json.dump(x, fh)\nfh.dump(x)\njson.load(fh)\n")
    assert json_dump_uses(source) == [2, 4]


def test_no_package_module_writes_through_json_dump():
    found = [f"{path}:{line}" for path, source in python_sources(("src",))
             for line in json_dump_uses(source)]
    assert found == []
