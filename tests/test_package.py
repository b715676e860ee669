"""The package's public names, and the test helpers' reach."""
import ast
import pathlib
from collections import Counter

import qroute

TESTS = pathlib.Path(__file__).resolve().parent


def test_every_public_name_resolves_once_and_star_import_works():
    assert [name for name in qroute.__all__ if not hasattr(qroute, name)] == []
    assert [name for name, n in Counter(qroute.__all__).items() if n > 1] == []
    namespace: dict = {}
    exec("from qroute import *", namespace)
    assert namespace.keys() >= set(qroute.__all__)


def test_every_conftest_definition_is_read_by_a_test():
    # each top-level def, class or assignment of conftest must be reachable
    # from a name a test module imports, through conftest's own references
    definitions: dict[str, ast.stmt] = {}
    for node in ast.parse((TESTS / "conftest.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        definitions[name.id] = node
    todo = [alias.name for path in TESTS.glob("test_*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "conftest"
            for alias in node.names]
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in definitions and name not in reached:
            reached.add(name)
            todo.extend(node.id for node in ast.walk(definitions[name])
                        if isinstance(node, ast.Name))
    assert sorted(definitions.keys() - reached) == []
