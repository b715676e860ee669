"""The package's public names, and the test helpers' reach."""
import ast
import inspect
import pathlib
import pkgutil
import re
from collections import Counter

import qroute

TESTS = pathlib.Path(__file__).resolve().parent


def test_every_public_name_resolves_once_and_star_import_works():
    assert [name for name in qroute.__all__ if not hasattr(qroute, name)] == []
    assert [name for name, n in Counter(qroute.__all__).items() if n > 1] == []
    namespace: dict = {}
    exec("from qroute import *", namespace)
    assert namespace.keys() >= set(qroute.__all__)


def test_run_algorithm_is_the_one_public_scheduling_call():
    # run_algorithm checks feasibility; another public function returning an
    # outcome would hand one back unchecked
    schedulers = [name for name in qroute.__all__
                  if inspect.isfunction(function := getattr(qroute, name))
                  and inspect.signature(function).return_annotation
                  in ("RoutingOutcome", qroute.RoutingOutcome)]
    assert schedulers == ["run_algorithm"]


def test_readme_names_resolve():
    readme = (TESTS.parent / "README.md").read_text()
    unresolved = []
    for dotted in sorted(set(re.findall(r"\bqroute(?:\.\w+)+", readme))):
        try:
            pkgutil.resolve_name(dotted)
        except (ImportError, AttributeError):
            unresolved.append(dotted)
    assert unresolved == []
    # the stages the README calls importable on their own are public names
    stages = re.findall(r"`(\w+)`", re.search(r"importable on their own \(([^)]*)\)",
                                              readme).group(1))
    assert stages and [name for name in stages if name not in qroute.__all__] == []


def test_every_conftest_definition_is_read_by_a_test():
    # each top-level def, class or assignment of conftest must be reachable
    # from a name a test module imports, or from an autouse fixture, which
    # every test runs, through conftest's own references
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
    todo += [name for name, node in definitions.items() if isinstance(node, ast.FunctionDef)
             and any("autouse=True" in ast.unparse(d) for d in node.decorator_list)]
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in definitions and name not in reached:
            reached.add(name)
            todo.extend(node.id for node in ast.walk(definitions[name])
                        if isinstance(node, ast.Name))
    assert sorted(definitions.keys() - reached) == []
