"""Every name a module imports is used in it: the library (re-exports in
``__init__.py`` are its API), the tests, the demos and the benchmark.  Every
helper and fixture that ``tests/conftest.py`` defines is used by a test
module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    paths = [
        p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"
    ] + [p for folder in ("tests", "demos", "benchmarks")
         for p in sorted((ROOT / folder).glob("*.py"))]
    assert len(paths) > 20 and any(p.parent.name == "benchmarks" for p in paths)
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_conftest_helper_has_a_test_that_uses_it():
    # a reference helper that lost its last user should go, not linger;
    # a fixture is used by naming it as a parameter
    defined = [
        node.name for node in ast.parse((ROOT / "tests" / "conftest.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    used = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.arg):
                used.add(node.arg)
    assert len(defined) > 5
    unused = [name for name in defined if name not in used]
    assert not unused, "conftest helpers no test uses: " + ", ".join(unused)
