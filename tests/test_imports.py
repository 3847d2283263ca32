"""Every name a module imports is used in it: the library (re-exports in
``__init__.py`` are its API), the tests, the demos and the benchmark.  Every
helper and fixture that ``tests/conftest.py`` defines is used by a test
module.  Every public function of ``matcore``, ``superop``, ``quantum``,
``instrument``, ``models``, ``scenarios`` and ``serialization``, and every
public method of their classes, is named by another library module, a demo
or the benchmark: an API that only tests call belongs in
``tests/conftest.py``.
The route rule and the kernels it picks between are named only inside
``superop``, the range-isometry helper only inside ``quantum``, and
``Instrument._unchecked`` only inside ``instrument``.
Every trace the library takes is ``matcore.trace``.  Every library name
that the demos and the benchmark read exists."""

import ast
import importlib
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


def _names(path: Path) -> set:
    """The names, attribute names and import aliases in a module: code, not
    strings or docstrings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name.split(".")[-1], node.asname)))
    return names


def test_every_public_kernel_function_has_a_caller_outside_the_tests():
    src = ROOT / "src" / "reduction_lab"
    modules = ("matcore", "superop", "quantum", "instrument", "models", "scenarios",
               "serialization")
    public = []  # (module, qualified name, name)
    for module in modules:
        for node in ast.parse((src / f"{module}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef):
                public.append((module, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                public += [(module, f"{node.name}.{item.name}", item.name)
                           for item in node.body if isinstance(item, ast.FunctionDef)]
    public = [entry for entry in public if not entry[2].startswith("_")]
    # a re-export in __init__.py is the API itself, not a caller
    library = {p.stem: _names(p) for p in src.glob("*.py") if p.name != "__init__.py"}
    outside = set().union(*(_names(p) for folder in ("demos", "benchmarks")
                            for p in (ROOT / folder).glob("*.py")))
    callers = {module: outside.union(*(names for stem, names in library.items() if stem != module))
               for module in modules}
    assert len(public) > 40
    unused = [f"{module}.{qual}" for module, qual, name in public if name not in callers[module]]
    assert not unused, "public API with no caller outside the tests: " + ", ".join(unused)


def test_the_route_rule_stays_in_superop():
    # how a map is stored and applied is decided in one module: another
    # library module asks ``superop`` (``apply*``, ``unit_image``,
    # ``sum_residual``) instead of naming the rule, its floor or its
    # kernels, square or on a range
    private = {"_on_stack", "_rep_of", "_kraus_sum", "_adjoint_rows", "_sandwich",
               "_stack_rep", "_range_rep", "_RANGE_MIN_DIM"}
    src = ROOT / "src" / "reduction_lab"
    assert private <= _names(src / "superop.py")
    named = [f"{p.name}: {', '.join(sorted(private & _names(p)))}"
             for p in sorted(src.glob("*.py")) if p.name != "superop.py" and private & _names(p)]
    assert not named, "route rule named outside superop:\n" + "\n".join(named)


def test_the_range_isometries_have_one_home():
    # every library module reads an observable's range isometries off its
    # cached ``ranges``; only ``quantum`` names the helper that takes them
    src = ROOT / "src" / "reduction_lab"
    assert "_ranges" in _names(src / "quantum.py")
    assert {"ranges"} <= _names(src / "superop.py") & _names(src / "models.py")
    named = [p.name for p in sorted(src.glob("*.py"))
             if p.name != "quantum.py" and "_ranges" in _names(p)]
    assert not named, "range-isometry helper named outside quantum.py: " + ", ".join(named)


def test_only_instrument_builds_an_unchecked_instrument():
    # every other library module gets an instrument through a constructor
    # that validates it, or through ``operation_instrument``, the paper's
    # T_a(X) = T(E_a X E_a) over the operation T
    src = ROOT / "src" / "reduction_lab"
    assert "_unchecked" in _names(src / "instrument.py")
    named = [p.name for p in sorted(src.glob("*.py"))
             if p.name != "instrument.py" and "_unchecked" in _names(p)]
    assert not named, "Instrument._unchecked named outside instrument.py: " + ", ".join(named)


def _foreign_traces(path: Path) -> list:
    """The lines of a module that import numpy's ``trace`` or read a
    ``trace`` attribute of anything but ``matcore``: ``np.trace`` or an
    array's ``.trace()``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [node.lineno for alias in node.names if alias.name == "trace"]
        elif isinstance(node, ast.Attribute) and node.attr == "trace":
            if not (isinstance(node.value, ast.Name) and node.value.id == "matcore"):
                found.append(node.lineno)
    return [f"{path.relative_to(ROOT)}:{line}" for line in found]


def test_every_library_trace_is_matcore_trace():
    # one trace function: numpy's runs the same reduction behind a wrapper
    paths = sorted((ROOT / "src").rglob("*.py"))
    found = [entry for path in paths for entry in _foreign_traces(path)]
    assert not found, "traces not taken by matcore.trace:\n" + "\n".join(found)


def _library_reads(path: Path) -> list:
    """``(line, dotted name)`` for every library name a module reads: each
    ``from reduction_lab[.m] import X``, and each attribute chain of up to
    two links, ``a.X`` or ``a.X.Y``, on a name ``a`` bound by an import from
    ``reduction_lab``."""
    tree = ast.parse(path.read_text())
    bound, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "reduction_lab":
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = alias.name if alias.asname else "reduction_lab"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "reduction_lab":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                reads.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound and chain:
            reads.append((node.lineno, ".".join([bound[node.id], *chain[:2]])))
    return reads


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain on the
    longest module prefix of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def test_every_library_name_the_benchmark_and_demos_read_exists():
    # a removal that breaks ``rl.choi`` or ``rl.Superoperator.from_kraus``
    # in the benchmark or a demo fails here, not only when they run
    reads = [(path, line, name) for folder in ("benchmarks", "demos")
             for path in sorted((ROOT / folder).glob("*.py"))
             for line, name in _library_reads(path)]
    names = {name for _, _, name in reads}
    assert {"reduction_lab.choi", "reduction_lab.Superoperator.from_kraus",
            "reduction_lab.kraus_from_choi"} <= names
    missing = [f"{path.relative_to(ROOT)}:{line}: {name}"
               for path, line, name in reads if not _resolves(name)]
    assert not missing, "library names that do not exist:\n" + "\n".join(missing)
