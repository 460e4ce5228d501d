"""Design rules: no module imports an underscore name from another module
of the package, what one module needs from another is public there; no
module imports a name it never uses; no module-level constant, function
the package does not export, or exception type is dead; and the wording
of the positivity rule lives in errors.py alone; and every binding the
benchmark's tracer wraps exists."""

import ast
import importlib
import re
from pathlib import Path

import casimirchip

PACKAGE = Path(casimirchip.__file__).resolve().parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("casimirchip")
            if not internal:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    offenders.append(f"{path.name}:{node.lineno} {alias.name}")
    assert offenders == []


def test_no_module_imports_a_name_it_never_uses():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports by design
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_every_module_constant_is_referenced():
    # A module-level UPPER_CASE name must be read somewhere in the package
    # beyond its own definition: in its module, or imported by another one.
    constant = re.compile(r"_?[A-Z][A-Z0-9_]*")
    defined, read_in, imported = [], {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(path.name, t.id) for t in targets
                        if isinstance(t, ast.Name) and constant.fullmatch(t.id)]
        read_in[path.name] = {node.attr if isinstance(node, ast.Attribute) else node.id
                              for node in ast.walk(tree)
                              if isinstance(node, ast.Attribute)
                              or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        imported |= {alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(defined) > 10
    offenders = [f"{module} {name}" for module, name in defined
                 if name not in read_in[module] and name not in imported]
    assert offenders == []


def test_every_exception_type_is_raised_or_caught():
    # An exception class in errors.py must appear in a raise statement or an
    # except clause of another module of the package.
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    handled = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exprs = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            else:
                continue
            handled |= {e.id for e in exprs if isinstance(e, ast.Name)}
    assert len(classes) >= 4
    assert sorted(classes - handled) == []


def test_every_field_and_property_is_read():
    # An annotated class field or a @property of a package class must be
    # read in the package: as an attribute access ``.name``, or as the
    # string constant "name" (the ``getattr(self, name)`` loops).
    declared, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    declared.append((path.name, cls.name, node.target.id))
                elif isinstance(node, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in node.decorator_list):
                    declared.append((path.name, cls.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert len(declared) > 50
    offenders = [f"{module} {cls}.{name}" for module, cls, name in declared
                 if name not in read]
    assert offenders == []


def test_positivity_rule_is_worded_only_in_errors():
    # "must be finite and > 0 / >= 0" is errors.require_positive /
    # require_nonnegative; a hand-written copy elsewhere is a second rule.
    offenders = [
        f"{path.relative_to(PACKAGE)}:{lineno}"
        for path in sorted([*PACKAGE.rglob("*.py"), *PACKAGE.glob("data/*.cfg")])
        if path.name != "errors.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "must be finite and" in line
    ]
    assert offenders == []


def test_every_private_function_is_called():
    # A module-level function the package does not export from __init__.py
    # is private to it, whatever its name, and must be referenced in the
    # package outside its own def: called or passed in its module, or
    # imported by another one.  A helper that only tests call is dead code.
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, called = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if owner and owner not in exported:
                defined.add(owner)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name not in (None, owner):
                    called.add(name)
    assert len(exported) > 40
    assert len(defined) > 50
    assert sorted(defined - called) == []


def test_every_benchmark_tracer_binding_resolves():
    # The benchmark's tracer wraps each (module, attribute) of its TARGETS
    # at install; one that no longer resolves kills every traced run.  The
    # table is read from the source, so the benchmark is not imported.
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    targets = next(ast.literal_eval(node.value)
                   for node in ast.parse(tracing.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    assert len(targets) > 10
    missing = [f"{module}.{attr}" for module, attr, _ in targets
               if not hasattr(importlib.import_module(f"casimirchip.{module}"), attr)]
    assert missing == []
