"""Design rules: no module imports an underscore name from another module
of the package, what one module needs from another is public there; no
module imports a name it never uses; no module imports dataclasses; no
module-level constant, function the package does not export, or exception
type is dead; and the wording of the positivity rule lives in errors.py
alone; and every binding the benchmark's tracer wraps, and every
numerics attribute its reference script reads, exists."""

import ast
import importlib
import re
from collections import ChainMap
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


def test_no_module_imports_dataclasses():
    # records.record builds the package's records; dataclasses and the
    # inspect it imports would cost every import of the package.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if (name or "").split(".")[0] == "dataclasses"]
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


# Receivers whose class the AST does not show (parameters, loop and
# unpacked names), by (module, name), with the package classes each may
# be; () is an object from outside the package.
RECEIVER_CLASSES = {
    ("cli.py", "args"): (),  # argparse namespace
    ("cli.py", "cfg"): ("DeviceConfig",),
    ("cli.py", "result"): ("PressureResult",),
    ("designer.py", "geometry"): ("DeviceGeometry",),
    ("designer.py", "result"): ("PressureResult",),
    ("designer.py", "theory"): ("MaterialPairDifferential", "StepPressureSignal"),
    ("film.py", "curve"): ("RTCurve",),
    ("lifshitz.py", "p"): ("PressureResult",),
    ("lifshitz.py", "p_ref"): ("PressureResult",),
    ("lifshitz.py", "r"): ("PressureResult",),
    ("materials.py", "model"): ("Plasma", "Drude", "SuperconductorTwoFluid"),
    ("serialize.py", "row"): ("SweepRow",),
    ("serialize.py", "v"): ("DetectabilityVerdict",),
}


def _own_nodes(scope):
    """The nodes of ``scope`` outside the functions and classes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _scopes(module, tree):
    """(module, scope, names) of the module and of every function in it;
    ``names`` will map a name to the package class bound to it.  A method's
    types self; a nested function's falls back to its parent's."""
    out = []

    def visit(scope, names):
        out.append((module, scope, names))
        for node in _own_nodes(scope):
            if isinstance(node, ast.FunctionDef):
                visit(node, names.new_child())
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        visit(method, ChainMap({"self": node.name}))

    visit(tree, ChainMap())
    return out


def _field_reads(trees):
    """(declared, reads, stale).  ``declared`` lists (module, class, name)
    of every annotated field and @property; ``reads`` lists (receiver
    classes or None, name, source) of every ``x.name`` load and
    getattr(x, "name"), the name given directly or as a literal tuple that
    a for loop runs over; ``stale`` lists the reads through a
    RECEIVER_CLASSES entry whose classes have no such field or method."""
    fields, members, declared = {}, {}, []
    for module, tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            fields[cls.name] = {n.target.id: n.annotation for n in cls.body
                                if isinstance(n, ast.AnnAssign)}
            methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
            members[cls.name] = {*fields[cls.name], *(n.name for n in methods)}
            declared += [(module, cls.name, name) for name in fields[cls.name]]
            declared += [(module, cls.name, n.name) for n in methods
                         if any(getattr(d, "id", None) == "property" for d in n.decorator_list)]
    # a field's type: the one package class its annotation names (C, C | None)
    for table in fields.values():
        for name, annotation in table.items():
            hits = {n.id for n in ast.walk(annotation) if getattr(n, "id", None) in fields}
            table[name] = hits.pop() if len(hits) == 1 else None
    returns = {}

    def kind(expr, module, names):
        """The package class ``expr`` evaluates to, where the AST or a
        one-class entry of RECEIVER_CLASSES shows it."""
        if isinstance(expr, ast.Name):
            listed = RECEIVER_CLASSES.get((module, expr.id), ())
            return names.get(expr.id) or (listed[0] if len(listed) == 1 else None)
        if isinstance(expr, ast.Call):
            func = expr.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name if name in fields else returns.get(name)
        if isinstance(expr, ast.Attribute):
            owner = kind(expr.value, module, names)
            return fields[owner].get(expr.attr) if owner else None
        return None

    scopes = [scope for module, tree in trees for scope in _scopes(module, tree)]
    # Names are typed by what binds them and functions by what they return.
    # A pass can type what an earlier line needed, so passes repeat (the
    # package settles in two); a name bound to two classes, or a function
    # that returns two, stays untyped.
    for _ in range(4):
        for module, scope, names in scopes:
            found = set()
            for node in _own_nodes(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                    both = isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                    for name, expr in zip(target.elts, value.elts) if both else [(target, value)]:
                        cls = kind(expr, module, names)
                        if (cls and isinstance(name, ast.Name)
                                and names.maps[0].setdefault(name.id, cls) != cls):
                            names.maps[0][name.id] = None
                elif isinstance(node, ast.Return) and node.value is not None:
                    found.add(kind(node.value, module, names))
            if isinstance(scope, ast.FunctionDef) and len(found) == 1 and None not in found:
                returns[scope.name] = found.pop()

    reads, stale = [], []
    for module, scope, names in scopes:
        def read(receiver, name, node):
            key = (module, getattr(receiver, "id", None))
            source = f"{module} {ast.unparse(node)}"
            if key in RECEIVER_CLASSES and not names.get(key[1]):
                classes = RECEIVER_CLASSES[key]
                if classes and not any(name in members[cls] for cls in classes):
                    stale.append(source)
            else:
                cls = kind(receiver, module, names)
                classes = cls and (cls,)
            reads.append((classes, name, source))

        loops = {node.target.id: node.iter for node in _own_nodes(scope)
                 if isinstance(node, ast.For) and isinstance(node.target, ast.Name)}
        for node in _own_nodes(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read(node.value, node.attr, node)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                key = node.args[1]
                for const in ast.walk(loops.get(getattr(key, "id", None), key)):
                    if isinstance(const, ast.Constant) and isinstance(const.value, str):
                        read(node.args[0], const.value, node)
    return declared, reads, stale


def test_every_field_and_property_is_read():
    # An annotated class field or a @property of a package class must be
    # read in the package, keyed on (class, field): as ``x.name`` or
    # getattr(x, "name") where x is of that class.  x's class comes from
    # the AST where it shows (self, a constructor call, a function that
    # returns one class, an annotated field, a name bound to one of these),
    # else from RECEIVER_CLASSES; a name that one class alone declares needs
    # no receiver class.
    trees = [(path.name, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))]
    declared, reads, stale = _field_reads(trees)
    owners = {}
    for _, cls, name in declared:
        owners.setdefault(name, set()).add(cls)
    read, untyped = set(), []
    for classes, name, source in reads:
        if classes is None:
            classes = owners.get(name, ())
            if len(classes) > 1:
                untyped.append(source)
        read |= {(cls, name) for cls in classes}
    assert len(declared) > 50
    offenders = [f"{module} {cls}.{name}" for module, cls, name in declared
                 if (cls, name) not in read]
    assert offenders == []
    assert untyped == [], "add these receivers to RECEIVER_CLASSES"
    assert stale == [], "these receivers' RECEIVER_CLASSES do not declare what they read"


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
    # The exports are the keys of __init__'s lazy table, read from source.
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = set(next(ast.literal_eval(node.value) for node in init.body
                        if isinstance(node, ast.Assign)
                        and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]))
    # A module's __getattr__ and __dir__ (PEP 562) are called by the
    # interpreter, by name, on attribute lookup and dir().
    defined, called = set(), {"__getattr__", "__dir__"}
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


def test_every_reference_numerics_attribute_resolves():
    # bench/make_refs.py records REF_NUMERICS.<attr> in the stored
    # references' metadata; one that LifshitzNumerics no longer has breaks
    # the script.  The reads are taken from the source, so the benchmark is
    # not imported.
    make_refs = Path(__file__).resolve().parents[1] / "bench" / "make_refs.py"
    attrs = {node.attr for node in ast.walk(ast.parse(make_refs.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and getattr(node.value, "id", None) == "REF_NUMERICS"}
    assert len(attrs) >= 2
    missing = sorted(attr for attr in attrs if not hasattr(casimirchip.DEFAULT_NUMERICS, attr))
    assert missing == []
