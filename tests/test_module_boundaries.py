"""Design rule: no module imports an underscore name from another module
of the package; what one module needs from another is public there."""

import ast
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
