"""The package defines and exports only names that the package itself uses.

A public top-level function or class of a src module, and a name imported in
``__init__.py``, must be referenced somewhere in src outside its own top-level
definition; code that only tests call belongs in ``tests/helpers.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "signedlap"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def used_in_src() -> set[str]:
    """Every name and attribute referenced in src, outside ``__init__.py`` and outside the
    top-level definition that binds it."""
    used = set()
    for name, module in MODULES.items():
        if name == "__init__.py":
            continue
        for stmt in module.body:
            own = getattr(stmt, "name", None)  # a def or class does not use itself
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_export_has_a_user_in_src():
    exported = {alias.asname or alias.name
                for node in MODULES["__init__.py"].body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(exported - used_in_src()) == []


def test_every_public_function_and_class_has_a_user_in_src():
    defined = {f"{name}:{stmt.name}" for name, module in MODULES.items() for stmt in module.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")}
    used = used_in_src()
    assert sorted(d for d in defined if d.partition(":")[2] not in used) == []
