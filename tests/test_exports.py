"""The package exports only names that the package itself uses.

A name imported in ``__init__.py`` must be referenced somewhere in src outside
its own top-level definition; code that only tests call belongs in
``tests/helpers.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "signedlap"


def test_every_export_has_a_user_in_src():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name
                for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)  # a def or class does not use itself
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    assert sorted(exported - used) == []
