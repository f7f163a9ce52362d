"""Every function, method and class of the package is used by the package.

A definition counts as used when its name occurs in src/uhsl2 as a name or
an attribute anywhere but in its own `def` or `class` line.  Dunders are
exempt.  An identity that only the tests exercise lives in its test module.
The test goes by name alone, so it does not cover a method that shares its
name with another definition: a caller of either counts for both.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "uhsl2"
# definitions with no caller in the package that may stay there anyway
ALLOWED = set()


def test_every_definition_is_referenced():
    defined, used = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name for name in defined - used - ALLOWED
              if not (name.startswith("__") and name.endswith("__"))}
    assert not unused, f"defined but never referenced in src/uhsl2: {sorted(unused)}"
