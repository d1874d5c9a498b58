"""Every name a module of the package imports is used in that module,
every private function or method it defines is used somewhere in the
package, and every public module-level function or class it defines is
used in the package or the benchmark.

A name counts as used when it appears as an identifier anywhere in the
module (annotations included) or is listed in the module's `__all__`;
`from __future__` imports are exempt.  A private function (module level,
or a method of a module-level class; dunder methods are exempt) counts as
used when its name appears as an identifier or attribute anywhere in the
package, its own `def` aside.  A public one counts as used the same way,
with the benchmark's sources searched too; exempt are the CLI's `cmd_*`
handlers (looked up by name), the functions and methods the benchmark's
per-layer metrics name, and the test oracles below.  And no module calls
`float` or a `math.log*` function: every quantity is exact.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "codefam"
# reference implementations the tests check the library against
TEST_ORACLES = {"statistical_distance_oracle", "split_symbols", "join_symbols",
                "sample_random_bipartite", "RandomMatrixCode"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = ("from __future__ import annotations\nimport os, sys as system\n"
           "from math import comb, floor\n__all__ = ['floor']\nprint(os.sep)\n")
    assert unused_imports(src) == ["comb (line 3)", "system (line 2)"]


def used_names(trees) -> set[str]:
    """Every identifier and attribute name in the trees."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def unused_private_defs(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defined = []
    for name, tree in trees.items():
        scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        defined += [(node.name, f"{name}:{node.lineno}") for body in scopes for node in body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")]
    used = used_names(trees.values())
    return sorted(f"{fn} ({where})" for fn, where in defined if fn not in used)


def test_no_unused_private_defs():
    assert unused_private_defs({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_checker_flags_an_unused_private_def():
    a = ("def _used():\n    pass\n\ndef _left():\n    pass\n\n"
         "class C:\n    def __init__(self):\n        self._peer()\n\n"
         "    def _stale(self):\n        pass\n")
    b = "import a\na._used()\nprint(a.C()._peer)\n\ndef _peer():\n    pass\n"
    assert unused_private_defs({"a.py": a, "b.py": b}) == ["_left (a.py:4)",
                                                            "_stale (a.py:11)"]


def unused_public_defs(sources: dict[str, str], users: dict[str, str]) -> list[str]:
    """Public module-level functions and classes of `sources` that neither
    `sources` nor `users` use."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = used_names([*trees.values(), *(ast.parse(src) for src in users.values())])
    return sorted(f"{node.name} ({name}:{node.lineno})" for name, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in used)


def test_no_unused_public_defs():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    exempt = TEST_ORACLES | {m["name"].split(".")[1] for m in per_layer}
    unused = unused_public_defs({p.name: p.read_text() for p in SRC.glob("*.py")},
                                {p.name: p.read_text() for p in ROOT.glob("perfbench/*.py")})
    assert [u for u in unused if u.split()[0] not in exempt
            and not (u.startswith("cmd_") and "(cli.py:" in u)] == []


def test_checker_flags_an_unused_public_def():
    a = ("def used():\n    pass\n\ndef left():\n    pass\n\n"
         "class Kept:\n    pass\n\nclass Stale:\n    def used(self):\n        pass\n")
    b = "import a\na.used()\nprint(a.Kept)\n"
    assert unused_public_defs({"a.py": a}, {"b.py": b}) == ["Stale (a.py:10)",
                                                          "left (a.py:4)"]


def float_calls(source: str) -> list[str]:
    """Calls of `float` and of the `math.log*` functions, as `name (line)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float":
                found.append(f"float (line {node.lineno})")
            elif (isinstance(f, ast.Attribute) and f.attr.startswith("log")
                  and isinstance(f.value, ast.Name) and f.value.id == "math"):
                found.append(f"math.{f.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point_calls(path):
    assert float_calls(path.read_text()) == []


def test_checker_flags_floating_point_calls():
    src = ("import math\nx = float('1.5')\ny = math.log2(8) + math.log(2)\n"
           "z = math.floor(1) + math.comb(4, 2)\nlog = print\nlog(x)\n")
    assert float_calls(src) == ["float (line 2)", "math.log2 (line 3)", "math.log (line 3)"]
