"""Guard: no public name in the package exists only for its own unit tests.

Every public top-level function, class or UPPER_CASE constant in
src/dualmodem must be used by the package itself, by the benchmark under
perfbench/, by the acceptance tests or in the README.  Assigning to a name,
or through it (`X.flags.writeable = False`), is not a use.  A reference form
the tests need lives under tests/ (see frame_reference.py).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualmodem"


def _assigned_names(node):
    """The Name nodes an assignment statement writes to or through."""
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, (ast.Attribute, ast.Subscript, ast.Starred)):
            targets.append(target.value)
        elif isinstance(target, ast.Name):
            yield target


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = [t.id for t in _assigned_names(node) if t.id.isupper()]
            for name in names:
                if not name.startswith("_"):
                    yield f"{path.stem}.{name}", name


def _used_names(path, strings=False):
    """Names, attribute names and imported names a Python file uses, plus
    identifier strings when `strings` is set (the benchmark wraps stages by
    their attribute names)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assigned = {id(name) for node in ast.walk(tree) for name in _assigned_names(node)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if id(node) not in assigned:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_public_name_has_a_user_outside_the_unit_tests():
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    used |= _used_names(ROOT / "tests" / "test_acceptance.py")
    for path in PACKAGE.glob("*.py"):
        used |= _used_names(path)
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _used_names(path, strings=True)
    unused = [qualified for qualified, name in _public_definitions() if name not in used]
    assert unused == []
