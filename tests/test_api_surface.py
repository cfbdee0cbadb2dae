"""Every public function and class of the package has a caller in `src/`.

API that only the tests use belongs with the tests (`reference.py`).  A
reference is a name or attribute in the code of another definition or of
module-level statements; imports, `__all__` strings and docstrings do not
count, and neither do uses inside the definition itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tracebench"


def _modules():
    return {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}


def _public_definitions(trees):
    """(module path, name, node) of each public top-level def or class."""
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((path, node.name, node))
    return out


def _references(tree, skip):
    """Names used in `tree` outside the subtree `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_collector_sees_the_pipeline():
    names = {name for _, name, _ in _public_definitions(_modules())}
    assert {"enumerate_classes", "solve_spectrum", "Representation",
            "spectral_side", "main"} <= names


def test_every_public_definition_has_a_caller_in_src():
    trees = _modules()
    unused = []
    for path, name, node in _public_definitions(trees):
        if not any(name in _references(tree, node) for tree in trees.values()):
            unused.append("%s:%s" % (path.relative_to(SRC), name))
    assert unused == [], "public API with no caller in src/: %s" % unused
