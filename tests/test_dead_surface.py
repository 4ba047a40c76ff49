"""No public code in ``src/repro`` that only its own tests run.

An AST scan lists every public top-level function and class of the
package and looks for a reference to its name anywhere outside
``tests/``: in another module of the package, in ``scripts``,
``flamesbench`` or ``examples``, or elsewhere in its own module (outside
its own body).  A name nothing references is code no caller runs;
delete it, or move it under ``tests/`` if a test needs it as an oracle.
Names are matched as plain identifiers (``Name`` and attribute nodes),
so the scan errs towards "referenced".
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("scripts", "flamesbench", "examples")

#: Public names kept without a non-test caller, each for a stated reason.
ALLOWED = {
    "threshold_rule": "the paper's section-5 threshold rules; the rule layer's only factory",
    "clear_models": "test seam: empties the per-process model cache between tests",
    "fire_counts": "test seam: how often each armed fault point fired",
    "StaticFleet": "the seam by which the gateway tests route to in-process replicas",
}


def _top_level_defs(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def _referenced_names(tree, skip=None):
    """Identifiers used in ``tree``, ignoring the subtree ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.lru_cache(maxsize=None)
def unreferenced_public_names():
    modules = {path: _parse(path) for path in sorted(PACKAGE.rglob("*.py"))}
    outside = set()
    for directory in CALLERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside |= _referenced_names(_parse(path))
    module_refs = {path: _referenced_names(tree) for path, tree in modules.items()}

    dead = []
    for path, tree in modules.items():
        others = set(outside)
        for other, refs in module_refs.items():
            if other != path:
                others |= refs
        for node in _top_level_defs(tree):
            if node.name.startswith("_") or node.name in others:
                continue
            own = set()
            for sibling in tree.body:
                if sibling is not node:
                    own |= _referenced_names(sibling)
            if node.name not in own:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return tuple(dead)


def test_every_public_name_has_a_caller_outside_tests():
    dead = [
        entry for entry in unreferenced_public_names()
        if entry.rsplit(" ", 1)[1] not in ALLOWED
    ]
    assert dead == [], "public code that only tests reference:\n" + "\n".join(dead)


def test_allowlist_is_not_stale():
    """Each allowlisted name still exists and still lacks a caller."""
    names = {entry.rsplit(" ", 1)[1] for entry in unreferenced_public_names()}
    assert set(ALLOWED) <= names
