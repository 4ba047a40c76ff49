"""No public code in ``src/repro`` that only its own tests run or set.

Three AST scans look outside ``tests/``: in the other modules of the
package, in ``scripts``, ``flamesbench`` and ``examples``, and in the
rest of the defining module.

* **Names.**  Every public top-level function and class must be
  referenced somewhere outside its own body.
* **Members.**  Every public method and property of every class (not a
  dunder, not ``_private``) must be referenced somewhere outside its
  own body.
* **Settings.**  Every defaulted parameter of a public function or
  method must be passed by some call: a keyword argument of its name,
  or a call to a function of its name (the class name for
  ``__init__``) with enough positional arguments to reach it.  A call
  that splats ``*args`` or ``**kwargs`` counts as passing everything.

A name nothing references is code no caller runs: delete it, or move it
under ``tests/`` if a test needs it as an oracle.  A setting no caller
passes is a constant: make it one, in the module that reads it, and let
tests monkeypatch the constant.

Names are matched as plain identifiers: ``Name`` and attribute nodes,
keyword-argument names and string literals (``getattr(obj, "name")``),
so the scans err towards "referenced".  That is also their blind spot:
a dead member whose name a live member of another class also uses
(``merge``, ``clear``, ``hard``) looks referenced, and so does a dead
setting whose name some other call passes.  Such code is found by
reading, not by this guard.
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

#: ``Class.member`` kept without a non-test caller, each for a stated reason.
ALLOWED_MEMBERS = {
    "KnowledgeBase.add_rule": "the paper's section-5 qualitative rules enter the rule base here",
    "KnowledgeBase.apply_rules": "the paper's section-5 qualitative rules fire here",
}

#: ``callable(setting=)`` kept without a non-test caller, each for a stated reason.
ALLOWED_SETTINGS = {
    "threshold_rule(above=)": "the paper's section-5 rule shape: which side of the threshold fires",
    "threshold_rule(certainty=)": "the paper's section-5 rule shape: the rule's certainty factor",
    "threshold_rule(softness=)": "the paper's section-5 rule shape: how fuzzy the threshold is",
    "ClusterGateway(fleet=)": "the seam through which the gateway tests pass a StaticFleet",
    "TroubleshootingSession.recommend_next(available=)": (
        "the paper's best-test step chooses among each available test"
    ),
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.lru_cache(maxsize=None)
def _modules():
    return {path: _parse(path) for path in sorted(PACKAGE.rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def _callers():
    return tuple(
        _parse(path)
        for directory in CALLERS
        for path in sorted((ROOT / directory).rglob("*.py"))
    )


def _walk(tree, skip=None):
    """Every node of ``tree``, leaving out the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _referenced_names(tree, skip=None, strings=False):
    """Identifiers used in ``tree``, ignoring the subtree ``skip``.

    With ``strings``, keyword-argument names and string literals count
    as references too.
    """
    names = set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


@functools.lru_cache(maxsize=None)
def _references_elsewhere(strings):
    """Per module: the identifiers every other module and caller uses."""
    refs = {path: _referenced_names(tree, strings=strings) for path, tree in _modules().items()}
    callers = set().union(*(_referenced_names(tree, strings=strings) for tree in _callers()))
    return {
        path: callers.union(*(names for other, names in refs.items() if other != path))
        for path in refs
    }


def _is_referenced(name, path, tree, skip, strings=False):
    """Whether ``name`` is used outside ``tests/`` and outside the subtree ``skip``."""
    if name in _references_elsewhere(strings)[path]:
        return True
    return name in _referenced_names(tree, skip, strings)


def _top_level_defs(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def _classes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _methods(cls):
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_public(name):
    return not name.startswith("_")


def _entry(path, node, label):
    return f"{path.relative_to(ROOT)}:{node.lineno} {label}"


@functools.lru_cache(maxsize=None)
def unreferenced_public_names():
    dead = []
    for path, tree in _modules().items():
        for node in _top_level_defs(tree):
            if not _is_public(node.name):
                continue
            if not _is_referenced(node.name, path, tree, node):
                dead.append(_entry(path, node, node.name))
    return tuple(dead)


@functools.lru_cache(maxsize=None)
def unreferenced_public_members():
    dead = []
    for path, tree in _modules().items():
        for cls in _classes(tree):
            for method in _methods(cls):
                if not _is_public(method.name):
                    continue
                if not _is_referenced(method.name, path, tree, method, strings=True):
                    dead.append(_entry(path, method, f"{cls.name}.{method.name}"))
    return tuple(dead)


def _calls(node, cls=None):
    """Every call under ``node``, as (callee name, call node)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name):
                # ``cls(...)`` in a class body is an alternate constructor.
                yield (cls if func.id == "cls" and cls else func.id), child
            elif isinstance(func, ast.Attribute):
                yield func.attr, child
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else cls)


@functools.lru_cache(maxsize=None)
def _call_index():
    """Callee name -> (keywords passed, most positional arguments, splats)."""
    index = {}
    trees = [*_modules().values(), *_callers()]
    for name, call in (found for tree in trees for found in _calls(tree)):
        keywords, positional, splat = index.get(name, (frozenset(), 0, False))
        keywords |= {kw.arg for kw in call.keywords if kw.arg}
        splat = splat or any(kw.arg is None for kw in call.keywords) or any(
            isinstance(arg, ast.Starred) for arg in call.args
        )
        index[name] = (keywords, max(positional, len(call.args)), splat)
    return index


def _callables(tree):
    """Public functions and methods: (label, callee name, def, self offset)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            yield node.name, node.name, node, 0
    for cls in _classes(tree):
        for method in _methods(cls):
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in method.decorator_list
            )
            offset = 0 if static else 1
            if method.name == "__init__":
                yield cls.name, cls.name, method, offset
            elif _is_public(method.name):
                yield f"{cls.name}.{method.name}", method.name, method, offset


def _defaulted(function):
    """(parameter, positional index or None) for each defaulted parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


@functools.lru_cache(maxsize=None)
def unset_public_settings():
    index = _call_index()
    keywords_anywhere = set()
    for keywords, _, _ in index.values():
        keywords_anywhere |= keywords
    dead = []
    for path, tree in _modules().items():
        for label, callee, function, offset in _callables(tree):
            _, reach, splat = index.get(callee, (frozenset(), 0, False))
            for parameter, position in _defaulted(function):
                if parameter in keywords_anywhere or splat:
                    continue
                if position is not None and reach + offset > position:
                    continue
                dead.append(_entry(path, function, f"{label}({parameter}=)"))
    return tuple(dead)


def _label(entry):
    return entry.rsplit(" ", 1)[1]


def test_every_public_name_has_a_caller_outside_tests():
    dead = [entry for entry in unreferenced_public_names() if _label(entry) not in ALLOWED]
    assert dead == [], "public code that only tests reference:\n" + "\n".join(dead)


def test_every_public_member_has_a_caller_outside_tests():
    dead = [
        entry for entry in unreferenced_public_members() if _label(entry) not in ALLOWED_MEMBERS
    ]
    assert dead == [], "public members that only tests reference:\n" + "\n".join(dead)


def test_every_setting_has_a_caller_outside_tests():
    dead = [entry for entry in unset_public_settings() if _label(entry) not in ALLOWED_SETTINGS]
    assert dead == [], "settings that only tests pass:\n" + "\n".join(dead)


def test_allowlist_is_not_stale():
    """Each allowlisted name still exists and still lacks a caller."""
    for allowed, found in (
        (ALLOWED, unreferenced_public_names()),
        (ALLOWED_MEMBERS, unreferenced_public_members()),
        (ALLOWED_SETTINGS, unset_public_settings()),
    ):
        assert set(allowed) <= {_label(entry) for entry in found}
