"""No public code in ``src/repro`` that only its own tests run or set.

Three AST scans look outside ``tests/``: in the other modules of the
package, in ``scripts``, ``flamesbench`` and ``examples``, and in the
rest of the defining module.

* **Names.**  Every public top-level function and class must be
  referenced somewhere outside its own body.
* **Members.**  Every public method and property of every class (not a
  dunder, not ``_private``) must be read as an attribute (``obj.name``)
  or named by a string literal (``getattr(obj, "name")``) somewhere
  outside its own body.  A bare local or a keyword of the same name is
  not a reference.
* **Settings.**  Every defaulted parameter of a public function or
  method, in the package or in ``scripts``, must be passed by some call
  *of that callable*: ``f(...)`` or ``obj.f(...)`` by its own name;
  for ``__init__``, the class or a subclass that inherits it by name,
  ``cls(...)`` in a class body, or ``super().__init__(...)`` from a
  subclass; ``functools.partial(f, ...)`` counts as a call of ``f``.
  The call passes the setting by keyword or with enough positional
  arguments to reach it.  A call that splats ``*args`` or ``**kwargs``
  counts as passing everything, and so does a callable handed on as a
  value (``run_in_executor(None, self.fleet.poll_once)``), since the
  scan cannot follow it to its call.

A name nothing references is code no caller runs: delete it, or move it
under ``tests/`` if a test needs it as an oracle.  A setting no caller
passes is a constant: make it one, in the module that reads it, and let
tests monkeypatch the constant.

Callees are still matched by name, not by type, so the scans err
towards "referenced".  What they cannot see is a dead member whose name
is also defined on another class (50 public member names in the
package are, ``snapshot`` on eleven classes): a read of the live one,
or a call passing a keyword to it, keeps the dead one too.  Such code
is found by reading, not by this guard.
"""

import ast
import functools
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SCRIPTS = ROOT / "scripts"
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
    "RunContext(clock=)": "test seam: a fake clock expires deadlines deterministically",
    "RunContext(step_budget=)": "test seam: a work-count budget interrupts a run reproducibly",
    "DiagnosisServer(engine=)": "test seam: server tests hand in a prepared or stubbed FleetEngine",
    "StoreMaintenance(clock=)": "test seam: a fake clock paces the lifecycle ticks",
    "StoreMaintenance(seed=)": "test seam: a fixed seed makes the backoff jitter reproducible",
    "StoreMaintenance.maybe_tick(now=)": "test seam: ticks at a chosen instant, no sleeping",
    "TokenBucketQuota(clock=)": "test seam: a fake clock refills the buckets deterministically",
    "TenantRegistry(clock=)": "test seam: a fake clock expires the tenant cache deterministically",
    "DiagnosisStore.resolve_api_key(now=)": "test seam: checks key expiry at a chosen instant",
    "DiagnosisStore.rotate_key(now=)": "test seam: rotates at a chosen instant to test the overlap",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.lru_cache(maxsize=None)
def _modules():
    return {path: _parse(path) for path in sorted(PACKAGE.rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def _scripts():
    return {path: _parse(path) for path in sorted(SCRIPTS.rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def _callers():
    return (*_scripts().values(), *(
        _parse(path)
        for directory in CALLERS
        if directory != "scripts"
        for path in sorted((ROOT / directory).rglob("*.py"))
    ))


def _walk(tree, skip=None):
    """Every node of ``tree``, leaving out the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _identifiers(tree, skip=None):
    """``Name`` ids and attribute names used in ``tree``, outside ``skip``."""
    names = set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _attributes(tree, skip=None):
    """Attribute names and string literals used in ``tree``, outside ``skip``."""
    names = set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _elsewhere(modules, callers, collect):
    """Per module: what ``collect`` finds in every other module and caller."""
    found = {path: collect(tree) for path, tree in modules.items()}
    outside = set().union(*(collect(tree) for tree in callers))
    return {
        path: outside.union(*(names for other, names in found.items() if other != path))
        for path in found
    }


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


def unreferenced_names(modules, callers):
    """(path, def, name) for each public top-level def nothing else names."""
    elsewhere = _elsewhere(modules, callers, _identifiers)
    for path, tree in modules.items():
        for node in _top_level_defs(tree):
            if not _is_public(node.name) or node.name in elsewhere[path]:
                continue
            if node.name not in _identifiers(tree, node):
                yield path, node, node.name


def unreferenced_members(modules, callers):
    """(path, def, "Class.member") for each public member nothing else reads."""
    elsewhere = _elsewhere(modules, callers, _attributes)
    for path, tree in modules.items():
        for cls in _classes(tree):
            for method in _methods(cls):
                if not _is_public(method.name) or method.name in elsewhere[path]:
                    continue
                if method.name not in _attributes(tree, method):
                    yield path, method, f"{cls.name}.{method.name}"


def _base_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Hierarchy:
    """Which class's ``__init__`` a construction by name or ``super()`` runs."""

    def __init__(self, trees):
        self.bases = {}
        self.has_init = set()
        self.functions = set()
        for tree in trees:
            self.functions.update(
                node.name
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
            for cls in _classes(tree):
                bases = [_base_name(base) for base in cls.bases]
                self.bases.setdefault(cls.name, []).extend(b for b in bases if b)
                if any(method.name == "__init__" for method in _methods(cls)):
                    self.has_init.add(cls.name)

    def owner(self, name, seen=()):
        """The class whose ``__init__`` ``name(...)`` runs, or None."""
        if name not in self.bases or name in seen:
            return None
        if name in self.has_init:
            return name
        for base in self.bases[name]:
            found = self.owner(base, (*seen, name))
            if found:
                return found
        return None

    def super_owner(self, name):
        """The class whose ``__init__`` ``super().__init__`` in ``name`` runs."""
        for base in self.bases.get(name, ()):
            found = self.owner(base, (name,))
            if found:
                return found
        return None


class _Calls(ast.NodeVisitor):
    """What the calls in a set of trees pass to each callee.

    ``passed`` maps a callee (a function or method name, or the class
    whose ``__init__`` runs) to (keywords, most positional arguments,
    passes everything).
    """

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy
        self.passed = {}
        self.cls = None

    def _key(self, name):
        """Constructions count for the class that owns the ``__init__``."""
        if name in self.hierarchy.bases:
            return self.hierarchy.owner(name)
        return name

    def _record(self, key, positional=0, keywords=(), everything=False):
        if key is None:
            return
        known, reach, splat = self.passed.get(key, (frozenset(), 0, False))
        self.passed[key] = (known | set(keywords), max(reach, positional), splat or everything)

    def _call(self, func, args, keywords):
        if isinstance(func, ast.Name):
            key = self._key(self.cls if func.id == "cls" and self.cls else func.id)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _base_name(func.value.func) == "super"
        ):
            key = self.hierarchy.super_owner(self.cls)
        elif isinstance(func, ast.Attribute):
            key = self._key(func.attr)
        else:
            return
        splat = any(kw.arg is None for kw in keywords) or any(
            isinstance(arg, ast.Starred) for arg in args
        )
        self._record(key, len(args), (kw.arg for kw in keywords if kw.arg), splat)

    def visit_Call(self, node):
        func, args = node.func, node.args
        name = _base_name(func)
        if name in ("isinstance", "issubclass"):
            # A class tested against is not constructed.
            args = args[:1]
        elif name == "partial" and args:
            self._call(args[0], args[1:], node.keywords)
            func, args = args[0], args[1:]
        else:
            self._call(func, args, node.keywords)
        if isinstance(func, ast.Attribute):
            self._receiver(func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        for child in (*args, *node.keywords):
            self.visit(child)

    def visit_Name(self, node):
        # A callable read as a value is called where the scan cannot see.
        # Only functions and classes are read by bare name; a local that
        # shares a method's name is not that method.
        named = node.id in self.hierarchy.functions or node.id in self.hierarchy.bases
        if named and isinstance(node.ctx, ast.Load):
            self._record(self._key(node.id), everything=True)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._record(self._key(node.attr), everything=True)
        self._receiver(node.value)

    def _receiver(self, node):
        # ``Cls.method`` or ``module.f`` reads the attribute, not the class.
        if not isinstance(node, ast.Name):
            self.visit(node)

    def _decorate(self, decorators):
        # ``@d`` calls ``d`` with the decorated callable.
        for decorator in decorators:
            self._call(decorator, [decorator], [])
            if not isinstance(decorator, ast.Name):
                self.visit(decorator)

    def visit_ClassDef(self, node):
        # Bases and keywords name a class without constructing it.
        self._decorate(node.decorator_list)
        outer, self.cls = self.cls, node.name
        for statement in node.body:
            self.visit(statement)
        self.cls = outer

    def visit_FunctionDef(self, node):
        # Annotations name a class without constructing it.
        self._decorate(node.decorator_list)
        for default in (*node.args.defaults, *node.args.kw_defaults):
            if default is not None:
                self.visit(default)
        for statement in node.body:
            self.visit(statement)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def visit_ExceptHandler(self, node):
        for statement in node.body:
            self.visit(statement)


def _callables(tree, methods=True):
    """Public functions and methods: (label, callee key, def, self offset)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            yield node.name, node.name, node, 0
    if not methods:
        return
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


def unset_settings(modules, callers, functions=None):
    """(path, def, "callable(setting=)") for each setting no call passes.

    ``modules`` are scanned for functions and methods, ``functions``
    (default none) for top-level functions only; calls count from
    ``modules`` and ``callers``, which hold the trees of ``functions``.
    """
    functions = functions or {}
    trees = [*modules.values(), *callers]
    calls = _Calls(_Hierarchy(trees))
    for tree in trees:
        calls.visit(tree)
    scanned = [(path, tree, True) for path, tree in modules.items()]
    scanned += [(path, tree, False) for path, tree in functions.items()]
    for path, tree, methods in scanned:
        for label, callee, function, offset in _callables(tree, methods):
            keywords, reach, everything = calls.passed.get(callee, (frozenset(), 0, False))
            if everything:
                continue
            for parameter, position in _defaulted(function):
                if parameter in keywords:
                    continue
                if position is not None and reach + offset > position:
                    continue
                yield path, function, f"{label}({parameter}=)"


def _entries(found):
    return tuple(f"{path.relative_to(ROOT)}:{node.lineno} {label}" for path, node, label in found)


@functools.lru_cache(maxsize=None)
def unreferenced_public_names():
    return _entries(unreferenced_names(_modules(), _callers()))


@functools.lru_cache(maxsize=None)
def unreferenced_public_members():
    return _entries(unreferenced_members(_modules(), _callers()))


@functools.lru_cache(maxsize=None)
def unset_public_settings():
    return _entries(unset_settings(_modules(), _callers(), _scripts()))


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


def _scan(scan, source, callers=""):
    """Labels ``scan`` reports for one module and one caller, both in source."""
    module = {ROOT / "m.py": ast.parse(textwrap.dedent(source))}
    return [label for _, _, label in scan(module, (ast.parse(textwrap.dedent(callers)),))]


def test_a_keyword_counts_only_for_its_own_callee():
    module = """
        def run(limit=10):
            return limit

        def other(limit=5):
            return limit
        """
    assert _scan(unset_settings, module, "other(limit=1)\nrun()\n") == ["run(limit=)"]


def test_partial_super_and_subclass_construction_pass_settings():
    module = """
        import functools

        def fetch(timeout=1.0):
            return timeout

        class Base:
            def __init__(self, size=1, name="b"):
                self.size, self.name = size, name

        class Child(Base):
            def __init__(self):
                super().__init__(size=2)

        class Inherits(Base):
            pass

        TASK = functools.partial(fetch, timeout=2.0)
        """
    assert _scan(unset_settings, module, "Child()\nInherits(name='i')\n") == []


def test_a_callable_passed_as_a_value_passes_everything():
    module = """
        class Fleet:
            def poll_once(self, budget=3):
                return budget

        def start(loop, fleet):
            return loop.run_in_executor(None, fleet.poll_once)
        """
    assert _scan(unset_settings, module, "start(None, Fleet())\n") == []


def test_a_bare_local_does_not_keep_a_member():
    module = """
        class Engine:
            def estimates(self):
                return {}

            def run(self):
                estimates = {}
                return estimates
        """
    assert _scan(unreferenced_members, module, "Engine().run(snapshot=None)\n") == [
        "Engine.estimates"
    ]
