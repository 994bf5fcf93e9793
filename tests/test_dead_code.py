"""Dead-code checks over src/veryfree, read with `ast`.

Every module-level `_private` function must be referenced somewhere in
src/ outside its own body, every module-level `_private` name an
assignment binds must be read somewhere in src/, every name a module
imports must be used in that module, and every parameter of a function
or lambda other than `self` and `cls` must be read in its body.
`__init__.py` is exempt from the import check: its imports are the
package's public re-exports.  Raw field values are the one value
format inside the package, so no module but `fields` calls
`Scalar(...)`, and `fields.Scalar` defines no arithmetic method: a
Scalar only hands a value in, and the field's raw ops compute.  Every
parameter with a default must be set by some call in src/ or bench/,
or it is an option only tests use, and left unset by some call in
src/, tests/ or bench/, or it is a default nothing relies on.  Imports
sit at module level, where the import graph can be read at a glance;
none is made inside a function body.  Every top-level definition is
reached by some chain of references from the entry points, the command
line (`cli.main`) and the benchmark workloads, or only tests run it,
and so is every method and class-level name other than a dunder: some
reached code reads its name as an attribute.  The test modules use
every name they import.
"""
import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "veryfree"


def _modules(directory=SRC):
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


def _references(tree):
    """How often each name is read in tree, as a Name or an attribute."""
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def _dead_private_functions(modules):
    """`module:line name` of each module-level _private function that no
    code outside its own body refers to."""
    refs = sum((_references(tree) for tree in modules.values()),
               collections.Counter())
    dead = []
    for name, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and refs[node.name] <= _references(node)[node.name]):
                dead.append(f"{name}:{node.lineno} {node.name}")
    return dead


def _unread_private_names(modules):
    """`module:line name` of each module-level _private name that an
    assignment binds and no code in modules reads, as a Name or an
    attribute."""
    read = {getattr(node, "id", None) or node.attr
            for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for name, tree in modules.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            unread += [f"{name}:{node.lineno} {t.id}" for target in targets
                       for t in ast.walk(target)
                       if isinstance(t, ast.Name) and t.id.startswith("_")
                       and not t.id.startswith("__") and t.id not in read]
    return unread


def _unused_imports(modules):
    """`module:line name` of each imported name its module never reads."""
    unused = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        used = _references(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    return unused


def _unused_parameters(modules):
    """`module:line function(parameter)` of each parameter, other than
    self and cls, that its function or lambda never reads (a read in a
    nested function counts)."""
    unused = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            fn = getattr(node, "name", "<lambda>")
            unused += [f"{name}:{p.lineno} {fn}({p.arg})" for p in params
                       if p.arg not in {"self", "cls"} | read]
    return unused


def _scalar_calls(modules):
    """`module:line` of each `Scalar(...)` call, by name or as an
    attribute, outside fields.py."""
    return [f"{name}:{node.lineno}" for name, tree in modules.items()
            if name != "fields.py" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "Scalar"
                 or getattr(node.func, "attr", None) == "Scalar")]


_ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__neg__", "__pow__", "inverse"}


def _scalar_arithmetic(modules):
    """`fields.py:line name` of each arithmetic method that the class
    `Scalar` in fields.py defines or binds."""
    tree = modules.get("fields.py", ast.Module(body=[]))
    found = []
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "Scalar":
            for node in cls.body:
                names = ([node.name] if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)) else
                         [t.id for t in getattr(node, "targets", [])
                          if isinstance(t, ast.Name)])
                found += [f"fields.py:{node.lineno} {n}" for n in names
                          if n in _ARITHMETIC]
    return found


def _local_imports(modules):
    """`module:line` of each import inside a function body, nested
    functions included, each once."""
    return sorted({f"{name}:{node.lineno}" for name, tree in modules.items()
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def _reach(modules, entries):
    """(definitions, reached, roots) for the name-reference closure over
    the top-level definitions of modules (a function, a class or a name
    an assignment binds): `definitions` maps each name to its
    (module, node) pairs, `roots` holds the trees the chains start at,
    the trees of entries and the module-level statements of modules that
    are neither definitions nor imports, such as cli's
    `sys.exit(main())`, and `reached` holds every name a chain reaches.
    A reached definition reads every name in it.  Names match by
    spelling alone, in any module."""
    defs = collections.defaultdict(list)
    roots = list(entries)
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs[node.name].append((name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name):
                            defs[t.id].append((name, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append(node)
    todo = set().union(*map(_references, roots))
    reached = set()
    while todo:
        reached |= todo
        todo = set().union(*(_references(node) for n in todo
                             for _, node in defs.get(n, ()))) - reached
    return defs, reached, roots


def _unreached_definitions(modules, entries):
    """`module:line name` of each top-level definition of modules that no
    chain of references from the entry points reaches (`_reach`)."""
    defs, reached, _ = _reach(modules, entries)
    return sorted(f"{name}:{node.lineno} {n}" for n, found in defs.items()
                  if n not in reached for name, node in found)


def _attribute_reads(tree):
    """How often each name is read in tree as an attribute."""
    return collections.Counter(node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute))


def _unread_members(modules, entries):
    """`module:line Class.member` of each method or class-level name,
    other than a dunder, of a top-level class of modules whose name no
    reached code (`_reach`) reads as an attribute outside the member's
    own body.  Names match by spelling alone, so a member that shares
    its name with an attribute read elsewhere is not seen."""
    defs, reached, roots = _reach(modules, entries)
    reads = sum((_attribute_reads(node) for node in roots + [
        node for n in reached for _, node in defs.get(n, ())]),
        collections.Counter())
    unread = []
    for name, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                else:
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target]
                               if isinstance(node, ast.AnnAssign) else [])
                    names = [t.id for target in targets
                             for t in ast.walk(target)
                             if isinstance(t, ast.Name)]
                unread += [f"{name}:{node.lineno} {cls.name}.{n}"
                           for n in names if not n.startswith("__")
                           and reads[n] <= _attribute_reads(node)[n]]
    return unread


def _callers():
    """Every module of src/, tests/ and bench/, keyed by its path."""
    return {str(path.relative_to(ROOT)): ast.parse(path.read_text(),
                                                   str(path))
            for d in ("src", "tests", "bench")
            for path in sorted((ROOT / d).rglob("*.py"))}


def _defaulted_parameters(tree):
    """(callee name, label, index of the first positional argument or
    None, parameter) for each parameter with a default; a method's
    callee name is its own, an `__init__`'s its class's, and the
    positional index skips `self` and `cls`."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, None)
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                name = child.name
                label = name if cls is None else f"{cls.name}.{name}"
                if cls is not None and name == "__init__":
                    name = label = cls.name
                first = len(positional) - len(a.defaults)
                found.extend((name, label, i - skip, p)
                             for i, p in enumerate(positional) if i >= first)
                found.extend((name, label, None, p) for p, d in
                             zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None)
            else:
                visit(child, cls)
    visit(tree, None)
    return found


def _name_of(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _option_calls(modules, callers):
    """(`module:line function(parameter)`, verdicts) for each parameter
    with a default, with one verdict per call in `callers` of that
    callee name: True if it sets the parameter, positionally or by
    keyword, None if it passes *args or **kwargs, else False.  A call
    through a name bound to another, as `L = _laurent`, counts for
    both."""
    aliases = collections.defaultdict(set)
    for tree in callers.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _name_of(node.value):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        aliases[t.id].add(_name_of(node.value))
    calls = collections.defaultdict(list)
    for tree in callers.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _name_of(node.func)
                star = any(isinstance(x, ast.Starred) for x in node.args) \
                    or any(k.arg is None for k in node.keywords)
                for callee in {name} | aliases[name]:
                    calls[callee].append((star, len(node.args),
                                          {k.arg for k in node.keywords}))
    for name, tree in modules.items():
        for callee, label, index, p in _defaulted_parameters(tree):
            yield f"{name}:{p.lineno} {label}({p.arg})", [
                None if star else p.arg in keys
                or (index is not None and nargs > index)
                for star, nargs, keys in calls[callee]]


def _unset_options(modules, callers):
    """Each parameter with a default that no call outside tests/ sets: an
    option that only tests use, or nothing."""
    program = {path: tree for path, tree in callers.items()
               if not path.startswith("tests/")}
    return [where for where, verdicts in _option_calls(modules, program)
            if all(v is False for v in verdicts)]


def _always_set_options(modules, callers):
    """Each parameter with a default that some call and every call sets:
    a default that nothing relies on."""
    return [where for where, verdicts in _option_calls(modules, callers)
            if verdicts and all(v is True for v in verdicts)]


def _entries():
    return [ast.parse((ROOT / "bench" / "workloads.py").read_text())]


def test_definitions_are_reached_from_the_entry_points():
    assert _unreached_definitions(_modules(), _entries()) == []


def test_class_members_are_read_from_the_entry_points():
    assert _unread_members(_modules(), _entries()) == []


def test_private_functions_are_referenced():
    assert _dead_private_functions(_modules()) == []


def test_private_names_are_read():
    assert _unread_private_names(_modules()) == []


def test_imported_names_are_used():
    assert _unused_imports(_modules()) == []


def test_test_modules_use_their_imports():
    assert _unused_imports(_modules(ROOT / "tests")) == []


def test_parameters_are_read():
    assert _unused_parameters(_modules()) == []


def test_defaulted_parameters_are_set_somewhere():
    assert _unset_options(_modules(), _callers()) == []


def test_defaults_are_relied_on_somewhere():
    assert _always_set_options(_modules(), _callers()) == []


def test_scalars_are_made_only_in_fields():
    assert _scalar_calls(_modules()) == []


def test_scalars_do_not_compute():
    assert _scalar_arithmetic(_modules()) == []


def test_imports_are_at_module_level():
    assert _local_imports(_modules()) == []


def test_import_check_catches_planted_local_imports():
    planted = {
        "a.py": ast.parse("import os\n"
                          "class C:\n"
                          "    from x import y\n"
                          "    def m(self):\n"
                          "        import sys\n"
                          "        def g():\n"
                          "            from . import z\n"
                          "        return sys, g\n"
                          "async def h():\n"
                          "    import json\n"),
    }
    assert _local_imports(planted) == ["a.py:10", "a.py:5", "a.py:7"]


def test_scalar_check_catches_planted_calls():
    planted = {
        "fields.py": ast.parse("class Scalar:\n"
                               "    pass\n"
                               "def one(F):\n"
                               "    return Scalar(F, 1)\n"),
        "a.py": ast.parse("from . import fields\n"
                          "from .fields import Scalar\n"
                          "def f(F, c):\n"
                          "    s = F.from_raw(c)\n"
                          "    return Scalar(F, c), fields.Scalar(F, c), s\n"
                          "isinstance(1, Scalar)\n"),
    }
    assert _scalar_calls(planted) == ["a.py:5", "a.py:5"]


def test_arithmetic_check_catches_planted_scalar_methods():
    planted = {
        "fields.py": ast.parse("class FieldSpec:\n"
                               "    def __mul__(self, other):\n"
                               "        pass\n"
                               "class Scalar:\n"
                               "    def __eq__(self, other):\n"
                               "        pass\n"
                               "    def __mul__(self, other):\n"
                               "        pass\n"
                               "    __rmul__ = __mul__\n"
                               "    def inverse(self):\n"
                               "        pass\n"),
        "a.py": ast.parse("class Scalar:\n"
                          "    def __add__(self, other):\n"
                          "        pass\n"),
    }
    assert _scalar_arithmetic(planted) == [
        "fields.py:7 __mul__", "fields.py:9 __rmul__", "fields.py:10 inverse"]


def test_checks_catch_planted_dead_code():
    planted = {
        "a.py": ast.parse("from __future__ import annotations\n"
                          "import os\n"
                          "from x import y, z\n"
                          "def _orphan():\n"
                          "    return _orphan()\n"
                          "def _used():\n"
                          "    return z\n"),
        "b.py": ast.parse("from a import _used\n"
                          "_used()\n"),
        "__init__.py": ast.parse("from a import y\n"),
    }
    assert _dead_private_functions(planted) == ["a.py:4 _orphan"]
    assert _unused_imports(planted) == ["a.py:2 os", "a.py:3 y"]


def test_import_check_catches_planted_test_imports():
    planted = {
        "test_a.py": ast.parse("import pytest\n"
                               "import veryfree.poly\n"
                               "from helpers import F7, QQ\n"
                               "from veryfree.fields import make_field\n"
                               "def test_x():\n"
                               "    assert veryfree.poly and F7 is not QQ\n"),
    }
    assert _unused_imports(planted) == ["test_a.py:1 pytest",
                                        "test_a.py:4 make_field"]


def test_name_check_catches_planted_unread_names():
    planted = {
        "a.py": ast.parse("_unread = 1\n"
                          "_read, (_pair, __dunder__) = 2, (3, 4)\n"
                          "_typed: int = 5\n"
                          "public = _read\n"),
        "b.py": ast.parse("from . import a\n"
                          "a._pair\n"),
    }
    assert _unread_private_names(planted) == ["a.py:1 _unread",
                                              "a.py:3 _typed"]


def test_parameter_check_catches_planted_unused_parameters():
    planted = {
        "a.py": ast.parse("class C:\n"
                          "    def m(self, x, y):\n"
                          "        return x\n"
                          "    @classmethod\n"
                          "    def k(cls, *args, **kw):\n"
                          "        return kw\n"
                          "def f(a, b=1, *, c):\n"
                          "    def g():\n"
                          "        return a + c\n"
                          "    return g()\n"
                          "h = lambda u, v: u\n"),
    }
    assert set(_unused_parameters(planted)) == {
        "a.py:2 m(y)", "a.py:5 k(args)", "a.py:7 f(b)",
        "a.py:11 <lambda>(v)"}


def test_option_check_catches_planted_unset_defaults():
    planted = {
        "a.py": ast.parse("class C:\n"
                          "    def __init__(self, x, y=0, z=0):\n"
                          "        pass\n"
                          "    def m(self, u=1, *, v=2):\n"
                          "        pass\n"
                          "    @staticmethod\n"
                          "    def s(w=3):\n"
                          "        pass\n"
                          "def f(a, b=1, c=2, *, d=3, e=4):\n"
                          "    pass\n"
                          "def g(h=5):\n"
                          "    pass\n"),
    }
    callers = {
        "src/t.py": ast.parse("C(1, 2)\n"
                              "C(0).m(v=1)\n"
                              "C.s(0)\n"
                              "F = f\n"
                              "F(0, 1, e=2)\n"
                              "g(**{})\n"),
        "tests/test_t.py": ast.parse("C(0).m(1)\n"
                                     "f(0, c=1)\n"),
    }
    assert _unset_options(planted, callers) == [
        "a.py:2 C(z)", "a.py:4 C.m(u)", "a.py:9 f(c)", "a.py:9 f(d)"]


def test_option_check_catches_planted_defaults_every_call_sets():
    planted = {
        "a.py": ast.parse("class C:\n"
                          "    def m(self, u=1, *, v=2):\n"
                          "        pass\n"
                          "def f(a, b=1, *, c=2):\n"
                          "    pass\n"
                          "def g(h=5):\n"
                          "    pass\n"
                          "def k(w=0):\n"
                          "    pass\n"),
    }
    callers = {
        "t.py": ast.parse("C().m(0, v=1)\n"
                          "C().m(u=2, v=3)\n"
                          "f(0, 1, c=2)\n"
                          "f(0, c=3)\n"
                          "g(1)\n"
                          "g(**{})\n"),
    }
    assert _always_set_options(planted, callers) == [
        "a.py:2 C.m(u)", "a.py:2 C.m(v)", "a.py:4 f(c)"]
    assert _unset_options(planted, callers) == ["a.py:8 k(w)"]


def test_member_check_catches_planted_unread_members():
    planted = {
        "a.py": ast.parse("class C:\n"
                          "    LIMIT = 3\n"
                          "    TAGS = ()\n"
                          "    def __init__(self):\n"
                          "        self.n = self.LIMIT\n"
                          "    def used(self):\n"
                          "        return self.helper()\n"
                          "    def helper(self):\n"
                          "        return 1\n"
                          "    def orphan(self):\n"
                          "        return self.orphan()\n"
                          "    def shared(self):\n"
                          "        pass\n"
                          "class Unused:\n"
                          "    def m(self):\n"
                          "        pass\n"),
        "b.py": ast.parse("def run(x):\n"
                          "    orphan = TAGS = 1\n"
                          "    return x.shared, orphan, TAGS\n"),
    }
    entries = [ast.parse("from a import C\n"
                         "from b import run\n"
                         "run(C().used())\n")]
    assert _unread_members(planted, entries) == [
        "a.py:3 C.TAGS", "a.py:10 C.orphan", "a.py:15 Unused.m"]


def test_reachability_check_catches_planted_unreached_definitions():
    planted = {
        "a.py": ast.parse("import sys\n"
                          "LIMIT = 3\n"
                          "TAGS = (LIMIT,)\n"
                          "def main():\n"
                          "    return helper()\n"
                          "def helper():\n"
                          "    return LIMIT\n"
                          "def orphan():\n"
                          "    return orphan() + helper()\n"
                          "class Used:\n"
                          "    def m(self):\n"
                          "        return b.run()\n"
                          "if __name__ == '__main__':\n"
                          "    sys.exit(main())\n"),
        "b.py": ast.parse("def run():\n"
                          "    pass\n"
                          "class Unused:\n"
                          "    pass\n"),
    }
    entries = [ast.parse("from a import Used\n"
                         "Used().m()\n")]
    assert _unreached_definitions(planted, entries) == [
        "a.py:3 TAGS", "a.py:8 orphan", "b.py:3 Unused"]
