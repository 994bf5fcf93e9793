"""Guard inventory over src/veryfree, read with `ast`.

A consistency guard is a `raise IntegrityError(...)` or
`raise MonadError(...)`.  Each one must be named by some test: the
leading literal text of its message up to its first colon or
semicolon, or for a message that starts with a formatted value the
literal text after it, appears in a string literal of a test module,
regex escapes removed.  A guard no test names is one no test is known
to reach.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
GUARDS = {"IntegrityError", "MonadError"}


def _parse(paths):
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in paths}


def _literal_chunks(node):
    """The literal text of a message expression, split where a value is
    formatted in or added."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        chunks = [""]
        for part in node.values:
            if isinstance(part, ast.Constant):
                chunks[-1] += part.value
            else:
                chunks.append("")
        return chunks
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = _literal_chunks(node.left), _literal_chunks(node.right)
        return left[:-1] + [left[-1] + right[0]] + right[1:]
    return ["", ""]


def _guard_keys(modules):
    """(`module:line`, key) for each guard, in line order: the first
    nonblank literal chunk of its message up to a colon or semicolon,
    stripped, or "" when it has none."""
    keys = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) in GUARDS):
                chunks = (_literal_chunks(node.exc.args[0])
                          if node.exc.args else [])
                key = next((c for c in chunks if c.strip()), "")
                keys.append((name, node.lineno,
                             re.split("[:;]", key)[0].strip()))
    return [(f"{name}:{line}", key) for name, line, key in sorted(keys)]


def _unnamed_guards(modules, tests):
    """`module:line 'key'` of each guard whose key no string literal of
    the test modules contains."""
    text = [node.value.replace("\\", "") for tree in tests.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return [f"{where} {key!r}" for where, key in _guard_keys(modules)
            if not key or not any(key in t for t in text)]


def test_every_guard_is_named_by_a_test():
    modules = _parse(sorted((ROOT / "src" / "veryfree").glob("*.py")))
    tests = _parse(path for path in sorted((ROOT / "tests").glob("*.py"))
                   if path.name != pathlib.Path(__file__).name)
    assert len(_guard_keys(modules)) >= 31
    assert _unnamed_guards(modules, tests) == []


def test_inventory_catches_planted_unnamed_guards():
    planted = {
        "a.py": ast.parse(
            "def f(x, n):\n"
            "    if x:\n"
            "        raise IntegrityError('named guard')\n"
            "    if n:\n"
            "        raise MonadError(f'{n} lines meet '\n"
            "                         f'at {x}')\n"
            "    if x > n:\n"
            "        raise IntegrityError('h^0 failed at ' + str(n))\n"
            "    if x < n:\n"
            "        raise IntegrityError(str(n))\n"
            "    raise ValueError('not a guard')\n"
            "def g(n):\n"
            "    raise IntegrityError(f'unnamed at {n}')\n"),
    }
    tests = {
        "t.py": ast.parse(
            "MATCH = r'h\\^0 failed at 3'\n"
            "def test_f(n):\n"
            "    assert f'{n} lines meet at' and 'a named guard'\n"),
    }
    assert _guard_keys(planted) == [
        ("a.py:3", "named guard"), ("a.py:5", "lines meet at"),
        ("a.py:8", "h^0 failed at"), ("a.py:10", ""),
        ("a.py:13", "unnamed at")]
    assert _unnamed_guards(planted, tests) == ["a.py:10 ''",
                                               "a.py:13 'unnamed at'"]
