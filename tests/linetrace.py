"""Print the lines of src/veryfree that the test suite never runs.

    PYTHONPATH=src python3 tests/linetrace.py [pytest arguments]

runs pytest in this process under a `sys.settrace` line tracer, then
prints each executable line of src/veryfree that no test ran, as
`path:line  source`, and their count over the executable lines.  The
executable lines of a file are those its compiled code objects map an
instruction to.  With no arguments it runs the whole suite (`-q -p
no:cacheprovider tests`), which takes several minutes.  Code that
tests run in a subprocess is not seen.  The file name keeps pytest
from collecting it.
"""
import os
import pathlib
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "veryfree"


def executable_lines(path):
    """The line numbers that the code objects compiled from path map an
    instruction to, nested code objects included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def trace(pytest_args):
    """Run pytest on pytest_args under the tracer; return its exit code
    and the set of (real path, line) run in src/veryfree."""
    prefix = str(SRC) + "/"
    ran = set()
    unseen = {}   # code object -> its lines not run yet, empty outside src

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        unseen[frame.f_code].discard(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        lines = unseen.get(code)
        if lines is None:
            mine = os.path.realpath(code.co_filename).startswith(prefix)
            lines = unseen[code] = {line for _, _, line in code.co_lines()
                                    if line and mine}
        return local(frame, event, arg) if lines else None

    sys.settrace(call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return status, {(os.path.realpath(f), n) for f, n in ran}


def main(argv):
    status, ran = trace(argv or ["-q", "-p", "no:cacheprovider",
                                 str(ROOT / "tests")])
    total = 0
    missed = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        missed += [(path, n, source[n - 1].strip()) for n in sorted(lines)
                   if (str(path), n) not in ran]
    for path, n, text in missed:
        print(f"{path.relative_to(ROOT)}:{n}  {text}")
    print(f"{len(missed)} of {total} executable lines never run "
          f"(pytest exit code {status})")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
