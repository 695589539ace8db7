#!/usr/bin/env python3
"""Which invariant checks of src/ a test run reaches, as JSON.

    python tools/invariants.py [PYTEST_ARGS ...]

An invariant check is a `raise InternalInconsistency(...)` statement in
src/; the sites are found from the syntax tree of each file.  pytest then
runs in this process on PYTEST_ARGS (Tier-1, the tests/ directory, when
none are given), with InternalInconsistency.__init__ wrapped so that each
construction records the file and line of its caller and the test that was
running.  A site counts as reached when such a construction lies within
its raise statement.  pytest's own report goes to stderr; stdout is the
JSON report: the site count, the reached count, pytest's exit code, and
per site its file, first and last line, the start of its message and the
test that first reached it (null when none did).

Only this process is watched.  A check that raises inside a child process,
such as the `python -m bct.cli` runs of the command-line tests, is not
seen, and its site reads as not reached unless a test reaches it here too.
The exit code is pytest's.  Standard library and pytest only.
"""

import ast
import contextlib
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from bct.errors import InternalInconsistency  # noqa: E402


def sites():
    """Every `raise InternalInconsistency(...)` under src/, in file and line
    order: dicts of its file (relative to src/), first and last line, and
    message (the first line of the source of the call's first argument)."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            func = exc.func if isinstance(exc, ast.Call) else None
            if isinstance(func, ast.Name) and func.id == "InternalInconsistency":
                message = ast.get_source_segment(text, exc.args[0]) if exc.args else ""
                out.append({
                    "file": str(path.relative_to(SRC)),
                    "line": node.lineno,
                    "end_line": node.end_lineno,
                    "message": message.split("\n")[0],
                })
    return sorted(out, key=lambda s: (s["file"], s["line"]))


def run(args) -> dict:
    """Run pytest on args with the constructions recorded; the report."""
    found = sites()
    reached = {}  # (resolved file, line) -> first test to construct there
    init = InternalInconsistency.__init__

    def recording_init(self, *a, **kw):
        caller = sys._getframe(1)
        key = (os.path.realpath(caller.f_code.co_filename), caller.f_lineno)
        test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
        reached.setdefault(key, test or "(outside a test)")
        init(self, *a, **kw)

    InternalInconsistency.__init__ = recording_init
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(list(args) or [str(ROOT / "tests")])
    finally:
        InternalInconsistency.__init__ = init
    for site in found:
        path = os.path.realpath(SRC / site["file"])
        lines = range(site["line"], site["end_line"] + 1)
        site["reached_by"] = next(
            (t for (f, n), t in reached.items() if f == path and n in lines), None
        )
    return {
        "sites": len(found),
        "reached": sum(s["reached_by"] is not None for s in found),
        "pytest_exit": int(code),
        "checks": found,
    }


def main(argv) -> int:
    report = run(argv)
    print(json.dumps(report, indent=2))
    return report["pytest_exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
