"""Run the tier-1 tests in this process under a line tracer and list every
executable line of src/casimirchip that none of them ran.

    python tools/line_coverage.py

runs ``pytest -q --continue-on-collection-errors`` on this checkout's
tests, with the package imported from this checkout's src, and prints
each line it skips with the reason, then ``path:line  source`` for each
unreached line.  It exits 1 if any line is unreached, if a line it skips
ran after all or is gone (its skip is then stale), or if the tests fail;
otherwise 0.  Standard library only, besides the pytest that the tests
need.

A file's executable lines are those of its code objects' ``co_lines()``,
nested functions, classes and comprehensions included.  A line counts as
run when ``sys.settrace`` (``threading.settrace`` in threads the tests
start) sees it.  The tracer is installed before the package is imported,
so module-level lines count too.  Tests that run the package in a child
interpreter are not seen.  Line tables differ between Python versions; the
skips below are checked on 3.11.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "casimirchip")

# (file, stripped source line): why no tier-1 test runs it.
SKIPS = {
    ("cli.py", "raise SystemExit(main())"):
        "only `python -m casimirchip.cli` runs it, in a child interpreter",
}


def executable_lines(path):
    """The line numbers of every code object compiled from the file at path."""
    with open(path, encoding="utf-8") as f:
        pending = [compile(f.read(), path, "exec")]
    lines = set()
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args):
    """pytest's exit code for args, and the lines run in each package file by realpath."""
    run, names = {}, {}

    def lines_of(name):
        # The set of lines run in the file a code object names, or None
        # outside the package; memoized per co_filename.
        if name not in names:
            path = os.path.realpath(name)
            names[name] = (run.setdefault(path, set())
                           if path.startswith(PACKAGE + os.sep) else None)
        return names[name]

    def trace_lines(frame, event, arg):
        if event == "line":
            lines_of(frame.f_code.co_filename).add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return trace_lines

    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, run


def main():
    sys.path.insert(0, SRC)
    code, run = run_traced(["-q", "--continue-on-collection-errors", "--rootdir", ROOT,
                            os.path.join(ROOT, "tests")])
    unreached, stale, skipped = [], [], {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read().splitlines()
        ran = run.get(os.path.realpath(path), set())
        for line in sorted(executable_lines(path)):
            key = (name, source[line - 1].strip())
            where = f"src/casimirchip/{name}:{line}  {key[1]}"
            if key in SKIPS:
                skipped[key] = f"src/casimirchip/{name}:{line}  {SKIPS[key]}"
                if line in ran:
                    stale.append(where)
            elif line not in ran:
                unreached.append(where)
    missing = [f"{name}: {text}" for name, text in SKIPS if (name, text) not in skipped]
    for title, entries in (("skipped lines", skipped.values()),
                           ("unreached lines", unreached),
                           ("skipped lines that ran; remove their skips", stale),
                           ("skips that name no executable line", missing)):
        if entries:
            print(f"{title}:", *entries, sep="\n  ")
    if code:
        print(f"the tests failed (pytest exit code {int(code)})")
    print(f"line coverage: {len(unreached)} unreached, {len(skipped)} skipped")
    return int(bool(unreached or stale or missing or code))


if __name__ == "__main__":
    sys.exit(main())
