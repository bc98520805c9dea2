"""List the executable lines of `src/` that no tier-1 test reaches.

    PYTHONPATH=src python tools/coverage.py [pytest arguments]

Runs pytest in this process under the stdlib `trace` module, then prints
`file:line` for each line of `src/mirtaint` (but `__init__.py`) that
starts code and never ran, a count per file and the total.  Tracing
slows the tests about tenfold, so a full run takes minutes.  Pytest does
not collect this file: `testpaths` names `tests` and `bench/tests`.
"""

import dis
import pathlib
import sys
import trace
import types

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mirtaint"


def executable(path: pathlib.Path) -> set[int]:
    """The lines where some code object of the file starts code."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", *argv])
    ran = {(pathlib.Path(f).resolve(), n) for f, n in tracer.results().counts}
    total = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        missed = sorted(n for n in executable(path) if (path, n) not in ran)
        for n in missed:
            print(f"{path.relative_to(SRC.parent.parent)}:{n}")
        print(f"# {path.name}: {len(missed)} unreached")
        total += len(missed)
    print(f"# total: {total} unreached lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
