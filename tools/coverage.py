"""Check that tier-1 reaches every executable line of `src/`.

    PYTHONPATH=src python tools/coverage.py [pytest arguments]

Runs pytest in this process under the stdlib `trace` module, then prints
`file:line` for each line of `src/mirtaint` (but `__init__.py`) that
starts code and never ran, a count per file and the total.  A line named
in `UNREACHED`, by its file and its text, may stay unreached; it is
listed with its reason and not counted.  Exits 1 when another line is
unreached or a test fails, else 0.  Tracing slows the tests about
tenfold, so a full run takes minutes.  Pytest does not collect this
file: `testpaths` names `tests` and `bench/tests`.
"""

import dis
import pathlib
import sys
import trace
import types

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mirtaint"

# (file, stripped line text) -> why no test runs it
UNREACHED = {
    ("cli.py", "sys.exit(main())"):
        "runs only when the module is the program (`python -m mirtaint.cli`); "
        "tests call `main` and a subprocess run is not traced",
}


def executable(path: pathlib.Path) -> set[int]:
    """The lines where some code object of the file starts code."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def report(tracer: trace.Trace, allowed: dict) -> int:
    """Print each executable line of `src/mirtaint` (but `__init__.py`)
    that the tracer never saw run, those in `allowed` with their reason,
    then a count per file and the total; return the count."""
    ran = {(pathlib.Path(f).resolve(), n) for f, n in tracer.results().counts}
    total = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text().splitlines()
        missed = 0
        for n in sorted(n for n in executable(path) if (path, n) not in ran):
            where = f"{path.relative_to(SRC.parent.parent)}:{n}"
            reason = allowed.get((path.name, text[n - 1].strip()))
            if reason is None:
                print(where)
                missed += 1
            else:
                print(f"{where} (allowed: {reason})")
        print(f"# {path.name}: {missed} unreached")
        total += missed
    print(f"# total: {total} unreached lines")
    return total


def main(argv: list[str]) -> int:
    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", *argv])
    return 1 if report(tracer, UNREACHED) or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
