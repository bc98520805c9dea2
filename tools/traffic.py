"""List the lines of `src/` that the program's real traffic never runs.

    PYTHONPATH=src python tools/traffic.py

Runs the real entry points in this process under the stdlib `trace`
module: `mirtaint analyze` (`cli.main`) on every corpus file,
`pipeline.analyze` on every program of the seed-1 and seed-2 ladders of
`bench/workloads.py`, and `oracle.fuzz(count=60, seed=1, n_runs=2)`.
Then prints `file:line` for each executable line of `src/mirtaint` (but
`__init__.py`) that none of them ran, a count per file and the total,
then each module's line count and the total of `src/`, as
`wc -l src/mirtaint/*.py` counts them, and exits 0.  It takes a few
minutes.

Tier-1 reaches every line (`tools/coverage.py`); this shows which lines
serve nothing but tests.  Most of what it lists stays: the CLI's other
commands and options, input diagnostics, and caps these inputs never
reach.  A path that only a test calls, and that no entry point can
reach, is the kind to delete.  Pytest does not collect this file.
"""

import contextlib
import io
import pathlib
import sys
import tempfile
import trace

from coverage import SRC, report   # tools/coverage.py, this file's neighbour

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def traffic(tmp: pathlib.Path) -> None:
    # imported here, so that the tracer sees the modules' own lines run
    from mirtaint import cli, oracle, pipeline

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for path in sorted((ROOT / "corpus").glob("*.ir")):
            cli.main(["analyze", "--ir", str(path)])
    for seed in (1, 2):
        for workload in workloads.WORKLOADS:
            for program in workloads.generate(workload, seed):
                path = tmp / (program.name + ".ir")
                path.write_text(program.text, encoding="utf-8")
                pipeline.analyze(pipeline.RunConfig(ir_path=str(path)))
    oracle.fuzz(count=60, seed=1, n_runs=2)


def main() -> int:
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as tmp:
        tracer.runfunc(traffic, pathlib.Path(tmp))
    report(tracer, {})
    sizes = {path.name: path.read_bytes().count(b"\n")
             for path in sorted(SRC.glob("*.py"))}
    for name, lines in sizes.items():
        print(f"# {name}: {lines} lines")
    print(f"# src/: {sum(sizes.values())} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
