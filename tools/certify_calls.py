"""Certify what the alias engine claims across calls: the call-seed scan.

    PYTHONPATH=src python tools/certify_calls.py [program.ir ...]

For each call of each program (default: every file of `corpus/`), seeds
a `both` query at the call of each register it passes and of its result
register, which there holds the value the call overwrites.  Icalls are
resolved first, as `mirtaint analyze` does.  Every trusted, evaluable
alias pair of each query (`Analysis.alias_pairs`, `oracle.evaluable`) is
certified with `oracle.certify_aliases`, in `N_RUNS` runs from `ENTRY`,
or from the seed's function in a program without one.  Prints each
failing pair: its program, its seed, both sides and both values; then the
count of failing pairs and of pairs, and exits 1 when a pair fails, else
0.  A pair whose points no run reaches is vacuous, not failing.  The
whole corpus takes a few seconds.  Pytest does not collect this file.
"""

import pathlib
import sys

from mirtaint import icall, ir, oracle, pipeline
from mirtaint import sse as S
from mirtaint.alias import Analysis, Seed, Session

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
N_RUNS = 4
ENTRY = "main"


def call_seeds(program: ir.Program):
    """(point, register) of each seed: each register a call passes, and
    its result register, at the call."""
    for fn in program.functions.values():
        for stmt in fn.statements():
            form = stmt.form
            if isinstance(form, (ir.Call, ir.ICall)):
                regs = [a for a in form.args if isinstance(a, str)]
                if form.ret is not None:
                    regs.append(form.ret)
                for reg in dict.fromkeys(regs):
                    yield stmt.point, reg


def scan(path) -> list[tuple[str, oracle.PairVerdict]]:
    """Each certified pair of the call seeds of the program at `path`, as
    (seed, verdict)."""
    program = pipeline.load_program(str(path))
    session = Session(program)
    session = session.with_resolutions(icall.resolve_all(session)[1])
    entry = ENTRY if ENTRY in program.functions else None
    out = []
    for point, reg in call_seeds(program):
        analysis = Analysis(session)
        sid = analysis.add_seed(Seed(point, S.Reg(reg), label=f"call:{point}"))
        analysis.run()
        pairs = [oracle.pair_from_tracked(a, b) for a, b in analysis.alias_pairs(sid)
                 if oracle.evaluable(a) and oracle.evaluable(b)]
        out.extend((f"{reg} at {point}", v) for v in oracle.certify_aliases(
            program, pairs, n_runs=N_RUNS, entry=entry))
    return out


def main(argv: list[str]) -> int:
    paths = argv or sorted(CORPUS.glob("*.ir"))
    total = failed = 0
    for path in paths:
        for seed, verdict in scan(path):
            total += 1
            if verdict.status != "fail":
                continue
            failed += 1
            pair, cex = verdict.pair.as_json(), verdict.counterexample
            a, b = pair["a"], pair["b"]
            print(f"{pathlib.Path(path).name}: seed {seed}: "
                  f"{a['expr']} at {a['point']} ({a['phase']}) = {cex['value_a']}, "
                  f"{b['expr']} at {b['point']} ({b['phase']}) = {cex['value_b']}")
    print(f"# {failed} of {total} pairs fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
