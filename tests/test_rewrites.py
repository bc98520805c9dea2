"""Rewrites that keep a program's meaning must keep its report.

Each rewrite below changes how a program is written but not what it
does, so its report must agree with the original's, up to the renaming
(metamorphic testing; Chen, Cheung & Yiu, HKUST TR 1998):

- the functions in reverse order;
- registers r4-r8 renamed to r24-r28.  They are never argument
  positions (no call here passes more than four arguments), and no
  program here names r24-r28.

The reports are compared by their alerts (site, class, verdict), the
targets of each indirect call and the number of cap hits.  Neither
rewrite moves a program point, so sites compare as they are.  The
programs are every corpus file and the two smallest seed-1 programs of
each benchmark workload.  Reversing the functions also changes which
equal statement the parser meets first, so it guards the shared
statement forms (`ir.parse_program`) and the rows compiled once per form
(`alias.Session.rules`) too.
"""

import pathlib
import re
import sys

import pytest

from mirtaint import ir, pipeline

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def _programs():
    """(name, text) of every program the rewrites run on."""
    for path in sorted((ROOT / "corpus").glob("*.ir")):
        yield path.name, path.read_text()
    for workload in workloads.WORKLOADS:
        for program in workloads.generate(workload, 1)[:2]:
            yield program.name, program.text


PROGRAMS = dict(_programs())


def reversed_functions(program: ir.Program) -> ir.Program:
    return ir.Program(dict(reversed(program.functions.items())),
                      program.data_section, program.string_table,
                      program.word_size)


_RENAMED = re.compile(r"\br([4-8])\b")


def renamed_registers(program: ir.Program) -> ir.Program:
    """`program` with r4-r8 written r24-r28, in its statements only."""
    text = ir.pretty_program(program)
    assert not re.search(r"\br2[4-8]\b", text)
    assert all(len(s.form.args) <= 4 for f in program.functions.values()
               for s in f.statements() if isinstance(s.form, (ir.Call, ir.ICall)))
    head, sep, body = ("\n" + text).partition("\nfunc ")
    return ir.parse_program(head + sep + _RENAMED.sub(r"r2\1", body))


def outcome(program: ir.Program, path: pathlib.Path) -> tuple:
    """What a rewrite must keep of `program`'s report: its alerts, icall
    targets and cap-hit count."""
    path.write_text(ir.pretty_program(program), encoding="utf-8")
    report = pipeline.analyze(pipeline.RunConfig(ir_path=str(path)))
    alerts = sorted((a["sink_site"], a["class"], a["verdict"]) for a in report.alerts)
    targets = {site["callsite"]: site["targets"] for site in report.icall_sites}
    return alerts, targets, len(report.cap_hits)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rewrites_keep_the_report(name, tmp_path):
    program = ir.parse_program(PROGRAMS[name])
    want = outcome(program, tmp_path / "original.ir")
    assert outcome(reversed_functions(program), tmp_path / "reversed.ir") == want
    assert outcome(renamed_registers(program), tmp_path / "renamed.ir") == want
