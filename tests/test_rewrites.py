"""Rewrites that keep a program's meaning must keep its report.

Each rewrite below changes how a program is written but not what it
does, so its report must agree with the original's, up to the renaming
(metamorphic testing; Chen, Cheung & Yiu, HKUST TR 1998):

- the functions in reverse order;
- registers r4-r8 renamed to r24-r28.  They are never argument
  positions (no call here passes more than four arguments), and no
  program here names r24-r28;
- every function's block labels renamed so that their sorted order
  reverses;
- every block of two or more statements with no call in its first half
  split at its midpoint by a `jump` to a new block placed right after
  it, so a block that falls through still falls through to the same one;
- `rN = 0x0` inserted at the top of every block, for a register rN that
  the program never names;
- every function entry, data object and string moved up by one constant,
  and with them every data word and immediate (a load or store
  displacement too) that names an entry or an address in an object or
  just past its end.

The reports are compared by their alerts (site, class, verdict), the
targets of each indirect call and the number of cap hits.  The last
three rewrites move program points, so their sites are mapped back to
the original's before comparing.  The programs are every corpus file and
every seed-1 program of each benchmark workload.  Random compositions of
the rewrites, each used at most once and in any order, run under
Hypothesis over the corpus and the two smallest seed-1 programs of each
workload; a site is mapped back through each rewrite in turn.  Reversing the
functions also changes which equal statement the parser meets first, so
it guards the shared statement forms (`ir.parse_program`) and the rows
compiled once per form (`alias._Func.table`) too.  Renaming and
splitting blocks change which blocks are loop heads and latches, where
the induction merge runs (`alias._Func.merge_points`), and the order
in which it visits them.  The dead definitions add a statement to every
block that no fact depends on; they add a register to the ones each
function writes (`alias._Func.written`), which must change no export
and no summary, as no fact names the register.  The
moved addresses guard what reads an address's value: the address-taken
functions (`cfg.find_address_taken`), data words (`ir.Program.data_word`)
and the table walks of icall resolution (`icall.table_walk`).
"""

import dataclasses
import pathlib
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

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
        for program in workloads.generate(workload, 1):
            yield program.name, program.text


PROGRAMS = dict(_programs())
# the corpus and the two smallest seed-1 programs of each workload
SMALL = sorted([path.name for path in (ROOT / "corpus").glob("*.ir")]
               + [program.name for workload in workloads.WORKLOADS
                  for program in workloads.generate(workload, 1)[:2]])


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


def _with_blocks(program: ir.Program, blocks) -> ir.Program:
    """`program` with each function's blocks `blocks(function)` gives, as
    (label, forms) pairs; its points are given again when it is parsed."""
    functions = {}
    for name, fn in program.functions.items():
        new = tuple(ir.Block(label, tuple(ir.Statement(ir.Point(name, label, i), form)
                                          for i, form in enumerate(forms)))
                    for label, forms in blocks(fn))
        functions[name] = dataclasses.replace(fn, blocks=new)
    return ir.Program(functions, program.data_section, program.string_table,
                      program.word_size)


def relabeled_blocks(program: ir.Program) -> tuple[ir.Program, dict]:
    """`program` with each function's block labels renamed so that their
    sorted order reverses, and the map from each new (function, label) to
    its original label and index offset."""
    back = {}

    def blocks(fn):
        old = sorted(b.label for b in fn.blocks)
        width = len(str(len(old)))
        names = {label: f"b{len(old) - 1 - k:0{width}d}" for k, label in enumerate(old)}
        back.update(((fn.name, new), (label, 0)) for label, new in names.items())

        def relabel(form):
            if isinstance(form, ir.Branch):
                return dataclasses.replace(form, then_block=names[form.then_block],
                                           else_block=names[form.else_block])
            if isinstance(form, ir.Jump):
                return ir.Jump(names[form.block])
            return form

        return [(names[b.label], [relabel(st.form) for st in b.stmts]) for b in fn.blocks]

    return _with_blocks(program, blocks), back


def split_blocks(program: ir.Program) -> tuple[ir.Program, dict]:
    """`program` with every block of two or more statements and no call
    in its first half split at its midpoint: the first half ends in a
    `jump` to a new block, right after it, that holds the second half.
    Also the map from each new (function, label) to its original label
    and index offset."""
    back = {}

    def blocks(fn):
        labels = {b.label for b in fn.blocks}
        out = []
        for b in fn.blocks:
            forms = [st.form for st in b.stmts]
            mid = len(forms) // 2
            if mid == 0 or any(isinstance(f, (ir.Call, ir.ICall)) for f in forms[:mid]):
                out.append((b.label, forms))
                continue
            new = b.label + "_split"
            while new in labels:
                new += "_"
            labels.add(new)
            back[(fn.name, new)] = (b.label, mid)
            out += [(b.label, forms[:mid] + [ir.Jump(new)]), (new, forms[mid:])]
        return out

    return _with_blocks(program, blocks), back


def dead_definitions(program: ir.Program) -> tuple[ir.Program, dict]:
    """`program` with `rN = 0x0` at the top of every block, for the
    lowest rN above every register it names, and the map from each
    (function, label) to its label and index offset."""
    named = map(int, re.findall(r"\br(\d+)\b", ir.pretty_program(program)))
    dead = f"r{1 + max(named, default=0)}"
    back = {}

    def blocks(fn):
        back.update(((fn.name, b.label), (b.label, -1)) for b in fn.blocks)
        return [(b.label, [ir.Move(dead, 0)] + [st.form for st in b.stmts])
                for b in fn.blocks]

    return _with_blocks(program, blocks), back


def shifted_addresses(program: ir.Program, shift: int = 0x100000) -> ir.Program:
    """`program` with every function entry, data object and string at
    `shift` above where it was, and every data word and immediate that
    names one of them moved with it.  An address names an entry, or a
    byte of an object or string or the one just past its end, as a
    loop's bound does."""
    spans = [(base, len(words) * program.word_size)
             for base, words in program.data_section.items()]
    spans += [(addr, len(text) + 1) for addr, text in program.string_table.items()]
    addresses = {f.entry_address for f in program.functions.values()}
    for base, size in spans:
        addresses.update(range(base, base + size + 1))

    def moved(value):
        if type(value) is tuple:
            return tuple(map(moved, value))
        return value + shift if type(value) is int and value in addresses else value

    def blocks(fn):
        return [(b.label, [dataclasses.replace(st.form, **{
                    f.name: moved(getattr(st.form, f.name))
                    for f in dataclasses.fields(st.form)}) for st in b.stmts])
                for b in fn.blocks]

    functions = {name: dataclasses.replace(fn, entry_address=fn.entry_address + shift)
                 for name, fn in _with_blocks(program, blocks).functions.items()}
    return ir.Program(functions,
                      {base + shift: moved(words)
                       for base, words in program.data_section.items()},
                      {addr + shift: text for addr, text in program.string_table.items()},
                      program.word_size)


def outcome(program: ir.Program, path: pathlib.Path, back=None) -> tuple:
    """What a rewrite must keep of `program`'s report: its alerts, icall
    targets and cap-hit count, with each site mapped back through `back`
    ((function, label) -> (original label, index offset))."""
    path.write_text(ir.pretty_program(program), encoding="utf-8")
    report = pipeline.analyze(pipeline.RunConfig(ir_path=str(path)))

    def site(text):
        func, label, index = text.rsplit(":", 2)
        label, offset = (back or {}).get((func, label), (label, 0))
        return f"{func}:{label}:{int(index) + offset}"

    alerts = sorted((site(a["sink_site"]), a["class"], a["verdict"]) for a in report.alerts)
    targets = {site(s["callsite"]): s["targets"] for s in report.icall_sites}
    return alerts, targets, len(report.cap_hits)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rewrites_keep_the_report(name, tmp_path):
    program = ir.parse_program(PROGRAMS[name])
    want = outcome(program, tmp_path / "original.ir")
    assert outcome(reversed_functions(program), tmp_path / "reversed.ir") == want
    assert outcome(renamed_registers(program), tmp_path / "renamed.ir") == want
    assert outcome(shifted_addresses(program), tmp_path / "shifted.ir") == want
    for rewrite in (relabeled_blocks, split_blocks, dead_definitions):
        rewritten, back = rewrite(program)
        assert outcome(rewritten, tmp_path / f"{rewrite.__name__}.ir", back) == want


REWRITES = (reversed_functions, renamed_registers, shifted_addresses,
            relabeled_blocks, split_blocks, dead_definitions)


def composed(program: ir.Program, rewrites) -> tuple[ir.Program, dict]:
    """`program` under `rewrites` in turn, and the map from each
    (function, label) of the result to its original label and index
    offset, each rewrite's map followed by those of the ones before."""
    back: dict = {}
    for rewrite in rewrites:
        out = rewrite(program)
        program, step = out if isinstance(out, tuple) else (out, {})

        def through(func, label):
            label, offset = step.get((func, label), (label, 0))
            original, more = back.get((func, label), (label, 0))
            return original, offset + more

        back = {(name, b.label): through(name, b.label)
                for name, fn in program.functions.items() for b in fn.blocks}
    return program, back


_ORIGINAL: dict = {}    # name -> its outcome, unrewritten


@settings(max_examples=500, deadline=None, derandomize=True)
@given(name=st.sampled_from(SMALL),
       rewrites=st.lists(st.sampled_from(REWRITES), min_size=2, unique=True))
def test_composed_rewrites_keep_the_report(name, rewrites, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    program = ir.parse_program(PROGRAMS[name])
    if name not in _ORIGINAL:
        _ORIGINAL[name] = outcome(program, tmp / "original.ir")
    rewritten, back = composed(program, rewrites)
    assert outcome(rewritten, tmp / "composed.ir", back) == _ORIGINAL[name], [
        r.__name__ for r in rewrites]
