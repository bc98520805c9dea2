import importlib.util
import pathlib
import sys
import typing

import pytest
from hypothesis import given, settings, strategies as st

from mirtaint import ir

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse(text):
    return ir.parse_program(text)


def test_minimal_function():
    prog = parse("func f @0x1000 frame=0 {\nbb0:\n  r1 = r2\n  ret r1\n}\n")
    assert set(prog.functions) == {"f"}
    f = prog.functions["f"]
    assert f.entry_address == 0x1000 and f.frame_size == 0
    (block,) = f.blocks
    assert block.label == "bb0"
    assert [type(s.form).__name__ for s in block.stmts] == ["Move", "Ret"]
    assert block.stmts[0].point == ir.Point("f", "bb0", 0)


def test_all_statement_forms():
    prog = parse("""
func f @0x1000 frame=0x10 {
  buf b @0x0 size 0x8
bb0:
  r1 = 0x2a
  r2 = r1 + 0x4
  r3 = ~r1
  r4 = ite r1, r2, 0x0
  r5 = load r2
  r6 = load r2 + 0x8
  store r2 = r5
  store r2 + 0x4 = 0x1
  r7 = call g(r1, 0x2)
  call g(r1)
  r8 = icall r7(r1)
  icall r7()
  branch r1, bb1, bb2
bb1:
  jump bb2
bb2:
  ret r1
}
func g @0x2000 frame=0 {
bb0:
  ret
}
""")
    forms = [type(s.form).__name__ for s in prog.functions["f"].statements()]
    assert forms == ["Move", "BinOp", "UnOp", "Ite", "Load", "Load", "Store",
                     "Store", "Call", "Call", "ICall", "ICall", "Branch",
                     "Jump", "Ret"]
    assert prog.functions["f"].stack_buffers == (ir.StackBuffer("b", 0, 8),)


def test_data_section_example():
    prog = parse("""
data @0x92C44 { word 0x5100, word 0x2000, word 0x5200, word 0x2400 }
func f @0x1000 frame=0 {
bb0:
  ret
}
""")
    assert prog.data_section[0x92C44] == (0x5100, 0x2000, 0x5200, 0x2400)
    assert prog.data_word(0x92C44 + 8) == 0x5200
    assert prog.data_object(0x92C44 + 5) == (0x92C44, (0x5100, 0x2000, 0x5200, 0x2400))


def test_strings_section():
    prog = parse("""
strings { @0x9000 "GET"  @0x9010 "POST" }
func f @0x1000 frame=0 {
bb0:
  ret
}
""")
    assert prog.string_table == {0x9000: "GET", 0x9010: "POST"}


def test_syntax_error_reports_line():
    with pytest.raises(ir.ParseError) as exc:
        parse("func f @0x1000 frame=0 {\nbb0:\n  r1 <- r2\n  ret\n}\n")
    assert any(d.line == 3 for d in exc.value.diagnostics)


def test_duplicate_label_rejected():
    with pytest.raises(ir.ParseError) as exc:
        parse("func f @0x1000 frame=0 {\nbb0:\n  ret\nbb0:\n  ret\n}\n")
    assert any("duplicate label" in d.message for d in exc.value.diagnostics)


_FUNC = "func f @0x1000 frame=0 {\nbb0:\n  ret\n}\n"


@pytest.mark.parametrize("text,line,message", [
    ("func f @0x1000 frame=0 {\n}\n", 1, "function f has no blocks"),
    (_FUNC + _FUNC.replace("0x1000", "0x2000"), 5, "duplicate function f"),
    ("wordsize 2\n", 1, "wordsize must be 4 or 8"),
    ("func f @0x1000 frame=0 {\nbb0:\n  ret\n" + _FUNC.replace("f @0x1000", "g @0x2000"),
     4, "nested func"),
    ("func f @0x1000 frame=0 {\n  ret\n}\n", 2, "statement before first label"),
    ("\nfunc f @0x1000 frame=0 {\nbb0:\n  ret\n", 2,
     "unterminated function (missing '}')"),
    ('\nstrings {\n  @0x10 "x"\n', 2, "unterminated strings section"),
    ("data @0x100 { word 0x1, byte 0x2 }\n", 1, "malformed data word 'byte 0x2'"),
    ('strings {\n  0x10 "x"\n}\n', 2, "malformed string entry '0x10 \"x\"'"),
    ("func f @0x1000 frame=0 {\nbb0:\n  call g(r1, *)\n  ret\n}\n", 3,
     "malformed argument '*'"),
    ("r1 = r2\n", 1, "statement outside function: 'r1 = r2'"),
    ('strings { @0x9000 "ab" @0x9000 "cd" }\n', 1, "duplicate string @0x9000"),
    ('strings {\n  @0x9000 "ab"\n}\nstrings { @0x9000 "cd" }\n', 4,
     "duplicate string @0x9000"),
    ('strings {\n  @0x9000 "ab" junk\n}\n', 2, "malformed string entry 'junk'"),
    ('strings { @0x9000 "ab" @0x9010 }\n', 1, "malformed string entry '@0x9010'"),
], ids=["no-blocks", "duplicate-function", "wordsize", "nested-func",
        "before-label", "missing-brace", "unterminated-strings", "data-word",
        "string-entry", "call-argument", "outside-function", "duplicate-string",
        "duplicate-string-across-sections", "string-leftover", "string-leftover-one-line"])
def test_parse_diagnostic_names_its_line(text, line, message):
    """Every malformed input raises with its one diagnostic at a line: a
    diagnostic about a whole function or strings section names the line
    of its header."""
    with pytest.raises(ir.ParseError) as exc:
        parse(text)
    assert [(d.line, d.message) for d in exc.value.diagnostics] == [(line, message)]
    assert str(exc.value) == f"line {line}: {message}"


def test_validate_clean_program():
    prog = parse("func f @0x1000 frame=0 {\nbb0:\n  ret\n}\n")
    assert ir.validate(prog) == []


def test_validate_dangling_branch_target():
    prog = parse("func f @0x1000 frame=0 {\nbb0:\n  branch r1, bb0, nowhere\n}\n")
    diags = ir.validate(prog)
    assert any("nowhere" in d.message for d in diags)


def test_validate_buffer_exceeds_frame():
    prog = parse("""
func f @0x1000 frame=0x10 {
  buf big @0x8 size 0x10
bb0:
  ret
}
""")
    diags = ir.validate(prog)
    assert any("exceeds frame size" in d.message for d in diags)


def test_validate_duplicate_entry_address():
    prog = parse("""
func f @0x1000 frame=0 {
bb0:
  ret
}
func g @0x1000 frame=0 {
bb0:
  ret
}
""")
    assert any("share entry address" in d.message for d in ir.validate(prog))


def test_validate_entry_overlapping_data():
    prog = parse("""
data @0x1000 { word 0x1, word 0x2 }
func f @0x1004 frame=0 {
bb0:
  ret
}
""")
    assert any("overlaps data" in d.message for d in ir.validate(prog))


def test_validate_overlapping_data_objects():
    prog = parse("data @0x100 { word 0x1, word 0x2, word 0x3 }\n"
                 "data @0x104 { word 0x4 }\ndata @0x108 { word 0x5 }\n"
                 "data @0x10c { word 0x6 }\ndata @0x120 { }\n" + _FUNC)
    assert [d.message for d in ir.validate(prog)] == [
        "data objects @0x100 and @0x104 overlap",
        "data objects @0x100 and @0x108 overlap"]


def test_program_level_diagnostics_name_their_header_line():
    """Overlapping data objects, a shared entry address, an entry inside
    a data object and a buffer past the frame name the line of the
    `data`, `func` or `buf` header at fault; equality ignores the lines."""
    text = ("data @0x100 { word 0x1 }\n"             # 1
            "data @0x102 { word 0x2 }\n"             # 2
            "func f @0x1000 frame=0 {\n"             # 3
            "  buf b @0x0 size 0x10\n"               # 4
            "bb0:\n  ret\n}\n"                       # 5-7
            "func g @0x1000 frame=0 {\nbb0:\n  ret\n}\n"   # 8-11
            "func h @0x100 frame=0 {\nbb0:\n  ret\n}\n")   # 12-15
    prog = parse(text)
    assert [str(d) for d in ir.validate(prog)] == [
        "line 2: data objects @0x100 and @0x102 overlap",
        "line 4: stack buffer b (0x0+0x10) exceeds frame size 0x0 of f",
        "line 8: functions f and g share entry address 0x1000",
        "line 12: function h entry 0x100 overlaps data object @0x100"]
    assert prog == parse("\n\n" + text)
    assert prog.functions["g"].line == 8 and prog.data_lines == {0x100: 1, 0x102: 2}


def test_validate_entry_at_a_data_base_or_past_its_end():
    prog = parse("data @0x1000 { word 0x1, word 0x2 }\ndata @0x2000 { word 0x3 }\n"
                 + _FUNC.replace("0x1000", "0x2000") + _FUNC.replace("f @0x1000", "g @0x1008"))
    assert [d.message for d in ir.validate(prog)] == [
        "function f entry 0x2000 overlaps data object @0x2000"]


def test_validate_missing_terminator():
    prog = parse("func f @0x1000 frame=0 {\nbb0:\n  r1 = r2\n}\n")
    assert any("does not end" in d.message for d in ir.validate(prog))


def test_validate_accepts_a_call_that_falls_through(corpus):
    """A call may end a block that another block follows."""
    assert ir.validate(corpus("call_fallthrough.ir")) == []


def test_validate_oversized_immediate():
    prog = parse("func f @0x1000 frame=0 {\nbb0:\n  r1 = 0x100000000\n  ret\n}\n")
    assert any("word width" in d.message for d in ir.validate(prog))


def test_statement_points_are_unique_and_stable(corpus):
    prog = corpus("listing1.ir")
    points = [s.point for f in prog.functions.values() for s in f.statements()]
    assert len(points) == len(set(points))


def test_round_trip():
    for path in sorted((ROOT / "corpus").glob("*.ir")):
        prog = ir.parse_program(path.read_text())
        assert ir.parse_program(ir.pretty_program(prog)) == prog, path.name


def _workloads():
    """The benchmark's program generator, loaded from its file."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["dispatch", "loop_copy", "icall_mix"])
def test_ladder_programs_round_trip(workload, seed):
    for program in _workloads().generate(workload, seed):
        prog = ir.parse_program(program.text)
        assert ir.parse_program(ir.pretty_program(prog)) == prog, program.name


_REGS = st.sampled_from(["r0", "r1", "r7", "r15", "sp", "gp"])
_IMMS = st.integers(0, (1 << 64) - 1)
_OPNDS = st.one_of(_REGS, _IMMS)
_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,5}", fullmatch=True)
_ARGS = st.lists(_OPNDS, max_size=3).map(tuple)
_FORMS = st.one_of(
    st.builds(ir.Move, _REGS, _OPNDS),
    st.builds(ir.BinOp, _REGS, st.sampled_from(
        ["+", "-", "*", "/", "<<", ">>", "&", "|", "^", "<", "<=", "==", "!=", ">=", ">"]),
        _OPNDS, _OPNDS),
    st.builds(ir.UnOp, _REGS, st.sampled_from(["~", "!", "neg"]), _OPNDS),
    st.builds(ir.Ite, _REGS, _REGS, _OPNDS, _OPNDS),
    st.builds(ir.Load, _REGS, _REGS, _IMMS),
    st.builds(ir.Store, _REGS, _OPNDS, _IMMS),
    st.builds(ir.Call, _NAMES, _ARGS, st.none() | _REGS),
    st.builds(ir.ICall, _REGS, _ARGS, st.none() | _REGS),
    st.builds(ir.Branch, _REGS, _NAMES, _NAMES),
    st.builds(ir.Jump, _NAMES),
    st.builds(ir.Ret, st.none() | _OPNDS),
)
# string text: anything on one line but a double quote
_TEXT = st.text(st.sampled_from("#{}@ x") | st.characters(
    blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters='"'), max_size=8)


@st.composite
def _programs(draw):
    labels = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    blocks = tuple(
        ir.Block(label, tuple(ir.Statement(ir.Point("f", label, i), form)
                              for i, form in enumerate(draw(st.lists(_FORMS, max_size=6)))))
        for label in labels)
    bufs = tuple(draw(st.lists(st.builds(ir.StackBuffer, _NAMES, _IMMS, _IMMS), max_size=2)))
    function = ir.Function("f", draw(_IMMS), draw(_IMMS), blocks, bufs)
    data = draw(st.dictionaries(_IMMS, st.lists(_IMMS, max_size=3).map(tuple), max_size=2))
    strings = draw(st.dictionaries(_IMMS, _TEXT, max_size=3))
    return ir.Program({"f": function}, data, strings, draw(st.sampled_from([4, 8])))


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_printed_programs_parse_back(prog):
    """Any sequence of statement forms, with data words and strings
    (a `#` in one among them), prints to text that parses back equal."""
    assert ir.parse_program(ir.pretty_program(prog)) == prog


def test_every_form_has_an_operand_table_entry():
    assert set(typing.get_args(ir.Form)) == set(ir._FIELDS)


@pytest.mark.parametrize("text", [
    'strings { @0x9000 "a#b" }  # a comment\n',
    'strings {\n  @0x9000 "a#b" # a comment\n}\n',
], ids=["one-line", "multi-line"])
def test_hash_inside_a_string_is_not_a_comment(text):
    prog = parse(text + _FUNC)
    assert prog.string_table == {0x9000: "a#b"}
    assert set(prog.functions) == {"f"}


def test_string_holding_a_hash_round_trips():
    prog = parse('strings {\n  @0x9000 "x # y"\n  @0x9010 "#"\n}\n' + _FUNC)
    assert prog.string_table == {0x9000: "x # y", 0x9010: "#"}
    assert parse(ir.pretty_program(prog)) == prog


@pytest.mark.parametrize("text", [
    "func f @0x1000 frame=0 {\nbb0:\n  r1 = r01\n  ret\n}\n",
    "func f @0x1000 frame=0 {\nbb0:\n  r1 = 01\n  ret\n}\n",
    "func f @0x1000 frame=0 {\nbb0:\n  r1 = load r2 + 08\n  ret\n}\n",
    "func f @0x1000 frame=0 {\nbb0:\n  call g(r1, -07)\n  ret\n}\n",
    "func f @01000 frame=0 {\nbb0:\n  ret\n}\n",
    'strings { @010 "x" }\n',
], ids=["register", "move", "load-offset", "argument", "address", "string"])
def test_leading_zeros_rejected(text):
    """One register has one name and a decimal has no leading zero, so such
    tokens are syntax errors rather than a second register or a crash."""
    with pytest.raises(ir.ParseError):
        parse(text)


def test_zero_and_multi_digit_tokens_parse():
    prog = parse("func f @0x1000 frame=0 {\nbb0:\n  r10 = 0\n  r0 = r10 + 10\n  ret r0\n}\n")
    forms = [s.form for s in prog.functions["f"].statements()]
    assert forms[0] == ir.Move("r10", 0)
    assert forms[1] == ir.BinOp("r0", "+", "r10", 10)


def test_spacing_between_tokens_is_optional():
    """Where the syntax allows no space between tokens, a line is
    classified the same with or without it."""
    prog = parse('strings{@0x9000 "a"}\nfunc f @0x1000 frame=0 {\nbb0 :\n  r1=r2+0x4\n'
                 "  r3 =negr1\n  r4= load r1+0x8\n  store r1+0x4=r2\n  r5=icall r4(r1,0x2)\n"
                 "  r6=ite r1,r2,0x0\n  ret\n}\n")
    assert prog.string_table == {0x9000: "a"}
    assert [s.form for s in prog.functions["f"].statements()] == [
        ir.BinOp("r1", "+", "r2", 4), ir.UnOp("r3", "neg", "r1"), ir.Load("r4", "r1", 8),
        ir.Store("r1", "r2", 4), ir.ICall("r4", ("r1", 2), "r5"), ir.Ite("r6", "r1", "r2", 0),
        ir.Ret()]


def test_every_statement_form_prints_as_it_parses():
    """`pretty_stmt` writes each form back in the syntax it was parsed
    from, so a program round-trips through its text."""
    lines = ["r1 = 0x2a", "r2 = r1 + 0x4", "r3 = ~r1", "r3 = !r1", "r3 = neg r1",
             "r4 = ite r1, r2, 0x0", "r5 = load r2", "r6 = load r2 + 0x8",
             "store r2 = r5", "store r2 + 0x4 = 0x1", "r7 = call g(r1, 0x2)",
             "call g(r1)", "r8 = icall r7(r1)", "icall r7()", "branch r1, bb1, bb2"]
    text = ("func f @0x1000 frame=0x10 {\nbb0:\n" + "".join(f"  {s}\n" for s in lines)
            + "bb1:\n  jump bb2\nbb2:\n  ret r1\n}\nfunc g @0x2000 frame=0 {\n"
            "bb0:\n  ret\n}\n")
    prog = parse(text)
    printed = [ir.pretty_stmt(s.form) for s in prog.functions["f"].statements()]
    assert printed == [*lines, "jump bb2", "ret r1"]
    assert parse(ir.pretty_program(prog)) == prog


def test_duplicate_data_object_rejected():
    with pytest.raises(ir.ParseError) as exc:
        parse("data @0x100 { word 0x1 }\ndata @0x100 { word 0x2 }\n")
    assert [(d.line, d.message) for d in exc.value.diagnostics] == [
        (2, "duplicate data object @0x100")]


@pytest.mark.parametrize("body,message,point", [
    ("  jump nowhere\n", "jump to undefined label nowhere", "f:bb0:0"),
    ("  ret\n  r1 = r2\n  ret\n", "statement after terminator", "f:bb0:1"),
    ("  r1 = r2\n  call g()\n",
     "call ends the function's last block and falls off its end", "f:bb0:1"),
])
def test_validate_names_the_statement(body, message, point):
    prog = parse(f"func f @0x1000 frame=0 {{\nbb0:\n{body}}}\n")
    assert [str(d) for d in ir.validate(prog)] == [f"{point}: {message}"]


def test_block_and_function_lookups():
    prog = parse(_FUNC)
    f = prog.functions["f"]
    assert f.block("bb0") is f.blocks[0]
    with pytest.raises(KeyError):
        f.block("bb9")
    assert prog.function_at(0x1000) is f
    assert prog.function_at(0x2000) is None


def test_equal_lines_share_one_form():
    """A statement line whose text (stripped, comment-free) repeats an
    earlier one reuses its form; each statement keeps its point and line."""
    prog = parse("func f @0x1000 frame=0 {\nbb0:\n  store r1 + 0x4 = r2\n"
                 "  r3 = r2\nbb1:\n  store r1 + 0x4 = r2   # again\n  ret\n}\n")
    first, _, again, _ = prog.functions["f"].statements()
    assert again.form is first.form
    assert (first.point, first.line) == (ir.Point("f", "bb0", 0), 3)
    assert (again.point, again.line) == (ir.Point("f", "bb1", 0), 6)
    assert again == ir.Statement(ir.Point("f", "bb1", 0), ir.Store("r1", "r2", 4))
    assert hash(again.point) == hash(ir.Point("f", "bb1", 0))
    assert first.point < again.point


def test_line_with_a_diagnostic_is_not_shared():
    """A line whose form came with a diagnostic is parsed again where it
    repeats, so each occurrence reports its own."""
    with pytest.raises(ir.ParseError) as err:
        parse("func f @0x1000 frame=0 {\nbb0:\n  call g(r1, ?)\n"
              "  call g(r1, ?)\n  ret\n}\n")
    assert [str(d) for d in err.value.diagnostics] == [
        "line 3: malformed argument '?'", "line 4: malformed argument '?'"]


def test_repeated_wide_immediate_is_reported_at_each_statement():
    prog = parse("func f @0x1000 frame=0 {\nbb0:\n  r1 = 0x100000000\n"
                 "  r1 = 0x100000000\n  ret\n}\n")
    assert [str(d) for d in ir.validate(prog)] == [
        f"f:bb0:{i}: immediate 0x100000000 exceeds the 4-byte word width"
        for i in (0, 1)]
