"""The textual micro-IR: a small three-address language all analyses consume.

A program is a set of functions, a data section of 64-bit words, and a
string table.  One statement per line, ``#`` comments.  Example::

    wordsize 4

    data @0x92C44 { word 0x9000, word 0x5100 }
    strings { @0x9000 "alpha" }

    func main @0x1000 frame=0x40 {
      buf dst @0x20 size 0x20
    bb0:
      r1 = sp + 0x20
      r2 = load r1 + 0x8
      store r1 = r2
      r3 = call helper(r1, 0x4)
      branch r3, bb1, bb2
    bb1:
      jump bb2
    bb2:
      ret r1
    }

Statement forms: move ``rD = src``; binop ``rD = a OP b`` with OP in
+ - * / << >> & | ^ < <= == != >= >; unop ``rD = ~x | !x | neg x``;
value select ``rD = ite rC, a, b``; ``rD = load rA [+ imm]``;
``store rA [+ imm] = src``; ``[rD =] call name(args)``;
``[rD =] icall rT(args)``; ``branch rC, labelT, labelF``;
``jump label``; ``ret [src]``.

Load/store addresses are a register plus an optional constant
displacement; any other address arithmetic must be materialized into a
temporary register first.  Registers are ``r<N>``, ``sp`` (frame base)
and ``gp`` (globals base).  Calls pass argument i in the callee's ri and
return in the caller's named result register.

Parsing is pure and total (all errors are collected before raising);
a validated Program is immutable and safe to share between analyses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

Operand = Union[str, int]  # register name or 64-bit immediate


@dataclass(frozen=True, order=True)
class Point:
    """Stable program-point id: (function, source block label, index)."""
    func: str
    block: str
    index: int

    def __str__(self):
        return f"{self.func}:{self.block}:{self.index}"


@dataclass(frozen=True)
class Move:
    dst: str
    src: Operand


@dataclass(frozen=True)
class BinOp:
    dst: str
    op: str
    lhs: Operand
    rhs: Operand


@dataclass(frozen=True)
class UnOp:
    dst: str
    op: str
    src: Operand


@dataclass(frozen=True)
class Ite:
    dst: str
    cond: str
    then_v: Operand
    else_v: Operand


@dataclass(frozen=True)
class Load:
    dst: str
    addr: str
    disp: int = 0


@dataclass(frozen=True)
class Store:
    addr: str
    src: Operand
    disp: int = 0


@dataclass(frozen=True)
class Call:
    target: str
    args: tuple[Operand, ...] = ()
    ret: Optional[str] = None


@dataclass(frozen=True)
class ICall:
    target: str
    args: tuple[Operand, ...] = ()
    ret: Optional[str] = None


@dataclass(frozen=True)
class Branch:
    cond: str
    then_block: str
    else_block: str


@dataclass(frozen=True)
class Jump:
    block: str


@dataclass(frozen=True)
class Ret:
    value: Optional[Operand] = None


Form = Union[Move, BinOp, UnOp, Ite, Load, Store, Call, ICall, Branch, Jump, Ret]

TERMINATORS = (Branch, Jump, Ret)


def defined_register(form: Form) -> Optional[str]:
    if isinstance(form, (Move, BinOp, UnOp, Ite, Load)):
        return form.dst
    if isinstance(form, (Call, ICall)):
        return form.ret
    return None


def operands(form: Form) -> list[Operand]:
    """The operands `form` reads, in order: registers and immediates
    (a load or store displacement is not an operand)."""
    if isinstance(form, (Move, UnOp)):
        return [form.src]
    if isinstance(form, BinOp):
        return [form.lhs, form.rhs]
    if isinstance(form, Ite):
        return [form.cond, form.then_v, form.else_v]
    if isinstance(form, Load):
        return [form.addr]
    if isinstance(form, Store):
        return [form.addr, form.src]
    if isinstance(form, Call):
        return list(form.args)
    if isinstance(form, ICall):
        return [form.target, *form.args]
    if isinstance(form, Branch):
        return [form.cond]
    if isinstance(form, Ret) and form.value is not None:
        return [form.value]
    return []


def used_registers(form: Form) -> list[str]:
    return [o for o in operands(form) if isinstance(o, str)]


def immediates(form: Form) -> list[int]:
    return [o for o in operands(form) if isinstance(o, int)]


@dataclass(frozen=True)
class Statement:
    point: Point
    form: Form
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Block:
    label: str
    stmts: tuple[Statement, ...]


@dataclass(frozen=True)
class StackBuffer:
    name: str
    offset: int
    size: int


@dataclass(frozen=True)
class Function:
    name: str
    entry_address: int
    frame_size: int
    blocks: tuple[Block, ...]
    stack_buffers: tuple[StackBuffer, ...] = ()

    @property
    def entry_block(self) -> str:
        return self.blocks[0].label

    def block(self, label: str) -> Block:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    def statements(self):
        for b in self.blocks:
            yield from b.stmts


@dataclass(frozen=True)
class Program:
    functions: dict[str, Function]
    data_section: dict[int, tuple[int, ...]]
    string_table: dict[int, str]
    word_size: int = 4

    def function_at(self, address: int) -> Optional[Function]:
        for f in self.functions.values():
            if f.entry_address == address:
                return f
        return None

    def data_word(self, address: int) -> Optional[int]:
        for base, words in self.data_section.items():
            off = address - base
            if 0 <= off < len(words) * self.word_size and off % self.word_size == 0:
                return words[off // self.word_size]
        return None

    def data_object(self, address: int) -> Optional[tuple[int, tuple[int, ...]]]:
        for base, words in self.data_section.items():
            if base <= address < base + len(words) * self.word_size:
                return base, words
        return None


@dataclass(frozen=True)
class Diagnostic:
    message: str
    line: Optional[int] = None
    point: Optional[Point] = None

    def __str__(self):
        loc = f"line {self.line}" if self.line else (str(self.point) if self.point else "?")
        return f"{loc}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# No leading zeros: one register has one name (r1, never r01), and a
# decimal immediate is one `int(tok, 0)` reads.
_INT = r"(?:0x[0-9a-fA-F]+|-?(?:0|[1-9][0-9]*))"
_REG = r"(?:r(?:0|[1-9][0-9]*)|sp|gp)"
_OPND = rf"(?:{_REG}|{_INT})"
REG_RE = re.compile(rf"{_REG}$")

_PATTERNS = [
    ("wordsize", re.compile(rf"wordsize\s+({_INT})$")),
    ("func", re.compile(rf"func\s+([A-Za-z_][\w]*)\s+@({_INT})\s+frame\s*=\s*({_INT})\s*\{{$")),
    ("buf", re.compile(rf"buf\s+([A-Za-z_][\w]*)\s+@({_INT})\s+size\s+({_INT})$")),
    ("data", re.compile(rf"data\s+@({_INT})\s*\{{(.*)\}}$")),
    ("strings_open", re.compile(r"strings\s*\{(.*?)(\})?$")),
    ("label", re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*:$")),
    ("close", re.compile(r"\}$")),
]

_STMT_PATTERNS = [
    ("load", re.compile(rf"({_REG})\s*=\s*load\s+({_REG})\s*(?:\+\s*({_INT}))?$")),
    ("store", re.compile(rf"store\s+({_REG})\s*(?:\+\s*({_INT}))?\s*=\s*({_OPND})$")),
    ("ite", re.compile(rf"({_REG})\s*=\s*ite\s+({_REG})\s*,\s*({_OPND})\s*,\s*({_OPND})$")),
    ("call_ret", re.compile(rf"({_REG})\s*=\s*call\s+([A-Za-z_][\w]*)\s*\((.*)\)$")),
    ("call", re.compile(r"call\s+([A-Za-z_]\w*)\s*\((.*)\)$")),
    ("icall_ret", re.compile(rf"({_REG})\s*=\s*icall\s+({_REG})\s*\((.*)\)$")),
    ("icall", re.compile(rf"icall\s+({_REG})\s*\((.*)\)$")),
    ("branch", re.compile(rf"branch\s+({_REG})\s*,\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)$")),
    ("jump", re.compile(r"jump\s+([A-Za-z_]\w*)$")),
    ("ret", re.compile(rf"ret(?:\s+({_OPND}))?$")),
    ("unop", re.compile(rf"({_REG})\s*=\s*(~|!|neg)\s*({_OPND})$")),
    ("binop", re.compile(
        rf"({_REG})\s*=\s*({_OPND})\s*(<<|>>|<=|>=|==|!=|[+\-*/&|^<>])\s*({_OPND})$")),
    ("move", re.compile(rf"({_REG})\s*=\s*({_OPND})$")),
]

_STRING_ENTRY = re.compile(rf'@({_INT})\s+"([^"]*)"')


def _int(tok: str) -> int:
    return int(tok, 0) & ((1 << 64) - 1)


def _operand(tok: str) -> Operand:
    if REG_RE.match(tok):
        return tok
    return _int(tok)


def _args(text: str, diags, lineno) -> tuple[Operand, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if re.fullmatch(_OPND, part):
            out.append(_operand(part))
        else:
            diags.append(Diagnostic(f"malformed argument {part!r}", line=lineno))
    return tuple(out)


def parse_program(text: str) -> Program:
    """Parse micro-IR source into a Program.

    Raises ParseError carrying every diagnostic found; there are no
    partial results.  Structural (cross-reference) checks live in
    :func:`validate` and report rather than raise.
    """
    diags: list[Diagnostic] = []
    functions: dict[str, Function] = {}
    data: dict[int, tuple[int, ...]] = {}
    strings: dict[int, str] = {}
    word_size = 4

    cur_fn = None           # (name, addr, frame, buffers, blocks, header line)
    cur_label = None
    cur_stmts: list[Statement] = []
    strings_line = None     # the open strings section's header line

    def close_block():
        nonlocal cur_label, cur_stmts
        if cur_label is not None:
            cur_fn[4].append(Block(cur_label, tuple(cur_stmts)))
        cur_label, cur_stmts = None, []

    def close_func():
        nonlocal cur_fn
        close_block()
        name, addr, frame, bufs, blocks, line = cur_fn
        if not blocks:
            diags.append(Diagnostic(f"function {name} has no blocks", line=line))
        else:
            if name in functions:
                diags.append(Diagnostic(f"duplicate function {name}", line=line))
            functions[name] = Function(name, addr, frame, tuple(blocks), tuple(bufs))
        cur_fn = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if strings_line is not None:
            if line == "}":
                strings_line = None
                continue
            _string_entries(line, strings, diags, lineno)
            continue

        kind = m = None
        for k, pat in _PATTERNS:
            m = pat.match(line)
            if m:
                kind = k
                break
        if kind == "wordsize":
            word_size = _int(m.group(1))
            if word_size not in (4, 8):
                diags.append(Diagnostic("wordsize must be 4 or 8", line=lineno))
                word_size = 4
            continue
        if kind == "data":
            addr = _int(m.group(1))
            words = []
            for part in m.group(2).split(","):
                part = part.strip()
                wm = re.fullmatch(rf"word\s+({_INT})", part)
                if wm:
                    words.append(_int(wm.group(1)))
                elif part:
                    diags.append(Diagnostic(f"malformed data word {part!r}", line=lineno))
            if addr in data:
                diags.append(Diagnostic(f"duplicate data object @{addr:#x}", line=lineno))
            data[addr] = tuple(words)
            continue
        if kind == "strings_open":
            if m.group(1).strip():
                _string_entries(m.group(1), strings, diags, lineno)
            strings_line = None if m.group(2) == "}" else lineno
            continue
        if kind == "func":
            if cur_fn is not None:
                diags.append(Diagnostic("nested func", line=lineno))
                close_func()
            cur_fn = [m.group(1), _int(m.group(2)), _int(m.group(3)), [], [], lineno]
            continue
        if cur_fn is None:
            diags.append(Diagnostic(f"statement outside function: {line!r}", line=lineno))
            continue
        if kind == "buf":
            cur_fn[3].append(StackBuffer(m.group(1), _int(m.group(2)), _int(m.group(3))))
            continue
        if kind == "label":
            close_block()
            label = m.group(1)
            if any(b.label == label for b in cur_fn[4]):
                diags.append(Diagnostic(f"duplicate label {label}", line=lineno))
            cur_label = label
            continue
        if kind == "close":
            close_func()
            continue

        # plain statement
        if cur_label is None:
            diags.append(Diagnostic("statement before first label", line=lineno))
            cur_label = "bb0"
        form = _parse_stmt(line, diags, lineno)
        if form is not None:
            point = Point(cur_fn[0], cur_label, len(cur_stmts))
            cur_stmts.append(Statement(point, form, line=lineno))

    if cur_fn is not None:
        diags.append(Diagnostic("unterminated function (missing '}')", line=cur_fn[5]))
        close_func()
    if strings_line is not None:
        diags.append(Diagnostic("unterminated strings section", line=strings_line))
    if diags:
        raise ParseError(diags)
    return Program(functions, data, strings, word_size)


def _string_entries(text: str, strings: dict, diags, lineno) -> None:
    for m in _STRING_ENTRY.finditer(text):
        strings[_int(m.group(1))] = m.group(2)
    if not _STRING_ENTRY.search(text):
        diags.append(Diagnostic(f"malformed string entry {text!r}", line=lineno))


def _parse_stmt(line: str, diags, lineno) -> Optional[Form]:
    for kind, pat in _STMT_PATTERNS:
        m = pat.match(line)
        if not m:
            continue
        if kind == "load":
            return Load(m.group(1), m.group(2), _int(m.group(3)) if m.group(3) else 0)
        if kind == "store":
            return Store(m.group(1), _operand(m.group(3)),
                         _int(m.group(2)) if m.group(2) else 0)
        if kind == "ite":
            return Ite(m.group(1), m.group(2), _operand(m.group(3)), _operand(m.group(4)))
        if kind == "call_ret":
            return Call(m.group(2), _args(m.group(3), diags, lineno), ret=m.group(1))
        if kind == "call":
            return Call(m.group(1), _args(m.group(2), diags, lineno))
        if kind == "icall_ret":
            return ICall(m.group(2), _args(m.group(3), diags, lineno), ret=m.group(1))
        if kind == "icall":
            return ICall(m.group(1), _args(m.group(2), diags, lineno))
        if kind == "branch":
            return Branch(m.group(1), m.group(2), m.group(3))
        if kind == "jump":
            return Jump(m.group(1))
        if kind == "ret":
            return Ret(_operand(m.group(1)) if m.group(1) else None)
        if kind == "unop":
            return UnOp(m.group(1), m.group(2), _operand(m.group(3)))
        if kind == "binop":
            return BinOp(m.group(1), m.group(3), _operand(m.group(2)), _operand(m.group(4)))
        if kind == "move":
            return Move(m.group(1), _operand(m.group(2)))
    diags.append(Diagnostic(f"syntax error: {line!r}", line=lineno))
    return None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(program: Program) -> list[Diagnostic]:
    """Check the structural invariants; an empty list means well-formed."""
    diags: list[Diagnostic] = []
    word_limit = 1 << (8 * program.word_size)
    seen_addr: dict[int, str] = {}
    for fn in program.functions.values():
        if fn.entry_address in seen_addr:
            diags.append(Diagnostic(
                f"functions {seen_addr[fn.entry_address]} and {fn.name} share entry "
                f"address {fn.entry_address:#x}"))
        seen_addr[fn.entry_address] = fn.name
        for base, words in program.data_section.items():
            if base <= fn.entry_address < base + len(words) * program.word_size:
                diags.append(Diagnostic(
                    f"function {fn.name} entry {fn.entry_address:#x} overlaps data "
                    f"object @{base:#x}"))
        labels = {b.label for b in fn.blocks}
        for buf in fn.stack_buffers:
            if buf.offset + buf.size > fn.frame_size:
                diags.append(Diagnostic(
                    f"stack buffer {buf.name} ({buf.offset:#x}+{buf.size:#x}) exceeds "
                    f"frame size {fn.frame_size:#x} of {fn.name}"))
        for block in fn.blocks:
            for si, stmt in enumerate(block.stmts):
                form = stmt.form
                for imm in immediates(form):
                    if imm >= word_limit:
                        diags.append(Diagnostic(
                            f"immediate {imm:#x} exceeds the {program.word_size}-byte "
                            f"word width", point=stmt.point))
                if isinstance(form, Branch):
                    for lbl in (form.then_block, form.else_block):
                        if lbl not in labels:
                            diags.append(Diagnostic(
                                f"branch to undefined label {lbl}", point=stmt.point))
                elif isinstance(form, Jump) and form.block not in labels:
                    diags.append(Diagnostic(
                        f"jump to undefined label {form.block}", point=stmt.point))
                if isinstance(form, TERMINATORS) and si != len(block.stmts) - 1:
                    diags.append(Diagnostic(
                        "statement after terminator", point=block.stmts[si + 1].point))
            last = block.stmts[-1].form if block.stmts else None
            if not isinstance(last, TERMINATORS + (Call, ICall)):
                diags.append(Diagnostic(
                    f"block {block.label} of {fn.name} does not end in "
                    f"branch/jump/ret/call", point=block.stmts[-1].point if block.stmts else None))
            elif isinstance(last, (Call, ICall)) and block is fn.blocks[-1]:
                diags.append(Diagnostic(
                    "call ends the function's last block and falls off its end",
                    point=block.stmts[-1].point))
    return diags


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through parse_program)
# ---------------------------------------------------------------------------

def _fmt_operand(o: Operand) -> str:
    return o if isinstance(o, str) else hex(o)


def pretty_stmt(form: Form) -> str:
    if isinstance(form, Move):
        return f"{form.dst} = {_fmt_operand(form.src)}"
    if isinstance(form, BinOp):
        return f"{form.dst} = {_fmt_operand(form.lhs)} {form.op} {_fmt_operand(form.rhs)}"
    if isinstance(form, UnOp):
        sep = " " if form.op == "neg" else ""
        return f"{form.dst} = {form.op}{sep}{_fmt_operand(form.src)}"
    if isinstance(form, Ite):
        return (f"{form.dst} = ite {form.cond}, {_fmt_operand(form.then_v)}, "
                f"{_fmt_operand(form.else_v)}")
    if isinstance(form, Load):
        disp = f" + {hex(form.disp)}" if form.disp else ""
        return f"{form.dst} = load {form.addr}{disp}"
    if isinstance(form, Store):
        disp = f" + {hex(form.disp)}" if form.disp else ""
        return f"store {form.addr}{disp} = {_fmt_operand(form.src)}"
    if isinstance(form, Call):
        args = ", ".join(_fmt_operand(a) for a in form.args)
        head = f"{form.ret} = " if form.ret else ""
        return f"{head}call {form.target}({args})"
    if isinstance(form, ICall):
        args = ", ".join(_fmt_operand(a) for a in form.args)
        head = f"{form.ret} = " if form.ret else ""
        return f"{head}icall {form.target}({args})"
    if isinstance(form, Branch):
        return f"branch {form.cond}, {form.then_block}, {form.else_block}"
    if isinstance(form, Jump):
        return f"jump {form.block}"
    # the last form left: Ret
    return "ret" if form.value is None else f"ret {_fmt_operand(form.value)}"


def pretty_program(program: Program) -> str:
    out = []
    if program.word_size != 4:
        out.append(f"wordsize {program.word_size}")
    for addr in sorted(program.data_section):
        words = ", ".join(f"word {w:#x}" for w in program.data_section[addr])
        out.append(f"data @{addr:#x} {{ {words} }}")
    if program.string_table:
        out.append("strings {")
        for addr in sorted(program.string_table):
            out.append(f'  @{addr:#x} "{program.string_table[addr]}"')
        out.append("}")
    for fn in program.functions.values():
        out.append(f"func {fn.name} @{fn.entry_address:#x} frame={fn.frame_size:#x} {{")
        for buf in fn.stack_buffers:
            out.append(f"  buf {buf.name} @{buf.offset:#x} size {buf.size:#x}")
        for block in fn.blocks:
            out.append(f"{block.label}:")
            for stmt in block.stmts:
                out.append(f"  {pretty_stmt(stmt.form)}")
        out.append("}")
    return "\n".join(out) + "\n"
