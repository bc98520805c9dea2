"""The textual micro-IR: a small three-address language all analyses consume.

A program is a set of functions, a data section of 64-bit words, and a
string table.  One statement per line.  A ``#`` outside a string literal
starts a comment that runs to the end of the line; inside one it is part
of the string.  Example::

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

A line's leading keyword (or, for ``rD = ...``, the token after ``=``)
picks the one pattern it must match.  Each distinct statement is parsed
once: a statement line whose text, stripped and without its comment,
repeats an earlier one shares that line's form object, and only its
point and line are its own; a line whose form came with a diagnostic is
not shared, so each occurrence reports its own.  Parsing is pure and
total (all errors are collected before raising); a validated Program is
immutable and safe to share between analyses.  A strings section holds
nothing but entries: any other text in it is a ``malformed string
entry``, and an address given twice is a ``duplicate string``, as a
repeated data base is a ``duplicate data object``.  :func:`validate`
reports data objects whose words overlap (``data objects @A and @B
overlap``), since a word must belong to one object.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

Operand = Union[str, int]  # register name or 64-bit immediate


class Point(NamedTuple):
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

TERMINATORS = frozenset((Branch, Jump, Ret))


# Per form type: the field naming the register it defines (None when it
# defines none), and the operands it reads, in order.  A load or store
# displacement is not an operand.
_FIELDS: dict[type, tuple[Optional[str], Callable[..., tuple[Operand, ...]]]] = {
    Move: ("dst", lambda f: (f.src,)),
    BinOp: ("dst", lambda f: (f.lhs, f.rhs)),
    UnOp: ("dst", lambda f: (f.src,)),
    Ite: ("dst", lambda f: (f.cond, f.then_v, f.else_v)),
    Load: ("dst", lambda f: (f.addr,)),
    Store: (None, lambda f: (f.addr, f.src)),
    Call: ("ret", lambda f: f.args),
    ICall: ("ret", lambda f: (f.target, *f.args)),
    Branch: (None, lambda f: (f.cond,)),
    Jump: (None, lambda f: ()),
    Ret: (None, lambda f: () if f.value is None else (f.value,)),
}


def defined_register(form: Form) -> Optional[str]:
    name = _FIELDS[type(form)][0]
    return None if name is None else getattr(form, name)


def used_registers(form: Form) -> list[str]:
    """The registers `form` reads, in operand order."""
    return [o for o in _FIELDS[type(form)][1](form) if type(o) is str]


def immediates(form: Form) -> list[int]:
    """The immediates `form` reads, in operand order."""
    return [o for o in _FIELDS[type(form)][1](form) if type(o) is int]


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
    line: int = field(default=0, compare=False)     # of its `buf` header


@dataclass(frozen=True)
class Function:
    name: str
    entry_address: int
    frame_size: int
    blocks: tuple[Block, ...]
    stack_buffers: tuple[StackBuffer, ...] = ()
    line: int = field(default=0, compare=False)     # of its `func` header

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
    # data object address -> the line of its `data` header
    data_lines: dict[int, int] = field(default_factory=dict, compare=False,
                                       repr=False)

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
_ASSIGN = rf"({_REG})\s*=\s*"
_OPND_RE = re.compile(_OPND)
_ARGS_RE = re.compile(rf"\s*{_OPND}\s*(?:,\s*{_OPND}\s*)*")
_DATA_WORD = re.compile(rf"word\s+({_INT})")
_STRING_ENTRY = re.compile(rf'\s*@({_INT})\s+"([^"]*)"')

# A line is classified by its leading keyword, or by the first character
# after `=` for an assignment, and then matched against the one pattern
# of that kind.  The keywords and those characters name disjoint sets of
# lines, so no line can match the pattern of another kind.
_LABEL = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*:$")
_KEYWORDS = {
    "wordsize": ("wordsize", re.compile(rf"wordsize\s+({_INT})$")),
    "func": ("func", re.compile(
        rf"func\s+([A-Za-z_][\w]*)\s+@({_INT})\s+frame\s*=\s*({_INT})\s*\{{$")),
    "buf": ("buf", re.compile(rf"buf\s+([A-Za-z_][\w]*)\s+@({_INT})\s+size\s+({_INT})$")),
    "data": ("data", re.compile(rf"data\s+@({_INT})\s*\{{(.*)\}}$")),
    "strings": ("strings", re.compile(r"strings\s*\{(.*?)(\})?$")),
    "}": ("close", re.compile(r"\}$")),
    "store": ("store", re.compile(
        rf"store\s+({_REG})\s*(?:\+\s*({_INT}))?\s*=\s*({_OPND})$")),
    # the empty first group stands for `rD = call`'s result register
    "call": ("call", re.compile(r"()call\s+([A-Za-z_]\w*)\s*\((.*)\)$")),
    "icall": ("icall", re.compile(rf"()icall\s+({_REG})\s*\((.*)\)$")),
    "branch": ("branch", re.compile(
        rf"branch\s+({_REG})\s*,\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)$")),
    "jump": ("jump", re.compile(r"jump\s+([A-Za-z_]\w*)$")),
    "ret": ("ret", re.compile(rf"ret(?:\s+({_OPND}))?$")),
}
_UNOP = ("unop", re.compile(rf"{_ASSIGN}(~|!|neg)\s*({_OPND})$"))
_ICALL_RET = ("icall", re.compile(rf"{_ASSIGN}icall\s+({_REG})\s*\((.*)\)$"))
_ITE = ("ite", re.compile(rf"{_ASSIGN}ite\s+({_REG})\s*,\s*({_OPND})\s*,\s*({_OPND})$"))
_MOVE_BINOP = ("move", re.compile(
    rf"{_ASSIGN}({_OPND})(?:\s*(<<|>>|<=|>=|==|!=|[+\-*/&|^<>])\s*({_OPND}))?$"))
# the first character of an assignment's right-hand side: `i` opens both
# `icall` and `ite`, told apart by the second
_RHS = {
    "l": ("load", re.compile(rf"{_ASSIGN}load\s+({_REG})\s*(?:\+\s*({_INT}))?$")),
    "c": ("call", re.compile(rf"{_ASSIGN}call\s+([A-Za-z_][\w]*)\s*\((.*)\)$")),
    "i": _ICALL_RET, "~": _UNOP, "!": _UNOP, "n": _UNOP,
}


def _int(tok: str) -> int:
    return int(tok, 0) & ((1 << 64) - 1)


def _operand(tok: str) -> Operand:
    """A token a pattern matched as an operand: registers start with a
    letter (r, s or g), immediates with a digit or `-`."""
    return tok if tok[0] in "rsg" else _int(tok)


def _classify(line: str) -> tuple[str, Optional[re.Match]]:
    """The kind of `line` and its pattern's match (None when the line
    has the kind's shape but not its syntax)."""
    if line[-1] == ":" and (m := _LABEL.match(line)):
        return "label", m
    words = line.split(None, 2)
    kind = _KEYWORDS.get(words[0])
    if kind is None:
        if words[0].startswith("strings"):
            kind = _KEYWORDS["strings"]
        else:
            rhs = (words[2] if len(words) == 3 and words[1] == "="
                   else line.partition("=")[2].lstrip())
            kind = _RHS.get(rhs[:1], _MOVE_BINOP)
            if kind is _ICALL_RET and rhs[1:2] == "t":
                kind = _ITE
    return kind[0], kind[1].match(line)


def _args(text: str, diags, lineno) -> tuple[Operand, ...]:
    """A call's arguments; each malformed one is reported and left out."""
    if not text.strip():
        return ()
    if _ARGS_RE.fullmatch(text):
        return tuple(_operand(part.strip()) for part in text.split(","))
    out = []
    for part in text.split(","):
        part = part.strip()
        if _OPND_RE.fullmatch(part):
            out.append(_operand(part))
        else:
            diags.append(Diagnostic(f"malformed argument {part!r}", line=lineno))
    return tuple(out)


def _uncomment(raw: str) -> str:
    """`raw` up to its first `#` outside a string literal."""
    at = raw.find("#")
    while at >= 0 and raw.count('"', 0, at) % 2:
        at = raw.find("#", at + 1)
    return raw if at < 0 else raw[:at]


def parse_program(text: str) -> Program:
    """Parse micro-IR source into a Program.

    Raises ParseError carrying every diagnostic found; there are no
    partial results.  Structural (cross-reference) checks live in
    :func:`validate` and report rather than raise.
    """
    diags: list[Diagnostic] = []
    functions: dict[str, Function] = {}
    data: dict[int, tuple[int, ...]] = {}
    data_lines: dict[int, int] = {}
    strings: dict[int, str] = {}
    word_size = 4

    cur_fn = None           # (name, addr, frame, buffers, blocks, header line)
    labels: set[str] = set()
    cur_label = None
    cur_stmts: list[Statement] = []
    strings_line = None     # the open strings section's header line
    forms: dict[str, Form] = {}     # statement text -> its one form

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
            functions[name] = Function(name, addr, frame, tuple(blocks), tuple(bufs),
                                       line)
        cur_fn = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (_uncomment(raw) if "#" in raw else raw).strip()
        if not line:
            continue
        if strings_line is not None:
            if line == "}":
                strings_line = None
                continue
            _string_entries(line, strings, diags, lineno)
            continue

        form = forms.get(line)
        if form is None:
            kind, m = _classify(line)
        if form is not None or m is None or kind in _BUILD:
            # a statement, or a line that is none
            if cur_fn is None:
                diags.append(Diagnostic(f"statement outside function: {line!r}", line=lineno))
                continue
            if cur_label is None:
                diags.append(Diagnostic("statement before first label", line=lineno))
                cur_label = "bb0"
                labels.add(cur_label)
            if form is None:
                if m is None:
                    diags.append(Diagnostic(f"syntax error: {line!r}", line=lineno))
                    continue
                reported = len(diags)
                form = _BUILD[kind](m.groups(), diags, lineno)
                if len(diags) == reported:    # a line with a diagnostic reports it again
                    forms[line] = form
            cur_stmts.append(_statement(cur_fn[0], cur_label, len(cur_stmts), form, lineno))
            continue
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
                wm = _DATA_WORD.fullmatch(part)
                if wm:
                    words.append(_int(wm.group(1)))
                elif part:
                    diags.append(Diagnostic(f"malformed data word {part!r}", line=lineno))
            if addr in data:
                diags.append(Diagnostic(f"duplicate data object @{addr:#x}", line=lineno))
            data[addr] = tuple(words)
            data_lines[addr] = lineno
            continue
        if kind == "strings":
            if m.group(1).strip():
                _string_entries(m.group(1), strings, diags, lineno)
            strings_line = None if m.group(2) == "}" else lineno
            continue
        if kind == "func":
            if cur_fn is not None:
                diags.append(Diagnostic("nested func", line=lineno))
                close_func()
            cur_fn = [m.group(1), _int(m.group(2)), _int(m.group(3)), [], [], lineno]
            labels = set()
            continue
        if cur_fn is None:
            diags.append(Diagnostic(f"statement outside function: {line!r}", line=lineno))
            continue
        if kind == "buf":
            cur_fn[3].append(StackBuffer(m.group(1), _int(m.group(2)), _int(m.group(3)),
                                         lineno))
        elif kind == "label":
            close_block()
            label = m.group(1)
            if label in labels:
                diags.append(Diagnostic(f"duplicate label {label}", line=lineno))
            labels.add(label)
            cur_label = label
        else:   # the closing brace
            close_func()

    if cur_fn is not None:
        diags.append(Diagnostic("unterminated function (missing '}')", line=cur_fn[5]))
        close_func()
    if strings_line is not None:
        diags.append(Diagnostic("unterminated strings section", line=strings_line))
    if diags:
        raise ParseError(diags)
    return Program(functions, data, strings, word_size, data_lines)


def _statement(func: str, block: str, index: int, form: Form, line: int) -> Statement:
    """`Statement(Point(func, block, index), form, line)`, its `__dict__`
    set at once: a frozen dataclass's `__init__` makes one
    `object.__setattr__` call per field.  (Filling the `__dict__` an
    instance already has, key by key, would slow every later read.)"""
    stmt = object.__new__(Statement)
    _set(stmt, "__dict__", {"point": Point(func, block, index), "form": form,
                            "line": line})
    return stmt


_set = object.__setattr__


def _string_entries(text: str, strings: dict, diags, lineno) -> None:
    """Read `text`'s string entries; the text must be nothing else."""
    pos = 0
    while m := _STRING_ENTRY.match(text, pos):
        addr = _int(m.group(1))
        if addr in strings:
            diags.append(Diagnostic(f"duplicate string @{addr:#x}", line=lineno))
        strings[addr] = m.group(2)
        pos = m.end()
    if text[pos:].strip():
        rest = text[pos:].strip() if pos else text
        diags.append(Diagnostic(f"malformed string entry {rest!r}", line=lineno))


# kind -> the form built from its pattern's groups
_BUILD = {
    "load": lambda g, diags, lineno: Load(g[0], g[1], _int(g[2]) if g[2] else 0),
    "store": lambda g, diags, lineno: Store(g[0], _operand(g[2]),
                                            _int(g[1]) if g[1] else 0),
    "ite": lambda g, diags, lineno: Ite(g[0], g[1], _operand(g[2]), _operand(g[3])),
    "call": lambda g, diags, lineno: Call(g[1], _args(g[2], diags, lineno), g[0] or None),
    "icall": lambda g, diags, lineno: ICall(g[1], _args(g[2], diags, lineno), g[0] or None),
    "branch": lambda g, diags, lineno: Branch(*g),
    "jump": lambda g, diags, lineno: Jump(g[0]),
    "ret": lambda g, diags, lineno: Ret(_operand(g[0]) if g[0] else None),
    "unop": lambda g, diags, lineno: UnOp(g[0], g[1], _operand(g[2])),
    # a move, or a binop when the pattern matched an operator
    "move": lambda g, diags, lineno: (Move(g[0], _operand(g[1])) if g[2] is None else
                                      BinOp(g[0], g[2], _operand(g[1]), _operand(g[3]))),
}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(program: Program) -> list[Diagnostic]:
    """Check the structural invariants; an empty list means well-formed."""
    diags: list[Diagnostic] = []
    word_limit = 1 << (8 * program.word_size)
    spans = sorted((base, base + len(words) * program.word_size)
                   for base, words in program.data_section.items() if words)
    for i, (base, end) in enumerate(spans):
        for other, _ in spans[i + 1:bisect.bisect_left(spans, (end,))]:
            diags.append(Diagnostic(f"data objects @{base:#x} and @{other:#x} overlap",
                                    line=program.data_lines.get(other)))
    seen_addr: dict[int, str] = {}
    for fn in program.functions.values():
        if fn.entry_address in seen_addr:
            diags.append(Diagnostic(
                f"functions {seen_addr[fn.entry_address]} and {fn.name} share entry "
                f"address {fn.entry_address:#x}", line=fn.line))
        seen_addr[fn.entry_address] = fn.name
        # the data object starting nearest at or below the entry is the
        # only one that can hold it, unless objects overlap
        i = bisect.bisect_left(spans, (fn.entry_address + 1,)) - 1
        if i >= 0 and fn.entry_address < spans[i][1]:
            diags.append(Diagnostic(
                f"function {fn.name} entry {fn.entry_address:#x} overlaps data "
                f"object @{spans[i][0]:#x}", line=fn.line))
        labels = {b.label for b in fn.blocks}
        for buf in fn.stack_buffers:
            if buf.offset + buf.size > fn.frame_size:
                diags.append(Diagnostic(
                    f"stack buffer {buf.name} ({buf.offset:#x}+{buf.size:#x}) exceeds "
                    f"frame size {fn.frame_size:#x} of {fn.name}", line=buf.line))
        for block in fn.blocks:
            last = len(block.stmts) - 1
            for si, stmt in enumerate(block.stmts):
                form = stmt.form
                kind = type(form)
                for imm in _FIELDS[kind][1](form):
                    if type(imm) is int and imm >= word_limit:
                        diags.append(Diagnostic(
                            f"immediate {imm:#x} exceeds the {program.word_size}-byte "
                            f"word width", point=stmt.point))
                if kind is Branch:
                    for lbl in (form.then_block, form.else_block):
                        if lbl not in labels:
                            diags.append(Diagnostic(
                                f"branch to undefined label {lbl}", point=stmt.point))
                elif kind is Jump and form.block not in labels:
                    diags.append(Diagnostic(
                        f"jump to undefined label {form.block}", point=stmt.point))
                if si != last and kind in TERMINATORS:
                    diags.append(Diagnostic(
                        "statement after terminator", point=block.stmts[si + 1].point))
            kind = type(block.stmts[-1].form) if block.stmts else None
            if kind is Call or kind is ICall:
                if block is fn.blocks[-1]:
                    diags.append(Diagnostic(
                        "call ends the function's last block and falls off its end",
                        point=block.stmts[-1].point))
            elif kind not in TERMINATORS:
                diags.append(Diagnostic(
                    f"block {block.label} of {fn.name} does not end in "
                    f"branch/jump/ret/call", point=block.stmts[-1].point if block.stmts else None))
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
    if isinstance(form, (Call, ICall)):
        args = ", ".join(_fmt_operand(a) for a in form.args)
        head = f"{form.ret} = " if form.ret else ""
        return f"{head}{type(form).__name__.lower()} {form.target}({args})"
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
