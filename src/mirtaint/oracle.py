"""Concrete micro-IR interpreter and differential alias certification.

The interpreter executes programs on concrete 64-bit state.  Reads of
uninitialized registers or memory return deterministic seeded
pseudo-random values (hash of seed and location), so distinct
expressions collide with negligible probability across seeds, and a
recorded run replays exactly.

``certify_aliases`` replays engine-reported alias pairs: a pair passes
when, in every run that reaches both program points (with the pair's
ITE conditions satisfied), both expressions evaluate to the same value.
A pair no run compared is `step-limit` when a run stopped at its step
limit, else `vacuous`.  A failing run is shrunk by zeroing entry inputs
before reporting.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional

from . import ir
from . import sse as S
from .alias import Analysis, Seed, Session, Tracked, addr_sse

SP_BASE = 0x7FFF_0000
GP_BASE = 0x4000_0000


def _hash64(*parts) -> int:
    h = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


class OracleError(Exception):
    pass


@dataclass
class RunResult:
    snapshots: dict = field(default_factory=dict)    # (point, phase) -> (regs, mem, uid)
    steps: int = 0
    returned: Optional[int] = None
    step_limit_hit: bool = False
    warnings: list[str] = field(default_factory=list)
    initial_regs: dict = field(default_factory=dict)


class _Frame:
    __slots__ = ("func", "block", "idx", "regs", "uid", "site")

    def __init__(self, func, block, regs, uid, site=None):
        self.func = func
        self.block = block
        self.idx = 0
        self.regs = regs
        self.uid = uid
        self.site = site        # the call statement that made the frame


class Machine:
    """Concrete state.  The register width equals the memory word size
    (the usual 32-bit embedded target), so register/cell aliasing is
    exact; all arithmetic wraps at the word width."""

    def __init__(self, program: ir.Program, seed: int = 0,
                 inputs: dict[str, int] | None = None):
        self.program = program
        self.seed = seed
        self.mask = (1 << (8 * program.word_size)) - 1
        self.mem: dict[int, int] = {}
        self.inputs = dict(inputs or {})
        self._frame_uids = 0
        self._heap = 0x6000_0000
        self._load_data()

    def _load_data(self):
        ws = self.program.word_size
        for base, words in self.program.data_section.items():
            for i, w in enumerate(words):
                self.write_word(base + i * ws, w)
        for addr, text in self.program.string_table.items():
            self._write(addr, text.encode())

    # -- state access --------------------------------------------------------

    def read_byte(self, addr: int) -> int:
        addr &= self.mask
        if addr not in self.mem:
            self.mem[addr] = _hash64(self.seed, "m", addr) & 0xFF
        return self.mem[addr]

    def write_byte(self, addr: int, v: int):
        self.mem[addr & self.mask] = v & 0xFF

    def read_word(self, addr: int) -> int:
        ws = self.program.word_size
        return sum(self.read_byte(addr + i) << (8 * i) for i in range(ws))

    def write_word(self, addr: int, v: int):
        for i in range(self.program.word_size):
            self.write_byte(addr + i, (v >> (8 * i)) & 0xFF)

    def _write(self, addr: int, data: bytes, nul: bool = True):
        """`data` from `addr` on, then a NUL byte when `nul`."""
        for i, b in enumerate(data + b"\0" if nul else data):
            self.write_byte(addr + i, b)

    def reg(self, frame: _Frame, name: str) -> int:
        if name not in frame.regs:
            frame.regs[name] = _hash64(self.seed, "r", frame.uid, name) & self.mask
        return frame.regs[name]

    def operand(self, frame: _Frame, o: ir.Operand) -> int:
        return self.reg(frame, o) if isinstance(o, str) else (o & self.mask)

    def new_frame(self, func: str, vals=(),
                  site: Optional[ir.Statement] = None) -> _Frame:
        fn = self.program.functions[func]
        self._frame_uids += 1
        regs = {f"r{i}": v & self.mask for i, v in enumerate(vals)}
        regs["gp"] = GP_BASE
        return _Frame(func, fn.entry_block, regs, self._frame_uids, site)

    def _cstring(self, addr: int, cap: int = 4096) -> bytes:
        out = bytearray()
        for i in range(cap):
            b = self.read_byte(addr + i)
            if b == 0:
                break
            out.append(b)
        return bytes(out)

    # -- library models (pure copies per the taint summaries; enough to run
    #    corpus programs end to end, not a libc) ------------------------------

    def library_call(self, name: str, args: list[int], warn) -> int:
        if name in ("strcpy", "strcat", "strncat"):
            # strncat appends at most n bytes, and always a NUL
            dst, src = args[0], args[1]
            data = self._cstring(src)[:args[2] if name == "strncat" else None]
            base = dst if name == "strcpy" else dst + len(self._cstring(dst))
            self._write(base, data)
            return dst
        if name in ("strncpy", "strlcpy"):
            dst, src, n = args[0], args[1], args[2]
            data = self._cstring(src)[:n]
            self._write(dst, data, len(data) < n)
            return dst if name != "strlcpy" else len(data)
        if name in ("memcpy", "memmove"):
            dst, src, n = args[0], args[1], args[2]
            self._write(dst, bytes(self.read_byte(src + i)
                                   for i in range(min(n, 65536))), False)
            return dst
        if name in ("sprintf", "snprintf"):
            dst = args[0]
            fmt = args[1] if name == "sprintf" else args[2]
            data = self._cstring(fmt)
            self._write(dst, data)
            return len(data)
        if name == "strlen":
            return len(self._cstring(args[0]))
        if name in ("atoi", "atol", "atoll", "strtol", "strtoll", "strtoul"):
            text = self._cstring(args[0])
            digits = b""
            for ch in text:
                if chr(ch).isdigit():
                    digits += bytes([ch])
                else:
                    break
            return int(digits) if digits else 0
        if name == "strdup":
            self._heap += 0x100
            self._write(self._heap, self._cstring(args[0]))
            return self._heap
        if name in ("strstr", "strchr", "strrchr", "strpbrk", "stristr",
                    "index", "strtok", "strtok_r", "strsep"):
            return args[0]
        if name in ("recv", "recvfrom", "read", "fread", "fgets",
                    "BIO_read", "BIO_gets", "SSL_read"):
            # up to 32 bytes and a NUL, never past `buf + length`: fread's
            # length is size * count, and fgets and BIO_gets keep the
            # length's last byte for the NUL
            if name == "fread":
                buf, length = args[0], args[1] * args[2]
            elif name == "fgets":
                buf, length = args[0], args[1]
            else:
                buf, length = args[1], args[2]
            n = max(0, min(32, length - (name in ("fgets", "BIO_gets"))))
            self._write(buf, bytes(0x41 + _hash64(self.seed, "net", i) % 26
                                   for i in range(n)), n < length)
            return n
        if name == "getenv":
            self._heap += 0x100
            self._write(self._heap, b"abcdefgh")
            return self._heap
        if name in ("open", "fopen"):
            return 3
        if name in ("system", "popen", "execve", "strcmp", "strncmp"):
            return _hash64(self.seed, "ret", name, *args) & 1
        warn(f"unmodeled library call {name}; returning seeded value")
        return _hash64(self.seed, "lib", name)


def run(program: ir.Program, entry: str = "main",
        inputs: dict[str, int] | None = None, step_limit: int = 20000,
        seed: int = 0, watch: set | None = None) -> RunResult:
    """Execute ``entry``; deterministic given (program, inputs, seed).

    ``watch`` is a set of (Point, phase) pairs for which full
    register+memory snapshots are kept (phase "pre" is the state before
    the statement runs, "post" after; a call's "post" is taken once it
    returns, its result written).
    """
    if entry not in program.functions:
        raise OracleError(f"no function {entry}")
    m = Machine(program, seed=seed, inputs=inputs)
    res = RunResult()
    watch = watch or set()

    frame = m.new_frame(entry)
    frame.regs.update({k: v & m.mask for k, v in m.inputs.items()})
    frame.regs["sp"] = (SP_BASE - program.functions[entry].frame_size) & m.mask
    res.initial_regs = dict(frame.regs)
    stack = [frame]

    def snap(point, phase):
        # a "post" is taken in the activation that took the "pre": a
        # recursive call returns in a deeper frame first
        key = (point, phase)
        if key in watch and key not in res.snapshots:
            pre = res.snapshots.get((point, "pre")) if phase == "post" else None
            if pre is None or pre[2] == stack[-1].uid:
                res.snapshots[key] = (dict(stack[-1].regs), dict(m.mem), stack[-1].uid)

    while stack:
        if res.steps >= step_limit:
            res.step_limit_hit = True
            break
        frame = stack[-1]
        fn = program.functions[frame.func]
        block = fn.block(frame.block)
        if frame.idx >= len(block.stmts):
            raise OracleError(f"fell off block {frame.func}:{frame.block}")
        stmt = block.stmts[frame.idx]
        form = stmt.form
        res.steps += 1
        snap(stmt.point, "pre")

        if isinstance(form, ir.Move):
            frame.regs[form.dst] = m.operand(frame, form.src)
        elif isinstance(form, ir.BinOp):
            frame.regs[form.dst] = S.eval_binop(
                form.op, m.operand(frame, form.lhs),
                m.operand(frame, form.rhs)) & m.mask
        elif isinstance(form, ir.UnOp):
            frame.regs[form.dst] = S.eval_unop(
                form.op, m.operand(frame, form.src)) & m.mask
        elif isinstance(form, ir.Ite):
            c = m.reg(frame, form.cond)
            frame.regs[form.dst] = m.operand(frame, form.then_v if c else form.else_v)
        elif isinstance(form, ir.Load):
            frame.regs[form.dst] = m.read_word(m.reg(frame, form.addr) + form.disp)
        elif isinstance(form, ir.Store):
            m.write_word(m.reg(frame, form.addr) + form.disp,
                         m.operand(frame, form.src))
        elif isinstance(form, (ir.Call, ir.ICall)):
            if isinstance(form, ir.ICall):
                target_addr = m.reg(frame, form.target)
                callee_fn = program.function_at(target_addr)
                target = callee_fn.name if callee_fn else None
            else:
                target = form.target if form.target in program.functions else None
            vals = [m.operand(frame, a) for a in form.args]
            frame.idx += 1
            if frame.idx == len(block.stmts):
                # a call that ends its block falls through to the next one
                at = fn.blocks.index(block) + 1
                if at < len(fn.blocks):
                    frame.block, frame.idx = fn.blocks[at].label, 0
            if target is not None:
                callee = m.new_frame(target, vals=vals, site=stmt)
                callee.regs["sp"] = (m.reg(frame, "sp")
                                     - program.functions[target].frame_size) & m.mask
                stack.append(callee)
                continue
            name = form.target if isinstance(form, ir.Call) else f"@{target_addr:#x}"
            ret = m.library_call(name, vals, res.warnings.append) \
                if isinstance(form, ir.Call) else 0
            if isinstance(form, ir.ICall):
                res.warnings.append(f"icall to non-function {name} skipped")
            if form.ret is not None:
                frame.regs[form.ret] = ret & m.mask
            snap(stmt.point, "post")
            continue
        elif isinstance(form, ir.Branch):
            c = m.reg(frame, form.cond)
            snap(stmt.point, "post")
            frame.block = form.then_block if c else form.else_block
            frame.idx = 0
            continue
        elif isinstance(form, ir.Jump):
            snap(stmt.point, "post")
            frame.block = form.block
            frame.idx = 0
            continue
        elif isinstance(form, ir.Ret):
            v = m.operand(frame, form.value) if form.value is not None else 0
            snap(stmt.point, "post")
            stack.pop()
            if stack:
                if frame.site.form.ret is not None:
                    stack[-1].regs[frame.site.form.ret] = v
                snap(frame.site.point, "post")
            else:
                res.returned = v
            continue

        snap(stmt.point, "post")
        frame.idx += 1
    return res


# ---------------------------------------------------------------------------
# Expression evaluation against a snapshot
# ---------------------------------------------------------------------------

class Unsupported(Exception):
    pass


def eval_sse(expr: S.Sse, regs: dict, mem: dict, word_size: int,
             seed: int, frame_uid: int) -> int:
    """Evaluate against a snapshot, mirroring the machine: every node's
    value wraps at the word width, and load/store nodes read the cell as
    it is in the snapshot."""
    mask = (1 << (8 * word_size)) - 1
    if isinstance(expr, S.Reg):
        if expr.name not in regs:
            return _hash64(seed, "r", frame_uid, expr.name) & mask
        return regs[expr.name]
    if isinstance(expr, S.Val):
        return expr.value & mask
    if isinstance(expr, S.Bin):
        return S.eval_binop(
            expr.op,
            eval_sse(expr.left, regs, mem, word_size, seed, frame_uid),
            eval_sse(expr.right, regs, mem, word_size, seed, frame_uid)) & mask
    if isinstance(expr, S.Un):
        return S.eval_unop(
            expr.op,
            eval_sse(expr.child, regs, mem, word_size, seed, frame_uid)) & mask
    if isinstance(expr, (S.Load, S.Store)):
        addr = eval_sse(expr.addr, regs, mem, word_size, seed, frame_uid)
        out = 0
        for i in range(word_size):
            a = (addr + i) & mask
            b = mem.get(a)
            if b is None:
                b = _hash64(seed, "m", a) & 0xFF
            out |= b << (8 * i)
        return out
    raise Unsupported(f"cannot evaluate {S.pretty(expr)} concretely")


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSide:
    expr: S.Sse
    point: ir.Point
    phase: str


@dataclass(frozen=True)
class AliasPair:
    a: PairSide
    b: PairSide
    conds: tuple = ()   # alias.Cond tuples; evaluated at their own points

    def as_json(self):
        return {
            "a": {"expr": S.pretty(self.a.expr), "point": str(self.a.point),
                  "phase": self.a.phase},
            "b": {"expr": S.pretty(self.b.expr), "point": str(self.b.point),
                  "phase": self.b.phase},
            "conds": [c.as_json() for c in self.conds],
        }


@dataclass
class PairVerdict:
    pair: AliasPair
    status: str             # pass | fail | vacuous | step-limit | unsupported
    runs_compared: int = 0
    counterexample: Optional[dict] = None

    def as_json(self):
        out = {"pair": self.pair.as_json(), "status": self.status,
               "runs_compared": self.runs_compared}
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


def pair_from_tracked(seed_t: Tracked, other: Tracked) -> AliasPair:
    return AliasPair(
        a=PairSide(seed_t.expr, seed_t.point, seed_t.phase),
        b=PairSide(other.expr, other.point, other.phase),
        conds=tuple(other.conds),
    )


def evaluable(t: Tracked) -> bool:
    """Engine results we are willing to replay concretely: every memory
    node must denote a cell state the snapshot can see (store nodes must
    already have executed by the expression's point; nothing may hang on
    a later block)."""
    pos = t.point.index + (1 if t.phase == "post" else 0)
    for n in S.mem_nodes(t.expr):
        if n.birth >= S.BIRTH_AFTER_BLOCK:
            return False
        if isinstance(n, S.Store) and not (n.birth < pos):
            return False
    return True


def certify_aliases(program: ir.Program, pairs: list[AliasPair], n_runs: int = 16,
                    seed: int = 0, entry: str | None = None,
                    step_limit: int = 20000) -> list[PairVerdict]:
    verdicts = []
    for pair in pairs:
        fname = entry or pair.a.point.func
        watch = {(pair.a.point, pair.a.phase), (pair.b.point, pair.b.phase)}
        for c in pair.conds:
            watch.add((c.point, "pre"))
        compared = 0
        limited = False
        verdict = None
        for k in range(n_runs):
            rs = seed + k
            res = run(program, entry=fname, seed=rs, watch=watch,
                      step_limit=step_limit)
            limited |= res.step_limit_hit
            outcome = _compare(program, pair, res, rs)
            if outcome == "vacuous":
                continue
            if outcome == "unsupported":
                verdict = PairVerdict(pair, "unsupported")
                break
            compared += 1
            if outcome is not True:
                cex = _shrink(program, pair, fname, rs, res, watch, step_limit)
                verdict = PairVerdict(pair, "fail", compared, cex)
                break
        if verdict is None:
            status = "pass" if compared else "step-limit" if limited else "vacuous"
            verdict = PairVerdict(pair, status, compared)
        verdicts.append(verdict)
    return verdicts


def _compare(program, pair, res, rs):
    ka, kb = (pair.a.point, pair.a.phase), (pair.b.point, pair.b.phase)
    if ka not in res.snapshots or kb not in res.snapshots:
        return "vacuous"
    mask = (1 << (8 * program.word_size)) - 1
    for c in pair.conds:
        key = (c.point, "pre")
        if key not in res.snapshots:
            return "vacuous"
        regs, mem, uid = res.snapshots[key]
        v = regs.get(c.reg, _hash64(rs, "r", uid, c.reg) & mask)
        if bool(v) != c.value:
            return "vacuous"
    try:
        ra, ma, ua = res.snapshots[ka]
        rb, mb, ub = res.snapshots[kb]
        va = eval_sse(pair.a.expr, ra, ma, program.word_size, rs, ua)
        vb = eval_sse(pair.b.expr, rb, mb, program.word_size, rs, ub)
    except Unsupported:
        return "unsupported"
    return True if va == vb else (va, vb)


def _shrink(program, pair, fname, rs, res, watch, step_limit):
    """Minimize the failing run by zeroing entry registers one at a time."""
    inputs = dict(res.initial_regs)
    for name in sorted(inputs):
        trial = dict(inputs)
        trial[name] = 0
        r2 = run(program, entry=fname, seed=rs, inputs=trial, watch=watch,
                 step_limit=step_limit)
        if _compare(program, pair, r2, rs) not in (True, "vacuous", "unsupported"):
            inputs = trial
    final = run(program, entry=fname, seed=rs, inputs=inputs, watch=watch,
                step_limit=step_limit)
    outcome = _compare(program, pair, final, rs)
    va, vb = outcome if isinstance(outcome, tuple) else (None, None)
    return {"seed": rs, "inputs": {k: hex(v) for k, v in sorted(inputs.items())},
            "value_a": hex(va) if va is not None else None,
            "value_b": hex(vb) if vb is not None else None}


# ---------------------------------------------------------------------------
# Random program generation for differential fuzzing
# ---------------------------------------------------------------------------

REGS = ("r0", "r1", "r2", "r3")


def gen_program(rng: random.Random, max_len: int = 30) -> ir.Program:
    """A random loop-free straight-line function over four registers,
    mixing moves, arithmetic, value selects, loads and stores."""
    n = rng.randint(5, max_len)
    lines = ["func main @0x1000 frame=0 {", "bb0:"]
    for _ in range(n):
        kind = rng.choices(
            ("move", "binop", "unop", "ite", "load", "store"),
            weights=(20, 25, 5, 10, 20, 20))[0]
        dst = rng.choice(REGS)
        a, b = rng.choice(REGS), rng.choice(REGS)
        disp = rng.choice((0, 0, 4, 8))
        dsuf = f" + {hex(disp)}" if disp else ""
        if kind == "move":
            src = rng.choice((rng.choice(REGS), hex(rng.randrange(1 << 16))))
            lines.append(f"  {dst} = {src}")
        elif kind == "binop":
            op = rng.choice(("+", "-", "*", "&", "|", "^", "<", "=="))
            rhs = rng.choice((b, hex(rng.randrange(256))))
            lines.append(f"  {dst} = {a} {op} {rhs}")
        elif kind == "unop":
            op = rng.choice(("~", "!", "neg"))
            sep = " " if op == "neg" else ""
            lines.append(f"  {dst} = {op}{sep}{a}")
        elif kind == "ite":
            lines.append(f"  {dst} = ite {a}, {b}, {hex(rng.randrange(256))}")
        elif kind == "load":
            lines.append(f"  {dst} = load {a}{dsuf}")
        else:
            src = rng.choice((b, hex(rng.randrange(256))))
            lines.append(f"  store {a}{dsuf} = {src}")
    lines.append("  ret r0")
    lines.append("}")
    return ir.parse_program("\n".join(lines))


def fuzz_once(program: ir.Program, fuzz_seed: int, n_runs: int = 16):
    """Analyze a generated program from a couple of random seeds and
    certify every trusted, evaluable alias pair the engine reports.
    Returns (pairs, verdicts)."""
    rng = random.Random(fuzz_seed)
    fn = program.functions["main"]
    stmts = list(fn.statements())
    analysis = Analysis(Session(program))
    sids = []
    for _ in range(2):
        stmt = rng.choice(stmts)
        if isinstance(stmt.form, ir.Load) and rng.random() < 0.5:
            expr = S.Load(addr_sse(stmt.form.addr, stmt.form.disp))
        else:
            expr = S.Reg(rng.choice(REGS))
        sids.append(analysis.add_seed(Seed(stmt.point, expr, label="fuzz")))
    analysis.run()

    pairs = []
    for sid in sids:
        for origin, other in analysis.alias_pairs(sid):
            if evaluable(origin) and evaluable(other):
                pairs.append(pair_from_tracked(origin, other))
    verdicts = certify_aliases(program, pairs, n_runs=n_runs, seed=fuzz_seed)
    return pairs, verdicts


def fuzz(count: int = 500, max_len: int = 30, seed: int = 0, n_runs: int = 16):
    """Differential campaign: returns a report dict with any failures."""
    rng = random.Random(seed)
    total_pairs = 0
    failures = []
    for k in range(count):
        program = gen_program(rng, max_len=max_len)
        try:
            pairs, verdicts = fuzz_once(program, fuzz_seed=seed * 1000003 + k,
                                        n_runs=n_runs)
        except Exception as exc:  # a crash is a finding, not a skip
            failures.append({"program": ir.pretty_program(program),
                             "error": repr(exc)})
            continue
        total_pairs += len(pairs)
        for v in verdicts:
            if v.status == "fail":
                failures.append({"program": ir.pretty_program(program),
                                 "verdict": v.as_json()})
    return {"programs": count, "pairs": total_pairs, "failures": failures}
