"""The demand-driven alias engine.

Given a seed expression at a program point, the engine walks define-use
chains forward and use-define chains backward, deriving new alias
expressions by pattern substitution until a fixpoint.  Fifteen update
rules drive the derivation:

  forward (define-use)
    1  ri = rj            rj in expr        -> expr.replace(rj, ri)
    2  ri = a OP b        (a OP b) in expr  -> expr.replace(a OP b, ri)
    3  ri = ite(c, a, b)  a in expr         -> expr.replace(a, ri)   [c]
    4  ri = ite(c, a, b)  b in expr         -> expr.replace(b, ri)   [!c]
    5  ri = load rj       load(rj) in expr  -> expr.replace(load(rj), ri)
    6  store ri = rj      rj in expr        -> expr.replace(rj, store(ri))
    7  ri = load rj       store(rj) in expr -> expr.replace(store(rj), ri)
  backward (use-define)
    8  ri = rj            ri in expr        -> expr.replace(ri, rj)
    9  ri = a OP b        ri in expr        -> expr.replace(ri, a OP b)
    10 ri = ite(c, a, b)  ri in expr        -> expr.replace(ri, a)   [c]
    11 ri = ite(c, a, b)  ri in expr        -> expr.replace(ri, b)   [!c]
    12 ri = load rj       ri in expr        -> expr.replace(ri, load(rj))
    13 store ri = rj      load(ri) in expr, created after the store
                                            -> expr.replace(load(ri), rj)
  kills
    14 ri = ...           ri in expr        -> drop the expression
    15 store ri = ...     load/store(ri) in expr created before the store
                                            -> drop (forward only)

A rule-6 result is additionally tracked backward to find the store
address's definitions.  In backward mode, use matches (rules 1-6, never
7) yield forward-only successors; definition matches (8-13) yield
successors live in both directions.  Replacements are tried before
kills; a replaced-and-killed expression survives only as its successor.

Statement-level walking is bidirectional inside one block (TraceBlock),
block results flow around the CFG over a postorder worklist run forward
then backward until stable (AnalyzeFunction), and callsite blocks apply
callee MOD/REF summaries through a transfer function instead of being
walked.  On completion a function exports its entry-block backward
results (rooted at parameters or the globals register) to its callers'
callsites and its exit-block forward results (rooted at the returned
register) to its callers' return sites, which is how demand spreads
across the call graph.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field, replace as dc_replace
from typing import Iterable, Optional

from . import cfg as cfglib
from . import ir
from . import sse as S

log = logging.getLogger(__name__)

GP = "gp"


@dataclass(frozen=True)
class EngineConfig:
    sse_depth: int = 5            # max nested memory nodes per expression
    sse_size: int = 64            # max nodes per expression (saturation)
    alias_cap: int = 256          # per-seed per-block family size cap
    loop_k: int = 3               # loop re-traversals before induction merge
    block_iter_cap: int = 64      # TraceBlock inner iterations
    func_rounds_cap: int = 32     # AnalyzeFunction worklist sweeps
    recursion_depth: int = 4      # summary recursion re-analysis rounds
    job_cap: int = 2000           # scheduled (function) analysis jobs


@dataclass(frozen=True)
class Cond:
    """An ITE arm annotation: the alias holds when `reg` (at `point`)
    is truthy (value=True) or falsy (value=False)."""
    reg: str
    value: bool
    point: ir.Point

    def as_json(self):
        return {"reg": self.reg, "value": self.value, "point": str(self.point)}


@dataclass(frozen=True)
class Tracked:
    """One alias expression with its provenance."""
    expr: S.Sse
    point: ir.Point
    phase: str                    # value holds "pre"/"post" this statement
    seed_id: int
    rule: Optional[int] = None    # update rule that produced it
    parent: Optional["Tracked"] = None
    tainted: bool = False
    derived: bool = False         # taint-derived, not a value-exact alias
    is_length: bool = False      # value is the length of tainted data
    trigger: Optional[ir.Point] = None
    conds: tuple[Cond, ...] = ()
    hops: int = 0          # cross-function transfers taken (bounded)

    def key(self):
        return (self.expr, self.seed_id, self.tainted, self.derived, self.conds)

    def chain(self) -> list[int]:
        """Rules applied from the seed to this expression, in order."""
        rules = []
        t = self
        while t is not None:
            if t.rule is not None:
                rules.append(t.rule)
            t = t.parent
        return list(reversed(rules))

    def trusted(self) -> bool:
        return not self.derived and S.is_trusted(self.expr)


@dataclass(frozen=True)
class Seed:
    point: ir.Point
    expr: S.Sse
    direction: str = "both"       # forward | backward | both
    tainted: bool = False
    trigger: Optional[ir.Point] = None
    is_length: bool = False
    label: str = ""


def op_sse(o: ir.Operand) -> S.Sse:
    return S.Reg(o) if isinstance(o, str) else S.Val(o)


def addr_sse(reg: str, disp: int) -> S.Sse:
    a = S.Reg(reg)
    return S.canonicalize(S.Bin("+", a, S.Val(disp))) if disp else a


# ---------------------------------------------------------------------------
# Statement-level stepping
# ---------------------------------------------------------------------------

@dataclass
class _Step:
    """Result of confronting one tracked expression with one statement."""
    successors: list[tuple[Tracked, str]] = field(default_factory=list)
    # direction per successor: "f", "b", or "fb"
    killed: bool = False
    expr: Optional[S.Sse] = None  # original with updated staleness marks


def _subst_ok(expr: S.Sse, pattern: S.Sse, dst: str) -> bool:
    """A forward replacement introducing Reg(dst) is sound only if the
    original had dst nowhere outside the matched pattern (otherwise the
    stale occurrences would mix old and new values)."""
    probe = S.replace(expr, pattern, S.Reg("r999999"))
    return not S.contains_reg(probe, dst)


class _Walker:
    def __init__(self, config: EngineConfig, policy=None, warn=None):
        self.config = config
        self.policy = policy
        self.warn = warn or (lambda msg: log.debug("%s", msg))

    def _mk(self, parent: Tracked, expr: S.Sse, point: ir.Point, phase: str,
            rule: Optional[int], extra_cond: Optional[Cond] = None,
            derived: bool = False) -> Optional[Tracked]:
        expr = S.canonicalize(expr)
        if (S.mem_depth(expr) > self.config.sse_depth
                or S.size(expr) > self.config.sse_size):
            self.warn(f"sse cap exceeded at {point}; expression saturated")
            return None
        conds = parent.conds if extra_cond is None else tuple(
            sorted(set(parent.conds) | {extra_cond}, key=lambda c: (str(c.point), c.reg)))
        return Tracked(
            expr=expr, point=point, phase=phase, seed_id=parent.seed_id,
            rule=rule, parent=parent, tainted=parent.tainted,
            derived=derived or parent.derived,
            is_length=parent.is_length and not derived,
            trigger=parent.trigger, conds=conds, hops=parent.hops)

    # -- forward ------------------------------------------------------------

    def forward_step(self, stmt: ir.Statement, idx: int, t: Tracked) -> _Step:
        form = stmt.form
        out = _Step(expr=t.expr)
        e = t.expr

        def emit(new_expr, rule, direction="f", cond=None, derived=False):
            n = self._mk(t, new_expr, stmt.point, "post", rule, cond, derived)
            if n is not None:
                out.successors.append((n, direction))

        dst = ir.defined_register(form)

        if isinstance(form, ir.Move):
            pat = op_sse(form.src)
            if S.occurs(e, pat) and pat != S.Reg(form.dst):
                if _subst_ok(e, pat, form.dst):
                    emit(S.replace(e, pat, S.Reg(form.dst)), 1)
        elif isinstance(form, ir.BinOp):
            pat = S.canonicalize(S.Bin(form.op, op_sse(form.lhs), op_sse(form.rhs)))
            if S.occurs(e, pat) and _subst_ok(e, pat, form.dst):
                emit(S.replace(e, pat, S.Reg(form.dst)), 2)
            elif self.policy is not None and t.tainted:
                for o in (form.lhs, form.rhs):
                    if isinstance(o, str) and e == S.Reg(o):
                        emit(S.Reg(form.dst), None, derived=True)
                        break
        elif isinstance(form, ir.UnOp):
            pat = S.canonicalize(S.Un(form.op, op_sse(form.src)))
            if S.occurs(e, pat) and _subst_ok(e, pat, form.dst):
                emit(S.replace(e, pat, S.Reg(form.dst)), 2)
            elif (self.policy is not None and t.tainted and isinstance(form.src, str)
                  and e == S.Reg(form.src)):
                emit(S.Reg(form.dst), None, derived=True)
        elif isinstance(form, ir.Ite):
            for rule, opnd, val in ((3, form.then_v, True), (4, form.else_v, False)):
                pat = op_sse(opnd)
                if S.occurs(e, pat) and _subst_ok(e, pat, form.dst):
                    emit(S.replace(e, pat, S.Reg(form.dst)), rule,
                         cond=Cond(form.cond, val, stmt.point))
        elif isinstance(form, ir.Load):
            a = addr_sse(form.addr, form.disp)

            def fresh(n):
                return n.addr == a and n.birth <= idx and not n.stale_fwd

            new = _mem_subst(e, lambda n: isinstance(n, S.Load) and fresh(n),
                             form.dst)
            if new is not None:
                emit(new, 5)
            else:
                new = _mem_subst(e, lambda n: isinstance(n, S.Store) and fresh(n),
                                 form.dst)
                if new is not None:
                    emit(new, 7)
                elif (self.policy is not None and t.tainted and e == S.Reg(form.addr)):
                    emit(S.Reg(form.dst), None, derived=True)
        elif isinstance(form, ir.Store):
            a = addr_sse(form.addr, form.disp)
            killed = S.kills_memory(e, a, idx)
            marked = S.mark_stale(e, lambda n: n.birth < idx and n.addr != a,
                                  "fwd")
            pat = op_sse(form.src)
            # a killed expression leaves no successor either: the node the
            # store overwrote would survive the substitution (the pattern
            # is the stored value, never a memory node)
            if not killed and S.occurs(marked, pat):
                emit(S.replace(marked, pat, S.Store(a, birth=idx)), 6,
                     direction="fb")
            if killed:
                out.killed = True
            else:
                out.expr = marked
        elif isinstance(form, (ir.Call, ir.ICall)):
            raise AssertionError("calls are isolated blocks; not walked")

        if self.policy is not None:
            self.policy.observe_forward(stmt, idx, t)

        if dst is not None and S.kills_register(t.expr, dst):
            out.killed = True
        return out

    # -- backward -----------------------------------------------------------

    def backward_step(self, stmt: ir.Statement, idx: int, t: Tracked) -> _Step:
        form = stmt.form
        out = _Step(expr=t.expr)
        e = t.expr

        def emit(new_expr, rule, direction, cond=None):
            n = self._mk(t, new_expr, stmt.point, "pre" if direction == "fb" else "post",
                         rule, cond)
            if n is not None:
                out.successors.append((n, direction))

        dst = ir.defined_register(form)
        has_dst = dst is not None and S.contains_reg(e, dst)

        # definition matches (use-define): successor lives both ways
        if has_dst:
            if isinstance(form, ir.Move):
                emit(S.replace(e, S.Reg(dst), op_sse(form.src)), 8, "fb")
            elif isinstance(form, ir.BinOp):
                rhs = S.canonicalize(S.Bin(form.op, op_sse(form.lhs), op_sse(form.rhs)))
                emit(S.replace(e, S.Reg(dst), rhs), 9, "fb")
            elif isinstance(form, ir.UnOp):
                rhs = S.canonicalize(S.Un(form.op, op_sse(form.src)))
                emit(S.replace(e, S.Reg(dst), rhs), 9, "fb")
            elif isinstance(form, ir.Ite):
                emit(S.replace(e, S.Reg(dst), op_sse(form.then_v)), 10, "fb",
                     cond=Cond(form.cond, True, stmt.point))
                emit(S.replace(e, S.Reg(dst), op_sse(form.else_v)), 11, "fb",
                     cond=Cond(form.cond, False, stmt.point))
            elif isinstance(form, ir.Load):
                emit(S.replace(e, S.Reg(dst), S.Load(addr_sse(form.addr, form.disp),
                                                     birth=idx)), 12, "fb")
            # rule 14 backward: the expression cannot be carried above the
            # definition of a register it mentions...
            out.killed = True
            # ...unless the rewrite absorbed into the same expression (a
            # loop-summarized form crossing its own shift statement): the
            # expression is unchanged above it and simply survives
            same = [i for i, (n, _) in enumerate(out.successors)
                    if n.key() == t.key()]
            if same:
                out.killed = False
                out.successors = [s for i, s in enumerate(out.successors)
                                  if i not in same]

        if isinstance(form, ir.Store):
            a = addr_sse(form.addr, form.disp)
            # may-alias barrier for memory reads issued below this store
            marked = S.mark_stale(e, lambda n: n.birth > idx and n.addr != a,
                                  "bwd")

            def after(n):
                return (isinstance(n, S.Load) and n.addr == a and n.birth > idx
                        and not n.stale_bwd)

            new, hit = S.replace_mem(marked, after, op_sse(form.src))
            if hit:
                emit(new, 13, "fb")
                # the surviving original must not re-match an older store
                marked = S.mark_stale(marked, lambda n: isinstance(n, S.Load)
                                      and n.addr == a and n.birth > idx, "bwd")
            out.expr = marked

        # use matches (define-use rules 1-6, never 7): forward-only successor
        if not isinstance(form, (ir.Branch, ir.Jump, ir.Ret)):
            use = self._backward_use_match(
                stmt, idx, t, out.expr if out.expr is not None else e)
            out.successors.extend(use)
        return out

    def _backward_use_match(self, stmt, idx, t, e):
        """Use matches while walking upward (rules 1-6, never 7).

        The statement evaluates its operands with pre-statement register
        values, while the tracked expression below it speaks in
        post-statement terms, so a match is only meaningful when the
        defined register does not occur in the matched pattern."""
        form = stmt.form
        succ = []

        def emit(new_expr, rule, direction="f", cond=None):
            n = self._mk(t, new_expr, stmt.point, "post", rule, cond)
            if n is not None:
                succ.append((n, direction))

        def clean(pat, dst):
            return not S.contains_reg(pat, dst)

        if isinstance(form, ir.Move):
            pat = op_sse(form.src)
            if (S.occurs(e, pat) and pat != S.Reg(form.dst)
                    and clean(pat, form.dst) and _subst_ok(e, pat, form.dst)):
                emit(S.replace(e, pat, S.Reg(form.dst)), 1)
        elif isinstance(form, ir.BinOp):
            pat = S.canonicalize(S.Bin(form.op, op_sse(form.lhs), op_sse(form.rhs)))
            if (S.occurs(e, pat) and clean(pat, form.dst)
                    and _subst_ok(e, pat, form.dst)):
                emit(S.replace(e, pat, S.Reg(form.dst)), 2)
        elif isinstance(form, ir.UnOp):
            pat = S.canonicalize(S.Un(form.op, op_sse(form.src)))
            if (S.occurs(e, pat) and clean(pat, form.dst)
                    and _subst_ok(e, pat, form.dst)):
                emit(S.replace(e, pat, S.Reg(form.dst)), 2)
        elif isinstance(form, ir.Ite):
            for rule, opnd, val in ((3, form.then_v, True), (4, form.else_v, False)):
                pat = op_sse(opnd)
                if (S.occurs(e, pat) and clean(pat, form.dst)
                        and _subst_ok(e, pat, form.dst)):
                    emit(S.replace(e, pat, S.Reg(form.dst)), rule,
                         cond=Cond(form.cond, val, stmt.point))
        elif isinstance(form, ir.Load):
            a = addr_sse(form.addr, form.disp)

            def readable(n):
                return (isinstance(n, S.Load) and n.addr == a
                        and not n.stale_bwd and n.birth > idx)

            if clean(a, form.dst):
                new = _mem_subst(e, readable, form.dst)
                if new is not None:
                    emit(new, 5)
        elif isinstance(form, ir.Store):
            a = addr_sse(form.addr, form.disp)
            pat = op_sse(form.src)
            # the successor is tracked forward from below this store, where
            # any same-cell node from above the store is already dead
            if S.occurs(e, pat) and not S.kills_memory(e, a, idx):
                emit(S.replace(e, pat, S.Store(a, birth=idx)), 6, direction="fb")
        return succ


def _mem_subst(expr: S.Sse, node_pred, dst: str) -> Optional[S.Sse]:
    """Replace the selected memory nodes with Reg(dst), refusing when the
    original mentions dst outside the consumed nodes (the leftover
    occurrences would denote the pre-statement value)."""
    probe, hit = S.replace_mem(expr, node_pred, S.Reg("r999999"))
    if not hit or S.contains_reg(probe, dst):
        return None
    new, _ = S.replace_mem(expr, node_pred, S.Reg(dst))
    return new


# ---------------------------------------------------------------------------
# Spec-level entry points over one block's statements
# ---------------------------------------------------------------------------

def forward_update(statements: Iterable[ir.Statement], in_f: list,
                   config: EngineConfig | None = None, policy=None):
    """Walk IN_f through the statements in program order.

    Returns (NEW_f, NEW_b): surviving plus newly created forward
    expressions, and the rule-6 results that need backward tracking.
    Items may be Tracked or (Tracked, start_index).
    """
    stmts = list(statements)
    items = [it if isinstance(it, tuple) else (it, 0) for it in in_f]
    survivors, created = _forward_pass(stmts, items, config or EngineConfig(), policy)
    new_f = _dedup(survivors + [t for t, d, _ in created if d in ("f", "fb")])
    new_b = _dedup([t for t, d, _ in created if d in ("b", "fb")])
    return new_f, new_b


def _dedup(items: list[Tracked]) -> list[Tracked]:
    seen, out = set(), []
    for t in items:
        if t.key() not in seen:
            seen.add(t.key())
            out.append(t)
    return out


# The tuple-passing variants used by the engine (positions preserved).

def _forward_pass(stmts, items, config, policy, seen: dict | None = None):
    """Walk each queued (expression, start) forward to the block end.
    ``seen`` maps expression keys to the lowest start already walked, so
    re-derivations along other orders are not walked twice."""
    w = _Walker(config, policy)
    queue = deque(items)
    survivors: list[Tracked] = []
    created: list[tuple[Tracked, str, int]] = []
    seen = seen if seen is not None else {}
    guard = 0
    while queue:
        guard += 1
        if guard > 200000:
            raise RuntimeError("forward pass runaway")
        t, start = queue.popleft()
        start = max(start, 0)
        k = t.key()
        prev = seen.get(k)
        if prev is not None and prev <= start:
            continue
        seen[k] = start if prev is None else min(prev, start)
        i, alive = start, True
        while i < len(stmts):
            step = w.forward_step(stmts[i], i, t)
            for succ, direction in step.successors:
                created.append((succ, direction, i))
                if direction in ("f", "fb"):
                    queue.append((succ, i + 1))
            if step.killed:
                alive = False
                break
            if step.expr is not None and step.expr is not t.expr:
                t = dc_replace(t, expr=step.expr)
            i += 1
        if alive:
            survivors.append(t)
    return survivors, created


def _backward_pass(stmts, items, config, policy, seen: dict | None = None):
    w = _Walker(config, policy)
    queue = deque(items)
    survivors: list[Tracked] = []
    created: list[tuple[Tracked, str, int]] = []
    seen = seen if seen is not None else {}
    guard = 0
    while queue:
        guard += 1
        if guard > 200000:
            raise RuntimeError("backward pass runaway")
        t, start = queue.popleft()
        start = min(start, len(stmts) - 1)
        k = t.key()
        prev = seen.get(k)
        if prev is not None and prev >= start:
            continue
        seen[k] = start if prev is None else max(prev, start)
        i, alive = start, True
        while i >= 0:
            step = w.backward_step(stmts[i], i, t)
            for succ, direction in step.successors:
                created.append((succ, direction, i))
                if direction in ("b", "fb"):
                    queue.append((succ, i - 1))
            if step.killed:
                alive = False
                break
            if step.expr is not None and step.expr is not t.expr:
                t = dc_replace(t, expr=step.expr)
            i -= 1
        if alive:
            survivors.append(t)
    return survivors, created


def backward_update(statements: Iterable[ir.Statement], in_b: list,
                    config: EngineConfig | None = None, policy=None):
    """Walk IN_b through the statements in reverse order.

    Returns (NEW_f, NEW_b): forward-trackable successors (use matches,
    plus both-way definition matches) and the backward results.
    """
    stmts = list(statements)
    items = [(t, len(stmts) - 1) if not isinstance(t, tuple) else t for t in in_b]
    survivors, created = _backward_pass(stmts, items, config or EngineConfig(), policy)
    new_f = _dedup([t for t, d, _ in created if d in ("f", "fb")])
    new_b = _dedup(survivors + [t for t, d, _ in created if d in ("b", "fb")])
    return new_f, new_b


# ---------------------------------------------------------------------------
# Function summaries and the callsite transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModEntry:
    cell: S.Sse                   # Store(addr) in callee entry terms
    value: Optional[S.Sse] = None # stored value in callee entry terms


@dataclass
class FunctionSummary:
    func: str
    params: tuple[str, ...]                    # live-in rN registers
    mod: tuple[ModEntry, ...] = ()
    ref: tuple[S.Sse, ...] = ()                # Load(addr) cells read
    ret_exprs: tuple[S.Sse, ...] = ()          # aliases of the returned value
    recursive: bool = False


def live_in_registers(function: ir.Function, graph: cfglib.Cfg) -> tuple[str, ...]:
    """Registers that may be read before written: the function's formals
    (restricted to rN; sp/gp are implicit)."""
    gen: dict[str, set[str]] = {}
    kill: dict[str, set[str]] = {}
    for label in graph.order:
        g, k = set(), set()
        for stmt in graph.blocks[label].stmts:
            for r in ir.used_registers(stmt.form):
                if r not in k:
                    g.add(r)
            d = ir.defined_register(stmt.form)
            if d:
                k.add(d)
        gen[label], kill[label] = g, k
    live: dict[str, set[str]] = {b: set() for b in graph.order}
    changed = True
    while changed:
        changed = False
        for label in graph.order:
            out: set[str] = set()
            for s in graph.succs.get(label, ()):
                out |= live[s]
            new = gen[label] | (out - kill[label])
            if new != live[label]:
                live[label] = new
                changed = True
    regs = live[graph.entry]
    return tuple(sorted((r for r in regs if r not in ("sp", GP)),
                        key=lambda r: int(r[1:])))


def reroot(expr: S.Sse, mapping: dict[str, S.Sse]) -> Optional[S.Sse]:
    """Substitute formals for actuals; None if some register has no image
    (sp never maps: frame-local cells are invisible to the caller)."""
    for r in S.registers(expr):
        if r == GP:
            continue
        if r not in mapping:
            return None
    out = expr
    for r, v in mapping.items():
        if S.contains_reg(out, r):
            out = S.replace(out, S.Reg(r), v)
    return S.canonicalize(out)


def transfer_function(ptrs: set[str | None], summary: FunctionSummary,
                      args: tuple[ir.Operand, ...]):
    """Re-root a callee summary at a callsite.

    ``ptrs`` are the root registers of the expressions live at the
    callsite (plus None for constant-rooted ones); only entries relevant
    to them (or global-rooted) are kept.  Returns (MOD', REF') in caller
    terms.
    """
    mapping = {summary.params[i]: op_sse(args[i])
               for i in range(min(len(summary.params), len(args)))}
    mod: list[ModEntry] = []
    ref: list[S.Sse] = []
    for entry in summary.mod:
        cell = reroot(entry.cell, mapping)
        if cell is None:
            continue
        value = reroot(entry.value, mapping) if entry.value is not None else None
        root = S.root_register(cell)
        vroot = S.root_register(value) if value is not None else None
        if (root is not None and root != GP and root not in ptrs
                and (vroot is None or vroot not in ptrs)):
            continue
        mod.append(ModEntry(cell, value))
    for cell in summary.ref:
        r = reroot(cell, mapping)
        if r is None:
            continue
        root = S.root_register(r)
        if root is None or root == GP or root in ptrs:
            ref.append(r)
    return tuple(mod), tuple(ref)


# ---------------------------------------------------------------------------
# The function-level engine
# ---------------------------------------------------------------------------

@dataclass
class _BlockSt:
    pre_f: dict = field(default_factory=dict)
    suc_b: dict = field(default_factory=dict)
    out_f: dict = field(default_factory=dict)
    out_b: dict = field(default_factory=dict)
    pend_f: list = field(default_factory=list)   # [(Tracked, idx)]
    pend_b: list = field(default_factory=list)
    seen_f: dict = field(default_factory=dict)   # key -> min idx walked
    seen_b: dict = field(default_factory=dict)   # key -> max idx walked


class Session:
    """What every analysis of one program under one resolution map shares.

    Per-program facts are built lazily and once: each function's CFG and
    the point index, live-in registers, postorder, dominators and loop
    blocks, and the direct call graph.  Sessions derived through
    `with_resolutions` share them.  The summary cache, its notes and the
    icall-caller map depend on the resolution map, so each session has
    its own.
    """

    def __init__(self, program: ir.Program, config: EngineConfig | None = None,
                 resolutions: dict | None = None):
        self.program = program
        self.config = config or EngineConfig()
        self.resolutions = resolutions or {}
        self.summaries: dict = {}    # fname -> FunctionSummary | "computing"
        # fname -> (warnings, cap hits, callee summaries used) of the
        # sub-analyses that computed its summary
        self.notes: dict[str, tuple[list, list, dict]] = {}
        self.icall_callers: dict[str, list[tuple[str, ir.Point]]] = {}
        for point, targets in self.resolutions.items():
            for tgt in targets:
                self.icall_callers.setdefault(tgt, []).append((point.func, point))
        self._facts: dict = {}       # (kind, fname) -> per-program fact
        self._points: dict[ir.Point, tuple[str, str, int]] = {}

    def with_resolutions(self, resolutions: dict) -> "Session":
        """The session over this program and config under `resolutions`:
        this one when the map is the same, otherwise a new session that
        shares the per-program facts and starts with no summaries."""
        if (resolutions or {}) == self.resolutions:
            return self
        other = Session(self.program, self.config, resolutions)
        other._facts, other._points = self._facts, self._points
        return other

    def _fact(self, kind: str, fname: str | None, build):
        key = (kind, fname)
        if key not in self._facts:
            self._facts[key] = build()
        return self._facts[key]

    def cfg(self, fname: str) -> cfglib.Cfg:
        return self._fact("cfg", fname, lambda: self._build_cfg(fname))

    def _build_cfg(self, fname: str) -> cfglib.Cfg:
        g = cfglib.build_cfg(self.program.functions[fname])
        for label in g.order:
            for i, stmt in enumerate(g.blocks[label].stmts):
                self._points[stmt.point] = (fname, label, i)
        return g

    def locate(self, point: ir.Point) -> tuple[str, str, int]:
        """(function, CFG block, index in that block) of a program point."""
        self.cfg(point.func)
        return self._points[point]

    def statement(self, point: ir.Point) -> ir.Statement:
        fname, label, idx = self.locate(point)
        return self.cfg(fname).blocks[label].stmts[idx]

    def params(self, fname: str) -> tuple[str, ...]:
        return self._fact("params", fname, lambda: live_in_registers(
            self.program.functions[fname], self.cfg(fname)))

    def postorder(self, fname: str) -> tuple[str, ...]:
        return self._fact("postorder", fname,
                          lambda: tuple(cfglib.postorder(self.cfg(fname))))

    def dominators(self, fname: str) -> dict[str, frozenset[str]]:
        return self._fact("dominators", fname,
                          lambda: cfglib.dominators(self.cfg(fname)))

    def loop_blocks(self, fname: str) -> frozenset[str]:
        return self._fact("loops", fname, lambda: cfglib.loop_blocks(
            self.cfg(fname), self.dominators(fname)))

    @property
    def call_graph(self) -> cfglib.CallGraph:
        return self._fact("call_graph", None,
                          lambda: cfglib.build_call_graph(self.program))


class Analysis:
    """One demand-driven run over a program.

    Seeds are injected at program points; `run()` drives per-function
    fixpoints and lets results cross callsites in both directions.  The
    analysis holds only per-run state: block states, registry, queue,
    seeds, warnings and cap hits.  CFGs, program indices and the summary
    cache belong to its `Session` (`summaries` is the session's dict);
    without a `session` argument it builds a fresh one.

    There is one summary cache per resolution map.  A summary depends
    only on its function and its callees' summaries: the sub-analysis
    that computes it walks that function alone, exporting only to the
    function's own recursive callsites.  So each summary is computed once and every analysis of the
    session reuses it, whatever order they ask in.  The one exception is
    a recursion cycle: the member asked first is computed against the
    bottom summary of the others, which are still in progress.

    `registry[fname]` holds one `Tracked` per `Tracked.key()` that the
    walk established in `fname`, anchored at the point and phase where
    the engine first established it.  Aliases that are only carried
    forward (or backward) past statements are not re-recorded.  A
    tainted instance is anchored on its trigger's "post" side or later:
    a source seed at its own statement's "post" side, and a backward
    alias flips to untainted at the trigger's "pre" side.
    """

    def __init__(self, program: ir.Program, config: EngineConfig | None = None,
                 resolutions: dict | None = None, policy=None,
                 session: Session | None = None, *,
                 summary_of: str | None = None):
        if session is None:
            session = Session(program, config, resolutions)
        elif (session.program is not program
              or config not in (None, session.config)
              or resolutions not in (None, session.resolutions)):
            raise ValueError("the session is for another program, engine "
                             "config or resolution map")
        self.session = session
        self.program = program
        self.config = session.config
        self.policy = policy
        self.resolutions = session.resolutions
        self.summaries = session.summaries
        # the function whose summary this analysis computes, if any
        self.summary_of = summary_of
        self.states: dict[str, dict[str, _BlockSt]] = {}
        self.registry: dict[str, dict] = {}
        self.visited_functions: set[str] = set()
        self.retired: dict[str, set] = {}
        self.warnings: list[str] = []
        self.cap_hits: list[str] = []
        self.blocks_visited: set[tuple[str, str]] = set()
        self._queue: deque[str] = deque()
        self._queued: set[str] = set()
        self._seed_ids: dict = {}
        self._seed_meta: dict[int, Seed] = {}
        self._jobs = 0
        self._noted: dict[str, None] = {}   # summaries whose notes are taken
        if policy is not None:
            policy.bind(self)

    # -- plumbing -----------------------------------------------------------

    def cfg(self, fname: str) -> cfglib.Cfg:
        g = self.session.cfg(fname)
        if fname not in self.states:
            self.states[fname] = {label: _BlockSt() for label in g.order}
            self.registry.setdefault(fname, {})
            self.warnings.extend(g.warnings)
        return g

    def locate(self, point: ir.Point) -> tuple[str, str, int]:
        self.cfg(point.func)
        return self.session.locate(point)

    def _schedule(self, fname: str):
        if fname in self._queued:
            return
        if self._jobs >= self.config.job_cap:
            self.cap_hits.append(f"job cap reached; {fname} not scheduled")
            return
        self._jobs += 1
        self._queued.add(fname)
        self._queue.append(fname)

    def seed_id_for(self, seed: Seed) -> int:
        k = (seed.point, S.canonicalize(seed.expr), seed.tainted, seed.trigger, seed.label)
        if k not in self._seed_ids:
            sid = len(self._seed_ids)
            self._seed_ids[k] = sid
            self._seed_meta[sid] = seed
        return self._seed_ids[k]

    def seed_info(self, sid: int) -> Seed:
        return self._seed_meta[sid]

    def add_seed(self, seed: Seed) -> int:
        fname, label, idx = self.locate(seed.point)
        sid = self.seed_id_for(seed)
        # a source seed is tainted only once its own statement has run
        phase = "post" if seed.tainted and seed.trigger == seed.point else "pre"
        t = Tracked(expr=S.canonicalize(S.retag(seed.expr, idx)), point=seed.point,
                    phase=phase, seed_id=sid, tainted=seed.tainted,
                    trigger=seed.trigger, is_length=seed.is_length)
        if seed.direction in ("forward", "both"):
            self._inject(fname, label, t, idx, "f")
        if seed.direction in ("backward", "both"):
            self._inject(fname, label, t, idx - 1, "b")
        self._record(fname, t)
        self._schedule(fname)
        return sid

    def _record(self, fname: str, t: Tracked) -> bool:
        """Enter `t` into `fname`'s registry unless an entry with its
        `key()` is already there; True when it was new.  The first
        anchor wins: the point is not part of the key, so an alias that
        is only carried past later statements is never re-recorded."""
        reg = self.registry.setdefault(fname, {})
        k = t.key()
        if k in reg:
            return False
        reg[k] = t
        return True

    def _inject(self, fname: str, label: str, t: Tracked, idx: int, direction: str):
        if t.key() in self.retired.get(fname, ()):
            return False
        st = self.states[fname][label]
        if direction == "f":
            seen = st.seen_f.get(t.key())
            if seen is not None and seen <= idx:
                return False
            st.pre_f.setdefault(t.key(), t)
            st.pend_f.append((t, idx))
        else:
            seen = st.seen_b.get(t.key())
            if seen is not None and seen >= idx:
                return False
            st.suc_b.setdefault(t.key(), t)
            st.pend_b.append((t, idx))
        return True

    # -- per-block visits ---------------------------------------------------

    def _visit(self, fname: str, label: str) -> bool:
        g = self.cfg(fname)
        st = self.states[fname][label]
        if not st.pend_f and not st.pend_b:
            return False
        self.blocks_visited.add((fname, label))
        block = g.blocks[label]
        if block.is_call:
            return self._visit_callsite(fname, g, label, st, block)
        return self._trace_block(fname, g, label, st, block)

    def _trace_block(self, fname, g, label, st, block) -> bool:
        """Alg.-1 shape: alternate forward and backward walks, feeding the
        rule-6 results of the forward pass into the backward input and the
        backward pass's forward-trackable output into the next forward
        input, until no new alias appears."""
        stmts = block.stmts
        changed = False
        fwd = list(st.pend_f)
        bwd = list(st.pend_b)
        st.pend_f, st.pend_b = [], []

        iters = 0
        while fwd or bwd:
            iters += 1
            if iters > self.config.block_iter_cap:
                self.cap_hits.append(f"block iteration cap hit at {fname}:{label}")
                break
            survivors, created = _forward_pass(stmts, fwd, self.config,
                                               self.policy, st.seen_f)
            fwd = []
            for t in survivors:
                if t.key() not in st.out_f:
                    st.out_f[t.key()] = t
                    changed = True
            for t, direction, i in created:
                changed |= self._record(fname, t)
                if direction == "fb":
                    bwd.append((t, i - 1))
            survivors_b, created_b = _backward_pass(stmts, bwd, self.config,
                                                    self.policy, st.seen_b)
            bwd = []
            for t in survivors_b:
                if t.key() not in st.out_b:
                    st.out_b[t.key()] = t
                    changed = True
            for t, direction, i in created_b:
                changed |= self._record(fname, t)
                if direction in ("f", "fb"):
                    start = i if t.phase == "pre" else i + 1
                    fwd.append((t, start))

        if changed:
            self._propagate(fname, g, label, st)
        return changed

    def _propagate(self, fname, g, label, st):
        for s in g.succs.get(label, ()):
            sst = self.states[fname][s]
            for k, t in st.out_f.items():
                if k not in sst.pre_f:
                    moved = dc_replace(t, expr=S.retag(t.expr, S.BIRTH_BEFORE_BLOCK))
                    self._inject(fname, s, moved, 0, "f")
        for p in g.preds.get(label, ()):
            pst = self.states[fname][p]
            plen = len(g.blocks[p].stmts)
            for k, t in st.out_b.items():
                if k not in pst.suc_b:
                    moved = dc_replace(t, expr=S.retag(t.expr, S.BIRTH_AFTER_BLOCK))
                    self._inject(fname, p, moved, plen - 1, "b")

    # -- callsite transfer ---------------------------------------------------

    def _visit_callsite(self, fname, g, label, st, block) -> bool:
        stmt = block.call
        form = stmt.form
        point = stmt.point
        changed = False

        fwd_items = [t for t, _ in st.pend_f]
        bwd_items = [t for t, _ in st.pend_b]
        st.pend_f, st.pend_b = [], []
        for t in fwd_items:
            st.seen_f.setdefault(t.key(), 0)
        for t in bwd_items:
            st.seen_b.setdefault(t.key(), -1)

        callees = self._callees_of(point, form)
        summaries = [(c, self.summary(c)) for c in callees
                     if c in self.program.functions]
        ret_reg = form.ret

        ptrs = {S.root_register(t.expr) for t in fwd_items + bwd_items}

        # ---- forward crossings
        for t in fwd_items:
            if t.trigger == point and not t.tainted:
                # taintedness holds from this crossing on, so the flipped
                # instance is anchored here, not at its creation point
                t = dc_replace(t, tainted=True, point=point, phase="post",
                               parent=t, rule=None)
                self._record(fname, t)
            killed = False
            if ret_reg is not None and S.kills_register(t.expr, ret_reg):
                killed = True
            gens: list[Tracked] = []
            for callee, summ in summaries:
                mod, _ref = transfer_function(ptrs, summ, form.args)
                for entry in mod:
                    addr = entry.cell.addr if isinstance(entry.cell, S.Store) else entry.cell
                    if S.kills_memory(t.expr, addr, 1 << 29):
                        killed = True
                    if entry.value is not None and t.expr == entry.value:
                        n = self._mk_transfer(t, entry.cell, point)
                        if n is not None:
                            gens.append(n)
                for rv in summ.ret_exprs:
                    mapping = {summ.params[i]: op_sse(form.args[i])
                               for i in range(min(len(summ.params), len(form.args)))}
                    rr = reroot(rv, mapping)
                    if rr is not None and rr == t.expr and ret_reg is not None:
                        n = self._mk_transfer(t, S.Reg(ret_reg), point)
                        if n is not None:
                            gens.append(n)
                self._descend(t, callee, summ, form, point)
            if self.policy is not None:
                gens.extend(self.policy.callsite_forward(self, fname, point, form, t))
            if not killed and t.key() not in st.out_f:
                st.out_f[t.key()] = t
                changed = True
            for n in gens:
                changed |= self._record(fname, n)
                if n.key() not in st.out_f:
                    st.out_f[n.key()] = n
                    changed = True
                # rule-6-like products also look backward for the address defs
                self._inject_out_b_neighbors(fname, g, label, n)

        # ---- backward crossings
        for t in bwd_items:
            if t.trigger == point and t.tainted:
                t = dc_replace(t, tainted=False, point=point, phase="pre",
                               parent=t, rule=None)
                self._record(fname, t)
            stopped = False
            gens = []
            if ret_reg is not None and S.contains_reg(t.expr, ret_reg):
                stopped = True
                for callee, summ in summaries:
                    mapping = {summ.params[i]: op_sse(form.args[i])
                               for i in range(min(len(summ.params), len(form.args)))}
                    for rv in summ.ret_exprs:
                        rr = reroot(rv, mapping)
                        if rr is None:
                            continue
                        n = self._mk_transfer(t, S.replace(t.expr, S.Reg(ret_reg), rr),
                                              point, phase="pre")
                        if n is not None:
                            gens.append(n)
                if not summaries and not self._is_library_noop(form):
                    self.warnings.append(
                        f"no summary for {getattr(form, 'target', '?')} at {point}; "
                        f"backward tracking stopped")
            for callee, summ in summaries:
                mod, _ = transfer_function(ptrs, summ, form.args)
                for entry in mod:
                    if entry.value is None:
                        continue
                    addr = entry.cell.addr if isinstance(entry.cell, S.Store) else entry.cell

                    def created_after(n):
                        return isinstance(n, S.Load) and n.addr == addr and not n.stale

                    new, hit = S.replace_mem(t.expr, created_after, entry.value)
                    if hit:
                        n = self._mk_transfer(t, new, point, phase="pre")
                        if n is not None:
                            gens.append(n)
            if not stopped and t.key() not in st.out_b:
                st.out_b[t.key()] = t
                changed = True
            for n in gens:
                changed |= self._record(fname, n)
                if n.key() not in st.out_b:
                    st.out_b[n.key()] = n
                    changed = True

        if changed:
            self._propagate(fname, g, label, st)
        return changed

    def _mk_transfer(self, parent: Tracked, expr: S.Sse, point: ir.Point,
                     phase: str = "post") -> Optional[Tracked]:
        expr = S.canonicalize(expr)
        if (S.mem_depth(expr) > self.config.sse_depth
                or S.size(expr) > self.config.sse_size):
            log.debug("sse cap exceeded at %s", point)
            return None
        return Tracked(expr=expr, point=point, phase=phase, seed_id=parent.seed_id,
                       rule=None, parent=parent, tainted=parent.tainted,
                       derived=parent.derived, is_length=parent.is_length,
                       trigger=parent.trigger, conds=parent.conds,
                       hops=parent.hops)

    def _inject_out_b_neighbors(self, fname, g, label, t):
        st = self.states[fname][label]
        if t.key() not in st.out_b:
            st.out_b[t.key()] = t
            for p in g.preds.get(label, ()):
                plen = len(g.blocks[p].stmts)
                moved = dc_replace(t, expr=S.retag(t.expr, S.BIRTH_AFTER_BLOCK))
                self._inject(fname, p, moved, plen - 1, "b")

    def _callees_of(self, point: ir.Point, form) -> list[str]:
        if isinstance(form, ir.Call):
            return [form.target]
        targets = self.resolutions.get(point)
        if targets:
            return list(targets)
        self.warnings.append(f"unresolved indirect call at {point}; treated as no-op")
        return []

    def _is_library_noop(self, form) -> bool:
        return (self.policy is not None and isinstance(form, ir.Call)
                and self.policy.knows_library(form.target))

    def _descend(self, t: Tracked, callee: str, summ: FunctionSummary,
                 form, point: ir.Point):
        """Forward taint descent: a tainted value passed as an argument (or
        living in a cell the callee reads) seeds the callee's analysis."""
        if not t.tainted or self.policy is None:
            return
        entry_fn = self.program.functions[callee]
        entry_point = ir.Point(callee, entry_fn.entry_block, 0)
        for i, arg in enumerate(form.args):
            if t.expr == op_sse(arg) and i < len(summ.params):
                self._inject_nested_seed(t, callee, entry_point, S.Reg(summ.params[i]))
        mapping = {summ.params[i]: op_sse(form.args[i])
                   for i in range(min(len(summ.params), len(form.args)))}
        for cell in summ.ref:
            rr = reroot(cell, mapping)
            if rr is not None and rr == t.expr:
                self._inject_nested_seed(t, callee, entry_point, cell)

    def _inject_nested_seed(self, parent: Tracked, callee: str,
                            entry_point: ir.Point, expr: S.Sse):
        # keep the trigger: the callee cannot contain it, but results
        # exported back to callers must still be gated by it
        seed = Seed(point=entry_point, expr=expr, direction="forward",
                    tainted=True, trigger=parent.trigger,
                    is_length=parent.is_length, label=f"io:{parent.seed_id}")
        fname, label, idx = self.locate(entry_point)
        sid = self.seed_id_for(seed)
        if parent.hops >= self.config.recursion_depth:
            return
        t = Tracked(expr=S.canonicalize(S.retag(expr, S.BIRTH_BEFORE_BLOCK)),
                    point=entry_point, phase="pre", seed_id=sid, parent=parent,
                    tainted=True, is_length=parent.is_length,
                    trigger=parent.trigger, hops=parent.hops + 1)
        if self._inject(fname, label, t, 0, "f"):
            self._record(fname, t)
            self._schedule(fname)

    # -- summaries -----------------------------------------------------------

    def summary(self, fname: str) -> FunctionSummary:
        summ = self.summaries.get(fname)
        if summ == "computing":
            # recursion: bottom summary now, one re-analysis afterwards
            return FunctionSummary(func=fname, params=(), recursive=True)
        if summ is None:
            self.summaries[fname] = "computing"
            summ = self._compute_summary(fname)
            if summ.recursive or any(
                    isinstance(self.summaries.get(c), FunctionSummary)
                    and self.summaries[c].recursive
                    for c, _ in self.session.call_graph.callees(fname)):
                # one widening round: recompute against the first approximation
                self.summaries[fname] = summ
                summ = self._compute_summary(fname)
            self.summaries[fname] = summ
        self._take_notes(fname)
        return summ

    def _take_notes(self, fname: str):
        """Take over the warnings and cap hits of computing `fname`'s
        summary and of the callee summaries it used, once per analysis.
        A summary's own sub-analysis only records which it used."""
        if fname in self._noted:
            return
        self._noted[fname] = None
        if self.summary_of is not None:
            return
        warnings, cap_hits, callees = self.session.notes[fname]
        self.warnings.extend(warnings)
        self.cap_hits.extend(cap_hits)
        for callee in callees:
            self._take_notes(callee)

    def _compute_summary(self, fname: str) -> FunctionSummary:
        sub = Analysis(self.program, session=self.session, summary_of=fname)
        g = sub.cfg(fname)
        params = self.session.params(fname)
        seeds: list[tuple[str, ir.Statement, Seed]] = []
        for label in g.order:
            for stmt in g.blocks[label].stmts:
                form = stmt.form
                if isinstance(form, ir.Store):
                    seeds.append(("mod-addr", stmt, Seed(
                        stmt.point, addr_sse(form.addr, form.disp),
                        direction="backward", label=f"mod-addr:{stmt.point}")))
                    if isinstance(form.src, str):
                        seeds.append(("mod-val", stmt, Seed(
                            stmt.point, S.Reg(form.src), direction="backward",
                            label=f"mod-val:{stmt.point}")))
                elif isinstance(form, ir.Load):
                    seeds.append(("ref", stmt, Seed(
                        stmt.point, addr_sse(form.addr, form.disp),
                        direction="backward", label=f"ref:{stmt.point}")))
                elif isinstance(form, ir.Ret) and isinstance(form.value, str):
                    seeds.append(("ret", stmt, Seed(
                        stmt.point, S.Reg(form.value), direction="backward",
                        label=f"ret:{stmt.point}")))
        sid_of = {}
        for kind, stmt, seed in seeds:
            sid_of[(kind, stmt.point)] = sub.add_seed(seed)
        sub.run()
        warnings, cap_hits, callees = self.session.notes.setdefault(
            fname, ([], [], {}))
        warnings.extend(sub.warnings)
        cap_hits.extend(sub.cap_hits)
        callees.update(sub._noted)

        allowed = set(params) | {GP}

        def rooted(sid):
            out = []
            for t in sub.registry.get(fname, {}).values():
                if t.seed_id == sid and S.registers(t.expr) <= allowed and t.trusted():
                    out.append(S.retag(t.expr, S.BIRTH_BEFORE_BLOCK))
            return out

        mod: list[ModEntry] = []
        ref: list[S.Sse] = []
        rets: list[S.Sse] = []
        for kind, stmt, seed in seeds:
            sid = sid_of[(kind, stmt.point)]
            members = rooted(sid)
            if kind == "mod-addr":
                vals = []
                vkey = ("mod-val", stmt.point)
                if vkey in sid_of:
                    vals = rooted(sid_of[vkey])
                elif isinstance(stmt.form.src, int):
                    vals = [S.Val(stmt.form.src)]
                for m in members:
                    mod.append(ModEntry(S.Store(m), vals[0] if vals else None))
            elif kind == "ref":
                ref.extend(S.Load(m) for m in members)
            elif kind == "ret":
                rets.extend(members)
        recursive = any(c == fname for c, _ in self.session.call_graph.callees(fname))
        return FunctionSummary(func=fname, params=params,
                               mod=tuple(dict.fromkeys(mod)),
                               ref=tuple(dict.fromkeys(ref)),
                               ret_exprs=tuple(dict.fromkeys(rets)),
                               recursive=recursive)

    # -- the Alg.-3 driver ----------------------------------------------------

    def analyze_function(self, fname: str):
        self.cfg(fname)
        self.visited_functions.add(fname)
        order = self.session.postorder(fname)
        loops = self.session.loop_blocks(fname)
        rounds = 0
        while True:
            changed = False
            for label in reversed(order):      # forward sweep
                changed |= self._visit(fname, label)
            for label in order:                # backward sweep
                changed |= self._visit(fname, label)
            rounds += 1
            if rounds >= self.config.loop_k and loops:
                changed |= self._merge_induction(fname, loops)
            changed |= self._enforce_caps(fname)
            if not changed:
                break
            if rounds >= self.config.func_rounds_cap:
                self.cap_hits.append(f"function fixpoint cap hit in {fname}")
                break
        self._export(fname)

    def run(self):
        while self._queue:
            fname = self._queue.popleft()
            self._queued.discard(fname)
            self.analyze_function(fname)

    def _merge_induction(self, fname: str, loops) -> bool:
        # Decide every merge first, then retire: retiring as we go would
        # starve the other direction's pool of its family members.
        plans = []
        retire_keys = []
        for label in sorted(loops):
            st = self.states[fname][label]
            for pool, direction in ((st.pre_f, "f"), (st.suc_b, "b")):
                groups: dict = {}
                for t in pool.values():
                    if isinstance(t.expr, (S.Reg, S.Val)):
                        continue
                    gk = (t.seed_id, t.tainted, t.derived, t.conds)
                    groups.setdefault(gk, []).append(t)
                for gk, members in groups.items():
                    if len(members) < 3:
                        continue
                    by_expr = {id(m.expr): m for m in members}
                    for merged, family in S.induction_families(
                            [m.expr for m in members],
                            index_id=f"{fname}:s{gk[0]}"):
                        base = by_expr[id(family[0])]
                        plans.append((label, direction, base, merged))
                        retire_keys.extend(by_expr[id(e)].key() for e in family)
        if not plans:
            return False
        self._retire(fname, retire_keys)
        changed = False
        for label, direction, base, merged in plans:
            t = Tracked(expr=merged, point=base.point, phase=base.phase,
                        seed_id=base.seed_id, rule=None, parent=base,
                        tainted=base.tainted, derived=base.derived,
                        is_length=base.is_length, trigger=base.trigger,
                        conds=base.conds, hops=base.hops)
            if t.key() in self.retired.get(fname, ()):
                continue
            idx = 0 if direction == "f" else \
                len(self.cfg(fname).blocks[label].stmts) - 1
            if self._inject(fname, label, t, idx, direction):
                self._record(fname, t)
                changed = True
        return changed

    def _retire(self, fname: str, keys) -> None:
        """Stop tracking merged family members everywhere in the function
        (they stay in the registry for reporting, but no longer flow)."""
        retired = self.retired.setdefault(fname, set())
        retired.update(keys)
        for st in self.states[fname].values():
            for store in (st.pre_f, st.suc_b, st.out_f, st.out_b):
                for k in keys:
                    store.pop(k, None)
            st.pend_f = [(t, i) for t, i in st.pend_f if t.key() not in retired]
            st.pend_b = [(t, i) for t, i in st.pend_b if t.key() not in retired]

    def _enforce_caps(self, fname: str) -> bool:
        changed = False
        for label, st in self.states[fname].items():
            for pool in (st.pre_f, st.suc_b):
                counts: dict = {}
                for t in pool.values():
                    counts.setdefault(t.seed_id, []).append(t)
                for sid, members in counts.items():
                    if len(members) <= self.config.alias_cap:
                        continue
                    merged = S.recognize_induction(
                        [m.expr for m in members], index_id=f"{fname}:{label}:{sid}")
                    drop = members[self.config.alias_cap:]
                    for m in drop:
                        pool.pop(m.key(), None)
                    self.cap_hits.append(
                        f"alias-set cap hit for seed {sid} at {fname}:{label}"
                        + ("" if merged is None else " (family merged first)"))
                    changed = True
        return changed

    # -- cross-function exports ------------------------------------------------

    def _export(self, fname: str):
        g = self.cfg(fname)
        params = self.session.params(fname)
        allowed = set(params) | {GP}
        entry_st = self.states[fname][g.entry]
        exports_up = [t for t in entry_st.out_b.values()
                      if S.registers(t.expr) <= allowed and not t.derived]

        ret_ops: dict[str, S.Reg] = {}
        for ex in g.exits:
            stmts = g.blocks[ex].stmts
            if not stmts:
                continue
            last = stmts[-1].form
            if isinstance(last, ir.Ret) and isinstance(last.value, str):
                ret_ops[ex] = S.Reg(last.value)

        callers = (self.session.call_graph.callers(fname)
                   + self.session.icall_callers.get(fname, []))
        if self.summary_of is not None:
            # a summary's walk stays inside its own function
            callers = [c for c in callers if c[0] == self.summary_of]
        if not callers or (not exports_up and not ret_ops):
            return
        for caller, cpoint in callers:
            if self._jobs >= self.config.job_cap:
                return
            cf, clabel, _ = self.locate(cpoint)
            cform = self.cfg(cf).blocks[clabel].call.form
            mapping = {params[i]: op_sse(cform.args[i])
                       for i in range(min(len(params), len(cform.args)))}
            grew = False
            for t in exports_up:
                if t.hops >= self.config.recursion_depth:
                    continue
                rr = reroot(t.expr, mapping)
                if rr is None:
                    continue
                moved = Tracked(expr=S.retag(rr, S.BIRTH_AFTER_BLOCK), point=cpoint,
                                phase="pre", seed_id=t.seed_id, rule=None, parent=t,
                                tainted=t.tainted, derived=t.derived,
                                is_length=t.is_length, trigger=t.trigger,
                                conds=t.conds, hops=t.hops + 1)
                if self._inject(cf, clabel, moved, -1, "b"):
                    self._record(cf, moved)
                    grew = True
            if cform.ret is not None:
                for ex, retop in ret_ops.items():
                    for t in self.states[fname][ex].out_f.values():
                        if t.hops >= self.config.recursion_depth:
                            continue
                        sub = dict(mapping)
                        sub[retop.name] = S.Reg(cform.ret)
                        rr = reroot(t.expr, sub)
                        if rr is None:
                            continue
                        moved = Tracked(expr=S.retag(rr, S.BIRTH_BEFORE_BLOCK),
                                        point=cpoint, phase="post", seed_id=t.seed_id,
                                        rule=None, parent=t, tainted=t.tainted,
                                        derived=t.derived, is_length=t.is_length,
                                        trigger=t.trigger, conds=t.conds,
                                        hops=t.hops + 1)
                        st = self.states[cf][clabel]
                        if moved.key() not in st.out_f:
                            st.out_f[moved.key()] = moved
                            self._record(cf, moved)
                            self._propagate(cf, self.cfg(cf), clabel, st)
                            grew = True
            if grew:
                self._schedule(cf)

    # -- results ----------------------------------------------------------------

    def family(self, sid: int, fname: str | None = None) -> list[Tracked]:
        regs = ([self.registry.get(fname, {})] if fname
                else list(self.registry.values()))
        out = []
        for reg in regs:
            out.extend(t for t in reg.values() if t.seed_id == sid)
        return out

    def alias_pairs(self, sid: int) -> list[tuple[Tracked, Tracked]]:
        """Certifiable pairs: the seed against every trusted, condition-
        tagged derived member (taint-derived members are not aliases and
        are excluded)."""
        members = [t for t in self.family(sid) if t.trusted()]
        seedish = [t for t in members if t.parent is None and t.rule is None]
        if not seedish:
            return []
        origin = seedish[0]
        return [(origin, t) for t in members if t is not origin]
