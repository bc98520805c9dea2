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

One walker runs both directions over a rule table built once per block,
its rows from parts compiled once per distinct statement form in a
session; only an ITE's arm conditions, which name its point, are built
per statement.  Rule r+7 (8-11) is the backward form of rule r (1-4): it
reads the same operand, as the right-hand side that replaces the defined
register.  Walking upward, use matches (rules 1-6, never 7) yield
forward-only successors and match only clean patterns, those that do not
mention the defined register (the statement reads its operands before it
writes that register); definition matches (8-13) yield successors live
in both directions.  A rule-6 result is additionally tracked backward to
find the store address's definitions.  Replacements are tried before
kills; a replaced-and-killed expression survives only as its successor.
The walker visits only the statements that can act on the expression,
which is sparse evaluation (Choi, Cytron & Ferrante, POPL 1991): each
block's rule table carries a row index (`_Table`), keyed by structure
id.  An expression is stepped across the rows whose defined register,
use pattern or stored value is one of its subtrees, the loads and
stores of one of its memory nodes' addresses, the stores that can still
mark one of those nodes stale (the may-alias barrier), and, when it is
a tainted register, the rows that read it.  No rule, kill, stale mark
or taint hook can fire on any other row, so skipping them changes
nothing.

Statement-level walking is bidirectional inside one block (TraceBlock),
block results flow around the CFG over a postorder worklist run forward
then backward until stable (AnalyzeFunction), and callsite blocks are
not walked: a visit re-roots each callee's summary at the call once
(`transfer_function`, which depends only on the callee and the argument
binding), and every alias crossing the call in either direction reads
that one `Transfer`.  The binding is built once per program for each
(callsite, callee) (`Session.binding`); the transfer, taint descents
and exports back to the callsite all read it.  MOD' cells kill and
generate aliases, and the return aliases rename the result register.
A tainted alias descends into the callee as the formal of an actual it
equals, or as a cell of the callee's REF re-rooted at the call (REF')
that it lives in; the analysis that descends builds REF when a tainted
alias first crosses a call to that callee there, and re-roots it at
each descent.

On completion a function exports its entry-block backward results
(rooted at parameters or the globals register) to its callers'
callsites and its exit-block forward results (rooted at the returned
register) to its callers' return sites, which is how demand spreads
across the call graph.  Taint descents are tabulated: a descent seed is
keyed by (callee, entry fact, trigger), not by the caller's seed, so the
callee is walked once for all callsites that pass it the same fact, and
the analysis records which callsites reached each descent seed.  A fact
of a descent seed into the exporting function returns only to those
callsites; these are the summary edges of IFDS tabulation (Reps, Horwitz
& Sagiv, POPL 1995), and how the paper applies a callee's result at the
callsite that needs it (Alg. 3).  Every other fact goes to every caller:
backward aliases of parameters, facts returned from deeper calls (they
keep their seed ids), and query and summary seeds.  A callsite that
reaches a descent seed after the callee's export schedules the callee
again, so that its export runs for that callsite too.  Descents take no
depth bound, as there are finitely many descent seeds; `RECURSION_DEPTH`
bounds only the exports around a call-graph cycle, and a fact it drops
shows as a cap hit.  Callers and cycles come from one call graph per
session, of direct calls and resolved icall targets (`Session.cycle`),
and a cycle's members are summarized together (see `Analysis`).

The fixpoint inside a function is incremental, the semi-naive step of
Datalog evaluation: work is redone only for facts that are new.  A
block's push sends its neighbours only the `out` entries of each
direction that arrived since its last push (`_Side.new`); an entry
pushed before is already in the neighbour's pool or refused there for
good.  Each pushed entry is retagged once for all neighbours, and handed
on as it is when no birth changes.  An analysis builds each callsite's
list of callee transfers on its first visit there and keeps it
(`Analysis._crossings`).

A function's fixpoint goes one strongly connected component of its CFG
at a time, in topological order (`_Func.sweep`), the outer level of
Bourdoncle's recursive strategy (FMPA 1993): a pass visits a block on no
cycle once and stabilizes a loop in rounds of its own before it walks
past it, forward, then backward, until a pass changes nothing.  After
each round of a loop that changed something, each pool group (seed,
taint, conditions) is turned into offset families where a retreating
edge of the CFG's depth-first walk enters the loop in the walk's
direction: forward at the loop head, the edge's target, and backward at
the latch, its source.  These are Bourdoncle's widening points of the
CFG and of its reverse; every cycle of any CFG, reducible or not, holds
a retreating edge, so they cut every loop.  The other blocks of a loop
hold mostly the same facts: merging there too leaves every corpus and
benchmark ladder report as it is and only repeats the work.  Each merge
partitions a group whole (`sse.induction_families`); a family needs
three members at one stride, two trips round the loop.  Its members are
retired from every block, those past the loop too, which are walked only
once the loop is stable: only the induction term leaves the loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Optional

from . import cfg as cfglib
from . import ir
from . import sse as S

GP = "gp"


# the engine's bounds
SSE_DEPTH = 5             # max nested memory nodes per expression
SSE_SIZE = 64             # max nodes per expression (saturation)
BLOCK_ITER_CAP = 64       # TraceBlock inner iterations
FUNC_ROUNDS_CAP = 32      # AnalyzeFunction rounds per component (loop or function)
RECURSION_DEPTH = 4       # exports around a call-graph cycle
FUNC_JOB_CAP = 16         # schedulings of one function in one analysis
WALK_POP_CAP = 200_000    # queue pops one block walk may make


@dataclass(frozen=True, slots=True)
class Cond:
    """An ITE arm annotation: the alias holds when `reg` (at `point`)
    is truthy (value=True) or falsy (value=False)."""
    reg: str
    value: bool
    point: ir.Point

    def as_json(self):
        return {"reg": self.reg, "value": self.value, "point": str(self.point)}


@dataclass(frozen=True, slots=True)
class Tracked:
    """One alias expression with its provenance.

    Its key (`key()`) is what makes two aliases one fact: the structure
    id of its expression (`_sid`, see `sse`: equal exactly for equal
    expressions, whatever their tags), its seed, taint and conditions.
    The key is built once, when the alias is built (by `moved` and
    `derive` too), so the registry, pool, `out`, `seen` and `retired`
    lookups that read it neither rebuild it nor hash the expression."""
    expr: S.Sse
    point: ir.Point
    phase: str                    # value holds "pre"/"post" this statement
    seed_id: int
    rule: Optional[int] = None    # update rule that produced it
    parent: Optional["Tracked"] = None
    tainted: bool = False
    derived: bool = False         # taint-derived, not a value-exact alias
    trigger: Optional[ir.Point] = None
    conds: tuple[Cond, ...] = ()
    hops: int = 0          # exports taken around a call-graph cycle (bounded)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "_key", (self.expr._sid, self.seed_id, self.tainted,
                            self.derived, self.conds))

    def key(self) -> tuple:
        """The key; the engine's hot paths read `_key` itself."""
        return self._key

    def moved(self, expr: S.Sse) -> "Tracked":
        """This alias with `expr` in place of its expression (a re-tagged
        or re-marked form of it): a copy of every other slot, the key's
        with the new structure id."""
        new = _new_tracked(Tracked)
        _set(new, "expr", expr)
        _set(new, "point", self.point)
        _set(new, "phase", self.phase)
        _set(new, "seed_id", self.seed_id)
        _set(new, "rule", self.rule)
        _set(new, "parent", self.parent)
        _set(new, "tainted", self.tainted)
        _set(new, "derived", self.derived)
        _set(new, "trigger", self.trigger)
        _set(new, "conds", self.conds)
        _set(new, "hops", self.hops)
        _set(new, "_key", (expr._sid, self.seed_id, self.tainted, self.derived,
                           self.conds))
        return new

    def derive(self, expr: S.Sse, point: ir.Point, phase: str,
               rule: Optional[int] = None, **changes) -> "Tracked":
        """A successor of this alias: `expr` at `point` and `phase`, made
        by `rule` (None for transfers, merges and taint steps), with this
        alias as its parent.  It inherits the seed, taint, trigger,
        conditions and hop count unless `changes` overrides them."""
        new = self.moved(expr)
        _set(new, "point", point)
        _set(new, "phase", phase)
        _set(new, "rule", rule)
        _set(new, "parent", self)
        if changes:
            for name, value in changes.items():
                _set(new, name, value)
            new.__post_init__()
        return new

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


_set = object.__setattr__
_new_tracked = object.__new__


@dataclass(frozen=True)
class Seed:
    point: ir.Point
    expr: S.Sse
    direction: str = "both"       # forward | backward | both
    tainted: bool = False
    trigger: Optional[ir.Point] = None
    label: str = ""


def op_sse(o: ir.Operand) -> S.Sse:
    return S.Reg(o) if isinstance(o, str) else S.Val(o)


def addr_sse(reg: str, disp: int) -> S.Sse:
    a = S.Reg(reg)
    return S.canonicalize(S.Bin("+", a, S.Val(disp))) if disp else a


# ---------------------------------------------------------------------------
# Statement-level stepping
# ---------------------------------------------------------------------------

class _Compiled:
    """One statement's row of the rule table, built once per block.

    `uses` holds the patterns of rules 1-4 as (rule, pattern, cond,
    clean), `clean` when the pattern does not mention the defined
    register.  `defs` holds the right-hand sides of rules 8-11: the same
    operands under rule r+7.  `carriers` are the registers whose taint
    the defined register takes when no rule rewrites them.  `addr` is a
    load's or store's address and `value` a store's stored value.  Not a
    dataclass: one is built per statement."""
    __slots__ = ("stmt", "dst", "uses", "defs", "carriers", "addr", "value")

    def __init__(self, stmt, dst, uses, defs, carriers, addr, value):
        self.stmt, self.dst, self.uses, self.defs = stmt, dst, uses, defs
        self.carriers, self.addr, self.value = carriers, addr, value


def _compile(stmt: ir.Statement, parts: dict) -> _Compiled:
    """`stmt`'s row from its form's `_row_parts`, kept in `parts` by the
    form's id (its program keeps it alive); only an ITE's conds name the point."""
    form = stmt.form
    dst, uses, defs, carriers, addr, value = (
        parts.get(id(form)) or parts.setdefault(id(form), _row_parts(form)))
    if type(form) is ir.Ite:
        uses = tuple((rule, pat, Cond(form.cond, arm, stmt.point), clean)
                     for rule, pat, arm, clean in uses)
        defs = tuple((rule, pat, Cond(form.cond, arm, stmt.point))
                     for rule, pat, arm in defs)
    return _Compiled(stmt, dst, uses, defs, carriers, addr, value)


def _row_parts(form: ir.Form) -> tuple:
    """The row fields of every statement of `form`, in `_Compiled` order
    after `stmt`; an ITE's conditions stand as the arm's truth value."""
    name = ir.defined_register(form)
    dst = S.Reg(name) if name is not None else None
    ops: list[tuple[int, S.Sse, Optional[bool]]] = []   # rules 1-4
    carriers: tuple[S.Reg, ...] = ()
    if isinstance(form, ir.Move):
        ops = [(1, op_sse(form.src), None)]
    elif isinstance(form, ir.BinOp):
        ops = [(2, S.canonicalize(S.Bin(form.op, op_sse(form.lhs),
                                        op_sse(form.rhs))), None)]
        carriers = tuple(S.Reg(o) for o in (form.lhs, form.rhs)
                         if isinstance(o, str))
    elif isinstance(form, ir.UnOp):
        ops = [(2, S.canonicalize(S.Un(form.op, op_sse(form.src))), None)]
        if isinstance(form.src, str):
            carriers = (S.Reg(form.src),)
    elif isinstance(form, ir.Ite):
        ops = [(3, op_sse(form.then_v), True), (4, op_sse(form.else_v), False)]
    elif isinstance(form, ir.Load):
        carriers = (S.Reg(form.addr),)
    uses = tuple((rule, pat, arm, not S.contains_reg(pat, name))
                 for rule, pat, arm in ops
                 if not (rule == 1 and pat == dst))   # a self-move renames nothing
    defs = tuple((rule + 7, pat, arm) for rule, pat, arm in ops)
    addr = value = None
    if isinstance(form, (ir.Load, ir.Store)):
        addr = addr_sse(form.addr, form.disp)
    if isinstance(form, ir.Store):
        value = op_sse(form.src)
    return dst, uses, defs, carriers, addr, value


class _Table:
    """A block's rule table, one row per statement, with its row index.

    The index maps what a fact can hold to the rows that can act on it,
    as bitmasks over the rows, keyed by structure id (`_sid`, see
    `sse`): `by_sid` maps a structure to the rows whose defined
    register, use pattern or stored value it is, and `by_addr` an
    address to its load and store rows.  `reads` maps a register name to
    the rows that read it, and `stores` holds the store rows.  `relevant`
    reads them.  Not a dataclass: one is built per block of every
    function."""
    __slots__ = ("rows", "by_sid", "by_addr", "reads", "stores")

    def __init__(self, rows, by_sid, by_addr, reads, stores):
        self.rows, self.by_sid, self.by_addr = rows, by_sid, by_addr
        self.reads, self.stores = reads, stores

    def relevant(self, e: S.Sse, forward: bool, tainted: bool = False) -> int:
        """The rows where stepping `e` in the given direction may yield,
        kill or change anything; every other row steps it to itself.

        A row acts on `e` only when it defines one of its registers
        (rules 8-12, 14), one of its use patterns or its stored value
        occurs in `e` (rules 1-4, 6), its load or store address is the
        address of one of `e`'s memory nodes (rules 5, 7, 13, 15), or `e`
        is tainted and is a register the row reads (the taint carriers
        and the policy's compare hook).  The first two are the rows
        `by_sid` gives for the structure ids of `e`'s subtrees, the ids
        `S.occurs` reads.  A store also marks `e`'s memory nodes stale:
        going forward those born before it and going backward those born
        after it.  So a store row is relevant forward when it comes after
        the lowest birth among the nodes not yet stale forward, and
        backward when it comes before the highest birth among those not
        yet stale backward (`S.mem_summary`)."""
        mask = 0
        by_sid = self.by_sid
        for sid in S._subtree_ids(e):
            mask |= by_sid.get(sid, 0)
        if tainted and type(e) is S.Reg:
            mask |= self.reads.get(e.name, 0)
        if e._mdepth:
            addrs, lo, hi = S.mem_summary(e)
            if self.by_addr:
                for a in addrs:
                    mask |= self.by_addr.get(a, 0)
            n = len(self.rows)
            if forward and lo is not None:
                k = min(max(lo + 1, 0), n)
                mask |= self.stores >> k << k
            elif not forward and hi is not None:
                mask |= self.stores & ((1 << min(max(hi, 0), n)) - 1)
        return mask


def _table(statements: Iterable[ir.Statement], parts: Optional[dict] = None) -> _Table:
    """The rule table of `statements`, its rows from `parts` (`_compile`)."""
    parts = {} if parts is None else parts
    rows = tuple(_compile(stmt, parts) for stmt in statements)
    by_sid: dict[int, int] = {}
    by_addr: dict[int, int] = {}
    reads: dict[str, int] = {}
    stores = 0
    for i, row in enumerate(rows):
        bit = 1 << i
        for key in (row.dst, row.value, *(pat for _, pat, _, _ in row.uses)):
            if key is not None:
                by_sid[key._sid] = by_sid.get(key._sid, 0) | bit
        if row.addr is not None:
            sid = row.addr._sid
            by_addr[sid] = by_addr.get(sid, 0) | bit
        if row.value is not None:
            stores |= bit
        for r in ir.used_registers(row.stmt.form):
            reads[r] = reads.get(r, 0) | bit
    return _Table(rows, by_sid, by_addr, reads, stores)


def _bounded(parent: Tracked, expr: S.Sse, point: ir.Point, phase: str,
             saturated: Optional[dict] = None, rule: Optional[int] = None,
             **changes) -> Optional[Tracked]:
    """`parent.derive` of the canonical `expr`, or None when `expr` is
    past the SSE depth or size cap (it saturates, and `point` is entered
    into `saturated`, the points where the caller reports a cap hit) or
    is an alias not worth tracking (`_spent`)."""
    expr = S.canonicalize(expr)
    if S.mem_depth(expr) > SSE_DEPTH or S.size(expr) > SSE_SIZE:
        saturated[point] = None
        return None
    if _spent(expr, parent.tainted):
        return None
    return parent.derive(expr, point, phase, rule, **changes)


def _holds_store(expr: S.Sse) -> bool:
    """True when `expr` holds a store node (see `_visit_callsite`)."""
    return any(type(n) is S.Store for n in S.mem_nodes(expr))


def _spent(expr: S.Sse, tainted: bool) -> bool:
    """True when an alias of `expr` is not worth tracking.  It holds a
    spent memory node (`S.holds_spent`), stale in both directions: no
    rule rewrites that node again, so every successor holds it too and
    none is trusted.  A tainted alias is dropped only when it is itself
    a spent store.  A taint descent matches by structure, whatever the
    tags (`Analysis._descend`): a bare load equal to a REF' cell, a store
    not stale forward by its address, and a sum such as `load*(a) + rN`
    turns into a bare load where `rN` is bound to 0.  A spent store
    matches no cell, and its successors are stores over its address (a
    callee's store alias that equals it names a store of the callee)."""
    if not S.holds_spent(expr):
        return False
    return not tainted or (type(expr) is S.Store
                           and expr.stale_fwd and expr.stale_bwd)


class _Step:
    """Result of confronting one tracked expression with one statement.
    Not a dataclass: one is built per statement step."""
    __slots__ = ("expr", "successors", "killed")

    def __init__(self, expr: S.Sse):
        self.expr = expr            # original with updated staleness marks
        # (successor, direction): "f", "b", or "fb"
        self.successors: list[tuple[Tracked, str]] = []
        self.killed = False


def _subst_ok(expr: S.Sse, pattern: S.Sse, dst: str) -> bool:
    """A forward replacement introducing Reg(dst) is sound only if the
    original had dst nowhere outside the matched pattern (otherwise the
    stale occurrences would mix old and new values)."""
    if not S.contains_reg(expr, dst):
        return True
    probe = S.replace(expr, pattern, S.Reg("r999999"))
    return not S.contains_reg(probe, dst)


class _Walker:
    def __init__(self, policy=None):
        self.policy = policy
        self.saturated: dict[ir.Point, None] = {}   # see `_bounded`

    def _emit(self, out: _Step, c: _Compiled, t: Tracked, expr: S.Sse,
              rule: Optional[int], direction: str = "f", phase: str = "post",
              cond: Optional[Cond] = None, derived: bool = False):
        changes = {}
        if cond is not None:
            if Cond(cond.reg, not cond.value, cond.point) in t.conds:
                return        # both arms of one ITE at once: it never holds
            changes["conds"] = tuple(sorted(
                set(t.conds) | {cond}, key=lambda k: (str(k.point), k.reg, k.value)))
        if derived:
            changes["derived"] = True
        n = _bounded(t, expr, c.stmt.point, phase, self.saturated, rule, **changes)
        if n is not None:
            out.successors.append((n, direction))

    def _use_rules(self, out: _Step, c: _Compiled, t: Tracked, e: S.Sse,
                   upward: bool) -> bool:
        """Rules 1-4; True when one matched.  Walking upward, the
        statement evaluates its operands with pre-statement register
        values while the expression below it speaks in post-statement
        terms, so only clean patterns match there."""
        matched = False
        for rule, pat, cond, clean in c.uses:
            if ((clean or not upward) and S.occurs(e, pat)
                    and _subst_ok(e, pat, c.dst.name)):
                matched = True
                self._emit(out, c, t, S.replace(e, pat, c.dst), rule, cond=cond)
        return matched

    def forward_step(self, c: _Compiled, idx: int, t: Tracked) -> _Step:
        form = c.stmt.form
        out = _Step(t.expr)
        e = t.expr
        matched = self._use_rules(out, c, t, e, upward=False)
        if isinstance(form, ir.Load):
            def fresh(n):
                return n.addr == c.addr and n.birth <= idx and not n.stale_fwd

            for rule, kind in ((5, S.Load), (7, S.Store)):
                new = _mem_subst(e, lambda n: isinstance(n, kind) and fresh(n),
                                 c.dst, ("fresh", kind, idx, c.addr))
                if new is not None:
                    matched = True
                    self._emit(out, c, t, new, rule)
                    break
        elif isinstance(form, ir.Store):
            # a killed expression leaves no successor either: the node the
            # store overwrote would survive the substitution (the pattern
            # is the stored value, never a memory node)
            if S.kills_memory(e, c.addr, idx):
                out.killed = True
            else:
                out.expr = S.mark_stale(
                    e, lambda n: n.birth < idx and n.addr != c.addr, "fwd",
                    ("older", idx, c.addr))
                if S.occurs(out.expr, c.value):
                    self._emit(out, c, t, S.replace(out.expr, c.value,
                                                    S.Store(c.addr, birth=idx)),
                               6, "fb")
        if (not matched and self.policy is not None and t.tainted
                and e in c.carriers):
            self._emit(out, c, t, c.dst, None, derived=True)
        if self.policy is not None:
            self.policy.observe_forward(c.stmt, idx, t)
        if c.dst is not None and S.kills_register(e, c.dst.name):
            out.killed = True
        return out

    def backward_step(self, c: _Compiled, idx: int, t: Tracked) -> _Step:
        form = c.stmt.form
        out = _Step(t.expr)
        e = t.expr

        # definition matches (use-define): successor lives both ways
        if c.dst is not None and S.contains_reg(e, c.dst.name):
            for rule, rhs, cond in c.defs:
                self._emit(out, c, t, S.replace(e, c.dst, rhs), rule, "fb", "pre",
                           cond)
            if isinstance(form, ir.Load):
                self._emit(out, c, t, S.replace(e, c.dst, S.Load(c.addr, birth=idx)),
                           12, "fb", "pre")
            # rule 14 backward: the expression cannot be carried above the
            # definition of a register it mentions...
            out.killed = True
            # ...unless the rewrite absorbed into the same expression (a
            # loop-summarized form crossing its own shift statement): the
            # expression is unchanged above it and simply survives
            kept = [s for s in out.successors if s[0]._key != t._key]
            if len(kept) < len(out.successors):
                out.killed = False
                out.successors = kept

        if isinstance(form, ir.Store):
            a = c.addr
            # may-alias barrier for memory reads issued below this store
            marked = S.mark_stale(e, lambda n: n.birth > idx and n.addr != a,
                                  "bwd", ("newer", idx, a))

            def after(n):
                return (isinstance(n, S.Load) and n.addr == a and n.birth > idx
                        and not n.stale_bwd)

            new, hit = S.replace_mem(marked, after, c.value, ("after", idx, a))
            if hit:
                self._emit(out, c, t, new, 13, "fb", "pre")
                # the surviving original must not re-match an older store
                marked = S.mark_stale(marked, lambda n: isinstance(n, S.Load)
                                      and n.addr == a and n.birth > idx, "bwd",
                                      ("loads after", idx, a))
            out.expr = e = marked

        # use matches (rules 1-6, never 7): forward-only successors
        self._use_rules(out, c, t, e, upward=True)
        if isinstance(form, ir.Load):
            def readable(n):
                return (isinstance(n, S.Load) and n.addr == c.addr
                        and not n.stale_bwd and n.birth > idx)

            if not S.contains_reg(c.addr, c.dst.name):
                new = _mem_subst(e, readable, c.dst, ("after", idx, c.addr))
                if new is not None:
                    self._emit(out, c, t, new, 5)
        elif isinstance(form, ir.Store):
            # the successor is tracked forward from below this store, where
            # any same-cell node from above the store is already dead
            if S.occurs(e, c.value) and not S.kills_memory(e, c.addr, idx):
                self._emit(out, c, t, S.replace(e, c.value, S.Store(c.addr, birth=idx)),
                           6, "fb")
        return out


def _mem_subst(expr: S.Sse, node_pred, dst: S.Reg, key) -> Optional[S.Sse]:
    """Replace the memory nodes that `node_pred` selects (and `key`
    determines, see `S.replace_mem`) with `dst`, refusing when the
    original mentions dst outside the consumed nodes (the leftover
    occurrences would denote the pre-statement value)."""
    if S.contains_reg(expr, dst.name):
        probe, hit = S.replace_mem(expr, node_pred, S.Reg("r999999"), key)
        if not hit or S.contains_reg(probe, dst.name):
            return None
    new, hit = S.replace_mem(expr, node_pred, dst, key)
    return new if hit else None


def _walk(table: _Table, items, policy, forward: bool, seen: dict):
    """Walk each queued (expression, start) through the block, forward to
    its last statement or backward to its first, stepping only the rows
    `table.relevant` gives for the expression; it is asked again whenever
    a step re-marks the expression.  Successors that live in the walked
    direction are queued from the next statement.  ``seen`` maps
    expression keys to the start already walked, the lowest going forward
    and the highest going backward, so re-derivations along other orders
    are not walked twice.  A step that leaves the expression not worth
    tracking (`_spent`) ends its walk, as a kill does.

    Returns (survivors, created, cut, saturated): the expressions alive
    at the block's end, every (successor, direction, statement index),
    whether the walk stopped at `WALK_POP_CAP` with items still queued,
    and the points where a successor saturated (`_bounded`)."""
    w = _Walker(policy)
    if forward:
        step, follow, delta = w.forward_step, "f", 1

        def window(mask, i):          # the rows from i on
            return mask >> i << i
    else:
        step, follow, delta = w.backward_step, "b", -1

        def window(mask, i):          # the rows up to i
            return mask & ((2 << i) - 1) if i >= 0 else 0
    rows = table.rows
    n = len(rows)
    queue = deque(items)
    survivors: list[Tracked] = []
    created: list[tuple[Tracked, str, int]] = []
    pops = 0
    while queue:
        pops += 1
        if pops > WALK_POP_CAP:
            break
        t, start = queue.popleft()
        start = max(start, 0) if forward else min(start, n - 1)
        k = t._key
        prev = seen.get(k)
        if prev is not None and (prev <= start if forward else prev >= start):
            continue
        seen[k] = start
        alive = True
        todo = window(table.relevant(t.expr, forward, t.tainted), start)
        while todo:
            i = ((todo & -todo) if forward else todo).bit_length() - 1
            todo ^= 1 << i
            result = step(rows[i], i, t)
            for succ, direction in result.successors:
                created.append((succ, direction, i))
                if follow in direction:
                    queue.append((succ, i + delta))
            if result.killed or _spent(result.expr, t.tainted):
                alive = False
                break
            if result.expr is not t.expr:
                t = t.moved(result.expr)
                todo = window(table.relevant(t.expr, forward, t.tainted),
                              i + delta)
        if alive:
            survivors.append(t)
    return survivors, created, bool(queue), w.saturated


# ---------------------------------------------------------------------------
# Function summaries and the callsite transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModEntry:
    cell: S.Store                 # the written cell in callee entry terms
    value: Optional[S.Sse] = None # stored value in callee entry terms


@dataclass
class FunctionSummary:
    """What every crossing of a call to `func` reads, in its entry terms:
    MOD and the return aliases.  REF is not part of it (`Analysis._ref`).
    It carries the warnings and cap hits of the sub-analysis that computed
    it, which took those of the callee summaries it read; they take no
    part in comparing two summaries."""
    func: str
    mod: tuple[ModEntry, ...] = ()
    ret_exprs: tuple[S.Sse, ...] = ()          # aliases of the returned value
    warnings: tuple[str, ...] = field(default=(), compare=False)
    cap_hits: tuple[str, ...] = field(default=(), compare=False)


def live_in_registers(graph: cfglib.Cfg) -> tuple[str, ...]:
    """Registers that may be read before written: the function's formals
    (restricted to rN; sp/gp are implicit), over the graph's postorder
    (`Cfg.postorder`).  Without a retreating edge each block's
    successors come before it, so one pass is the fixpoint."""
    order, cyclic = graph.postorder, bool(graph.retreating)
    gen: dict[str, set[str]] = {}
    kill: dict[str, set[str]] = {}
    for label in order:
        g, k = set(), set()
        for stmt in graph.blocks[label].stmts:
            g.update(r for r in ir.used_registers(stmt.form) if r not in k)
            k.add(ir.defined_register(stmt.form))
        gen[label], kill[label] = g, k
    live: dict[str, set[str]] = {b: set() for b in order}
    changed = True
    while changed:
        changed = False
        for label in order:
            out = set().union(*(live[s] for s in graph.succs[label]))
            new = gen[label] | (out - kill[label])
            if new != live[label]:
                live[label], changed = new, cyclic
    return tuple(sorted((r for r in live[graph.entry] if r not in ("sp", GP)),
                        key=lambda r: int(r[1:])))


def arg_map(params: tuple[str, ...], args: tuple[ir.Operand, ...]) -> dict[str, S.Sse]:
    """A callee's formals mapped to a callsite's actuals, pairwise; the
    extra ones on either side map nowhere."""
    return dict(zip(params, map(op_sse, args)))


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


@dataclass(frozen=True)
class Transfer:
    """A callee summary re-rooted at one callsite, in the caller's terms.
    REF' is not part of it: a descent re-roots REF under `args`
    (`Analysis._descend`)."""
    args: dict[str, S.Sse]                   # formal -> actual
    mod: tuple[ModEntry, ...]                # MOD'
    rets: tuple[S.Sse, ...]                  # aliases of the returned value


def transfer_function(summary: FunctionSummary, binding: dict[str, S.Sse]) -> Transfer:
    """Re-root a callee summary at a callsite under its argument binding
    (`Session.binding`).

    The result depends on the callee and the binding only, so a callsite
    builds it once per callee and every alias crossing the call, in
    either direction, reads the same value.  Entries that mention a
    formal with no actual (or a frame-local register) are dropped; a MOD
    entry whose stored value cannot be re-rooted keeps its cell with no
    value.  A taint descent reads the binding, kept as `args`: it maps
    tainted actuals to formals and re-roots the callee's REF cells."""
    mod: list[ModEntry] = []
    for entry in summary.mod:
        cell = reroot(entry.cell, binding)
        if cell is not None:
            value = reroot(entry.value, binding) if entry.value is not None else None
            mod.append(ModEntry(cell, value))
    rets = [r for e in summary.ret_exprs if (r := reroot(e, binding)) is not None]
    return Transfer(binding, tuple(mod), tuple(rets))


# ---------------------------------------------------------------------------
# The function-level engine
# ---------------------------------------------------------------------------

class _Side:
    """A block's state in one walk direction: forward (`_BlockSt.f`) from
    the block's top, or backward (`_BlockSt.b`) from its bottom.  Not a
    dataclass: one is built per block and direction of every analysis."""
    __slots__ = ("pool", "out", "pend", "seen", "new")

    def __init__(self):
        self.pool: dict = {}    # key -> fact injected here
        self.out: dict = {}     # key -> fact leaving the block
        self.pend: list = []    # [(Tracked, idx)] to walk
        self.seen: dict = {}    # key -> start walked (`_walk`)
        self.new: list = []     # put in `out` since the last push

    def put(self, t: Tracked) -> bool:
        """Enter `t` into `out` (and `new`) unless its key is there;
        True when it was new."""
        k = t._key
        if k in self.out:
            return False
        self.out[k] = t
        self.new.append(t)
        return True


class _BlockSt:
    """A block's state in an analysis, built when a fact first enters the
    block (`Analysis._state`)."""
    __slots__ = ("f", "b")

    def __init__(self):
        self.f, self.b = _Side(), _Side()


# what a block no fact has entered reads as; never written
_NO_STATE = _BlockSt()


def _handed(t: Tracked, birth: int) -> Tracked:
    """`t` as it enters a neighbouring block, its memory nodes born at
    `birth`: `t` itself when none changes."""
    expr = S.retag(t.expr, birth)
    return t if expr is t.expr else t.moved(expr)


class _Func:
    """One function's static facts (`Session.func`): its CFG, point index
    (`points`, each point's `Session.locate` triple), postorder
    (`order`), merge points, loop blocks, live-in registers (`params`),
    rule tables by block label, each built on the block's first visit
    (`table`), and argument bindings (`Session.binding`).  The CFG's one
    depth-first walk (`Cfg.postorder`, `Cfg.retreating`) gives every
    loop fact: the merge points are the ends of its retreating edges,
    and its one Tarjan walk orders the sweep of components (`sweep`),
    whose cycles hold the loop blocks.  The dominators wait for
    `taint._guards`."""
    __slots__ = ("cfg", "points", "order", "merge_points", "loops", "sweep",
                 "params", "tables", "bindings", "_dom", "_parts")

    def __init__(self, function: ir.Function, parts: dict):
        g = self.cfg = cfglib.build_cfg(function)
        self.points = {stmt.point: (function.name, label, i)
                       for label, block in g.blocks.items()
                       for i, stmt in enumerate(block.stmts)}
        self.order, self._dom = g.postorder, None
        # the widening points of the CFG and of its reverse (Bourdoncle,
        # FMPA 1993), forward first: loop heads forward, latches backward
        heads, latches = {v for _, v in g.retreating}, {u for u, _ in g.retreating}
        self.merge_points = tuple(
            (label, d) for label in sorted(heads | latches)
            for d, at in (("f", heads), ("b", latches)) if label in at)
        # components in reverse postorder, each at its first member there,
        # are in topological order (Cormen et al., Lemma 22.14); a loop is
        # its blocks forward and back, and its merge points
        root = cfglib.components((g.entry,), g.succs) if g.retreating else {}
        comps: dict = {}
        for label in reversed(self.order):
            comps.setdefault(root.get(label, label), []).append(label)
        sweep = [ms[0] if len(ms) == 1 and ms[0] not in g.succs[ms[0]] else
                 ((*ms, *reversed(ms)), tuple(p for p in self.merge_points if p[0] in ms))
                 for ms in comps.values()]
        self.loops = frozenset(b for part in sweep if part.__class__ is tuple
                               for b in part[0])
        self.sweep = (*sweep, *reversed(sweep))
        self.params = live_in_registers(g)
        # label -> `_Table`; (callsite, callee) -> `Session.binding`
        self.tables, self.bindings, self._parts = {}, {}, parts

    def dominators(self) -> dict[str, frozenset[str]]:
        if self._dom is None:
            self._dom = cfglib.dominators(self.cfg)
        return self._dom

    def table(self, label: str) -> _Table:
        """The block's rule table, its rows from the session's parts."""
        table = self.tables.get(label)
        if table is None:
            table = self.tables[label] = _table(self.cfg.blocks[label].stmts,
                                                self._parts)
        return table


class Session:
    """What every analysis of one program under one resolution map shares.

    Each function's static facts are one record (`func`, a `_Func`),
    built on the function's first use and read by attribute on the hot
    paths; it holds the function's part of the point index (`locate`).
    The session also keeps the row parts compiled once per distinct
    form, which hold SSE nodes (`_compile`).  Sessions derived through
    `with_resolutions` share both.  The call graph (direct calls and the
    resolved icall targets) and its cycles depend on the resolution map,
    and so does the summary cache, so each session has its own.  Results
    that only one analysis reads, REF and sink queries, are not kept
    here (`Analysis._ref`, `taint._backward_family`).

    A root session (one built here rather than by `with_resolutions`)
    has no resolutions.  It starts an empty SSE intern table and empty
    rewrite memos (`S.reset_tables`), so they hold the nodes of one
    program's analysis only; sessions derived from it share them.  Its
    rule tables and every fact key on structure ids, which name one
    structure in every table, so an analysis may still run on it after a
    later root session has started another table.
    """

    def __init__(self, program: ir.Program):
        S.reset_tables()
        self.program = program
        self._funcs: dict[str, _Func] = {}
        self._parts: dict = {}       # form id -> its row parts (`_compile`)
        self._resolve({})

    def _resolve(self, resolutions: dict):
        self.resolutions = resolutions
        self.summaries: dict[str, FunctionSummary] = {}

    def with_resolutions(self, resolutions: dict) -> "Session":
        """The session over this program under `resolutions`:
        this one when the map is the same, otherwise a new session that
        shares the function records, the row parts and the SSE intern
        table, and starts with no summaries."""
        if resolutions == self.resolutions:
            return self
        other = object.__new__(Session)
        other.program = self.program
        other._funcs, other._parts = self._funcs, self._parts
        other._resolve(resolutions)
        return other

    def func(self, fname: str) -> _Func:
        """`fname`'s static facts, built on its first use."""
        fn = self._funcs.get(fname)
        if fn is None:
            fn = self._funcs[fname] = _Func(self.program.functions[fname],
                                            self._parts)
        return fn

    def locate(self, point: ir.Point) -> tuple[str, str, int]:
        """(function, CFG block, index in that block) of a program point."""
        return self.func(point.func).points[point]

    def statement(self, point: ir.Point) -> ir.Statement:
        fname, label, idx = self.locate(point)
        return self._funcs[fname].cfg.blocks[label].stmts[idx]

    def binding(self, site: ir.Point, callee: str) -> dict[str, S.Sse]:
        """The callee's formals mapped to the actuals of the call at `site`
        (`arg_map`), kept in the caller's record for every use of the call."""
        bindings = self.func(site.func).bindings
        binding = bindings.get((site, callee))
        if binding is None:
            binding = bindings[site, callee] = arg_map(
                self.func(callee).params, self.statement(site).form.args)
        return binding

    @cached_property
    def call_graph(self) -> cfglib.CallGraph:
        return cfglib.build_call_graph(self.program, self.resolutions)

    def cycle(self, fname: str) -> tuple[str, ...]:
        """The members of `fname`'s call-graph cycle in program order: its
        strongly connected component when that has two members or a
        self-call, else ()."""
        return self._cycles.get(fname, ())

    @cached_property
    def _cycles(self) -> dict[str, tuple[str, ...]]:
        callees: dict[str, list[str]] = {}
        for caller, callee, _ in self.call_graph.edges:
            callees.setdefault(caller, []).append(callee)
        return cfglib.cycles(self.program.functions, callees)


class Analysis:
    """One demand-driven run over a program.

    Seeds are injected at program points; `run()` drives per-function
    fixpoints and lets results cross callsites in both directions.  The
    analysis holds only per-run state: block states, registry, queue,
    seeds, REF, warnings and cap hits.  Each function's static facts
    (`Session.func`), the point index and the summary cache belong to
    the `Session` it is built on (`summaries` is the session's dict),
    which every analysis of a run shares.  An analysis given `confine`
    exports only to the callers it names (`_export`).

    There is one summary cache per resolution map.  A summary depends
    only on its function and its callees' summaries: the sub-analysis
    that computes it walks that function alone, exporting only to the
    function's own recursive callsites.  So each summary is computed
    once and every analysis of the session reuses it, whatever order
    they ask in.  It carries the warnings and cap hits of computing it,
    its callees' among them, and every analysis that asks for it takes
    them, each once.  A call-graph cycle (`Session.cycle`, direct calls
    and resolved icalls) is summarized as one unit, as Sharir & Pnueli
    (1981) treat it: asking for any member starts every member at the
    bottom summary (no MOD entry, no return alias) and computes all of
    them twice in program order, the second round against the first's
    approximations.  So a cycle's summaries too are the same whichever
    member is asked first.  The rounds stop at two rather than at a
    joint fixpoint, which a counting recursion never reaches: on
    `corpus/mutual_recursion.ir` each round adds two offsets of the
    counter to `even`'s return aliases (63 after 32 rounds).  When the
    second round still changes a member's summary, the cut is a cap hit
    on the summary of the member asked first.

    A summary holds what every callsite crossing reads: MOD and the
    return aliases, so its sub-analysis is seeded at stores and returns
    only; a function with neither gets the bottom summary with no
    sub-analysis.  REF is read by taint descents alone (`_descend`), so
    the analysis that descends builds it on its first ask (`_refs`), by
    a sub-analysis seeded at the function's loads, once the function's
    summary is final (for a cycle member, after both rounds), and takes
    that sub-analysis's warnings and cap hits then.  A run that never
    descends with taint, such as icall resolution, builds none.  A
    descent compares a fact with a REF' cell, a REF cell re-rooted at
    the callsite, by structure id, so tags do not stop it: a tainted alias
    holding a spent memory node is still tracked, unless it is a spent
    store, which no cell matches (`_spent`).

    The merge points of a loop component (`_Func.sweep`) merge offset
    families after each of its rounds that changed something
    (`_merge_induction`), and the members merged are retired (`_retire`):
    refused wherever they are injected again in the function.

    `registry[fname]` holds one `Tracked` per `Tracked.key()` that the
    walk established in `fname`, anchored at the point and phase where
    the engine first established it; `family` reads it through an index
    by seed id.  Aliases that are only carried forward (or backward)
    past statements are not re-recorded.  A tainted instance is anchored
    on its trigger's "post" side or later: a source seed at its own
    statement's "post" side, and a backward alias flips to untainted at
    the trigger's "pre" side.
    """

    def __init__(self, session: Session, policy=None, *,
                 confine: Iterable[str] | None = None):
        self.session = session
        self.program = session.program
        self.policy = policy
        self.summaries = session.summaries
        # the callers it exports to, when not every caller (`_export`)
        self.confine = None if confine is None else frozenset(confine)
        self.states: dict[str, dict[str, _BlockSt]] = {}
        # callsite point -> its (callee, Transfer) list (`_crossings`)
        self._crossed: dict[ir.Point, list[tuple[str, Transfer]]] = {}
        self.registry: dict[str, dict] = {}
        # seed id -> fname -> its registry entries of that seed, in order
        self._members: dict[int, dict[str, list[Tracked]]] = {}
        self.visited_functions: set[str] = set()
        self.retired: dict[str, set] = {}
        self.warnings: list[str] = []
        self.cap_hits: list[str] = []
        self.saturated: dict[ir.Point, None] = {}   # see `_bounded` and `run`
        self.blocks_visited: set[tuple[str, str]] = set()
        self._queue: deque[str] = deque()
        self._queued: set[str] = set()
        self._seed_ids: dict = {}
        # (callee, descent seed id) -> the callsites that reached the seed
        self._descents: dict[tuple[str, int], set[ir.Point]] = {}
        # fname -> the Load cells it reads, in its entry terms (REF, `_ref`)
        self._refs: dict[str, tuple[S.Load, ...]] = {}
        self._jobs: dict[str, int] = {}     # fname -> times scheduled

    # -- plumbing -----------------------------------------------------------

    def func(self, fname: str) -> _Func:
        """`fname`'s record (`Session.func`); on its first use here its
        block states start and its CFG warnings are taken."""
        fn = self.session.func(fname)
        if fname not in self.states:
            self.states[fname] = {}
            self.registry.setdefault(fname, {})
            self.warn(*fn.cfg.warnings)
        return fn

    def warn(self, *messages: str):
        """Record each warning once per analysis, in first-occurrence
        order."""
        for message in messages:
            if message not in self.warnings:
                self.warnings.append(message)

    def _cap_hit(self, *hits: str):
        """Record each cap hit once per analysis, in first-seen order."""
        for hit in hits:
            if hit not in self.cap_hits:
                self.cap_hits.append(hit)

    def _schedule(self, fname: str):
        if fname in self._queued:
            return
        jobs = self._jobs.get(fname, 0)
        if jobs >= FUNC_JOB_CAP:
            self._cap_hit(f"job cap reached; {fname} not scheduled")
            return
        self._jobs[fname] = jobs + 1
        self._queued.add(fname)
        self._queue.append(fname)

    def seed_id_for(self, seed: Seed) -> int:
        k = (seed.point, S.canonicalize(seed.expr), seed.tainted, seed.trigger, seed.label)
        return self._seed_ids.setdefault(k, len(self._seed_ids))

    def add_seed(self, seed: Seed) -> int:
        """Inject `seed` and return its id.  Its expression may have been
        built outside the session, such as a query parsed before the
        session reset the intern table: structure ids outlive the table,
        so its facts key as those of the same expression built here."""
        fname, label, idx = self.session.locate(seed.point)
        fn = self.func(fname)
        sid = self.seed_id_for(seed)
        # a source seed is tainted only once its own statement has run
        phase = "post" if seed.tainted and seed.trigger == seed.point else "pre"
        expr = S.canonicalize(S.retag(seed.expr, idx))
        t = Tracked(expr=expr, point=seed.point, phase=phase, seed_id=sid,
                    tainted=seed.tainted, trigger=seed.trigger)
        if seed.direction in ("forward", "both"):
            if phase == "post" and fn.cfg.blocks[label].is_call:
                # it holds below its call, as a returned fact does: the
                # call's result register must not kill it
                st = self._state(fname, label)
                if st.f.put(t):
                    self._propagate(fname, fn.cfg, label, st)
            else:
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
        k = t._key
        if k in reg:
            return False
        reg[k] = t
        self._members.setdefault(t.seed_id, {}).setdefault(fname, []).append(t)
        return True

    def _state(self, fname: str, label: str) -> _BlockSt:
        """The block's state, built when a fact first enters the block."""
        states = self.states[fname]
        st = states.get(label)
        if st is None:
            st = states[label] = _BlockSt()
        return st

    def _inject(self, fname: str, label: str, t: Tracked, idx: int, direction: str):
        k = t._key
        if k in self.retired.get(fname, ()):
            return False
        st = self.states[fname].get(label) or self._state(fname, label)
        side = st.f if direction == "f" else st.b
        seen = side.seen.get(k)
        if seen is not None and (seen <= idx if direction == "f" else seen >= idx):
            return False
        if k not in side.pool:
            side.pool[k] = t
        side.pend.append((t, idx))
        return True

    # -- per-block visits ---------------------------------------------------

    def _visit(self, fname: str, fn: _Func, label: str, st: _BlockSt) -> bool:
        """Walk the block's pending facts; the caller checks there are some."""
        self.blocks_visited.add((fname, label))
        block = fn.cfg.blocks[label]
        if block.is_call:
            return self._visit_callsite(fname, fn, label, st, block)
        return self._trace_block(fname, fn, label, st)

    def _trace_block(self, fname, fn, label, st) -> bool:
        """Alg.-1 shape: alternate forward and backward walks, feeding the
        rule-6 results of the forward pass into the backward input and the
        backward pass's forward-trackable output into the next forward
        input, until no new alias appears."""
        rules = fn.table(label)
        changed = False
        fwd, bwd = st.f.pend, st.b.pend
        st.f.pend, st.b.pend = [], []

        iters = 0
        while fwd or bwd:
            iters += 1
            if iters > BLOCK_ITER_CAP:
                self._cap_hit(f"block iteration cap hit at {fname}:{label}")
                break
            cut = False
            nxt = []        # the next round's forward input
            # the backward walk takes what the forward walk adds to `bwd`
            for forward, side, items in ((True, st.f, fwd), (False, st.b, bwd)):
                if not items:
                    continue
                survivors, created, walk_cut, saturated = _walk(
                    rules, items, self.policy, forward, side.seen)
                cut |= walk_cut
                self.saturated.update(saturated)
                for t in survivors:
                    changed |= side.put(t)
                for t, made, i in created:
                    changed |= self._record(fname, t)
                    if forward:
                        if made == "fb":
                            bwd.append((t, i - 1))
                    elif "f" in made:
                        nxt.append((t, i if t.phase == "pre" else i + 1))
            fwd, bwd = nxt, []
            if cut:
                self._cap_hit(f"walk pop cap hit at {fname}:{label}")
                break

        if changed:
            self._propagate(fname, fn.cfg, label, st)
        return changed

    def _propagate(self, fname, g, label, st):
        """Push each direction's `out` entries put there since the last
        push (`new`) to the block's neighbours in that direction.  An entry
        pushed before is in the neighbour's pool or refused there for good
        (retired, or walked from the block edge already).  Each entry is
        retagged once per push for all neighbours (`_handed`)."""
        states = self.states[fname]
        for direction, side in (("f", st.f), ("b", st.b)):
            facts = side.new
            if not facts:
                continue
            side.new = []
            forward = direction == "f"
            targets = g.succs.get(label, ()) if forward else g.preds.get(label, ())
            if not targets:
                continue
            birth = S.BIRTH_BEFORE_BLOCK if forward else S.BIRTH_AFTER_BLOCK
            facts = [_handed(t, birth) for t in facts]
            for n in targets:
                nst = states.get(n, _NO_STATE)
                pool = nst.f.pool if forward else nst.b.pool
                idx = 0 if forward else len(g.blocks[n].stmts) - 1
                for t in facts:
                    if t._key not in pool:
                        self._inject(fname, n, t, idx, direction)

    # -- callsite transfer ---------------------------------------------------

    def _visit_callsite(self, fname, fn, label, st, block) -> bool:
        stmt = block.call
        form = stmt.form
        point = stmt.point
        changed = False

        pending = []        # (forward?, fact), the forward facts first
        for forward, side, start in ((True, st.f, 0), (False, st.b, -1)):
            for t, _ in side.pend:
                pending.append((forward, t))
                side.seen.setdefault(t._key, start)
            side.pend = []

        ret_reg = form.ret
        sat = self.saturated
        crossings = self._crossings(point, form)

        for forward, t in pending:
            if t.trigger == point and t.tainted != forward:
                # taint holds below the trigger only, so the flipped
                # instance is anchored here, not at its creation point
                t = t.derive(t.expr, point, "post" if forward else "pre",
                             tainted=forward)
                self._record(fname, t)
            addrs = S.mem_summary(t.expr)[0]
            gens: list[Optional[Tracked]] = []
            if forward:
                passes = ret_reg is None or not S.kills_register(t.expr, ret_reg)
                for callee, tr in crossings:
                    for entry in tr.mod:
                        if (entry.cell.addr._sid in addrs
                                and S.kills_memory(t.expr, entry.cell.addr, 1 << 29)):
                            passes = False
                        if t.expr == entry.value and not _holds_store(entry.value):
                            gens.append(_bounded(t, entry.cell, point, "post", sat))
                    if ret_reg is not None:
                        gens.extend(_bounded(t, S.Reg(ret_reg), point, "post", sat)
                                    for rr in tr.rets
                                    if rr == t.expr and not _holds_store(rr))
                    self._descend(t, point, callee, tr)
                if self.policy is not None:
                    gens.extend(self.policy.callsite_forward(self, point, form, t))
            else:
                passes = ret_reg is None or not S.contains_reg(t.expr, ret_reg)
                if not passes:
                    for _, tr in crossings:
                        gens.extend(_bounded(t, S.replace(t.expr, S.Reg(ret_reg), rr),
                                             point, "pre", sat) for rr in tr.rets)
                    if not crossings and not self._is_library_noop(form):
                        self.warn(
                            f"no summary for {getattr(form, 'target', '?')} at "
                            f"{point}; backward tracking stopped")
                for _, tr in crossings:
                    for entry in tr.mod:
                        addr = entry.cell.addr
                        if entry.value is None or addr._sid not in addrs:
                            continue

                        def created_after(n):
                            return (isinstance(n, S.Load) and n.addr == addr
                                    and not n.stale)

                        # not memoized: a fact meets a MOD entry about once
                        new, hit = S.replace_mem(t.expr, created_after, entry.value)
                        if hit:
                            gens.append(_bounded(t, new, point, "pre", sat))
            if passes:
                changed |= (st.f if forward else st.b).put(t)
            for n in gens:
                if n is not None:
                    changed |= self._record(fname, n)
                    # rule-6-like products also look backward for the address defs
                    if forward:
                        changed |= st.f.put(n)
                    changed |= st.b.put(n)

        if changed:
            self._propagate(fname, fn.cfg, label, st)
        return changed

    def _crossings(self, point: ir.Point, form) -> list[tuple[str, Transfer]]:
        """Each callee's summary in caller terms at the callsite `point`,
        read by both directions, as (callee, Transfer) pairs, built on the
        analysis's first visit of the callsite and kept.  No summary the
        analysis has read changes under it: only `summary` writes one, it
        finishes a whole call-graph cycle before it returns, and each
        cycle round runs in new sub-analyses."""
        crossings = self._crossed.get(point)
        if crossings is None:
            crossings = self._crossed[point] = [
                (callee, self._transfer(point, callee))
                for callee in self._callees_of(point, form)
                if callee in self.program.functions]
        return crossings

    def _transfer(self, point: ir.Point, callee: str) -> Transfer:
        """`transfer_function` of the callee's summary at the callsite
        `point` (kept with the callsite's other crossings, `_crossings`)."""
        return transfer_function(self.summary(callee),
                                 self.session.binding(point, callee))

    def _callees_of(self, point: ir.Point, form) -> list[str]:
        if isinstance(form, ir.Call):
            return [form.target]
        targets = self.session.resolutions.get(point)
        if targets:
            return list(targets)
        self.warn(f"unresolved indirect call at {point}; treated as no-op")
        return []

    def _is_library_noop(self, form) -> bool:
        return (self.policy is not None and isinstance(form, ir.Call)
                and self.policy.knows_library(form.target))

    def _descend(self, t: Tracked, site: ir.Point, callee: str, tr: Transfer):
        """Forward taint descent: a tainted value passed as an argument, or
        living in a cell the callee reads, at callsite `site` seeds the
        callee's analysis.  The cells are the callee's REF (`_ref`), each
        re-rooted under the transfer's argument map at every descent; a
        cell mentioning a formal with no actual is dropped.  A fact lives
        in such a cell when it is the cell's load, or a store to its
        address that no may-alias store has made stale since: the store
        rule 7 would read at a load of that address."""
        if not t.tainted or self.policy is None:
            return
        entry_fn = self.program.functions[callee]
        entry_point = ir.Point(callee, entry_fn.entry_block, 0)
        for param, actual in tr.args.items():
            if t.expr == actual:
                self._inject_nested_seed(t, site, entry_point, S.Reg(param))
        e = t.expr
        stored = isinstance(e, S.Store) and not e.stale_fwd
        for cell in self._ref(callee):
            actual = reroot(cell, tr.args)
            if actual is not None and (
                    e == actual or (stored and e.addr == actual.addr)):
                self._inject_nested_seed(t, site, entry_point, cell)

    def _inject_nested_seed(self, parent: Tracked, site: ir.Point,
                            entry_point: ir.Point, expr: S.Sse):
        """Seed the callee at `entry_point` with the tainted `expr` for the
        callsite `site`.  One descent seed serves every callsite that
        passes the same entry fact under the same trigger: the first of
        them injects it (as the seed's `parent`), and each is recorded
        for `_export`.  A later callsite schedules the callee again, so
        that its export runs for that callsite even when the callee was
        walked and exported before.  No depth bound: the seeds are
        finite, so tabulation ends."""
        # keep the trigger: the callee cannot contain it, but results
        # exported back to callers must still be gated by it
        seed = Seed(point=entry_point, expr=expr, direction="forward",
                    tainted=True, trigger=parent.trigger, label="io")
        fname, label, _ = self.session.locate(entry_point)
        self.func(fname)
        sid = self.seed_id_for(seed)
        sites = self._descents.setdefault((fname, sid), set())
        if site in sites:
            return
        if not sites:
            t = Tracked(expr=S.canonicalize(S.retag(expr, S.BIRTH_BEFORE_BLOCK)),
                        point=entry_point, phase="pre", seed_id=sid, parent=parent,
                        tainted=True, trigger=parent.trigger)
            self._inject(fname, label, t, 0, "f")
            self._record(fname, t)
        sites.add(site)
        self._schedule(fname)

    # -- summaries -----------------------------------------------------------

    def summary(self, fname: str) -> FunctionSummary:
        summ = self.summaries.get(fname)
        if summ is None:
            # a cycle as one unit: every member from the bottom summary,
            # then all of them twice in program order
            cycle = self.session.cycle(fname)
            for member in cycle:
                self.summaries[member] = FunctionSummary(member)
            cut = False
            for i, member in enumerate(cycle * 2 or (fname,)):
                summ = self._compute_summary(member)
                cut |= i >= len(cycle) > 0 and summ != self.summaries[member]
                self.summaries[member] = summ
            summ = self.summaries[fname]
            if cut:
                summ = self.summaries[fname] = replace(summ, cap_hits=(
                    *summ.cap_hits, f"cycle round cap hit: summaries of "
                    f"{', '.join(cycle)} still changing after two rounds"))
        self.warn(*summ.warnings)
        self._cap_hit(*summ.cap_hits)
        return summ

    def _compute_summary(self, fname: str) -> FunctionSummary:
        fn = self.session.func(fname)
        seeds: list[tuple[str, ir.Statement, Seed]] = []
        for block in fn.cfg.blocks.values():
            for stmt in block.stmts:
                form = stmt.form
                if isinstance(form, ir.Store):
                    seeds.append(("mod-addr", stmt, Seed(
                        stmt.point, addr_sse(form.addr, form.disp),
                        direction="backward", label=f"mod-addr:{stmt.point}")))
                    if isinstance(form.src, str):
                        seeds.append(("mod-val", stmt, Seed(
                            stmt.point, S.Reg(form.src), direction="backward",
                            label=f"mod-val:{stmt.point}")))
                elif isinstance(form, ir.Ret) and isinstance(form.value, str):
                    seeds.append(("ret", stmt, Seed(
                        stmt.point, S.Reg(form.value), direction="backward",
                        label=f"ret:{stmt.point}")))
        if not seeds:
            # what a sub-analysis with no seed gives: the CFG's warnings
            # once each, no cap hit
            return FunctionSummary(fname, warnings=tuple(dict.fromkeys(fn.cfg.warnings)))
        sub, sids = self._sub_analysis(fname, [seed for _, _, seed in seeds])
        rooted = {(kind, stmt.point): sub._rooted(fname, sid)
                  for (kind, stmt, _), sid in zip(seeds, sids)}

        mod: list[ModEntry] = []
        rets: list[S.Sse] = []
        for kind, stmt, _ in seeds:
            if kind == "mod-addr":
                src = stmt.form.src
                vals = rooted.get(("mod-val", stmt.point),
                                  [S.Val(src)] if isinstance(src, int) else [])
                mod.extend(ModEntry(S.Store(m), vals[0] if vals else None)
                           for m in rooted[(kind, stmt.point)])
            elif kind == "ret":
                rets.extend(rooted[(kind, stmt.point)])
        return FunctionSummary(func=fname, mod=tuple(dict.fromkeys(mod)),
                               ret_exprs=tuple(dict.fromkeys(rets)),
                               warnings=tuple(sub.warnings),
                               cap_hits=tuple(sub.cap_hits))

    def _ref(self, fname: str) -> tuple[S.Load, ...]:
        """`fname`'s REF, the cells it reads, as loads in its entry terms:
        built on this analysis's first ask, by a sub-analysis seeded at
        the address of each of its loads, once its summary is final, and
        kept in `_refs`.  The sub-analysis's warnings and cap hits are
        taken then, once.  A function with no loads reads no cell and
        needs no sub-analysis."""
        cells = self._refs.get(fname)
        if cells is None:
            self.summary(fname)
            loads = [stmt for block in self.session.func(fname).cfg.blocks.values()
                     for stmt in block.stmts if isinstance(stmt.form, ir.Load)]
            cells = ()
            if loads:
                sub, sids = self._sub_analysis(fname, [
                    Seed(stmt.point, addr_sse(stmt.form.addr, stmt.form.disp),
                         direction="backward", label=f"ref:{stmt.point}")
                    for stmt in loads])
                cells = tuple(dict.fromkeys(S.Load(m) for sid in sids
                                            for m in sub._rooted(fname, sid)))
                self.warn(*sub.warnings)
                self._cap_hit(*sub.cap_hits)
            self._refs[fname] = cells
        return cells

    def _sub_analysis(self, fname: str, seeds: list[Seed]):
        """A policy-free run of `fname` alone from `seeds`, for its summary
        or REF, and the seeds' ids."""
        sub = Analysis(self.session, confine=(fname,))
        sids = [sub.add_seed(seed) for seed in seeds]
        sub.run()
        return sub, sids

    def _rooted(self, fname: str, sid: int) -> list[S.Sse]:
        """The trusted members of seed `sid` in `fname` that mention only
        its parameters and the globals register, as at its entry: the
        seed's expressions in the terms a summary speaks."""
        allowed = set(self.session.func(fname).params) | {GP}
        return [S.retag(t.expr, S.BIRTH_BEFORE_BLOCK) for t in self.family(sid, fname)
                if S.registers(t.expr) <= allowed and t.trusted()]

    # -- the Alg.-3 driver ----------------------------------------------------

    def analyze_function(self, fname: str):
        fn = self.func(fname)
        self.visited_functions.add(fname)
        self._stabilize(fname, fn, fn.sweep, (), {})
        self._export(fname, fn)

    def _stabilize(self, fname: str, fn: _Func, sweep, points, rounds) -> bool:
        """Visit each part of `sweep` in turn, a block with pending facts
        or a loop component stabilized in rounds of its own, then merge at
        `points`, until a round changes nothing; True when one did.  A
        sweep's rounds that change something in one `analyze_function`
        (`rounds`) end at `FUNC_ROUNDS_CAP`, in a cap hit."""
        states = self.states[fname]
        grew = False
        while rounds.get(id(sweep), 0) < FUNC_ROUNDS_CAP:
            changed = False
            for part in sweep:
                if part.__class__ is str:
                    st = states.get(part, _NO_STATE)
                    if st.f.pend or st.b.pend:
                        changed |= self._visit(fname, fn, part, st)
                else:
                    changed |= self._stabilize(fname, fn, *part, rounds)
            if not changed:
                return grew
            grew = True
            rounds[id(sweep)] = rounds.get(id(sweep), 0) + 1
            if points:
                self._merge_induction(fname, points)
        self._cap_hit(f"function fixpoint cap hit in {fname}")
        return grew

    def run(self):
        """Analyze every scheduled function, then record a cap hit for
        each point where an expression saturated, once per analysis."""
        while self._queue:
            fname = self._queue.popleft()
            self._queued.discard(fname)
            self.analyze_function(fname)
        for point in self.saturated:
            self._cap_hit(f"sse cap hit at {point}: saturated expression dropped")

    def _merge_induction(self, fname: str, points) -> None:
        """Merge the offset families of each pool group (seed, taint,
        conditions) at the function's merge points into induction terms,
        partitioning each group whole (`S.induction_families`).  Registers
        and constants take no part.  Every merge is decided first, then
        the members retired, and the merged facts injected in the order
        (merge point, group by its earliest member, family): retiring as
        we go would starve the other direction's pool of its family
        members."""
        plans = []
        retire_keys = []
        states = self.states[fname]
        for label, direction in points:
            st = states.get(label, _NO_STATE)
            pool = (st.f if direction == "f" else st.b).pool
            groups: dict = {}
            for k, t in pool.items():
                # a fact's group is its key but the structure id; a
                # register or constant (size 1) takes no part
                if t.expr._size > 1:
                    groups.setdefault(k[1:], []).append((k, t.expr))
            for gk, members in groups.items():
                if len(members) < 3:
                    continue
                for merged, keys in S.induction_families(members, f"{fname}:s{gk[0]}"):
                    plans.append((label, direction, pool[keys[0]], merged))
                    retire_keys.extend(keys)
        if not plans:
            return
        self._retire(fname, retire_keys)
        for label, direction, base, merged in plans:
            t = base.derive(merged, base.point, base.phase)
            idx = 0 if direction == "f" else \
                len(self.session.func(fname).cfg.blocks[label].stmts) - 1
            if self._inject(fname, label, t, idx, direction):
                self._record(fname, t)

    def _retire(self, fname: str, keys) -> None:
        """Stop tracking merged family members everywhere in the function
        (they stay in the registry for reporting, but no longer flow).
        Every block is swept with one key-set intersection per pool and
        `out` set: a retired key sits in a score of sides on the seed-1
        `loop_copy` ladder, and an index of where each key sits cost more
        to keep up at every insertion than the sweep costs."""
        keys = set(keys)
        retired = self.retired.setdefault(fname, set())
        retired.update(keys)
        for st in self.states[fname].values():
            for side in (st.f, st.b):
                pool = side.pool
                for k in pool.keys() & keys:
                    del pool[k]
                out = side.out
                for k in out.keys() & keys:
                    del out[k]
                if side.pend:
                    side.pend = [(t, i) for t, i in side.pend
                                 if t._key not in retired]

    # -- cross-function exports ------------------------------------------------

    def _export(self, fname: str, fn: _Func):
        """Send a walked function's results to its callers: its entry-block
        backward results rooted at parameters or the globals register to
        each callsite, and its exit-block forward results to each return
        site, re-rooted under the callsite's argument binding.
        `_for_callsite` picks the facts each callsite gets: a descent's
        facts go back only to the callsites that reached it."""
        callers = self.session.call_graph.callers(fname)
        if self.confine is not None:
            callers = [c for c in callers if c[0] in self.confine]
        if not callers:
            return
        g = fn.cfg
        states = self.states[fname]
        allowed = set(fn.params) | {GP}
        exports_up = [t for t in states.get(g.entry, _NO_STATE).b.out.values()
                      if S.registers(t.expr) <= allowed and not t.derived]
        returned = []       # (returned register, the exit block's forward out)
        for ex in g.exits:
            stmts = g.blocks[ex].stmts
            if stmts:
                last = stmts[-1].form
                if isinstance(last, ir.Ret) and isinstance(last.value, str):
                    returned.append((last.value, list(
                        states.get(ex, _NO_STATE).f.out.values())))
        if not exports_up and not returned:
            return
        cycle = self.session.cycle(fname)
        for caller, cpoint in callers:
            cfn = self.func(caller)
            clabel = self.session.locate(cpoint)[1]
            cform = cfn.cfg.blocks[clabel].call.form
            binding = self.session.binding(cpoint, fname)
            in_cycle = caller in cycle
            sends = [(exports_up, binding, S.BIRTH_AFTER_BLOCK, "pre")]
            if cform.ret is not None:
                sends += [(facts, {**binding, retop: S.Reg(cform.ret)},
                           S.BIRTH_BEFORE_BLOCK, "post") for retop, facts in returned]
            moves = []
            for facts, mapping, birth, phase in sends:
                for t in self._for_callsite(fname, cpoint, in_cycle, facts):
                    rr = reroot(t.expr, mapping)
                    if rr is not None:
                        moves.append(t.derive(S.retag(rr, birth), cpoint, phase,
                                              hops=t.hops + 1 if in_cycle else 0))
            if (self._jobs.get(caller, 0) >= FUNC_JOB_CAP
                    and caller not in self._queued):
                # a hit only when the cap keeps out a fact the callsite lacks:
                # a returned fact not in its forward `out`, any other fact
                # neither in its backward pool nor retired
                st = self.states[caller].get(clabel, _NO_STATE)
                retired = self.retired.get(caller, ())
                if any(m._key not in st.f.out if m.phase == "post"
                       else m._key not in st.b.pool and m._key not in retired
                       for m in moves):
                    self._cap_hit(f"job cap reached; exports of {fname} to {caller} dropped")
                continue
            grew = pushed = False
            for moved in moves:
                # a returned fact holds below the call: it does not cross it
                if (self._state(caller, clabel).f.put(moved) if moved.phase == "post"
                        else self._inject(caller, clabel, moved, -1, "b")):
                    self._record(caller, moved)
                    grew = True
                    pushed |= moved.phase == "post"
            if pushed:
                self._propagate(caller, cfn.cfg, clabel, self.states[caller][clabel])
            if grew:
                self._schedule(caller)

    def _for_callsite(self, fname: str, cpoint: ir.Point, in_cycle: bool, facts):
        """The exported facts of `fname` that go to the callsite `cpoint`.
        A fact of a descent seed into `fname` goes only to the callsites
        recorded for that seed (`_descents`), every other fact to every
        caller.  `hops` counts a fact's exports into a caller in the
        exporting function's own call-graph cycle (an export out of it
        resets the count), and past `RECURSION_DEPTH` the fact is dropped
        with a cap hit."""
        out = []
        dropped = False
        for t in facts:
            sites = self._descents.get((fname, t.seed_id))
            if sites is not None and cpoint not in sites:
                continue
            if in_cycle and t.hops >= RECURSION_DEPTH:
                dropped = True
                continue
            out.append(t)
        if dropped:
            self._cap_hit(f"recursion depth cap hit: exports of {fname} to {cpoint} dropped")
        return out

    # -- results ----------------------------------------------------------------

    def family(self, sid: int, fname: str | None = None) -> list[Tracked]:
        """The registry entries of seed `sid`, in `fname` or in every
        function in registry order, each in the order it was recorded."""
        members = self._members.get(sid, {})
        if fname:
            return list(members.get(fname, ()))
        return [t for f in self.registry for t in members.get(f, ())]

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
