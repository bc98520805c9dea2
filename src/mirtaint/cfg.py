"""Control-flow graphs, worklist orders, the partial call graph, and
address-taken function discovery.

Every call/icall statement gets a basic block of its own so the
interprocedural transfer can be applied at exactly one point; program
points are untouched by the splitting (they keep the source block label
and index).  Pure functions over an immutable Program.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

from . import ir

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CfgBlock:
    label: str
    stmts: tuple[ir.Statement, ...]
    is_call: bool = False
    synthetic: bool = False

    @property
    def call(self) -> ir.Statement | None:
        return self.stmts[0] if self.is_call else None


@dataclass
class Cfg:
    func: str
    blocks: dict[str, CfgBlock]
    order: tuple[str, ...]               # layout order, entry first
    entry: str
    exits: tuple[str, ...]
    succs: dict[str, tuple[str, ...]]
    preds: dict[str, tuple[str, ...]]
    unreachable: frozenset[str] = frozenset()
    warnings: tuple[str, ...] = ()


def build_cfg(function: ir.Function) -> Cfg:
    """Split blocks so each call is isolated, wire the edges, flag
    unreachable blocks (kept for stable reporting, skipped by worklists)."""
    warnings: list[str] = []
    # (label, stmts, is_call, continues_in_source_block)
    segments: list[tuple[str, list[ir.Statement], bool, bool]] = []
    first_segment: dict[str, str] = {}
    next_source: dict[str, str | None] = {}
    for i, block in enumerate(function.blocks):
        next_source[block.label] = (function.blocks[i + 1].label
                                    if i + 1 < len(function.blocks) else None)

    for block in function.blocks:
        runs: list[tuple[list[ir.Statement], bool]] = []
        cur: list[ir.Statement] = []
        for stmt in block.stmts:
            if isinstance(stmt.form, (ir.Call, ir.ICall)):
                if cur:
                    runs.append((cur, False))
                    cur = []
                runs.append(([stmt], True))
            else:
                cur.append(stmt)
        if cur or not runs:
            runs.append((cur, False))
        for i, (stmts, is_call) in enumerate(runs):
            label = (block.label if i == 0
                     else f"{block.label}@{stmts[0].point.index if stmts else i}")
            if i == 0:
                first_segment[block.label] = label
            segments.append((label, stmts, is_call, i + 1 < len(runs)))

    blocks = {label: CfgBlock(label, tuple(stmts), is_call)
              for label, stmts, is_call, _ in segments}
    order = [label for label, _, _, _ in segments]
    succs: dict[str, list[str]] = {label: [] for label in order}

    layout_next: dict[str, str | None] = {}
    for i, label in enumerate(order):
        layout_next[label] = order[i + 1] if i + 1 < len(order) else None

    exits: list[str] = []
    for label, stmts, is_call, continues in segments:
        last = stmts[-1].form if stmts else None
        source = stmts[0].point.block if stmts else label
        if continues:
            succs[label] = [layout_next[label]]
        elif isinstance(last, ir.Branch):
            succs[label] = [first_segment[last.then_block],
                            first_segment[last.else_block]]
        elif isinstance(last, ir.Jump):
            succs[label] = [first_segment[last.block]]
        elif isinstance(last, ir.Ret):
            exits.append(label)
        elif isinstance(last, (ir.Call, ir.ICall)):
            nxt = next_source.get(source)
            if nxt is None:
                warnings.append(f"{function.name}:{label}: falls off function end")
            else:
                succs[label] = [first_segment[nxt]]
        else:
            warnings.append(f"{function.name}:{label}: malformed terminator")

    entry = order[0]
    preds: dict[str, list[str]] = {label: [] for label in order}
    for label, ss in succs.items():
        for s in ss:
            preds[s].append(label)

    if preds[entry]:
        synth = "__entry"
        blocks[synth] = CfgBlock(synth, (), synthetic=True)
        order.insert(0, synth)
        succs[synth] = [entry]
        preds[synth] = []
        preds[entry].append(synth)
        entry = synth

    reachable = set()
    stack = [entry]
    while stack:
        b = stack.pop()
        if b in reachable:
            continue
        reachable.add(b)
        stack.extend(succs[b])
    unreachable = frozenset(set(order) - reachable)
    for b in sorted(unreachable):
        warnings.append(f"{function.name}:{b}: unreachable block")

    return Cfg(
        func=function.name,
        blocks=blocks,
        order=tuple(order),
        entry=entry,
        exits=tuple(e for e in exits if e in reachable) or tuple(exits),
        succs={k: tuple(v) for k, v in succs.items()},
        preds={k: tuple(v) for k, v in preds.items()},
        unreachable=unreachable,
        warnings=tuple(warnings),
    )


def postorder(cfg: Cfg) -> list[str]:
    """Blocks in DFS postorder from the entry; back edges are ignored, so
    a block appears after all its non-loop successors.  Unreachable
    blocks are excluded.  The DFS keeps an explicit stack, so a long
    chain of blocks cannot exhaust the interpreter's recursion limit."""
    out: list[str] = []
    visited = {cfg.entry}
    stack = [(cfg.entry, iter(cfg.succs.get(cfg.entry, ())))]
    while stack:
        label, succs = stack[-1]
        for s in succs:
            if s not in visited:
                visited.add(s)
                stack.append((s, iter(cfg.succs.get(s, ()))))
                break
        else:
            stack.pop()
            out.append(label)
    return out


def reverse_postorder(cfg: Cfg) -> list[str]:
    return list(reversed(postorder(cfg)))


def dominators(cfg: Cfg) -> dict[str, frozenset[str]]:
    """Classic iterative dominator sets (small graphs, no need for
    anything cleverer)."""
    rpo = reverse_postorder(cfg)
    allb = frozenset(rpo)
    dom = {b: allb for b in rpo}
    dom[cfg.entry] = frozenset({cfg.entry})
    changed = True
    while changed:
        changed = False
        for b in rpo:
            if b == cfg.entry:
                continue
            preds = [p for p in cfg.preds[b] if p in allb]
            new = allb
            for p in preds:
                new = new & dom[p]
            new = new | {b}
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def back_edges(cfg: Cfg, dom: dict[str, frozenset[str]] | None = None
               ) -> set[tuple[str, str]]:
    dom = dominators(cfg) if dom is None else dom
    return {(u, v) for u in cfg.order for v in cfg.succs.get(u, ())
            if v in dom.get(u, frozenset())}


def loop_blocks(cfg: Cfg, dom: dict[str, frozenset[str]] | None = None
                ) -> frozenset[str]:
    """Blocks inside some natural loop (body of any back edge); ``dom``
    is the graph's dominator map, computed here when not given."""
    out: set[str] = set()
    for u, v in back_edges(cfg, dom):
        body = {v, u}
        stack = [u]
        while stack:
            b = stack.pop()
            for p in cfg.preds.get(b, ()):
                if p not in body:
                    body.add(p)
                    stack.append(p)
        out |= body
    return frozenset(out)


# ---------------------------------------------------------------------------
# Address-taken functions and the partial call graph
# ---------------------------------------------------------------------------

def find_address_taken(program: ir.Program) -> frozenset[int]:
    """Entry addresses referenced as data words or in-code immediates.
    Monotone in the data section: adding words can only grow the set."""
    entries = {f.entry_address for f in program.functions.values()}
    taken: set[int] = set()
    for words in program.data_section.values():
        for w in words:
            if w in entries:
                taken.add(w)
    for fn in program.functions.values():
        for stmt in fn.statements():
            for imm in ir.immediates(stmt.form):
                if imm in entries:
                    taken.add(imm)
    return frozenset(taken)


@dataclass
class CallGraph:
    nodes: frozenset[str]
    edges: tuple[tuple[str, str, ir.Point], ...]   # caller, callee, callsite
    unresolved_icalls: tuple[ir.Point, ...]

    @cached_property
    def _adjacency(self):
        """(callees, callers): per function, its outgoing and incoming
        edges in edge order, as (other function, callsite) pairs."""
        out: dict[str, list] = {}
        into: dict[str, list] = {}
        for caller, callee, p in self.edges:
            out.setdefault(caller, []).append((callee, p))
            into.setdefault(callee, []).append((caller, p))
        return out, into

    def callees(self, func: str) -> list[tuple[str, ir.Point]]:
        return list(self._adjacency[0].get(func, ()))

    def callers(self, func: str) -> list[tuple[str, ir.Point]]:
        return list(self._adjacency[1].get(func, ()))


def build_call_graph(program: ir.Program) -> CallGraph:
    edges = []
    unresolved = []
    for fn in program.functions.values():
        for stmt in fn.statements():
            if isinstance(stmt.form, ir.Call):
                edges.append((fn.name, stmt.form.target, stmt.point))
            elif isinstance(stmt.form, ir.ICall):
                unresolved.append(stmt.point)
    return CallGraph(frozenset(program.functions), tuple(edges), tuple(unresolved))


# ---------------------------------------------------------------------------
# Debug output
# ---------------------------------------------------------------------------

def to_dot(cfg: Cfg) -> str:
    lines = [f'digraph "{cfg.func}" {{', "  node [shape=box, fontname=monospace];"]
    for label in cfg.order:
        block = cfg.blocks[label]
        body = "\\l".join(ir.pretty_stmt(s.form) for s in block.stmts)
        attrs = ""
        if block.is_call:
            attrs = ", style=filled, fillcolor=lightyellow"
        if label in cfg.unreachable:
            attrs += ", color=gray"
        lines.append(f'  "{label}" [label="{label}:\\l{body}\\l"{attrs}];')
    for label, ss in cfg.succs.items():
        for s in ss:
            lines.append(f'  "{label}" -> "{s}";')
    lines.append("}")
    return "\n".join(lines)
