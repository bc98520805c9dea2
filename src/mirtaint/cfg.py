"""Control-flow graphs, their depth-first walk, the call graph (direct
calls and resolved icalls), strongly connected components and the cycles
they form, and address-taken function discovery.

`build_cfg` walks each CFG depth-first once (`postorder`) and keeps the
walk: its postorder is the worklist order and the reachable blocks, and
its retreating edges cut every cycle, reducible or not, and give the
merge points; the strongly connected components (`components`) hold
the loops.  Dominators (`dominators`) read the walk, for taint guards.

Every call/icall statement gets a basic block of its own so the
interprocedural transfer can be applied at exactly one point; program
points are untouched by the splitting (they keep the source block label
and index).  Pure functions over an immutable Program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import ir


class CfgBlock:
    """A CFG block, a call's own block when `is_call`; not a dataclass."""
    __slots__ = ("label", "stmts", "is_call")

    def __init__(self, label: str, stmts: tuple[ir.Statement, ...], is_call=False):
        self.label, self.stmts, self.is_call = label, stmts, is_call

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
    postorder: tuple[str, ...] = ()      # the one DFS walk (`postorder`)
    retreating: tuple[tuple[str, str], ...] = ()
    unreachable: frozenset[str] = frozenset()
    warnings: tuple[str, ...] = ()


def build_cfg(function: ir.Function) -> Cfg:
    """Split blocks so each call is isolated, wire the edges, walk them
    once, flag the blocks the walk misses as unreachable (kept for
    stable reporting, skipped by worklists).
    A source block's first segment keeps its label, so branch and jump
    targets name their segments as they are."""
    warnings: list[str] = []
    blocks: dict[str, CfgBlock] = {}
    succs: dict[str, tuple[str, ...]] = {}
    exits: list[str] = []
    source = function.blocks
    for n, block in enumerate(source):
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
        labels = [block.label] + [f"{block.label}@{stmts[0].point.index}"
                                  for stmts, _ in runs[1:]]
        for label, (stmts, is_call), nxt in zip(labels, runs, labels[1:] + [None]):
            blocks[label] = CfgBlock(label, tuple(stmts), is_call)
            last = stmts[-1].form if stmts else None
            succs[label] = ()
            if nxt is not None:
                succs[label] = (nxt,)
            elif isinstance(last, ir.Branch):
                succs[label] = (last.then_block, last.else_block)
            elif isinstance(last, ir.Jump):
                succs[label] = (last.block,)
            elif isinstance(last, ir.Ret):
                exits.append(label)
            elif not is_call:
                warnings.append(f"{function.name}:{label}: malformed terminator")
            elif n + 1 < len(source):
                succs[label] = (source[n + 1].label,)
            else:
                warnings.append(f"{function.name}:{label}: falls off function end")

    order = list(blocks)
    entry = order[0]
    preds: dict[str, list[str]] = {label: [] for label in order}
    for label, ss in succs.items():
        for s in ss:
            preds[s].append(label)

    if preds[entry]:
        # no IR label holds "@", so no source block can take this one
        synth = "@entry"
        blocks[synth] = CfgBlock(synth, ())
        order.insert(0, synth)
        succs[synth] = (entry,)
        preds[synth] = []
        preds[entry].append(synth)
        entry = synth

    graph = Cfg(function.name, blocks, tuple(order), entry, tuple(exits), succs,
                {k: tuple(v) for k, v in preds.items()})
    graph.postorder, graph.retreating = map(tuple, postorder(graph))
    graph.unreachable = frozenset(order).difference(graph.postorder)
    warnings += [f"{function.name}:{b}: unreachable block"
                 for b in sorted(graph.unreachable)]
    graph.exits = tuple(e for e in exits if e not in graph.unreachable) or graph.exits
    graph.warnings = tuple(warnings)
    return graph


def postorder(cfg: Cfg) -> tuple[list[str], list[tuple[str, str]]]:
    """Reachable blocks in DFS postorder from the entry, each after its
    successors but the targets of retreating edges, and those retreating
    edges u->v (v still on the DFS stack) in the order the walk meets
    them.  Every cycle holds a retreating edge, so the graph is acyclic
    exactly when there is none; in a reducible graph they are the back
    edges (v dominates u).  The explicit stack keeps a long chain of
    blocks off the interpreter's recursion limit."""
    out: list[str] = []
    visited = {cfg.entry}
    on_stack = {cfg.entry}
    retreating: list[tuple[str, str]] = []
    stack = [(cfg.entry, iter(cfg.succs.get(cfg.entry, ())))]
    while stack:
        label, succs = stack[-1]
        for s in succs:
            if s not in visited:
                visited.add(s)
                on_stack.add(s)
                stack.append((s, iter(cfg.succs.get(s, ()))))
                break
            if s in on_stack:
                retreating.append((label, s))
        else:
            stack.pop()
            on_stack.discard(label)
            out.append(label)
    return out, retreating


def dominators(cfg: Cfg) -> dict[str, frozenset[str]]:
    """Classic iterative dominator sets (small graphs, no need for
    anything cleverer), over the CFG's walk in reverse postorder."""
    rpo = cfg.postorder[::-1]
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


# ---------------------------------------------------------------------------
# Address-taken functions and the call graph
# ---------------------------------------------------------------------------

def find_address_taken(program: ir.Program) -> frozenset[int]:
    """Entry addresses referenced as data words or in-code immediates.
    Monotone in the data section: adding words can only grow the set."""
    entries = {f.entry_address for f in program.functions.values()}
    # each form once: the parser shares one among statements of equal text
    forms = {id(stmt.form): stmt.form for fn in program.functions.values()
             for stmt in fn.statements()}
    return frozenset(
        {w for words in program.data_section.values() for w in words if w in entries}
        | {imm for form in forms.values() for imm in ir.immediates(form) if imm in entries})


@dataclass
class CallGraph:
    edges: tuple[tuple[str, str, ir.Point], ...]   # caller, callee, callsite

    @cached_property
    def _callers(self) -> dict[str, list[tuple[str, ir.Point]]]:
        into: dict[str, list] = {}
        for caller, callee, p in self.edges:
            into.setdefault(callee, []).append((caller, p))
        return into

    def callers(self, func: str) -> list[tuple[str, ir.Point]]:
        """(caller, callsite) of each edge into `func`, in edge order."""
        return list(self._callers.get(func, ()))


def build_call_graph(program: ir.Program, resolutions: dict | None = None) -> CallGraph:
    """Every direct call, then an edge from each icall in `resolutions`
    (callsite -> targets) to each of its targets, in map order.  Without
    a resolution map an icall has no edge."""
    edges = [(fn.name, stmt.form.target, stmt.point)
             for fn in program.functions.values() for stmt in fn.statements()
             if isinstance(stmt.form, ir.Call)]
    edges += [(point.func, target, point)
              for point, targets in (resolutions or {}).items() for target in targets]
    return CallGraph(tuple(edges))


def components(nodes, succs: dict) -> dict:
    """Tarjan's strongly connected components (iteratively): each node
    reachable from `nodes` over `succs` mapped to the root of its
    component, so two nodes share a root exactly when each reaches the
    other."""
    index: dict = {}
    low: dict = {}
    root: dict = {}
    stack: list = []
    for start in nodes:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        work = [(start, iter(succs.get(start, ())))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succs.get(w, ()))))
                    break
                if w not in root:              # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        root[w] = v
                        if w == v:
                            break
    return root


def cycles(nodes, succs: dict) -> dict:
    """Each of `nodes` that lies on a cycle over `succs`, mapped to the
    members of its strongly connected component (`components`) in
    `nodes` order: a component of two or more members, or of one with
    an edge to itself."""
    root = components(nodes, succs)
    members: dict = {}
    for n in nodes:
        members.setdefault(root[n], []).append(n)
    return {n: tuple(members[root[n]]) for n in nodes
            if len(members[root[n]]) > 1 or n in succs.get(n, ())}


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
