"""Each function's static facts are built once, into one record per
function (`alias.Session.func`), and equal what the general algorithms
give.

Every loop fact comes from one postorder DFS: the merge points are the
ends of its retreating edges.  One Tarjan walk (`cfg.components`) gives
the strongly connected components, in the topological order the fixpoint
sweeps them (`_Func.sweep`), and the loop blocks are the members of its
cycles.  In a reducible CFG the retreating edges of any
DFS are the dominator back edges, so there the facts are checked against
the back edges and their natural loops, kept here as the reference, on
every function of every corpus file and of the seed-1 ladders.  An
irreducible cycle, which has no back edge, is still cut, and on small
generated CFGs the retreating edges cut every cycle, the loop blocks
are the blocks that reach themselves, and the sweep is a topological
order of the components, the reverse postorder when there is no cycle.
"""

import collections
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mirtaint import cfg as C
from mirtaint import ir, pipeline
from mirtaint.alias import Session

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def _programs():
    for path in sorted((ROOT / "corpus").glob("*.ir")):
        yield path.name, path.read_text()
    for workload in workloads.WORKLOADS:
        for program in workloads.generate(workload, 1):
            yield program.name, program.text


PROGRAMS = dict(_programs())
# the corpus file whose loop has two entries, checked on its own
IRREDUCIBLE_COPY = "irreducible_copy.ir"

# the cycle r <-> s has two entries, from k and from e: neither block
# dominates the other, so the retreating edge s -> r is no back edge.
IRREDUCIBLE = """
func f @0x1000 frame=0 {
e:
  branch r0, k, s
k:
  r7 = 0x0
  jump r
r:
  r8 = r7 + 0x1
  jump s
s:
  branch r8, r, x
x:
  ret
}
"""


def reference_loop_facts(graph: C.Cfg):
    """(merge points, loop blocks) from the dominator back edges u -> v (v
    dominates u) and their natural loops: the blocks that reach u without
    passing v, and v."""
    dom = C.dominators(graph)
    edges = {(u, v) for u in dom for v in graph.succs[u] if v in dom[u]}
    heads, latches = {v for _, v in edges}, {u for u, _ in edges}
    points = tuple((label, d) for label in sorted(heads | latches)
                   for d, at in (("f", heads), ("b", latches)) if label in at)
    loops = set()
    for u, v in edges:
        body, stack = {u, v}, [u] if u != v else []
        while stack:
            for p in graph.preds[stack.pop()]:
                if p in dom and p not in body:
                    body.add(p)
                    stack.append(p)
        loops |= body
    return points, frozenset(loops)


def reducible(graph: C.Cfg) -> bool:
    """Whether the target of every retreating edge dominates its source."""
    dom = C.dominators(graph)
    return all(v in dom[u] for u, v in C.postorder(graph)[1])


def check_record(session: Session, fname: str):
    fn = session.func(fname)
    assert reducible(fn.cfg), fname
    assert (fn.merge_points, fn.loops) == reference_loop_facts(fn.cfg), fname
    assert fn.order == tuple(C.postorder(fn.cfg)[0])
    check_sweep(fn)


@pytest.mark.parametrize("name", sorted(set(PROGRAMS) - {IRREDUCIBLE_COPY}))
def test_record_facts_equal_references(name):
    program = ir.parse_program(PROGRAMS[name])
    session = Session(program)
    for fname in program.functions:
        check_record(session, fname)


# a call inside a block, a call that ends one, a call-only block, a
# branch back to the entry (so a synthetic `@entry`), and unreachable
# blocks: one plain, one empty, one whose icall falls off the function
SPLITS = """
func f @0x1000 frame=0 {
bb0:
  r1 = r0
  r2 = call g(r1)
  r3 = r2 + r4
  r5 = call g(r3)
bb1:
  r6 = call g(r5)
bb2:
  branch r7, bb3, bb0
bb3:
  ret r6
dead:
  r8 = r9
  jump bb3
empty:
tail:
  r2 = icall r8(r1)
}
"""


def reference_build_cfg(function: ir.Function) -> C.Cfg:
    """The CFG by the two-pass splitter `cfg.build_cfg` replaced: each
    source block cut into runs first, then each run made a block and
    wired, and the unreachable blocks taken from every walk."""
    warnings, blocks, succs, exits = [], {}, {}, []
    source = function.blocks
    for n, block in enumerate(source):
        runs, cur = [], []
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
            blocks[label] = C.CfgBlock(label, tuple(stmts), is_call)
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
    preds = {label: [] for label in order}
    for label, ss in succs.items():
        for s in ss:
            preds[s].append(label)
    if preds[entry]:
        blocks["@entry"] = C.CfgBlock("@entry", ())
        order.insert(0, "@entry")
        succs["@entry"], preds["@entry"] = (entry,), []
        preds[entry].append("@entry")
        entry = "@entry"
    graph = C.Cfg(function.name, blocks, tuple(order), entry, tuple(exits), succs,
                  {k: tuple(v) for k, v in preds.items()})
    graph.postorder, graph.retreating = map(tuple, C.postorder(graph))
    graph.unreachable = frozenset(order).difference(graph.postorder)
    warnings += [f"{function.name}:{b}: unreachable block"
                 for b in sorted(graph.unreachable)]
    graph.exits = tuple(e for e in exits if e not in graph.unreachable) or graph.exits
    graph.warnings = tuple(warnings)
    return graph


def cfg_fields(g: C.Cfg) -> dict:
    """Every field of `g`, each dict as its items in order and each block
    as its fields."""
    return {"func": g.func, "order": g.order, "entry": g.entry, "exits": g.exits,
            "blocks": [(k, b.label, b.stmts, b.is_call) for k, b in g.blocks.items()],
            "succs": list(g.succs.items()), "preds": list(g.preds.items()),
            "postorder": g.postorder, "retreating": g.retreating,
            "unreachable": g.unreachable, "warnings": g.warnings}


def test_one_pass_cfg_equals_the_reference():
    """`build_cfg` gives every field, in every dict order, that the
    two-pass splitter gave, on every function of the corpus and the
    seed-1 ladders and on `SPLITS`."""
    functions = [fn for text in (*PROGRAMS.values(), SPLITS)
                 for fn in ir.parse_program(text).functions.values()]
    for fn in functions:
        g = C.build_cfg(fn)
        assert cfg_fields(g) == cfg_fields(reference_build_cfg(fn)), fn.name
    g = C.build_cfg(ir.parse_program(SPLITS).functions["f"])
    assert g.order == ("@entry", "bb0", "bb0@1", "bb0@2", "bb0@3", "bb1", "bb2",
                       "bb3", "dead", "empty", "tail")
    assert g.succs["bb0@3"] == ("bb1",) and g.blocks["bb1"].is_call
    assert g.unreachable == {"dead", "empty", "tail"}


def test_irreducible_cycle_is_cut_at_its_retreating_edge():
    fn = Session(ir.parse_program(IRREDUCIBLE)).func("f")
    assert C.postorder(fn.cfg)[1] == [("s", "r")]
    assert reference_loop_facts(fn.cfg) == ((), frozenset())
    assert fn.order == ("x", "s", "r", "k", "e")
    assert fn.merge_points == (("r", "f"), ("s", "b"))
    assert fn.loops == frozenset({"r", "s"})
    assert fn.written == {"r7", "r8"}


def test_irreducible_copy_loop_is_cut_at_its_retreating_edge():
    fn = Session(ir.parse_program(PROGRAMS[IRREDUCIBLE_COPY])).func("main")
    assert C.postorder(fn.cfg)[1] == [("b", "a")]
    assert reference_loop_facts(fn.cfg) == ((), frozenset())
    assert fn.merge_points == (("a", "f"), ("b", "b"))
    assert fn.loops == frozenset({"a", "b"})


@st.composite
def small_functions(draw):
    """A function of up to seven blocks, each ending in a `ret`, a `jump`
    or a `branch` to any block, some with a call first (a block of its
    own in the CFG)."""
    n = draw(st.integers(1, 7))
    target = st.integers(0, n - 1).map(lambda i: f"b{i}")
    lines = ["func f @0x1000 frame=0 {"]
    for i in range(n):
        lines.append(f"b{i}:")
        if draw(st.booleans()):
            lines.append("  r2 = call g(r1)")
        end = draw(st.sampled_from(("ret", "jump", "branch")))
        if end == "ret":
            lines.append("  ret r3")
        elif end == "jump":
            lines.append(f"  jump {draw(target)}")
        else:
            lines.append(f"  branch r{i}, {draw(target)}, {draw(target)}")
    return "\n".join(lines + ["}", ""])


def _reaches(succs, start) -> set:
    seen, stack = set(), list(succs[start])
    while stack:
        b = stack.pop()
        if b not in seen:
            seen.add(b)
            stack.extend(succs[b])
    return seen


@given(small_functions())
@settings(max_examples=300, deadline=None)
def test_dfs_loop_facts_on_small_cfgs(text):
    """The retreating edges cut every cycle, the loop blocks are the
    blocks that reach themselves, and where every retreating edge is a
    back edge the merge points are the reference's."""
    fn = Session(ir.parse_program(text)).func("f")
    g = fn.cfg
    order, retreating = C.postorder(g)
    cut = {b: [s for s in g.succs[b] if (b, s) not in retreating] for b in order}
    # in postorder each block comes after the blocks its kept edges reach
    assert all(order.index(s) < order.index(b) for b in order for s in cut[b])
    assert fn.loops == {b for b in order if b in _reaches(g.succs, b)}
    if reducible(g):
        assert fn.merge_points == reference_loop_facts(g)[0]
        assert fn.loops == reference_loop_facts(g)[1]
    check_sweep(fn)


def check_sweep(fn):
    """The record's sweep: its parts in topological order and then back,
    each reachable block in one part, a loop's blocks in reverse
    postorder and then back, with that loop's merge points."""
    g, rpo = fn.cfg, fn.order[::-1]
    half = fn.sweep[:len(fn.sweep) // 2]
    assert fn.sweep == (*half, *reversed(half))
    part = {}
    for i, p in enumerate(half):
        if isinstance(p, str):
            part[p] = i
            continue
        blocks, points = p
        members = blocks[:len(blocks) // 2]
        assert blocks == (*members, *reversed(members))
        assert list(members) == sorted(members, key=rpo.index)
        assert len(members) > 1 or members[0] in g.succs[members[0]]
        assert points == tuple(m for m in fn.merge_points if m[0] in members)
        part.update(dict.fromkeys(members, i))
    assert sorted(part) == sorted(rpo)
    assert all(part[u] <= part[v] for u in rpo for v in g.succs[u])
    assert fn.loops == {b for p in half if not isinstance(p, str) for b in p[0]}
    if not fn.loops:
        assert half == rpo


def test_each_record_takes_one_tarjan_walk(monkeypatch):
    """A cyclic CFG's loop blocks and its sweep come from one `components`
    walk, from the entry, and an acyclic one takes none."""
    walks = []
    components = C.components
    monkeypatch.setattr(C, "components",
                        lambda nodes, succs: walks.append(nodes) or components(nodes, succs))
    fn = Session(ir.parse_program(IRREDUCIBLE)).func("f")
    assert walks == [("e",)]
    assert fn.sweep[:4] == ("e", "k", (("r", "s", "s", "r"), (("r", "f"), ("s", "b"))), "x")
    program = ir.parse_program(
        "func f @0x1000 frame=0 {\na:\n  branch r1, b, c\nb:\n  jump c\nc:\n  ret r2\n}\n")
    assert Session(program).func("f").sweep == ("a", "b", "c", "c", "b", "a")
    assert walks == [("e",)]


def test_each_cfg_is_walked_once(monkeypatch):
    """`build_cfg` walks the CFG depth-first, and the record's loop facts
    and dominators all read that one walk."""
    walked = []
    postorder = C.postorder
    monkeypatch.setattr(C, "postorder", lambda g: walked.append(g.func) or postorder(g))
    fn = Session(ir.parse_program(IRREDUCIBLE)).func("f")
    assert walked == ["f"]
    assert fn.merge_points
    assert fn.dominators()["x"] == {"e", "s", "x"} and walked == ["f"]


def test_acyclic_record_builds_no_dominators(monkeypatch):
    built = []
    dominators = C.dominators
    monkeypatch.setattr(C, "dominators", lambda g: built.append(g.func) or dominators(g))
    program = ir.parse_program(
        "func f @0x1000 frame=0 {\na:\n  branch r1, b, c\nb:\n  jump c\nc:\n  ret r2\n}\n")
    fn = Session(program).func("f")
    assert (fn.merge_points, fn.loops) == ((), frozenset())
    assert built == []
    assert fn.dominators()["c"] == {"a", "c"} and built == ["f"]


def test_each_function_is_built_once(tmp_path, monkeypatch):
    """One `pipeline.analyze` of a `dispatch` program builds each
    function's CFG once, for the icall and the taint sessions alike, and
    its dominators only where it has a sink guarded by a branch: the
    cycle of `main` needs none."""
    built, dominated = collections.Counter(), collections.Counter()
    build_cfg, dominators = C.build_cfg, C.dominators

    def counted_build(function):
        built[function.name] += 1
        return build_cfg(function)

    def counted_dominators(graph):
        dominated[graph.func] += 1
        return dominators(graph)

    monkeypatch.setattr(C, "build_cfg", counted_build)
    monkeypatch.setattr(C, "dominators", counted_dominators)
    (gen,) = [p for p in workloads.generate("dispatch", 1) if p.size == 8]
    path = tmp_path / (gen.name + ".ir")
    path.write_text(gen.text, encoding="utf-8")
    report = pipeline.analyze(pipeline.RunConfig(ir_path=str(path)))
    assert report.alerts
    program = ir.parse_program(gen.text)
    assert built == dict.fromkeys(program.functions, 1)
    cyclic = {f for f, fn in program.functions.items()
              if C.postorder(build_cfg(fn))[1]}
    guarded = {site.split(":")[0] for site, label in gen.sinks.items()
               if label.kind == "strcpy-guarded"}
    assert cyclic == {"main"} and guarded and not cyclic & guarded
    assert dominated == dict.fromkeys(guarded, 1)
