"""Each function's static facts are built once, into one record per
function (`alias.Session.func`), and equal what the general algorithms
give.

Every loop fact comes from one postorder DFS: the merge points are the
ends of its retreating edges, and the loop blocks are the blocks on a
cycle (`cfg.cycles`).  In a reducible CFG the retreating edges of any
DFS are the dominator back edges, so there the facts are checked against
the back edges and their natural loops, kept here as the reference, on
every function of every corpus file and of the seed-1 ladders.  An
irreducible cycle, which has no back edge, is still cut, and on small
generated CFGs the retreating edges cut every cycle and the loop blocks
are the blocks that reach themselves.  The live-in registers come from
a pass in postorder, checked against a round-robin liveness fixpoint.
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
# dominates the other, so the retreating edge s -> r is no back edge.  r7
# is live at e only along e -> s -> r, against the postorder [x, s, r, k,
# e], so the liveness takes a second pass to see it.
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


def reference_live_in(graph: C.Cfg) -> tuple[str, ...]:
    """Live-in rN registers at the entry, by a round-robin fixpoint of
    block gen and kill sets over every block in layout order."""
    gen, kill = {}, {}
    for label in graph.order:
        g, k = set(), set()
        for stmt in graph.blocks[label].stmts:
            g.update(r for r in ir.used_registers(stmt.form) if r not in k)
            k.add(ir.defined_register(stmt.form))
        gen[label], kill[label] = g, k
    live = {b: set() for b in graph.order}
    changed = True
    while changed:
        changed = False
        for label in graph.order:
            out = set().union(*(live[s] for s in graph.succs[label]))
            new = gen[label] | (out - kill[label])
            if new != live[label]:
                live[label], changed = new, True
    return tuple(sorted((r for r in live[graph.entry] if r not in ("sp", "gp")),
                        key=lambda r: int(r[1:])))


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
    assert fn.params == reference_live_in(fn.cfg), fname
    assert fn.order == tuple(C.postorder(fn.cfg)[0])


@pytest.mark.parametrize("name", sorted(set(PROGRAMS) - {IRREDUCIBLE_COPY}))
def test_record_facts_equal_references(name):
    program = ir.parse_program(PROGRAMS[name])
    session = Session(program)
    for fname in program.functions:
        check_record(session, fname)


def test_irreducible_cycle_is_cut_at_its_retreating_edge():
    fn = Session(ir.parse_program(IRREDUCIBLE)).func("f")
    assert C.postorder(fn.cfg)[1] == [("s", "r")]
    assert reference_loop_facts(fn.cfg) == ((), frozenset())
    assert fn.order == ("x", "s", "r", "k", "e")
    assert fn.merge_points == (("r", "f"), ("s", "b"))
    assert fn.loops == frozenset({"r", "s"})
    assert fn.params == reference_live_in(fn.cfg) == ("r0", "r7", "r8")


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
    assert fn.params == reference_live_in(g)


def test_each_cfg_is_walked_once(monkeypatch):
    """`build_cfg` walks the CFG depth-first, and the record's loop facts,
    live-in registers and dominators all read that one walk."""
    walked = []
    postorder = C.postorder
    monkeypatch.setattr(C, "postorder", lambda g: walked.append(g.func) or postorder(g))
    fn = Session(ir.parse_program(IRREDUCIBLE)).func("f")
    assert walked == ["f"]
    assert fn.merge_points and fn.params
    assert fn.dominators()["x"] == {"e", "s", "x"} and walked == ["f"]


def test_acyclic_record_builds_no_dominators(monkeypatch):
    built = []
    dominators = C.dominators
    monkeypatch.setattr(C, "dominators", lambda g: built.append(g.func) or dominators(g))
    program = ir.parse_program(
        "func f @0x1000 frame=0 {\na:\n  branch r1, b, c\nb:\n  jump c\nc:\n  ret r2\n}\n")
    fn = Session(program).func("f")
    assert (fn.merge_points, fn.loops, fn.params) == ((), frozenset(), ("r1", "r2"))
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
