"""Each function's static facts are built once, into one record per
function (`alias.Session.func`), and equal what the general algorithms
give.

A function whose postorder DFS meets no retreating edge has no back
edge, so its record skips the dominators: its merge points and loop
blocks are empty.  Its live-in registers come from one pass in
postorder.  Both shortcuts are checked here against the dominator back
edges and a round-robin liveness fixpoint, on every function of every
corpus file and of the seed-1 ladders, and on an irreducible CFG.
"""

import collections
import pathlib
import sys

import pytest

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


def reference_merge_points(graph: C.Cfg):
    """(merge points, loop blocks) from the dominator back edges."""
    dom = C.dominators(graph)
    edges = C.back_edges(graph, dom)
    heads, latches = {v for _, v in edges}, {u for u, _ in edges}
    points = tuple((label, d) for label in sorted(heads | latches)
                   for d, at in (("f", heads), ("b", latches)) if label in at)
    return points, C.loop_blocks(graph, dom)


def check_record(session: Session, fname: str):
    fn = session.func(fname)
    assert (fn.merge_points, fn.loops) == reference_merge_points(fn.cfg), fname
    assert fn.params == reference_live_in(fn.cfg), fname
    assert fn.order == tuple(C.postorder(fn.cfg)[0])


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_record_facts_equal_references(name):
    program = ir.parse_program(PROGRAMS[name])
    session = Session(program)
    for fname in program.functions:
        check_record(session, fname)


def test_irreducible_cycle_has_no_merge_point():
    program = ir.parse_program(IRREDUCIBLE)
    session = Session(program)
    fn = session.func("f")
    assert C.postorder(fn.cfg)[1]
    assert C.back_edges(fn.cfg) == set()
    assert fn.order == ("x", "s", "r", "k", "e")
    assert fn.merge_points == () and fn.loops == frozenset()
    assert fn.params == ("r0", "r7", "r8")
    check_record(session, "f")


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
    its dominators only where it has a cycle or a sink guarded by a
    branch."""
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
    assert cyclic == {"main"} and guarded
    assert dominated == dict.fromkeys(cyclic | guarded, 1)
