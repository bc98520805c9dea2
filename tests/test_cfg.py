import pathlib

from mirtaint import cfg as C
from mirtaint import ir


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def fn_of(text, name="f"):
    return ir.parse_program(text).functions[name]


def test_single_block():
    g = C.build_cfg(fn_of("func f @0x1000 frame=0 {\nbb0:\n  ret\n}\n"))
    assert g.entry == "bb0" and g.exits == ("bb0",)
    assert g.succs["bb0"] == ()


def test_call_is_isolated_block():
    g = C.build_cfg(fn_of("""
func f @0x1000 frame=0 {
bb0:
  r1 = 0x1
  call g()
  r2 = 0x2
  ret
}
"""))
    labels = list(g.order)
    assert len(labels) == 3
    call_blocks = [b for b in labels if g.blocks[b].is_call]
    assert len(call_blocks) == 1
    (cb,) = call_blocks
    assert g.succs[labels[0]] == (cb,)
    assert g.succs[cb] == (labels[2],)
    # statement ids survive the splitting
    assert g.blocks[cb].stmts[0].point == ir.Point("f", "bb0", 1)


def test_diamond_postorder():
    g = C.build_cfg(fn_of("""
func f @0x1000 frame=0 {
a:
  branch r1, b, c
b:
  jump d
c:
  jump d
d:
  ret
}
"""))
    order = C.postorder(g)[0]
    assert order[-1] == "a"
    assert order.index("d") < order.index("b")
    assert order.index("d") < order.index("c")
    assert sorted(order) == sorted(set(g.order) - g.unreachable)


def _reference_postorder(succs, entry):
    # independent DFS used as the oracle for the self-loop case
    seen, out = set(), []

    def dfs(n):
        seen.add(n)
        for s in succs.get(n, ()):
            if s not in seen:
                dfs(s)
        out.append(n)

    dfs(entry)
    return out


def test_self_loop_postorder_matches_reference_dfs():
    g = C.build_cfg(fn_of("""
func f @0x1000 frame=0 {
a:
  branch r1, a, b
b:
  ret
}
"""))
    # the branch back to the entry forces a synthetic entry block
    assert g.entry == "@entry"
    assert C.postorder(g)[0] == _reference_postorder(g.succs, g.entry)
    po = C.postorder(g)[0]
    assert po.index("b") < po.index("a")


def test_linear_postorder():
    g = C.build_cfg(fn_of("""
func f @0x1000 frame=0 {
a:
  jump b
b:
  jump c
c:
  ret
}
"""))
    assert C.postorder(g)[0] == ["c", "b", "a"]


def test_postorder_of_a_long_linear_function():
    # deeper than the interpreter's recursion limit
    n = 3000
    body = "".join(f"b{i}:\n  jump b{i + 1}\n" for i in range(n - 1))
    g = C.build_cfg(fn_of(f"func f @0x1000 frame=0 {{\n{body}b{n - 1}:\n  ret\n}}\n"))
    assert C.postorder(g)[0] == [f"b{i}" for i in reversed(range(n))]

def test_unreachable_kept_but_flagged():
    g = C.build_cfg(fn_of("""
func f @0x1000 frame=0 {
a:
  jump c
b:
  jump c
c:
  ret
}
"""))
    assert "b" in g.unreachable
    assert "b" in g.blocks
    assert "b" not in C.postorder(g)[0]
    assert any("unreachable" in w for w in g.warnings)


def test_dominators_diamond():
    g = C.build_cfg(fn_of("""
func f @0x1000 frame=0 {
a:
  branch r1, b, c
b:
  jump d
c:
  jump d
d:
  ret
}
"""))
    dom = C.dominators(g)
    assert dom["d"] == frozenset({"a", "d"})
    assert dom["b"] == frozenset({"a", "b"})


def test_loop_blocks():
    g = C.build_cfg(fn_of("""
func f @0x1000 frame=0 {
a:
  jump head
head:
  branch r1, body, out
body:
  jump head
out:
  ret
}
"""))
    order = C.postorder(g)[0]
    assert order == ["body", "out", "head", "a"]
    assert C.cycles(order, g.succs) == dict.fromkeys(("body", "head"), ("body", "head"))


def test_cycles_take_self_edges_and_keep_node_order():
    succs = {"a": ["b"], "b": ["c", "a"], "c": ["c", "d"], "d": [], "e": ["a"]}
    assert C.cycles(["e", "d", "c", "b", "a"], succs) == {
        "c": ("c",), "b": ("b", "a"), "a": ("b", "a")}


def test_find_address_taken_data_word():
    prog = ir.parse_program("""
data @0x9000 { word 0x5100 }
func fun @0x5100 frame=0 {
bb0:
  ret
}
""")
    assert C.find_address_taken(prog) == frozenset({0x5100})


def test_find_address_taken_ignores_non_function_words():
    prog = ir.parse_program("""
data @0x9000 { word 0xDEAD }
func fun @0x5100 frame=0 {
bb0:
  ret
}
""")
    assert C.find_address_taken(prog) == frozenset()


def test_find_address_taken_in_code_immediate():
    # oracle: scan every statement's immediates by hand
    prog = ir.parse_program("""
func fun @0x5100 frame=0 {
bb0:
  ret
}
func main @0x1000 frame=0 {
bb0:
  r1 = 0x5100
  ret
}
""")
    entries = {f.entry_address for f in prog.functions.values()}
    by_hand = {imm for f in prog.functions.values() for s in f.statements()
               for imm in ir.immediates(s.form) if imm in entries}
    assert by_hand == {0x5100}
    assert C.find_address_taken(prog) == frozenset(by_hand)


def test_find_address_taken_monotone():
    base = """
{data}
func fun @0x5100 frame=0 {{
bb0:
  ret
}}
"""
    small = ir.parse_program(base.format(data="data @0x9000 { word 0x5100 }"))
    big = ir.parse_program(base.format(
        data="data @0x9000 { word 0x5100, word 0x5100 }"))
    assert C.find_address_taken(small) <= C.find_address_taken(big)


def test_call_graph_edges(corpus):
    prog = corpus("nested_calls.ir")
    cg = C.build_call_graph(prog)
    pairs = {(a, b) for a, b, _ in cg.edges}
    assert ("main", "middle") in pairs and ("middle", "inner") in pairs
    # without icalls a resolution map adds nothing
    assert C.build_call_graph(prog, {}).edges == cg.edges


def test_icalls_listed_unresolved(corpus):
    # an icall has no edge without a resolution map; under one, its
    # targets follow every direct call, in map order
    prog = corpus("listing1.ir")
    direct = C.build_call_graph(prog).edges
    assert [(a, b) for a, b, _ in direct] == [("main", "strcmp")]
    parked, table = ir.Point("main", "bb0", 4), ir.Point("main", "found", 2)
    cg = C.build_call_graph(prog, {table: ("fun2", "fun"), parked: ("fun",)})
    assert cg.edges == direct + (("main", "fun2", table), ("main", "fun", table),
                                 ("main", "fun", parked))
    assert cg.callers("fun") == [("main", table), ("main", parked)]


def test_dot_output(corpus):
    prog = corpus("diamond.ir")
    dot = C.to_dot(C.build_cfg(prog.functions["main"]))
    assert dot.startswith("digraph") and '"bb0"' in dot


def test_components_group_each_cycle():
    succs = {"a": ["b"], "b": ["c", "a"], "c": ["c", "d"], "d": [], "e": ["a"]}
    root = C.components(["a", "b", "c", "d", "e"], succs)
    assert set(root) == set("abcde")
    assert root["a"] == root["b"]
    assert len({root["a"], root["c"], root["d"], root["e"]}) == 4


def test_components_of_a_long_cycle_need_no_recursion():
    n = 5000
    succs = {i: [i + 1] for i in range(n)}
    succs[n] = [0]
    root = C.components([0], succs)
    assert len(root) == n + 1 and len(set(root.values())) == 1


def test_unvalidated_block_ends_are_warned():
    """`build_cfg` takes a function `ir.validate` would reject: a block
    that ends in a plain statement, and a call that ends the last block,
    give warnings and no edge."""
    g = C.build_cfg(fn_of("func f @0x1000 frame=0 {\nbb0:\n  r1 = r2\n"
                          "bb1:\n  call g()\n}\n"))
    assert g.warnings == ("f:bb0: malformed terminator",
                          "f:bb1: falls off function end",
                          "f:bb1: unreachable block")
    assert g.succs == {"bb0": (), "bb1": ()}



def test_find_address_taken_reads_each_statement_once_per_form():
    """Reading each shared form once finds what reading every statement
    finds, on every corpus file."""
    for path in sorted(CORPUS.glob("*.ir")):
        prog = ir.parse_program(path.read_text())
        entries = {f.entry_address for f in prog.functions.values()}
        by_hand = {w for words in prog.data_section.values() for w in words
                   if w in entries}
        by_hand |= {imm for f in prog.functions.values() for s in f.statements()
                    for imm in ir.immediates(s.form) if imm in entries}
        assert C.find_address_taken(prog) == frozenset(by_hand), path.name
