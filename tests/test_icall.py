from mirtaint import cfg as C
from mirtaint import icall as IC
from mirtaint import ir
from mirtaint import sse as S
from mirtaint.alias import Session


def resolve_corpus(corpus, name):
    prog = corpus(name)
    resolutions, mapping, _ = IC.resolve_all(Session(prog), C.find_address_taken(prog))
    return prog, resolutions, mapping


def test_find_icall_sites(corpus):
    prog = corpus("listing1.ir")
    sites = IC.find_icall_sites(prog)
    assert [str(p) for p in sites] == ["main:bb0:4", "main:found:2"]


def test_find_icall_sites_direct_only(corpus):
    assert IC.find_icall_sites(corpus("nested_calls.ir")) == []


def test_collect_pointer_refs(corpus):
    prog = corpus("listing1.ir")
    refs = IC.collect_pointer_refs(prog, C.find_address_taken(prog))
    # a data-section pointer is matched as the load of its cell
    fptr_cells = {e.addr.value for r in refs if r.kind == "fptr"
                  for e in r.pexprs if isinstance(e, S.Load)}
    assert 0x92C00 in fptr_cells          # the parked pointer
    assert 0x92C48 in fptr_cells          # table slots hold functions too
    dptrs = [r for r in refs if r.kind == "dptr"]
    assert any(r.value == 0x92C44 for r in dptrs)


def test_collect_refs_ignores_plain_data_pointers():
    prog = ir.parse_program("""
data @0x9000 { word 0x9100 }
data @0x9100 { word 0x1 }
func f @0x1000 frame=0 {
bb0:
  ret
}
""")
    refs = IC.collect_pointer_refs(prog, C.find_address_taken(prog))
    assert refs == []


def test_listing1_resolution(corpus):
    prog, resolutions, _ = resolve_corpus(corpus, "listing1.ir")
    by_site = {str(r.callsite): r for r in resolutions}
    fptr = by_site["main:bb0:4"]
    assert fptr.pattern == "direct-fptr" and fptr.targets == ("fun",)
    table = by_site["main:found:2"]
    assert table.pattern == "table-stride"
    assert table.targets == ("fun", "fun2")
    (ev,) = table.evidence["tables"][:1]
    assert ev["stride"] == "0x8" and ev["offset"] == "0x4"


def test_simple_fptr_immediate(corpus):
    _, resolutions, _ = resolve_corpus(corpus, "fptr_imm.ir")
    (res,) = resolutions
    assert res.pattern == "direct-fptr" and res.targets == ("target",)


def test_gptr_load_pattern(corpus):
    _, resolutions, _ = resolve_corpus(corpus, "gptr_load.ir")
    (res,) = resolutions
    assert res.pattern == "gptr-load" and res.targets == ("cb",)


def test_gptr_table_pattern(corpus):
    _, resolutions, _ = resolve_corpus(corpus, "gptr_table.ir")
    (res,) = resolutions
    assert res.pattern == "gptr-table"
    assert res.targets == ("h0", "h1")


def test_null_table_slots_recorded(corpus):
    _, resolutions, _ = resolve_corpus(corpus, "table_null.ir")
    (res,) = resolutions
    assert res.targets == ("only",)
    assert res.null_targets == 1


def test_unresolvable_site_reported():
    prog = ir.parse_program("""
func f @0x1000 frame=0 {
bb0:
  icall r9()
  ret
}
""")
    resolutions, mapping, _ = IC.resolve_all(Session(prog), C.find_address_taken(prog))
    (res,) = resolutions
    assert res.pattern == "unresolved" and res.targets == ()
    assert mapping == {}


def test_table_walk_stays_inside_object():
    prog = ir.parse_program("""
data @0x9000 { word 0x5100, word 0x0, word 0x5100, word 0x2 }
data @0x9010 { word 0x5100 }
func fun @0x5100 frame=0 {
bb0:
  ret
}
""")
    entries = {0x5100: "fun"}
    targets, nulls = IC.table_walk(prog, 0x9000, 4, 0, entries)
    assert targets == ["fun", "fun"] and nulls == 1
    # stride walking from the second word with stride 8 sees one slot
    targets2, _ = IC.table_walk(prog, 0x9000, 8, 4, entries)
    assert targets2 == []


def test_table_walk_terminates_on_zero_stride():
    prog = ir.parse_program("""
data @0x9000 { word 0x5100 }
func fun @0x5100 frame=0 {
bb0:
  ret
}
""")
    assert IC.table_walk(prog, 0x9000, 0, 0, {0x5100: "fun"}) == ([], 0)


def test_resolve_matches_index_term_shape():
    prog = ir.parse_program("""
data @0x9000 { word 0x5100, word 0x5200 }
func a @0x5100 frame=0 {
bb0:
  ret
}
func b @0x5200 frame=0 {
bb0:
  ret
}
func main @0x1000 frame=0 {
bb0:
  icall r1()
  ret
}
""")
    ct = [S.canonicalize(S.Load(S.Bin(
        "+", S.IndexTerm(S.Val(0x9000), 4, "i"), S.Val(0))))]
    res = IC.resolve(ir.Point("main", "bb0", 0), ct, [], prog, {})
    assert res.pattern == "table-stride"
    assert res.targets == ("a", "b")


def test_resolve_excludes_bitwise_ct():
    prog = ir.parse_program("""
func a @0x5100 frame=0 {
bb0:
  ret
}
func main @0x1000 frame=0 {
bb0:
  icall r1()
  ret
}
""")
    ct = [S.canonicalize(S.Load(S.Bin("&", S.Val(0x5100), S.Val(0xFFFF))))]
    res = IC.resolve(ir.Point("main", "bb0", 0), ct, [], prog, {})
    assert res.pattern == "unresolved"


def test_metrics_semantics(corpus):
    _, resolutions, _ = resolve_corpus(corpus, "listing1.ir")
    m = IC.metrics(resolutions)
    assert m == {"all_icalls": 2, "resolved_icalls": 2, "icall_targets": 3,
                 "resolved_pct": 100.0}


def test_metrics_counts_partial():
    prog = ir.parse_program("""
func fun @0x5100 frame=0 {
bb0:
  ret
}
func main @0x1000 frame=0 {
bb0:
  r1 = 0x5100
  icall r1()
  icall r8()
  ret
}
""")
    resolutions, _, _ = IC.resolve_all(Session(prog), C.find_address_taken(prog))
    m = IC.metrics(resolutions)
    assert m["all_icalls"] == 2 and m["resolved_icalls"] == 1
    assert m["resolved_pct"] == 50.0


def test_targets_subset_of_declared_functions(corpus):
    for name in ("listing1.ir", "gptr_table.ir", "table_null.ir",
                 "overflow_icall.ir", "wordsize8.ir"):
        prog, resolutions, _ = resolve_corpus(corpus, name)
        for r in resolutions:
            assert set(r.targets) <= set(prog.functions)


def test_sited_fptr_values_match_a_scan_of_the_references():
    """The index holds, for each expression, the values of the fptr
    references with a site whose Pexpr holds it, in reference order."""
    site = ir.Point("main", "bb0", 0)
    a, b, c = S.Reg("r1"), S.Val(0x10), S.Load(S.Val(0x9000))
    refs = [IC.PointerRef("fptr", 0x10, site=site, pexprs={a, b}),
            IC.PointerRef("fptr", 0x20, pexprs={a, c}),
            IC.PointerRef("dptr", 0x30, site=site, pexprs={a}),
            IC.PointerRef("fptr", 0x40, site=site, pexprs={c, a})]
    index = IC.sited_fptr_values(refs)
    for e in (a, b, c, S.Reg("r2")):
        assert index.get(e, []) == [r.value for r in refs if r.kind == "fptr"
                                    and r.site is not None and e in r.pexprs]
    assert index[a] == [0x10, 0x40]
