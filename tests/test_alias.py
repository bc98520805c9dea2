import pytest

from mirtaint import cfg as C
from mirtaint import ir
from mirtaint import sse as S
from mirtaint.alias import (Analysis, EngineConfig, FunctionSummary, ModEntry,
                            Seed, Session, live_in_registers, transfer_function)


def analyze_seed(prog, point, expr_text, direction="both", config=None):
    analysis = Analysis(prog, config or EngineConfig())
    sid = analysis.add_seed(Seed(point=point, expr=S.parse_sse(expr_text),
                                 direction=direction))
    analysis.run()
    return analysis, sid


def family_pretty(analysis, sid):
    return {S.pretty(t.expr) for t in analysis.family(sid)}


# -- the two figure walkthroughs ----------------------------------------------

def test_intuitive_example_exact_alias_set(corpus):
    prog = corpus("intuitive.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 0), "load(r3+0x8)")
    assert family_pretty(analysis, sid) == {
        "load(r3+0x8)", "r1", "load(store(r6+0x4)+0x8)"}


def test_complex_example_pair_and_rule_trace(corpus):
    prog = corpus("complex.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 2), "load(r3+0x8)")
    fam = analysis.family(sid)
    r1 = [t for t in fam if t.expr == S.Reg("r1") and t.point.index == 2]
    r0 = [t for t in fam if t.expr == S.Reg("r0") and t.point.index == 4]
    assert r1, "R1 at line 3 must be in the alias set"
    assert r0, "R0 at line 5 must be in the alias set"
    assert r0[0].chain() == [6, 8, 7, 5]
    # the intermediate expressions of the walkthrough are recorded too
    names = family_pretty(analysis, sid)
    assert {"load(store(r2)+0x8)", "load(store(r6)+0x8)",
            "load(r0+0x8)"} <= names


def test_trace_block_passthrough_empty_seeds(corpus):
    prog = corpus("moves.ir")
    analysis = Analysis(prog)
    analysis.cfg("main")
    assert analysis.registry["main"] == {}


def test_seed_forward_only_direction(corpus):
    prog = corpus("complex.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 2),
                                 "load(r3+0x8)", direction="forward")
    # without the backward half, the store-provenance chain is absent
    names = family_pretty(analysis, sid)
    assert "load(store(r2)+0x8)" not in names
    assert "r1" in names


# -- cross-block flow ----------------------------------------------------------

def test_alias_flow_through_diamond(corpus):
    prog = corpus("diamond.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 0), "load(r2+0x4)")
    fam = analysis.family(sid)
    points = {(S.pretty(t.expr), t.point.block) for t in fam}
    assert ("r1", "bb0") in points
    # the join block re-derives the same cell into r5
    assert any(expr == "r5" for expr, _ in points)


def test_loop_family_merges_and_terminates(corpus):
    prog = corpus("loop_walk.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "head", 0), "load(r1)")
    assert not analysis.cap_hits
    names = family_pretty(analysis, sid)
    assert any("*0x4" in n for n in names), names


# -- summaries and the transfer function ---------------------------------------

def test_live_in_registers(corpus):
    prog = corpus("store_through_callee.ir")
    analysis = Analysis(prog)
    assert live_in_registers(prog.functions["put"], analysis.cfg("put")) == \
        ("r0", "r1")


def test_summary_mod_rooted_at_params(corpus):
    prog = corpus("store_through_callee.ir")
    analysis = Analysis(prog)
    summ = analysis.summary("put")
    cells = {S.pretty(m.cell) for m in summ.mod}
    assert "store(r0+0x8)" in cells
    values = {S.pretty(m.value) for m in summ.mod if m.value is not None}
    assert "r1" in values


def test_transfer_function_reroots_mod():
    summ = FunctionSummary(
        func="put", params=("r0", "r1"),
        mod=(ModEntry(S.canonicalize(S.Store(S.parse_sse("r0+0x8"))),
                      S.Reg("r1")),))
    mod, ref = transfer_function({"r4"}, summ, ("r4", 0x2A))
    (entry,) = mod
    assert S.pretty(entry.cell) == "store(r4+0x8)"
    assert entry.value == S.Val(0x2A)


def test_transfer_function_pure_callee_passthrough():
    summ = FunctionSummary(func="pure", params=("r0",))
    mod, ref = transfer_function({"r4"}, summ, ("r4",))
    assert mod == () and ref == ()


def test_transfer_function_global_rooted_mod_kept():
    summ = FunctionSummary(
        func="g", params=("r0",),
        mod=(ModEntry(S.canonicalize(S.Store(S.parse_sse("gp+0x10"))),
                      S.Reg("r0")),))
    mod, _ = transfer_function(set(), summ, ("r7",))
    (entry,) = mod
    assert S.pretty(entry.cell) == "store(gp+0x10)"
    assert entry.value == S.Reg("r7")


def test_transfer_function_drops_unmapped_params():
    summ = FunctionSummary(
        func="g", params=("r0", "r1"),
        mod=(ModEntry(S.canonicalize(S.Store(S.Reg("r1"))), None),))
    mod, _ = transfer_function({"r9"}, summ, ("r9",))   # only one actual
    assert mod == ()


def test_callsite_mod_generates_cell_alias(corpus):
    # the callee writes arg1 through arg0+8; the caller's tracked value
    # gains the cell expression
    prog = corpus("store_through_callee.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 2), "r5")
    names = family_pretty(analysis, sid)
    assert "store(r4+0x8)" in names
    # ...and the later load of that cell joins the family (rule 7)
    assert "r6" in names


def test_callee_return_alias(corpus):
    prog = corpus("callee_ret_alias.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 1), "r2")
    names = family_pretty(analysis, sid)
    assert "r3" in names, names


def test_summary_recursion_bounded(corpus):
    prog = corpus("recursion.ir")
    analysis = Analysis(prog)
    summ = analysis.summary("rec")
    assert isinstance(summ, FunctionSummary)
    cells = {S.pretty(m.cell) for m in summ.mod}
    assert "store(gp+0x10)" in cells


def test_summary_independent_of_request_order(corpus):
    # summarizing norm2 first must not leave its transitive callers with
    # summaries built against norm2's in-progress (bottom) placeholder
    prog = corpus("summary_order.ir")
    fresh = {f: Analysis(prog).summary(f) for f in prog.functions}
    assert fresh["h0"].ret_exprs == (S.Reg("r0"),)
    shared = Analysis(prog)
    shared.summary("norm2")
    for f in prog.functions:
        assert shared.summary(f) == fresh[f], f


def test_summary_walk_stays_in_its_function(corpus, monkeypatch):
    walked = []
    original = Analysis.analyze_function

    def record(analysis, fname):
        walked.append((analysis.summary_of, fname))
        return original(analysis, fname)

    monkeypatch.setattr(Analysis, "analyze_function", record)
    prog = corpus("summary_order.ir")
    Analysis(prog).summary("main")
    assert {f for f, _ in walked} == set(prog.functions)
    assert all(f == fname for f, fname in walked)


def test_session_shares_program_facts_not_summaries(corpus):
    prog = corpus("summary_order.ir")
    session = Session(prog)
    Analysis(prog, session=session).summary("h0")
    assert set(session.summaries) == {"h0", "norm0", "norm1", "norm2"}
    assert session.with_resolutions({}) is session
    other = session.with_resolutions({ir.Point("main", "bb0", 1): ("h1",)})
    assert other.cfg("h0") is session.cfg("h0")
    assert other.summaries == {}
    with pytest.raises(ValueError):
        Analysis(prog, EngineConfig(loop_k=2), session=session)


def test_summary_warnings_reach_every_analysis_using_it():
    prog = ir.parse_program("""
func g @0x2000 frame=0 {
bb0:
  ret r0
bb1:
  ret r0
}

func main @0x1000 frame=0 {
bb0:
  r1 = call g(r0)
  ret r1
}
""")
    session = Session(prog)
    first = Analysis(prog, session=session)
    first.summary("main")
    second = Analysis(prog, session=session)
    second.summary("main")
    assert first.warnings == second.warnings == ["g:bb1: unreachable block"]

def test_demand_visits_only_reachable_functions(corpus):
    prog = corpus("nested_calls.ir")
    analysis, _ = analyze_seed(prog, ir.Point("inner", "bb0", 0), "r1")
    # inner's callers are reachable backward; nothing else exists
    assert analysis.visited_functions <= {"inner", "middle", "main"}


def test_entry_out_b_exports_to_caller(corpus):
    prog = corpus("nested_calls.ir")
    analysis, sid = analyze_seed(prog, ir.Point("inner", "bb0", 1), "r0",
                                 direction="backward")
    fam = analysis.family(sid)
    funcs = {t.point.func for t in fam}
    assert "middle" in funcs, "param-rooted alias must surface in the caller"


def test_fixpoint_monotone_out_sets(corpus):
    prog = corpus("diamond.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 0), "load(r2+0x4)")
    sizes = {label: (len(st.out_f), len(st.out_b))
             for label, st in analysis.states["main"].items()}
    analysis.analyze_function("main")   # a second run adds nothing
    for label, st in analysis.states["main"].items():
        assert (len(st.out_f), len(st.out_b)) == sizes[label]


def test_saturation_drops_overdeep_expressions(corpus):
    text = """
func main @0x1000 frame=0 {
bb0:
  r1 = load r1
  r1 = load r1
  r1 = load r1
  r1 = load r1
  r1 = load r1
  r1 = load r1
  r1 = load r1
  ret r1
}
"""
    prog = ir.parse_program(text)
    analysis = Analysis(prog, EngineConfig(sse_depth=3))
    sid = analysis.add_seed(Seed(point=ir.Point("main", "bb0", 7),
                                 expr=S.Reg("r1"), direction="backward"))
    analysis.run()
    assert all(S.mem_depth(t.expr) <= 3 for t in analysis.family(sid))
