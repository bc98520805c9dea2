import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from mirtaint import alias
from mirtaint import icall
from mirtaint import ir
from mirtaint import oracle
from mirtaint import pipeline
from mirtaint import sse as S
from mirtaint import taint
from mirtaint.alias import (Analysis, Cond, FunctionSummary, ModEntry, Seed,
                            Session, Tracked, _Walker, arg_map,
                            transfer_function)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def analyze_seed(prog, point, expr_text, direction="both"):
    analysis = Analysis(Session(prog))
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
    analysis = Analysis(Session(prog))
    analysis.func("main")
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


def test_moved_and_derive_agree_with_dataclasses_replace():
    """`Tracked.moved` and `derive` copy every field, as
    `dataclasses.replace` does, and their stored key is the one built
    afresh; a field added to `Tracked` must be added here too."""
    point = ir.Point("main", "bb0", 2)
    cond = Cond("r4", True, point)
    parent = Tracked(expr=S.Reg("r9"), point=point, phase="pre", seed_id=1)
    values = dict(expr=S.parse_sse("load(r1+0x8)"), point=point, phase="post",
                  seed_id=3, rule=6, parent=parent, tainted=True, derived=True,
                  trigger=ir.Point("main", "bb0", 0), conds=(cond,), hops=2)
    assert set(values) == {f.name for f in dataclasses.fields(Tracked) if f.init}
    t = Tracked(**values)
    defaults = Tracked(expr=values["expr"], point=point, phase="pre", seed_id=0)
    assert all(getattr(t, name) != getattr(defaults, name)
               for name in values if name not in ("expr", "point"))
    e = S.retag(values["expr"], 5)
    there = ir.Point("main", "bb1", 0)

    def same(a, b):
        return (all(getattr(a, f.name) is getattr(b, f.name)
                    for f in dataclasses.fields(Tracked) if f.init)
                and a.key() == b.key())

    assert same(t.moved(e), replace(t, expr=e))
    assert same(t.derive(e, there, "pre"),
                replace(t, expr=e, point=there, phase="pre", rule=None, parent=t))
    assert same(t.derive(e, there, "pre", 12, tainted=False, hops=3),
                replace(t, expr=e, point=there, phase="pre", rule=12, parent=t,
                        tainted=False, hops=3))


# -- summaries and the transfer function ---------------------------------------

def test_kept_transfer_follows_the_callee_summary(corpus, monkeypatch):
    """An analysis keeps each callsite's transfers, and every transfer a
    visit reads equals one built afresh from the callee summary it sees,
    in a call-graph cycle's second round too, whose sub-analyses read the
    first round's approximations."""
    prog = corpus("mutual_recursion.ir")
    session = Session(prog)
    keep = Analysis._crossings
    checked, seen = [], []

    def fresh(self, point, form):
        crossings = keep(self, point, form)
        for callee, tr in crossings:
            summ = self.summaries[callee]
            seen.append(summ)
            args = self.session.statement(point).form.args
            checked.append(tr == transfer_function(summ, arg_map(args)))
        return crossings

    monkeypatch.setattr(Analysis, "_crossings", fresh)
    Analysis(session).summary("even")
    assert checked and all(checked)
    # odd's first round, read by even's second: neither the bottom summary
    # nor the final one
    assert any(summ.func == "odd" and summ != FunctionSummary("odd")
               and summ != session.summaries["odd"] for summ in seen)
    checked.clear()
    query = Analysis(session)
    sid = query.add_seed(Seed(point=ir.Point("odd", "rec", 2), expr=S.Reg("r3"),
                              direction="backward"))
    query.run()
    assert checked and all(checked)
    # even's return alias renames r3 to odd's argument register
    assert "r2@odd:rec:1" in {f"{S.pretty(t.expr)}@{t.point}"
                              for t in query.family(sid)}

def test_a_callsite_visit_reuses_its_crossings(corpus, monkeypatch):
    """An analysis keeps the (callee, Transfer) list its first visit of a
    callsite built: over icall resolution and a taint run of each corpus
    program, a later visit of that callsite by the same analysis sees the
    very callee summaries the list was built from and makes no
    `_transfer` call."""
    calls = []
    visits = []     # (analysis, point, summaries before, after, transfer calls)
    transfer, visit = Analysis._transfer, Analysis._visit_callsite

    def counted_transfer(self, point, callee):
        calls.append(point)
        return transfer(self, point, callee)

    def counted_visit(self, fname, g, label, st, block):
        point, form = block.call.point, block.call.form
        callees = (form.target,) if isinstance(form, ir.Call) else \
            tuple(self.session.resolutions.get(point, ()))
        before = tuple(self.summaries.get(c) for c in callees)
        made = len(calls)
        changed = visit(self, fname, g, label, st, block)
        # the analysis itself, not its id: a later one may reuse the id
        visits.append((self, point, before,
                       tuple(self.summaries.get(c) for c in callees), len(calls) - made))
        return changed

    monkeypatch.setattr(Analysis, "_transfer", counted_transfer)
    monkeypatch.setattr(Analysis, "_visit_callsite", counted_visit)
    repeats = 0
    for path in sorted((ROOT / "corpus").glob("*.ir")):
        visits.clear()
        session = Session(corpus(path.name))
        _, mapping, _ = icall.resolve_all(session)
        taint.run_taint(session.with_resolutions(mapping))
        last = {}
        for owner, point, before, after, made in visits:
            kept = last.get((owner, point))
            if kept is not None:
                assert all(a is b for a, b in zip(kept, before)), (path.name, point)
                assert made == 0, (path.name, point)
                repeats += 1
            last[(owner, point)] = after
    assert calls and repeats


def test_a_reused_crossing_takes_the_callee_notes():
    """An analysis whose callee summary another analysis of its session
    computed still takes the warnings the summary carries, as computing
    it would have."""
    prog = ir.parse_program(
        "func g @0x2000 frame=0 {\nbb0:\n  icall r5(r0)\n  store r0 = r1\n  ret\n}\n"
        "func main @0x1000 frame=0 {\nbb0:\n  r1 = r2\n  call g(r1)\n"
        "  r3 = load r1\n  ret r3\n}\n")
    session = Session(prog)
    warning = "unresolved indirect call at g:bb0:0; treated as no-op"
    for _ in range(2):
        analysis = Analysis(session)
        analysis.add_seed(Seed(point=ir.Point("main", "bb0", 0), expr=S.Reg("r2")))
        analysis.run()
        assert warning in analysis.warnings
    assert warning in session.summaries["g"].warnings


def test_summary_mod_rooted_at_params(corpus):
    prog = corpus("store_through_callee.ir")
    analysis = Analysis(Session(prog))
    summ = analysis.summary("put")
    cells = {S.pretty(m.cell) for m in summ.mod}
    assert "store(r0+0x8)" in cells
    values = {S.pretty(m.value) for m in summ.mod if m.value is not None}
    assert "r1" in values


def test_transfer_function_reroots_mod():
    summ = FunctionSummary(
        func="put",
        mod=(ModEntry(S.canonicalize(S.Store(S.parse_sse("r0+0x8"))),
                      S.Reg("r1")),))
    (entry,) = transfer_function(summ, arg_map(("r4", 0x2A))).mod
    assert S.pretty(entry.cell) == "store(r4+0x8)"
    assert entry.value == S.Val(0x2A)


def test_transfer_function_pure_callee_passthrough():
    summ = FunctionSummary(func="pure")
    tr = transfer_function(summ, arg_map(("r4",)))
    assert tr.mod == () and tr.rets == ()


def test_transfer_function_global_rooted_mod_kept():
    summ = FunctionSummary(
        func="g",
        mod=(ModEntry(S.canonicalize(S.Store(S.parse_sse("gp+0x10"))),
                      S.Reg("r0")),))
    (entry,) = transfer_function(summ, arg_map(("r7",))).mod
    assert S.pretty(entry.cell) == "store(gp+0x10)"
    assert entry.value == S.Reg("r7")


def test_transfer_function_drops_unmapped_params():
    summ = FunctionSummary(
        func="g", mod=(ModEntry(S.canonicalize(S.Store(S.Reg("r1"))), None),))
    # only one actual
    assert transfer_function(summ, arg_map(("r9",))).mod == ()


def test_callsite_mod_generates_cell_alias(corpus):
    # the callee writes arg1 through arg0+8; the caller's tracked value
    # gains the cell expression
    prog = corpus("store_through_callee.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 2), "r5")
    names = family_pretty(analysis, sid)
    assert "store(r4+0x8)" in names
    # ...and the later load of that cell joins the family (rule 7)
    assert "r6" in names


def test_callsite_mod_kills_alias_whatever_else_is_pending(corpus):
    # put(r2) overwrites *r2; no other pending alias is rooted at r2, and
    # the seed's aliases must still die at the call
    prog = corpus("callsite_mod_kill.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 0), "r1+load(r2)")
    fam = analysis.family(sid)

    def reads_written_cell(e):
        return (S.contains_reg(e, "r6") or S.contains_reg(e, "r7")
                or any(isinstance(n, S.Load) and n.addr == S.Reg("r2")
                       for n in S.mem_nodes(e)))

    late = [S.pretty(t.expr) for t in fam
            if t.point.index > 2 and reads_written_cell(t.expr)]
    assert late == []
    pairs = [oracle.pair_from_tracked(a, b) for a, b in analysis.alias_pairs(sid)
             if oracle.evaluable(a) and oracle.evaluable(b)]
    assert pairs
    verdicts = oracle.certify_aliases(prog, pairs)
    assert [v.as_json() for v in verdicts if v.status == "fail"] == []


def test_summary_members_hold_at_the_entry(corpus):
    """A summary keeps only the members that hold at the function's entry.
    `f` of `param_redefined.ir` returns `r0+0x4` after `r0 = r1`, so its
    return alias in entry terms is `r1+0x4`, and `r0+0x4` is none: with it,
    `r5` in main (0x24) joined the family of main's `r0+0x4` (0x14).  A
    forward alias below a write to a parameter is none either."""
    prog = corpus("param_redefined.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb1", 0), "r0+0x4")
    pairs = [oracle.pair_from_tracked(a, b) for a, b in analysis.alias_pairs(sid)
             if oracle.evaluable(a) and oracle.evaluable(b)]
    assert pairs
    verdicts = oracle.certify_aliases(prog, pairs)
    assert [v.as_json() for v in verdicts if v.status == "fail"] == []
    assert [S.pretty(e) for e in analysis.summary("f").ret_exprs] == ["r1+0x4"]
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb1", 0), "r1+0x4")
    assert "r5" in family_pretty(analysis, sid)
    forward = ir.parse_program(
        "func f @0x1000 frame=0 {\nbb0:\n  r3 = r1\n  r2 = r0 + 0x4\n"
        "  r1 = r0\n  ret r2\n}\n")
    summary = Analysis(Session(forward)).summary("f")
    assert [S.pretty(e) for e in summary.ret_exprs] == ["r0+0x4"]


# f never reads r1, so the zip of its read registers with the actuals
# bound its r2 to main's r6; a call passes argument i in the callee's ri,
# so r2 is main's r7
PARAM_GAP_LOAD = """
func f @0x1000 frame=0 {
bb0:
  r4 = r0 + 0x1
  r3 = load r2
  ret r3
}

func main @0x2000 frame=0 {
bb0:
  r5 = gp + 0x10
  r6 = gp + 0x20
  r7 = gp + 0x30
  r1 = call f(r5, r6, r7)
  jump bb1
bb1:
  ret r1
}
"""


def test_call_bindings_certify(corpus):
    """Every trusted, evaluable pair of three seed queries that cross a
    call passes the oracle: arguments passed crossed (`swapped_args.ir`),
    a callee that reads its third argument and not its second, and a
    seed at a call, above it and, through the returned argument, below it
    (`callee_ret_alias.ir`, whose `r3` below the call the oracle reads
    once the callee has returned)."""
    gap = ir.parse_program(PARAM_GAP_LOAD)
    queries = [(corpus("swapped_args.ir"), ir.Point("main", "bb1", 0), "r5"),
               (gap, ir.Point("main", "bb1", 0), "r1"),
               (corpus("callee_ret_alias.ir"), ir.Point("main", "bb0", 1), "r2")]
    for prog, point, expr in queries:
        analysis, sid = analyze_seed(prog, point, expr)
        pairs = [oracle.pair_from_tracked(a, b) for a, b in analysis.alias_pairs(sid)
                 if oracle.evaluable(a) and oracle.evaluable(b)]
        assert pairs, point
        verdicts = oracle.certify_aliases(prog, pairs)
        assert [v.as_json() for v in verdicts if v.status != "pass"] == [], point
        if prog is gap:
            assert "load(r7)" in family_pretty(analysis, sid)
    ret_alias = {(S.pretty(p.b.expr), str(p.b.point), p.b.phase) for p in pairs}
    assert ("r3", "main:bb0:1", "post") in ret_alias


def test_exported_facts_hold_on_their_side_of_the_call(corpus):
    """A callee's entry fact is exported above the call and its returned
    fact below it, and neither crosses that call again: the call's result
    register is not renamed in the entry fact, nor are its loads rewritten
    with the cells the callee writes.  Each `main` alias of the seed
    load(r0) at f's entry passes the oracle against the seed.  An
    exported fact's memory nodes are born after the block, which
    `oracle.evaluable` refuses, so each is certified with its tags
    reset."""
    expected = {
        "ret_over_param.ir": {("load(sp)", "main:bb0:0", "pre"),
                              ("load(r0)", "main:bb0:1", "pre"),
                              ("r0", "main:bb0:1", "post")},
        "mod_over_param.ir": {("load(sp)", "main:bb0:0", "pre"),
                              ("load(r0)", "main:bb0:2", "pre"),
                              ("r3", "main:bb0:2", "post")},
    }
    for name, aliases in expected.items():
        prog = corpus(name)
        analysis, sid = analyze_seed(prog, ir.Point("f", "bb0", 0), "load(r0)")
        seed = analysis.family(sid, "f")[0]
        mains = analysis.family(sid, "main")
        pairs = [oracle.pair_from_tracked(
            seed, t.moved(S.retag(t.expr, S.BIRTH_BEFORE_BLOCK))) for t in mains]
        verdicts = oracle.certify_aliases(prog, pairs, entry="main")
        assert [v.as_json() for v in verdicts if v.status != "pass"] == [], name
        assert {(S.pretty(t.expr), str(t.point), t.phase) for t in mains} == aliases


def test_cut_summary_walk_keeps_a_seed_that_holds_at_the_entry(monkeypatch):
    """A seed whose walk a cap cut before it left the entry block is still
    a summary member when the function writes none of its registers, and
    is none when it writes one, above the seed or below it."""
    def summary(text):
        prog = ir.parse_program("func f @0x1000 frame=0 {\nbb0:\n" + text
                                + "  jump bb1\nbb1:\n  ret r1\n}\n")
        return Analysis(Session(prog)).summary("f")

    def returns(text):
        return [S.pretty(e) for e in summary(text).ret_exprs]

    def cells(text):
        return [S.pretty(m.cell) for m in summary(text).mod]

    assert returns("  r1 = r0\n") == ["r0"]
    assert cells("  store r1 + 0x8 = r0\n  r1 = 0x0\n") == ["store(r1+0x8)"]
    monkeypatch.setattr(alias, "BLOCK_ITER_CAP", 0)
    assert returns("  r3 = r0\n") == ["r1"]
    assert returns("  r1 = r0\n") == []
    assert cells("  store r1 + 0x8 = r0\n  r2 = 0x0\n") == ["store(r1+0x8)"]
    # the store's address seed: r1 is written below it
    assert cells("  store r1 + 0x8 = r0\n  r1 = 0x0\n") == []


def test_callee_return_alias(corpus):
    prog = corpus("callee_ret_alias.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 1), "r2")
    names = family_pretty(analysis, sid)
    assert "r3" in names, names


def test_summary_recursion_bounded(corpus):
    prog = corpus("recursion.ir")
    analysis = Analysis(Session(prog))
    summ = analysis.summary("rec")
    assert isinstance(summ, FunctionSummary)
    cells = {S.pretty(m.cell) for m in summ.mod}
    assert "store(gp+0x10)" in cells


def test_summary_independent_of_request_order(corpus):
    # summarizing norm2 first must not leave its transitive callers with
    # summaries built against norm2's in-progress (bottom) summary, and a
    # cycle's summaries must not depend on which member is asked first
    for name, first in (("summary_order.ir", "norm2"),
                        ("mutual_recursion.ir", "odd"),
                        ("mutual_recursion.ir", "even")):
        prog = corpus(name)
        fresh = {f: Analysis(Session(prog)).summary(f) for f in prog.functions}
        shared = Analysis(Session(prog))
        shared.summary(first)
        for f in prog.functions:
            assert shared.summary(f) == fresh[f], (name, first, f)
    assert Analysis(Session(corpus("summary_order.ir"))).summary("h0").ret_exprs == (
        S.Reg("r0"),)


# Two list walkers calling each other: each reads a field of the node it
# is given, and the next node, so both members of the cycle have a REF
WALKERS = """\
func even @0x2000 frame=0 {
bb0:
  r1 = load r0 + 0x4
  branch r1, rec, out
rec:
  r2 = load r0
  r3 = call odd(r2)
  ret r3
out:
  ret r0
}

func odd @0x3000 frame=0 {
bb0:
  r1 = load r0 + 0x8
  branch r1, rec, out
rec:
  r2 = load r0
  r3 = call even(r2)
  ret r3
out:
  ret r0
}

func main @0x1000 frame=0 {
bb0:
  r1 = gp + 0x100
  r2 = call even(r1)
  ret r2
}
"""


def test_ref_independent_of_request_order(corpus):
    # REF is built once the summary is final, a cycle member's after both
    # rounds, so it is the same whichever function is asked first
    programs = [corpus("summary_order.ir"), corpus("mutual_recursion.ir"),
                ir.parse_program(WALKERS)]
    for prog in programs:
        fresh = {f: Analysis(Session(prog))._ref(f) for f in prog.functions}
        for first in prog.functions:
            shared = Analysis(Session(prog))
            shared._ref(first)
            for f in prog.functions:
                assert shared._ref(f) == fresh[f], (first, f)
    analysis = Analysis(Session(ir.parse_program(WALKERS)))
    assert {S.pretty(c) for c in analysis._ref("odd")} == {
        "load(r0)", "load(r0+0x8)"}
    assert set(analysis._refs) == {"odd"}


# The dispatcher loads its function pointer, then calls a helper that
# stores, then calls through the pointer: the icall's target register is
# carried backward across the call to the helper
NOTE_DISPATCH = """\
func h0 @0x5100 frame=0 {
bb0:
  ret
}

func note @0x2000 frame=0 {
bb0:
  r1 = gp + 0x40
  store r1 = r0
  ret
}

func dispatch @0x3000 frame=0 {
bb0:
  r3 = gp + 0x20
  r7 = load r3
  call note(r3)
  icall r7()
  ret
}

func main @0x1000 frame=0 {
bb0:
  r1 = 0x5100
  r2 = gp + 0x20
  store r2 = r1
  call dispatch()
  ret
}
"""


def test_icall_resolution_builds_no_ref(monkeypatch):
    """Icall resolution reads MOD and return aliases, never REF: its
    summaries seed no load, and no analysis asks for REF."""
    seeded, asked = [], []
    add_seed, ref = Analysis.add_seed, Analysis._ref

    def record(self, seed):
        if self.confine == {seed.point.func}:
            seeded.append(self.session.statement(seed.point).form)
        return add_seed(self, seed)

    def record_ref(self, fname):
        asked.append(fname)
        return ref(self, fname)

    monkeypatch.setattr(Analysis, "add_seed", record)
    monkeypatch.setattr(Analysis, "_ref", record_ref)
    session = Session(ir.parse_program(NOTE_DISPATCH))
    _, mapping, _ = icall.resolve_all(session)
    assert mapping
    assert "note" in session.summaries
    assert any(isinstance(form, ir.Store) for form in seeded)
    assert not any(isinstance(form, ir.Load) for form in seeded)
    assert asked == []


def test_taint_builds_ref_of_crossed_callee_only(corpus, monkeypatch):
    """A taint run builds REF only for a callee a tainted fact crosses a
    call to, here runit, and the descent through its field read finds the
    copy that the struct field carries the packet pointer to."""
    refs, cell_descents = [], []
    ref, inject = Analysis._ref, Analysis._inject_nested_seed

    def record_ref(self, fname):
        cells = ref(self, fname)
        refs.append((fname, frozenset(S.pretty(c) for c in cells)))
        return cells

    def record_inject(self, parent, site, entry_point, expr):
        if type(expr) is not S.Reg:
            cell_descents.append((str(site), entry_point.func))
        return inject(self, parent, site, entry_point, expr)

    monkeypatch.setattr(Analysis, "_ref", record_ref)
    monkeypatch.setattr(Analysis, "_inject_nested_seed", record_inject)
    result = taint.run_taint(Session(corpus("struct_field_callee.ir")))
    assert set(refs) == {("runit", frozenset({"load(r0+0x8)"}))}
    assert cell_descents == [("main:bb0:5", "runit")]
    assert [(str(a.sink_site), a.sink_fn) for a in result.alerts] == [
        ("runit:bb0:2", "strcpy")]


def test_ref_cap_hits_reach_the_report_once(monkeypatch):
    """A cap hit of the sub-analysis that builds a callee's REF is taken by
    the analysis that descends, and the report lists it once however many
    descents ask for that REF.  A block iteration cap of 0 in runit's REF
    sub-analysis alone stops its walk at once; the seeded load address is
    still rooted at runit's parameter, so the descent and its alert stay."""
    sub_analysis, cap = Analysis._sub_analysis, alias.BLOCK_ITER_CAP
    refs = []

    def capped(self, fname, seeds):
        if not seeds[0].label.startswith("ref:"):
            return sub_analysis(self, fname, seeds)
        refs.append(fname)
        monkeypatch.setattr(alias, "BLOCK_ITER_CAP", 0)
        try:
            return sub_analysis(self, fname, seeds)
        finally:
            monkeypatch.setattr(alias, "BLOCK_ITER_CAP", cap)

    monkeypatch.setattr(Analysis, "_sub_analysis", capped)
    report = pipeline.analyze(pipeline.RunConfig(
        ir_path=str(ROOT / "corpus" / "struct_field_callee.ir")))
    assert refs == ["runit"]
    assert report.cap_hits.count("block iteration cap hit at runit:bb0") == 1
    assert [(a["sink_site"], a["sink_fn"]) for a in report.alerts] == [
        ("runit:bb0:2", "strcpy")]


def test_summary_walk_stays_in_its_function(corpus, monkeypatch):
    walked = []
    original = Analysis.analyze_function

    def record(analysis, fname):
        walked.append((analysis.confine, fname))
        return original(analysis, fname)

    monkeypatch.setattr(Analysis, "analyze_function", record)
    prog = corpus("summary_order.ir")
    Analysis(Session(prog)).summary("main")
    assert {f for (f,), _ in walked} == set(prog.functions)
    assert all(confine == {fname} for confine, fname in walked)


def test_session_shares_program_facts_not_summaries(corpus):
    prog = corpus("summary_order.ir")
    session = Session(prog)
    Analysis(session).summary("h0")
    assert set(session.summaries) == {"h0", "norm0", "norm1", "norm2"}
    assert session.with_resolutions({}) is session
    other = session.with_resolutions({ir.Point("main", "bb0", 1): ("h1",)})
    assert other.func("h0") is session.func("h0")
    assert other.summaries == {}


def test_session_sccs_count_resolved_icalls(corpus):
    session = Session(corpus("mutual_recursion.ir"))
    assert session.cycle("even") == session.cycle("odd") == ("even", "odd")
    assert session.cycle("main") == ()
    # a self-call is a cycle of one
    session = Session(corpus("recursion.ir"))
    assert session.cycle("rec") == ("rec",) and session.cycle("main") == ()
    prog = ir.parse_program("""
func main @0x1000 frame=0 {
bb0:
  r1 = 0x1000
  call relay(r1)
  ret
}

func relay @0x2000 frame=0 {
bb0:
  icall r0()
  ret
}
""")
    session = Session(prog)
    assert session.cycle("main") == session.cycle("relay") == ()
    # relay's icall calls main back: one cycle under the resolution map
    back = session.with_resolutions({ir.Point("relay", "bb0", 0): ("main",)})
    assert back.cycle("main") == back.cycle("relay") == ("main", "relay")
    assert session.cycle("main") == ()


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
    first = Analysis(session)
    first.summary("main")
    second = Analysis(session)
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


def test_exports_outside_a_cycle_take_no_depth_bound(corpus):
    # six acyclic exports carry the parameter up to main; RECURSION_DEPTH
    # bounds only the exports around a call-graph cycle
    prog = corpus("deep_call_chain.ir")
    analysis, sid = analyze_seed(prog, ir.Point("d6", "bb0", 0), "r0",
                                 direction="backward")
    assert {t.point.func for t in analysis.family(sid)} == {
        "d6", "d5", "d4", "d3", "d2", "d1", "main"}
    assert analysis.cap_hits == []


def test_fixpoint_monotone_out_sets(corpus):
    prog = corpus("diamond.ir")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 0), "load(r2+0x4)")
    sizes = {label: (len(st.f.out), len(st.b.out))
             for label, st in analysis.states["main"].items()}
    analysis.analyze_function("main")   # a second run adds nothing
    for label, st in analysis.states["main"].items():
        assert (len(st.f.out), len(st.b.out)) == sizes[label]


def test_saturation_drops_overdeep_expressions(corpus, monkeypatch):
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
    monkeypatch.setattr(alias, "SSE_DEPTH", 3)
    analysis = Analysis(Session(prog))
    sid = analysis.add_seed(Seed(point=ir.Point("main", "bb0", 7),
                                 expr=S.Reg("r1"), direction="backward"))
    analysis.run()
    assert all(S.mem_depth(t.expr) <= 3 for t in analysis.family(sid))


_TWO_LOADS = """
func main @0x1000 frame=0 {
bb0:
  r2 = load r1
  r3 = load r2
  r4 = load r2
  ret r3
}
"""


@pytest.mark.parametrize("bound,value", [("SSE_DEPTH", 1), ("SSE_SIZE", 2)])
def test_saturation_ends_in_one_cap_hit_per_point(bound, value, monkeypatch):
    """Both seeds' `load(load(r1))` at the first statement is past the
    bound: it is dropped, and reported once for that point."""
    monkeypatch.setattr(alias, bound, value)
    analysis = Analysis(Session(ir.parse_program(_TWO_LOADS)))
    for reg in ("r3", "r4"):
        analysis.add_seed(Seed(point=ir.Point("main", "bb0", 3),
                               expr=S.Reg(reg), direction="backward"))
    analysis.run()
    assert analysis.cap_hits == [
        "sse cap hit at main:bb0:0: saturated expression dropped"]


def test_saturation_at_a_callsite_ends_in_a_cap_hit(corpus, monkeypatch):
    """Crossing `ident`'s call backward turns `load(r3)` into `load(r2)`,
    past a size bound of 1: dropped and reported at the callsite."""
    monkeypatch.setattr(alias, "SSE_SIZE", 1)
    analysis, sid = analyze_seed(corpus("callee_ret_alias.ir"),
                                 ir.Point("main", "bb0", 2), "load(r3)",
                                 direction="backward")
    assert family_pretty(analysis, sid) == {"load(r3)"}
    assert analysis.cap_hits == [
        "sse cap hit at main:bb0:1: saturated expression dropped"]


def test_retired_fact_is_not_injected_again(corpus):
    """A merged family member, once retired, is refused wherever it is
    injected again in its function."""
    prog = corpus("loop_copy.ir")
    models = taint.default_models()
    analysis = Analysis(Session(prog), taint.TaintPolicy(models))
    for seed in taint.seed_sources(prog, models):
        analysis.add_seed(seed)
    analysis.run()
    fname, retired = next((f, keys) for f, keys in analysis.retired.items() if keys)
    t = analysis.registry[fname][next(iter(retired))]
    label = analysis.session.locate(t.point)[1]
    assert analysis._inject(fname, label, t, 0, "f") is False
    assert t.key() not in analysis.states[fname][label].f.pool


def test_alias_pairs_need_a_trusted_origin():
    """A seed with bitwise address arithmetic is not trusted, so it is no
    origin for certifiable pairs, though its family is tracked."""
    prog = ir.parse_program("func main @0x1000 frame=0 {\nbb0:\n"
                            "  r2 = r1\n  ret r2\n}\n")
    analysis, sid = analyze_seed(prog, ir.Point("main", "bb0", 0),
                                 "load(r1&0xff)")
    assert "load(r2&0xff)" in family_pretty(analysis, sid)
    assert analysis.alias_pairs(sid) == []


def test_icall_resolution_needs_a_session_without_resolutions(corpus):
    session = Session(corpus("gptr_table.ir"))
    _, mapping, _ = icall.resolve_all(session)
    with pytest.raises(ValueError, match="without resolutions"):
        icall.resolve_all(session.with_resolutions(mapping))


def test_job_cap_ends_in_reported_cap_hit(corpus, monkeypatch):
    """Exports into a caller that has had its `FUNC_JOB_CAP` walks and is
    not queued are dropped and reported, naming the exporting function
    and the caller: at one walk per function, f is walked before ident
    returns, and ident's returned taint never reaches f."""
    from mirtaint import taint

    prog = corpus("context_return.ir")
    assert taint.run_taint(Session(prog)).cap_hits == []
    monkeypatch.setattr(alias, "FUNC_JOB_CAP", 1)
    result = taint.run_taint(Session(prog))
    assert result.cap_hits == ["job cap reached; exports of ident to f dropped"]


def test_job_cap_reached_before_scheduling_is_reported(corpus, monkeypatch):
    """At one walk per function, dup is walked for f first; the walk of
    dup that k's later callsite needs is refused and reported, and so
    are dup's exports to f, and both command alerts are lost.  The cap
    counts the walks of each function, not of the whole program: every
    other function still gets its walk."""
    prog = corpus("late_caller.ir")
    assert len(taint.run_taint(Session(prog)).alerts) == 2
    monkeypatch.setattr(alias, "FUNC_JOB_CAP", 1)
    result = taint.run_taint(Session(prog))
    assert result.cap_hits == ["job cap reached; exports of dup to f dropped",
                               "job cap reached; dup not scheduled"]
    assert result.alerts == []
    assert result.analyzed_functions == 5


def test_job_cap_that_drops_no_new_fact_is_not_reported(corpus, monkeypatch):
    """At two walks per function, dup's second export to f (after k's
    callsite reached dup's descent seed) carries only facts f's callsite
    already has: the cap drops nothing, so no hit names it, and both
    command alerts stay."""
    monkeypatch.setattr(alias, "FUNC_JOB_CAP", 2)
    result = taint.run_taint(Session(corpus("late_caller.ir")))
    assert result.cap_hits == []
    assert sorted(str(a.sink_site) for a in result.alerts) == ["f:bb0:1", "k:bb0:1"]


def test_job_cap_that_drops_a_backward_alias_is_reported(monkeypatch):
    """A parameter's backward alias is a fact the cap can drop too: at one
    walk per function, main is walked for its own seed first, and id's
    alias `load(r0)` of its entry, new at main's callsite, is refused
    there and reported.  At two walks it reaches main."""
    prog = ir.parse_program("func id @0x2000 frame=0 {\nbb0:\n  r1 = load r0\n"
                            "  ret r1\n}\n\nfunc main @0x1000 frame=0x10 {\nbb0:\n"
                            "  r1 = sp\n  r2 = call id(r1)\n  ret r2\n}\n")
    for cap, hits in ((1, ["job cap reached; exports of id to main dropped"]), (2, [])):
        monkeypatch.setattr(alias, "FUNC_JOB_CAP", cap)
        analysis = Analysis(Session(prog))
        analysis.add_seed(Seed(point=ir.Point("main", "bb0", 0), expr=S.Reg("r1"),
                               direction="forward"))
        sid = analysis.add_seed(Seed(point=ir.Point("id", "bb0", 0),
                                     expr=S.parse_sse("load(r0)"), direction="backward"))
        analysis.run()
        assert analysis.cap_hits == hits
        assert ("load(r1)@main:bb0:1" in {f"{S.pretty(t.expr)}@{t.point}"
                                          for t in analysis.family(sid)}) == (cap == 2)


def test_block_iteration_cap_ends_in_reported_cap_hits(corpus, monkeypatch):
    """A block whose forward and backward walks still feed each other after
    `BLOCK_ITER_CAP` rounds stops there, reported as a cap hit."""
    monkeypatch.setattr(alias, "BLOCK_ITER_CAP", 1)
    result = taint.run_taint(Session(corpus("context_return.ir")))
    assert result.cap_hits == ["block iteration cap hit at main:bb0",
                               "block iteration cap hit at ident:bb0"]


def test_a_loop_that_never_settles_takes_the_cap_once(corpus, monkeypatch):
    """Seeded at every register use of `nested_copy.ir`, the outer loop's
    backward loads gain 0x20 of offset a trip, at two inner strides that
    no one family covers, and never settle.  The loop takes
    `FUNC_ROUNDS_CAP` rounds that change something in the whole
    `analyze_function`, not that many in each pass of the function, and
    then the cap hit is reported."""
    merges = []
    merge = Analysis._merge_induction
    monkeypatch.setattr(Analysis, "_merge_induction",
                        lambda self, fname, points: merges.append(points[0][0])
                        or merge(self, fname, points))
    prog = corpus("nested_copy.ir")
    analysis = Analysis(Session(prog))
    for seed in _register_seeds(prog, "main"):
        analysis.add_seed(seed)
    analysis.run()
    assert analysis.cap_hits == ["function fixpoint cap hit in main"]
    # the outer loop, the inner one its part, merges first at `copy`
    assert merges.count("copy") == alias.FUNC_ROUNDS_CAP
    assert 0 < merges.count("clear") < alias.FUNC_ROUNDS_CAP


def test_walk_pop_cap_ends_in_reported_cap_hits(corpus, monkeypatch):
    """A block walk that reaches `WALK_POP_CAP` queue pops stops with what
    it has and is reported as a cap hit, not raised."""
    from mirtaint import taint

    monkeypatch.setattr(alias, "WALK_POP_CAP", 3)
    result = taint.run_taint(Session(corpus("loop_copy.ir")))
    hits = [h for h in result.cap_hits if h.startswith("walk pop cap hit")]
    assert hits
    assert all(re.fullmatch(r"walk pop cap hit at main:\S+", h) for h in hits)


@pytest.mark.parametrize("name,asked,cycle", [
    ("mutual_recursion.ir", ("odd", "even"), "even, odd"),
    ("mutual_recursion.ir", ("even", "odd"), "even, odd"),
    ("recursion.ir", ("rec",), "rec"),
])
def test_cycle_cut_ends_in_one_cap_hit(corpus, name, asked, cycle):
    """A cycle whose second round still changes a summary is cut there
    with one cap hit naming the cycle, taken once by each analysis that
    asks for its members' summaries."""
    session = Session(corpus(name))
    for _ in range(2):      # the second analysis reuses the summaries
        analysis = Analysis(session)
        for fname in asked:
            analysis.summary(fname)
        assert [h for h in analysis.cap_hits if h.startswith("cycle")] == [
            f"cycle round cap hit: summaries of {cycle} still changing "
            "after two rounds"]


def test_settled_cycle_reports_no_cut():
    """A cycle whose summaries are the same after both rounds is not cut."""
    prog = ir.parse_program("""
func ping @0x2000 frame=0 {
bb0:
  call pong()
  ret
}

func pong @0x3000 frame=0 {
bb0:
  call ping()
  ret
}
""")
    analysis = Analysis(Session(prog))
    analysis.summary("ping")
    assert analysis.session.cycle("ping") == ("ping", "pong")
    assert analysis.cap_hits == []


def _register_seeds(prog, fname):
    """A seed for every register each statement of `fname` reads or defines."""
    for stmt in prog.functions[fname].statements():
        regs = set(ir.used_registers(stmt.form))
        regs |= {ir.defined_register(stmt.form)} - {None}
        for r in sorted(regs):
            yield Seed(point=stmt.point, expr=S.Reg(r))


def test_loop_walk_merges_before_a_fourth_stride(corpus):
    """The induction merge runs after every round of the loop's own
    fixpoint, and the loop is stable before the blocks past it are
    walked.  So a family of three strides, two trips round the loop, is
    merged at once: seeded at every register use of `loop_walk.ir`, no
    fact holds the fourth stride of `load(r1)`, only the induction terms
    that cover it, and no unmerged stride leaves the loop."""
    prog = corpus("loop_walk.ir")
    analysis = Analysis(Session(prog))
    for seed in _register_seeds(prog, "main"):
        analysis.add_seed(seed)
    analysis.run()
    facts = analysis.registry["main"].values()
    exprs = {S.pretty(t.expr) for t in facts}
    assert {"load(r1+0x8)", "load(r1+main:s3*0x4)", "load(0x8000+main:s3*0x4)"} <= exprs
    fourth = {"load(0x800c)", "load(r1+0xc)", "load(0x800c)==0x0", "load(r1+0xc)==0x0"}
    assert not exprs & fourth
    loops = analysis.session.func("main").loops
    outside = {S.pretty(t.expr) for t in facts if t.point.block not in loops}
    assert "load(0x8000+main:s3*0x4)" in outside
    assert not [e for e in outside if re.search(r"load\(0x[0-9a-f]+\)", e)]


def _corpus_tables(corpus):
    """Each corpus program's name and its (rule table, facts) pairs: the
    table of every block but a callsite, with every fact its function's
    registry holds, each also tainted, after a taint run from the
    program's sources and a seed at every register of every statement."""
    models = taint.default_models()
    for path in sorted((ROOT / "corpus").glob("*.ir")):
        prog = corpus(path.name)
        analysis = Analysis(Session(prog), taint.TaintPolicy(models))
        for seed in taint.seed_sources(prog, models):
            analysis.add_seed(seed)
        for fname in prog.functions:
            for seed in _register_seeds(prog, fname):
                analysis.add_seed(seed)
        analysis.run()
        pairs = []
        for fname, registry in analysis.registry.items():
            items = list(registry.values())
            items += [replace(t, tainted=True) for t in items if not t.tainted]
            fn = analysis.session.func(fname)
            pairs += [(fn.table(label), items) for label in fn.cfg.order
                      if not fn.cfg.blocks[label].is_call]
        yield path.name, pairs


def test_inert_statements_step_to_nothing(corpus):
    """Wherever the row index leaves a statement out for an expression
    and direction, stepping the expression across that statement in that
    direction yields nothing, kills nothing, keeps the very same
    expression and records no comparison fact: over every fact the
    corpus programs derive, tainted or not."""
    models = taint.default_models()
    inert = 0
    for name, pairs in _corpus_tables(corpus):
        policy = taint.TaintPolicy(models)
        walker = _Walker(policy)
        for table, items in pairs:
            for t in items:
                for forward, step in ((True, walker.forward_step),
                                      (False, walker.backward_step)):
                    relevant = table.relevant(t.expr, forward, t.tainted)
                    for i, row in enumerate(table.rows):
                        if relevant >> i & 1:
                            continue
                        inert += 1
                        out = step(row, i, t)
                        assert not out.successors and not out.killed, (
                            name, row.stmt, S.pretty(t.expr), forward)
                        assert out.expr is t.expr
        assert policy.cmp_facts == {}, name
    assert inert > 1000


def _relevant_reference(table, e, forward, tainted):
    """The rows `_Table.relevant` should give, one by one from each row's
    fields and `e`'s nodes: the rows that define a register of `e`, whose
    use pattern or stored value is a node of `e`, whose address is that
    of a memory node of `e`, that read `e` when it is a tainted register,
    and the stores that mark a memory node of `e` stale in the direction."""
    nodes = list(S.subtrees(e))
    mems = [n for n in nodes if type(n) in (S.Load, S.Store)]
    mask = 0
    for i, row in enumerate(table.rows):
        form = row.stmt.form
        pats = [pat for _, pat, _, _ in row.uses] + [row.value]
        if ((row.dst is not None and row.dst.name in S.registers(e))
                or any(pat is not None and pat in nodes for pat in pats)
                or any(n.addr == row.addr for n in mems)
                or (tainted and type(e) is S.Reg
                    and e.name in ir.used_registers(form))
                or (type(form) is ir.Store and any(
                    n.birth < i and not n.stale_fwd if forward
                    else n.birth > i and not n.stale_bwd for n in mems))):
            mask |= 1 << i
    return mask


def test_row_index_is_exact(corpus):
    """The row index gives exactly the rows the reference picks from each
    row's fields, both directions, over every fact the corpus programs
    derive, tainted or not: the rows it leaves out do nothing
    (`test_inert_statements_step_to_nothing`), and it takes no other."""
    queries = 0
    for name, pairs in _corpus_tables(corpus):
        for table, items in pairs:
            for t in items:
                for forward in (True, False):
                    queries += 1
                    assert table.relevant(t.expr, forward, t.tainted) == \
                        _relevant_reference(table, t.expr, forward, t.tainted), (
                            name, S.pretty(t.expr), forward, t.tainted)
    assert queries > 1000


_STORE_BLOCK = """
func f @0x1000 frame=0 {
bb0:
  r1 = r2
  r3 = r4
  store r5 = r6
  r7 = r8
  r9 = r10
  ret
}
"""


@pytest.mark.parametrize("birth,stale,forward,relevant", [
    (1, "", True, True),          # born the row before the store
    (2, "", True, False),         # born at the store
    (1, "fwd", True, False),      # already stale forward
    (1, "bwd", True, True),       # stale the other way only
    (3, "", False, True),         # born the row after the store
    (2, "", False, False),        # born at the store
    (3, "bwd", False, False),     # already stale backward
    (3, "fwd", False, True),      # stale the other way only
])
def test_store_row_relevant_exactly_where_it_marks(birth, stale, forward, relevant):
    """A store sharing no register with an expression is relevant to it
    in a direction exactly when stepping across the store marks one of
    its memory nodes stale: forward when a node not yet stale forward is
    born before the store, backward when one not yet stale backward is
    born after it."""
    prog = ir.parse_program(_STORE_BLOCK)
    table = alias._table(prog.functions["f"].blocks[0].stmts)
    assert isinstance(table.rows[2].stmt.form, ir.Store)
    node = S.Load(S.Reg("r20"), birth, stale == "fwd", stale == "bwd")
    for expr in (node, S.Bin("+", node, S.Reg("r21"))):
        t = Tracked(expr=expr, point=ir.Point("f", "bb0", 0), phase="pre",
                    seed_id=0)
        mask = table.relevant(expr, forward)
        assert mask == (1 << 2 if relevant else 0)
        walker = _Walker()
        step = walker.forward_step if forward else walker.backward_step
        out = step(table.rows[2], 2, t)
        assert not out.successors and not out.killed
        assert (out.expr is not expr) == relevant


def test_register_free_rows_relevant_where_their_immediate_occurs():
    """A row with a register-free pattern can meet an expression that
    shares no register with it, so the index keeps it for an expression
    that holds its immediate, and only for such an expression."""
    prog = ir.parse_program(
        "func f @0x1000 frame=0 {\nbb0:\n  r1 = r2\n  r3 = 0x8\n"
        "  store r4 = 0x8\n  r5 = r6 + r7\n  ret\n}\n")
    table = alias._table(prog.functions["f"].blocks[0].stmts)
    expr = S.canonicalize(S.parse_sse("r9+0x8"))
    for forward in (True, False):
        assert table.relevant(expr, forward) == 0b110
        assert table.relevant(S.canonicalize(S.parse_sse("r9+0x10")), forward) == 0
    t = Tracked(expr=expr, point=ir.Point("f", "bb0", 0), phase="pre", seed_id=0)
    _, created, _, _ = alias._walk(alias._table(prog.functions["f"].blocks[0].stmts[:2]),
                                   [(t, 0)], None, True, {})
    assert "r3+r9" in {S.pretty(u.expr) for u, d, _ in created if "f" in d}


def test_retire_clears_every_pool_and_pending_list(corpus, monkeypatch):
    """Retiring merged family members takes their keys out of every
    block's pools, out sets and pending lists."""
    original = Analysis._retire
    calls = []

    def checked(self, fname, keys):
        original(self, fname, keys)
        calls.append(fname)
        retired = self.retired[fname]
        for st in self.states[fname].values():
            for side in (st.f, st.b):
                for store in (side.pool, side.out):
                    assert not store.keys() & retired
                assert not {t.key() for t, _ in side.pend} & retired

    monkeypatch.setattr(Analysis, "_retire", checked)
    result = taint.run_taint(Session(corpus("loop_copy.ir")))
    assert calls and len(result.alerts) == 1


def _facts_by_key(analysis):
    """Every fact the analysis holds in its registry, pools, out sets and
    pending lists, each checked to sit under its own key."""
    facts = []
    stores = [*analysis.registry.values()]
    for states in analysis.states.values():
        for st in states.values():
            for side in (st.f, st.b):
                stores += [side.pool, side.out]
                facts += [t for t, _ in side.pend]
    for store in stores:
        for k, t in store.items():
            assert k == t.key()
            facts.append(t)
    return facts


def test_fact_keys_group_as_expression_keys(corpus, monkeypatch):
    """The key built from the expression's structure id groups facts
    exactly as the key holding the expression itself, compared
    structurally, did: over every analysis of icall resolution, a taint
    run and a run from every register of every statement of each corpus
    program, summaries and REF included."""
    models = taint.default_models()
    analyses = []
    groups = 0
    run = Analysis.run

    def kept(self):
        run(self)
        analyses.append(self)

    monkeypatch.setattr(Analysis, "run", kept)
    for path in sorted((ROOT / "corpus").glob("*.ir")):
        analyses.clear()
        session = Session(corpus(path.name))
        _, mapping, _ = icall.resolve_all(session)
        resolved = session.with_resolutions(mapping)
        taint.run_taint(resolved, models)
        everywhere = Analysis(resolved, taint.TaintPolicy(models))
        for seed in taint.seed_sources(resolved.program, models):
            everywhere.add_seed(seed)
        for fname in resolved.program.functions:
            for seed in _register_seeds(resolved.program, fname):
                everywhere.add_seed(seed)
        everywhere.run()
        for analysis in analyses:
            by_key, by_expr = {}, {}
            for t in _facts_by_key(analysis):
                old = (t.expr, t.seed_id, t.tainted, t.derived, t.conds)
                by_key.setdefault(t.key(), set()).add(old)
                by_expr.setdefault(old, set()).add(t.key())
            assert all(len(olds) == 1 for olds in by_key.values()), path.name
            assert all(len(keys) == 1 for keys in by_expr.values()), path.name
            groups += len(by_key)
    assert groups > 2000


def _family_keys(session, expr):
    """The fact keys of the family of the query `expr` at main:bb0:0."""
    analysis = Analysis(session)
    sid = analysis.add_seed(Seed(point=ir.Point("main", "bb0", 0), expr=expr))
    analysis.run()
    return {t.key() for t in analysis.family(sid)}


def test_seed_built_before_the_session_keys_as_one_built_in_it(corpus):
    """An expression built before the session reset the intern table, as
    `pipeline` parses `--seed` queries, keys its facts as the same
    expression built inside the session does."""
    prog = corpus("intuitive.ir")
    early = S.parse_sse("load(r3+0x8)")
    session = Session(prog)
    keys = [_family_keys(session, e) for e in (early, S.parse_sse("load(r3+0x8)"))]
    assert len(keys[0]) == 3
    assert keys[0] == keys[1]


def test_analysis_on_a_session_whose_table_was_replaced(corpus):
    """Structure ids outlive the intern table, so an analysis on a session
    after a later session has started another table keys its facts as one
    on a fresh session does."""
    prog = corpus("intuitive.ir")
    old = Session(prog)
    Session(prog)
    keys = [_family_keys(s, S.parse_sse("load(r3+0x8)")) for s in (old, Session(prog))]
    assert len(keys[0]) == 3
    assert keys[0] == keys[1]


def test_nodes_and_tracked_have_no_dict():
    r = S.Reg("r1")
    point = ir.Point("main", "bb0", 0)
    cond = Cond("r4", True, point)
    objects = [r, S.Val(1), S.Bin("+", r, S.Val(8)), S.Un("~", r), S.Load(r),
               S.Store(r), S.IndexTerm(r, 8, "i"), cond,
               Tracked(expr=r, point=point, phase="pre", seed_id=0, conds=(cond,))]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


_ITE_PROBE = """
import json, sys
from mirtaint import alias, ir, pipeline, sse as S
prog = pipeline.load_program(sys.argv[1])
analysis = alias.Analysis(alias.Session(prog))
for stmt in prog.functions["main"].statements():
    regs = set(ir.used_registers(stmt.form))
    regs |= {ir.defined_register(stmt.form)} - {None}
    for r in sorted(regs):
        analysis.add_seed(alias.Seed(point=stmt.point, expr=S.Reg(r)))
analysis.run()
print(json.dumps(sorted(
    (S.pretty(t.expr), [[c.reg, c.value, str(c.point)] for c in t.conds])
    for registry in analysis.registry.values() for t in registry.values()
    if len(t.conds) > 1)))
"""


def test_ite_conditions_ordered_independent_of_hash_seed():
    """Conditions of several ITEs sort the same way whatever the hash
    seed, so `Tracked.key()` does not depend on it."""
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _ITE_PROBE,
             str(ROOT / "corpus" / "ite_exclusive.ir")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0], "ite_exclusive.ir should give multi-condition aliases"
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["ite_select.ir", "ite_exclusive.ir"])
def test_no_alias_needs_both_arms_of_one_ite(corpus, name):
    """An alias under both `c` and `!c` of one ITE can never hold, so the
    walker emits none, with every register of `main` seeded everywhere."""
    prog = corpus(name)
    analysis = Analysis(Session(prog))
    for stmt in prog.functions["main"].statements():
        regs = set(ir.used_registers(stmt.form))
        regs |= {ir.defined_register(stmt.form)} - {None}
        for r in sorted(regs):
            analysis.add_seed(Seed(point=stmt.point, expr=S.Reg(r)))
    analysis.run()
    tracked = [t for reg in analysis.registry.values() for t in reg.values()]
    assert any(len(t.conds) > 1 for t in tracked) == (name == "ite_exclusive.ir")
    for t in tracked:
        arms = {(c.reg, c.point) for c in t.conds}
        assert len(arms) == len(t.conds), (S.pretty(t.expr), t.conds)


# -- spent memory nodes: stale in both directions ------------------------------

# The 820th program of `oracle.gen_program(random.Random(3), 30)`, kept as
# text because what the generator yields for a seed may change.
_SELF_STORES = """
func main @0x1000 frame=0x0 {
bb0:
  r3 = load r2
  r2 = neg r1
  store r1 = r3
  r0 = r1 & 0xfe
  store r3 = 0x29
  store r3 + 0x4 = r0
  store r1 + 0x8 = r1
  r2 = load r3
  store r0 = r0
  r0 = r1 & r0
  r2 = load r1
  r2 = load r1 + 0x4
  store r0 + 0x8 = r1
  store r2 = r1
  r0 = ~r3
  r2 = load r2
  r3 = r2 - r1
  r2 = load r1
  r2 = load r3
  store r2 = r3
  store r1 = 0xfa
  r3 = r1 ^ r2
  store r1 + 0x8 = 0x35
  r0 = ite r3, r3, 0x14
  store r2 = 0x3b
  store r1 = 0xa4
  ret r0
}
"""


def test_self_referential_stores_keep_the_family_small():
    """Self-referential stores such as `store r1 + 0x8 = r1` (the shape
    of `p->next = p`) mark memory nodes stale in both directions.  From
    one seed the engine once derived 13,867 aliases here, 6 of them
    trusted, nearly all holding such a node; it now drops them."""
    analysis, sid = analyze_seed(ir.parse_program(_SELF_STORES),
                                 ir.Point("main", "bb0", 3), "r2")
    family = analysis.family(sid)
    assert len(family) <= 300
    assert sum(t.trusted() for t in family) == 6


def _both_stale(e):
    return S.mark_stale(S.mark_stale(e, lambda n: True, "fwd"), lambda n: True, "bwd")


@pytest.mark.parametrize("tainted", [False, True], ids=["plain", "tainted"])
def test_spent_successors_dropped_but_taint_descent_shapes_kept(tainted):
    """A successor holding a spent memory node is dropped, unless it is
    tainted and not itself a spent `store`: a taint descent matches a
    bare load by structure whatever its tags, a store not stale forward
    by its address, and a sum such as `load*(r1) + r2` turns into a bare
    load where `r2` is bound to 0."""
    spent = _both_stale(S.canonicalize(S.Load(S.Reg("r1"), birth=0)))
    stale_bwd_store = S.mark_stale(
        S.canonicalize(S.Store(S.Bin("+", spent, S.Val(8)), birth=0)),
        lambda n: type(n) is S.Store, "bwd")
    cases = [
        (S.canonicalize(S.Load(S.Reg("r1"))), True, True),
        (spent, False, True),
        (S.canonicalize(S.Bin("+", spent, S.Reg("r2"))), False, True),
        (stale_bwd_store, False, True),
        (_both_stale(S.canonicalize(S.Store(S.Reg("r1")))), False, False),
    ]
    parent = Tracked(expr=S.Reg("r3"), point=ir.Point("main", "bb0", 0),
                     phase="pre", seed_id=0, tainted=tainted)
    for expr, plain_kept, tainted_kept in cases:
        kept = alias._bounded(parent, expr, parent.point, "post") is not None
        assert kept == (tainted_kept if tainted else plain_kept), S.pretty(expr)


@pytest.mark.parametrize("tainted", [False, True], ids=["plain", "tainted"])
def test_walk_ends_a_fact_its_step_makes_spent(tainted):
    """A walked fact that a store makes stale in its second direction
    stops there, before `r2 = r1` renames it, unless it is one of the
    tainted shapes a descent can still match."""
    prog = ir.parse_program("func main @0x1000 frame=0 {\nbb0:\n"
                            "  store r5 = r6\n  r2 = r1\n  ret\n}")
    stmts = list(prog.functions["main"].statements())[:2]
    stale_bwd = S.mark_stale(S.canonicalize(S.Load(S.Reg("r1"))),
                             lambda n: True, "bwd")
    t = Tracked(expr=stale_bwd, point=stmts[0].point, phase="pre", seed_id=0,
                tainted=tainted)
    survivors, created, _, _ = alias._walk(alias._table(stmts), [(t, 0)], None,
                                           True, {})
    out_f = survivors + [u for u, d, _ in created if "f" in d]
    want = {"load(r1)", "load(r2)"} if tainted else set()
    assert {S.pretty(u.expr) for u in out_f} == want
    assert all(S.holds_spent(u.expr) for u in out_f)


def test_taint_through_a_store_over_a_spent_load_still_descends():
    """The tainted cell `store(load(r9) + 0x8)` reaches `reader(r9)` with
    its inner load stale both ways: `store r7 = r8` comes between the
    load and the rename above it, `store r6 + 0x8 = r1` after it.  The
    store is not stale forward, so the descent matches it by address
    against `reader`'s cell `load(load(r0) + 0x8)` and the taint reaches
    `system`."""
    prog = ir.parse_program("""
func reader @0x2000 frame=0x40 {
bb0:
  r5 = load r0
  r1 = load r5 + 0x8
  call system(r1)
  ret
}

func main @0x1000 frame=0x80 {
  buf in @0x0 size 0x40
bb0:
  r1 = sp
  r2 = 0x40
  r3 = call recv(r9, r1, r2)
bb1:
  r4 = r9
  store r7 = r8
  r6 = load r4
  store r6 + 0x8 = r1
  call reader(r9)
  ret
}
""")
    result = taint.run_taint(Session(prog))
    assert [str(a.sink_site) for a in result.alerts] == ["reader:bb0:2"]


def test_taint_of_a_sum_that_folds_into_a_spent_load_still_descends():
    """In `g`, the received buffer is `load(r0) + r1`, whose load is stale
    both ways by the time `g` returns.  The call `g(r1, 0x0, r9)` passes 0
    in `r1`, so the returned fact is the bare load `load(r1)` of main, the
    cell `reader(r1)` reads and passes to `system`."""
    prog = ir.parse_program("""
func g @0x2000 frame=0x40 {
bb0:
  r10 = r0
  store sp + 0x8 = r1
  r3 = load r10
  r4 = r3 + r1
  r5 = call recv(r2, r4, 0x40)
  store sp + 0x10 = r1
  ret r5
}

func reader @0x3000 frame=0x40 {
bb0:
  r1 = load r0
  call system(r1)
  ret
}

func main @0x1000 frame=0x80 {
bb0:
  r1 = gp + 0x40
  r9 = 0x5
  r3 = call g(r1, 0x0, r9)
  call reader(r1)
  ret
}
""")
    result = taint.run_taint(Session(prog))
    assert [str(a.sink_site) for a in result.alerts] == ["reader:bb0:1"]


def test_session_compiles_each_form_once():
    """The rows of equal statements in different blocks share the parts
    compiled from their form; an ITE's arm conditions still name each
    statement's own point."""
    prog = ir.parse_program(
        "func f @0x1000 frame=0 {\nbb0:\n  r6 = r1 + r2\n"
        "  r3 = ite r4, r5, 0x0\n  jump bb1\nbb1:\n  r6 = r1 + r2\n"
        "  r3 = ite r4, r5, 0x0\n  ret\n}\n")
    session = Session(prog)
    (add0, ite0, _), (add1, ite1, _) = (session.func("f").table(label).rows
                                        for label in ("bb0", "bb1"))
    # SSE nodes are interned anyway; the tuples holding them are built once
    assert add1.uses is add0.uses and add1.carriers is add0.carriers
    assert add1.stmt.point == ir.Point("f", "bb1", 0)
    assert [c.point for _, _, c, _ in ite0.uses] == [ir.Point("f", "bb0", 1)] * 2
    assert [c.point for _, _, c in ite1.defs] == [ir.Point("f", "bb1", 1)] * 2
    assert [(r, p, c.value) for r, p, c, _ in ite1.uses] == [
        (r, p, c.value) for r, p, c, _ in ite0.uses]
    assert ite1.uses[0][1] is ite0.uses[0][1]
