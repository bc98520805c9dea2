import json
import pathlib

import pytest

from mirtaint import alias
from mirtaint import cfg as C
from mirtaint import icall as IC
from mirtaint import ir
from mirtaint import oracle, pipeline
from mirtaint import sse as S
from mirtaint import taint as T
from mirtaint.alias import Analysis, Session

ATOI_LEN = str(pathlib.Path(__file__).resolve().parent.parent / "corpus" / "atoi_len.ir")


def run(corpus, name, icalls=True):
    prog = corpus(name)
    if icalls:
        _, mapping, _ = IC.resolve_all(Session(prog), C.find_address_taken(prog))
    else:
        mapping = {}
    return prog, T.run_taint(Session(prog).with_resolutions(mapping))


# -- models ---------------------------------------------------------------

def test_default_model_counts():
    models = T.default_models()
    assert len(models.sources) == 9
    assert len(models.sinks) == 11
    assert len(models.summaries) == 29


def test_strcpy_summary_flows_src_to_dst():
    strcpy = T.default_models().summaries["strcpy"]
    assert (1, 0) in strcpy.flows


def test_load_models_defaults():
    models, diags = T.load_models(None)
    assert diags == [] and len(models.summaries) == 29


def test_load_models_extends(tmp_path):
    cfg = tmp_path / "models.json"
    cfg.write_text(json.dumps({
        "sinks": [{"name": "do_cmd", "class": "exec", "checked_args": [0]}],
        "summaries": [{"name": "strcpy", "flows": [[1, 0]]}],
    }))
    models, diags = T.load_models(str(cfg))
    assert diags == []
    assert "do_cmd" in models.sinks and len(models.sinks) == 12
    assert models.summaries["strcpy"].flows == ((1, 0),)


def test_load_models_malformed_keeps_defaults(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    models, diags = T.load_models(str(cfg))
    assert len(diags) == 1 and len(models.sinks) == 11


@pytest.mark.parametrize("config", [
    {"sources": [{"name": "recv", "taints": "ret"}]},
    {"sources": [{"name": "recv", "taints": [-1]}]},
    {"sources": [{"name": "recv", "taints": [True]}]},
    {"sources": [{"name": "recv", "fd_arg": "x"}]},
    {"sources": [{"name": "recv", "fd_arg": "ret"}]},
    {"sinks": [{"name": "strcpy", "checked_args": ["a"]}]},
    {"sinks": [{"name": "strcpy", "checked_args": ["ret"]}]},
    {"sinks": [{"name": "strcpy", "len_arg": "x"}]},
    {"sinks": [{"name": "strcpy", "dst_arg": -2}]},
    {"sinks": [{"name": "strcpy", "class": "format"}]},
    {"summaries": [{"name": "atoi", "flows": [["a", "b"]]}]},
    {"summaries": [{"name": "atoi", "flows": [[0]]}]},
    {"summaries": [{"name": "atoi", "flows": [["ret", 0]]}]},
    {"summaries": [{"name": "atoi", "flows": "ret"}]},
    {"summaries": [{"name": "atoi", "flows": {}}]},
    {"sinks": [["strcpy"]]},
    {"summaries": ["atoi"]},
], ids=["taints-str", "taints-negative", "taints-bool", "fd-str", "fd-ret",
        "checked-str", "checked-ret", "len-str", "dst-negative", "class",
        "flows-str", "flows-short", "flows-from-ret", "flows-not-list",
        "flows-object", "sink-not-object", "summary-not-object"])
def test_load_models_malformed_entry_keeps_defaults(config, tmp_path):
    """A config entry with a malformed field is handled as unparsable JSON:
    the defaults stay, one diagnostic says why, and the run completes."""
    cfg = tmp_path / "models.json"
    cfg.write_text(json.dumps(config))
    models, diags = T.load_models(str(cfg))
    assert len(diags) == 1 and "bad taint config" in diags[0].message
    assert models == T.default_models()
    report = pipeline.analyze(pipeline.RunConfig(
        ir_path=ATOI_LEN, config_path=str(cfg)))
    assert sum("bad taint config" in w for w in report.warnings) == 1


# -- seeding ----------------------------------------------------------------

def test_seed_sources_recv(corpus):
    prog = corpus("overflow_icall.ir")
    seeds = T.seed_sources(prog, T.default_models())
    (seed,) = seeds
    assert seed.tainted and seed.trigger == seed.point
    assert seed.expr == S.Reg("r1")


def test_seed_sources_getenv_return(corpus):
    prog = corpus("getenv_source.ir")
    seeds = T.seed_sources(prog, T.default_models())
    assert any(s.expr == S.Reg("r2") for s in seeds)


def test_fd_filter_skips_fixed_file(corpus):
    prog = corpus("read_fixed_fd.ir")
    assert T.seed_sources(prog, T.default_models()) == []


def test_fd_filter_keeps_unknown_fd(corpus):
    prog = corpus("read_net_fd.ir")
    assert len(T.seed_sources(prog, T.default_models())) == 1


def test_no_sources_no_seeds(corpus):
    assert T.seed_sources(corpus("moves.ir"), T.default_models()) == []


# -- propagation --------------------------------------------------------------

def test_end_to_end_single_alert(corpus):
    _, result = run(corpus, "overflow_icall.ir")
    assert len(result.alerts) == 1
    (alert,) = result.alerts
    assert alert.sink_fn == "strcpy" and alert.klass == "copy-like"
    assert alert.capacity == 32 and alert.stack_offset == 32
    assert str(alert.sink_site) == "worker:bb0:1"
    assert alert.chain[0] == "handler:bb0:2"


def test_constant_guard_suppresses(corpus):
    _, result = run(corpus, "overflow_guarded_const.ir")
    assert result.alerts == [] and result.tainted_sinks == 1


def test_symbolic_guard_suppresses(corpus):
    _, result = run(corpus, "overflow_guarded_sym.ir")
    assert result.alerts == [] and result.tainted_sinks == 1


def test_ablation_shape(corpus):
    _, with_icall = run(corpus, "overflow_icall.ir", icalls=True)
    _, without = run(corpus, "overflow_icall.ir", icalls=False)
    assert len(without.alerts) == 0 < len(with_icall.alerts)
    assert without.tainted_blocks < with_icall.tainted_blocks


def test_backward_alias_untainted_before_trigger(corpus):
    """Around a source's trigger, registry entries are untainted up to the
    trigger's "pre" side and tainted after it.  Entries are ordered by
    program position as `oracle.evaluable` orders them: a statement's
    "post" side is the next statement's "pre" side.  Checked on a
    pointer-argument source (recv at handler:bb0:2) and a return-value
    source (getenv at main:bb0:1)."""
    models = T.default_models()

    def position(t):
        return t.point.index + (1 if t.phase == "post" else 0)

    for name in ("overflow_icall.ir", "getenv_source.ir"):
        prog = corpus(name)
        seeds = T.seed_sources(prog, models)
        (trigger,) = {s.trigger for s in seeds}
        analysis = Analysis(Session(prog), T.TaintPolicy(models))
        for seed in seeds:
            analysis.add_seed(seed)
        analysis.run()
        in_block = [t for t in analysis.registry[trigger.func].values()
                    if t.point.block == trigger.block]
        before = [t for t in in_block if position(t) <= trigger.index]
        assert before and all(not t.tainted for t in before), name
        after = [t for t in in_block if position(t) > trigger.index]
        assert any(t.tainted for t in after), name


def test_arithmetic_propagates_taint():
    prog = ir.parse_program("""
func main @0x1000 frame=0x40 {
bb0:
  r1 = sp
  r2 = 0x40
  r3 = call recv(r9, r1, r2)
  r4 = r1 + 0x1
  r5 = call system(r4)
  ret
}
""")
    result = T.run_taint(Session(prog))
    assert len(result.alerts) == 1


def test_command_exec_alert_and_suppression(corpus):
    _, hot = run(corpus, "system_cmdi.ir", icalls=False)
    assert len(hot.alerts) == 1 and hot.alerts[0].klass == "command-exec"
    _, cold = run(corpus, "system_guarded.ir", icalls=False)
    assert cold.alerts == []


def test_memcpy_constant_bounds(corpus):
    _, bad = run(corpus, "memcpy_bound_bad.ir", icalls=False)
    (alert,) = bad.alerts
    assert alert.bound == 0x80 and alert.capacity == 0x20
    _, ok = run(corpus, "memcpy_bound_ok.ir", icalls=False)
    assert ok.alerts == []


def test_tainted_length_argument_alerts(corpus):
    _, result = run(corpus, "atoi_len.ir", icalls=False)
    assert len(result.alerts) == 1


def test_loop_copy_idiom_detected(corpus):
    _, result = run(corpus, "loop_copy.ir", icalls=False)
    (alert,) = result.alerts
    assert alert.sink_fn == "loop-copy"
    assert "loop copy" in alert.verdict


def test_unmodeled_library_warns():
    prog = ir.parse_program("""
func main @0x1000 frame=0x40 {
bb0:
  r1 = sp
  r2 = 0x40
  r3 = call recv(r9, r1, r2)
  r4 = call frobnicate(r1)
  ret
}
""")
    result = T.run_taint(Session(prog))
    assert any("unmodeled frobnicate" in w for w in result.warnings)


def test_each_warning_recorded_once():
    """A warning is recorded once per analysis, in first-occurrence order,
    however many tainted facts cross the site or visits reach it."""
    prog = ir.parse_program("""
func main @0x1000 frame=0x40 {
bb0:
  r1 = sp
  r2 = 0x40
  r3 = call recv(r9, r1, r2)
  r4 = r1 + 0x8
  r5 = load r1
  r6 = call frobnicate(r4)
  icall r7(r5)
  r8 = call mystery(r5)
  ret r8
}
""")
    assert T.run_taint(Session(prog)).warnings == [
        "tainted argument to unmodeled frobnicate at main:bb0:5; taint kept",
        "unresolved indirect call at main:bb0:6; treated as no-op",
        "tainted argument to unmodeled mystery at main:bb0:7; taint kept"]


def test_metrics_consistent(corpus):
    for name in ("overflow_icall.ir", "system_cmdi.ir", "summaries_tour.ir"):
        _, result = run(corpus, name)
        assert len(result.alerts) <= result.tainted_sinks
        assert result.covered_blocks >= result.tainted_blocks


def test_check_sink_overflow_confirmed_by_execution(corpus):
    """The flagged memcpy really writes past the frame top: execute the
    program and observe bytes at and beyond sp+frame_size being
    written (0x80 copied into the 0x20 bytes of headroom)."""
    prog = corpus("memcpy_bound_bad.ir")
    frame = prog.functions["main"].frame_size
    res = oracle.run(prog, entry="main", seed=5,
                     watch={(ir.Point("main", "bb0", 6), "post")})
    ((regs, mem, _),) = list(res.snapshots.values())
    top = regs["sp"] + frame
    assert any(a in mem for a in range(top, top + 0x20))


def test_backward_family_runs_afresh_and_hands_on_its_cap_hits(corpus, monkeypatch):
    """A backward sink query returns a tuple.  Each call runs an analysis
    of its own, so a second call gives an equal family from a new
    analysis, and appends that analysis's cap hits to the list passed in."""
    made = []

    class Recording(Analysis):
        def run(self):
            super().run()
            self._cap_hit(f"probe {len(made)}")
            made.append(self)

    monkeypatch.setattr(T, "Analysis", Recording)
    session = Session(corpus("memcpy_bound_bad.ir"))
    point = ir.Point("main", "bb0", 5)
    hits = ["earlier"]
    first = T._backward_family(session, point, "r4", hits)
    assert isinstance(first, tuple)
    assert S.parse_sse("sp+0x20") in first and S.parse_sse("r4") in first
    assert hits == ["earlier", *made[0].cap_hits]
    assert T._backward_family(session, point, "r4", hits) == first
    assert len(made) == 2 and made[1] is not made[0]
    assert hits == ["earlier", *made[0].cap_hits, *made[1].cap_hits]
    assert made[1].cap_hits[-1] == "probe 1"


def _taint_analysis(prog):
    models = T.default_models()
    analysis = Analysis(Session(prog), T.TaintPolicy(models))
    for seed in T.seed_sources(prog, models):
        analysis.add_seed(seed)
    analysis.run()
    return analysis


def _descents_into(analysis, callee):
    return {sid: sites for (f, sid), sites in analysis._descents.items()
            if f == callee}


def _functions_holding(analysis, sid):
    return {f for f, reg in analysis.registry.items()
            for t in reg.values() if t.seed_id == sid}


def test_descent_seed_serves_every_callsite_that_reaches_it(corpus):
    # f and k pass dup the same tainted fact under the same trigger, k only
    # after dup was walked and exported for f: one descent seed records
    # both callsites, and both get dup's result back
    analysis = _taint_analysis(corpus("late_caller.ir"))
    into_dup = _descents_into(analysis, "dup")
    assert list(into_dup.values()) == [{ir.Point("f", "bb0", 0),
                                        ir.Point("k", "bb0", 0)}]
    (sid,) = into_dup
    assert _functions_holding(analysis, sid) == {"dup", "f", "k"}


def test_descent_returns_only_to_its_callsites(corpus):
    # g passes ident its own frame pointer: the descent from f's tainted
    # argument must not come back at g's callsite
    analysis = _taint_analysis(corpus("context_return.ir"))
    into_ident = _descents_into(analysis, "ident")
    assert list(into_ident.values()) == [{ir.Point("f", "bb0", 0)}]
    (sid,) = into_ident
    assert _functions_holding(analysis, sid) == {"ident", "f"}


_GUARDED_LOOP = """
func main @0x1000 frame=0x30 {{
  buf out @0x10 size 0x20
bb0:
  r1 = sp
  r9 = 0x40
  r2 = call recv(r8, r1, r9)
  r7 = load r1
  r10 = {guard}
  branch r10, copy, done
copy:
  r3 = sp + 0x10
  r4 = 0x0
  jump head
head:
  r5 = r4 < 0x20
  branch r5, body, done
body:
  r6 = load r1
  store r3 = r6
  r1 = r1 + 0x4
  r3 = r3 + 0x4
  r4 = r4 + 0x1
  jump head
done:
  ret
}}
"""


def _loop_copy_verdicts(guard):
    """The loop-copy hits of `_GUARDED_LOOP` under `guard`, each with what
    `check_sink` makes of it, and the alerts of the whole taint run."""
    prog = ir.parse_program(_GUARDED_LOOP.format(guard=guard))
    analysis = _taint_analysis(prog)
    constraints = analysis.policy.edge_constraints(analysis)
    hits = T.detect_loop_copies(analysis)
    verdicts = [(h, T.check_sink(analysis.session, h, constraints, [])) for h in hits]
    return verdicts, T.run_taint(Session(prog)).alerts


def test_loop_copy_hit_within_constant_bound_is_safe():
    ((hit, alert),), alerts = _loop_copy_verdicts("r7 < 0x11")
    assert hit.sink is T.LOOP_COPY and str(hit.point) == "main:body:1"
    assert hit.dst == "r3" and hit.length is None
    assert alert is None and alerts == []


def test_loop_copy_hit_past_constant_bound_alerts():
    ((hit, alert),), alerts = _loop_copy_verdicts("r7 < 0x41")
    assert alert is not None and alerts == [alert]
    assert alert.sink_fn == "loop-copy" and alert.klass == "copy-like"
    assert alert.bound == 0x40 and alert.capacity == 0x20
    assert alert.stack_offset == 0x10
    assert alert.verdict == "bound 64 exceeds capacity 32"


def test_loop_copy_hit_under_symbolic_bound_is_safe():
    ((hit, alert),), alerts = _loop_copy_verdicts("r7 < r9")
    assert alert is None and alerts == []


# -- model, seeding and verdict edges -----------------------------------------

def test_load_models_needs_an_object(tmp_path):
    cfg = tmp_path / "models.json"
    cfg.write_text("[]")
    models, diags = T.load_models(str(cfg))
    assert [str(d) for d in diags] == [
        f"?: bad taint config {cfg}: top level must be an object"]
    assert models == T.default_models()


def test_seeding_skips_what_a_call_cannot_taint():
    """A source read from an immediate descriptor is seeded (only a
    register opened on a fixed path is filtered); a `getenv` whose result
    is dropped and a `recv` with no buffer argument seed nothing."""
    prog = ir.parse_program("""
func main @0x1000 frame=0x40 {
bb0:
  r1 = sp
  r2 = call read(0x3, r1, 0x10)
  call getenv(r1)
  call recv(r9)
  ret
}
""")
    (seed,) = T.seed_sources(prog, T.default_models())
    assert seed.point == ir.Point("main", "bb0", 1) and seed.expr == S.Reg("r1")


@pytest.mark.parametrize("relation,bound,upper", [
    ("<", S.Val(8), 7), ("<=", S.Val(8), 8), ("==", S.Val(8), 8),
    (">", S.Val(8), None), (">=", S.Val(8), None), ("<", S.Reg("r4"), None),
])
def test_constraint_upper_bound(relation, bound, upper):
    c = T.Constraint(S.Reg("r3"), relation, bound, ir.Point("main", "bb0", 0), 0)
    assert c.upper_bound() == upper
    assert c.symbolic() == (upper is None and relation == "<")


COPIES = """
func main @0x1000 frame=0x40 {
bb0:
  r1 = sp
  r2 = call recv(r9, r1, 0x40)
  r5 = load gp
  call memcpy(r5, r1, 0x10)
  r7 = load gp + 0x8
  call memcpy(r1, r1, r7)
  call strcpy(0x5000, r1)
  ret
}
"""


def test_copy_verdicts_by_what_resolves():
    """A copy's bound is its constant length, or none when the length
    register resolves to no constant; its destination is a stack buffer
    when it resolves to sp+k (sp itself is offset 0), and unknown for a
    pointer loaded from the globals or an immediate address."""
    result = T.run_taint(Session(ir.parse_program(COPIES)))
    assert [(str(a.sink_site), a.verdict, a.bound, a.capacity, a.stack_offset)
            for a in result.alerts] == [
        ("main:bb0:3", "bounded copy but destination unknown", 16, None, None),
        ("main:bb0:5", "unbounded tainted copy into stack buffer", None, 0x40, 0),
        ("main:bb0:6", "unbounded copy, destination unknown", None, None, None)]


def test_sink_query_cap_hits_reach_the_result(corpus, monkeypatch):
    """The backward queries of the sink checks record their cap hits; the
    result lists them after the taint run's own, each once."""
    monkeypatch.setattr(alias, "WALK_POP_CAP", 1)
    result = T.run_taint(Session(corpus("loop_copy.ir")))
    assert result.cap_hits == ["walk pop cap hit at main:body",
                               "walk pop cap hit at main:bb0",
                               "walk pop cap hit at main:bb0@3"]


def test_callee_load_before_its_store_still_returns_taint():
    """`corpus/callee_store_ret.ir` has no alert: `h`'s return aliases hold
    the store `h` made, which no caller fact equals.  When `h` returns
    what it loads from the cell before storing into it, the received
    word reaches system() through the REF descent."""
    text = (pathlib.Path(ATOI_LEN).parent / "callee_store_ret.ir").read_text()
    assert T.run_taint(Session(ir.parse_program(text))).alerts == []
    h = "func h @0x2000 frame=0 {\nbb0:\n  r5 = load r0\n  store r0 = r1\n  ret r5\n}"
    start = text.index("func h")
    prog = ir.parse_program(text[:start] + h + text[text.index("}", start) + 1:])
    (alert,) = T.run_taint(Session(prog)).alerts
    assert (str(alert.sink_site), alert.sink_fn, alert.klass) == (
        "main:bb0:7", "system", "command-exec")


def test_a_returned_source_value_reaches_a_sink():
    """A source's result is tainted below its call: the call's result
    register does not kill it."""
    prog = ir.parse_program("""
func main @0x1000 frame=0x40 {
bb0:
  r1 = 0x9300
  r2 = call getenv(r1)
  r3 = call system(r2)
  ret
}
""")
    (alert,) = T.run_taint(Session(prog)).alerts
    assert (str(alert.sink_site), alert.klass) == ("main:bb0:2", "command-exec")


@pytest.mark.parametrize("tail", [
    "  r3 = call system(r1)\n",
    "  r5 = call getenv(r1)\n  r6 = call system(r5)\n",
], ids=["recv", "getenv"])
def test_the_synthetic_entry_takes_no_user_label(tail, tmp_path, monkeypatch):
    """A looping entry block gets a block in front of it whose label the
    IR cannot spell, so a user block named `__entry` is analysed like the
    same block under another name."""
    text = ("func main @0x1000 frame=0x40 {\na:\n  r1 = sp\n"
            "  r2 = call recv(r9, r1, 0x40)\n  branch r2, a, LABEL\nLABEL:\n"
            + tail + "  ret\n}\n")
    reports = []
    for label in ("__entry", "tail"):
        (tmp_path / label).mkdir()
        (tmp_path / label / "prog.ir").write_text(text.replace("LABEL", label))
        monkeypatch.chdir(tmp_path / label)
        report = pipeline.analyze(pipeline.RunConfig(ir_path="prog.ir"))
        reports.append(report.to_json(with_timings=False).replace(label, "LABEL"))
    assert reports[0] == reports[1]
    assert '"class": "command-exec"' in reports[0]


IRREDUCIBLE_COPY = (pathlib.Path(ATOI_LEN).parent / "irreducible_copy.ir").read_text()


@pytest.mark.parametrize("entry", ["branch r3, a, b", "jump b"])
def test_a_loop_copy_with_two_entries_is_detected(entry):
    """The copy loop of `corpus/irreducible_copy.ir` alerts whether its
    entry block branches into both of its blocks or only into `b`."""
    prog = ir.parse_program(IRREDUCIBLE_COPY.replace("branch r3, a, b", entry))
    result = T.run_taint(Session(prog))
    (alert,) = result.alerts
    assert (str(alert.sink_site), alert.sink_fn) == ("main:a:1", "loop-copy")
    assert result.cap_hits == []


def test_a_store_before_a_self_loop_is_no_loop_copy():
    """Only blocks on a cycle are loop blocks: the self-loop at `b` does
    not make the store in `bb0`, which runs once, a loop copy."""
    text = """
func main @0x1000 frame=0x80 {
  buf dst @0x40 size 0x40
bb0:
  r9 = 0x3
  r1 = sp
  r2 = 0x40
  r3 = call recv(r9, r1, r2)
  r4 = sp + 0x40
  r5 = load r1
  store r4 = r5
  jump b
b:
  r4 = r4 + 0x4
  r6 = load r4
  branch r6, b, out
out:
  ret
}
"""
    assert T.run_taint(Session(ir.parse_program(text))).alerts == []
    looped = text.replace("  r5 = load r1\n  store r4 = r5\n  jump b\nb:\n",
                          "  jump b\nb:\n  r5 = load r1\n  store r4 = r5\n"
                          "  r1 = r1 + 0x4\n")
    (alert,) = T.run_taint(Session(ir.parse_program(looped))).alerts
    assert (str(alert.sink_site), alert.sink_fn) == ("main:b:1", "loop-copy")
