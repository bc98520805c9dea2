"""Golden report snapshots for the whole pipeline.

Every corpus program's JSON report (without timings) is compared byte
for byte against `tests/golden/<name>.json`, and six seed-query reports
against `tests/golden/<name>.seed.json`.  After a deliberate change to
the reports, regenerate the goldens from the root of the checkout with

    PYTHONPATH=src python tests/test_pipeline.py
"""

import hashlib
import json
import os
import pathlib
import random
import sys

import pytest

from mirtaint import alias, pipeline, taint

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402
from run import digest_text  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
CORPUS = sorted(p.name for p in (ROOT / "corpus").glob("*.ir"))
SEED_QUERIES = {
    "callsite_mod_kill.ir": ("main:bb0:r1+load(r2)",),
    "intuitive.ir": ("main:bb0:load(r3+0x8)",),
    "ite_exclusive.ir": ("main:use:r6",),
    "loop_walk.ir": ("main:head:load(r1)",),
    "store_barrier.ir": ("main:bb0:load(r2)", "back:out:r5"),
    "summaries_tour.ir": ("main:bb0:r1",),
}


def _cases():
    """(golden file, program, seed queries) of each golden comparison."""
    for name in CORPUS:
        yield f"{name[:-3]}.json", name, ()
    for name, seeds in sorted(SEED_QUERIES.items()):
        yield f"{name[:-3]}.seed.json", name, seeds


def report_text(name: str, seeds: tuple[str, ...] = ()) -> str:
    """The report of corpus/<name>, with a path relative to the root."""
    config = pipeline.RunConfig(ir_path=f"corpus/{name}", seeds=seeds)
    return pipeline.analyze(config).to_json(with_timings=False) + "\n"


@pytest.mark.parametrize("golden,name,seeds", list(_cases()),
                         ids=[golden for golden, *_ in _cases()])
def test_report_matches_golden(golden, name, seeds, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert report_text(name, seeds) == (GOLDEN / golden).read_text()


def test_every_golden_file_belongs_to_a_case():
    """`tests/golden/` holds exactly the files the cases compare against."""
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        golden for golden, *_ in _cases())


# sha256 of the reports of `bench/run.py --workload W --seed S`, as its
# `digest` line prints it
BENCH_DIGESTS = {
    ("loop_copy", 1): "beb75abb23a1adcd164dbd05495de77694665d6764b9584688b9fa07dab9b023",
    ("loop_copy", 2): "6f78b3dd25c1294b6ea089caa2f078d1b8d9e3cca565624cf8cedaebf16bf4a2",
    ("dispatch", 1): "75a8fe34585a846814964f2789b3b86a0f348f36f6434b956fac4f93ad40fa3e",
    ("dispatch", 2): "21c7c639d609bd51df3c0e30d13f75296727ff25b294bceea9b45af2fec6ece2",
    ("icall_mix", 1): "37423cf882453f829533c8d3b59bbaff0ec7ee7e2cae335ad96df9b28705f3ea",
    ("icall_mix", 2): "976902c43053cb846a3440e3f9980c18f7cf881a6be0604ee7b84485b2a45814",
}


@pytest.mark.parametrize("workload,seed", sorted(BENCH_DIGESTS))
def test_bench_reports_match_pinned_digest(workload, seed, tmp_path, monkeypatch):
    """The benchmark's reports hash as they did when pinned: each
    program of the ladder is written as `<name>.ir` into the working
    directory and analysed from there, as `bench/run.py` does."""
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for program in workloads.generate(workload, seed):
        (tmp_path / (program.name + ".ir")).write_text(program.text, encoding="utf-8")
        report = pipeline.analyze(pipeline.RunConfig(ir_path=program.name + ".ir"))
        h.update(program.name.encode() + b"\n")
        h.update(digest_text(json.loads(report.to_json())).encode() + b"\n")
    assert h.hexdigest() == BENCH_DIGESTS[(workload, seed)]


# A tainted pointer walked by a self-recursive function: the walk's
# summary and its returned pointer cross its own callsite again and again
WALK = """\
func walk @0x2000 frame=0 {
bb0:
  r1 = load r0
  branch r1, step, done
step:
  r2 = r0 + 0x4
  r3 = call walk(r2)
  ret r3
done:
  ret r0
}

func main @0x1000 frame=0x40 {
  buf in @0x0 size 0x40
bb0:
  r1 = sp
  r2 = 0x40
  r3 = call recv(r9, r1, r2)
  r4 = call walk(r1)
  r5 = call system(r4)
  ret
}
"""


def test_recursion_depth_ends_in_cap_hit(tmp_path, monkeypatch):
    """`RECURSION_DEPTH` bounds the exports around a call-graph cycle, and
    what it drops shows as one cap hit naming the exporting function, at
    the default depth and at depth 1."""
    path = tmp_path / "walk.ir"
    path.write_text(WALK, encoding="utf-8")
    for depth in (alias.RECURSION_DEPTH, 1):
        monkeypatch.setattr(alias, "RECURSION_DEPTH", depth)
        report = pipeline.analyze(pipeline.RunConfig(ir_path=str(path)))
        hits = [h for h in report.cap_hits if h.startswith("recursion depth cap hit")]
        assert hits == ["recursion depth cap hit: exports of walk to walk:step:1 "
                        "dropped"], depth
        assert [a["sink_site"] for a in report.alerts] == ["main:bb0:4"]


def test_cycle_cut_shows_once_in_report(tmp_path, monkeypatch):
    """walk's summary still grows in its second round, so the report lists
    the cut of its cycle, once."""
    path = tmp_path / "walk.ir"
    path.write_text(WALK, encoding="utf-8")
    report = pipeline.analyze(pipeline.RunConfig(ir_path=str(path)))
    assert [h for h in report.cap_hits if h.startswith("cycle")] == [
        "cycle round cap hit: summaries of walk still changing after two rounds"]


def test_seed_query_cap_hits_reach_the_report(monkeypatch):
    """A `--seed` query's analysis records its own cap hits; the report
    lists them after the taint run's, each once."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(alias, "FUNC_ROUNDS_CAP", 1)
    plain = pipeline.analyze(pipeline.RunConfig(
        ir_path="corpus/loop_walk.ir")).cap_hits
    queried = pipeline.analyze(pipeline.RunConfig(
        ir_path="corpus/loop_walk.ir", seeds=("main:head:load(r1)",))).cap_hits
    added = queried[len(plain):]
    assert queried[:len(plain)] == plain
    assert "function fixpoint cap hit in main" in added
    assert len(set(added)) == len(added) and not set(added) & set(plain)


@pytest.mark.parametrize("bound,value,name,hit", [
    ("FUNC_ROUNDS_CAP", 1, "context_return.ir", "function fixpoint cap hit in ident"),
    ("FUNC_ROUNDS_CAP", 1, "late_caller.ir", "function fixpoint cap hit in dup"),
    ("BLOCK_ITER_CAP", 1, "loop_copy.ir", "block iteration cap hit at main:bb0"),
    ("WALK_POP_CAP", 2, "loop_copy.ir", "walk pop cap hit at main:body"),
])
def test_each_cap_hit_is_reported_once(bound, value, name, hit, monkeypatch):
    """A bound that fires on every visit of a block, or in a callee
    summary taken over again, still shows once in the report: an
    analysis records every cap hit through `Analysis._cap_hit`."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(alias, bound, value)
    hits = pipeline.analyze(pipeline.RunConfig(ir_path=f"corpus/{name}")).cap_hits
    assert hit in hits
    assert len(set(hits)) == len(hits)


def test_cap_hits_join_in_pipeline_order():
    """Icall resolution's hits, then the taint run's as recorded, then the
    queries'; a resolution or query message is added once, if new."""
    assert pipeline._joined_cap_hits(["a", "b", "a", "t"], ["t", "x", "t"],
                                     ["b", "q", "q", "x"]) == [
        "a", "b", "t", "x", "t", "q"]


def _taint_registry_size(program: workloads.GenProgram, monkeypatch) -> int:
    """Entries in the taint analysis's registry when the pipeline
    analyses `program`."""
    made = []

    class Recorded(alias.Analysis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.policy is not None:
                made.append(self)

    monkeypatch.setattr(taint, "Analysis", Recorded)
    (pathlib.Path.cwd() / (program.name + ".ir")).write_text(program.text,
                                                             encoding="utf-8")
    pipeline.analyze(pipeline.RunConfig(ir_path=program.name + ".ir"))
    (analysis,) = made
    return sum(len(reg) for reg in analysis.registry.values())


def test_dispatch_registry_grows_linearly(tmp_path, monkeypatch):
    """Each taint descent returns only to the callsites that reached it,
    so doubling the handlers of `dispatch` at most about doubles the taint
    analysis's registry.  Sending every descent's facts to every caller
    of a shared helper made it grow about 3x per doubling."""
    monkeypatch.chdir(tmp_path)
    ladder = {p.size: p for p in workloads.generate("dispatch", 1)}
    small = _taint_registry_size(ladder[16], monkeypatch)
    large = _taint_registry_size(ladder[32], monkeypatch)
    assert large <= 2.5 * small


def _loop_copy_injects(n: int, monkeypatch) -> tuple[int, list[str]]:
    """`Analysis._inject` calls, and the report's cap hits, when the
    pipeline analyses the seed-1 `loop_copy` program with `n` copy loops
    per function, made from the stream `workloads.generate` gives size
    `n`."""
    make, _ = workloads._GENERATORS["loop_copy"]
    program = make(n, random.Random(f"loop_copy:1:{n}"))
    calls = []
    inject = alias.Analysis._inject

    def counted(self, *args):
        calls.append(None)
        return inject(self, *args)

    (pathlib.Path.cwd() / (program.name + ".ir")).write_text(program.text,
                                                             encoding="utf-8")
    with monkeypatch.context() as mp:
        mp.setattr(alias.Analysis, "_inject", counted)
        report = pipeline.analyze(pipeline.RunConfig(ir_path=program.name + ".ir"))
    return len(calls), report.cap_hits


def test_loop_copy_injects_grow_less_than_quadratically(tmp_path, monkeypatch):
    """Each loop is stable before a block past it is walked, so a stride
    pushed out of a loop before its family merged is retired there, and
    the rounds are bounded per loop, not per function.  Doubling the copy
    loops of `loop_copy` from 10 to 20 per function at most 2.5x the
    `_inject` calls; sweeping the whole function between merges made it
    3.05x.  At 80 loops per function no fixpoint cap fires."""
    monkeypatch.chdir(tmp_path)
    small, _ = _loop_copy_injects(10, monkeypatch)
    large, _ = _loop_copy_injects(20, monkeypatch)
    assert large <= 2.5 * small
    _, hits = _loop_copy_injects(80, monkeypatch)
    assert not [h for h in hits if h.startswith("function fixpoint cap hit")]


def test_reports_unchanged_when_every_row_acts(monkeypatch):
    """The walker's row index leaves out only rows that cannot act on a
    fact: with every row of a block given as relevant to every fact,
    each golden report comes out the same, at the default bounds and
    under seed queries."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(alias._Table, "relevant",
                        lambda self, e, forward, tainted=False:
                        (1 << len(self.rows)) - 1)
    for golden, name, seeds in _cases():
        assert report_text(name, seeds) == (GOLDEN / golden).read_text(), golden


def test_walker_steps_only_rows_that_can_act(tmp_path, monkeypatch):
    """The walker steps a fact across a statement only where a rule, a
    kill, a stale mark or a taint hook can fire there.  On the seed-1
    `loop_copy` program with three copy loops per function that is at
    most 900 steps; stepping every row that shares a register with the
    fact, and every row of an immediate, took 1,924."""
    monkeypatch.chdir(tmp_path)
    steps = []
    for name in ("forward_step", "backward_step"):
        def counted(self, c, idx, t, _step=getattr(alias._Walker, name)):
            steps.append(idx)
            return _step(self, c, idx, t)
        monkeypatch.setattr(alias._Walker, name, counted)
    (program,) = [p for p in workloads.generate("loop_copy", 1) if p.size == 3]
    (tmp_path / (program.name + ".ir")).write_text(program.text, encoding="utf-8")
    pipeline.analyze(pipeline.RunConfig(ir_path=program.name + ".ir"))
    assert 0 < len(steps) <= 900


def test_loop_copy_injects_no_spent_store(tmp_path, monkeypatch):
    """A tainted store that may-alias stores made stale both ways leads
    nowhere, so it is neither derived nor walked on.  On the seed-1
    `loop_copy` program with five copy loops per function that leaves at
    most 2,000 `_inject` calls; tracking those stores made 3,942."""
    monkeypatch.chdir(tmp_path)
    calls = []
    inject = alias.Analysis._inject

    def counted(self, *args):
        calls.append(args)
        return inject(self, *args)
    monkeypatch.setattr(alias.Analysis, "_inject", counted)
    (program,) = [p for p in workloads.generate("loop_copy", 1) if p.size == 5]
    (tmp_path / (program.name + ".ir")).write_text(program.text, encoding="utf-8")
    pipeline.analyze(pipeline.RunConfig(ir_path=program.name + ".ir"))
    assert 0 < len(calls) <= 2000


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for golden, name, seeds in _cases():
        (GOLDEN / golden).write_text(report_text(name, seeds))


DEAD_BLOCK = """\
func main @0x1000 frame=0x10 {
bb0:
  r1 = sp
  r2 = call recv(r9, r1, 0x8)
  jump end
dead:
  jump end
end:
  ret r1
}
"""


def test_text_report_and_cfg_dump(tmp_path, monkeypatch):
    """The text report lists warnings and each seed query's aliases; the
    `--dump-cfg` DOT fills call blocks and greys unreachable ones, and
    the JSON report carries it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dead.ir").write_text(DEAD_BLOCK, encoding="utf-8")
    report = pipeline.analyze(pipeline.RunConfig(
        ir_path="dead.ir", seeds=("main:end:r1",), dump_cfg="main"))
    assert report.to_text().splitlines()[3:] == [
        "warning: main:dead: unreachable block",
        "seed main:end:r1: 2 aliases",
        "  sp @ main:bb0:0 (pre)",
        "  r1 @ main:end:0 (pre)"]
    dot = report.dumps["cfg"].splitlines()
    assert '  "bb0@1" [label="bb0@1:\\lr2 = call recv(r9, r1, 0x8)\\l", ' \
        'style=filled, fillcolor=lightyellow];' in dot
    assert '  "dead" [label="dead:\\ljump end\\l", color=gray];' in dot
    assert json.loads(report.to_json())["dumps"] == {"cfg": report.dumps["cfg"]}


def test_every_exported_name_resolves():
    """Each name in the package's `__all__` is an attribute of the package."""
    import mirtaint
    assert [name for name in mirtaint.__all__ if not hasattr(mirtaint, name)] == []
