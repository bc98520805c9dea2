"""The induction merge against a reference skeleton partition.

`Analysis._merge_induction` re-partitions each pool group at the
function's merge points (`Session.merge_points`: loop heads forward,
latches backward) through `sse.induction_families`, which buckets the
members by offset strings read off their structure (`sse._offsets`).
The reference below builds each offset skeleton as an expression and
buckets by it, with no offset strings, and retires through a plain
sweep of every block.  Both must leave every analysis in
the same state after every `analyze_function`.
"""

import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mirtaint import ir, pipeline
from mirtaint import sse as S
from mirtaint.alias import _NO_STATE, Analysis, Session

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


# -- the reference: a skeleton partition of each group -------------------------

def _const_positions(e, path=()):
    if isinstance(e, S.Bin) and e.op == "+" and isinstance(e.right, S.Val):
        yield path, e.right.value
    for i, c in enumerate(S._children(e)):
        yield from _const_positions(c, path + (i,))


def _skeletons(e):
    ce = S.canonicalize(e)
    return [(path, S._set_at(ce, path + (1,), S.Val(0)), const)
            for path, const in _const_positions(ce)]


def _merge_bucket(path, skel, consts, index_id):
    if len(consts) < 3 or len(set(consts)) != len(consts):
        return None
    cs = sorted(consts)
    d = cs[1] - cs[0]
    if d <= 0 or any(cs[k + 1] - cs[k] != d for k in range(len(cs) - 1)):
        return None
    base_terms, _ = S._sum_terms(S._at(skel, path))
    term = S.IndexTerm(S._rebuild_sum(list(base_terms), 0), d, index_id)
    return S.canonicalize(S._set_at(skel, path, S.Bin("+", term, S.Val(cs[0]))))


def induction_families(exprs, index_id):
    buckets = {}
    for e in exprs:
        for path, skel, const in _skeletons(e):
            buckets.setdefault((path, skel), []).append((const, e))
    out, used = [], set()
    for (path, skel), members in sorted(buckets.items(), key=lambda kv: -len(kv[1])):
        members = [(c, e) for c, e in members if id(e) not in used]
        consts = [c for c, _ in members]
        if len(set(consts)) >= 2:
            cs = sorted(set(consts))
            d = cs[1] - cs[0]
            if d > 0 and cs[0] == d:
                zero = S.canonicalize(skel)
                for e in exprs:
                    if id(e) not in used and S.canonicalize(e) == zero:
                        members = [(0, e)] + members
                        consts = [0] + consts
                        break
        merged = _merge_bucket(path, skel, consts, index_id)
        if merged is None:
            continue
        out.append((merged, [e for _, e in members]))
        used.update(id(e) for _, e in members)
    return out


def reference_merge(self, fname, points):
    plans, retire_keys = [], []
    for label, direction in points:
        side = getattr(self.states[fname].get(label, _NO_STATE), direction)
        groups = {}
        for t in side.pool.values():
            if isinstance(t.expr, (S.Reg, S.Val)):
                continue
            groups.setdefault((t.seed_id, t.tainted, t.derived, t.conds), []).append(t)
        for gk, members in groups.items():
            if len(members) < 3:
                continue
            families = induction_families([m.expr for m in members],
                                          f"{fname}:s{gk[0]}")
            by_expr = {id(m.expr): m for m in members}
            for merged, family in families:
                plans.append((label, direction, by_expr[id(family[0])], merged))
                retire_keys.extend(by_expr[id(e)].key() for e in family)
    if not plans:
        return False
    reference_retire(self, fname, retire_keys)
    changed = False
    for label, direction, base, merged in plans:
        t = base.derive(merged, base.point, base.phase)
        idx = 0 if direction == "f" else len(self.cfg(fname).blocks[label].stmts) - 1
        if self._inject(fname, label, t, idx, direction):
            self._record(fname, t)
            changed = True
    return changed


def reference_retire(self, fname, keys):
    keys = set(keys)
    retired = self.retired.setdefault(fname, set())
    retired.update(keys)
    for st in self.states[fname].values():
        for side in (st.f, st.b):
            for store in (side.pool, side.out):
                for k in store.keys() & keys:
                    del store[k]
            if side.pend:
                side.pend = [(t, i) for t, i in side.pend if t.key() not in retired]


# -- `sse.induction_families` step by step ---------------------------------------

def _tags(e):
    return tuple((n.birth, n.stale_fwd, n.stale_bwd) for n in S.mem_nodes(e))


def _steps(batches, index_id="i"):
    """Add `batches` of expressions to one group one after another,
    merging after each as the engine does every round; check each merge
    against the reference partition of the members left, and drop what
    it merged, as a retirement does."""
    live = []
    for batch in batches:
        live.extend(batch)
        # the key of a member is its node's identity: equal members under
        # other tags are other members
        got = S.induction_families([(id(e), e) for e in live], index_id)
        expected = induction_families(live, index_id)
        assert [(m, keys) for m, keys in got] == \
            [(m, [id(e) for e in members]) for m, members in expected]
        assert [_tags(m) for m, _ in got] == [_tags(m) for m, _ in expected]
        merged = {id(e) for _, keys in expected for e in keys}
        live = [e for e in live if id(e) not in merged]


def test_a_zero_that_arrives_later_joins_its_waiting_family():
    """A bucket of offsets 4 and 8 waits for its zero; the zero arriving
    at a later merge completes the family."""
    p = S.parse_sse
    _steps([[p("load(r1+0x4)"), p("load(r1+0x8)")], [p("load(r1)")]])


def test_a_bucket_that_loses_a_member_to_an_earlier_family_merges_without_it():
    """A bucket that failed before (offsets 4, 8, 10, 12 under +0x100)
    merges once a larger family later takes its member at offset 10."""
    p = S.parse_sse
    _steps([[p(f"load(r1+{c:#x})+0x100") for c in (4, 8, 10, 12)],
            [p(f"load(r1+0xa)+{c:#x}") for c in (0x104, 0x108, 0x10c, 0x110)]])


_offset = st.builds(
    lambda reg, inner, outer, store, birth: S.canonicalize(S.Bin(
        "+", (S.Store if store else S.Load)(S.Bin("+", S.Reg(reg), S.Val(inner)), birth),
        S.Val(outer))),
    st.sampled_from(["r1", "r2"]), st.sampled_from([0, 2, 4, 8, 12, 16]),
    st.sampled_from([0, 4, 8, 12]), st.booleans(),
    st.sampled_from([S.BIRTH_BEFORE_BLOCK, 3]))


@given(st.lists(st.lists(_offset, max_size=8), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_families_merge_as_a_whole_regroup_would(batches):
    """Whatever expressions arrive, and in whatever batches, each merge
    gives what the reference partition of the members left gives,
    members equal but for their tags included."""
    seen = set()
    unique = []
    for batch in batches:
        unique.append([e for e in batch if id(e) not in seen and not seen.add(id(e))])
    _steps(unique)


# -- running both --------------------------------------------------------------

def _fact(k, t):
    """A fact as its key, anchor and the tags of its memory nodes."""
    return k, t.point, t.phase, t.rule, _tags(t.expr)


def _snapshot(analysis, fname):
    return (fname,
            {f: [_fact(k, t) for k, t in reg.items()]
             for f, reg in analysis.registry.items()},
            {(f, label, d): ([_fact(k, t) for k, t in side.pool.items()],
                             [_fact(k, t) for k, t in side.out.items()])
             for f, states in analysis.states.items()
             for label, st in states.items()
             for d, side in (("f", st.f), ("b", st.b))},
            {f: set(keys) for f, keys in analysis.retired.items()})


def _states(monkeypatch, path, seeds=(), reference=False):
    """The state of every analysis after each `analyze_function` of a
    pipeline run on `path`, and the report."""
    snaps = []
    real = Analysis.analyze_function

    def recorded(self, fname):
        real(self, fname)
        snaps.append(_snapshot(self, fname))

    with monkeypatch.context() as mp:
        mp.setattr(Analysis, "analyze_function", recorded)
        if reference:
            mp.setattr(Analysis, "_merge_induction", reference_merge)
            mp.setattr(Analysis, "_retire", reference_retire)
        report = pipeline.analyze(pipeline.RunConfig(ir_path=str(path), seeds=seeds))
    return snaps, report.to_json(with_timings=False)


LOOP_CORPUS = {"gptr_table.ir": (), "listing1.ir": (), "loop_copy.ir": (),
               "loop_sum.ir": (), "loop_walk.ir": ("main:head:load(r1)",),
               "table_null.ir": ()}
LADDER = {p.name: p for p in workloads.generate("loop_copy", 1)}
LADDER.update((p.name, p) for p in workloads.generate("icall_mix", 1) if p.size == 8)


@pytest.mark.parametrize("name", [*sorted(LOOP_CORPUS), *LADDER])
def test_delta_merge_leaves_the_states_of_a_whole_regroup(name, tmp_path, monkeypatch):
    """After every `analyze_function` of a pipeline run, the engine's
    merge and the reference, at the same merge points, leave the same
    registries, pools, `out` sets (each in its order, with each fact's
    anchor and tags) and retired sets, and the reports agree."""
    if name in LOOP_CORPUS:
        path, seeds = ROOT / "corpus" / name, LOOP_CORPUS[name]
    else:
        path, seeds = tmp_path / (name + ".ir"), ()
        path.write_text(LADDER[name].text, encoding="utf-8")
    expected = _states(monkeypatch, path, seeds, reference=True)
    got = _states(monkeypatch, path, seeds)
    assert got[0] == expected[0]
    assert got[1] == expected[1]


def test_merge_points_are_loop_heads_forward_and_latches_backward():
    """`table_null.ir`'s loop runs head -> doit -> skip -> head: it merges
    forward at the head and backward at the latch `skip`.  Merging
    backward at the head instead walks the table from slot 1 on
    (`load((0x9200+main:s0*0x4)+0x4)`), skipping slot 0."""
    program = ir.parse_program((ROOT / "corpus" / "table_null.ir").read_text())
    assert Session(program).merge_points("main") == (("head", "f"), ("skip", "b"))
