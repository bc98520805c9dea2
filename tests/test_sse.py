import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mirtaint import sse as S


def canon(text):
    return S.parse_sse(text)


# -- canonicalization --------------------------------------------------------

def test_constant_folding():
    assert canon("(r3 + 0x4) + 0x4") == canon("r3 + 0x8")


def test_commutative_ordering():
    assert canon("0x8 + r3") == canon("r3 + 0x8")


def test_already_canonical_memory_chain():
    e = canon("load(store(r6 + 0x4) + 0x8)")
    assert S.canonicalize(e) == e
    assert S.pretty(e) == "load(store(r6+0x4)+0x8)"


def test_add_zero_eliminated():
    assert canon("r3 + 0x0") == S.Reg("r3")


def test_mul_identities():
    assert canon("r3 * 0x1") == S.Reg("r3")
    assert canon("r3 * 0x0") == S.Val(0)


def test_subtraction_of_constant_folds_into_sum():
    assert canon("(r3 + 0x10) - 0x8") == canon("r3 + 0x8")


def test_division_by_zero_constant_folds_to_zero():
    assert canon("0x8 / 0x0") == S.Val(0)


_leaf = st.sampled_from([S.Reg("r0"), S.Reg("r1"), S.Reg("r2"), S.Reg("sp"),
                         S.Val(0), S.Val(1), S.Val(8), S.Val(0xFF)])


def _tree(children):
    ops = st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", "<"])
    return st.one_of(
        st.builds(S.Bin, ops, children, children),
        st.builds(S.Un, st.sampled_from(["~", "!", "neg"]), children),
        st.builds(S.Load, children),
        st.builds(S.Store, children),
    )


exprs = st.recursive(_leaf, _tree, max_leaves=12)


@given(exprs)
@settings(max_examples=300, deadline=None)
def test_canonicalize_idempotent(e):
    once = S.canonicalize(e)
    assert S.canonicalize(once) == once


@given(exprs)
@settings(max_examples=200, deadline=None)
def test_canonicalize_preserves_concrete_value(e):
    # semantics check against direct evaluation over a fixed environment
    env = {"r0": 7, "r1": 0x1234, "r2": (1 << 63) + 5, "sp": 0x7FF0}

    def ev(x):
        if isinstance(x, S.Reg):
            return env[x.name]
        if isinstance(x, S.Val):
            return x.value & S.U64
        if isinstance(x, S.Bin):
            return S.eval_binop(x.op, ev(x.left), ev(x.right))
        if isinstance(x, S.Un):
            return S.eval_unop(x.op, ev(x.child))
        if isinstance(x, (S.Load, S.Store)):
            # model memory as a fixed hash of the address
            return (ev(x.addr) * 0x9E3779B97F4A7C15 + 3) & S.U64
        raise AssertionError(x)

    assert ev(S.canonicalize(e)) == ev(e)


# -- occurs / replace --------------------------------------------------------

def test_occurs_register_inside_load():
    assert S.occurs(canon("load(r3+0x8)"), S.Reg("r3"))


def test_occurs_negative():
    assert not S.occurs(canon("load(r3+0x8)"), S.Reg("r4"))


def test_occurs_store_subtree():
    assert S.occurs(canon("load(store(r6)+0x8)"), canon("store(r6)"))


def test_replace_register_with_store():
    got = S.replace(canon("load(r3+0x8)"), S.Reg("r3"), canon("store(r2)"))
    assert got == canon("load(store(r2)+0x8)")


def test_replace_store_with_register():
    got = S.replace(canon("load(store(r6)+0x8)"), canon("store(r6)"), S.Reg("r0"))
    assert got == canon("load(r0+0x8)")


def test_replace_whole_expression():
    assert S.replace(S.Reg("r1"), S.Reg("r1"), S.Reg("r9")) == S.Reg("r9")


def test_replace_does_not_cascade():
    # !(!(r0)) with !r0 -> r0 must rewrite one layer, not collapse
    e = S.canonicalize(S.Un("!", S.Un("!", S.Reg("r0"))))
    got = S.replace(e, S.Un("!", S.Reg("r0")), S.Reg("r0"))
    assert got == S.canonicalize(S.Un("!", S.Reg("r0")))


def test_replace_preserves_untouched_tags():
    inner = S.Load(S.Reg("r3"), birth=7)
    e = S.canonicalize(S.Bin("+", inner, S.Reg("r5")))
    got = S.replace(e, S.Reg("r5"), S.Reg("r6"))
    (node,) = [n for n in S.mem_nodes(got)]
    assert node.birth == 7


@given(exprs)
@settings(max_examples=200, deadline=None)
def test_replace_respects_depth_measure(e):
    e = S.canonicalize(e)
    if not S.occurs(e, S.Reg("r0")):
        return
    got = S.replace(e, S.Reg("r0"), S.Val(4))
    assert S.mem_depth(got) <= S.mem_depth(e)


# -- kills -------------------------------------------------------------------

def test_kill_register_redefine():
    assert S.kills_register(canon("load(r3+0x8)"), "r3")


def test_kill_unrelated_register_survives():
    assert not S.kills_register(S.Reg("r5"), "r3")


def test_kill_memory_overwrite_orders_by_birth():
    old = S.canonicalize(S.Load(S.Store(S.Reg("r6"), birth=1), birth=1))
    # a later store to the same register kills the older cell reference
    assert S.kills_memory(old, S.Reg("r6"), 5)
    # the store the node itself came from does not
    assert not S.kills_memory(old, S.Reg("r6"), 1)


def test_kill_memory_exempts_bitwise_addresses():
    e = S.canonicalize(S.Load(S.Bin("&", S.Reg("r6"), S.Val(0xF0)), birth=0))
    assert not S.kills_memory(e, canon("r6 & 0xf0"), 9)


@given(exprs)
@settings(max_examples=100, deadline=None)
def test_kill_is_pruning_only(e):
    """A redefinition kills exactly the expressions that mention the
    redefined register."""
    e = S.canonicalize(e)
    assert S.kills_register(e, "r0") == ("r0" in S.registers(e))


# -- induction ---------------------------------------------------------------

def _is_progression(consts):
    cs = sorted(consts)
    if len(cs) < 3 or len(set(cs)) != len(cs):
        return False
    d = cs[1] - cs[0]
    return d > 0 and all(cs[i + 1] - cs[i] == d for i in range(len(cs) - 1))


def families(exprs, index_id):
    """The offset families of `exprs` as one group: (merged, members) per
    family, as `S.induction_families` gives them for members in order."""
    return [(merged, [exprs[i] for i in keys])
            for merged, keys in S.induction_families(enumerate(exprs), index_id)]


def test_induction_paper_family():
    fam = [canon("load(r2+0x4)"), canon("load(r2+0xC)"), canon("load(r2+0x14)")]
    (got, _), = families(fam, "i")
    assert got == S.canonicalize(
        S.Load(S.Bin("+", S.IndexTerm(S.Reg("r2"), 8, "i"), S.Val(4))))
    assert S.pretty(got) == "load((r2+i*0x8)+0x4)"


def test_induction_single_member():
    assert families([canon("load(r2)")], "i") == []


def test_induction_rejects_non_arithmetic():
    fam = [canon("load(r2+0x4)"), canon("load(r2+0x6)"), canon("load(r2+0xC)")]
    assert not _is_progression([0x4, 0x6, 0xC])  # brute-force oracle agrees
    assert families(fam, "i") == []


def test_induction_loop_shift_converges():
    (merged, _), = families(
        [canon("load(r4+0x4)"), canon("load(r4+0xC)"), canon("load(r4+0x14)")], "i")
    shifted = S.replace(merged, S.Reg("r4"), canon("r4 + 0x8"))
    assert shifted == merged


def test_induction_constant_base_is_anchored():
    (merged, _), = families(
        [canon("load(r4+0x4)"), canon("load(r4+0xC)"), canon("load(r4+0x14)")], "i")
    table = S.replace(merged, S.Reg("r4"), S.Val(0x92C44))
    terms, const = S._sum_terms(table.addr)
    (it,) = [t for t in terms if isinstance(t, S.IndexTerm)]
    assert it.base == S.Val(0x92C44) and it.stride == 8 and const == 4


def test_induction_families_partitions_mixed_groups():
    exprs = [canon("store(sp+0x10)"), canon("store(sp+0x14)"),
             canon("store(sp+0x18)"), canon("store(r1+0x10)"),
             canon("store(r1+0x14)"), canon("store(r1+0x18)"), S.Reg("r6")]
    fams = families(exprs, "i")
    assert len(fams) == 2
    merged = {S.pretty(m) for m, _ in fams}
    assert merged == {"store((sp+i*0x4)+0x10)", "store((r1+i*0x4)+0x10)"}


def test_induction_merge_keeps_each_members_tags():
    """Members equal under `==` but tagged differently each merge into an
    expression with their own tags: offset skeletons are cached on each
    node, not shared by nodes that only look equal."""
    def family(birth, stale):
        return [S.canonicalize(S.Load(S.Bin("+", S.Reg("r2"), S.Val(off)),
                                      birth, stale, False))
                for off in (0x4, 0xC, 0x14)]

    plain = family(S.BIRTH_BEFORE_BLOCK, False)
    marked = family(7, True)
    assert plain == marked
    for fam, birth, stale in ((plain, S.BIRTH_BEFORE_BLOCK, False),
                              (marked, 7, True),
                              (plain, S.BIRTH_BEFORE_BLOCK, False)):
        (merged, members), = families(fam, "i")
        assert S.pretty(merged) == "load((r2+i*0x8)+0x4)"
        assert all(m is e for m, e in zip(members, fam))
        assert (merged.birth, merged.stale_fwd) == (birth, stale)


def test_index_terms_equal_only_with_same_id():
    a = S.IndexTerm(S.Reg("r2"), 8, "i0")
    b = S.IndexTerm(S.Reg("r2"), 8, "i1")
    assert a != b


# -- misc helpers ------------------------------------------------------------

def test_pretty_parse_round_trip():
    for text in ("load(store(r6+0x4)+0x8)", "r1+0x8", "load(gp+0x10)",
                 "store(r2)", "~r1", "r1<r2"):
        assert S.pretty(canon(text)) == S.pretty(canon(S.pretty(canon(text))))


@pytest.mark.parametrize("text", ["r01", "load(r01+0x8)", "r1+r00"])
def test_parse_rejects_register_with_leading_zero(text):
    with pytest.raises(ValueError):
        S.parse_sse(text)


def test_root_register():
    assert S.root_register(canon("load(r0+0x8)")) == "r0"
    assert S.root_register(canon("load(0x9000)")) is None
    assert S.root_register(canon("store(gp+0x10)")) == "gp"


def test_has_bitwise_addr():
    assert S.has_bitwise_addr(canon("load(r1 & 0xF0)"))
    assert not S.has_bitwise_addr(canon("load(r1 + 0x8) & 0xF0"))


def test_mem_depth_cap_measure():
    e = canon("load(load(load(r1)))")
    assert S.mem_depth(e) == 3


def test_is_trusted_rejects_stale():
    clean = S.canonicalize(S.Load(S.Reg("r1"), birth=0))
    assert S.is_trusted(clean)
    dirty = S.mark_stale(clean, lambda n: True, "fwd")
    assert not S.is_trusted(dirty)
    assert dirty == clean  # staleness is invisible to structural equality


def test_spent_bit_set_on_nodes_stale_both_ways():
    """`holds_spent` is set on a memory node stale forward and backward,
    unset while it has only one of the flags, inherited by every node
    built over it, and kept by `retag` and a further `mark_stale`."""
    clean = S.canonicalize(S.Load(S.Reg("r1"), birth=0))
    fwd = S.mark_stale(clean, lambda n: True, "fwd")
    bwd = S.mark_stale(clean, lambda n: True, "bwd")
    spent = S.mark_stale(fwd, lambda n: True, "bwd")
    assert not any(S.holds_spent(e) for e in (clean, fwd, bwd))
    assert S.holds_spent(spent) and spent == clean
    over = [S.Bin("+", spent, S.Reg("r2")), S.Un("~", spent), S.Load(spent),
            S.Store(S.Bin("+", spent, S.Val(8))), S.IndexTerm(spent, 8, "i0")]
    assert all(S.holds_spent(e) and S.holds_spent(S.canonicalize(e)) for e in over)
    assert not any(S.holds_spent(S.Bin("+", e, S.Reg("r2"))) for e in (fwd, bwd))
    outer = S.canonicalize(S.Load(S.Bin("+", spent, S.Val(8)), birth=3))
    assert S.holds_spent(S.retag(outer, 7))
    assert S.retag(outer, 7).addr.left.birth == 7
    assert S.holds_spent(S.mark_stale(outer, lambda n: n is not spent, "fwd"))
    assert not S.holds_spent(S.replace(outer, spent, S.Reg("r3")))


# -- cached facts against reference tree walks ----------------------------------

def _nodes(e):
    """Every node, in `subtrees` order, by an explicit walk."""
    out, stack = [], [e]
    while stack:
        n = stack.pop()
        out.append(n)
        if isinstance(n, S.Bin):
            stack += [n.left, n.right]
        elif isinstance(n, S.Un):
            stack.append(n.child)
        elif isinstance(n, (S.Load, S.Store)):
            stack.append(n.addr)
        elif isinstance(n, S.IndexTerm):
            stack.append(n.base)
    return out


def _depth(e):
    if isinstance(e, (S.Load, S.Store)):
        return 1 + _depth(e.addr)
    if isinstance(e, S.Bin):
        return max(_depth(e.left), _depth(e.right))
    if isinstance(e, S.Un):
        return _depth(e.child)
    if isinstance(e, S.IndexTerm):
        return _depth(e.base)
    return 0


def _bitwise(n):
    return ((isinstance(n, S.Bin) and n.op in S.BITWISE)
            or (isinstance(n, S.Un) and n.op == "~"))


def _exact(e):
    """Structure plus every memory node's tags, for tag-exact comparison."""
    if isinstance(e, S.Reg):
        return ("R", e.name)
    if isinstance(e, S.Val):
        return ("V", e.value)
    if isinstance(e, S.Bin):
        return ("B", e.op, _exact(e.left), _exact(e.right))
    if isinstance(e, S.Un):
        return ("U", e.op, _exact(e.child))
    if isinstance(e, S.IndexTerm):
        return ("I", _exact(e.base), e.stride, e.index)
    return (type(e).__name__, _exact(e.addr), e.birth, e.stale_fwd, e.stale_bwd)


def _tagged(e, counter):
    """`e` with distinct births and some stale flags on its memory nodes."""
    if isinstance(e, S.Bin):
        return S.Bin(e.op, _tagged(e.left, counter), _tagged(e.right, counter))
    if isinstance(e, S.Un):
        return S.Un(e.op, _tagged(e.child, counter))
    if isinstance(e, (S.Load, S.Store)):
        k = next(counter)
        return type(e)(_tagged(e.addr, counter), k, k % 3 == 0, k % 4 == 1)
    return e


def _rebuild_all(e, match, replacement):
    """Substitution that rebuilds every node, as the rewrite is specified."""
    if match(e):
        return replacement
    if isinstance(e, S.Bin):
        return S.Bin(e.op, _rebuild_all(e.left, match, replacement),
                     _rebuild_all(e.right, match, replacement))
    if isinstance(e, S.Un):
        return S.Un(e.op, _rebuild_all(e.child, match, replacement))
    if isinstance(e, (S.Load, S.Store)):
        return type(e)(_rebuild_all(e.addr, match, replacement),
                       e.birth, e.stale_fwd, e.stale_bwd)
    if isinstance(e, S.IndexTerm):
        return S.IndexTerm(_rebuild_all(e.base, match, replacement),
                           e.stride, e.index)
    return e


@given(exprs)
@settings(max_examples=300, deadline=None)
def test_cached_facts_equal_tree_walks(e):
    for x in (e, S.canonicalize(e), S.IndexTerm(e, 8, "i")):
        nodes = _nodes(x)
        mems = [n for n in nodes if isinstance(n, (S.Load, S.Store))]
        assert S.size(x) == len(nodes)
        assert S.registers(x) == {n.name for n in nodes if isinstance(n, S.Reg)}
        assert S.mem_depth(x) == _depth(x)
        assert S.has_bitwise_addr(x) == any(
            _bitwise(s) for n in mems for s in _nodes(n.addr))
        assert [id(n) for n in S.mem_nodes(x)] == [id(n) for n in mems]
        assert S.contains_reg(x, "r1") == (S.Reg("r1") in nodes)
        assert all(S.occurs(x, n) for n in nodes)


@given(exprs)
@settings(max_examples=200, deadline=None)
def test_mem_summary_equals_tree_walk(e):
    """A node's memory-node address ids and birth summary, read once and
    then from the node, equal what a walk of its memory nodes gives."""
    x = _tagged(e, itertools.count())
    mems = [n for n in _nodes(x) if isinstance(n, (S.Load, S.Store))]
    fwd = [n.birth for n in mems if not n.stale_fwd]
    bwd = [n.birth for n in mems if not n.stale_bwd]
    want = ({n.addr._sid for n in mems}, min(fwd, default=None),
            max(bwd, default=None))
    assert S.mem_summary(x) == want
    assert S.mem_summary(x) is S.mem_summary(x) or not mems


@given(exprs, st.integers(0, 11))
@settings(max_examples=200, deadline=None)
def test_spent_bit_equals_tree_walk(e, start):
    """The cached bit says exactly whether some memory node of the tree
    is stale both ways, before and after canonicalizing and retagging."""
    x = _tagged(e, itertools.count(start))
    for y in (x, S.canonicalize(x), S.retag(x, 5)):
        mems = [n for n in _nodes(y) if isinstance(n, (S.Load, S.Store))]
        assert S.holds_spent(y) == any(n.stale_fwd and n.stale_bwd for n in mems)


@given(exprs, st.integers(0, 63))
@settings(max_examples=300, deadline=None)
def test_rewrites_equal_rebuild_everything(e, pick):
    for x in (_tagged(e, itertools.count()),
              S.canonicalize(_tagged(e, itertools.count()))):
        nodes = _nodes(x)
        for pattern in (nodes[pick % len(nodes)], S.Reg("r1"), canon("r0+0x8")):
            want = S.canonicalize(_rebuild_all(x, lambda n: n == pattern,
                                               S.Reg("r9")))
            assert _exact(S.replace(x, pattern, S.Reg("r9"))) == _exact(want)

        def pred(n):
            return n.birth % 2 == 0

        def mem_match(n):
            return isinstance(n, (S.Load, S.Store)) and pred(n)

        got, hit = S.replace_mem(x, pred, S.Reg("r9"))
        assert hit == any(mem_match(n) for n in nodes)
        want = (S.canonicalize(_rebuild_all(x, mem_match, S.Reg("r9")))
                if hit else x)
        assert _exact(got) == _exact(want)


# -- hash-consing and memos ----------------------------------------------------

def _fresh(e):
    """`e` built again node by node, in the current intern table."""
    if isinstance(e, S.Reg):
        return S.Reg(e.name)
    if isinstance(e, S.Val):
        return S.Val(e.value)
    if isinstance(e, S.Bin):
        return S.Bin(e.op, _fresh(e.left), _fresh(e.right))
    if isinstance(e, S.Un):
        return S.Un(e.op, _fresh(e.child))
    if isinstance(e, S.IndexTerm):
        return S.IndexTerm(_fresh(e.base), e.stride, e.index)
    return type(e)(_fresh(e.addr), e.birth, e.stale_fwd, e.stale_bwd)


@given(exprs)
@settings(max_examples=200, deadline=None)
def test_nodes_equal_with_tags_are_one_object(e):
    x = _fresh(_tagged(e, itertools.count()))
    assert _fresh(x) is x
    assert S.canonicalize(_fresh(x)) is S.canonicalize(x)
    # the same tree with other births and stale flags
    y = _fresh(_tagged(e, itertools.count(1)))
    assert (y is x) == (not any(True for _ in S.mem_nodes(x)))
    assert y == x and hash(y) == hash(x)


_tags = st.tuples(st.integers(-1, 2), st.booleans(), st.booleans())


def _with_tags(e, draw):
    """`e` built again in the current table, each memory node under the
    tags (birth, stale_fwd, stale_bwd) that `draw` gives."""
    if isinstance(e, S.Bin):
        return S.Bin(e.op, _with_tags(e.left, draw), _with_tags(e.right, draw))
    if isinstance(e, S.Un):
        return S.Un(e.op, _with_tags(e.child, draw))
    if isinstance(e, (S.Load, S.Store)):
        return type(e)(_with_tags(e.addr, draw), *draw())
    return _fresh(e)


def _shape(e):
    """The structure of `e` without its tags."""
    if isinstance(e, (S.Load, S.Store)):
        return (type(e).__name__, _shape(e.addr))
    if isinstance(e, S.Bin):
        return ("B", e.op, _shape(e.left), _shape(e.right))
    if isinstance(e, S.Un):
        return ("U", e.op, _shape(e.child))
    return _exact(e)


@given(st.lists(exprs, min_size=1, max_size=3), st.data())
@settings(max_examples=200, deadline=None)
def test_structure_ids_are_exact(es, data):
    """Two nodes share a structure id exactly when they are equal, whatever
    their tags.  No id is ever given to two different structures, and the
    next intern table gives the same structures the same ids."""
    owner = {}          # structure id -> the structure it was given to
    sid_of = {}         # structure -> its id
    ids = []
    for _ in range(2):
        S.reset_tables()
        built = {}
        for e in es:
            for _ in range(2):
                x = _with_tags(e, lambda: data.draw(_tags))
                for n in (*_nodes(x), *_nodes(S.canonicalize(x))):
                    built[id(n)] = n
        reps = {}       # structure id -> the first node that has it
        for n in built.values():
            assert n == reps.setdefault(n._sid, n)
            assert owner.setdefault(n._sid, _shape(n)) == _shape(n)
            assert sid_of.setdefault(_shape(n), n._sid) == n._sid
        reps = list(reps.values())
        for i, a in enumerate(reps):
            assert not any(a == b for b in reps[i + 1:])
        ids.append({n._sid for n in reps})
    assert ids[0] == ids[1]


def test_nodes_equal_across_tables_by_structure_id():
    """A node built before `reset_tables` is equal to its twin built after
    and hashes alike; a load never equals the store of its address, and no
    node equals a value that is not a node."""
    before = S.parse_sse("load(r1+0x8)+store(r2)")
    S.reset_tables()
    after = S.parse_sse("load(r1+0x8)+store(r2)")
    assert after is not before
    assert after == before and hash(after) == hash(before)
    assert len({before, after}) == 1
    addr = S.Reg("r1")
    assert S.Load(addr) != S.Store(addr)
    for n in (S.Reg("r1"), S.Val(0), before, S.Load(addr)):
        for other in (None, "r1", (n,), n._sid):
            assert n != other and not n == other


def _rewrites(x, pick):
    """Every memoized operation on `x`, as thunks."""
    nodes = _nodes(x)
    pattern = nodes[pick % len(nodes)]
    early = S.Store(S.Reg("r3"), birth=1)
    late = S.Store(S.Reg("r3"), birth=2)    # equal to `early` but for its birth

    def even(n):
        return n.birth % 2 == 0

    return [
        lambda: S.canonicalize(x),
        lambda: S.occurs(x, pattern),
        lambda: S.occurs(x, early),
        lambda: S.replace(x, pattern, early),
        lambda: S.replace(x, pattern, late),
        lambda: S.replace(x, S.Reg("r1"), early),
        lambda: S.replace(x, S.Reg("r1"), late),
        lambda: S.retag(x, 5),
        lambda: S.retag(x, S.BIRTH_AFTER_BLOCK),
        lambda: S.mark_stale(x, even, "fwd", "even births"),
        lambda: S.mark_stale(x, even, "bwd", "even births"),
        lambda: S.replace_mem(x, even, early, "even births"),
        lambda: S.replace_mem(x, even, late, "even births"),
    ]


def _result(r):
    if isinstance(r, bool):
        return r
    if isinstance(r, tuple):
        return tuple(map(_result, r))
    return _exact(r)


@given(exprs, st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_memoized_rewrites_equal_fresh_computation(e, pick):
    """Each operation, asked twice (the second answer comes from its
    memo), gives the tag-exact result of computing it on a freshly built
    tree in an empty table, also for replacements equal but for birth."""
    for x in (_fresh(_tagged(e, itertools.count())),
              S.canonicalize(_fresh(_tagged(e, itertools.count())))):
        first = [_result(op()) for op in _rewrites(x, pick)]
        again = [_result(op()) for op in _rewrites(x, pick)]
        for i, got in enumerate(first):
            S.reset_tables()
            assert got == again[i] == _result(_rewrites(_fresh(x), pick)[i]())


def test_replacements_equal_but_for_birth_keep_their_own():
    x = canon("load(r1+0x8)")
    early = S.Store(S.Reg("r3"), birth=1)
    late = S.Store(S.Reg("r3"), birth=2)
    assert early == late and early is not late
    assert S.replace(x, S.Reg("r1"), early).addr.left.birth == 1
    assert S.replace(x, S.Reg("r1"), late).addr.left.birth == 2


def test_intern_table_holds_only_the_last_sessions_nodes(corpus):
    from mirtaint import alias, taint

    def run(name):
        session = alias.Session(corpus(name))
        taint.run_taint(session)
        return session

    run("loop_copy.ir")
    first = list(S._TABLE.values())
    session = run("memcpy_bound_bad.ir")
    second = {id(n) for n in S._TABLE.values()}
    assert second and not any(id(n) in second for n in first)
    size = len(S._TABLE)
    S.reset_tables()
    run("memcpy_bound_bad.ir")
    assert len(S._TABLE) == size
    # a session under a resolution map shares its root session's table
    r1 = S.Reg("r1")
    assert session.with_resolutions({"site": ("f",)}) is not session
    assert S.Reg("r1") is r1


# -- arithmetic, construction and parsing edges ------------------------------

U = S.U64


@pytest.mark.parametrize("op,a,b,want", [
    ("+", U, 2, 1), ("-", 1, 2, U), ("*", 1 << 63, 2, 0), ("/", 7, 2, 3),
    ("/", 7, 0, 0), ("<<", 1, 65, 2), (">>", 1 << 63, 63, 1), ("&", 6, 3, 2),
    ("|", 6, 3, 7), ("^", 6, 3, 5), ("<", 1, 2, 1), ("<", U, 0, 0),
    ("<=", 2, 2, 1), ("<=", 3, 2, 0), ("==", 2, 2, 1), ("!=", 2, 2, 0),
    ("!=", 2, 3, 1), (">=", 2, 3, 0), (">=", 3, 3, 1), (">", 3, 2, 1),
    (">", 2, 3, 0), ("+", -1, 0, U),
])
def test_eval_binop_table(op, a, b, want):
    """Each operator wraps at 64 bits and compares unsigned; constant
    folding and the interpreter both read this table."""
    assert S.eval_binop(op, a, b) == want
    assert canon(f"{hex(a & U)} {op} {hex(b)}") == S.Val(want)


@pytest.mark.parametrize("op,a,want", [
    ("~", 0, U), ("~", U, 0), ("!", 0, 1), ("!", 5, 0), ("neg", 1, U),
    ("neg", 0, 0),
])
def test_eval_unop_table(op, a, want):
    assert S.eval_unop(op, a) == want


def test_eval_rejects_unknown_operators():
    with pytest.raises(ValueError, match="unknown binop"):
        S.eval_binop("%", 1, 2)
    with pytest.raises(ValueError, match="unknown unop"):
        S.eval_unop("abs", 1)


def test_node_construction_checks_its_fields():
    with pytest.raises(TypeError, match="Bin needs right"):
        S.Bin("+", S.Reg("r1"))
    with pytest.raises(TypeError, match="Load has no field age"):
        S.Load(S.Reg("r1"), age=1)


def test_constant_outside_64_bits_canonicalizes_wrapped():
    assert S.canonicalize(S.Val(-1)) == S.Val(U)
    assert S.canonicalize(S.Val(1 << 64)) == S.Val(0)


def test_parse_unary_minus_and_trailing_space():
    assert S.parse_sse("-r1 ") == S.Un("neg", S.Reg("r1"))
    assert S.pretty(S.parse_sse("-r1")) == "-r1"
    with pytest.raises(ValueError, match="bad expression token"):
        S.parse_sse("r1 + $")


_with_index = st.recursive(_leaf, lambda c: st.one_of(
    _tree(c), st.builds(S.IndexTerm, c, st.sampled_from([0, 4, 8]),
                        st.just("i1"))), max_leaves=12)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sums_are_rebuilt_from_at_least_one_term(data):
    """No caller of `_rebuild_sum` passes it an empty list of terms: not
    canonicalization, whatever the tree, nor the induction merge of its
    offset family.  Nodes are drawn after a table reset, so none carries
    a canonical form from an earlier example."""
    real = S._rebuild_sum

    def checked(terms, const):
        assert terms, const
        return real(terms, const)

    S.reset_tables()
    e = data.draw(_with_index)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "_rebuild_sum", checked)
        c = S.canonicalize(e)
        members = [S.canonicalize(S.Bin("+", c, S.Val(4 * k))) for k in range(4)]
        for merged, _ in families(members, "i2"):
            assert S.canonicalize(merged) == merged


def _tagged_index(e, draw):
    """`_with_tags` that also reaches into index terms' bases."""
    if isinstance(e, S.IndexTerm):
        return S.IndexTerm(_tagged_index(e.base, draw), e.stride, e.index)
    if isinstance(e, S.Bin):
        return S.Bin(e.op, _tagged_index(e.left, draw), _tagged_index(e.right, draw))
    if isinstance(e, S.Un):
        return S.Un(e.op, _tagged_index(e.child, draw))
    if isinstance(e, (S.Load, S.Store)):
        return type(e)(_tagged_index(e.addr, draw), *draw())
    return e


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_occurs_agrees_with_a_search_of_every_subtree(data):
    """`occurs` reads the subtree ids cached on the node.  Over canonical
    trees with index terms and tagged, stale or spent memory nodes, it
    agrees with a brute-force search of every subtree, for a pattern
    taken from the tree or drawn apart, under tags of its own."""
    def tags():
        return data.draw(_tags)

    e = S.canonicalize(_tagged_index(data.draw(_with_index), tags))
    pattern = data.draw(st.one_of(st.sampled_from(list(S.subtrees(e))),
                                  _with_index.map(S.canonicalize)))
    pattern = S.canonicalize(_tagged_index(pattern, tags))
    assert S.occurs(e, pattern) == any(n == pattern for n in S.subtrees(e))
