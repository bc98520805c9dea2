"""One dedicated test per row of the update-rule table, plus the two
store-ordering side conditions.  Each test builds the row's statement
and a matching expression and checks the exact output (the substituted
expression or a kill)."""

from mirtaint import alias, ir
from mirtaint import sse as S
from mirtaint.alias import Tracked


def stmt(text, index=0):
    prog = ir.parse_program(f"func f @0x1000 frame=0 {{\nbb0:\n  {text}\n  ret\n}}\n")
    return prog.functions["f"].blocks[0].stmts[index]


def tracked(text_or_expr, birth=0, tainted=False):
    expr = (S.parse_sse(text_or_expr) if isinstance(text_or_expr, str)
            else text_or_expr)
    expr = S.retag(S.canonicalize(expr), birth)
    return Tracked(expr=expr, point=ir.Point("f", "bb0", 0), phase="pre",
                   seed_id=0, tainted=tainted)


def walk(statements, item, forward):
    """Walk one fact through the statements with the engine's block
    walker, from the first statement forward or the last backward.
    Returns (NEW_f, NEW_b), each deduplicated by key: the survivors join
    the walked direction, and each successor the directions it lives in.
    No walk here may stop at a cap or drop a saturated expression."""
    table = alias._table(statements)
    start = 0 if forward else len(table.rows) - 1
    survivors, created, cut, saturated = alias._walk(table, [(item, start)], None,
                                                     forward, {})
    assert not cut and not saturated
    new_f = [t for t, d, _ in created if "f" in d]
    new_b = [t for t, d, _ in created if "b" in d]
    if forward:
        new_f = survivors + new_f
    else:
        new_b = survivors + new_b
    return unique(new_f), unique(new_b)


def unique(items):
    """`items` without a repeated key, the first of each kept."""
    seen, out = set(), []
    for t in items:
        if t.key() not in seen:
            seen.add(t.key())
            out.append(t)
    return out


def fwd(statement, item):
    new_f, new_b = walk([statement], item, True)
    return ([S.pretty(t.expr) for t in new_f],
            [S.pretty(t.expr) for t in new_b],
            [t for t in new_f if t.rule is not None])


def bwd(statement, item, start_birth=5):
    new_f, new_b = walk([statement], tracked(item, birth=start_birth)
                        if isinstance(item, str) else item, False)
    return ([S.pretty(t.expr) for t in new_f],
            [S.pretty(t.expr) for t in new_b])


def rules_of(items):
    return sorted({t.rule for t in items})


# -- define-use (forward) rules 1-7 -------------------------------------------

def test_rule_1_move_use():
    new_f, _, created = fwd(stmt("r5 = r2"), tracked("load(r2+0x8)"))
    assert "load(r5+0x8)" in new_f
    assert rules_of(created) == [1]


def test_rule_2_binop_use():
    new_f, _, created = fwd(stmt("r5 = r2 + 0x8"), tracked("load(r2+0x8)"))
    assert "load(r5)" in new_f
    assert rules_of(created) == [2]


def test_rule_3_ite_true_arm():
    new_f, _, created = fwd(stmt("r5 = ite r9, r2, r3"), tracked("load(r2)"))
    (succ,) = created
    assert S.pretty(succ.expr) == "load(r5)"
    assert succ.rule == 3
    (cond,) = succ.conds
    assert cond.reg == "r9" and cond.value is True


def test_rule_4_ite_false_arm():
    new_f, _, created = fwd(stmt("r5 = ite r9, r2, r3"), tracked("load(r3)"))
    (succ,) = created
    assert S.pretty(succ.expr) == "load(r5)"
    assert succ.rule == 4
    (cond,) = succ.conds
    assert cond.reg == "r9" and cond.value is False


def test_rule_5_load_use():
    new_f, _, created = fwd(stmt("r5 = load r2"), tracked("load(r2)"))
    assert "r5" in new_f
    assert rules_of(created) == [5]


def test_rule_5_load_with_displacement():
    new_f, _, created = fwd(stmt("r5 = load r2 + 0x8"), tracked("load(r2+0x8)"))
    assert "r5" in new_f
    assert rules_of(created) == [5]


def test_rule_6_store_tracks_both_ways():
    new_f, new_b, created = fwd(stmt("store r7 = r2"), tracked("load(r2+0x4)"))
    assert "load(store(r7)+0x4)" in new_f
    assert new_b == ["load(store(r7)+0x4)"]
    assert rules_of(created) == [6]


def test_rule_7_store_node_consumed_by_load():
    e = S.canonicalize(S.Load(S.Bin("+", S.Store(S.Reg("r2"), birth=0),
                                    S.Val(8)), birth=0))
    new_f, _, created = fwd(stmt("r5 = load r2"),
                            Tracked(expr=e, point=ir.Point("f", "bb0", 0),
                                    phase="pre", seed_id=0))
    assert "load(r5+0x8)" in new_f
    assert rules_of(created) == [7]


# -- use-define (backward) rules 8-13 -----------------------------------------

def test_rule_8_move_def():
    new_f, new_b = bwd(stmt("r5 = r2"), "load(r5+0x8)")
    assert "load(r2+0x8)" in new_b and "load(r2+0x8)" in new_f


def test_rule_9_binop_def():
    new_f, new_b = bwd(stmt("r5 = r1 + r2"), "r5")
    assert "r1+r2" in new_b and "r1+r2" in new_f


def test_rule_10_ite_def_true():
    prog_stmt = stmt("r5 = ite r9, r2, r3")
    new_f, new_b = walk([prog_stmt], tracked("load(r5)", birth=5), False)
    got = {(S.pretty(t.expr), t.rule, t.conds[0].value if t.conds else None)
           for t in new_b if t.rule is not None}
    assert ("load(r2)", 10, True) in got


def test_rule_11_ite_def_false():
    prog_stmt = stmt("r5 = ite r9, r2, r3")
    _, new_b = walk([prog_stmt], tracked("load(r5)", birth=5), False)
    got = {(S.pretty(t.expr), t.rule, t.conds[0].value if t.conds else None)
           for t in new_b if t.rule is not None}
    assert ("load(r3)", 11, False) in got


def test_rule_12_load_def():
    new_f, new_b = bwd(stmt("r5 = load r2"), "r5")
    assert "load(r2)" in new_b and "load(r2)" in new_f


def test_rule_13_store_resolves_later_load():
    # the tracked load was created after the store it crosses
    item = tracked(S.Load(S.Reg("r2")), birth=5)
    new_f, new_b = walk([stmt("store r2 = r7")], item, False)
    assert "r7" in [S.pretty(t.expr) for t in new_b]
    assert "r7" in [S.pretty(t.expr) for t in new_f]


def test_rule_13_footnote_requires_load_after_store():
    # a load created before the store must not be rewritten by it
    item = Tracked(expr=S.canonicalize(S.Load(S.Reg("r2"),
                                              birth=S.BIRTH_BEFORE_BLOCK)),
                   point=ir.Point("f", "bb0", 0), phase="pre", seed_id=0)
    new_f, new_b = walk([stmt("store r2 = r7")], item, False)
    assert "r7" not in new_f and "r7" not in new_b


# -- kills, rules 14-15 --------------------------------------------------------

def test_rule_14_redefinition_kills():
    new_f, _, created = fwd(stmt("r3 = r7"), tracked("load(r3+0x8)"))
    assert new_f == [] and created == []


def test_rule_14_unrelated_register_survives():
    new_f, _, _ = fwd(stmt("r3 = r7"), tracked("r5"))
    assert new_f == ["r5"]


def test_rule_14_applies_backward_too():
    # crossing the definition of a register the expression mentions, with
    # no definition rule able to rewrite it, ends its backward life
    item = tracked("load(r3+0x8)")
    new_f, new_b = walk([stmt("r3 = call g()")], item, False)
    assert new_b == [] and new_f == []


def test_rule_14_call_result_kills_forward():
    # a call defines its result register, so a fact holding it dies
    # there going forward, as it does going backward
    call = stmt("r3 = call g(r5)")
    assert fwd(call, tracked("load(r3+0x8)"))[:2] == ([], [])
    assert fwd(call, tracked("load(r5+0x8)"))[:2] == (["load(r5+0x8)"], [])


def test_rule_15_store_kills_older_cell():
    e = S.canonicalize(S.Load(
        S.Bin("+", S.Store(S.Reg("r6"), birth=S.BIRTH_BEFORE_BLOCK), S.Val(8)),
        birth=S.BIRTH_BEFORE_BLOCK))
    item = Tracked(expr=e, point=ir.Point("f", "bb0", 0), phase="pre", seed_id=0)
    new_f, new_b = walk([stmt("store r6 = r9")], item, True)
    assert new_f == [] and new_b == []


def test_rule_15_footnote_spares_same_statement_store():
    # rule 6 creates the store node at this statement; footnote ordering
    # says only strictly older occurrences are killed
    new_f, new_b, created = fwd(stmt("store r6 = r2"), tracked("load(r2+0x4)"))
    assert "load(store(r6)+0x4)" in new_f
    assert rules_of(created) == [6]


def test_replacement_supersedes_kill():
    # r0 is both used (in the matched load) and redefined: the successor
    # survives, the original does not
    e = S.canonicalize(S.Load(S.Bin("+", S.Reg("r0"), S.Val(8)), birth=0))
    item = Tracked(expr=e, point=ir.Point("f", "bb0", 0), phase="pre", seed_id=0)
    new_f, _ = walk([stmt("r0 = load r0 + 0x8")], item, True)
    assert [S.pretty(t.expr) for t in new_f] == ["r0"]


def test_load_refuses_substitution_beside_old_destination_forward():
    # r1 also occurs outside load(r2): replacing the load with r1 would mix
    # the old r1 with the loaded value, so rule 5 refuses and rule 14 kills
    new_f, new_b, created = fwd(stmt("r1 = load r2"), tracked("r1+load(r2)"))
    assert (new_f, new_b, created) == ([], [], [])


def test_load_refuses_substitution_beside_old_destination_backward():
    new_f, new_b = bwd(stmt("r1 = load r2"), "r1+load(r2)")
    assert "r1+r1" not in new_f + new_b


def test_forward_rules_exclusive_per_statement():
    """At most one define-use rule fires per (statement, expression) in
    forward mode; the two ITE rows count per arm."""
    statements = [
        stmt("r5 = r2"),
        stmt("r5 = r2 + 0x8"),
        stmt("r5 = load r2"),
        stmt("store r7 = r2"),
    ]
    patterns = ["r2", "load(r2)", "load(r2+0x8)", "store(r2)",
                "load(store(r2)+0x8)", "r2+0x8"]
    for statement in statements:
        for pat in patterns:
            item = tracked(pat)
            _, _, created = fwd(statement, item)
            fired = {t.rule for t in created if t.rule is not None}
            assert len(fired) <= 1, (ir.pretty_stmt(statement.form), pat, fired)
