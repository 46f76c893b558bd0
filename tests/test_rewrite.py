from __future__ import annotations

import random

import pytest

from mer.analysis import Snapshot
from mer.equiv import GenConfig, gen_expr
from mer.rewrite import (
    Applied, Condition, NotApplicable, PreconditionViolated, SubstCtx,
    TemplateError, UnboundMetavariable, apply_rule, match_template,
    parse_rule_text, parse_template_args, parse_template_expr,
    parse_template_head, parse_template_signature, subst_fragment, substitute,
)
from mer.refactorings import WRAP_RULE
from mer.syntax import (
    Block, IdGen, Lambda, MetaSeq, MetaVar, PVar, node_ids, parse,
    parse_expr_text, pretty_expr, struct_eq, walk,
)

from conftest import target_of


def fresh_ctx() -> SubstCtx:
    return SubstCtx(IdGen(10_000), set())


# ---------------------------------------------------------------------------
# matching


def test_match_bare_metavar():
    p = parse_template_expr("@E")
    subj = parse_expr_text("X * 2")
    b = match_template(p, subj)
    assert b is not None and b["E"] is subj


def test_match_head_template():
    t = parse_template_head("(@Args...) -> @X = @E, @Body...")
    m = parse("tmp(X) -> Y = fun() -> 2 end, begin X * Y() end.\n")
    b = match_template(t, m.definitions[0])
    assert b is not None
    assert [pvar.name for pvar in b["Args"]] == ["X"]
    assert isinstance(b["X"], PVar) and b["X"].name == "Y"
    assert isinstance(b["E"], Lambda)
    assert len(b["Body"]) == 1 and isinstance(b["Body"][0], Block)


def test_match_call_template_against_block_fails():
    t = parse_template_signature("@Name(@Args...)")
    subj = parse_expr_text("begin 1 end")
    assert match_template(t, subj) is None


def test_signature_template_matches_its_mirror_at_call_sites():
    # signature arguments are patterns; at a call site each one matches
    # the expression of the same shape
    t = parse_template_signature("f(X, 1, ok, {Y})")
    assert match_template(t, parse_expr_text("f(X, 1, ok, {Y})")) == {}
    assert match_template(t, parse_expr_text("f(Z, 1, ok, {Y})")) is None
    assert match_template(t, parse_expr_text("f(X, 2, ok, {Y})")) is None
    assert match_template(t, parse_expr_text("f(X, 1, ok, Y)")) is None


def test_nonlinear_metavar_requires_equal_fragments():
    t = parse_template_expr("@E + @E")
    assert match_template(t, parse_expr_text("X + X")) is not None
    assert match_template(t, parse_expr_text("X + Y")) is None


def test_one_list_metavar_per_sequence():
    with pytest.raises(TemplateError):
        parse_template_args("(@A..., @B...)")


@pytest.mark.parametrize("lhs", [
    "begin @A..., @B... end",  # Block
    "{@A..., @B...}",          # TupleExpr
    "{@A..., @B...} = @E",     # PTuple
])
def test_one_list_metavar_per_sequence_in_every_slot(lhs):
    with pytest.raises(TemplateError):
        parse_rule_text(f"{lhs}\n-----\n0\n")


def test_match_list_metavar_prefix_suffix():
    t = parse_template_args("(1, @Mid..., @Last)")
    call = parse_expr_text("f(1, 2, 3, 4)")
    b = match_template(t, call)
    assert b is not None
    assert [x.value for x in b["Mid"]] == [2, 3]
    assert b["Last"].value == 4
    assert match_template(t, parse_expr_text("f(9, 2)")) is None


# ---------------------------------------------------------------------------
# substitution


def test_substitute_wrap_shape():
    rhs = parse_template_expr("(fun(@Vars...) -> @E end)(@Vars...)")
    b = {"Vars": ("X",), "E": parse_expr_text("X + 1")}
    out = subst_fragment(rhs, b, fresh_ctx(), "expr")
    assert pretty_expr(out) == "(fun(X) -> X + 1 end)(X)"


def test_substitute_empty_list_metavar():
    rhs = parse_template_expr("(fun(@Vars...) -> @E end)(@Vars...)")
    b = {"Vars": (), "E": parse_expr_text("2")}
    out = subst_fragment(rhs, b, fresh_ctx(), "expr")
    assert pretty_expr(out) == "(fun() -> 2 end)()"


def test_substitute_identity():
    out = subst_fragment(parse_template_expr("@E"), {"E": parse_expr_text("X")},
                         fresh_ctx(), "expr")
    assert pretty_expr(out) == "X"


def test_substitute_args_with_moved_expr():
    rhs = parse_template_args("(@Args2..., @E)")
    b = {"Args2": (parse_expr_text("X"),), "E": parse_expr_text("fun() -> 2 end")}
    out = substitute(rhs, b, fresh_ctx())
    assert [pretty_expr(a) for a in out] == ["X", "fun() -> 2 end"]


def test_substitute_unbound_metavariable():
    with pytest.raises(UnboundMetavariable):
        subst_fragment(parse_template_expr("@Nope"), {}, fresh_ctx(), "expr")


def test_repeated_fragment_gets_fresh_ids():
    t = parse_template_expr("@E + @E")
    e = parse_expr_text("X * 2")
    out = subst_fragment(t, {"E": e}, fresh_ctx(), "expr")
    ids = [n.node_id for n in walk(out)]
    assert len(ids) == len(set(ids))
    assert struct_eq(out.left, out.right)


@pytest.mark.parametrize("seed", range(3))
def test_match_substitute_roundtrip_on_generated(seed):
    # whenever match succeeds, substituting the same template reproduces
    # the matched fragment
    templates = [
        "@E",
        "@A + @B",
        "print(@E)",
        "begin @Seq... end",
        "fun(@Ps...) -> @Body... end",
        "{@Xs...}",
    ]
    rng = random.Random(seed)
    cfg = GenConfig(visible_match=True)
    hits = 0
    for i in range(400):
        subj = gen_expr(seed * 2000 + i, rng.randint(0, 4), ("X", "Z"), cfg)
        for t_text in templates:
            t = parse_template_expr(t_text)
            b = match_template(t, subj)
            if b is None:
                continue
            hits += 1
            out = subst_fragment(t, b, fresh_ctx(), "expr")
            assert struct_eq(out, subj), f"{t_text} on {pretty_expr(subj)}"
    assert hits > 300


# ---------------------------------------------------------------------------
# conditions


def test_condition_parse_and_produced():
    c = Condition.parse("@Vars... = free_vars(@E) AND non_bind(@E)")
    assert c.produced() == {"Vars"}
    assert c.metavars() == {"Vars", "E"}
    c2 = Condition.parse("is_subset(free_vars(@E), vars(@Params...))")
    assert c2.metavars() == {"E", "Params"}


def test_condition_fresh_names():
    c = Condition.parse("fresh(Y) AND pure(@E)")
    assert c.fresh_names({}) == {"Y"}
    c2 = Condition.parse("fresh(@Name)")
    assert c2.fresh_names({"Name": "Q"}) == {"Q"}


# ---------------------------------------------------------------------------
# apply_rule


def test_apply_rule_wrap_on_literal(doubler):
    out = apply_rule(WRAP_RULE, doubler, target_of(doubler, "2"))
    assert isinstance(out, Applied)
    from mer.syntax import pretty
    assert "begin X * (fun() -> 2 end)() end" in pretty(out.snapshot.module)
    result = out.snapshot.node(out.result)
    assert pretty_expr(result) == "(fun() -> 2 end)()"


def test_apply_rule_precondition_violated():
    snap = Snapshot.from_source("f() -> Y = 5, Y + 1.\n")
    out = apply_rule(WRAP_RULE, snap, target_of(snap, "Y = 5"))
    assert out == PreconditionViolated("non_bind", "f/0: Y = 5")


def test_apply_rule_not_applicable_on_fundef(doubler):
    fun_ref = doubler.ref(doubler.module.definitions[0].node_id)
    out = apply_rule(WRAP_RULE, doubler, fun_ref)
    assert isinstance(out, NotApplicable)


def test_apply_rule_origin_stability(doubler):
    target = target_of(doubler, "X * 2")
    before_ids = node_ids(doubler.node(target))
    out = apply_rule(WRAP_RULE, doubler, target)
    assert isinstance(out, Applied)
    after_ids = {n.node_id for d in out.snapshot.module.definitions for n in walk(d)}
    assert before_ids <= after_ids  # the moved fragment kept its identities
    # and the untouched definition is shared
    assert out.snapshot.module.definitions[1] is doubler.module.definitions[1]


def test_apply_rule_exhaustive_outcome_split():
    # NotApplicable iff the left side fails to match; PreconditionViolated
    # iff it matches and the condition fails
    rule = parse_rule_text("@A + @B\n-----\n@B + @A\nWHEN pure(@A)")
    rng = random.Random(3)
    cfg = GenConfig(visible_match=True)
    seen = {"applied": 0, "na": 0, "pre": 0}
    for i in range(300):
        src_expr = gen_expr(i, rng.randint(0, 3), ("X",), cfg)
        snap = Snapshot.from_source(f"f(X) -> {pretty_expr(src_expr)}.\n")
        target = snap.ref(snap.module.definitions[0].body.exprs[0].node_id)
        subj = snap.node(target)
        out = apply_rule(rule, snap, target)
        from mer.syntax import BinOp
        matches = isinstance(subj, BinOp) and subj.op == "+"
        if not matches:
            assert isinstance(out, NotApplicable)
            seen["na"] += 1
        elif isinstance(out, PreconditionViolated):
            assert out.predicate == "pure"
            seen["pre"] += 1
        else:
            assert isinstance(out, Applied)
            seen["applied"] += 1
    assert all(v > 0 for v in seen.values()), seen


# ---------------------------------------------------------------------------
# rule text format


def test_rule_text_parse_wrap():
    r = parse_rule_text(
        "@E\n-----\n(fun(@Vars...) -> @E end)(@Vars...)\n"
        "WHEN @Vars... = free_vars(@E) AND non_bind(@E)")
    assert isinstance(r.lhs, MetaVar)
    assert len(r.condition.conjuncts) == 2


def test_rule_text_requires_separator():
    with pytest.raises(TemplateError):
        parse_rule_text("@E\n@E")


def test_rule_text_head_kind():
    r = parse_rule_text(
        "(@Args...) -> @X = @E, @Body...\n-----\n(@Args..., @X) -> @Body...",
        "head")
    assert isinstance(r.lhs.params[0], MetaSeq)
