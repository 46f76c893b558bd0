from __future__ import annotations

import pytest

from mer import analysis
from mer.analysis import FunKey, Snapshot, references
from mer.rewrite import Applied, NotApplicable, PreconditionViolated, TemplateError
from mer.schemes import (
    Instance,
    parse_scheme_instance, run_function_refactoring, run_introduce_function,
    run_introduce_variable, run_local, run_signature_refactoring,
)
from mer.refactorings import (
    EXTRACT_TO_VARIABLE_REF_TEXT, OUTER_VARIABLE_REF_TEXT, WRAP_RULE,
    WRAP_RULE_TEXT, _EXTRACT_FUN, _EXTRACT_VAR, _OUTER_VAR, _RENAME, _VAR_TO_PARAM,
    _fresh_fun_name, rename_function,
)
from mer.interp import IntV, eval_call
from mer.syntax import parse_expr_text, parse_patterns_text, pretty, pretty_expr

from conftest import defs_of, target_of


WRAP = Instance(WRAP_RULE)


def _snap(text: str) -> Snapshot:
    return Snapshot.from_source(text)


# ---------------------------------------------------------------------------
# local


def test_run_local_wrap(doubler):
    out = run_local(WRAP, doubler, target_of(doubler, "2"))
    assert isinstance(out, Applied)
    assert "(fun() -> 2 end)()" in pretty(out.snapshot.module)


def test_run_local_precondition():
    snap = _snap("f() -> Y = 5, Y + 1.\n")
    out = run_local(WRAP, snap, target_of(snap, "Y = 5"))
    assert isinstance(out, PreconditionViolated) and out.predicate == "non_bind"


def test_run_local_not_applicable_on_fundef(doubler):
    out = run_local(WRAP, doubler, doubler.ref(doubler.module.definitions[0].node_id))
    assert isinstance(out, NotApplicable)


# ---------------------------------------------------------------------------
# introduce variable (in scope)


def test_introduce_variable_in_scope():
    snap = _snap("tmp(X) -> begin X * (fun() -> 2 end)() end.\n")
    target = target_of(snap, "fun() -> 2 end")
    out = run_introduce_variable(_EXTRACT_VAR, snap, target, "Y")
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == \
        "tmp(X) -> Y = fun() -> 2 end, begin X * Y() end.\n"
    from mer.syntax import Match
    assert isinstance(out.snapshot.node(out.result), Match)


def test_introduce_variable_fresh_violation(doubler):
    out = run_introduce_variable(_EXTRACT_VAR, doubler, target_of(doubler, "2"), "X")
    assert isinstance(out, PreconditionViolated) and out.predicate == "fresh"


def test_introduce_variable_pure_violation():
    snap = _snap("f() -> print(1).\n")
    out = run_introduce_variable(_EXTRACT_VAR, snap, target_of(snap, "print(1)"), "Y")
    assert isinstance(out, PreconditionViolated) and out.predicate == "pure"


def test_introduce_variable_closed_violation(doubler):
    out = run_introduce_variable(_EXTRACT_VAR, doubler,
                                 target_of(doubler, "X * 2"), "Y")
    assert isinstance(out, PreconditionViolated) and out.predicate == "closed"


# ---------------------------------------------------------------------------
# introduce variable (outer scope)


OUTER = _OUTER_VAR


def test_outer_scope_lift():
    snap = _snap("f(X) -> G = fun() -> Y = 1, X + Y end, G().\n")
    out = run_introduce_variable(OUTER, snap, target_of(snap, "Y = 1"))
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == \
        "f(X) -> Y = 1, G = fun() -> Y, X + Y end, G().\n"


def test_outer_scope_at_function_body_not_applicable():
    snap = _snap("f() -> Y = 1, Y.\n")
    out = run_introduce_variable(OUTER, snap, target_of(snap, "Y = 1"))
    assert isinstance(out, NotApplicable)


def test_outer_scope_impure_rejected():
    snap = _snap("f() -> G = fun() -> Y = print(1), Y end, G().\n")
    out = run_introduce_variable(OUTER, snap, target_of(snap, "Y = print(1)"))
    assert isinstance(out, PreconditionViolated) and out.predicate == "pure"


def test_outer_scope_name_clash_rejected():
    # Y exists in the outer scope already
    snap = _snap("f(Y) -> G = fun() -> Y = 1, Y end, G().\n")
    out = run_introduce_variable(OUTER, snap, target_of(snap, "Y = 1"))
    assert isinstance(out, PreconditionViolated) and out.predicate == "fresh"


# ---------------------------------------------------------------------------
# introduce function


def test_introduce_function_on_body():
    snap = _snap("f(X) -> begin X * (fun() -> 2 end)() end.\ng(X) -> f(X+1).\n")
    f = snap.module.definitions[0]
    out = run_introduce_function(_EXTRACT_FUN, snap, snap.ref(f.body.node_id),
                                 "tmp", f.params)
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {
        "f(X) -> tmp(X).",
        "g(X) -> f(X + 1).",
        "tmp(X) -> begin X * (fun() -> 2 end)() end.",
    }
    new_def = out.snapshot.node(out.result)
    assert new_def.name == "tmp"
    # appended last
    assert out.snapshot.module.definitions[-1] is new_def


def test_introduce_function_free_var_not_covered():
    snap = _snap("f(X) -> X + Z.\n")
    out = run_introduce_function(_EXTRACT_FUN, snap, target_of(snap, "X + Z"),
                                 "tmp", parse_patterns_text("X"))
    assert isinstance(out, PreconditionViolated) and out.predicate == "is_subset"


def test_introduce_function_name_clash():
    snap = _snap("f(X) -> X.\ng(X) -> X + 1.\n")
    out = run_introduce_function(_EXTRACT_FUN, snap, target_of(snap, "X + 1"),
                                 "g", parse_patterns_text("X"))
    assert isinstance(out, PreconditionViolated) and out.predicate == "signature_clash"


def test_introduce_function_superset_params_allowed():
    snap = _snap("f(X) -> 7.\n")
    out = run_introduce_function(_EXTRACT_FUN, snap, target_of(snap, "7"),
                                 "tmp", parse_patterns_text("X"))
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {"f(X) -> tmp(X).", "tmp(X) -> 7."}


# ---------------------------------------------------------------------------
# function refactoring (var_to_param rules)


def test_function_refactoring_var_to_param():
    snap = _snap(
        "tmp(X) -> Y = fun() -> 2 end, begin X * Y() end.\n"
        "f(X) -> tmp(X).\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {
        "tmp(X, Y) -> begin X * Y() end.",
        "f(X) -> tmp(X, fun() -> 2 end).",
    }
    assert references(out.snapshot, FunKey("tmp", 2))
    assert references(out.snapshot, FunKey("tmp", 1)) == []


def test_function_refactoring_impure_bound_expr():
    snap = _snap("tmp(X) -> Y = print(1), X + Y.\nf(X) -> tmp(X).\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert isinstance(out, PreconditionViolated) and out.predicate == "pure"
    assert pretty(snap.module) == pretty(snap.module)


def test_function_refactoring_shape_mismatch():
    snap = _snap("tmp(X) -> X + 1.\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert isinstance(out, NotApplicable)


def test_function_refactoring_arity_clash():
    snap = _snap("tmp(X) -> Y = 1, X + Y.\ntmp(A, B) -> A.\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert isinstance(out, PreconditionViolated) and out.predicate == "signature_clash"


def test_function_refactoring_self_reference_rejected():
    snap = _snap("tmp(X) -> Y = tmp(1), X.\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert isinstance(out, PreconditionViolated)
    assert out.predicate == "no_self_reference"


def test_function_refactoring_recursive_references_updated():
    snap = _snap("tmp(X) -> Y = 1, tmp(X - Y).\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {"tmp(X, Y) -> tmp(X - Y, 1)."}


def test_function_refactoring_empty_result_body():
    snap = _snap("tmp(X) -> Y = 1.\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert isinstance(out, NotApplicable)


# ---------------------------------------------------------------------------
# signature refactoring


def test_rename_function():
    snap = _snap("tmp(X, Y) -> begin X * Y() end.\nf(X) -> tmp(X, fun() -> 2 end).\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_signature_refactoring(_RENAME, snap, fn, "f")
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {
        "f(X, Y) -> begin X * Y() end.",
        "f(X) -> f(X, fun() -> 2 end).",
    }
    # reference consistency
    assert len(references(out.snapshot, FunKey("f", 2))) == 1
    assert references(out.snapshot, FunKey("tmp", 2)) == []


def test_rename_clash():
    snap = _snap("tmp(X, Y) -> X.\ng(X, Y) -> X + Y.\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_signature_refactoring(_RENAME, snap, fn, "g")
    assert isinstance(out, PreconditionViolated) and out.predicate == "signature_clash"


def test_rename_clash_is_refused_before_the_callers_are_walked(monkeypatch):
    snap = _snap("tmp(X, Y) -> X.\ng(X, Y) -> X + Y.\nh() -> tmp(1, 2).\n")

    def walk_callers(*args):
        raise AssertionError("the callers were walked")

    monkeypatch.setattr(analysis, "references", walk_callers)
    out = rename_function(snap, snap.ref(snap.module.definitions[0].node_id), "g")
    assert out == PreconditionViolated("signature_clash", "g/2 already defined")


def test_signature_argument_patterns_become_expressions_at_call_sites():
    snap = _snap("f({X}) -> X.\nh(X) -> f({X}).\n")
    _, _, inst = parse_scheme_instance(
        "FUNCTION SIGNATURE REFACTORING r()\nf({X})\n-----\ng({X})\n")
    out = run_signature_refactoring(inst, snap, snap.ref(snap.module.definitions[0].node_id))
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == "g({X}) -> X.\nh(X) -> g({X}).\n"
    assert eval_call(out.snapshot.module, FunKey("h", 1), [IntV(1)]).value == IntV(1)


def test_a_new_key_already_called_is_a_clash():
    # each step would make g/0, h/0 or tmp/2, which f calls, defined: the
    # call would then reach the new function instead of failing
    snap = _snap("f(X) -> g(), h(), tmp(X, 1).\ntmp(X) -> Y = 1, X + Y.\nk() -> 1.\n")
    tmp, k = (snap.ref(d.node_id) for d in snap.module.definitions[1:])
    assert rename_function(snap, k, "h") == PreconditionViolated(
        "signature_clash", "h/0 already called")
    assert run_introduce_function(_EXTRACT_FUN, snap, target_of(snap, "1"), "g", ()) == \
        PreconditionViolated("signature_clash", "g/0 already called")
    assert run_function_refactoring(_VAR_TO_PARAM, snap, tmp) == PreconditionViolated(
        "signature_clash", "tmp/2 already called")
    assert _fresh_fun_name(snap, "g", ()) == "g1"


def test_rename_identity():
    snap = _snap("f(X) -> X.\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_signature_refactoring(_RENAME, snap, fn, "f")
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == "f(X) -> X.\n"


def test_rename_recursive_function():
    snap = _snap("loop(X) -> loop(X - 1).\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_signature_refactoring(_RENAME, snap, fn, "go")
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == "go(X) -> go(X - 1).\n"


def test_reference_consistency_on_generated_modules():
    # after a definition-and-references rewrite, the new key has exactly as
    # many references as the old key had, and the old key has none
    from mer.equiv import gen_module
    renamed = arity_changed = 0
    for seed in range(80):
        snap = Snapshot(gen_module(seed, size=3))
        for d in snap.module.definitions:
            old_key = FunKey(d.name, d.arity)
            before = len(references(snap, old_key))
            out = run_signature_refactoring(_RENAME, snap, snap.ref(d.node_id), "zz9")
            if isinstance(out, Applied):
                renamed += 1
                assert len(references(out.snapshot, FunKey("zz9", d.arity))) == before
                assert references(out.snapshot, old_key) == []
            from mer.syntax import Match
            if not isinstance(d.body.exprs[0], Match):
                continue
            out2 = run_function_refactoring(_VAR_TO_PARAM, snap, snap.ref(d.node_id))
            if isinstance(out2, Applied):
                arity_changed += 1
                assert len(references(out2.snapshot, FunKey(d.name, d.arity + 1))) == before
                assert references(out2.snapshot, old_key) == []
    assert renamed > 50 and arity_changed > 3


# ---------------------------------------------------------------------------
# evaluation-point hazards: an expression moved to an earlier (or shared)
# evaluation point must not be able to raise or to bind


def test_introduce_variable_rejects_raising_expression():
    snap = _snap("f() -> print(1), W2 = 1 div 0.\n")
    out = run_introduce_variable(_EXTRACT_VAR, snap, target_of(snap, "1 div 0"), "W")
    assert isinstance(out, PreconditionViolated) and out.predicate == "pure"


def test_outer_scope_rejects_raising_expression():
    snap = _snap("f() -> G = fun() -> Y = 1 div 0, Y end, 0.\n")
    out = run_introduce_variable(OUTER, snap, target_of(snap, "Y = 1 div 0"))
    assert isinstance(out, PreconditionViolated) and out.predicate == "pure"


def test_introduce_function_rejects_leaking_binding():
    snap = _snap("f() -> V1 = 5, V1.\n")
    out = run_introduce_function(_EXTRACT_FUN, snap,
                                 target_of(snap, "V1 = 5"), "ex0", ())
    assert isinstance(out, PreconditionViolated) and out.predicate == "non_bind"


def test_introduce_function_rejects_rematch():
    # the second V1 = 4 re-checks the first binding, so V1 is a free
    # variable of the extracted code and must be covered by the parameters
    snap = _snap("f() -> V1 = 4, V1 = 4.\n")
    out = run_introduce_function(_EXTRACT_FUN, snap,
                                 target_of(snap, "V1 = 4", occurrence=2), "ex0", ())
    assert isinstance(out, PreconditionViolated) and out.predicate == "is_subset"


def test_var_to_param_rejects_binding_expression():
    snap = _snap("tmp(X) -> Y = begin V9 = 5, V9 end, Y.\nf(X) -> tmp(X).\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert isinstance(out, PreconditionViolated) and out.predicate == "pure"


def test_rename_rewrites_nested_references():
    snap = _snap("f0(X) -> X.\nf1(X) -> f0(f0(X)).\n")
    out = run_signature_refactoring(_RENAME, snap,
                                    snap.ref(snap.module.definitions[0].node_id), "q")
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {"q(X) -> X.", "f1(X) -> q(q(X))."}


def test_var_to_param_rewrites_nested_references():
    snap = _snap("tmp(X) -> Y = 1, tmp(tmp(X - Y)).\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {"tmp(X, Y) -> tmp(tmp(X - Y, 1), 1)."}


# ---------------------------------------------------------------------------
# atomicity


def test_failed_steps_leave_snapshot_untouched():
    src = "tmp(X) -> Y = print(1), X.\nf(X) -> tmp(X).\n"
    snap = _snap(src)
    before = pretty(snap.module)
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(_VAR_TO_PARAM, snap, fn)
    assert not isinstance(out, Applied)
    assert pretty(snap.module) == before
    assert snap.module.definitions is snap.module.definitions


# ---------------------------------------------------------------------------
# scheme instance text format


def test_parse_local_block_matches_builtin(doubler):
    kind, name, inst = parse_scheme_instance(
        "LOCAL REFACTORING wrap()\n" + WRAP_RULE_TEXT)
    assert (kind, name) == ("local", "wrap")
    out1 = run_local(inst, doubler, target_of(doubler, "2"))
    out2 = run_local(WRAP, doubler, target_of(doubler, "2"))
    assert pretty(out1.snapshot.module) == pretty(out2.snapshot.module)


def test_local_block_binds_its_header_argument():
    _, _, inst = parse_scheme_instance("LOCAL REFACTORING twice(K)\n@E\n-----\n@E * @K\n")
    assert inst.params == ("K",)
    snap = _snap("f(X) -> X + 1.\n")
    out = run_local(inst, snap, target_of(snap, "X + 1"), parse_expr_text("2"))
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == "f(X) -> (X + 1) * 2.\n"
    with pytest.raises(TemplateError, match="takes 1 argument"):
        run_local(inst, snap, target_of(snap, "X + 1"))
    with pytest.raises(TemplateError, match="takes 1 argument"):
        run_local(inst, snap, target_of(snap, "X + 1"), parse_expr_text("2"), "Y")


def test_block_header_arguments_are_variables():
    _, _, inst = parse_scheme_instance(
        "INTRODUCE FUNCTION extract_to_function(Name, Params...)\n"
        "DEFINITION\n@Name(@Params...) -> @E .\nREFERENCE\n@E\n-----\n@Name(@Params...)\n")
    assert inst.params == ("Name", "Params...")
    with pytest.raises(TemplateError, match="must be variables"):
        parse_scheme_instance("LOCAL REFACTORING twice(k)\n@E\n-----\n@E * @k\n")


def _condition_text(cond) -> str:
    return " AND ".join(map(pretty_expr, cond.conjuncts))


def test_function_refactoring_relocation_checks_are_when_text():
    assert _condition_text(_VAR_TO_PARAM.rule.condition) == \
        "pure(@E) AND closed(@E) AND relocatable(@E)"
    # two bindings become parameters: each moved fragment gets a
    # conjunct, after the block's own WHEN and in name order
    _, _, inst = parse_scheme_instance(
        "FUNCTION REFACTORING two_to_params()\n"
        "DEFINITION\n(@Args...) -> @V = @B, @W = @A, @Body...\n-----\n"
        "(@Args..., @V, @W) -> @Body...\n"
        "REFERENCE\n(@Args2...)\n-----\n(@Args2..., @B, @A)\n"
        "WHEN closed(@B) AND closed(@A)\n")
    assert _condition_text(inst.rule.condition) == \
        "closed(@B) AND closed(@A) AND relocatable(@A) AND relocatable(@B)"
    snap = _snap("tmp(X) -> Y = 1, Z = 2, X + Y + Z.\nf(X) -> tmp(X).\n")
    out = run_function_refactoring(inst, snap, snap.ref(snap.module.definitions[0].node_id))
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {"tmp(X, Y, Z) -> X + Y + Z.",
                                            "f(X) -> tmp(X, 1, 2)."}
    snap = _snap("tmp(X) -> Y = 1, Z = tmp(0), X.\n")
    out = run_function_refactoring(inst, snap, snap.ref(snap.module.definitions[0].node_id))
    assert out == PreconditionViolated("no_self_reference", "tmp/1: tmp(0)")


def test_parse_introduce_variable_blocks():
    kind, name, inst = parse_scheme_instance(
        "INTRODUCE VARIABLE extract_to_variable(Name)\n"
        "DEFINITION IN SCOPE\n@Name = @E\nREFERENCE\n"
        + EXTRACT_TO_VARIABLE_REF_TEXT)
    assert (kind, name, inst.site) == ("introduce_variable",
                                            "extract_to_variable", "in_scope")
    snap = _snap("tmp(X) -> begin X * (fun() -> 2 end)() end.\n")
    out = run_introduce_variable(inst, snap, target_of(snap, "fun() -> 2 end"), "Y")
    assert isinstance(out, Applied)

    kind2, name2, inst2 = parse_scheme_instance(
        "INTRODUCE VARIABLE outer_variable()\n"
        "DEFINITION IN OUTER SCOPE\n@Name = @E\nREFERENCE\n"
        + OUTER_VARIABLE_REF_TEXT)
    assert inst2.site == "outer_scope"


def test_parse_introduce_function_block():
    kind, name, inst = parse_scheme_instance(
        "INTRODUCE FUNCTION extract_to_function(Name, Params...)\n"
        "DEFINITION\n@Name(@Params...) -> @E .\n"
        "REFERENCE\n@E\n-----\n@Name(@Params...)\n"
        "WHEN is_subset(free_vars(@E), vars(@Params...))\n")
    assert (kind, name) == ("introduce_function", "extract_to_function")
    snap = _snap("f(X) -> X + 1.\n")
    out = run_introduce_function(inst, snap, target_of(snap, "X + 1"),
                                 "helper", parse_patterns_text("X"))
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {"f(X) -> helper(X).",
                                            "helper(X) -> X + 1."}


def test_parse_function_refactoring_block():
    kind, name, inst = parse_scheme_instance(
        "FUNCTION REFACTORING var_to_param()\n"
        "DEFINITION\n(@Args...) -> @X = @E, @Body...\n-----\n"
        "(@Args..., @X) -> @Body...\n"
        "REFERENCE\n(@Args2...)\n-----\n(@Args2..., @E)\n"
        "WHEN pure(@E) AND closed(@E)\n")
    assert (kind, name) == ("function", "var_to_param")
    snap = _snap("tmp(X) -> Y = 1, X + Y.\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_function_refactoring(inst, snap, fn)
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {"tmp(X, Y) -> X + Y."}


def test_parse_signature_block():
    kind, name, inst = parse_scheme_instance(
        "FUNCTION SIGNATURE REFACTORING rename_function(NewName)\n"
        "@Name(@Args...)\n-----\n@NewName(@Args...)\n")
    assert (kind, name) == ("signature", "rename_function")
    snap = _snap("f(X) -> X.\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_signature_refactoring(inst, snap, fn, "h")
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == "h(X) -> X.\n"


def test_signature_rule_with_a_concrete_variable_rewrites_call_sites():
    _, _, inst = parse_scheme_instance(
        "FUNCTION SIGNATURE REFACTORING rename_f(NewName)\n"
        "f(X)\n-----\n@NewName(X)\n")
    snap = _snap("f(X) -> X.\ng(X) -> f(X).\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = run_signature_refactoring(inst, snap, fn, "h")
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == "h(X) -> X.\ng(X) -> h(X).\n"


_INTRO_FUN = "INTRODUCE FUNCTION extract_to_function(Name, Params...)\n"
_INTRO_VAR = "INTRODUCE VARIABLE extract_to_variable(Name)\n"


@pytest.mark.parametrize("block", [
    _INTRO_FUN + "DEFINITION\ngarbage )(\nREFERENCE\n@E\n-----\n@Name(@Params...)\n",
    _INTRO_FUN + "DEFINITION\n@Name(@Params...) -> @E\nREFERENCE\n@E\n-----\n@Name(@Params...)\n",
    _INTRO_FUN + "REFERENCE\n@E\n-----\n@Name(@Params...)\n",
    _INTRO_FUN + "DEFINITION\n@Name(@Params...) -> @E .\n",
    _INTRO_FUN + "DEFINITION\n@Name(@Params...) -> @E .\nREFERENCE\n@E )(\n-----\n@Name\n",
    _INTRO_FUN + "DEFINITION\n@Name(@Params...) -> @E .\nREFERENCE\n@E\n@Name(@Params...)\n",
    _INTRO_FUN + "DEFINITION\n@Name(@Params...) -> @E .\nREFERENCE\n@E\n-----\n@Name\n"
    "WHEN pure(@E\n",
    _INTRO_VAR + "junk\nDEFINITION IN SCOPE\n@Name = @E\nREFERENCE\n@E\n-----\n@Name\n",
    _INTRO_VAR + "DEFINITION IN SIDE SCOPE\n@Name = @E\nREFERENCE\n@E\n-----\n@Name\n",
    _INTRO_VAR + "DEFINITION IN SCOPE\n@Name\nREFERENCE\n@E\n-----\n@Name\n",
    _INTRO_VAR + "DEFINITION IN SCOPE\n@Name = @E\n",
    _INTRO_VAR + "DEFINITION IN SCOPE\n@Name = @E\nREFERENCE\n@E\n-----\n@Name\n"
    "REFERENCE\n@E\n-----\n@Name\n",
    _INTRO_FUN + "DEFINITION\n@Name(@Params...) -> @E .\nREFERENCE\n@E\n-----\n"
    "@Name(@Params..., 1)\n",
    _INTRO_FUN + "DEFINITION\n@Name(@Params...) -> @E .\nREFERENCE\n@E\n-----\n@Name()\n",
    _INTRO_FUN + "DEFINITION\n@Name(@Params...) -> @E .\nREFERENCE\n@E\n-----\n"
    "g(@Params...)\n",
], ids=[
    "fun-garbage-definition", "fun-definition-without-dot", "fun-no-definition",
    "fun-no-reference", "fun-reference-unparsable", "fun-reference-not-a-rule",
    "fun-when-unparsable", "var-text-before-definition", "var-bad-placement",
    "var-definition-not-a-match", "var-no-reference", "var-reference-twice",
    "fun-reference-extra-argument", "fun-reference-no-arguments",
    "fun-reference-calls-another-function",
])
def test_introduce_block_sections_checked(block):
    with pytest.raises(TemplateError):
        parse_scheme_instance(block)


_DEFAULT_FUN_DEF = "DEFINITION\n@Name(@Params...) -> @E .\n"
_DEFAULT_FUN_REF = "REFERENCE\n@E\n-----\n@Name(@Params...)\n"


@pytest.mark.parametrize("definition,reference,expected", [
    (_DEFAULT_FUN_DEF, "REFERENCE\n@E\n-----\nbegin @Name(@Params...) end\n",
     "f(X) -> begin h(X) end.\nh(X) -> X + 1.\n"),
    ("DEFINITION\n@Name(@Params...) -> begin @E end .\n", _DEFAULT_FUN_REF,
     "f(X) -> h(X).\nh(X) -> begin X + 1 end.\n"),
], ids=["reference", "definition"])
def test_introduce_function_instantiates_its_rule_text(definition, reference, expected):
    _, _, inst = parse_scheme_instance(_INTRO_FUN + definition + reference)
    snap = _snap("f(X) -> X + 1.\n")
    out = run_introduce_function(inst, snap, target_of(snap, "X + 1"),
                                 "h", parse_patterns_text("X"))
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == expected


def test_introduce_function_body_target_inside_a_block_not_applicable():
    # a Body target can only be the new definition's whole body
    _, _, inst = parse_scheme_instance(
        _INTRO_FUN + "DEFINITION\n@Name(@Params...) -> begin @E end .\n" + _DEFAULT_FUN_REF)
    snap = _snap("f(X) -> X + 1, X.\n")
    body = snap.module.definitions[0].body
    out = run_introduce_function(inst, snap, snap.ref(body.node_id),
                                 "h", parse_patterns_text("X"))
    assert out == NotApplicable(
        "the block cannot take this target: cannot use a Body as an expression")


def test_introduce_variable_instantiates_its_definition():
    _, _, inst = parse_scheme_instance(
        _INTRO_VAR + "DEFINITION IN SCOPE\n@Name = begin @E end\nREFERENCE\n"
        + EXTRACT_TO_VARIABLE_REF_TEXT)
    snap = _snap("tmp(X) -> begin X * (fun() -> 2 end)() end.\n")
    out = run_introduce_variable(inst, snap, target_of(snap, "fun() -> 2 end"), "Y")
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == \
        "tmp(X) -> Y = begin fun() -> 2 end end, begin X * Y() end.\n"


def test_introduce_variable_inherent_conditions_come_first():
    # print(1) is impure and its binding of V is used outside: the scheme's
    # own pure is reported ahead of the instance's non_bind
    _, _, inst = parse_scheme_instance(
        _INTRO_VAR + "DEFINITION IN SCOPE\n@Name = @E\nREFERENCE\n"
        + EXTRACT_TO_VARIABLE_REF_TEXT + "WHEN non_bind(@E)\n")
    snap = _snap("f() -> V = print(1), V.\n")
    target = target_of(snap, "V = print(1)")
    out = run_introduce_variable(inst, snap, target, "Y")
    assert out == PreconditionViolated("pure", "f/0: V = print(1)")
