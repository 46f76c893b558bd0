from __future__ import annotations

import pytest

from mer.analysis import FunKey
from mer.equiv import (
    DIFFERENT, EQUAL, UNKNOWN, Equivalent, GenerationExhausted, Inequivalent,
    PlanError, TrialPlan, Unknown, check_module_equiv, check_rule_equiv,
    eq_outcomes, format_verdict, gen_args, gen_expr, gen_module,
)
from mer.interp import Exn, IntV, Ok, Timeout, eval_call
from mer.refactorings import WRAP_RULE
from mer.rewrite import Condition, parse_rule_text
from mer.syntax import IntLit, VarRef, module_struct_eq, parse, pretty

from conftest import DOUBLER_SRC, GENERALISED_SRC


PLAN = TrialPlan(entries=(FunKey("f", 1), FunKey("g", 1)), trials=50)


# ---------------------------------------------------------------------------
# eq_outcomes


def test_eq_outcomes_equal_ok():
    o = Ok(IntV(6), {}, ())
    assert eq_outcomes(o, Ok(IntV(6), {}, ()), compare_env=True) == (EQUAL, None)


def test_eq_outcomes_trace_difference():
    with_print = Ok(IntV(2), {}, (IntV(1),))
    without = Ok(IntV(2), {}, ())
    assert eq_outcomes(with_print, without, compare_env=False) == (DIFFERENT, "trace")


def test_eq_outcomes_exception_kinds_ignored():
    assert eq_outcomes(Exn("badmatch", ()), Exn("badarith", ()),
                       compare_env=True) == (EQUAL, None)
    assert eq_outcomes(Exn("badmatch", (IntV(1),)), Exn("badmatch", ()),
                       compare_env=True) == (DIFFERENT, "trace")


def test_eq_outcomes_env_compared_when_asked():
    a = Ok(IntV(1), {"X": IntV(1)}, ())
    b = Ok(IntV(1), {}, ())
    assert eq_outcomes(a, b, compare_env=True) == (DIFFERENT, "env")
    assert eq_outcomes(a, b, compare_env=False) == (EQUAL, None)


def test_eq_outcomes_timeout_is_unknown():
    assert eq_outcomes(Timeout(()), Ok(IntV(1), {}, ()), True) == (UNKNOWN, None)
    assert eq_outcomes(Exn("badarith", ()), Timeout(()), True) == (UNKNOWN, None)


def test_eq_outcomes_ok_vs_exn():
    assert eq_outcomes(Ok(IntV(1), {}, ()), Exn("badarith", ()),
                       True) == (DIFFERENT, "outcome")


# ---------------------------------------------------------------------------
# check_module_equiv


def test_generalisation_preserves_behavior():
    v = check_module_equiv(parse(DOUBLER_SRC), parse(GENERALISED_SRC), PLAN)
    assert isinstance(v, Equivalent)
    assert v.trials == 100


def test_reflexivity():
    m = parse(DOUBLER_SRC)
    assert isinstance(check_module_equiv(m, m, PLAN), Equivalent)
    for seed in range(15):
        g = gen_module(seed)
        entries = tuple(FunKey(d.name, d.arity) for d in g.definitions)
        v = check_module_equiv(g, g, TrialPlan(entries=entries, trials=10))
        assert not isinstance(v, Inequivalent)


def test_mutant_detected_with_witness():
    before = parse(DOUBLER_SRC)
    after = parse("f(X) -> begin X * 3 end.\ng(X) -> f(X+1).\n")
    v = check_module_equiv(before, after, PLAN)
    assert isinstance(v, Inequivalent)
    assert v.reason == "value"
    # the witness replays deterministically
    o1 = eval_call(before, v.entry, v.args, PLAN.fuel)
    o2 = eval_call(after, v.entry, v.args, PLAN.fuel)
    assert eq_outcomes(o1, o2, compare_env=False) == (DIFFERENT, "value")
    assert o1 == v.outcome1 and o2 == v.outcome2


def test_missing_entry_is_plan_error():
    with pytest.raises(PlanError):
        check_module_equiv(parse(DOUBLER_SRC), parse("f(X) -> X.\n"), PLAN)


def test_timeouts_yield_unknown():
    m = parse(DOUBLER_SRC)
    v = check_module_equiv(m, m, TrialPlan(entries=(FunKey("f", 1),),
                                           trials=5, fuel=1))
    assert isinstance(v, Unknown)
    assert v.timeouts == 5


def test_trace_differences_detected():
    before = parse("f(X) -> print(X).\n")
    after = parse("f(X) -> X.\n")
    v = check_module_equiv(before, after,
                           TrialPlan(entries=(FunKey("f", 1),), trials=5))
    assert isinstance(v, Inequivalent) and v.reason == "trace"


def test_verdict_document_format():
    doc = format_verdict(Equivalent(100))
    assert doc == "verdict=equivalent\ntrials=100\ntimeouts=0\n"
    v = check_module_equiv(parse(DOUBLER_SRC),
                           parse("f(X) -> begin X * 3 end.\ng(X) -> f(X+1).\n"),
                           PLAN)
    doc2 = format_verdict(v)
    assert doc2.startswith("verdict=inequivalent\n")
    for field in ("entry=", "args=", "outcome1=", "outcome2="):
        assert field in doc2
    assert format_verdict(Unknown(3, 10)) == "verdict=unknown\ntrials=10\ntimeouts=3\n"


# ---------------------------------------------------------------------------
# check_rule_equiv


def test_wrap_rule_equivalent():
    v = check_rule_equiv(WRAP_RULE.lhs, WRAP_RULE.rhs, WRAP_RULE.condition,
                         trials=200, seed=11, depth=4)
    assert isinstance(v, Equivalent)
    assert v.trials == 200


def test_variable_introduction_contract():
    rule = parse_rule_text(
        "@E\n-----\nbegin Y = @E, Y end\n"
        "WHEN fresh(Y) AND pure(@E) AND closed(@E)")
    v = check_rule_equiv(rule.lhs, rule.rhs, rule.condition, trials=200, seed=3)
    assert isinstance(v, Equivalent)


def test_broken_rule_detected():
    rule = parse_rule_text("@E\n-----\n@E + 1")
    v = check_rule_equiv(rule.lhs, rule.rhs, rule.condition, trials=200, seed=5)
    assert isinstance(v, Inequivalent)


def test_generation_exhausted_is_reported():
    # conjuncts evaluate left to right, so a metavariable used before its
    # binding equation rejects every candidate; the checker must say so
    # instead of silently passing with zero trials
    rule = parse_rule_text("@E\n-----\n@E")
    cond = Condition.parse("is_subset(@Vs..., free_vars(@E)) AND @Vs... = free_vars(@E)")
    with pytest.raises(GenerationExhausted) as exc:
        check_rule_equiv(rule.lhs, rule.rhs, cond, trials=10, seed=0)
    assert exc.value.accepted == 0
    assert exc.value.attempts > 10


# ---------------------------------------------------------------------------
# generators


def test_gen_expr_depth_zero_is_leaf():
    for seed in range(50):
        e = gen_expr(seed, 0, ("X",))
        assert isinstance(e, (IntLit, VarRef)) or type(e).__name__ == "AtomLit"


def test_gen_module_roundtrips_and_is_deterministic():
    for seed in range(20):
        m1 = gen_module(seed)
        m2 = gen_module(seed)
        assert module_struct_eq(m1, m2)
        assert module_struct_eq(parse(pretty(m1)), m1)


def test_gen_args_contract():
    args = gen_args(0, 2)
    assert len(args) == 2
    assert all(isinstance(a, IntV) for a in args)
    assert gen_args(0, 2) == args


def test_gen_module_entries_terminate():
    # acyclic call graphs: every entry finishes within modest fuel
    for seed in range(25):
        m = gen_module(seed)
        for d in m.definitions:
            out = eval_call(m, FunKey(d.name, d.arity),
                            list(gen_args(seed, d.arity)), fuel=200_000)
            assert not isinstance(out, Timeout)
