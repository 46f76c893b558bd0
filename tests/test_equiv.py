from __future__ import annotations

import hashlib
import random
import re

import pytest

from mer import equiv, interp
from mer.analysis import FunKey, Snapshot
from mer.equiv import (
    DIFFERENT, EQUAL, UNKNOWN, Equivalent, GenerationExhausted, Inequivalent,
    PlanError, TrialPlan, Unknown, Verdict, check_module_equiv,
    check_rule_equiv, eq_outcomes, format_verdict, gen_args, gen_expr,
    gen_module,
)
from mer.interp import (
    DEFAULT_FUEL, AtomV, Exn, IntV, Ok, Timeout, TupleV, eval_call,
)
from mer.refactorings import WRAP_RULE, extract_to_variable, wrap
from mer.rewrite import Applied, Condition, parse_rule_text
from mer.syntax import (
    IntLit, ModuleAst, VarRef, is_expr, module_struct_eq, parse, pretty, walk,
)

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


@pytest.mark.parametrize("fuel", [0, -3])
def test_fuel_below_one_is_plan_error(fuel):
    m = parse(DOUBLER_SRC)
    with pytest.raises(PlanError, match="fuel of at least 1"):
        check_module_equiv(m, m, TrialPlan(entries=(FunKey("f", 1),), fuel=fuel))


def test_timeouts_yield_unknown():
    m = parse(DOUBLER_SRC)
    v = check_module_equiv(m, m, TrialPlan(entries=(FunKey("f", 1),),
                                           trials=5, fuel=1))
    assert isinstance(v, Unknown)
    assert v.timeouts == 5


def test_plan_without_entries_is_plan_error():
    # no trial runs, so there is no evidence for any verdict
    before = parse("f(X) -> X + 1.\n")
    after = parse("f(X) -> X + 2.\n")
    with pytest.raises(PlanError, match="at least one entry"):
        check_module_equiv(before, after, TrialPlan(entries=()))


def test_arg_gen_of_wrong_length_is_plan_error():
    before = parse("f(X) -> X + 1.\n")
    after = parse("f(X) -> X + 2.\n")
    plan = TrialPlan(entries=(FunKey("f", 1),), trials=5,
                     arg_gen=lambda rng, n: [IntV(1)] * (n + 1))
    with pytest.raises(PlanError, match=r"entry f/1 number 2, not 1"):
        check_module_equiv(before, after, plan)


def test_empty_argument_range_is_plan_error():
    m = parse(DOUBLER_SRC)
    with pytest.raises(PlanError, match="arg_lo <= arg_hi, got 3 > 2"):
        check_module_equiv(m, m, TrialPlan(entries=(FunKey("f", 1),),
                                           arg_lo=3, arg_hi=2))


def count_eval_calls(monkeypatch) -> list:
    """Record (module, entry, args) of every call the oracle evaluates."""
    calls = []

    def counting(m, key, args, fuel):
        calls.append((id(m), key, tuple(args)))
        return eval_call(m, key, args, fuel)

    monkeypatch.setattr(equiv, "eval_call", counting)
    return calls


def test_each_distinct_trial_evaluated_once_per_side(monkeypatch):
    before, after = parse(DOUBLER_SRC), parse(GENERALISED_SRC)
    calls = count_eval_calls(monkeypatch)
    v = check_module_equiv(before, after, PLAN)
    assert v == Equivalent(100)
    rng = random.Random(PLAN.seed)
    pairs = [(entry, PLAN.make_args(rng, entry.arity))
             for _ in range(PLAN.trials) for entry in PLAN.entries]
    distinct = set(pairs)
    assert len(distinct) < len(pairs)
    assert len(calls) == 2 * len(distinct)
    assert {(e, a) for _, e, a in calls} == distinct
    assert len(set(calls)) == len(calls)


def test_arity_zero_entry_evaluated_once(monkeypatch):
    m = parse("k() -> print(1) + 2.\n")
    calls = count_eval_calls(monkeypatch)
    v = check_module_equiv(m, parse("k() -> print(1) + 1 + 1.\n"),
                           TrialPlan(entries=(FunKey("k", 0),), trials=50))
    assert v == Equivalent(50)
    assert len(calls) == 2


def unshared_verdict(before, after, plan: TrialPlan) -> Verdict:
    """The oracle's loop with every trial evaluated, repeats included."""
    rng = random.Random(plan.seed)
    timeouts = trial_no = 0
    for _ in range(plan.trials):
        for entry in plan.entries:
            trial_no += 1
            args = plan.make_args(rng, entry.arity)
            o1 = eval_call(before, entry, args, plan.fuel)
            o2 = eval_call(after, entry, args, plan.fuel)
            status, reason = eq_outcomes(o1, o2, compare_env=False)
            if status == DIFFERENT:
                return Inequivalent(entry, args, o1, o2, reason, trial_no, timeouts)
            timeouts += status == UNKNOWN
    return Unknown(timeouts, trial_no) if timeouts else Equivalent(trial_no)


@pytest.mark.parametrize("after_src", [
    "f(F, X) -> F(X - 1 + 1).\n",
    "f(F, X) -> F(X + 1).\n",
    "f(F, X) -> f(F, X).\n",
])
def test_closure_arguments_evaluated_every_time(monkeypatch, after_src):
    closures = [eval_call(parse(f"k() -> fun(Y) -> Y * {i} end.\n"),
                          FunKey("k", 0), ()).value for i in (2, 3)]

    def closure_args(rng, arity):
        return (rng.choice(closures), IntV(rng.randint(0, 1)))

    before, after = parse("f(F, X) -> F(X).\n"), parse(after_src)
    plan = TrialPlan(entries=(FunKey("f", 2),), trials=20, fuel=200,
                     arg_gen=closure_args)
    expected = unshared_verdict(before, after, plan)
    calls = count_eval_calls(monkeypatch)
    v = check_module_equiv(before, after, plan)
    assert v == expected
    assert format_verdict(v) == format_verdict(expected)
    assert len(calls) == 2 * (v.trial if isinstance(v, Inequivalent) else v.trials)


def test_repeated_timeouts_counted_per_trial(monkeypatch):
    src = "loop(X) -> loop(X).\nwait() -> wait().\n"
    plan = TrialPlan(entries=(FunKey("loop", 1), FunKey("wait", 0)),
                     trials=50, fuel=40)
    calls = count_eval_calls(monkeypatch)
    v = check_module_equiv(parse(src), parse(src), plan)
    assert v == Unknown(timeouts=100, trials=100)
    # at most 11 distinct arguments for loop/1, one call for wait/0
    assert len(set(calls)) == len(calls) <= 2 * (11 + 1)


def with_definitions(before: ModuleAst, keep: int, *texts: str) -> ModuleAst:
    """before's first keep definitions, the very same objects, followed by
    the definitions parsed from texts."""
    added = tuple(parse(t).definitions[0] for t in texts)
    return ModuleAst(before.definitions[:keep] + added, before.next_node_id)


def test_closure_argument_runs_against_the_module_it_is_passed_to():
    # f is the same object on both sides, but the closure's call of g
    # resolves in the module being run, where g differs
    before = parse("f(F) -> F(1).\ng(X) -> X + 1.\n")
    after = with_definitions(before, 1, "g(X) -> X + 2.\n")
    assert after.definitions[0] is before.definitions[0]
    calls_g = eval_call(parse("k() -> fun(Y) -> g(Y) end.\n"), FunKey("k", 0), ()).value
    plan = TrialPlan(entries=(FunKey("f", 1),), trials=3,
                     arg_gen=lambda rng, arity: (calls_g,))
    v = check_module_equiv(before, after, plan)
    assert isinstance(v, Inequivalent) and v.reason == "value" and v.trial == 1


def test_change_two_calls_away_inside_a_lambda_is_detected():
    before = parse("f(X) -> (fun() -> h(X) end)().\nh(X) -> g(X).\ng(X) -> X + 1.\n")
    after = with_definitions(before, 2, "g(X) -> X + 2.\n")
    v = check_module_equiv(before, after, TrialPlan(entries=(FunKey("f", 1),), trials=5))
    assert isinstance(v, Inequivalent) and v.reason == "value" and v.trial == 1


def test_callee_defined_only_after_is_detected():
    before = parse("f(X) -> g(X).\n")
    after = with_definitions(before, 1, "g(X) -> X.\n")
    v = check_module_equiv(before, after, TrialPlan(entries=(FunKey("f", 1),), trials=5))
    assert isinstance(v, Inequivalent) and v.reason == "outcome"
    assert isinstance(v.outcome1, Exn) and isinstance(v.outcome2, Ok)


def trial_pairs(plan: TrialPlan) -> set:
    rng = random.Random(plan.seed)
    return {(entry, plan.make_args(rng, entry.arity))
            for _ in range(plan.trials) for entry in plan.entries}


def distinct_trials(plan: TrialPlan) -> int:
    return len(trial_pairs(plan))


def test_entry_not_reaching_the_edit_runs_once_per_distinct_trial(runs):
    before = parse("f(X) -> (fun() -> h(X) end)() * 2.\nh(X) -> X + 1.\ng(X) -> X - 1.\n")
    after = with_definitions(before, 2, "g(X) -> X + 1 - 2.\n")
    f_plan = TrialPlan(entries=(FunKey("f", 1),), trials=40)
    assert check_module_equiv(before, after, f_plan) == Equivalent(40)
    assert len(runs) == distinct_trials(f_plan)
    assert set(runs) == {interp._program(before)}
    runs.clear()
    g_plan = TrialPlan(entries=(FunKey("g", 1),), trials=40, seed=1)
    assert check_module_equiv(before, after, g_plan) == Equivalent(40)
    assert len(runs) == 2 * distinct_trials(g_plan)


def test_check_against_itself_runs_each_distinct_trial_once(runs):
    m = parse(DOUBLER_SRC)
    assert check_module_equiv(m, m, PLAN) == Equivalent(100)
    assert len(runs) == distinct_trials(PLAN)


def test_later_checks_against_a_module_run_only_the_after_side(runs):
    before = parse(DOUBLER_SRC)
    afters = [parse(GENERALISED_SRC), parse("f(X) -> begin X * 3 end.\ng(X) -> f(X+1).\n")]
    expected = [unshared_verdict(before, after, PLAN) for after in afters]
    runs.clear()
    assert check_module_equiv(before, afters[0], PLAN) == expected[0] == Equivalent(100)
    assert runs.count(interp._program(before)) == distinct_trials(PLAN)
    runs.clear()
    v = check_module_equiv(before, afters[1], PLAN)
    assert v == expected[1] and isinstance(v, Inequivalent)
    assert format_verdict(v) == format_verdict(expected[1])
    assert runs == [interp._program(afters[1])] * v.trial


def test_fuel_is_part_of_a_kept_outcome():
    # 30 additions take more than 40 units of fuel and far fewer than the default
    src = "f(X) -> X" + " + 1" * 30 + ".\n"
    before = parse(src)
    plan = TrialPlan(entries=(FunKey("f", 1),), trials=10, fuel=40)
    assert check_module_equiv(before, parse(src), plan) == Unknown(10, 10)
    plan = TrialPlan(entries=(FunKey("f", 1),), trials=10)
    assert check_module_equiv(before, parse(src), plan) == Equivalent(10)


@pytest.mark.parametrize("second", [
    TrialPlan(entries=(FunKey("g", 1), FunKey("f", 1)), trials=50),
    TrialPlan(entries=(FunKey("f", 1), FunKey("g", 1)), trials=30, seed=7),
])
def test_outcomes_are_kept_by_entry_and_arguments_not_position(runs, second):
    before, after = parse(DOUBLER_SRC), parse(GENERALISED_SRC)
    assert check_module_equiv(before, after, PLAN) == Equivalent(100)
    new_pairs = trial_pairs(second) - trial_pairs(PLAN)
    expected = unshared_verdict(before, after, second)
    runs.clear()
    assert check_module_equiv(before, after, second) == expected == Equivalent(2 * second.trials)
    assert runs.count(interp._program(before)) == len(new_pairs)
    assert runs.count(interp._program(after)) == len(trial_pairs(second))


def test_closure_arguments_evaluated_every_time_across_checks(monkeypatch):
    closures = [eval_call(parse(f"k() -> fun(Y) -> Y * {i} end.\n"),
                          FunKey("k", 0), ()).value for i in (2, 3)]
    plan = TrialPlan(entries=(FunKey("f", 2),), trials=20, fuel=200,
                     arg_gen=lambda rng, arity: (rng.choice(closures), IntV(rng.randint(0, 1))))
    before, after = parse("f(F, X) -> F(X).\n"), parse("f(F, X) -> F(X - 1 + 1).\n")
    calls = count_eval_calls(monkeypatch)
    for _ in range(2):
        calls.clear()
        assert check_module_equiv(before, after, plan) == Equivalent(20)
        assert [m for m, _, _ in calls] == [id(before), id(after)] * 20


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
# verdict golden digest


# a closure value: arguments holding one cannot be hashed
CLOSURE = eval_call(parse("k() -> fun(Y) -> Y + 1 end.\n"), FunKey("k", 0), ()).value


def structured_args(rng: random.Random, arity: int) -> tuple:
    pool = (AtomV("a"), TupleV((IntV(1), AtomV("ok"))), TupleV(()), CLOSURE)
    return tuple(rng.choice(pool) if rng.random() < 0.4 else IntV(rng.randint(-2, 2))
                 for _ in range(arity))


def literal_mutant(m):
    """The module with its last integer literal incremented, or None."""
    text = pretty(m)
    found = list(re.finditer(r"\b\d+\b", text))
    if not found:
        return None
    lit = found[-1]
    return parse(text[:lit.start()] + str(int(lit.group()) + 1) + text[lit.end():])


# SHA-256 over format_verdict(v) + repr(v) for every check below: generated
# modules against their applied wrap / extract_to_variable results and a
# literal mutant, at fuels that time out, barely finish and never run out,
# with integer arguments and with atoms, tuples and closures. Pinned from
# the oracle that evaluated every trial, repeats included.
VERDICT_DIGEST = "966ff0046009a9af6e1cce04c3b70e37801d3f5cd42a2c449a2323d4c26a25dc"


def test_verdicts_match_golden_digest():
    h = hashlib.sha256()
    kinds = {Equivalent: 0, Inequivalent: 0, Unknown: 0}
    for seed in range(20):
        m = gen_module(seed, 3)
        snap = Snapshot(m)
        rng = random.Random(seed)
        exprs = [n for d in m.definitions for n in walk(d) if is_expr(n)]
        afters = []
        for n in rng.sample(exprs, min(2, len(exprs))):
            afters.append(wrap(snap, snap.ref(n.node_id)))
        afters.append(extract_to_variable(snap, snap.ref(rng.choice(exprs).node_id), "W0"))
        afters = [o.snapshot.module for o in afters if isinstance(o, Applied)]
        mutant = literal_mutant(m)
        if mutant is not None:
            afters.append(mutant)
        entries = tuple(FunKey(d.name, d.arity) for d in m.definitions)
        for after in afters:
            for fuel in (3, 15, DEFAULT_FUEL):
                for arg_gen in (None, structured_args):
                    plan = TrialPlan(entries=entries, trials=20, seed=seed,
                                     fuel=fuel, arg_gen=arg_gen)
                    v = check_module_equiv(m, after, plan)
                    kinds[type(v)] += 1
                    h.update((format_verdict(v) + repr(v) + "\n").encode())
    assert [kinds[k] for k in (Equivalent, Inequivalent, Unknown)] == [198, 44, 130]
    assert h.hexdigest() == VERDICT_DIGEST


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


@pytest.mark.parametrize("bad", [0, -3])
def test_rule_check_budget_below_one_is_plan_error(bad):
    rule = (WRAP_RULE.lhs, WRAP_RULE.rhs, WRAP_RULE.condition)
    with pytest.raises(PlanError, match="at least one trial"):
        check_rule_equiv(*rule, trials=bad)
    with pytest.raises(PlanError, match="fuel of at least 1"):
        check_rule_equiv(*rule, trials=20, fuel=bad)


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
