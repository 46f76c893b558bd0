from __future__ import annotations

import itertools
import random

import pytest

from mer.analysis import FunKey
from mer.equiv import GenConfig, gen_expr
from mer.interp import (
    AtomV, ClosureV, EnvConflict, Exn, IntV, Ok, Timeout, UnboundVariable,
    env_concat, env_lookup, env_remove, eval_call, eval_expr, get_matching,
    is_matching, values_equal,
)
from mer.syntax import PVar, IdGen, parse, parse_expr_text

from conftest import DOUBLER_SRC, GENERALISED_SRC


def ev(text: str, env=None, fuel: int = 10_000, module=None):
    return eval_expr(parse_expr_text(text), env or {}, fuel, module=module)


# ---------------------------------------------------------------------------
# eval_expr


def test_block_arithmetic():
    out = ev("begin 3 * 2 end")
    assert out == Ok(IntV(6), {}, ())


def test_arg_evaluated_in_caller_env():
    out = ev("(fun(X) -> X end)(print(1))")
    assert isinstance(out, Ok)
    assert out.value == IntV(1)
    assert out.env_after == {}
    assert out.trace == (IntV(1),)


def test_pattern_mismatch_in_application():
    out = ev("(fun(1) -> 2 end)(3)")
    assert out == Exn("badmatch", ())


def test_match_value_and_leak():
    out = ev("begin Y = 5, Y + 1 end")
    assert isinstance(out, Ok)
    assert out.value == IntV(6)
    assert out.env_after == {"Y": IntV(5)}  # blocks do not open a scope


def test_rematch_equal_and_unequal():
    assert ev("X = 5", {"X": IntV(5)}) == Ok(IntV(5), {"X": IntV(5)}, ())
    assert ev("X = 5", {"X": IntV(4)}) == Exn("badmatch", ())


def test_lambda_bindings_do_not_leak():
    out = ev("(fun() -> Y = 5, Y end)()")
    assert out == Ok(IntV(5), {}, ())


def test_closure_captures_creation_env():
    out = ev("begin F = fun() -> X end, (fun(X) -> F() end)(9) end", {"X": IntV(1)})
    assert isinstance(out, Ok)
    assert out.value == IntV(1)  # F sees the X from its creation site


def test_param_shadowing():
    out = ev("(fun(X) -> X end)(2)", {"X": IntV(7)})
    assert isinstance(out, Ok) and out.value == IntV(2)
    assert out.env_after == {"X": IntV(7)}


def test_exception_kinds():
    assert ev("X").kind == "unbound"
    assert ev("1 + a").kind == "badarith"
    assert ev("1 div 0").kind == "badarith"
    out = ev("F(1)", {"F": IntV(3)})
    assert out.kind == "badfun"
    out = ev("F(1, 2)", {"F": ClosureV((), parse("z() -> 1.").definitions[0].body, {})})
    assert out.kind == "badarity"
    assert ev("nothere(1)").kind == "undef"


def test_div_truncates_toward_zero():
    assert ev("0 - 7 div 2").value == IntV(-3)  # -(7 div 2)
    out = ev("(0 - 7) div 2")
    assert out.value == IntV(-3)  # erlang div truncates toward zero


def test_comparison_and_equality():
    assert ev("1 < 2").value == AtomV("true")
    assert ev("2 < 1").value == AtomV("false")
    assert ev("{1, a} == {1, a}").value == AtomV("true")
    assert ev("a < b").kind == "badarith"


def test_print_returns_value_and_appends():
    out = ev("print(1) + print(2)")
    assert out.value == IntV(3)
    assert out.trace == (IntV(1), IntV(2))


def test_exception_keeps_prior_trace():
    out = ev("begin print(1), 1 div 0, print(2) end")
    assert out == Exn("badarith", (IntV(1),))


def test_timeout_distinct():
    out = ev("1 + 2", fuel=1)
    assert isinstance(out, Timeout)


def test_deep_recursion_is_timeout_not_crash():
    m = parse("r(X) -> r(X).\n")
    out = eval_call(m, FunKey("r", 1), [IntV(0)], fuel=10_000_000)
    assert isinstance(out, Timeout)


# ---------------------------------------------------------------------------
# eval_call


def test_eval_call_doubler():
    m = parse(DOUBLER_SRC)
    assert eval_call(m, FunKey("f", 1), [IntV(3)]) == Ok(IntV(6), {}, ())
    assert eval_call(m, FunKey("g", 1), [IntV(2)]) == Ok(IntV(6), {}, ())


def test_eval_call_generalised_agrees():
    m2 = parse(GENERALISED_SRC)
    assert eval_call(m2, FunKey("f", 1), [IntV(3)]) == Ok(IntV(6), {}, ())


def test_eval_call_undef_and_badarity():
    m = parse(DOUBLER_SRC)
    assert eval_call(m, FunKey("h", 1), [IntV(0)]) == Exn("undef", ())
    assert eval_call(m, FunKey("f", 1), [IntV(0), IntV(0)]) == Exn("badarity", ())


# ---------------------------------------------------------------------------
# environment algebra


def _pvars(names):
    g = IdGen()
    return [PVar(n, node_id=g.fresh()) for n in names]


def test_env_remove():
    assert env_remove({"X": IntV(1), "Y": IntV(2)}, ["X"]) == {"Y": IntV(2)}


def test_env_lookup_order_and_unbound():
    env = {"X": IntV(1), "Y": IntV(2)}
    assert env_lookup(env, ["Y", "X"]) == [IntV(2), IntV(1)]
    with pytest.raises(UnboundVariable):
        env_lookup(env, ["Z"])


def test_env_concat_conflict():
    with pytest.raises(EnvConflict):
        env_concat({"X": IntV(1)}, {"X": IntV(2)})
    assert env_concat({"X": IntV(1)}, {"X": IntV(1)}) == {"X": IntV(1)}


def test_get_matching_bound_var_requires_equality():
    assert not is_matching([IntV(3)], _pvars(["X"]), {"X": IntV(4)})
    assert is_matching([IntV(4)], _pvars(["X"]), {"X": IntV(4)})
    assert get_matching([IntV(4)], _pvars(["X"]), {"X": IntV(4)}) == {}


def test_remove_then_restore_roundtrip():
    env = {"X": IntV(1), "Y": IntV(2)}
    removed = env_remove(env, ["X"])
    back = env_concat(removed, get_matching(env_lookup(env, ["X"]),
                                            _pvars(["X"]), removed))
    assert back == env


def test_remove_restore_exhaustive_small():
    # all envs over at most three variables with values in {1, 2},
    # all subsets of the bound names
    names = ("X", "Y", "Z")
    cases = 0
    for k in range(len(names) + 1):
        for dom in itertools.combinations(names, k):
            for values in itertools.product((1, 2), repeat=k):
                env = {n: IntV(v) for n, v in zip(dom, values)}
                for r in range(k + 1):
                    for sub in itertools.combinations(dom, r):
                        removed = env_remove(env, sub)
                        bindings = get_matching(
                            env_lookup(env, list(sub)), _pvars(sub), removed)
                        assert bindings is not None
                        assert env_concat(removed, bindings) == env
                        cases += 1
    assert cases == 125


# ---------------------------------------------------------------------------
# evaluator properties


def test_determinism_and_fuel_monotonicity():
    rng = random.Random(5)
    cfg = GenConfig(visible_match=True)
    for i in range(150):
        e = gen_expr(i, rng.randint(0, 4), ("X",), cfg)
        env = {"X": IntV(rng.randint(-5, 5))}
        a = eval_expr(e, env, 10_000)
        b = eval_expr(e, env, 10_000)
        assert a == b
        if not isinstance(a, Timeout):
            assert eval_expr(e, env, 20_000) == a


def test_trace_is_prefix_on_exception():
    out = ev("begin print(1), print(2), 1 div 0 end")
    full = ev("begin print(1), print(2), 99 end")
    assert out.trace == full.trace[: len(out.trace)]


def test_values_equal_ignores_node_ids():
    c1 = ev("fun() -> 2 end").value
    c2 = ev("fun() -> 2 end").value
    assert values_equal(c1, c2)
    c3 = ev("fun() -> 3 end").value
    assert not values_equal(c1, c3)
