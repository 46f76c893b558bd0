from __future__ import annotations

import hashlib
import itertools
import pickle
import random
import sys

import pytest

from mer import interp
from mer.analysis import FunKey, pattern_vars
from mer.equiv import (
    GenConfig, TrialPlan, check_module_equiv, gen_args, gen_expr, gen_module,
)
from mer.interp import (
    MAX_INT_BITS, AtomV, ClosureV, EnvConflict, Exn, IntV, Ok, Timeout, TupleV,
    UnboundVariable, env_concat, env_lookup, env_remove, envs_equal, eval_call,
    eval_expr, format_outcome, format_value, get_matching, is_matching,
    same_code, traces_equal, values_equal,
)
from mer.syntax import (
    Lambda, ModuleAst, PVar, IdGen, VarRef, parse, parse_expr_text, pretty, walk,
)

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


def test_recursion_limit_timeout_depends_on_the_caller():
    # a timeout on Python's recursion limit depends on how deep the
    # caller is; the same call from the top level returns
    n = 150
    m = parse("".join(f"f{i}(X) -> f{i + 1}(X) + 1.\n" for i in range(n))
              + f"f{n}(X) -> X.\n")
    entry = FunKey("f0", 1)

    def depth() -> int:
        frame, d = sys._getframe(), 0
        while frame is not None:
            frame, d = frame.f_back, d + 1
        return d

    def call_from(frames_above: int):
        if frames_above > depth():
            return call_from(frames_above)
        return eval_call(m, entry, (IntV(0),))

    deep = sys.getrecursionlimit() - n
    assert isinstance(call_from(deep), Timeout)
    assert eval_call(m, entry, (IntV(0),)) == Ok(IntV(n), {}, ())


def test_same_code_follows_static_calls_into_lambdas():
    before = parse("f(X) -> (fun() -> h(X) end)().\nh(X) -> g(X).\ng(X) -> X.\n"
                   "k(X) -> u(X).\n")
    g2 = parse("g(X) -> X + 0.\n").definitions[0]
    after = ModuleAst(before.definitions[:2] + (g2,) + before.definitions[3:],
                      before.next_node_id)
    f, h, g, k = (FunKey(n, 1) for n in "fhgk")
    assert same_code(before, before, f)
    assert not any(same_code(before, after, e) for e in (f, h, g))
    assert not same_code(before, parse(pretty(before)), k)
    # k calls u, undefined in both; defining it changes k's code
    assert same_code(before, after, k)
    u = parse("u(X) -> X.\n").definitions[0]
    with_u = ModuleAst(before.definitions + (u,), before.next_node_id)
    assert not same_code(before, with_u, k) and same_code(before, with_u, f)


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


def nested(depth: int, shared: bool, leaf: int = 0) -> TupleV:
    """{{...{leaf}...}} depth levels deep, or {V, V} at each level."""
    v = IntV(leaf)
    for _ in range(depth):
        v = TupleV((v, v) if shared else (v,))
    return v


def test_values_of_any_depth_compare_and_print():
    a, b = nested(5000, False), nested(5000, False)
    assert values_equal(a, b)
    assert not values_equal(a, TupleV((b,)))
    assert not values_equal(a, nested(5000, False, leaf=1))
    assert traces_equal((IntV(1), a), (IntV(1), b))
    assert envs_equal({"A": a, "B": AtomV("b")}, {"A": b, "B": AtomV("b")})
    closure = ev("fun() -> A end", {"A": a}).value
    assert values_equal(closure, ev("fun() -> A end", {"A": b}).value)
    assert format_value(a) == "{" * 5000 + "0" + "}" * 5000


def test_shared_values_compare_each_pair_once():
    # 60 levels of {V, V} unfold to 2**60 leaves
    a, b = nested(60, True), nested(60, True)
    assert values_equal(a, b)
    assert not values_equal(a, nested(60, True, leaf=1))
    assert format_value(nested(2, True)) == "{{0, 0}, {0, 0}}"


def test_integer_width_is_a_resource_limit():
    # fuel bounds the steps of a run, not the width of its integers: each
    # call doubles X's bits, so without the limit the run never ends
    out = eval_call(parse("f(X) -> print(X), f(X * X).\n"), FunKey("f", 1), (IntV(3),))
    assert isinstance(out, Timeout)
    assert [v.value for v in out.trace[:4]] == [3, 9, 81, 6561]
    # the last square printed is the widest within the limit
    assert MAX_INT_BITS // 2 < out.trace[-1].value.bit_length() <= MAX_INT_BITS
    # a product of MAX_INT_BITS bits is computed, one bit wider is not
    widest = IntV((1 << MAX_INT_BITS // 2) - 1)
    assert ev("X * X", {"X": widest}) == Ok(IntV(widest.value ** 2), {"X": widest}, ())
    assert ev("X * 2", {"X": widest}).value == IntV(widest.value * 2)
    assert isinstance(ev("X * X", {"X": IntV(widest.value + 1)}), Timeout)


@pytest.mark.parametrize("n", [0, 7, -7, 10 ** 600, 10 ** 1200 - 1, 10 ** 5000, -(3 ** 20000)],
                         ids=["0", "7", "-7", "10^600", "10^1200-1", "10^5000", "-3^20000"])
def test_format_value_prints_any_int(n):
    text = format_value(IntV(n))
    digits = text.removeprefix("-")
    assert (text != digits) == (n < 0)
    assert digits == "0" or not digits.startswith("0")
    value = 0  # rebuilt from pieces short enough for any int-string limit
    for i in range(0, len(digits), 500):
        piece = digits[i:i + 500]
        value = value * 10 ** len(piece) + int(piece)
    assert value == abs(n)


def test_closure_capture_set():
    out = ev("begin Y = 1, W = 2, fun(Y) -> Y + X + Q end end", {"X": IntV(3)})
    assert out.value.env == {"X": IntV(3)}
    rng = random.Random(11)
    checked = 0
    for i in range(300):
        e = gen_expr(i, rng.randint(1, 5), ("X", "Z"), GenConfig())
        env = {"X": IntV(1), "Z": IntV(2), "V1": IntV(3), "L1": IntV(4)}
        for lam in (n for n in walk(e) if isinstance(n, Lambda)):
            closure = eval_expr(lam, env).value
            under = {n.name for n in walk(lam.body) if isinstance(n, (VarRef, PVar))}
            assert closure.env.keys() == (under - set(pattern_vars(lam.params))) & env.keys()
            checked += 1
    assert checked > 100


def test_module_compiled_once(monkeypatch):
    built = []
    init = interp._Evaluator.__init__

    def counting_init(self, module):
        built.append(module)
        init(self, module)

    monkeypatch.setattr(interp._Evaluator, "__init__", counting_init)
    before, after = parse(DOUBLER_SRC), parse(GENERALISED_SRC)
    plan = TrialPlan(entries=(FunKey("f", 1), FunKey("g", 1)), trials=30)
    check_module_equiv(before, after, plan)
    assert built == [before, after]
    check_module_equiv(before, after, plan)
    assert len(built) == 2


def test_compiled_module_still_pickles():
    m = parse(DOUBLER_SRC)
    assert eval_call(m, FunKey("g", 1), [IntV(2)]) == Ok(IntV(6), {}, ())
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and "_program" not in vars(copy)
    assert eval_call(copy, FunKey("g", 1), [IntV(2)]) == Ok(IntV(6), {}, ())


# SHA-256 over every outcome below, taken from the tree-walking evaluator
# this module's compiled evaluator replaced: the outcome type, its
# printed form (value or exception kind, and trace) and the sorted names
# of the environment after. Fuels are small enough that many runs time
# out part-way, so the digest also pins where each timeout happens.
GOLDEN_DIGEST = "7ce2b0f3a6880ef286dfa945905c6d659d2138cbf55a0800d040af19f5c62707"


def test_outcomes_match_golden_digest():
    h = hashlib.sha256()
    count = 0

    def record(o):
        nonlocal count
        keys = ",".join(sorted(o.env_after)) if isinstance(o, Ok) else ""
        h.update(f"{type(o).__name__}|{format_outcome(o)}|{keys}\n".encode())
        count += 1

    for seed in range(200):
        m = gen_module(seed, 3)
        for i, d in enumerate(m.definitions):
            args = gen_args(seed * 10 + i, d.arity)
            for fuel in (1, 3, 7, 20, 60, 100_000):
                record(eval_call(m, FunKey(d.name, d.arity), args, fuel))
    for i in range(1000):
        rng = random.Random(i)
        m = gen_module(i, 3)
        calls = tuple(FunKey(d.name, d.arity) for d in m.definitions) if i % 2 else ()
        e = gen_expr(i, rng.randint(0, 5), ("X", "Z"), GenConfig(allow_calls=calls))
        # V1 and L2 are names the generator binds, so matches re-match
        env = {"X": IntV(rng.randint(-5, 5)), "V1": IntV(rng.randint(0, 3)),
               "L2": IntV(1)}
        for fuel in (4, 15, 100_000):
            record(eval_expr(e, env, fuel, module=m))
    assert count == 5322
    assert h.hexdigest() == GOLDEN_DIGEST
