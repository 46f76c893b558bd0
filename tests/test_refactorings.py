from __future__ import annotations

import pytest

from mer.analysis import FunKey, Snapshot
from mer.equiv import TrialPlan, check_module_equiv, Equivalent
from mer.refactorings import (
    GENERALISE_FUNCTION, CompositeProgram, CompositeError, Lit, Step,
    extract_to_function, extract_to_variable, generalise_function,
    outer_variable, rename_function, run_composite, to_function_parameter,
    var_to_param, wrap,
)
from mer.rewrite import Applied, NotApplicable, PreconditionViolated
from mer.syntax import Match, parse_patterns_text, pretty, pretty_def, walk

from conftest import DOUBLER_SRC, defs_of, target_of


GENERALISED_DEFS = {
    "f(X, Y) -> begin X * Y() end.",
    "f(X) -> f(X, fun() -> 2 end).",
    "g(X) -> f(X + 1).",
}


def _match_node(snap, pat_name):
    for d in snap.module.definitions:
        for n in walk(d):
            if isinstance(n, Match) and getattr(n.pattern, "name", None) == pat_name:
                return snap.ref(n.node_id)
    raise AssertionError(f"no match binding {pat_name}")


# ---------------------------------------------------------------------------
# primes


def test_wrap_examples(doubler):
    out = wrap(doubler, target_of(doubler, "2"))
    assert isinstance(out, Applied)
    assert "f(X) -> begin X * (fun() -> 2 end)() end." in pretty(out.snapshot.module)

    out2 = wrap(doubler, target_of(doubler, "X + 1"))
    assert isinstance(out2, Applied)
    assert "g(X) -> f((fun(X) -> X + 1 end)(X))." in pretty(out2.snapshot.module)

    leaky = Snapshot.from_source("f() -> Y = 5, Y.\n")
    out3 = wrap(leaky, target_of(leaky, "Y = 5"))
    assert isinstance(out3, PreconditionViolated)


def test_extract_to_variable_example():
    snap = Snapshot.from_source("tmp(X) -> begin X * (fun() -> 2 end)() end.\n")
    out = extract_to_variable(snap, target_of(snap, "fun() -> 2 end"), "Y")
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == \
        "tmp(X) -> Y = fun() -> 2 end, begin X * Y() end.\n"

    out_clash = extract_to_variable(snap, target_of(snap, "fun() -> 2 end"), "X")
    assert isinstance(out_clash, PreconditionViolated) and out_clash.predicate == "fresh"

    imp = Snapshot.from_source("f() -> print(1).\n")
    out_imp = extract_to_variable(imp, target_of(imp, "print(1)"), "Y")
    assert isinstance(out_imp, PreconditionViolated) and out_imp.predicate == "pure"


def test_outer_variable_examples():
    snap = Snapshot.from_source("f(X) -> G = fun() -> Y = 1, X + Y end, G().\n")
    out = outer_variable(snap, target_of(snap, "Y = 1"))
    assert isinstance(out, Applied)
    assert pretty(out.snapshot.module) == \
        "f(X) -> Y = 1, G = fun() -> Y, X + Y end, G().\n"

    flat = Snapshot.from_source("f() -> Y = 1, Y.\n")
    assert isinstance(outer_variable(flat, target_of(flat, "Y = 1")), NotApplicable)

    imp = Snapshot.from_source("f() -> G = fun() -> Y = print(1), Y end, G().\n")
    out_imp = outer_variable(imp, target_of(imp, "Y = print(1)"))
    assert isinstance(out_imp, PreconditionViolated) and out_imp.predicate == "pure"


def test_extract_to_function_examples():
    snap = Snapshot.from_source(
        "f(X) -> begin X * (fun() -> 2 end)() end.\ng(X) -> f(X+1).\n")
    f = snap.module.definitions[0]
    out = extract_to_function(snap, snap.ref(f.body.node_id), "tmp",
                              parse_patterns_text("X"))
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {
        "f(X) -> tmp(X).",
        "g(X) -> f(X + 1).",
        "tmp(X) -> begin X * (fun() -> 2 end)() end.",
    }

    free = Snapshot.from_source("f(X) -> X + 1.\n")
    out_free = extract_to_function(free, target_of(free, "X + 1"), "tmp", ())
    assert isinstance(out_free, PreconditionViolated) and out_free.predicate == "is_subset"

    closed = Snapshot.from_source("f(X) -> 2.\n")
    out_sup = extract_to_function(closed, target_of(closed, "2"), "tmp",
                                  parse_patterns_text("X"))
    assert isinstance(out_sup, Applied)


def test_var_to_param_requires_first_body_element():
    snap = Snapshot.from_source("tmp(X) -> X, Y = 1, Y.\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = var_to_param(snap, fn, _match_node(snap, "Y"))
    assert isinstance(out, NotApplicable)


def test_var_to_param_happy_path():
    snap = Snapshot.from_source(
        "tmp(X) -> Y = fun() -> 2 end, begin X * Y() end.\nf(X) -> tmp(X).\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    out = var_to_param(snap, fn, _match_node(snap, "Y"))
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {
        "tmp(X, Y) -> begin X * Y() end.",
        "f(X) -> tmp(X, fun() -> 2 end).",
    }


def test_rename_function_prime():
    snap = Snapshot.from_source("tmp(X) -> X.\ng(X) -> tmp(X).\n")
    out = rename_function(snap, snap.ref(snap.module.definitions[0].node_id), "h")
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {"h(X) -> X.", "g(X) -> h(X)."}


# ---------------------------------------------------------------------------
# to_function_parameter


def test_to_function_parameter_zero_lifts():
    snap = Snapshot.from_source(
        "tmp(X) -> Y = fun() -> 2 end, begin X * Y() end.\nf(X) -> tmp(X).\n")
    out = to_function_parameter(snap, _match_node(snap, "Y"))
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {
        "tmp(X, Y) -> begin X * Y() end.",
        "f(X) -> tmp(X, fun() -> 2 end).",
    }
    from mer.syntax import FunDef
    assert isinstance(out.snapshot.node(out.result), FunDef)


def test_to_function_parameter_one_lift():
    snap = Snapshot.from_source("h(X) -> G = fun() -> Y = 1, X + Y end, G().\n")
    out = to_function_parameter(snap, _match_node(snap, "Y"))
    # lifting makes Y = 1 the first body element, then it becomes a parameter
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {
        "h(X, Y) -> G = fun() -> Y, X + Y end, G().",
    }


def test_to_function_parameter_impure_rolls_back():
    src = "tmp(X) -> Y = print(1), begin X * Y end.\n"
    snap = Snapshot.from_source(src)
    out = to_function_parameter(snap, _match_node(snap, "Y"))
    assert isinstance(out, PreconditionViolated)
    assert pretty(snap.module) == src


# ---------------------------------------------------------------------------
# generalise_function


def test_generalise_doubler_to_generalised(doubler):
    out = generalise_function(doubler, target_of(doubler, "2"), "Y")
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == GENERALISED_DEFS


def test_generalise_signature_clash_rolls_back():
    src = "f(X) -> begin X * 2 end.\ng(X) -> f(X+1).\nf(A, B) -> A.\n"
    snap = Snapshot.from_source(src)
    before = pretty(snap.module)
    out = generalise_function(snap, target_of(snap, "2"), "Y")
    assert isinstance(out, PreconditionViolated)
    assert out.predicate == "signature_clash"
    assert out.step_name == "rename_function"
    assert pretty(snap.module) == before


def test_generalise_impure_target_ok():
    snap = Snapshot.from_source("h(X) -> print(X + 1).\n")
    out = generalise_function(snap, target_of(snap, "X + 1"), "P")
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {
        "h(X, P) -> print(P(X)).",
        "h(X) -> h(X, fun(X) -> X + 1 end).",
    }
    verdict = check_module_equiv(
        snap.module, out.snapshot.module,
        TrialPlan(entries=(FunKey("h", 1),), trials=40))
    assert isinstance(verdict, Equivalent)


def test_generalise_six_step_trace(doubler):
    steps = []
    out = generalise_function(
        doubler, target_of(doubler, "2"), "Y",
        on_step=lambda i, label, args, at: steps.append((i, label, pretty(at.module))))
    assert isinstance(out, Applied)
    assert [s[1] for s in steps] == [
        "wrap", "function_part", "extract_to_function", "extract_to_variable",
        "to_function_parameter", "rename_function",
    ]
    assert [s[0] for s in steps] == [1, 2, 3, 4, 5, 6]
    assert steps[0][2] == "f(X) -> begin X * (fun() -> 2 end)() end.\ng(X) -> f(X + 1).\n"
    assert steps[1][2] == steps[0][2]  # selector step changes nothing
    assert steps[2][2] == (
        "f(X) -> tmp(X).\ng(X) -> f(X + 1).\n"
        "tmp(X) -> begin X * (fun() -> 2 end)() end.\n")
    assert steps[3][2] == (
        "f(X) -> tmp(X).\ng(X) -> f(X + 1).\n"
        "tmp(X) -> Y = fun() -> 2 end, begin X * Y() end.\n")
    assert steps[4][2] == (
        "f(X) -> tmp(X, fun() -> 2 end).\ng(X) -> f(X + 1).\n"
        "tmp(X, Y) -> begin X * Y() end.\n")
    assert steps[5][2] == (
        "f(X) -> f(X, fun() -> 2 end).\ng(X) -> f(X + 1).\n"
        "f(X, Y) -> begin X * Y() end.\n")
    # every intermediate is equivalent to the input
    plan = TrialPlan(entries=(FunKey("f", 1), FunKey("g", 1)), trials=30)
    for _, _, text in steps:
        v = check_module_equiv(doubler.module, Snapshot.from_source(text).module, plan)
        assert isinstance(v, Equivalent)


def test_generalise_non_interference(doubler):
    out = generalise_function(doubler, target_of(doubler, "2"), "Y")
    g_before = pretty_def(doubler.module.definitions[1])
    g_after = [pretty_def(d) for d in out.snapshot.module.definitions
               if d.name == "g"]
    assert g_after == [g_before]


def test_generalise_arity_growth(doubler):
    out = generalise_function(doubler, target_of(doubler, "2"), "Y")
    keys = {(d.name, d.arity) for d in out.snapshot.module.definitions}
    assert ("f", 2) in keys  # original + 1
    assert ("f", 1) in keys  # fall-back with the original arity


def test_generalise_rollback_at_each_step(doubler):
    original = pretty(doubler.module)
    for k in range(1, 7):
        out = generalise_function(doubler, target_of(doubler, "2"), "Y", fail_at=k)
        assert not isinstance(out, Applied)
        assert pretty(doubler.module) == original


def test_generalise_tmp_name_collision_avoided():
    snap = Snapshot.from_source("f(X) -> begin X * 2 end.\ntmp(X) -> X.\n")
    out = generalise_function(snap, target_of(snap, "2"), "Y")
    assert isinstance(out, Applied)
    assert defs_of(out.snapshot.module) == {
        "f(X, Y) -> begin X * Y() end.",
        "f(X) -> f(X, fun() -> 2 end).",
        "tmp(X) -> X.",
    }


def test_generalise_fresh_param_required(doubler):
    out = generalise_function(doubler, target_of(doubler, "2"), "X")
    assert isinstance(out, PreconditionViolated)
    assert out.predicate == "fresh"
    assert out.step_name == "extract_to_variable"


# ---------------------------------------------------------------------------
# run_composite


def test_empty_program_is_identity(doubler):
    prog = CompositeProgram("nothing", (), ())
    target = target_of(doubler, "2")
    out = run_composite(prog, doubler, target)
    assert isinstance(out, Applied)
    assert out.snapshot is doubler
    assert out.result == target


def test_generalise_program_equals_dedicated(doubler):
    target = target_of(doubler, "2")
    trace_a, trace_b = [], []
    out_a = run_composite(GENERALISE_FUNCTION, doubler, target, ("Y",),
                          on_step=lambda i, l, a, s: trace_a.append((i, l, pretty(s.module))))
    out_b = generalise_function(doubler, target, "Y",
                                on_step=lambda i, l, a, s: trace_b.append((i, l, pretty(s.module))))
    assert trace_a == trace_b
    assert pretty(out_a.snapshot.module) == pretty(out_b.snapshot.module)


def test_failure_reports_step_index(doubler):
    prog = CompositeProgram("bad", (), (
        Step("wrap", target="THIS", assign="THIS"),
        Step("function_part", target="THIS", assign="THIS"),
        Step("rename_function", target="THIS", args=(Lit("zz"),)),
    ))
    out = run_composite(prog, doubler, target_of(doubler, "2"))
    assert isinstance(out, NotApplicable)
    assert out.step == 3  # rename of a lambda target cannot apply
    assert pretty(doubler.module) == pretty(Snapshot.from_source(DOUBLER_SRC).module)


def test_single_assignment_locals(doubler):
    prog = CompositeProgram("dup", (), (
        Step("function", target="THIS", assign="A"),
        Step("function", target="THIS", assign="A"),
    ))
    with pytest.raises(CompositeError):
        run_composite(prog, doubler, target_of(doubler, "2"))
