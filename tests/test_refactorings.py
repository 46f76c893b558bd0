from __future__ import annotations

import hashlib

import pytest

from mer.analysis import FunKey, Snapshot
from mer.equiv import (
    TrialPlan, check_module_equiv, check_rule_equiv, Equivalent, format_verdict,
    gen_module,
)
from mer.refactorings import (
    GENERALISE_FUNCTION, WRAP_RULE, CompositeError, extract_to_function,
    extract_to_variable, generalise_function, outer_variable, parse_composite,
    rename_function, run_composite, to_function_parameter, var_to_param, wrap,
)
from mer.rewrite import Applied, NotApplicable, PreconditionViolated, parse_rule_text
from mer.syntax import (
    MAX_NESTING, Body, FunDef, IdGen, Match, ModuleAst, PVar, SyntacticFlaw, TupleExpr,
    VarRef, module_struct_eq, parse, parse_patterns_text, pretty, pretty_def, walk,
)

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
    prog = parse_composite("COMPOSITE nothing()\n")
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
    prog = parse_composite("""\
COMPOSITE bad()
THIS := wrap(THIS)
THIS := function_part(THIS)
rename_function(THIS, zz)
""")
    out = run_composite(prog, doubler, target_of(doubler, "2"))
    assert isinstance(out, NotApplicable)
    assert out.step == 3  # rename of a lambda target cannot apply
    assert out.step_name == "rename_function"
    assert pretty(doubler.module) == pretty(Snapshot.from_source(DOUBLER_SRC).module)
    # a selector's refusal fails its step the same way
    sel = parse_composite("COMPOSITE sel()\nLam := function_part(THIS)\n")
    assert run_composite(sel, doubler, target_of(doubler, "2")) == NotApplicable(
        "not a direct lambda application", step=1, step_name="function_part")


def test_single_assignment_locals():
    with pytest.raises(CompositeError, match="A assigned twice"):
        parse_composite("COMPOSITE dup()\nA := function(THIS)\nA := function(THIS)\n")
    with pytest.raises(CompositeError, match="P assigned twice"):
        parse_composite("COMPOSITE dup(P)\nP := function(THIS)\n")
    # THIS alone is reassignable
    prog = parse_composite("COMPOSITE ok()\nTHIS := wrap(THIS)\nTHIS := function_part(THIS)\n")
    assert [assign for assign, _, _, _ in prog.steps] == ["THIS", "THIS"]


@pytest.mark.parametrize("line", [
    "wrap THIS",
    "A = wrap(THIS)",
    "wrap(THIS",
    "wrap(THIS))",
    "wrap(THIS) extra",
    "wrap()",
    "wrap(THIS,)",
    "rename_function(THIS, 3)",
    "ITERATE",
    "THIS := wrap(THIS) TRACED TRACED",
])
def test_composite_malformed_step_rejected(line):
    with pytest.raises(CompositeError):
        parse_composite(f"COMPOSITE bad()\n{line}\n")


@pytest.mark.parametrize("line", [
    "wrap(@E)",
    "wrap(THIS + 1)",
    "wrap(fun() -> THIS end)",
    "Fn(THIS)",
    "wrap(Ä)",
    "extract_to_variable(THIS, end)",
])
def test_composite_step_argument_is_a_local_an_atom_or_a_call(line):
    with pytest.raises(CompositeError):
        parse_composite(f"COMPOSITE bad()\n{line}\n")


def test_composite_unknown_op_rejected():
    with pytest.raises(CompositeError, match="unknown operation 'unwrap'"):
        parse_composite("COMPOSITE bad()\nunwrap(THIS)\n")
    # a nested call is a selector, never a prime
    with pytest.raises(CompositeError, match="unknown operation 'wrap'"):
        parse_composite("COMPOSITE bad()\nextract_to_variable(THIS, wrap(THIS))\n")


def test_composite_arity_checked_at_parse():
    with pytest.raises(CompositeError, match="wrap cannot take 2 argument"):
        parse_composite("COMPOSITE c()\nwrap(THIS, THIS)\n")
    with pytest.raises(CompositeError, match="function cannot take 2 argument"):
        parse_composite("COMPOSITE c()\nextract_to_variable(THIS, function(THIS, x))\n")
    with pytest.raises(CompositeError, match="extract_to_variable cannot take 1 argument"):
        parse_composite("COMPOSITE c()\nextract_to_variable(THIS)\n")


def test_composite_local_used_before_assignment_rejected():
    with pytest.raises(CompositeError, match="local Fn used before assignment"):
        parse_composite("COMPOSITE bad()\nvar_to_param(Fn, THIS)\nFn := function(THIS)\n")
    with pytest.raises(CompositeError, match="local Ps used before assignment"):
        parse_composite("COMPOSITE bad()\n"
                        "extract_to_function(THIS, fresh_fun_name(tmp, Ps), Ps)\n")


def test_generalise_program_traces_six_steps():
    assert [op for _, _, (op, _), traced in GENERALISE_FUNCTION.steps if traced] == [
        "wrap", "function_part", "extract_to_function", "extract_to_variable",
        "to_function_parameter", "rename_function",
    ]


# ---------------------------------------------------------------------------
# refactoring golden digest


def _ops(snap, ref, fundef):
    fn = snap.ref(fundef.node_id)
    return (
        lambda: wrap(snap, ref),
        lambda: extract_to_variable(snap, ref, "W0"),
        lambda: outer_variable(snap, ref),
        lambda: extract_to_function(snap, ref, "h", fundef.params),
        lambda: var_to_param(snap, fn, ref),
        lambda: rename_function(snap, ref, "g"),
        lambda: to_function_parameter(snap, ref),
        lambda: generalise_function(snap, ref, "Y"),
    )


CONTRACT_RULE = parse_rule_text(
    "@E\n-----\nbegin Y = @E, Y end\nWHEN fresh(Y) AND pure(@E) AND closed(@E)")

# SHA-256 over two sets of records. First, every prime, to_function_parameter
# and generalise_function at every node of gen_module(seed, 3): the printed
# module, its repr (node ids included) and the result id when applied, else
# the outcome's repr. Second, format_verdict and repr of check_rule_equiv on
# the wrap rule and on a variable-introduction contract, whose conditions
# decide which generated instantiations are tried.
REFACTORING_DIGEST = "3cd3cafe04fa86ad3052ce7522432f3b38988e3093e875332fcf7ffc86cfdea7"


def test_refactorings_match_golden_digest():
    h = hashlib.sha256()
    kinds = {Applied: 0, NotApplicable: 0, PreconditionViolated: 0}
    for seed in range(35):
        snap = Snapshot(gen_module(seed, 3))
        for d in snap.module.definitions:
            for n in walk(d):
                for op in _ops(snap, snap.ref(n.node_id), d):
                    o = op()
                    kinds[type(o)] += 1
                    if isinstance(o, Applied):
                        m = o.snapshot.module
                        h.update(f"{pretty(m)}{m!r} {o.result.node_id}\n".encode())
                    else:
                        h.update(f"{o!r}\n".encode())
    for seed in range(120):
        for rule in (WRAP_RULE, CONTRACT_RULE):
            v = check_rule_equiv(rule.lhs, rule.rhs, rule.condition, trials=5, seed=seed)
            h.update((format_verdict(v) + repr(v) + "\n").encode())
    assert [kinds[k] for k in (Applied, NotApplicable, PreconditionViolated)] == [
        1468, 3690, 250]
    assert h.hexdigest() == REFACTORING_DIGEST


def test_rejections_are_located_in_the_target_function():
    # every fragment predicate reads "<name>/<arity>: <fragment text>"
    located = 0
    for seed in range(35):
        snap = Snapshot(gen_module(seed, 3))
        for d in snap.module.definitions:
            for n in walk(d):
                for op in _ops(snap, snap.ref(n.node_id), d)[:6]:  # the primes
                    o = op()
                    if (isinstance(o, PreconditionViolated)
                            and o.predicate not in ("signature_clash", "injected")):
                        assert o.location.startswith(f"{d.name}/{d.arity}: "), o
                        located += 1
    assert located > 200


# ---------------------------------------------------------------------------
# round trip: an applied step prints what the parser accepts


@pytest.fixture
def reparses(monkeypatch):
    """The texts the step check parses again: Snapshot.derive prints and
    parses an added definition only if its walk's nesting bound passes
    MAX_NESTING (see syntax.shape_flaws)."""
    from mer import syntax
    texts = []
    parse = syntax.parse

    def counted(text, *args):
        texts.append(text)
        return parse(text, *args)

    monkeypatch.setattr(syntax, "parse", counted)
    return texts


def _nested_tuples(levels: int) -> Snapshot:
    return Snapshot.from_source("f(X) -> " + "{" * levels + "X" + "}" * levels + ".\n")


def test_step_nesting_deeper_than_the_parser_accepts_is_not_applicable(reparses):
    # X is at level MAX_NESTING; wrapped, the lambda body holding it is two deeper
    snap = _nested_tuples(MAX_NESTING - 1)
    out = wrap(snap, target_of(snap, "X"))
    assert out == NotApplicable(f"nesting deeper than {MAX_NESTING} levels in f/1")
    assert len(reparses) == 1


def test_step_nesting_as_deep_as_the_parser_accepts_applies(reparses):
    snap = _nested_tuples(MAX_NESTING - 3)
    out = wrap(snap, target_of(snap, "X"))
    assert isinstance(out, Applied)
    assert reparses == [pretty_def(out.snapshot.module.definitions[0])]
    assert module_struct_eq(parse(pretty(out.snapshot.module)), out.snapshot.module)


def test_hand_built_module_too_deep_to_print_is_not_well_formed():
    gen = IdGen()
    e = VarRef("X", gen.fresh())
    for _ in range(3000):
        e = TupleExpr((e,), gen.fresh())
    d = FunDef("f", (PVar("X", gen.fresh()),), Body((e,), gen.fresh()), gen.fresh())
    snap = Snapshot(ModuleAst((d,), gen.high))
    assert not snap.well_formed
    with pytest.raises(SyntacticFlaw, match=f"nesting deeper than {MAX_NESTING} levels in f/1"):
        snap.derive(snap.module)


def test_step_on_a_shallow_or_chained_definition_parses_nothing(reparses):
    snap = Snapshot.from_source(DOUBLER_SRC)
    assert isinstance(wrap(snap, target_of(snap, "2")), Applied)
    # a tree more than MAX_NESTING levels high, whose printed text nests
    # two: a left-associative chain
    snap = Snapshot.from_source("f(X) -> " + "X + " * (MAX_NESTING + 99) + "1.\n")
    assert isinstance(wrap(snap, target_of(snap, "1")), Applied)
    assert reparses == []


# ---------------------------------------------------------------------------
# locality: a step costs time in the definitions it touches


def _module_with_others(others: int) -> str:
    # the others call each other, never f/1, and f/1 calls none of them
    lines = ["f(X) -> begin X * 2 end."]
    lines += [f"g{i}(X) -> Y = g{i - 1}(X), {{Y, print(X)}}." for i in range(1, others)]
    return "g0(X) -> X + 1.\n" + "\n".join(lines) + "\n"


@pytest.fixture
def visits(monkeypatch):
    """Counts the nodes the traversal visits: the calls of children, which
    walking, indexing and checking a tree make once a node, and of rebuild."""
    import mer
    from mer import syntax
    counts = {"nodes": 0}
    for name in ("children", "rebuild"):
        orig = getattr(syntax, name)

        def counted(*args, orig=orig):
            counts["nodes"] += 1
            return orig(*args)

        for mod in vars(mer).values():
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize("step", [
    wrap,
    lambda snap, target: extract_to_variable(snap, target, "Y"),
    lambda snap, target: generalise_function(snap, target, "Y"),
], ids=["wrap", "extract_to_variable", "generalise_function"])
def test_step_visits_as_many_nodes_whatever_the_module_size(visits, step):
    counts = []
    for others in (10, 1000):
        snap = Snapshot.from_source(_module_with_others(others))
        target = target_of(snap, "2")  # builds the input snapshot's index
        visits["nodes"] = 0
        assert isinstance(step(snap, target), Applied)
        counts.append(visits["nodes"])
    assert counts[0] == counts[1]
