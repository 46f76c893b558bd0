from __future__ import annotations

import gc
import random
from collections import Counter
from dataclasses import replace

import pytest

from mer import analysis, syntax
from mer.analysis import FunKey, NotApplicableError, Snapshot, StaleRef
from mer.equiv import GenConfig, gen_expr, gen_module
from mer.interp import IntV, Ok, eval_expr
from mer.refactorings import (
    extract_to_variable, generalise_function, rename_function, var_to_param, wrap,
)
from mer.rewrite import Applied, NotApplicable
from mer.syntax import (
    MAX_NESTING, SLOTS, AtomLit, Block, Body, DynCall, FunDef, IdGen, IntLit, Lambda, Match,
    ModuleAst, PVar, TupleExpr, VarRef, check_module, children, clone_fresh, find_node, is_expr,
    parse, parse_expr_text, pretty, pretty_expr, rebuild, struct_eq, walk,
)

from conftest import DOUBLER_SRC, target_of


# ---------------------------------------------------------------------------
# Independent occurrence classifier (event-list style, used as the oracle)


def _classify(e, bound_stack=None, events=None, lambda_depth=0):
    """Flatten an expression into evaluation-ordered occurrence events.

    Each event is (name, kind, lambda_depth) with kind 'ref' or 'bind'.
    bound_stack is a list of frames, one per open scope.
    """
    if bound_stack is None:
        bound_stack = [set()]
    if events is None:
        events = []

    def is_bound(name):
        return any(name in frame for frame in bound_stack)

    if isinstance(e, VarRef):
        events.append((e.name, "ref" if is_bound(e.name) else "free", lambda_depth))
    elif isinstance(e, Match):
        _classify(e.rhs, bound_stack, events, lambda_depth)
        for n in walk(e.pattern):
            if isinstance(n, PVar):
                if is_bound(n.name):
                    events.append((n.name, "ref", lambda_depth))
                else:
                    events.append((n.name, "bind", lambda_depth))
                    bound_stack[-1].add(n.name)
    elif isinstance(e, Lambda):
        bound_stack.append(set())
        for p in e.params:
            for n in walk(p):
                if isinstance(n, PVar):
                    bound_stack[-1].add(n.name)
        for x in e.body.exprs:
            _classify(x, bound_stack, events, lambda_depth + 1)
        bound_stack.pop()
    elif isinstance(e, Body):
        for x in e.exprs:
            _classify(x, bound_stack, events, lambda_depth)
    else:
        from mer.syntax import children
        for c in children(e):
            _classify(c, bound_stack, events, lambda_depth)
    return events


def oracle_free_vars(e):
    out = []
    for name, kind, _ in _classify(e):
        if kind == "free" and name not in out:
            out.append(name)
    return out


def oracle_visible_bindings(e):
    out = []
    for name, kind, depth in _classify(e):
        if kind == "bind" and depth == 0 and name not in out:
            out.append(name)
    return out


def _snap_with_body(body_text: str, params: str = "X") -> Snapshot:
    return Snapshot.from_source(f"f({params}) -> {body_text}.\n")


# ---------------------------------------------------------------------------
# free_vars / vars / closed


def test_free_vars_examples(doubler):
    assert analysis.free_vars(doubler, target_of(doubler, "2")) == []
    fv = analysis.free_vars(doubler, target_of(doubler, "X * 2"))
    assert fv == oracle_free_vars(
        doubler.node(target_of(doubler, "X * 2"))) == ["X"]
    snap = _snap_with_body("fun(X) -> X + Y end, Y = 1, Y", params="Y")
    lam = target_of(snap, "fun(X) -> X + Y end")
    assert analysis.free_vars(snap, lam) == ["Y"]
    assert oracle_free_vars(snap.node(lam)) == ["Y"]


def test_free_vars_order_is_first_occurrence():
    snap = _snap_with_body("B + A + B", params="A, B")
    assert analysis.free_vars(snap, target_of(snap, "B + A + B")) == ["B", "A"]


def test_vars_examples():
    from mer.syntax import parse_patterns_text
    assert analysis.pattern_vars(parse_patterns_text("X")) == ["X"]
    assert analysis.pattern_vars(parse_patterns_text("{X, Y}, Z")) == ["X", "Y", "Z"]
    assert analysis.pattern_vars(parse_patterns_text("")) == []


def test_closed_examples(doubler):
    snap = _snap_with_body("fun() -> 2 end, fun(X) -> X end, X + 1")
    assert analysis.closed(snap, target_of(snap, "fun() -> 2 end"))
    assert analysis.closed(snap, target_of(snap, "fun(X) -> X end"))
    assert not analysis.closed(snap, target_of(snap, "X + 1"))


def test_stale_ref_rejected(doubler):
    other = Snapshot.from_source(DOUBLER_SRC)
    ref = target_of(doubler, "2")
    with pytest.raises(StaleRef):
        other.node(ref)


# ---------------------------------------------------------------------------
# pure


def test_pure_examples():
    snap = _snap_with_body("1 + 2, print(1), fun() -> print(1) end")
    assert analysis.pure(snap, target_of(snap, "1 + 2"))
    assert not analysis.pure(snap, target_of(snap, "print(1)"))
    # creating a closure emits nothing, whatever its body would do
    assert analysis.pure(snap, target_of(snap, "fun() -> print(1) end"))


def test_pure_call_graph_fixpoint():
    snap = Snapshot.from_source(
        "a(X) -> b(X).\n"
        "b(X) -> print(X).\n"
        "c(X) -> X + 1.\n"
        "d(X) -> c(X) * 2.\n"
    )
    assert not analysis.pure(snap, target_of(snap, "b(X)"))
    assert analysis.pure(snap, target_of(snap, "c(X)"))
    assert analysis.pure(snap, target_of(snap, "c(X) * 2"))


@pytest.mark.parametrize("text,is_total,is_pure", [
    ("1", True, True),
    ("ok", True, True),
    ("X", True, True),
    ("fun() -> 1 end", True, True),
    ("fun() -> print(1) end", True, True),
    ("fun(X) -> X div 0 end", True, True),
    ("fun() -> Y = f(1), Y end", True, True),
    ("{1, ok, fun() -> 2 end}", True, True),
    ("begin 1, ok end", True, True),
    ("begin {X, 1}, begin 2 end end", True, True),
    ("X == Y", True, True),
    ("{1, X} == ok", True, True),
    ("1 < 2", True, True),
    ("1 + 2 * 3 - 4", True, True),
    ("begin 1 end - begin ok, 2 end", True, True),
    ("(1 < 2) + 1", False, True),
    ("ok * 2", False, True),
    ("fun() -> 1 end + 1", False, True),
    ("{1} < 2", False, True),
    ("X + 1", False, True),
    ("1 < X", False, True),
    ("1 div 1", False, True),
    ("{1, 2 div 1}", False, True),
    ("Y = 1", False, True),
    ("begin Y = 1, 2 end", False, True),
    ("f(1)", False, False),
    ("{1, f(1)}", False, False),
    ("X == f(1)", False, False),
    ("print(1)", False, False),
    ("begin 1, print(2) end", False, False),
    ("X(1)", False, False),
    ("(fun() -> 1 end)()", False, False),
])
def test_total_and_standalone_pure_table(text, is_total, is_pure):
    e = parse_expr_text(text)
    assert analysis.total(e) is is_total
    assert analysis.standalone_pure(e) is is_pure


def test_total_expressions_evaluate_to_a_value_on_generated():
    # a total expression, its free variables bound, returns a value with
    # no print and no binding
    rng = random.Random(11)
    checked = compound = 0
    for seed in range(300):
        e = gen_expr(seed, rng.randint(0, 4), ("X", "Z"))
        for n in walk(e):
            if not is_expr(n) or not analysis.total(n):
                continue
            env = {v: IntV(rng.randint(-3, 3)) for v in analysis.expr_free_vars(n)}
            out = eval_expr(n, env, 10_000)
            assert isinstance(out, Ok) and out.trace == () and out.env_after == env, \
                pretty_expr(n)
            checked += 1
            compound += not isinstance(n, (IntLit, AtomLit, VarRef, Lambda))
    assert checked > 500 and compound > 50


def test_dyncall_is_impure():
    snap = _snap_with_body("(fun() -> 2 end)()")
    assert not analysis.pure(snap, target_of(snap, "(fun() -> 2 end)()"))


def test_undefined_call_is_impure():
    snap = _snap_with_body("missing(X)")
    assert not analysis.pure(snap, target_of(snap, "missing(X)"))


def test_recursive_pure_function():
    snap = Snapshot.from_source("r(X) -> r(X).\n")
    assert analysis.pure(snap, target_of(snap, "r(X)"))


# ---------------------------------------------------------------------------
# non_bind


def test_non_bind_examples():
    snap = _snap_with_body("2")
    assert analysis.non_bind(snap, target_of(snap, "2"))

    used_after = Snapshot.from_source("f() -> Y = 5, Y + 1.\n")
    assert not analysis.non_bind(used_after, target_of(used_after, "Y = 5"))

    unused = Snapshot.from_source("f() -> Y = 5.\n")
    assert analysis.non_bind(unused, target_of(unused, "Y = 5"))


def test_non_bind_lambda_internal_binding_ok():
    snap = _snap_with_body("fun() -> Y = 5, Y end, 1")
    assert analysis.non_bind(snap, target_of(snap, "fun() -> Y = 5, Y end"))


# ---------------------------------------------------------------------------
# fresh


def test_fresh_examples(doubler):
    two = target_of(doubler, "2")
    assert analysis.fresh(doubler, "Y", two)
    assert not analysis.fresh(doubler, "X", two)
    g_call = target_of(doubler, "X + 1")
    assert analysis.fresh(doubler, "Z", g_call)


# ---------------------------------------------------------------------------
# scope / top_expression / function / references / function_part


def test_scope_examples(doubler):
    two = target_of(doubler, "2")
    scope_ref = analysis.scope(doubler, two)
    f = doubler.module.definitions[0]
    assert scope_ref.node_id == f.body.node_id

    snap = _snap_with_body("fun() -> 1 + 2 end")
    inner = target_of(snap, "1 + 2")
    lam = snap.node(target_of(snap, "fun() -> 1 + 2 end"))
    assert analysis.scope(snap, inner).node_id == lam.body.node_id

    direct = target_of(doubler, "begin X * 2 end")
    assert analysis.scope(doubler, direct).node_id == f.body.node_id


def test_top_expression_examples(doubler):
    two = target_of(doubler, "2")
    top = analysis.top_expression(doubler, two)
    assert pretty_expr(doubler.node(top)) == "begin X * 2 end"

    direct = target_of(doubler, "begin X * 2 end")
    assert analysis.top_expression(doubler, direct) == direct

    snap = _snap_with_body("begin X * (fun() -> 2 end)() end")
    lam = target_of(snap, "fun() -> 2 end")
    top2 = analysis.top_expression(snap, lam)
    assert pretty_expr(snap.node(top2)) == "begin X * (fun() -> 2 end)() end"


def test_scope_properties_on_generated_snapshots():
    for seed in range(30):
        snap = Snapshot(gen_module(seed, size=3))
        for d in snap.module.definitions:
            for n in walk(d):
                if not is_expr(n):
                    continue
                ref = snap.ref(n.node_id)
                scope_body = snap.node(analysis.scope(snap, ref))
                assert isinstance(scope_body, Body)
                owner = snap.parent_of(scope_body.node_id)
                assert isinstance(owner, (FunDef, Lambda))
                top = snap.node(analysis.top_expression(snap, ref))
                assert any(e is top for e in scope_body.exprs)
                assert any(x is n for x in walk(top))


def test_function_name_params(doubler):
    two = target_of(doubler, "2")
    fn_ref = analysis.function(doubler, two)
    fn = doubler.node(fn_ref)
    assert isinstance(fn, FunDef) and fn.name == "f"
    assert analysis.name(doubler, fn_ref) == "f"
    assert [p.name for p in analysis.function_params(doubler, fn_ref)] == ["X"]
    assert analysis.function(doubler, fn_ref) == fn_ref


def test_references_examples(doubler):
    refs = analysis.references(doubler, FunKey("f", 1))
    assert len(refs) == 1
    assert pretty_expr(doubler.node(refs[0])) == "f(X + 1)"
    assert analysis.references(doubler, FunKey("tmp", 1)) == []

    rec = Snapshot.from_source("r(X) -> r(X).\n")
    assert len(analysis.references(rec, FunKey("r", 1))) == 1


def test_references_by_exhaustive_traversal():
    for seed in range(20):
        snap = Snapshot(gen_module(seed, size=3))
        for key in snap.fun_keys():
            got = {r.node_id for r in analysis.references(snap, key)}
            from mer.syntax import StaticCall
            expected = {
                n.node_id
                for d in snap.module.definitions for n in walk(d)
                if isinstance(n, StaticCall) and n.name == key.name
                and len(n.args) == key.arity
            }
            assert got == expected


def test_function_part(generalised):
    snap = _snap_with_body("(fun() -> 2 end)(), (fun(X) -> X end)(2), f(1)")
    app = target_of(snap, "(fun() -> 2 end)()")
    lam = analysis.function_part(snap, app)
    assert isinstance(snap.node(lam), Lambda)
    app2 = target_of(snap, "(fun(X) -> X end)(2)")
    assert isinstance(snap.node(analysis.function_part(snap, app2)), Lambda)
    with pytest.raises(NotApplicableError):
        analysis.function_part(snap, target_of(snap, "f(1)"))


# ---------------------------------------------------------------------------
# properties against the independent classifier


_EVENT_KIND = {"binding": "bind", "reference": "ref", "unbound": "free"}


def _check_resolve_against_oracle(e):
    """resolve's occurrences of a standalone e, one by one, against the
    classifier's events; lambda parameters bind without an event."""
    params = {x.node_id for n in walk(e) if isinstance(n, Lambda)
              for p in n.params for x in walk(p) if isinstance(x, PVar)}
    occs = analysis.resolve(e).occurrences
    by_id = {o.node_id: o for o in occs}
    events = _classify(e)
    got = [o for o in occs if o.node_id not in params]
    assert [(o.name, _EVENT_KIND[o.kind]) for o in got] == \
        [(name, kind) for name, kind, _ in events]
    # a binding belongs to the top scope exactly when it is outside lambdas
    assert [o.scope_body_id is None for o in got if o.kind == "binding"] == \
        [depth == 0 for _, kind, depth in events if kind == "bind"]
    for o in occs:
        if o.kind == "reference":
            binder = by_id[o.binder_id]
            assert binder.kind == "binding" and binder.name == o.name
            assert binder.scope_body_id == o.scope_body_id
        if o.node_id in params:
            assert o.kind == "binding" and o.scope_body_id is not None


def _fold_names(e):
    """e with each generated local V<n> and lambda parameter L<n> renamed to
    X or Y by the parity of n, so that matches re-match and parameters
    shadow; a lambda's parameters are numbered consecutively, so its
    parameter list stays linear."""
    def fold(n):
        if isinstance(n, (PVar, VarRef)) and n.name[0] in "VL":
            return replace(n, name="XY"[int(n.name[1:]) % 2])
        return n
    return rebuild(e, fold)


@pytest.mark.parametrize("seed", range(4))
def test_free_vars_and_bindings_match_oracle_on_generated(seed):
    cfg = GenConfig(visible_match=True, lambda_applied_only=False)
    rng = random.Random(seed)
    rematches = 0
    for i in range(250):
        e = gen_expr(seed * 1000 + i, rng.randint(0, 4), ("X", "Z"), cfg)
        folded = _fold_names(e)
        for x in (e, folded):
            # the bare lambda over x opens its own scope below the top one
            lam = Lambda((PVar("X", node_id=-3),), Body((x,), node_id=-2), node_id=-1)
            for y in (x, lam):
                assert analysis.expr_free_vars(y) == oracle_free_vars(y)
                assert analysis.visible_bindings(y) == oracle_visible_bindings(y)
                _check_resolve_against_oracle(y)
            assert analysis.visible_bindings(lam) == []
        patterns = {n.node_id for n in walk(folded) if isinstance(n, PVar)}
        rematches += sum(o.kind == "reference" and o.node_id in patterns
                         for o in analysis.resolve(folded).occurrences)
    assert rematches > 0


def test_resolve_standalone_rematch_and_shadowing():
    e = parse_expr_text("begin Y = X, Y = 2, fun(Y) -> Y + X end, Y end")
    got = [(o.name, o.kind, o.scope_body_id is None)
           for o in analysis.resolve(e).occurrences]
    assert got == [("X", "unbound", True), ("Y", "binding", True),
                   ("Y", "reference", True), ("Y", "binding", False),
                   ("Y", "reference", False), ("X", "unbound", True),
                   ("Y", "reference", True)]
    assert analysis.expr_free_vars(e) == ["X"]
    assert analysis.visible_bindings(e) == ["Y"]


def test_non_bind_matches_bruteforce_on_generated():
    checked = 0
    for seed in range(120):
        snap = Snapshot(gen_module(seed, size=3))
        for d in snap.module.definitions:
            info = analysis.binding_info(snap, snap.ref(d.node_id))
            by_binder = {}
            for o in info.occurrences:
                if o.kind == "reference":
                    by_binder.setdefault(o.binder_id, []).append(o.node_id)
            for n in walk(d):
                if not is_expr(n):
                    continue
                inside = {x.node_id for x in walk(n)}
                expected = True
                for o in info.occurrences:
                    if o.kind == "binding" and o.node_id in inside:
                        if any(r not in inside for r in by_binder.get(o.node_id, [])):
                            expected = False
                assert analysis.non_bind(snap, snap.ref(n.node_id)) == expected
                checked += 1
    assert checked > 1000


def test_purity_soundness_small():
    # pure expressions emit no trace under any environment for their free vars
    rng = random.Random(7)
    for seed in range(40):
        m = gen_module(seed, size=3)
        snap = Snapshot(m)
        for d in m.definitions:
            for n in walk(d):
                if not is_expr(n):
                    continue
                ref = snap.ref(n.node_id)
                if not analysis.pure(snap, ref):
                    continue
                fv = analysis.free_vars(snap, ref)
                env = {v: IntV(rng.randint(-3, 3)) for v in fv}
                out = eval_expr(n, env, 50_000, module=m)
                assert out.trace == ()


# ---------------------------------------------------------------------------
# no reference cycles, no recursion limit


def test_resolve_and_find_node_leave_no_reference_cycles():
    m = gen_module(7, 400)
    snap = Snapshot.from_source("f(X) -> Y = X + 1, fun(Z) -> Y * Z end.\n")
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for d in m.definitions:
            analysis.resolve(d)
        find_node(snap.module, 1, 36)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_find_node_and_ref_on_a_3000_term_chain():
    snap = Snapshot.from_source("f(X) -> " + "X + " * 2999 + "1.\n")
    chain = snap.module.definitions[0].body.exprs[0]
    first = snap.node(snap.ref(find_node(snap.module, 1, 9)))  # the deepest leaf
    assert isinstance(first, VarRef) and first.span.start_col == 9
    assert snap.node(snap.ref(find_node(snap.module, 1, 12))).op == "+"
    assert snap.parent_of(chain.node_id) is snap.module.definitions[0].body


def test_walks_and_a_step_on_a_3000_term_chain():
    snap = Snapshot.from_source("f(X) -> Y = " + "1 + " * 2999 + "1, Y.\ng(X) -> f(X).\n")
    f = snap.module.definitions[0]
    match = f.body.exprs[0]
    assert analysis.total(match.rhs)
    assert [(o.name, o.kind) for o in analysis.resolve(f).occurrences] == [
        ("X", "binding"), ("Y", "binding"), ("Y", "reference")]
    assert rebuild(f, lambda n: n) is f
    copy = clone_fresh(f, IdGen(snap.module.next_node_id))
    assert struct_eq(copy, f)
    assert min(n.node_id for n in walk(copy)) == snap.module.next_node_id
    out = var_to_param(snap, snap.ref(f.node_id), snap.ref(match.node_id))
    assert isinstance(out, Applied)
    assert parse(pretty(out.snapshot.module)).definitions[0].arity == 2


# ---------------------------------------------------------------------------
# Derived snapshots


def test_derived_snapshot_answers_from_its_module():
    # a step's snapshot is indexed from its input's; each query must
    # answer from the module itself, found here by walking it
    steps = 0
    for seed in range(40):
        rng = random.Random(seed)
        snap = Snapshot(gen_module(seed, size=6))
        for _ in range(4):
            exprs = [n for d in snap.module.definitions for n in walk(d) if is_expr(n)]
            target = snap.ref(rng.choice(exprs).node_id)
            fn = snap.ref(rng.choice(snap.module.definitions).node_id)
            out = rng.choice([
                lambda: wrap(snap, target),
                lambda: extract_to_variable(snap, target, "W9"),
                lambda: generalise_function(snap, target, "G9"),
                lambda: rename_function(snap, fn, f"r{steps}"),
            ])()
            if not isinstance(out, Applied):
                continue
            steps += 1
            snap, whole = out.snapshot, Snapshot(out.snapshot.module)
            defs = snap.module.definitions
            parent = {c.node_id: n for d in defs for n in walk(d) for c in children(n)}
            assert set(snap.node_ids) == {n.node_id for d in defs for n in walk(d)}
            for d in defs:
                key = FunKey(d.name, d.arity)
                assert snap.find_def(key) is d
                calls = [(c, n) for c in defs for n in walk(c) if analysis.is_call_to(n, key)]
                assert [r.node_id for r in analysis.references(snap, key)] == [
                    n.node_id for _, n in calls]
                assert snap.callers(key) == [c for c in defs if any(x is c for x, _ in calls)]
                for n in walk(d):
                    ref = snap.ref(n.node_id)
                    assert snap.node(ref) is n
                    assert snap.parent_of(n.node_id) is parent.get(n.node_id)
                    assert snap.fundef_of(n.node_id) is d
                    if is_expr(n):
                        assert analysis.pure(snap, ref) == \
                            analysis.pure(whole, whole.ref(n.node_id))
    assert steps >= 100


def _raised(fn):
    try:
        fn()
    except ValueError as err:
        return type(err), str(err)
    return None


def _nested(e, levels: int) -> TupleExpr:
    """e inside levels one-element tuples, whose ids, below zero, are
    unique and below any module's next_node_id."""
    for i in range(1, levels + 1):
        e = TupleExpr((e,), -i)
    return e


@pytest.mark.parametrize("edit", [
    lambda f, h, top: replace(f, body=replace(f.body, exprs=())),
    lambda f, h, top: replace(f, name="g"),
    lambda f, h, top: replace(f, body=replace(f.body, exprs=(h.body.exprs[0],))),
    lambda f, h, top: replace(f, body=replace(f.body, node_id=top)),
    lambda f, h, top: replace(f, body=replace(f.body, node_id=f.body.exprs[0].node_id)),
    # f's body X + 1 gives up its ids to what takes its place
    lambda f, h, top: replace(f, body=replace(f.body, exprs=(
        Block((), f.body.exprs[0].node_id),))),
    lambda f, h, top: replace(f, body=replace(f.body, exprs=(
        DynCall(IntLit(1, f.body.exprs[0].left.node_id), (), f.body.exprs[0].node_id),))),
    lambda f, h, top: replace(f, body=replace(f.body, exprs=(
        _nested(f.body.exprs[0].left, MAX_NESTING + 1),))),
], ids=["empty-body", "duplicate-key", "id-of-a-later-definition", "id-beyond-next",
        "id-repeated-inside", "empty-block", "callee-not-a-variable-or-lambda",
        "nested-past-the-parser"])
def test_derived_snapshot_is_refused_as_the_whole_check_refuses(edit):
    # the check walks the changed definition only, and raises what the
    # check of the whole module raises
    snap = Snapshot.from_source("f(X) -> X + 1.\ng(X) -> X.\nh(Z) -> Z.\n")
    f, g, h = snap.module.definitions
    m = ModuleAst((edit(f, h, snap.module.next_node_id), g, h), snap.module.next_node_id)
    assert _raised(lambda: snap.derive(m)) == _raised(lambda: check_module(m)) is not None


def test_derive_expands_each_node_of_an_added_definition_once(monkeypatch):
    # one walk of an added definition both checks it and indexes it; every
    # compound node's children are read through the schema's getters
    snap = Snapshot.from_source(
        "f(X) -> {Y} = {X, g(X)}, F = fun(Z) -> print(Z) end, F(begin Y end).\ng(X) -> X.\n")
    assert snap._index and snap.well_formed  # built before counting
    f, g = snap.module.definitions
    gen = IdGen(snap.module.next_node_id)
    new_f, h = clone_fresh(f, gen), replace(clone_fresh(f, gen), name="h")
    compound = [n for d in (new_f, h) for n in walk(d) if type(n) in SLOTS]
    expanded = Counter()
    for t, get in list(syntax._CHILDREN.items()):
        monkeypatch.setitem(syntax._CHILDREN, t,
                            lambda n, get=get: expanded.update([id(n)]) or get(n))
    out = snap.derive(ModuleAst((new_f, g, h), gen.high))
    assert len(compound) > 15
    assert [expanded[id(n)] for n in compound] == [1] * len(compound)
    assert out.find_def(FunKey("h", 1)) is h


def test_hand_built_snapshot_is_checked_whole():
    # g/1's empty body is outside the step's edit, yet refuses it: a
    # snapshot of a hand-built module is checked whole
    parsed = Snapshot.from_source("f(X) -> X + 1.\ng(X) -> X.\n").module
    f, g = parsed.definitions
    snap = Snapshot(ModuleAst((f, replace(g, body=replace(g.body, exprs=()))),
                              parsed.next_node_id))
    assert not snap.well_formed
    assert wrap(snap, target_of(snap, "X + 1")) == \
        NotApplicable("empty expression sequence in g/1")
