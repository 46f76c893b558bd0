from __future__ import annotations

import random

import pytest

from mer import analysis
from mer.analysis import FunKey, NotApplicableError, Snapshot, StaleRef
from mer.equiv import GenConfig, gen_expr, gen_module
from mer.interp import IntV, eval_expr
from mer.syntax import (
    Body, FunDef, Lambda, Match, PVar, VarRef, is_expr, parse_expr_text,
    pretty_expr, walk,
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


@pytest.mark.parametrize("seed", range(4))
def test_free_vars_and_bindings_match_oracle_on_generated(seed):
    cfg = GenConfig(visible_match=True, lambda_applied_only=False)
    rng = random.Random(seed)
    for i in range(250):
        e = gen_expr(seed * 1000 + i, rng.randint(0, 4), ("X", "Z"), cfg)
        # the bare lambda over e opens its own scope below the top one
        lam = Lambda((PVar("X", node_id=-3),), Body((e,), node_id=-2), node_id=-1)
        for x in (e, lam):
            assert analysis.expr_free_vars(x) == oracle_free_vars(x)
            assert analysis.visible_bindings(x) == oracle_visible_bindings(x)
            _check_resolve_against_oracle(x)
        assert analysis.visible_bindings(lam) == []


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
