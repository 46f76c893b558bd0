from __future__ import annotations

import pytest

from mer import syntax
from mer.equiv import gen_module
from mer.syntax import (
    FIELDS, SLOTS, Block, Body, DynCall, DuplicateDefinition, FunDef, IdGen,
    IntLit, Lambda, Match, Node, NotFound, ParseError, PVar, StaticCall,
    VarRef, clone_fresh, find_node, module_struct_eq, parse, pretty,
    pretty_def, pretty_expr, parse_expr_text, rebuild, struct_eq, walk,
)

from conftest import DOUBLER_SRC, GENERALISED_SRC, DOUBLER_SRC_PRETTY


def test_parse_doubler():
    m = parse(DOUBLER_SRC)
    assert [(d.name, d.arity) for d in m.definitions] == [("f", 1), ("g", 1)]
    f = m.definitions[0]
    assert isinstance(f.body.exprs[0], Block)
    g = m.definitions[1]
    call = g.body.exprs[0]
    assert isinstance(call, StaticCall) and call.name == "f"


def test_parse_empty_module():
    m = parse("")
    assert m.definitions == ()


def test_duplicate_definition_rejected():
    with pytest.raises(DuplicateDefinition):
        parse("f(X) -> X.\nf(Y) -> Y.\n")


def test_same_name_different_arity_ok():
    m = parse("f(X) -> X.\nf(X, Y) -> X.\n")
    assert len(m.definitions) == 2


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("f(X) -> .\n")
    assert exc.value.line == 1
    assert exc.value.col == 9


def test_comments_ignored():
    m = parse("% a comment\nf(X) -> X. % trailing\n")
    assert len(m.definitions) == 1


def test_pretty_roundtrip_doubler():
    m = parse(DOUBLER_SRC)
    assert module_struct_eq(parse(pretty(m)), m)
    assert pretty(m) == DOUBLER_SRC_PRETTY


def test_pretty_generalised_f2():
    m = parse(GENERALISED_SRC)
    assert pretty_def(m.definitions[0]) == "f(X, Y) -> begin X * Y() end."


def test_lambda_application_parens():
    e = parse_expr_text("(fun() -> 2 end)()")
    assert isinstance(e, DynCall) and isinstance(e.callee, Lambda)
    text = pretty_expr(e)
    assert text == "(fun() -> 2 end)()"
    assert struct_eq(parse_expr_text(text), e)


def test_unparenthesized_lambda_application_rejected():
    with pytest.raises(ParseError):
        parse_expr_text("fun() -> 2 end()")


def test_dyncall_on_var():
    e = parse_expr_text("Y(1, 2)")
    assert isinstance(e, DynCall) and isinstance(e.callee, VarRef)


def test_non_callable_application_rejected():
    with pytest.raises(ParseError):
        parse_expr_text("(1 + 2)(3)")


def test_match_parsing_and_precedence():
    e = parse_expr_text("X = Y = 5")
    assert isinstance(e, Match) and isinstance(e.rhs, Match)
    e2 = parse_expr_text("1 + 2 * 3")
    assert pretty_expr(e2) == "1 + 2 * 3"
    e3 = parse_expr_text("(1 + 2) * 3")
    assert pretty_expr(e3) == "(1 + 2) * 3"
    assert struct_eq(parse_expr_text(pretty_expr(e3)), e3)


def test_match_lhs_must_be_pattern():
    with pytest.raises(ParseError):
        parse_expr_text("X + 1 = 5")


def test_linear_pattern_enforced():
    with pytest.raises(ParseError):
        parse("f({X, X}) -> 1.\n")


def test_negative_literal_roundtrip():
    e = parse_expr_text("1 - -3")
    assert pretty_expr(e) == "1 - -3"
    assert struct_eq(parse_expr_text("1 - -3"), e)


def test_operator_names_reserved():
    with pytest.raises(ParseError):
        parse("div(X) -> X.\n")


def test_print_requires_argument():
    with pytest.raises(ParseError):
        parse_expr_text("print")


def test_node_ids_unique():
    m = parse(GENERALISED_SRC)
    ids = [n.node_id for d in m.definitions for n in walk(d)]
    assert len(ids) == len(set(ids))
    assert max(ids) < m.next_node_id


def test_find_node_literal(doubler):
    # the literal 2 sits at line 1, col 19
    node_id = find_node(doubler.module, 1, 19)
    node = doubler.node(doubler.ref(node_id))
    assert isinstance(node, IntLit) and node.value == 2


def test_find_node_smallest_enclosing(doubler):
    # on the operator, the whole product is the smallest enclosing expression;
    # oracle: exhaustive scan over spans
    node_id = find_node(doubler.module, 1, 17)
    candidates = [
        n for d in doubler.module.definitions for n in walk(d)
        if n.span is not None and n.span.contains(1, 17)
        and not isinstance(n, (FunDef, Body, PVar))
    ]
    smallest = min(
        candidates,
        key=lambda n: (n.span.end_line - n.span.start_line,
                       n.span.end_col - n.span.start_col),
    )
    assert node_id == smallest.node_id
    node = doubler.node(doubler.ref(node_id))
    assert pretty_expr(node) == "X * 2"


def test_find_node_past_eof(doubler):
    with pytest.raises(NotFound):
        find_node(doubler.module, 99, 1)


@pytest.mark.parametrize("seed", range(12))
def test_generated_modules_roundtrip(seed):
    m = gen_module(seed, size=3)
    text = pretty(m)
    again = parse(text)
    assert module_struct_eq(again, m)
    assert pretty(again) == text


def test_tuple_and_atom_syntax():
    m = parse("f(X) -> {X, ok, {1, 2}}.\n")
    assert module_struct_eq(parse(pretty(m)), m)
    e = parse_expr_text("{}")
    assert pretty_expr(e) == "{}"


# ---------------------------------------------------------------------------
# node schema


def _one_of_each_type() -> dict:
    m = parse("f(X, 1, a, {Y}) -> Z = begin 1 + X, b end, "
              "(fun(W) -> print(W) end)(X), V = fun() -> 0 end, V(), g({X}).\n")
    t = parse_expr_text("h(@E, @Es...)", meta=True)
    sample = {}
    for root in m.definitions + (t,):
        for n in walk(root):
            sample.setdefault(type(n), n)
    return sample


def _holds_nodes(v) -> bool:
    return isinstance(v, Node) or (isinstance(v, tuple) and any(isinstance(x, Node) for x in v))


def test_schema_covers_every_node_type():
    node_types = {t for t in vars(syntax).values()
                  if isinstance(t, type) and issubclass(t, Node) and t is not Node}
    sample = _one_of_each_type()
    assert set(sample) == node_types
    gen = IdGen(10_000)
    for t, n in sample.items():
        node_fields = {f for f in FIELDS[t] if _holds_nodes(getattr(n, f))}
        assert node_fields == {f for f, _, _ in SLOTS.get(t, ())}, t.__name__
        assert struct_eq(clone_fresh(n, gen), n), t.__name__
        assert rebuild(n, lambda x: x) is n, t.__name__
