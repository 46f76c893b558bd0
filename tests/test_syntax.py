from __future__ import annotations

import copy
import gc
import hashlib
import os
import pickle
import random
import re
import string
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from typing import Iterator

import pytest

from mer import syntax
from mer.analysis import FunKey, Snapshot
from mer.equiv import gen_module
from mer.interp import IntV, Ok, eval_call
from mer.refactorings import generalise_function
from mer.rewrite import Applied
from mer.syntax import (
    FIELDS, MAX_NESTING, SLOTS, Block, Body, DynCall, DuplicateDefinition,
    FunDef, IdGen, IntLit, Lambda, Match, Node, NotFound, ParseError, PVar,
    StaticCall, VarRef, clone_fresh, find_node, module_struct_eq, parse, pretty,
    pretty_def, pretty_expr, parse_expr_text, parse_exprseq_text,
    parse_patterns_text, rebuild, struct_eq, walk,
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


# ---------------------------------------------------------------------------
# lexer edge cases, each token as (kind, text, line, col, end_col)

_HEAD = [("atom", "f", 1, 1, 2), ("(", "(", 1, 2, 3), ("var", "X", 1, 3, 4),
         (")", ")", 1, 4, 5), ("->", "->", 1, 6, 8)]


@pytest.mark.parametrize("source, tail", [
    # blanks after the last token, no newline: eof sits past them
    ("f(X) -> X. \t ",
     [("var", "X", 1, 9, 10), (".", ".", 1, 10, 11), ("eof", "", 1, 14, 14)]),
    # \r is a blank, so \r\n ends a line like \n
    ("f(X) ->\r\n  X.\r\n",
     [("var", "X", 2, 3, 4), (".", ".", 2, 4, 5), ("eof", "", 3, 1, 1)]),
    # a comment on the last line, no newline
    ("f(X) -> X.\n% last",
     [("var", "X", 1, 9, 10), (".", ".", 1, 10, 11), ("eof", "", 2, 7, 7)]),
])
def test_lex_line_ends(source, tail):
    assert syntax.lex(source) == _HEAD + tail


def test_lex_tabs_count_one_column():
    assert syntax.lex("\tf(X)\t->\tX.") == [
        ("atom", "f", 1, 2, 3), ("(", "(", 1, 3, 4), ("var", "X", 1, 4, 5),
        (")", ")", 1, 5, 6), ("->", "->", 1, 7, 9), ("var", "X", 1, 10, 11),
        (".", ".", 1, 11, 12), ("eof", "", 1, 12, 12)]


@pytest.mark.parametrize("source, eof", [
    ("", ("eof", "", 1, 1, 1)),
    ("  \t ", ("eof", "", 1, 5, 5)),
    (" \n\t\r\n  ", ("eof", "", 3, 3, 3)),
])
def test_lex_blank_input_is_eof(source, eof):
    assert syntax.lex(source) == [eof]
    assert syntax.lex(source, meta=True) == [eof]


def test_lex_long_source_matches_line_by_line():
    # several of the spans lex searches at a time, with blanks, comments
    # and \r at the ends of lines
    lines = [f"f{i}(X) -> X + {i}. % c{i}\r" if i % 3 else f"  g{i}(Y) ->\t{{Y, a}}.  "
             for i in range(2000)]
    source = "\n".join(lines)
    assert len(source) > 4 * syntax._CHUNK
    want = [(k, t, line, c, e) for line, text in enumerate(lines, 1)
            for k, t, _, c, e in syntax.lex(text)[:-1]]
    eof = syntax.lex(lines[-1])[-1]
    want.append(("eof", "", len(lines), eof[3], eof[4]))
    assert syntax.lex(source) == want
    lines[1990] = "h() -> !."
    with pytest.raises(ParseError) as exc:
        syntax.lex("\n".join(lines))
    assert (exc.value.line, exc.value.col) == (1991, 8)


def test_lex_metavariable_on_later_line():
    source = "f(X) ->\n  @x."
    with pytest.raises(ParseError) as exc:
        syntax.lex(source)
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        ("unexpected character '@'", 2, 3)
    assert syntax.lex(source, meta=True) == _HEAD + [
        ("metavar", "@x", 2, 3, 5), (".", ".", 2, 5, 6), ("eof", "", 2, 6, 6)]


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
    for source, col in [
        ("f({X, X}) -> 1.\n", 7),
        # the left side of a match: at the repeated occurrence, not at 0:0
        ("f() -> {X, X} = {1, 2}.\n", 12),
        ("f() -> {X, {Y, X}} = {1, {2, 3}}.\n", 16),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert (exc.value.message, exc.value.line, exc.value.col) == \
            ("variable X repeated in pattern", 1, col)


def test_negative_literal_roundtrip():
    e = parse_expr_text("1 - -3")
    assert pretty_expr(e) == "1 - -3"
    assert struct_eq(parse_expr_text("1 - -3"), e)


def test_unicode_names_and_digits():
    # names start with a letter or _; literals are Unicode decimal digits
    d = parse("\u00e9(X\u00b2) -> \u0661\u0662 + X\u00b2.\n").definitions[0]
    assert d.name == "\u00e9" and d.params[0].name == "X\u00b2"
    assert d.body.exprs[0].left.value == 12
    for bad, col in (("\u00b2", 1), ("\u00bd", 1), ("1\u00b2", 2)):
        with pytest.raises(ParseError) as exc:
            parse_expr_text(bad)
        assert (exc.value.message, exc.value.col) == (f"unexpected character {bad[-1]!r}", col)


def test_nesting_limit():
    # the outermost expression is level 1; level k starts at column k
    deepest = "(" * (MAX_NESTING - 1) + "X" + ")" * (MAX_NESTING - 1)
    assert isinstance(parse_expr_text(deepest), VarRef)
    with pytest.raises(ParseError) as exc:
        parse_expr_text("(" + deepest + ")")
    assert (exc.value.line, exc.value.col) == (1, MAX_NESTING + 1)
    assert exc.value.message == f"nesting deeper than {MAX_NESTING} levels"
    for text in ("f(" + "{" * 3000 + "X" + "}" * 3000 + ") -> 1.",
                 "f(X) -> " + "fun() -> " * 3000 + "X" + " end" * 3000 + ".",
                 "f(X) -> " + "X = " * 3000 + "1."):
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(text)


# operator operands that pretty_expr parenthesizes or not, tuple patterns
# in a head, a lambda and a match, and a lambda applied directly
_NESTING_CASES = (
    "f(X) -> (X = 1) + 2.",
    "f(X) -> X - (X - (X - (X - 1))).",
    "f(X) -> (((((X = 1) + 1) * 2 + 1) * 2 + 1) * 2 + 1) * 2.",
    "f(X) -> X * (X + 1) - (X = 2) < X div (2 * X) == true.",
    "f({A, {B, {C}}}) -> (fun({D, {E}}) -> {D, E} end)({A, {B}}).",
    "f(X) -> {Y, {Z}} = {X, {X}}, begin print(Y), Z = W = X end.",
    "f(F) -> F(F(F(begin 1 end))).",
)


def test_nesting_bound_is_never_below_the_parsers_depth(monkeypatch):
    reached = []
    nest = syntax._Parser._nest

    def spy(self, t):
        nest(self, t)
        reached.append(self.depth)

    monkeypatch.setattr(syntax._Parser, "_nest", spy)
    texts = [*_NESTING_CASES, *_parse_corpus(), *_large_inputs()]
    checked = 0
    for text in texts:
        try:
            m = parse(text)
        except ParseError:
            continue
        for d in m.definitions:
            reached.clear()
            parse(pretty_def(d))
            assert syntax._shape(d)[1] >= max(reached, default=0), pretty_def(d)
            checked += 1
    assert checked > 1000
    # a left-associative chain of any length takes no more than one operator
    chain = parse(_large_inputs()[-1]).definitions[0]
    one = parse("f(X) -> X + 1.").definitions[0]
    assert syntax._shape(chain)[1] == syntax._shape(one)[1] == 3


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


# ---------------------------------------------------------------------------
# parse golden digest
#
# One SHA-256 over every parse result of a fixed corpus: generated
# modules, the case study, their definition bodies and parameter lists,
# metavariable templates, and seeded token- and character-level mutants
# of all of these. Each text goes through parse, parse_exprseq_text and
# parse_patterns_text (the last two with and without metavariables);
# each result is the repr of what was parsed (node ids and spans
# included) or the error's type, message and position. The corpus is
# ASCII only: str.isalpha and friends follow each Python version's
# Unicode database, so the pin holds on every supported version.

_EXTRA = (
    "@E", "begin @Body... end", "@F(@Args...)", "fun(@Ps...) -> @Body... end",
    "@X = @E, @Rest...", "{@A, @Bs...}", "@V(@E, 1), print(@E)", "@P, {@Q, 2}",
    "X = Y = 5", "{X, ok, {1, 2}} = {A, b, C}", "(fun() -> 2 end)()",
    "fun() -> 2 end()", "(1 + 2)(3)", "1 - -3 div 2 < 4 == 0 * X",
    "f({X, X}, -1) -> g(), 1.\n", "X + 1 = 5", "f(X) -> X.\nf(Y) -> Y.\n",
)

# the language's tokens and keywords, '@' forms, whitespace, a comment
# opener and a few names and literals; a fifth of the edits draw any
# ASCII punctuation mark instead
_VOCABULARY = (
    "(", ")", "{", "}", ",", ".", "=", "<", "+", "-", "*", "->", "==",
    "begin", "end", "fun", "div", "print", "%", "@", "...", "@E", "@Es...",
    "\n", "\t", " ", "X", "_Y", "a", "b2", "0", "12",
)

_UNIT = re.compile(r"\w+|\.\.\.|->|==|\s|.")


def _edit(rng: random.Random) -> str:
    return rng.choice(string.punctuation if rng.random() < 0.2 else _VOCABULARY)


def _mutant(rng: random.Random, text: str) -> str:
    units = _UNIT.findall(text) if rng.random() < 0.5 else list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "insert", "replace")) if units else "insert"
        if op == "insert":
            units.insert(rng.randint(0, len(units)), _edit(rng))
        else:
            i = rng.randrange(len(units))
            if op == "delete":
                del units[i]
            else:
                units[i] = _edit(rng)
    return "".join(units)


def _parse_corpus() -> list[str]:
    bases = [DOUBLER_SRC, GENERALISED_SRC, *_EXTRA]
    for seed in range(200):
        text = pretty(gen_module(seed, 3))
        bases.append(text)
        for line in text.splitlines():
            head, _, body = line.partition(" -> ")
            bases.append(body[:-1])
            bases.append(head[head.index("(") + 1:-1])
    rng = random.Random(2017)
    return bases + [_mutant(rng, rng.choice(bases)) for _ in range(3000)]


def _parse_result(fn, text: str, **kw) -> str:
    try:
        return repr(fn(text, **kw))
    except ParseError as exc:
        return repr((type(exc).__name__, exc.message, exc.line, exc.col))


PARSE_GOLDEN_DIGEST = "1b42b29cccd3776e64b612017cb4563bd56e08a1a64a15716e351ab8dbc21293"


def test_parse_matches_golden_digest():
    h = hashlib.sha256()
    corpus = _parse_corpus()
    assert all(t.isascii() for t in corpus)
    for text in corpus:
        results = [_parse_result(parse, text)]
        for meta in (False, True):
            results.append(_parse_result(parse_exprseq_text, text, meta=meta))
            results.append(_parse_result(parse_patterns_text, text, meta=meta))
        h.update(("\x00".join([text, *results]) + "\x01").encode())
    assert len(corpus) == 3993
    assert h.hexdigest() == PARSE_GOLDEN_DIGEST


# ---------------------------------------------------------------------------
# large-input parse digest
#
# One SHA-256 over the trees of large inputs: generated modules of up to
# 200 definitions and a 3,000-term left-associative chain. Each node is
# hashed through walk, by type, id, span and fields (a child by its id),
# not through repr, which recurses once per tree level and overflows
# Python's stack on the chain.

LARGE_PARSE_DIGEST = "75cab5e4a0fecb2b8fd18086d39be64f5cb1efe3e5a4e11d6d5ed80cb777cf50"


def _large_inputs() -> list[str]:
    texts = [pretty(gen_module(seed, 200)) for seed in range(8)]
    return texts + ["deep(X) -> " + "X + " * 2999 + "1.\n"]


def _tree_lines(m) -> Iterator[str]:
    yield f"module {len(m.definitions)} {m.next_node_id}"
    for d in m.definitions:
        for n in walk(d):
            parts = [type(n).__name__, str(n.node_id), repr(n.span)]
            for f in FIELDS[type(n)]:
                v = getattr(n, f)
                if isinstance(v, Node):
                    v = v.node_id
                elif isinstance(v, tuple):
                    v = tuple(x.node_id for x in v)
                parts.append(f"{f}={v!r}")
            yield " ".join(parts)


def test_large_parse_matches_golden_digest():
    h = hashlib.sha256()
    for text in _large_inputs():
        for line in _tree_lines(parse(text)):
            h.update((line + "\n").encode())
    assert h.hexdigest() == LARGE_PARSE_DIGEST


# ---------------------------------------------------------------------------
# parsing against a base


def _shape(m) -> list[tuple]:
    """Every node of m in preorder: its type, span and fields, a child
    by its type; node ids left out."""
    out = []
    for d in m.definitions:
        for n in walk(d):
            values = [getattr(n, f) for f in FIELDS[type(n)]]
            out.append((type(n).__name__, n.span, *(
                type(v).__name__ if isinstance(v, Node)
                else tuple(type(x).__name__ for x in v) if isinstance(v, tuple)
                else v for v in values)))
    return out


def _outcome(text: str, base=None):
    """The shape of parse(text, base), after checking its node ids are
    unique, or its error's type, message and position."""
    try:
        m = parse(text, base)
    except ParseError as exc:
        return type(exc).__name__, exc.message, exc.line, exc.col
    ids = [n.node_id for d in m.definitions for n in walk(d)]
    assert len(set(ids)) == len(ids) and max(ids, default=-1) < m.next_node_id
    return _shape(m)


def _edits(rng: random.Random, text: str) -> list[str]:
    """text itself, a comment added to one line, a blank line inserted,
    and seeded mutants."""
    lines = text.split("\n")
    at = rng.randrange(len(lines))
    commented = lines[:at] + [lines[at] + " % edited"] + lines[at + 1:]
    blank = lines[:at] + [""] + lines[at:]
    return [text, "\n".join(commented), "\n".join(blank),
            *(_mutant(rng, text) for _ in range(4))]


# Line ends the lexer must not break lines at, in a comment that comes
# before the first difference; only '\n' ends a line.
_LINE_END_VARIANTS = {
    "lf": lambda t: t,
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "odd_breaks": lambda t: "% form feed \x0c, NEL \x85, LS \u2028 %\n" + t,
}


@pytest.mark.parametrize("variant", sorted(_LINE_END_VARIANTS))
def test_parse_against_a_base_matches_parse(variant):
    form = _LINE_END_VARIANTS[variant]
    rng = random.Random(13)
    pairs = 0
    for text in _parse_corpus():
        a = form(text)
        try:
            base = (a, parse(a))
        except ParseError:
            continue
        for b in map(form, _edits(rng, text)):
            assert _outcome(b, base) == _outcome(b), (a, b)
            pairs += 1
    assert pairs > 1500


def test_parse_against_a_base_shares_definitions_unchanged_in_place():
    old = "f(X) -> X + 1.\ng(X) -> f(X).\nh() -> 2.\nk() ->\n  3.\n"
    m = parse(old)
    f, g, h, k = m.definitions
    assert list(map(id, parse(old, (old, m)).definitions)) == list(map(id, m.definitions))
    # f edited, h moved down a line, a blank added inside k
    new = "f(X) -> 1 + X.\ng(X) -> f(X).\n\nh() -> 2.\nk()  ->\n  3.\n"
    m2 = parse(new, (old, m))
    f2, g2, h2, k2 = m2.definitions
    assert g2 is g
    assert f2 is not f and h2 is not h and k2 is not k
    assert struct_eq(h2, h) and h2.span == (4, 1, 4, 10)
    assert k2.span == (5, 1, 6, 5)
    # new nodes take ids from the base's next_node_id upward
    assert min(n.node_id for d in (f2, h2, k2) for n in walk(d)) == m.next_node_id
    assert m2.next_node_id > m.next_node_id


def test_parse_against_a_base_lexes_only_the_gaps(monkeypatch):
    old = pretty(gen_module(5, 200))
    lines = old.split("\n")
    assert len(lines) > 100
    lines[0] = lines[0].replace(" -> ", " -> 0, ", 1)
    new = "\n".join(lines)
    base = (old, parse(old))
    real = syntax._TOKEN
    scanned = []

    class Counting:
        def findall(self, source, start, stop):
            scanned.append(stop - start)
            return real.findall(source, start, stop)

    monkeypatch.setattr(syntax, "_TOKEN", Counting())
    m = parse(new, base)
    assert m.definitions[1:] == base[1].definitions[1:]
    assert sum(scanned) < len(new) / 10


# (BEFORE, AFTER, whether AFTER's last definition is BEFORE's)
_MARKER_EDGES = [
    # the shared g/0 stands inside f/0's unterminated expression
    ("f() -> 1.\ng() -> 2.\n", "f() -> 1 +\ng() -> 2.\n", True),
    # the line before the candidate ends in a comment
    ("f() -> 1. % one\ng() -> 2.\n", "f() -> 3. % one\ng() -> 2.\n", True),
    ("f() -> 1.\ng() -> 2.\n", "f() -> 1. % g() -> 2.\ng() -> 2.\n", True),
    # an indented candidate; one after another token on its line is parsed
    ("f() -> 1.\n \t g() -> 2.\n", "f() -> 3.\n \t g() -> 2.\n", True),
    ("f() -> 1. g() -> 2.\n", "f() -> 3. g() -> 2.\n", False),
    ("f() -> 1.\ng() -> 2. h() -> 3.\n", "f() -> 9.\ng() -> 2. h() -> 3.\n", False),
    # a definition unchanged in place on a line that changed
    ("f() -> 1. g() -> 2.\n", "          g() -> 2.\n", False),
    ("f() -> 1.\ng() -> 2. % two\n", "f() -> 1.\ng() -> 2. % 2\n", False),
    # a candidate's text inside a comment
    ("f() -> 1. g() -> 2.\n", "f() -> 3.%g() -> 2.\n", False),
    # CRLF text
    ("f() -> 1.\r\ng() ->\r\n  2.\r\n", "f() -> 3.\r\ng() ->\r\n  2.\r\n", True),
    # a duplicate key made by a shared definition
    ("f() -> 1.\ng() -> 2.\n", "g() -> 1.\ng() -> 2.\n", True),
]


@pytest.mark.parametrize("old, new, shared", _MARKER_EDGES)
def test_parse_against_a_base_edge_cases(old, new, shared):
    base = (old, parse(old))
    assert _outcome(new, base) == _outcome(new)
    try:
        last = parse(new, base).definitions[-1]
    except ParseError:
        return
    assert (last is base[1].definitions[-1]) == shared


def _line_edits(text: str) -> list[str]:
    """text with its middle line edited, a definition inserted before it,
    and that line deleted."""
    lines = text.split("\n")
    at = (len(lines) - 1) // 2
    return ["\n".join(lines[:at] + [lines[at].replace(" -> ", " -> 0, ", 1)] + lines[at + 1:]),
            "\n".join(lines[:at] + ["inserted(X) -> X."] + lines[at:]),
            "\n".join(lines[:at] + lines[at + 1:])]


def test_parse_against_a_base_matches_parse_on_large_inputs():
    for old in _large_inputs():
        base = (old, parse(old))
        for new in _line_edits(old):
            assert _outcome(new, base) == _outcome(new)


def test_parse_against_a_base_shares_a_refactored_large_module():
    # the shape of the verify_large benchmark: a generated module and its
    # generalised form, each followed by a 3,000-term definition
    deep = "deep(X) -> " + "X + " * 2999 + "1.\n"
    snap = Snapshot.from_source(pretty(gen_module(0, 200)))
    d = snap.module.definitions[len(snap.module.definitions) // 3]
    lit = next(n for n in walk(d) if type(n) is IntLit)
    out = generalise_function(snap, snap.ref(lit.node_id), "Gp")
    assert isinstance(out, Applied)
    old, new = pretty(snap.module) + deep, pretty(out.snapshot.module) + deep
    base = parse(old)
    m = parse(new, (old, base))
    assert _shape(m) == _shape(parse(new))
    # one definition a line: a line unchanged in place holds the very object
    at_line = {d.span.start_line: d for d in base.definitions}
    same = [i for i, (a, b) in enumerate(zip(old.split("\n"), new.split("\n")), 1)
            if a == b and a]
    assert len(same) > 90
    for d in m.definitions:
        assert (d is at_line.get(d.span.start_line)) == (d.span.start_line in same)


# ---------------------------------------------------------------------------
# the cycle collector while parsing


def _collections_during(fn) -> list[int]:
    """Generations of the cycle collections that ran during fn()."""
    seen = []

    def count(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(count)
    try:
        fn()
    finally:
        gc.callbacks.remove(count)
    return seen


def test_parse_runs_no_cycle_collection():
    text = pretty(gen_module(23, 400))
    assert len(parse(text).definitions) == 400
    was = gc.isenabled()
    gc.enable()
    try:
        assert _collections_during(lambda: parse(text)) == []
        assert gc.isenabled()
    finally:
        if not was:
            gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_leaves_collector_state_as_found(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        parse(GENERALISED_SRC)
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError):
            parse("f(X) -> .\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# node invariants


def test_nodes_are_frozen_and_slotted():
    for t, n in _one_of_each_type().items():
        assert not hasattr(n, "__dict__"), t.__name__
        for f in fields(n):
            with pytest.raises(FrozenInstanceError):
                setattr(n, f.name, None)


def test_every_node_type_takes_its_immutability_from_node():
    inherited = ("__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__",
                 "__getstate__", "__setstate__")
    for t, n in _one_of_each_type().items():
        assert [getattr(t, m) for m in inherited] == [getattr(Node, m) for m in inherited], t
        for f in fields(n):
            with pytest.raises(FrozenInstanceError):
                setattr(n, f.name, getattr(n, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(n, f.name)
            assert hasattr(n, f.name)


def test_every_node_type_survives_copy_and_pickle():
    for t, n in _one_of_each_type().items():
        for c in (copy.copy(n), copy.deepcopy(n), pickle.loads(pickle.dumps(n))):
            assert type(c) is t and c is not n
            assert c == n and repr(c) == repr(n) and hash(c) == hash(n)


def test_importing_mer_inspects_no_class_signature():
    # dataclass builds a class's __doc__ from inspect.signature when the
    # class has none, which costs start-up time; schemes may still read
    # the signatures of functions
    code = (
        "import inspect, sys\n"
        "signature = inspect.signature\n"
        "def spy(obj, *args, **kw):\n"
        "    if isinstance(obj, type):\n"
        "        print(obj.__qualname__)\n"
        "    return signature(obj, *args, **kw)\n"
        "inspect.signature = spy\n"
        "import mer.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith('mer.')))\n"
    )
    package = os.path.dirname(os.path.abspath(syntax.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    modules = sorted(f"mer.{name[:-3]}" for name in os.listdir(package)
                     if name.endswith(".py") and name != "__init__.py")
    assert done.stdout == " ".join(modules) + "\n"


def test_node_equality_hash_and_repr_are_the_dataclass_ones():
    m, again = parse(GENERALISED_SRC), parse(GENERALISED_SRC)
    assert m == again and hash(m.definitions) == hash(again.definitions)
    assert repr(m) == repr(again)
    for d in m.definitions:
        for n in walk(d):
            values = tuple(getattr(n, f.name) for f in fields(n))
            assert hash(n) == hash(values)
            shown = ", ".join(f"{f.name}={v!r}" for f, v in zip(fields(n), values))
            assert repr(n) == f"{type(n).__name__}({shown})"
    other = parse(GENERALISED_SRC.replace("2", "3"))
    assert m != other and m.definitions[1] != other.definitions[1]


def test_parsed_module_survives_pickle_and_deepcopy():
    m = parse(GENERALISED_SRC)
    key, args = FunKey("g", 1), [IntV(4)]
    for evaluated in (False, True):
        if evaluated:
            assert eval_call(m, key, args) == Ok(IntV(10), {}, ())
        for c in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert c == m and repr(c) == repr(m) and c.definitions[0] is not m.definitions[0]
            assert eval_call(c, key, args) == Ok(IntV(10), {}, ())
