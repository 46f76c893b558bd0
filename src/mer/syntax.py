"""Mini-Erlang syntax: lexer, parser, pretty printer, and node identity.

The object language is a small functional core with one clause per
function: integer and atom literals, variables, binary operators
(+, -, *, div, ==, <), pattern matches ``P = E``, ``begin .. end``
blocks, ``fun(..) -> .. end`` lambdas, static calls ``name(..)``,
dynamic calls ``Var(..)`` / ``(fun .. end)(..)``, ``print(E)`` as the
sole effect primitive, and tuples. ``%`` starts a line comment.

Every node carries an integer id that is unique within its module and
never reused; tree surgery preserves the ids of moved fragments so that
node references stay valid across refactoring snapshots. Modules and
nodes are immutable after construction.

``SLOTS`` and ``MIRROR`` are the one place a node type is registered:
``SLOTS`` lists each compound type's child fields and whether each holds
expressions or patterns, and ``MIRROR`` pairs each expression type with
the pattern type of the same shape. Traversal, rebuild, cloning,
structural equality, and the template matcher, substituter and validator
are all derived from these two tables.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterator, Optional, Union


class ParseError(Exception):
    """Syntax error with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class DuplicateDefinition(ParseError):
    """Two definitions share the same (name, arity)."""


class NotFound(Exception):
    """No expression node at the requested position."""


@dataclass(frozen=True)
class SourceSpan:
    """Inclusive start, exclusive end, both 1-based line:col."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def contains(self, line: int, col: int) -> bool:
        return (self.start_line, self.start_col) <= (line, col) < (self.end_line, self.end_col)


class Node:
    """Marker base class for all tree nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Patterns


@dataclass(frozen=True)
class PVar(Node):
    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class PInt(Node):
    value: int
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class PAtom(Node):
    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class PTuple(Node):
    elements: tuple["Pattern", ...]
    node_id: int
    span: Optional[SourceSpan] = None


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class IntLit(Node):
    value: int
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class AtomLit(Node):
    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class VarRef(Node):
    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: "Expr"
    right: "Expr"
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class Match(Node):
    pattern: "Pattern"
    rhs: "Expr"
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class Block(Node):
    body: tuple["Expr", ...]  # nonempty; transparent for bindings
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class Body(Node):
    """The expression sequence of a scope introducer (FunDef or Lambda)."""

    exprs: tuple["Expr", ...]  # nonempty
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class Lambda(Node):
    params: tuple["Pattern", ...]
    body: Body
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class StaticCall(Node):
    name: str  # a leading '@' marks a metavariable name slot (templates only)
    args: tuple["Expr", ...]
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class DynCall(Node):
    callee: "Expr"  # VarRef or Lambda (direct application)
    args: tuple["Expr", ...]
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class Print(Node):
    arg: "Expr"
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class TupleExpr(Node):
    elements: tuple["Expr", ...]
    node_id: int
    span: Optional[SourceSpan] = None


# ---------------------------------------------------------------------------
# Template metavariables (never present in parsed object programs)


@dataclass(frozen=True)
class MetaVar(Node):
    """Scalar metavariable: matches one expression, pattern, or name."""

    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class MetaSeq(Node):
    """List metavariable: matches a possibly-empty fragment sequence."""

    name: str
    node_id: int
    span: Optional[SourceSpan] = None


# ---------------------------------------------------------------------------
# Definitions and modules


@dataclass(frozen=True)
class FunDef(Node):
    name: str
    params: tuple["Pattern", ...]
    body: Body
    node_id: int
    span: Optional[SourceSpan] = None

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class ModuleAst:
    definitions: tuple[FunDef, ...]
    next_node_id: int

    def __getstate__(self):
        # the fields only: caches kept on the object, such as the
        # evaluator's compiled program, are not copied or pickled
        return {f.name: getattr(self, f.name) for f in fields(self)}


Pattern = Union[PVar, PInt, PAtom, PTuple, MetaVar, MetaSeq]
Expr = Union[
    IntLit, AtomLit, VarRef, BinOp, Match, Block, Lambda,
    StaticCall, DynCall, Print, TupleExpr, MetaVar, MetaSeq,
]

EXPR_TYPES = (
    IntLit, AtomLit, VarRef, BinOp, Match, Block, Lambda,
    StaticCall, DynCall, Print, TupleExpr,
)
PATTERN_TYPES = (PVar, PInt, PAtom, PTuple)


class IdGen:
    """Monotone node-id source; ids are never reused within a module."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> int:
        n = self._next
        self._next += 1
        return n

    @property
    def high(self) -> int:
        return self._next


# ---------------------------------------------------------------------------
# Node schema


# compound node type -> its child slots in source order, each
# (field, holds a sequence, sort "expr" | "pattern")
SLOTS: dict[type, tuple[tuple[str, bool, str], ...]] = {
    BinOp: (("left", False, "expr"), ("right", False, "expr")),
    Match: (("pattern", False, "pattern"), ("rhs", False, "expr")),
    Block: (("body", True, "expr"),),
    Body: (("exprs", True, "expr"),),
    Lambda: (("params", True, "pattern"), ("body", False, "expr")),
    StaticCall: (("args", True, "expr"),),
    DynCall: (("callee", False, "expr"), ("args", True, "expr")),
    Print: (("arg", False, "expr"),),
    TupleExpr: (("elements", True, "expr"),),
    PTuple: (("elements", True, "pattern"),),
    FunDef: (("params", True, "pattern"), ("body", False, "expr")),
}

# expression type <-> pattern type of the same shape; a pair shares its
# field names
MIRROR: dict[type, type] = {VarRef: PVar, IntLit: PInt, AtomLit: PAtom, TupleExpr: PTuple}
MIRROR.update({p: e for e, p in list(MIRROR.items())})

# node type -> its fields other than node_id and span, in declaration order
FIELDS = {t: tuple(f.name for f in fields(t) if f.name not in ("node_id", "span"))
          for t in Node.__subclasses__()}


def _children_getter(slots):
    # children() is on every traversal's path: a lone sequence slot, or
    # scalar slots only, are read by one C-level attrgetter
    names = tuple(f for f, _, _ in slots)
    if len(slots) == 1 and slots[0][1]:
        return attrgetter(names[0])
    if len(slots) > 1 and not any(seq for _, seq, _ in slots):
        return attrgetter(*names)
    spec = tuple((f, seq) for f, seq, _ in slots)

    def get(n):
        out = ()
        for f, seq in spec:
            v = getattr(n, f)
            out += v if seq else (v,)
        return out

    return get


_CHILDREN = {t: _children_getter(slots) for t, slots in SLOTS.items()}


def remake(cls: type, n: Node, changes: dict, node_id: int,
           span: Optional[SourceSpan] = None) -> Node:
    """A cls node with n's fields, except those in changes."""
    return cls(*[changes[f] if f in changes else getattr(n, f) for f in FIELDS[cls]],
               node_id=node_id, span=span)


# ---------------------------------------------------------------------------
# Generic tree access


def children(n: Node) -> tuple[Node, ...]:
    """Direct children in source order."""
    get = _CHILDREN.get(type(n))
    return get(n) if get else ()


def walk(n: Node) -> Iterator[Node]:
    """Preorder traversal of n and all descendants."""
    stack = [n]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(children(cur)))


def node_ids(n: Node) -> set[int]:
    return {x.node_id for x in walk(n)}


def module_node_ids(m: ModuleAst) -> set[int]:
    out: set[int] = set()
    for d in m.definitions:
        out |= node_ids(d)
    return out


def is_expr(n: Node) -> bool:
    return isinstance(n, EXPR_TYPES)


def is_pattern(n: Node) -> bool:
    return isinstance(n, PATTERN_TYPES)


def struct_eq(a, b) -> bool:
    """Structural equality ignoring node ids and source spans."""
    if isinstance(a, Node) or isinstance(b, Node):
        t = type(a)
        return t is type(b) and all(struct_eq(getattr(a, f), getattr(b, f)) for f in FIELDS[t])
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(struct_eq(x, y) for x, y in zip(a, b))
    return a == b


def module_struct_eq(a: ModuleAst, b: ModuleAst) -> bool:
    return struct_eq(a.definitions, b.definitions)


def _map_children(n: Node, fn: Callable[[Node], Node]) -> dict:
    """{slot field: fn applied to each child held there} for n's slots."""
    out = {}
    for f, seq, _ in SLOTS.get(type(n), ()):
        v = getattr(n, f)
        out[f] = tuple(fn(c) for c in v) if seq else fn(v)
    return out


def clone_fresh(n: Node, gen: IdGen) -> Node:
    """Deep copy with all-new node ids and no spans."""
    return remake(type(n), n, _map_children(n, lambda c: clone_fresh(c, gen)), gen.fresh())


def rebuild(n: Node, f: Callable[[Node], Node]) -> Node:
    """Bottom-up rewrite: rebuild n's children, then apply f to the result.

    Unchanged subtrees are shared, and f's result is not descended into.
    """
    slots = SLOTS.get(type(n))
    if slots:
        changes = {}
        for name, seq, _ in slots:
            old = getattr(n, name)
            if seq:
                new = tuple(rebuild(c, f) for c in old)
                if any(a is not b for a, b in zip(new, old)):
                    changes[name] = new
            else:
                new = rebuild(old, f)
                if new is not old:
                    changes[name] = new
        if changes:
            n = remake(type(n), n, changes, n.node_id, n.span)
    return f(n)


def module_replace(m: ModuleAst, replacements: dict[int, Node], next_node_id: int) -> ModuleAst:
    """Replace nodes by id throughout m; a replacement is inserted as-is."""
    def f(n: Node) -> Node:
        return replacements.get(n.node_id, n)

    return ModuleAst(tuple(rebuild(d, f) for d in m.definitions), next_node_id)


def _mirror(n: Node, gen: IdGen, to_pattern: bool) -> Node:
    t = type(n)
    if t is MetaVar or t is MetaSeq:
        return n
    if t not in MIRROR or (t in PATTERN_TYPES) == to_pattern:
        raise ValueError(f"no {'pattern' if to_pattern else 'expression'} mirrors {t.__name__}")
    changes = _map_children(n, lambda c: _mirror(c, gen, to_pattern))
    return remake(MIRROR[t], n, changes, gen.fresh())


def pattern_to_expr(p: Pattern, gen: IdGen) -> Expr:
    """Fresh expression mirroring a pattern (for generated call arguments)."""
    return _mirror(p, gen, False)


def expr_to_pattern(e: Expr, gen: IdGen) -> Pattern:
    """Fresh pattern mirroring an expression; raises on non-pattern shapes."""
    return _mirror(e, gen, True)


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {"begin", "end", "fun", "div", "print"}
_PUNCT2 = {"->": "->", "==": "=="}
_PUNCT1 = set("(){},.=<+-*")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int

    @property
    def end_col(self) -> int:
        return self.col + len(self.text)


def lex(source: str, *, meta: bool = False) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if c == "%":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_line, start_col = line, col
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word in _KEYWORDS:
                kind = word
            elif word[0].isupper() or word[0] == "_":
                kind = "var"
            else:
                kind = "atom"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if c == "@" and meta:
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            if j == i + 1:
                raise ParseError("expected metavariable name after '@'", line, col)
            name = source[i + 1:j]
            if source[j:j + 3] == "...":
                tokens.append(Token("metaseq", source[i:j + 3], start_line, start_col))
                col += j + 3 - i
                i = j + 3
            else:
                tokens.append(Token("metavar", source[i:j], start_line, start_col))
                col += j - i
                i = j
            continue
        two = source[i:i + 2]
        if two in _PUNCT2:
            tokens.append(Token(two, two, start_line, start_col))
            col += 2
            i += 2
            continue
        if c in _PUNCT1:
            tokens.append(Token(c, c, start_line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_PREC = {"=": 1, "==": 2, "<": 2, "+": 3, "-": 3, "*": 4, "div": 4}


class _Parser:
    def __init__(self, tokens: list[Token], gen: IdGen, *, meta: bool = False):
        self.toks = tokens
        self.pos = 0
        self.gen = gen
        self.meta = meta

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.error(f"expected {kind!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def _span(self, start: Token, end: Token) -> SourceSpan:
        return SourceSpan(start.line, start.col, end.line, end.end_col)

    def _last(self) -> Token:
        return self.toks[self.pos - 1]

    # ---- module level

    def parse_module(self) -> ModuleAst:
        defs: list[FunDef] = []
        seen: set[tuple[str, int]] = set()
        while self.peek().kind != "eof":
            d = self.parse_fundef()
            key = (d.name, d.arity)
            if key in seen:
                raise DuplicateDefinition(
                    f"duplicate definition {d.name}/{d.arity}",
                    d.span.start_line if d.span else 0,
                    d.span.start_col if d.span else 0,
                )
            seen.add(key)
            defs.append(d)
        return ModuleAst(tuple(defs), self.gen.high)

    def parse_fundef(self) -> FunDef:
        start = self.peek()
        if start.kind != "atom":
            self.error(f"expected function name, found {start.text or 'end of input'!r}")
        name = self.next().text
        self.expect("(")
        params = self.parse_pattern_list(")")
        self.expect(")")
        self.expect("->")
        body_start = self.peek()
        exprs = self.parse_exprseq()
        body = Body(tuple(exprs), node_id=self.gen.fresh(),
                    span=self._span(body_start, self._last()))
        end = self.expect(".")
        return FunDef(name, tuple(params), body, node_id=self.gen.fresh(),
                      span=self._span(start, end))

    # ---- patterns

    def parse_pattern_list(self, closer: str) -> list[Pattern]:
        pats: list[Pattern] = []
        if self.peek().kind == closer:
            return pats
        pats.append(self.parse_pattern())
        while self.peek().kind == ",":
            self.next()
            pats.append(self.parse_pattern())
        return pats

    def parse_pattern(self) -> Pattern:
        t = self.peek()
        if t.kind == "var":
            self.next()
            return PVar(t.text, node_id=self.gen.fresh(), span=self._span(t, t))
        if t.kind == "int":
            self.next()
            return PInt(int(t.text), node_id=self.gen.fresh(), span=self._span(t, t))
        if t.kind == "-" and self.peek(1).kind == "int":
            self.next()
            v = self.next()
            return PInt(-int(v.text), node_id=self.gen.fresh(), span=self._span(t, v))
        if t.kind == "atom":
            self.next()
            return PAtom(t.text, node_id=self.gen.fresh(), span=self._span(t, t))
        if t.kind == "{":
            self.next()
            elems = self.parse_pattern_list("}")
            end = self.expect("}")
            p = PTuple(tuple(elems), node_id=self.gen.fresh(), span=self._span(t, end))
            self._check_linear(p)
            return p
        if t.kind == "metavar" and self.meta:
            self.next()
            return MetaVar(t.text[1:], node_id=self.gen.fresh(), span=self._span(t, t))
        if t.kind == "metaseq" and self.meta:
            self.next()
            return MetaSeq(t.text[1:-3], node_id=self.gen.fresh(), span=self._span(t, t))
        self.error(f"expected pattern, found {t.text or 'end of input'!r}")

    def _check_linear(self, p: Pattern):
        names: list[str] = []
        for sub in walk(p):
            if isinstance(sub, PVar):
                if sub.name in names:
                    raise ParseError(
                        f"variable {sub.name} repeated in pattern",
                        sub.span.start_line if sub.span else 0,
                        sub.span.start_col if sub.span else 0,
                    )
                names.append(sub.name)

    # ---- expressions

    def parse_exprseq(self) -> list[Expr]:
        exprs = [self.parse_expr()]
        while self.peek().kind == ",":
            self.next()
            exprs.append(self.parse_expr())
        return exprs

    def parse_expr(self) -> Expr:
        return self.parse_match()

    def parse_match(self) -> Expr:
        start = self.peek()
        left = self.parse_binop(2)
        if self.peek().kind == "=":
            self.next()
            try:
                pat = expr_to_pattern(left, self.gen)
            except ValueError:
                raise ParseError("left side of '=' is not a pattern", start.line, start.col)
            if not isinstance(pat, (MetaVar, MetaSeq)):
                self._check_linear(pat)
            rhs = self.parse_match()
            return Match(pat, rhs, node_id=self.gen.fresh(), span=self._span(start, self._last()))
        return left

    def parse_binop(self, level: int) -> Expr:
        if level > 4:
            return self.parse_application()
        ops = {2: ("==", "<"), 3: ("+", "-"), 4: ("*", "div")}[level]
        start = self.peek()
        left = self.parse_binop(level + 1)
        while self.peek().kind in ops:
            op = self.next().kind
            right = self.parse_binop(level + 1)
            left = BinOp(op, left, right, node_id=self.gen.fresh(),
                         span=self._span(start, self._last()))
        return left

    def parse_application(self) -> Expr:
        start = self.peek()
        primary = self.parse_primary()
        if self.peek().kind == "(":
            if isinstance(primary, VarRef):
                args = self._parse_call_args()
                return DynCall(primary, tuple(args), node_id=self.gen.fresh(),
                               span=self._span(start, self._last()))
            if isinstance(primary, Lambda):
                self.error("parenthesize a lambda before applying it")
        return primary

    def _parse_call_args(self) -> list[Expr]:
        self.expect("(")
        args: list[Expr] = []
        if self.peek().kind != ")":
            args.append(self.parse_expr())
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text), node_id=self.gen.fresh(), span=self._span(t, t))
        if t.kind == "-" and self.peek(1).kind == "int":
            self.next()
            v = self.next()
            return IntLit(-int(v.text), node_id=self.gen.fresh(), span=self._span(t, v))
        if t.kind == "var":
            self.next()
            return VarRef(t.text, node_id=self.gen.fresh(), span=self._span(t, t))
        if t.kind == "atom":
            self.next()
            if self.peek().kind == "(":
                args = self._parse_call_args()
                return StaticCall(t.text, tuple(args), node_id=self.gen.fresh(),
                                  span=self._span(t, self._last()))
            return AtomLit(t.text, node_id=self.gen.fresh(), span=self._span(t, t))
        if t.kind == "print":
            self.next()
            self.expect("(")
            arg = self.parse_expr()
            end = self.expect(")")
            return Print(arg, node_id=self.gen.fresh(), span=self._span(t, end))
        if t.kind == "begin":
            self.next()
            exprs = self.parse_exprseq()
            end = self.expect("end")
            return Block(tuple(exprs), node_id=self.gen.fresh(), span=self._span(t, end))
        if t.kind == "fun":
            return self.parse_lambda()
        if t.kind == "{":
            self.next()
            elems: list[Expr] = []
            if self.peek().kind != "}":
                elems.append(self.parse_expr())
                while self.peek().kind == ",":
                    self.next()
                    elems.append(self.parse_expr())
            end = self.expect("}")
            return TupleExpr(tuple(elems), node_id=self.gen.fresh(), span=self._span(t, end))
        if t.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            if self.peek().kind == "(":
                if isinstance(inner, Lambda):
                    args = self._parse_call_args()
                    return DynCall(inner, tuple(args), node_id=self.gen.fresh(),
                                   span=self._span(t, self._last()))
                self.error("only a variable or a parenthesized lambda can be applied")
            return inner
        if t.kind == "metavar" and self.meta:
            self.next()
            if self.peek().kind == "(":
                # metavariable in function-name position: a static call template
                args = self._parse_call_args()
                return StaticCall(t.text, tuple(args), node_id=self.gen.fresh(),
                                  span=self._span(t, self._last()))
            return MetaVar(t.text[1:], node_id=self.gen.fresh(), span=self._span(t, t))
        if t.kind == "metaseq" and self.meta:
            self.next()
            return MetaSeq(t.text[1:-3], node_id=self.gen.fresh(), span=self._span(t, t))
        self.error(f"expected expression, found {t.text or 'end of input'!r}")

    def parse_lambda(self) -> Lambda:
        start = self.expect("fun")
        self.expect("(")
        params = self.parse_pattern_list(")")
        self.expect(")")
        self.expect("->")
        body_start = self.peek()
        exprs = self.parse_exprseq()
        body = Body(tuple(exprs), node_id=self.gen.fresh(),
                    span=self._span(body_start, self._last()))
        end = self.expect("end")
        return Lambda(tuple(params), body, node_id=self.gen.fresh(), span=self._span(start, end))


def parse(source: str) -> ModuleAst:
    """Parse module source; raises ParseError / DuplicateDefinition."""
    gen = IdGen()
    p = _Parser(lex(source), gen)
    return p.parse_module()


def parse_expr_text(source: str, *, meta: bool = False, gen: Optional[IdGen] = None) -> Expr:
    """Parse a single standalone expression."""
    g = gen or IdGen()
    p = _Parser(lex(source, meta=meta), g, meta=meta)
    e = p.parse_expr()
    p.expect("eof")
    return e


def parse_exprseq_text(source: str, *, meta: bool = False, gen: Optional[IdGen] = None) -> tuple[Expr, ...]:
    g = gen or IdGen()
    p = _Parser(lex(source, meta=meta), g, meta=meta)
    seq = p.parse_exprseq()
    p.expect("eof")
    return tuple(seq)


def parse_patterns_text(source: str, *, meta: bool = False, gen: Optional[IdGen] = None) -> tuple[Pattern, ...]:
    """Parse a comma-separated pattern list (may be empty)."""
    g = gen or IdGen()
    p = _Parser(lex(source, meta=meta), g, meta=meta)
    if p.peek().kind == "eof":
        return ()
    pats = [p.parse_pattern()]
    while p.peek().kind == ",":
        p.next()
        pats.append(p.parse_pattern())
    p.expect("eof")
    return tuple(pats)


# ---------------------------------------------------------------------------
# Pretty printer
#
# Canonical layout: one definition per line, body expressions comma
# separated, begin/end inline. parse(pretty(m)) is structurally equal
# to m, and pretty is a fixed point over parse.


def pretty(m: ModuleAst) -> str:
    return "".join(pretty_def(d) + "\n" for d in m.definitions)


def pretty_def(d: FunDef) -> str:
    params = ", ".join(pretty_pattern(p) for p in d.params)
    body = ", ".join(pretty_expr(e) for e in d.body.exprs)
    return f"{d.name}({params}) -> {body}."


def pretty_pattern(p: Pattern) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PInt):
        return str(p.value)
    if isinstance(p, PAtom):
        return p.name
    if isinstance(p, PTuple):
        return "{" + ", ".join(pretty_pattern(e) for e in p.elements) + "}"
    if isinstance(p, MetaVar):
        return "@" + p.name
    if isinstance(p, MetaSeq):
        return "@" + p.name + "..."
    raise TypeError(f"not a pattern: {type(p).__name__}")


def pretty_expr(e: Expr, ctx: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, AtomLit):
        return e.name
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, MetaVar):
        return "@" + e.name
    if isinstance(e, MetaSeq):
        return "@" + e.name + "..."
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        s = f"{pretty_expr(e.left, p)} {e.op} {pretty_expr(e.right, p + 1)}"
        return f"({s})" if p < ctx else s
    if isinstance(e, Match):
        s = f"{pretty_pattern(e.pattern)} = {pretty_expr(e.rhs, 1)}"
        return f"({s})" if 1 < ctx else s
    if isinstance(e, Block):
        return "begin " + ", ".join(pretty_expr(x) for x in e.body) + " end"
    if isinstance(e, Lambda):
        params = ", ".join(pretty_pattern(p) for p in e.params)
        body = ", ".join(pretty_expr(x) for x in e.body.exprs)
        return f"fun({params}) -> {body} end"
    if isinstance(e, StaticCall):
        return f"{e.name}({', '.join(pretty_expr(a) for a in e.args)})"
    if isinstance(e, DynCall):
        args = ", ".join(pretty_expr(a) for a in e.args)
        if isinstance(e.callee, Lambda):
            return f"({pretty_expr(e.callee)})({args})"
        return f"{pretty_expr(e.callee, 99)}({args})"
    if isinstance(e, Print):
        return f"print({pretty_expr(e.arg)})"
    if isinstance(e, TupleExpr):
        return "{" + ", ".join(pretty_expr(x) for x in e.elements) + "}"
    raise TypeError(f"not an expression: {type(e).__name__}")


# ---------------------------------------------------------------------------
# Position lookup


def find_node(m: ModuleAst, line: int, col: int) -> int:
    """Id of the smallest expression node whose span contains line:col."""
    best: Optional[Node] = None

    def visit(n: Node):
        nonlocal best
        if is_expr(n) and n.span is not None and n.span.contains(line, col):
            best = n
        for c in children(n):
            if c.span is not None and not c.span.contains(line, col):
                continue
            visit(c)

    for d in m.definitions:
        visit(d)
    if best is None:
        raise NotFound(f"no expression at {line}:{col}")
    return best.node_id


# ---------------------------------------------------------------------------
# Well-formedness (used by engines after every edit)


def syntactic_flaws(m: ModuleAst) -> list[str]:
    """Shape violations a transformation may legitimately run into (the
    language simply cannot express the result), reported rather than raised."""
    flaws = []
    for d in m.definitions:
        for n in walk(d):
            if isinstance(n, (Body, Block)) and not children(n):
                flaws.append(f"empty expression sequence in {d.name}/{d.arity}")
            if isinstance(n, DynCall) and not isinstance(n.callee, (VarRef, Lambda)):
                flaws.append(f"dynamic call callee must be a variable or lambda in {d.name}/{d.arity}")
    return flaws


class SyntacticFlaw(ValueError):
    """A module shape the language cannot express (see syntactic_flaws)."""


def check_module(m: ModuleAst):
    """Assert module invariants; raises SyntacticFlaw for the first shape
    flaw, else ValueError on a duplicate definition or node id."""
    for flaw in syntactic_flaws(m):
        raise SyntacticFlaw(flaw)
    seen_keys: set[tuple[str, int]] = set()
    seen_ids: set[int] = set()
    for d in m.definitions:
        key = (d.name, d.arity)
        if key in seen_keys:
            raise ValueError(f"duplicate definition {d.name}/{d.arity}")
        seen_keys.add(key)
        for n in walk(d):
            if n.node_id in seen_ids:
                raise ValueError(f"duplicate node id {n.node_id} in {d.name}/{d.arity}")
            seen_ids.add(n.node_id)
            if n.node_id >= m.next_node_id:
                raise ValueError(f"node id {n.node_id} beyond next_node_id {m.next_node_id}")
