"""Mini-Erlang syntax: lexer, parser, pretty printer, and node identity.

The object language is a small functional core with one clause per
function: integer and atom literals, variables, binary operators
(+, -, *, div, ==, <), pattern matches ``P = E``, ``begin .. end``
blocks, ``fun(..) -> .. end`` lambdas, static calls ``name(..)``,
dynamic calls ``Var(..)`` / ``(fun .. end)(..)``, ``print(E)`` as the
sole effect primitive, and tuples. ``%`` starts a line comment.

The lexer is one regular expression applied with ``findall`` to whole
lines, a few thousand characters at a time: each match is one token
with the blanks and comment before it, a newline token advances the
line, a token's column is one plus the lengths matched before it on its
line, and a token is the tuple ``(kind, text, line, col, end_col)``.
Names start with a letter or ``_``; integer literals are runs of
Unicode decimal digits. The parser is recursive descent over operands
and precedence climbing over binary operators (Pratt, "Top down
operator precedence", POPL 1973): one loop in ``parse_expr`` reads each
operator's precedence from ``_PREC``, the table ``pretty_expr`` uses to
place parentheses. Expressions and tuple patterns nest at most
``MAX_NESTING`` levels; deeper input is a ``ParseError`` at the first
token too deep, never a ``RecursionError``. Node ids are allocated in
parse order, each node after its children; the left side of a match is
parsed as an expression, then mirrored into a pattern with fresh ids.
Given an earlier parse as its base, ``parse`` shares each definition
that starts its line on lines unchanged in place, the very ``FunDef``
object, and lexes and parses only the rest.

Every node carries an integer id that is unique within its module and
never reused; tree surgery preserves the ids of moved fragments so that
node references stay valid across refactoring snapshots. Modules and
nodes are immutable after construction. Both are records, as is every
immutable value in mer: a slotted dataclass made by ``record``, with no
``__dict__`` (a module keeps one for caches), whose immutability comes
from the ``Record`` base class, not from ``frozen=True``, as do its
equality, hash, repr and pickling. A parsed tree
holds no reference cycle, yet parsing a 27,000-node module would set
off about 130 cycle collections, one of them over the whole heap, that
can free nothing; so ``parse`` runs under ``collector_paused``, which
pauses the collector and then restores the state it found, as
Mercurial's ``util.nogc`` does. ``cli.main`` runs a whole command under it too.

``SLOTS`` and ``MIRROR`` are the one place a node type is registered:
``SLOTS`` lists each compound type's child fields and whether each holds
expressions or patterns, and ``MIRROR`` pairs each expression type with
the pattern type of the same shape. Traversal, rebuild, cloning,
structural equality, and the template matcher, substituter and validator
are all derived from these two tables. ``rebuild`` keeps the nodes left
to rebuild and those rebuilt on two stacks, and ``clone_fresh`` runs
that loop too, so neither is bounded by Python's stack.
"""

from __future__ import annotations

import gc
import re
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from itertools import accumulate, compress
from operator import attrgetter, eq, is_not
from reprlib import recursive_repr
from typing import (
    Callable, Container, Iterable, Iterator, NamedTuple, Optional, Sequence, Union,
)


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


class SourceSpan(NamedTuple):
    """Inclusive start, exclusive end, both 1-based line:col."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def contains(self, line: int, col: int) -> bool:
        return (self.start_line, self.start_col) <= (line, col) < (self.end_line, self.end_col)


class Record:
    """Base class of every immutable record: tree nodes and modules, and
    the values, outcomes, verdicts, templates, scheme instances and keys
    of the other modules. It holds, once for all record types, the
    methods dataclass(frozen=True, slots=True) would compile for each:
    __setattr__ and __delattr__, which refuse every write with
    FrozenInstanceError; __eq__ and __hash__ over the compare fields, and
    __repr__ over the repr fields, in declaration order as the dataclass
    ones are; and __getstate__ and __setstate__, which copy and pickle
    restore a slotted record through. record() sets _values (the compare
    fields' values as a tuple), _state (every field's value as a tuple)
    and _shown (the repr fields' names)."""

    __slots__ = ()
    _values: Callable[["Record"], tuple]
    _state: Callable[["Record"], tuple]
    _shown: tuple[str, ...]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    @recursive_repr()
    def __repr__(self):
        # records and tuples are expanded from an explicit stack, so a tree
        # of any depth prints; a piece of output is a str, a value still to
        # print is a 1-tuple
        out, todo = [], [(self,)]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            v = item[0]
            if v.__class__ is tuple:
                out.append("(")
                todo.append(",)" if len(v) == 1 else ")")
                for i in range(len(v) - 1, 0, -1):
                    todo += ((v[i],), ", ")
                if v:
                    todo.append((v[0],))
            elif isinstance(v, Record):
                out.append(f"{v.__class__.__qualname__}(")
                todo.append(")")
                for i in range(len(v._shown) - 1, -1, -1):
                    name = v._shown[i]
                    todo += ((getattr(v, name),), f", {name}=" if i else f"{name}=")
            else:
                out.append(repr(v))
        return "".join(out)

    def __getstate__(self):
        return self._state(self)

    def __setstate__(self, state):
        for f, value in zip(self.__slots__, state):
            object.__setattr__(self, f, value)


def _getter(names: tuple[str, ...]):
    """A function from a record to the values of the fields names, as a
    tuple (a 1-tuple for one name, as dataclass hashes it)."""
    if len(names) == 1:
        get = attrgetter(*names)
        return staticmethod(lambda r: (get(r),))
    return attrgetter(*names)


def record(cls: type) -> type:
    """cls, a subclass of Record, as a slotted dataclass that takes
    immutability, equality, hashing, repr and pickling from Record
    (dataclass would compile those for each class). Its __init__ stores
    each field through its slot's descriptor, past Record's __setattr__,
    and then calls __post_init__ if cls has one."""
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    fs = fields(cls)
    names = tuple(f.name for f in fs)
    compared = tuple(f.name for f in fs if f.compare)
    cls._state = state = _getter(names)
    cls._values = state if compared == names else _getter(compared)
    cls._shown = tuple(f.name for f in fs if f.repr)
    ns = {f"set_{n}": getattr(cls, n).__set__ for n in names}
    exec(f"def __init__(self, {', '.join(names)}):"
         + "".join(f"\n    set_{n}(self, {n})" for n in names)
         + ("\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""), ns)
    init = ns["__init__"]
    init.__defaults__ = tuple(f.default for f in fs if f.default is not MISSING)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


class Node(Record):
    """Base class of all tree nodes. A node type is a record (see Record
    and record) whose fields end with node_id and span; _node also
    registers its other fields in FIELDS."""

    __slots__ = ()


# node type -> its fields other than node_id and span, in declaration order
FIELDS: dict[type, tuple[str, ...]] = {}


def _node(cls: type) -> type:
    """cls as a record, registered in FIELDS."""
    cls = record(cls)
    FIELDS[cls] = tuple(f.name for f in fields(cls) if f.name not in ("node_id", "span"))
    return cls


# ---------------------------------------------------------------------------
# Patterns


@_node
class PVar(Node):
    """A variable pattern: binds name, or matches its value if bound."""

    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class PInt(Node):
    """An integer literal pattern."""

    value: int
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class PAtom(Node):
    """An atom literal pattern."""

    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class PTuple(Node):
    """A tuple pattern: matches a tuple of as many elements."""

    elements: tuple["Pattern", ...]
    node_id: int
    span: Optional[SourceSpan] = None


# ---------------------------------------------------------------------------
# Expressions


@_node
class IntLit(Node):
    """An integer literal."""

    value: int
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class AtomLit(Node):
    """An atom literal."""

    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class VarRef(Node):
    """A variable occurrence in an expression."""

    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class BinOp(Node):
    """A binary operator application; op is a key of _PREC."""

    op: str
    left: "Expr"
    right: "Expr"
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class Match(Node):
    """A pattern match ``pattern = rhs``: binds the pattern's variables."""

    pattern: "Pattern"
    rhs: "Expr"
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class Block(Node):
    """A ``begin .. end`` block."""

    body: tuple["Expr", ...]  # nonempty; transparent for bindings
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class Body(Node):
    """The expression sequence of a scope introducer (FunDef or Lambda)."""

    exprs: tuple["Expr", ...]  # nonempty
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class Lambda(Node):
    """A ``fun(params) -> body end`` closure."""

    params: tuple["Pattern", ...]
    body: Body
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class StaticCall(Node):
    """A call of a module function by name, ``name(args)``."""

    name: str  # a leading '@' marks a metavariable name slot (templates only)
    args: tuple["Expr", ...]
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class DynCall(Node):
    """A call of a closure value, ``Var(args)`` or ``(fun .. end)(args)``."""

    callee: "Expr"  # VarRef or Lambda (direct application)
    args: tuple["Expr", ...]
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class Print(Node):
    """``print(arg)``, the sole effect primitive."""

    arg: "Expr"
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class TupleExpr(Node):
    """A tuple expression ``{elements}``."""

    elements: tuple["Expr", ...]
    node_id: int
    span: Optional[SourceSpan] = None


# ---------------------------------------------------------------------------
# Template metavariables (never present in parsed object programs)


@_node
class MetaVar(Node):
    """Scalar metavariable: matches one expression, pattern, or name."""

    name: str
    node_id: int
    span: Optional[SourceSpan] = None


@_node
class MetaSeq(Node):
    """List metavariable: matches a possibly-empty fragment sequence."""

    name: str
    node_id: int
    span: Optional[SourceSpan] = None


# ---------------------------------------------------------------------------
# Definitions and modules


@_node
class FunDef(Node):
    """A function definition: one clause ``name(params) -> body.``"""

    name: str
    params: tuple["Pattern", ...]
    body: Body
    node_id: int
    span: Optional[SourceSpan] = None

    @property
    def arity(self) -> int:
        return len(self.params)


class _Caches:
    """A base without __slots__: it gives its subclasses' instances a
    __dict__, for caches kept out of their fields."""


@record
class ModuleAst(Record, _Caches):
    """A parsed module: its definitions in source order, and the next
    unused node id. Caches kept in its __dict__, such as the evaluator's
    compiled program, are not copied or pickled: Record's __getstate__
    holds the fields only."""

    definitions: tuple[FunDef, ...]
    next_node_id: int


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
               node_id, span)


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


NODE_ID = attrgetter("node_id")


def node_ids(n: Node) -> set[int]:
    return {x.node_id for x in walk(n)}


def is_expr(n: Node) -> bool:
    return isinstance(n, EXPR_TYPES)


def is_pattern(n: Node) -> bool:
    return isinstance(n, PATTERN_TYPES)


def struct_eq(a, b) -> bool:
    """Structural equality ignoring node ids and source spans; the pairs
    left to compare are kept on a stack, so trees of any depth compare."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Node) or isinstance(b, Node):
            if type(a) is not type(b):
                return False
            stack += [(getattr(a, f), getattr(b, f)) for f in FIELDS[type(a)]]
        elif isinstance(a, tuple) and isinstance(b, tuple):
            if len(a) != len(b):
                return False
            stack += zip(a, b)
        elif a != b:
            return False
    return True


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
    """Deep copy, each node built once, with new ids in postorder and no spans."""
    return _rebuild(n, lambda x: x if type(x) in SLOTS else remake(type(x), x, {}, gen.fresh()),
                    gen)


def rebuild(n: Node, f: Callable[[Node], Node]) -> Node:
    """Bottom-up rewrite: rebuild each node's children, left to right,
    then apply f to the result; so f sees n's nodes in postorder.
    Unchanged subtrees are shared, and f's result is not descended into.
    """
    return _rebuild(n, f, None)


def _rebuild(n: Node, f: Callable[[Node], Node], gen: Optional[IdGen]) -> Node:
    # with gen (clone_fresh), every compound node is remade: gen's next id, no span
    done: list[Node] = []  # rebuilt nodes whose parent is not yet rebuilt
    todo: list = [n]  # a node, or (node, its children) once those are queued
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            x, old = x
            new = done[len(done) - len(old):]
            del done[len(done) - len(old):]
            if gen or any(map(is_not, new, old)):  # remade with its new children
                changes, i = {}, 0
                for name, seq, _ in SLOTS[type(x)]:
                    j = i + len(getattr(x, name)) if seq else i + 1
                    changes[name] = tuple(new[i:j]) if seq else new[i]
                    i = j
                x = (remake(type(x), x, changes, gen.fresh()) if gen
                     else remake(type(x), x, changes, x.node_id, x.span))
        else:
            get = _CHILDREN.get(type(x))  # children(x), inlined on this hot loop
            if get:  # a compound node, even one without children
                old = get(x)
                todo.append((x, old))
                todo += reversed(old)
                continue
        done.append(f(x))
    return done[0]


def edit_definitions(m: ModuleAst, holders: Container[int],
                     edit: Callable[[FunDef], FunDef]) -> tuple[FunDef, ...]:
    """m's definitions with each d whose id is in holders replaced by
    edit(d), called in module order; the others are shared, not walked."""
    defs = list(m.definitions)
    # the definitions to edit are found at C speed: a module may hold thousands
    for i in compress(range(len(defs)), map(holders.__contains__, map(NODE_ID, defs))):
        defs[i] = edit(defs[i])
    return tuple(defs)


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

KEYWORDS = {"begin", "end", "fun", "div", "print"}

# One match per token: group 1 takes the blanks and the comment before it,
# group 2 the token, tried in the order listed. "." matches any character
# but a newline, so the last alternative, which is empty, matches only at
# the end of the text searched, behind any blanks there.
_TOKEN = re.compile(r"""
    ( [ \t\r]* (?: %.* )? )
    ( \n
    | \d+                       # Unicode decimal digits
    | \w+                       # a name, if it starts with a letter or _
    | @\w*(?:\.\.\.)?           # metavariable; with ... a metasequence
    | ->|==|[(){},.=<+\-*]
    | .
    | )
""", re.VERBOSE)

_NEWLINE = object()
_CHUNK = 8192
# token text -> kind, for the texts whose kind is fixed
_KINDS = {"\n": _NEWLINE, **{k: k for k in KEYWORDS},
          **{p: p for p in ("->", "==", *"(){},.=<+-*")}}


def _kind(tok: str, meta: bool, line: int, col: int) -> str:
    """The kind of a token whose text is not in _KINDS, or a ParseError.
    Its first character tells which alternative of _TOKEN matched it:
    str.isdecimal is what \\d matches."""
    c = tok[0]
    if c.isdecimal():
        return "int"
    if c.isalpha() or c == "_":
        return "var" if c.isupper() or c == "_" else "atom"
    if c == "@" and meta:
        if tok == "@" or tok == "@...":
            raise ParseError("expected metavariable name after '@'", line, col)
        return "metaseq" if tok.endswith("...") else "metavar"
    raise ParseError(f"unexpected character {c!r}", line, col)


def lex(source: str, *, meta: bool = False, skip: Sequence[tuple] = ()) -> list[tuple]:
    """Tokens (kind, text, line, col, end_col) of source, ending with an
    eof token. skip lists spans of source not to lex, in source order,
    each (start, end, end_line, end_col, token): start is where a token
    starts, after only blanks on its line, end is just past a '.' token
    and lies at end_line:end_col, and the span is the one token given."""
    tokens = []
    append = tokens.append
    kinds = _KINDS.copy()  # and each other text met so far
    start, line, col = 0, 1, 1
    skip = iter(skip)
    jump = next(skip, None)
    while start < len(source):
        # whole lines of about _CHUNK characters at a time, or up to the
        # next span skipped: findall holds every match of its span at once
        stop = source.find("\n", start + _CHUNK) + 1 or len(source)
        if jump is not None and jump[0] <= stop:
            stop = jump[0]
        for blank, tok in _TOKEN.findall(source, start, stop):
            col += len(blank)
            kind = kinds.get(tok)
            if kind is None:
                if not tok:  # the end of the span
                    break
                kind = kinds[tok] = _kind(tok, meta, line, col)
            elif kind is _NEWLINE:
                line += 1
                col = 1
                continue
            end = col + len(tok)
            append((kind, tok, line, col, end))
            col = end
        if jump is not None and jump[0] == stop:
            _, start, line, col, tok = jump
            append(tok)
            jump = next(skip, None)
        else:
            start = stop
    append(("eof", "", line, col, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

# binary operator -> precedence; '=' (a match) is right-associative,
# the others are left-associative
_PREC = {"=": 1, "==": 2, "<": 2, "+": 3, "-": 3, "*": 4, "div": 4}

# Deepest nesting of expressions and tuple patterns the parser accepts;
# deeper input is a ParseError at the opening token of the first level
# too deep. A level costs at most four Python frames, so the default
# recursion limit of 1,000 leaves room for the caller's stack. The
# operands of a left-associative chain do not nest.
MAX_NESTING = 200


def _span(start: tuple, end: tuple) -> SourceSpan:
    # tuple.__new__ skips the Python-level __new__ NamedTuple generates
    return tuple.__new__(SourceSpan, (start[2], start[3], end[2], end[4]))


def _too_long(t: tuple) -> ParseError:
    # int() refuses literals longer than the interpreter converts
    return ParseError(f"integer literal of {len(t[1])} digits is too long", t[2], t[3])


class _Parser:
    def __init__(self, tokens: list[tuple], gen: IdGen, *, meta: bool = False):
        self.toks = tokens  # read at self.pos; the eof token ends the list
        self.pos = 0
        self.gen = gen
        self.meta = meta
        self.depth = 0

    def expect(self, kind: str) -> tuple:
        t = self.toks[self.pos]
        if t[0] != kind:
            self.error(f"expected {kind!r}, found {t[1] or 'end of input'!r}")
        self.pos += 1
        return t

    def error(self, msg: str):
        t = self.toks[self.pos]
        raise ParseError(msg, t[2], t[3])

    def _last(self) -> tuple:
        return self.toks[self.pos - 1]

    def _nest(self, t: tuple):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", t[2], t[3])

    def _int(self) -> Optional[tuple[int, tuple, tuple]]:
        """(value, first token, last token) of an integer literal, or None."""
        toks, pos = self.toks, self.pos
        t = toks[pos]
        sign = 1
        if t[0] == "-" and toks[pos + 1][0] == "int":
            sign, pos = -1, pos + 1
        elif t[0] != "int":
            return None
        v = toks[pos]
        self.pos = pos + 1
        try:
            return sign * int(v[1]), t, v
        except ValueError:
            raise _too_long(v) from None

    # ---- module level

    def parse_module(self) -> ModuleAst:
        """The module of the definitions in the tokens. A shared token
        (see _shared) stands for the definitions it carries, at a
        definition's start only: anywhere else it is a ParseError."""
        toks = self.toks
        defs = []
        seen = set()
        while toks[self.pos][0] != "eof":
            if toks[self.pos][0] == "shared":
                run = toks[self.pos][5]
                self.pos += 1
            else:
                run = (self.parse_fundef(),)
            for d in run:
                key = (d.name, d.arity)
                if key in seen:
                    raise DuplicateDefinition(f"duplicate definition {d.name}/{d.arity}",
                                              d.span.start_line, d.span.start_col)
                seen.add(key)
                defs.append(d)
        return ModuleAst(tuple(defs), self.gen.high)

    def parse_fundef(self) -> FunDef:
        start = self.toks[self.pos]
        # a template may hold a metavariable in name position, as in a call
        if start[0] != "atom" and not (self.meta and start[0] == "metavar"):
            self.error(f"expected function name, found {start[1] or 'end of input'!r}")
        self.pos += 1
        params, body = self._clause()
        end = self.expect(".")
        return FunDef(start[1], params, body, self.gen.fresh(), _span(start, end))

    def _clause(self) -> tuple[tuple[Pattern, ...], Body]:
        """'(' patterns ')' '->' body, shared by definitions and lambdas."""
        self.expect("(")
        params = self.parse_pattern_list(")")
        self.expect(")")
        self.expect("->")
        body_start = self.toks[self.pos]
        exprs = self.parse_exprseq()
        return params, Body(exprs, self.gen.fresh(), _span(body_start, self._last()))

    # ---- patterns

    def parse_pattern_list(self, closer: str) -> tuple[Pattern, ...]:
        if self.toks[self.pos][0] == closer:
            return ()
        pats = [self.parse_pattern()]
        while self.toks[self.pos][0] == ",":
            self.pos += 1
            pats.append(self.parse_pattern())
        return tuple(pats)

    def parse_pattern(self) -> Pattern:
        t = self.toks[self.pos]
        kind = t[0]
        if kind == "var":
            self.pos += 1
            return PVar(t[1], self.gen.fresh(), _span(t, t))
        lit = self._int()
        if lit is not None:
            return PInt(lit[0], self.gen.fresh(), _span(lit[1], lit[2]))
        if kind == "atom":
            self.pos += 1
            return PAtom(t[1], self.gen.fresh(), _span(t, t))
        if kind == "{":
            self._nest(t)
            self.pos += 1
            elems = self.parse_pattern_list("}")
            end = self.expect("}")
            self.depth -= 1
            p = PTuple(elems, self.gen.fresh(), _span(t, end))
            self._check_linear(p)
            return p
        if self.meta and (kind == "metavar" or kind == "metaseq"):
            self.pos += 1
            return self._meta(t)
        self.error(f"expected pattern, found {t[1] or 'end of input'!r}")

    def _meta(self, t: tuple) -> Union[MetaVar, MetaSeq]:
        if t[0] == "metaseq":
            return MetaSeq(t[1][1:-3], self.gen.fresh(), _span(t, t))
        return MetaVar(t[1][1:], self.gen.fresh(), _span(t, t))

    def _check_linear(self, p: Union[Pattern, Expr]):
        """A ParseError at the second occurrence of a variable in a parsed
        pattern, or in an expression that mirrors one."""
        names: set[str] = set()
        for sub in walk(p):
            if type(sub) is PVar or type(sub) is VarRef:
                if sub.name in names:
                    raise ParseError(f"variable {sub.name} repeated in pattern",
                                     sub.span.start_line, sub.span.start_col)
                names.add(sub.name)

    # ---- expressions

    def parse_exprseq(self) -> tuple[Expr, ...]:
        exprs = [self.parse_expr()]
        while self.toks[self.pos][0] == ",":
            self.pos += 1
            exprs.append(self.parse_expr())
        return tuple(exprs)

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over _PREC: operands, then every operator
        binding at least as tightly as min_prec."""
        toks = self.toks
        start = toks[self.pos]
        self._nest(start)
        left = self.parse_primary()
        gen = self.gen
        while True:
            op = toks[self.pos][0]
            prec = _PREC.get(op)
            if prec is None or prec < min_prec:
                break
            self.pos += 1
            if op == "=":
                try:
                    pat = expr_to_pattern(left, gen)
                except ValueError:
                    raise ParseError("left side of '=' is not a pattern",
                                     start[2], start[3]) from None
                self._check_linear(left)  # the mirror has no spans
                rhs = self.parse_expr(prec)
            else:
                right = self.parse_expr(prec + 1)
            end = toks[self.pos - 1]
            nid = gen._next  # gen.fresh() and _span, inlined on this hot path
            gen._next = nid + 1
            span = tuple.__new__(SourceSpan, (start[2], start[3], end[2], end[4]))
            left = BinOp(op, left, right, nid, span) if op != "=" else Match(pat, rhs, nid, span)
        self.depth -= 1
        return left

    def _call_args(self) -> tuple[Expr, ...]:
        self.pos += 1  # the '(' the caller saw
        if self.toks[self.pos][0] == ")":
            self.pos += 1
            return ()
        args = self.parse_exprseq()
        self.expect(")")
        return args

    def parse_primary(self) -> Expr:
        """An operand: a literal, variable, call, block, lambda, tuple or
        parenthesized expression, with its application if any."""
        toks = self.toks
        pos = self.pos
        t = toks[pos]
        kind = t[0]
        gen = self.gen
        if kind == "var" or kind == "int":
            self.pos = pos + 1
            nid = gen._next  # as in parse_expr
            gen._next = nid + 1
            span = tuple.__new__(SourceSpan, (t[2], t[3], t[2], t[4]))
            if kind == "int":
                try:
                    return IntLit(int(t[1]), nid, span)
                except ValueError:
                    raise _too_long(t) from None
            v = VarRef(t[1], nid, span)
            if toks[pos + 1][0] != "(":
                return v
            args = self._call_args()
            return DynCall(v, args, gen.fresh(), _span(t, self._last()))
        if kind == "atom":
            self.pos += 1
            if toks[self.pos][0] == "(":
                args = self._call_args()
                return StaticCall(t[1], args, gen.fresh(), _span(t, self._last()))
            return AtomLit(t[1], gen.fresh(), _span(t, t))
        lit = self._int()  # a negative literal
        if lit is not None:
            return IntLit(lit[0], gen.fresh(), _span(lit[1], lit[2]))
        if kind == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            if toks[self.pos][0] == "(":
                if isinstance(inner, Lambda):
                    args = self._call_args()
                    return DynCall(inner, args, gen.fresh(), _span(t, self._last()))
                self.error("only a variable or a parenthesized lambda can be applied")
            return inner
        if kind == "print":
            self.pos += 1
            self.expect("(")
            arg = self.parse_expr()
            end = self.expect(")")
            return Print(arg, gen.fresh(), _span(t, end))
        if kind == "begin":
            self.pos += 1
            exprs = self.parse_exprseq()
            end = self.expect("end")
            return Block(exprs, gen.fresh(), _span(t, end))
        if kind == "fun":
            self.pos += 1
            params, body = self._clause()
            end = self.expect("end")
            lam = Lambda(params, body, gen.fresh(), _span(t, end))
            if toks[self.pos][0] == "(":
                self.error("parenthesize a lambda before applying it")
            return lam
        if kind == "{":
            self.pos += 1
            elems = () if toks[self.pos][0] == "}" else self.parse_exprseq()
            end = self.expect("}")
            return TupleExpr(elems, gen.fresh(), _span(t, end))
        if self.meta and kind == "metavar" and toks[self.pos + 1][0] == "(":
            # metavariable in function-name position: a static call template
            self.pos += 1
            args = self._call_args()
            return StaticCall(t[1], args, gen.fresh(), _span(t, self._last()))
        if self.meta and (kind == "metavar" or kind == "metaseq"):
            self.pos += 1
            return self._meta(t)
        self.error(f"expected expression, found {t[1] or 'end of input'!r}")


class collector_paused:
    """Run a with-block with the cycle collector paused, then restore the
    state it found, also when the block raises; for work that allocates
    many objects and leaves no reference cycle. A class, not a generator:
    nothing is allocated after the collector is restored, so a collection
    the block made due runs after the block, not in its exit."""

    __slots__ = ("enabled",)

    def __enter__(self):
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, typ, exc, tb):
        if self.enabled:
            gc.enable()


def parse(source: str, base: Optional[tuple[str, ModuleAst]] = None) -> ModuleAst:
    """Parse module source; raises ParseError / DuplicateDefinition. The
    cycle collector is paused meanwhile (see the module docstring).

    base, if given, is the source and module of an earlier parse. A
    definition of base's module that starts its line, after blanks only,
    on lines source holds unchanged at the same line numbers is that
    FunDef object (incremental reuse of unchanged subtrees, Wagner &
    Graham, "Efficient and flexible incremental parsing", TOPLAS 1998).
    Its text is not lexed: the lexer starts it fresh after a newline and
    blanks and ends it at a '.', which joins no character after it into
    a token, and base lexed it without error; so its tokens are the same
    and skipping it hides no lex error. A run of them, with the blanks
    and comments between, is one token, which the parser takes at a
    definition's start only. A definition after another token on its
    line is lexed and parsed anew. New nodes take ids from base's
    next_node_id upward. On a ParseError source is parsed again with
    nothing skipped, which raises parse(source)'s error; so the result,
    ids aside, and any error are those of parse(source)."""
    with collector_paused():
        skip = () if base is None else _shared(source, *base)
        first_id = 0 if base is None else base[1].next_node_id
        try:
            return _Parser(lex(source, skip=skip), IdGen(first_id)).parse_module()
        except ParseError:
            if not skip:
                raise
        return _Parser(lex(source), IdGen(first_id)).parse_module()


def _shared(source: str, old: str, m: ModuleAst) -> list[tuple]:
    """lex's skip list for parsing source against old, parsed as m: a span
    for each run of m's definitions that start their line on lines source
    holds unchanged in place, with the token ("shared", "", line, col,
    col, those FunDefs). Lines end at '\n' only, as in the lexer."""
    lines = source.split("\n")
    offsets = [0, *accumulate(len(line) + 1 for line in lines)]
    same = bytes(map(eq, old.split("\n"), lines)) + b"\0"  # 1: line unchanged in place
    defs = m.definitions
    starts, ends = [d.span.start_line for d in defs], [d.span.end_line for d in defs]
    # 1: the definition starts on the line the one before it ends on (in
    # old only blanks and comments, which end their line, lie between two)
    follows = bytes(map(eq, [0, *ends], starts))
    skip = []
    b = 0
    while (a := same.find(1, b)) >= 0:
        b = same.find(0, a)
        # lines a + 1 to b are unchanged, and so are the definitions on them
        i, j = bisect_left(starts, a + 1), bisect_right(ends, b)
        while i < j:
            if follows[i]:  # lexed and parsed as any other
                i += 1
                continue
            k = follows.find(1, i, j)
            if k < 0:
                k = j
            (line, col, _, _), (_, _, end_line, end_col) = defs[i].span, defs[k - 1].span
            skip.append((offsets[line - 1] + col - 1, offsets[end_line - 1] + end_col - 1,
                         end_line, end_col, ("shared", "", line, col, col, defs[i:k])))
            i = k
    return skip


def parse_expr_text(source: str, *, meta: bool = False, gen: Optional[IdGen] = None) -> Expr:
    """Parse a single standalone expression."""
    p = _Parser(lex(source, meta=meta), gen or IdGen(), meta=meta)
    e = p.parse_expr()
    p.expect("eof")
    return e


def parse_exprseq_text(source: str, *, meta: bool = False, gen: Optional[IdGen] = None) -> tuple[Expr, ...]:
    p = _Parser(lex(source, meta=meta), gen or IdGen(), meta=meta)
    seq = p.parse_exprseq()
    p.expect("eof")
    return seq


def parse_fundef_text(source: str, *, meta: bool = False) -> FunDef:
    """Parse a single function definition, its closing '.' included."""
    p = _Parser(lex(source, meta=meta), IdGen(), meta=meta)
    d = p.parse_fundef()
    p.expect("eof")
    return d


def parse_clause_text(source: str, *, meta: bool = False) -> Lambda:
    """Parse ``(patterns) -> body`` as the Lambda ``fun .. end`` holds."""
    p = _Parser(lex(source, meta=meta), IdGen(), meta=meta)
    params, body = p._clause()
    p.expect("eof")
    return Lambda(params, body, p.gen.fresh())


def parse_patterns_text(source: str, *, meta: bool = False, gen: Optional[IdGen] = None) -> tuple[Pattern, ...]:
    """Parse a comma-separated pattern list (may be empty)."""
    p = _Parser(lex(source, meta=meta), gen or IdGen(), meta=meta)
    pats = p.parse_pattern_list("eof")
    p.expect("eof")
    return pats


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


def pretty_fragment(n: Node) -> str:
    """An expression, a pattern or a body as object-language text."""
    if isinstance(n, Body):
        return ", ".join(pretty_expr(e) for e in n.exprs)
    return pretty_pattern(n) if is_pattern(n) else pretty_expr(n)


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
        # a left-associative chain, which may be thousands of levels deep,
        # is printed by a loop down its left spine
        spine = [e]
        while type(spine[-1].left) is BinOp and _PREC[spine[-1].left.op] >= _PREC[spine[-1].op]:
            spine.append(spine[-1].left)
        parts = [pretty_expr(spine[-1].left, _PREC[spine[-1].op])]
        for b in reversed(spine):
            parts += (" ", b.op, " ", pretty_expr(b.right, _PREC[b.op] + 1))
        s = "".join(parts)
        return f"({s})" if _PREC[e.op] < ctx else s
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
    # preorder, on an explicit stack: the last hit is the smallest
    stack = list(reversed(m.definitions))
    while stack:
        n = stack.pop()
        if is_expr(n) and n.span is not None and n.span.contains(line, col):
            best = n
        stack.extend(c for c in reversed(children(n))
                     if c.span is None or c.span.contains(line, col))
    if best is None:
        raise NotFound(f"no expression at {line}:{col}")
    return best.node_id


# ---------------------------------------------------------------------------
# Well-formedness: _shape is the one walk of a definition an edit adds


def syntactic_flaws(defs: Iterable[FunDef]) -> list[str]:
    """Shape violations a transformation may legitimately run into (the
    language simply cannot express the result), reported rather than raised."""
    return [flaw for d in defs for flaw in shape_flaws(d, *_shape(d)[:2])]


def shape_flaws(d: FunDef, found: list[str], bound: int) -> list[str]:
    """found, the flaws _shape(d) found, then the parser's refusal of
    pretty_def(d), which is tried only if bound, _shape(d)'s, passes MAX_NESTING."""
    if bound <= MAX_NESTING:
        return found
    try:
        parse(pretty_def(d))
    except ParseError as exc:
        return found + [f"{exc.message} in {d.name}/{d.arity}"]
    except RecursionError:
        # pretty_def recurses about once a level, the parser stops at
        # MAX_NESTING: a definition too deep to print is too deep
        return found + [f"nesting deeper than {MAX_NESTING} levels in {d.name}/{d.arity}"]
    return found


def _shape(d: FunDef) -> tuple[list[str], int, list[int], list[tuple[str, int]]]:
    """From one walk: d's flaws other than its nesting, in preorder, an upper
    bound on the parser's nesting depth in pretty_def(d), its node ids and
    its static calls' keys. The parser takes a level for each expression it
    parses below a definition's head and for each tuple pattern; so each
    edge counts one, except a BinOp's operands. Its left one takes none if
    pretty_expr prints it on the chain's spine, as it does a left-associative
    chain of any length; its right one takes two if it is an operator."""
    flaws, ids, calls = [], [], []
    deepest = 0
    stack = [(d, 0)]
    while stack:
        n, depth = stack.pop()
        ids.append(n.node_id)
        if depth > deepest:
            deepest = depth
        t = type(n)
        if t is BinOp:
            left, right = n.left, n.right
            spine = type(left) is BinOp and _PREC[left.op] >= _PREC[n.op]
            stack.append((right, depth + 2 if type(right) in (BinOp, Match) else depth + 1))
            stack.append((left, depth if spine else depth + 1))
            continue
        get = _CHILDREN.get(t)  # children(n), inlined on this hot loop
        if get is None:
            continue
        kids = get(n)
        if t is StaticCall:
            calls.append((n.name, len(kids)))
        elif (t is Body or t is Block) and not kids:
            flaws.append(f"empty expression sequence in {d.name}/{d.arity}")
        elif t is DynCall and type(n.callee) not in (VarRef, Lambda):
            flaws.append(f"dynamic call callee must be a variable or lambda in {d.name}/{d.arity}")
        stack += [(c, depth + 1) for c in reversed(kids)]
    return flaws, deepest, ids, calls


class SyntacticFlaw(ValueError):
    """A module shape the language cannot express (see syntactic_flaws)."""


def check_module(m: ModuleAst):
    """Assert module invariants; raises SyntacticFlaw for the first shape
    flaw, else ValueError on a duplicate definition or node id, or on an
    id not below m.next_node_id."""
    for flaw in syntactic_flaws(m.definitions):
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
