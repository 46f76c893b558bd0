"""Semantic queries over a module snapshot.

Scope introducers are function bodies and lambda bodies only; a
``begin .. end`` block is transparent, so bindings made inside it leak
into the rest of the enclosing scope. Traversals follow evaluation
order: the right-hand side of a match is evaluated before its pattern
binds, sequences thread bindings left to right, lambda bodies keep
their bindings to themselves, parameters shadow, and a pattern variable
that is already bound re-matches it. :func:`resolve` is the one place
these rules live: ``free_vars``, ``closed``, ``non_bind`` and their
standalone forms ``expr_free_vars`` and ``visible_bindings`` all read
its occurrences.

All queries are pure functions over an immutable :class:`Snapshot`;
node references carry the snapshot version and fail with
:class:`StaleRef` when resolved against any other snapshot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .syntax import (
    AtomLit, BinOp, Block, Body, DynCall, FunDef, IntLit, Lambda, Match,
    ModuleAst, Node, PVar, Pattern, Print, StaticCall, TupleExpr, VarRef,
    children, is_expr, node_ids, parse, walk,
)


class StaleRef(Exception):
    """A node reference was resolved against the wrong snapshot."""


class NotApplicableError(Exception):
    """A selector does not apply to the given node."""


@dataclass(frozen=True)
class FunKey:
    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    @classmethod
    def parse(cls, text: str) -> "FunKey":
        name, _, arity = text.partition("/")
        if not name or not arity.isdigit():
            raise ValueError(f"expected name/arity, got {text!r}")
        return cls(name, int(arity))


@dataclass(frozen=True)
class NodeRef:
    """Stable handle on a node within one module snapshot."""

    version: int
    node_id: int


class _Index:
    def __init__(self, module: ModuleAst):
        self.by_id = by_id = {}  # node id -> node
        self.parent = parents = {}  # node id -> parent id or None
        self.def_of = def_of = {}  # node id -> id of its definition
        # an explicit stack: Python's stack does not bound a tree's depth
        for d in module.definitions:
            stack: list[tuple[Node, Optional[int]]] = [(d, None)]
            while stack:
                n, parent = stack.pop()
                nid = n.node_id
                by_id[nid] = n
                parents[nid] = parent
                def_of[nid] = d.node_id
                for c in children(n):
                    stack.append((c, nid))


_version_counter = itertools.count(1)


class Snapshot:
    """An immutable module plus a monotone version number."""

    def __init__(self, module: ModuleAst, version: Optional[int] = None):
        self.module = module
        self.version = next(_version_counter) if version is None else version

    @classmethod
    def from_source(cls, source: str,
                    base: Optional[tuple[str, ModuleAst]] = None) -> "Snapshot":
        """The snapshot of source, parsed against base (see syntax.parse)."""
        return cls(parse(source, base))

    @cached_property
    def _index(self) -> _Index:
        return _Index(self.module)

    def ref(self, node_or_id) -> NodeRef:
        node_id = node_or_id if isinstance(node_or_id, int) else node_or_id.node_id
        if node_id not in self._index.by_id:
            raise StaleRef(f"node {node_id} not in snapshot v{self.version}")
        return NodeRef(self.version, node_id)

    def node(self, ref: NodeRef) -> Node:
        if ref.version != self.version:
            raise StaleRef(f"ref v{ref.version} resolved against snapshot v{self.version}")
        n = self._index.by_id.get(ref.node_id)
        if n is None:
            raise StaleRef(f"node {ref.node_id} not in snapshot v{self.version}")
        return n

    def parent_of(self, node_id: int) -> Optional[Node]:
        pid = self._index.parent.get(node_id)
        return None if pid is None else self._index.by_id[pid]

    def fundef_of(self, node_id: int) -> FunDef:
        return self._index.by_id[self._index.def_of[node_id]]

    def fun_keys(self) -> list[FunKey]:
        return [FunKey(d.name, d.arity) for d in self.module.definitions]

    def find_def(self, key: FunKey) -> Optional[FunDef]:
        for d in self.module.definitions:
            if d.name == key.name and d.arity == key.arity:
                return d
        return None


# ---------------------------------------------------------------------------
# Context-free tree queries (used standalone for rule-level checking)


def pattern_vars(pats) -> list[str]:
    """All variable names in a pattern or pattern sequence, in order."""
    if isinstance(pats, Node):
        pats = (pats,)
    out: list[str] = []
    for p in pats:
        for n in walk(p):
            if isinstance(n, PVar) and n.name not in out:
                out.append(n.name)
    return out


def effect_free(e: Node, call_ok: Callable[[StaticCall], bool]) -> bool:
    """True iff evaluating e can emit no side effect: no print, no dynamic
    call, and only static calls that call_ok accepts; creating a closure has
    no effects, so lambda bodies are not inspected."""
    if isinstance(e, (Print, DynCall)):
        return False
    if isinstance(e, Lambda):
        return True
    if isinstance(e, StaticCall) and not call_ok(e):
        return False
    return all(effect_free(c, call_ok) for c in children(e))


def standalone_pure(e: Node) -> bool:
    """Purity with no module context: any call is treated as effectful."""
    return effect_free(e, lambda call: False)


def occurs_var(name: str, n: Node, excluded: Optional[Node] = None) -> bool:
    """True if name occurs in n as a variable (reference or pattern),
    outside the subtree excluded."""
    stack = [n]
    while stack:
        x = stack.pop()
        if excluded is not None and x.node_id == excluded.node_id:
            continue
        if isinstance(x, (VarRef, PVar)) and x.name == name:
            return True
        stack.extend(children(x))
    return False


def total(e: Node) -> bool:
    """Conservative cannot-raise judgment for a pure, closed expression.

    A transformation that moves an expression to an earlier evaluation
    point must know it cannot raise (an exception truncates the trace of
    everything it jumps ahead of) and cannot match (a match binds or
    re-checks names at its evaluation point). Only shapes whose
    evaluation provably yields a value qualify: literals, lambdas,
    tuples/blocks of such, comparisons, and integer arithmetic over
    expressions statically known to be integers. Callers pair this with
    closed(e), which confines variable references to lambda bodies.
    """
    return _total_kind(e)[0]


def _total_kind(e: Node) -> tuple[bool, Optional[str]]:
    t = type(e)
    if t is IntLit:
        return True, "int"
    if t is AtomLit:
        return True, "atom"
    if t is Lambda:
        return True, "fun"
    if t is VarRef:
        return True, None  # bound (given closedness), kind unknown
    if t is TupleExpr:
        return all(_total_kind(x)[0] for x in e.elements), "tuple"
    if t is Block:
        kind = None
        for x in e.body:
            safe, kind = _total_kind(x)
            if not safe:
                return False, None
        return True, kind
    if t is BinOp:
        lsafe, lkind = _total_kind(e.left)
        rsafe, rkind = _total_kind(e.right)
        if not (lsafe and rsafe):
            return False, None
        if e.op == "==":
            return True, "atom"
        if e.op in ("+", "-", "*"):
            return (lkind == "int" and rkind == "int"), "int"
        if e.op == "<":
            return (lkind == "int" and rkind == "int"), "atom"
        return False, None  # div can raise on zero
    return False, None  # matches, calls, and print may raise or bind


# ---------------------------------------------------------------------------
# Binding classification


@dataclass(frozen=True)
class Occurrence:
    node_id: int
    name: str
    kind: str  # "binding" | "reference" | "unbound"
    binder_id: Optional[int]
    scope_body_id: Optional[int]


@dataclass(frozen=True)
class BindingInfo:
    """Per-occurrence classification for one resolved node."""

    occurrences: tuple[Occurrence, ...]


def resolve(node: Node) -> BindingInfo:
    """Classify every variable occurrence in node, in evaluation order.

    node is a function definition or a standalone expression or body. The
    outermost scope of a standalone node has scope_body_id None; function
    and lambda bodies open their own scopes.
    """
    r = _Resolver()
    r.visit(node)
    return BindingInfo(tuple(r.occs))


class _Resolver:
    """resolve's walk. Methods, not nested functions: a recursive closure
    refers to itself through its cell, a cycle left behind by every call."""

    def __init__(self):
        self.occs: list[Occurrence] = []
        # scope stack: (body id, {name: binder node id})
        self.scopes: list[tuple[Optional[int], dict[str, int]]] = [(None, {})]

    def lookup(self, name: str) -> Optional[tuple[int, Optional[int]]]:
        for body_id, binds in reversed(self.scopes):
            if name in binds:
                return binds[name], body_id
        return None

    def bind(self, n: PVar):
        body_id, binds = self.scopes[-1]
        binds[n.name] = n.node_id
        self.occs.append(Occurrence(n.node_id, n.name, "binding", n.node_id, body_id))

    def bind_match_pattern(self, p: Pattern):
        # a match-pattern variable that is already bound re-matches it
        for n in walk(p):
            if isinstance(n, PVar):
                hit = self.lookup(n.name)
                if hit is None:
                    self.bind(n)
                else:
                    self.occs.append(Occurrence(n.node_id, n.name, "reference", *hit))

    def visit(self, n: Node):
        if isinstance(n, VarRef):
            hit = self.lookup(n.name)
            if hit is None:
                self.occs.append(Occurrence(n.node_id, n.name, "unbound", None, None))
            else:
                self.occs.append(Occurrence(n.node_id, n.name, "reference", *hit))
        elif isinstance(n, Match):
            self.visit(n.rhs)
            self.bind_match_pattern(n.pattern)
        elif isinstance(n, (Lambda, FunDef)):
            # parameters always bind: the callee environment drops their
            # names before matching, so they shadow any outer binding
            self.scopes.append((n.body.node_id, {}))
            for p in n.params:
                for x in walk(p):
                    if isinstance(x, PVar):
                        self.bind(x)
            for x in n.body.exprs:
                self.visit(x)
            self.scopes.pop()
        else:
            for x in children(n):
                self.visit(x)


def binding_info(snap: Snapshot, fundef_ref: NodeRef) -> BindingInfo:
    """The binding classification of the function definition enclosing
    (or at) fundef_ref."""
    d = snap.node(fundef_ref)
    if not isinstance(d, FunDef):
        d = snap.fundef_of(d.node_id)
    return resolve(d)


def _free_names(occs: tuple[Occurrence, ...], inside: set[int]) -> list[str]:
    """Names referenced at the node ids in inside but bound outside them (or
    not at all), in first-occurrence order."""
    out: list[str] = []
    for o in occs:
        bound_outside = o.kind == "unbound" or (
            o.kind == "reference" and o.binder_id not in inside)
        if bound_outside and o.node_id in inside and o.name not in out:
            out.append(o.name)
    return out


def expr_free_vars(e: Node) -> list[str]:
    """Free variables of a standalone expression or body, in first-occurrence
    order."""
    occs = resolve(e).occurrences
    return _free_names(occs, {o.node_id for o in occs})


def visible_bindings(e: Node) -> list[str]:
    """Names bound by a standalone e that remain visible after it in the
    same scope."""
    return [o.name for o in resolve(e).occurrences
            if o.kind == "binding" and o.scope_body_id is None]


# ---------------------------------------------------------------------------
# Spec queries


def _expr_node(snap: Snapshot, e: NodeRef) -> Node:
    n = snap.node(e)
    if not (is_expr(n) or isinstance(n, Body)):
        raise NotApplicableError(f"not an expression: {type(n).__name__}")
    return n


def _occurrences_around(snap: Snapshot, e: NodeRef) -> tuple[BindingInfo, set[int]]:
    """The binding classification of e's function, and the node ids in e."""
    n = _expr_node(snap, e)
    info = binding_info(snap, snap.ref(snap.fundef_of(n.node_id)))
    return info, node_ids(n)


def free_vars(snap: Snapshot, e: NodeRef) -> list[str]:
    """Variables referenced in e but not bound within it, in first-occurrence
    order. Uses the whole-function binding classification so that a pattern
    occurrence re-matching an outer binding counts as a reference."""
    info, inside = _occurrences_around(snap, e)
    return _free_names(info.occurrences, inside)


def closed(snap: Snapshot, e: NodeRef) -> bool:
    return not free_vars(snap, e)


def non_bind(snap: Snapshot, e: NodeRef) -> bool:
    """True iff no variable bound inside e is referenced outside e."""
    info, inside = _occurrences_around(snap, e)
    used_outside = {o.binder_id for o in info.occurrences
                    if o.kind == "reference" and o.node_id not in inside}
    return used_outside.isdisjoint(inside)


def fun_purity(module: ModuleAst) -> dict[FunKey, bool]:
    """Least fixpoint over the static call graph; lambda bodies inside a
    function body do not count (closure creation is effect free)."""
    keys = {FunKey(d.name, d.arity): d for d in module.definitions}
    pure_map = {k: True for k in keys}

    def call_ok(call: StaticCall) -> bool:
        return pure_map.get(FunKey(call.name, len(call.args)), False)

    changed = True
    while changed:
        changed = False
        for k, d in keys.items():
            if pure_map[k] and not effect_free(d.body, call_ok):
                pure_map[k] = False
                changed = True
    return pure_map


def pure(snap: Snapshot, e: NodeRef) -> bool:
    """True iff evaluating e can emit no side effect: no print, no dynamic
    call, and no static call reaching either (lambda bodies excluded)."""
    n = _expr_node(snap, e)
    purity = fun_purity(snap.module)
    return effect_free(n, lambda call: purity.get(FunKey(call.name, len(call.args)), False))


def fresh(snap: Snapshot, name: str, ctx: NodeRef) -> bool:
    """True iff name occurs nowhere in the function definition enclosing ctx."""
    n = snap.node(ctx)
    d = n if isinstance(n, FunDef) else snap.fundef_of(n.node_id)
    return not occurs_var(name, d)


def scope(snap: Snapshot, e: NodeRef) -> NodeRef:
    """The body sequence of the nearest enclosing scope introducer."""
    top = top_expression(snap, e)
    return snap.ref(snap.parent_of(top.node_id).node_id)


def top_expression(snap: Snapshot, e: NodeRef) -> NodeRef:
    """The ancestor-or-self expression that is a direct element of scope(e)."""
    n = _expr_node(snap, e)
    cur = n.node_id
    while True:
        p = snap.parent_of(cur)
        if p is None:
            raise NotApplicableError("node has no enclosing scope")
        if isinstance(p, Body):
            return snap.ref(cur)
        cur = p.node_id


def function(snap: Snapshot, e: NodeRef) -> NodeRef:
    n = snap.node(e)
    if isinstance(n, FunDef):
        return e
    return snap.ref(snap.fundef_of(n.node_id).node_id)


def _fundef(snap: Snapshot, f: NodeRef) -> FunDef:
    d = snap.node(f)
    if not isinstance(d, FunDef):
        raise NotApplicableError("not a function definition")
    return d


def name(snap: Snapshot, f: NodeRef) -> str:
    return _fundef(snap, f).name


def function_params(snap: Snapshot, f: NodeRef) -> tuple[Pattern, ...]:
    return _fundef(snap, f).params


def body(snap: Snapshot, f: NodeRef) -> NodeRef:
    return snap.ref(_fundef(snap, f).body.node_id)


def references(snap: Snapshot, key: FunKey) -> list[NodeRef]:
    """All static calls matching key, in source order, recursion included."""
    out: list[NodeRef] = []
    for d in snap.module.definitions:
        for n in walk(d):
            if is_call_to(n, key):
                out.append(snap.ref(n.node_id))
    return out


def is_call_to(n: Node, key: FunKey) -> bool:
    """True iff n is a static call of the function key names."""
    return isinstance(n, StaticCall) and n.name == key.name and len(n.args) == key.arity


def function_part(snap: Snapshot, e: NodeRef) -> NodeRef:
    """The callee lambda of a direct lambda application."""
    n = snap.node(e)
    if isinstance(n, DynCall) and isinstance(n.callee, Lambda):
        return snap.ref(n.callee.node_id)
    raise NotApplicableError("not a direct lambda application")
