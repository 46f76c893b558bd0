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
its occurrences. One walk, ``_summary``, finds the facts ``pure``,
``standalone_pure``, ``total`` and ``fun_purity`` read.

All queries are pure functions over an immutable :class:`Snapshot`;
node references carry the snapshot version and fail with
:class:`StaleRef` when resolved against any other snapshot. A derived
snapshot's index walks each definition it adds once, to check and
index it. No walk in this module recurses: each keeps its nodes on an
explicit stack, so a definition of any depth is analysed.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import cached_property
from operator import is_not
from typing import Iterable, KeysView, Optional

from .syntax import (
    AtomLit, BinOp, Block, Body, DynCall, FunDef, IntLit, Lambda, Match, ModuleAst, Node,
    MAX_NESTING, PATTERN_TYPES, PVar, Pattern, Print, Record, StaticCall, SyntacticFlaw, TupleExpr,
    VarRef, NODE_ID, _shape, check_module, children, is_expr, node_ids, parse, record,
    shape_flaws, walk,
)


class StaleRef(Exception):
    """A node reference was resolved against the wrong snapshot."""


class NotApplicableError(Exception):
    """A selector does not apply to the given node."""


@record
class FunKey(Record):
    """A function's name and arity, printed ``name/arity``."""

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


@record
class NodeRef(Record):
    """Stable handle on a node within one module snapshot."""

    version: int
    node_id: int


Key = tuple[str, int]  # a function's (name, arity), as the index keys it


class _Index:
    """Lookup tables over a module's definitions: each node's definition
    id; each definition by id, and its id by key; the ids of the
    definitions holding a static call to each key; and, made on first
    use, each definition's node tables (see tables) and effect summary
    (see fun_purity).

    An index is derived from parent, an index of an earlier module, by
    dropping the nodes of the definitions removed and then adding those
    of the definitions added; the rest is parent's, copied, not walked.
    Built from nothing (parent None), it is the index of the definitions
    added. Each added definition d is walked once, by syntax._shape: its
    ids are checked (a ValueError names d) and indexed, and its calls
    indexed. flagged lists (d, flaws, nesting bound) for each d whose walk
    found a flaw or a bound past MAX_NESTING; Snapshot.derive raises them.
    """

    def __init__(self, parent: Optional[_Index], removed: Iterable[FunDef],
                 added: Iterable[FunDef], next_node_id: int):
        if parent is None:
            def_of, defs, by_key, callers, local, effects = {}, {}, {}, {}, {}, {}
        else:
            def_of, defs, by_key = parent.def_of.copy(), parent.defs.copy(), parent.by_key.copy()
            callers, local, effects = (parent.callers.copy(), parent.local.copy(),
                                       parent.effects.copy())
        self.def_of, self.defs, self.by_key = def_of, defs, by_key
        self.callers, self.local, self.effects = callers, local, effects
        gone: defaultdict[Key, set[int]] = defaultdict(set)  # callers lost, by key
        new: defaultdict[Key, set[int]] = defaultdict(set)  # and gained
        for d in removed:
            for n in walk(d):
                del def_of[n.node_id]
                if type(n) is StaticCall:
                    gone[n.name, len(n.args)].add(d.node_id)
            del defs[d.node_id], by_key[d.name, d.arity]
            local.pop(d.node_id, None)
            effects.pop(d.node_id, None)
        self.flagged = []
        for d in added:
            if (d.name, d.arity) in by_key:
                raise ValueError(f"duplicate definition {d.name}/{d.arity}")
            by_key[d.name, d.arity] = did = d.node_id
            defs[did] = d
            flaws, bound, ids, calls = _shape(d)
            if flaws or bound > MAX_NESTING:
                self.flagged.append((d, flaws, bound))
            size = len(def_of)
            for i in ids:  # faster than a dict.update for a definition's dozen ids
                def_of[i] = did
            if len(def_of) != size + len(ids) or max(ids) >= next_node_id:
                raise ValueError(f"node id held twice or too high in {d.name}/{d.arity}")
            for key in calls:
                new[key].add(did)
        for key in gone.keys() | new.keys():
            callers[key] = (callers.get(key, frozenset()) - gone[key]) | new[key]
            if not callers[key]:
                del callers[key]

    def tables(self, def_id: int) -> tuple[dict[int, Node], dict[int, Optional[int]]]:
        """The nodes of one definition by id, and each one's parent's id."""
        t = self.local.get(def_id)
        if t is None:
            by_id, parents = {}, {}
            # an explicit stack: Python's stack does not bound a tree's depth
            stack: list[tuple[Node, Optional[int]]] = [(self.defs[def_id], None)]
            while stack:
                n, parent_id = stack.pop()
                by_id[n.node_id] = n
                parents[n.node_id] = parent_id
                for c in children(n):
                    stack.append((c, n.node_id))
            t = self.local[def_id] = by_id, parents
        return t


def _changed(old: tuple[FunDef, ...], new: tuple[FunDef, ...]
             ) -> tuple[list[FunDef], list[FunDef]]:
    """The definitions of old not at their place in new, and those of new
    not at their place in old, each in module order."""
    differs = list(map(is_not, old, new))  # at C speed, as below
    removed = list(itertools.compress(old, differs)) + list(old[len(new):])
    added = list(itertools.compress(new, differs)) + list(new[len(old):])
    return removed, added


_version_counter = itertools.count(1)


class Snapshot:
    """An immutable module plus a monotone version number.

    A refactoring step's snapshot is derived from its input's (derive):
    only the definitions the step replaced or added are checked and
    indexed, the rest is carried over from the input's index. A snapshot
    made from source (from_source) is well formed by construction; one
    made from a hand-built module is checked whole, once, before the
    first snapshot is derived from it.
    """

    def __init__(self, module: ModuleAst):
        self.module = module
        self.version = next(_version_counter)

    @classmethod
    def from_source(cls, source: str,
                    base: Optional[tuple[str, ModuleAst]] = None) -> "Snapshot":
        """The snapshot of source, parsed against base (see syntax.parse)."""
        snap = cls(parse(source, base))
        snap.well_formed = True  # a parse passes check_module
        return snap

    @cached_property
    def _index(self) -> _Index:
        return _Index(None, (), self.module.definitions, self.module.next_node_id)

    @cached_property
    def well_formed(self) -> bool:
        """True iff the module passes syntax.check_module."""
        try:
            check_module(self.module)
        except ValueError:
            return False
        return True

    def derive(self, module: ModuleAst) -> "Snapshot":
        """The snapshot of module, an edit of this snapshot's module. Only
        the definitions of module that are not, the very object, at their
        place in this one are walked, once, by the index that checks and adds
        them; the rest of the index is carried over. Raises what
        syntax.check_module(module) raises: the flaws the index flags here,
        any other refusal through check_module, which names it. If this
        module is not well formed, every definition counts as added."""
        if self.well_formed:
            base = self._index
            removed, added = _changed(self.module.definitions, module.definitions)
        else:
            base, removed, added = None, (), module.definitions
        try:
            index = _Index(base, removed, added, module.next_node_id)
        except ValueError:
            check_module(module)  # which raises any flaw first, and names the id
            raise
        for d, found, bound in index.flagged:
            for flaw in shape_flaws(d, found, bound):
                raise SyntacticFlaw(flaw)
        snap = Snapshot(module)
        snap._index = index
        snap.well_formed = True
        return snap

    @property
    def node_ids(self) -> KeysView[int]:
        """The ids of the module's nodes."""
        return self._index.def_of.keys()

    def ref(self, node_or_id) -> NodeRef:
        node_id = node_or_id if isinstance(node_or_id, int) else node_or_id.node_id
        if node_id not in self._index.def_of:
            raise StaleRef(f"node {node_id} not in snapshot v{self.version}")
        return NodeRef(self.version, node_id)

    def node(self, ref: NodeRef) -> Node:
        if ref.version != self.version:
            raise StaleRef(f"ref v{ref.version} resolved against snapshot v{self.version}")
        did = self._index.def_of.get(ref.node_id)
        if did is None:
            raise StaleRef(f"node {ref.node_id} not in snapshot v{self.version}")
        return self._index.tables(did)[0][ref.node_id]

    def parent_of(self, node_id: int) -> Optional[Node]:
        did = self._index.def_of.get(node_id)
        if did is None:
            return None
        by_id, parents = self._index.tables(did)
        pid = parents[node_id]
        return None if pid is None else by_id[pid]

    def fundef_of(self, node_id: int) -> FunDef:
        return self._index.defs[self._index.def_of[node_id]]

    def fun_keys(self) -> list[FunKey]:
        return [FunKey(d.name, d.arity) for d in self.module.definitions]

    def find_def(self, key: FunKey) -> Optional[FunDef]:
        did = self._index.by_key.get((key.name, key.arity))
        return None if did is None else self._index.defs[did]

    def callers(self, key: FunKey) -> list[FunDef]:
        """The definitions holding a static call to key, in module order."""
        ids = self._index.callers.get((key.name, key.arity), ())
        if not ids:
            return []
        defs = self.module.definitions
        return list(itertools.compress(defs, map(ids.__contains__, map(NODE_ID, defs))))


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


def _summary(e: Node) -> tuple[bool, frozenset[Key], bool]:
    """What evaluating e itself may do, from one walk: whether it may
    emit a side effect, a print or a dynamic call; if not, the keys of
    the static calls it makes; and whether it provably yields a value
    (see total). Creating a closure has no effect and cannot raise, so
    lambda bodies are not inspected."""
    keys = set()
    is_total = True
    stack = [e]
    while stack:
        n = stack.pop()
        t = type(n)
        if t is Lambda:
            continue
        if t is Print or t is DynCall:
            return True, frozenset(), False
        if t is StaticCall:
            keys.add((n.name, len(n.args)))
            is_total = False
        elif t is BinOp:
            if n.op == "div" or n.op != "==" and not (
                    _int_valued(n.left) and _int_valued(n.right)):
                is_total = False  # div by zero; +, -, * or < on a non-integer
        elif t not in (IntLit, AtomLit, VarRef, TupleExpr, Block):
            is_total = False  # a match may bind or fail, a call raise
        stack += children(n)
    return False, frozenset(keys), is_total


def _int_valued(e: Node) -> bool:
    """True iff e's value, if it has one, is statically an integer."""
    while type(e) is Block and e.body:
        e = e.body[-1]
    return type(e) is IntLit or type(e) is BinOp and e.op in ("+", "-", "*")


def standalone_pure(e: Node) -> bool:
    """Purity with no module context: any call is treated as effectful."""
    effectful, calls, _ = _summary(e)
    return not (effectful or calls)


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
    return _summary(e)[2]


# ---------------------------------------------------------------------------
# Binding classification


@record
class Occurrence(Record):
    """One variable occurrence: the node, its name, its kind, and for a
    reference the binding it resolves to and the body of that scope."""

    node_id: int
    name: str
    kind: str  # "binding" | "reference" | "unbound"
    binder_id: Optional[int]
    scope_body_id: Optional[int]


@record
class BindingInfo(Record):
    """Per-occurrence classification for one resolved node."""

    occurrences: tuple[Occurrence, ...]


_CLOSE = object()  # on resolve's stack: the innermost scope ends here


def resolve(node: Node) -> BindingInfo:
    """Classify every variable occurrence in node, in evaluation order.

    node is a function definition or a standalone expression or body. The
    outermost scope of a standalone node has scope_body_id None; function
    and lambda bodies open their own scopes. A bare pattern has no
    occurrences.
    """
    occs: list[Occurrence] = []
    # open scopes, innermost last: (body id, {name: binder node id})
    scopes: list[tuple[Optional[int], dict[str, int]]] = [(None, {})]
    # what is left to visit, the next on top: a match's pattern lies
    # beneath its right-hand side and binds once that is resolved
    stack: list = [] if type(node) in PATTERN_TYPES else [node]
    while stack:
        n = stack.pop()
        t = type(n)
        if t is VarRef:
            hit = _lookup(scopes, n.name)
            occs.append(Occurrence(n.node_id, n.name, "unbound", None, None) if hit is None
                        else Occurrence(n.node_id, n.name, "reference", *hit))
        elif t is Match:
            stack += n.pattern, n.rhs
        elif t is Lambda or t is FunDef:
            # parameters always bind: the callee environment drops their
            # names before matching, so they shadow any outer binding
            body_id, binds = n.body.node_id, {}
            scopes.append((body_id, binds))
            for p in n.params:
                for x in walk(p):
                    if type(x) is PVar:
                        binds[x.name] = x.node_id
                        occs.append(Occurrence(x.node_id, x.name, "binding", x.node_id, body_id))
            stack.append(_CLOSE)
            stack += reversed(n.body.exprs)
        elif n is _CLOSE:
            scopes.pop()
        elif t in PATTERN_TYPES:
            # a match-pattern variable that is already bound re-matches it
            for x in walk(n):
                if type(x) is PVar:
                    hit = _lookup(scopes, x.name)
                    if hit is None:
                        scopes[-1][1][x.name] = x.node_id
                        occs.append(Occurrence(x.node_id, x.name, "binding", x.node_id,
                                               scopes[-1][0]))
                    else:
                        occs.append(Occurrence(x.node_id, x.name, "reference", *hit))
        else:
            stack += reversed(children(n))
    return BindingInfo(tuple(occs))


def _lookup(scopes: list, name: str) -> Optional[tuple[int, Optional[int]]]:
    """name's binder in the innermost scope binding it, and its body id."""
    for body_id, binds in reversed(scopes):
        if name in binds:
            return binds[name], body_id
    return None


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


def fun_purity(snap: Snapshot, keys: Iterable[Key]) -> bool:
    """True iff every function keys name is pure: the least fixpoint over
    the static call graph (lambda bodies inside a function body do not
    count; closure creation is effect free), followed only from keys.
    Each definition's effect summary is kept on the index, and carried
    over to the indexes derived from it."""
    index = snap._index
    seen = set(keys)
    todo = list(seen)
    while todo:
        did = index.by_key.get(todo.pop())
        if did is None:
            return False  # a call to an undefined function raises
        summary = index.effects.get(did)
        if summary is None:
            summary = index.effects[did] = _summary(index.defs[did].body)
        effectful, calls, _ = summary
        if effectful:
            return False
        todo += calls - seen
        seen |= calls
    return True


def pure(snap: Snapshot, e: NodeRef) -> bool:
    """True iff evaluating e can emit no side effect: no print, no dynamic
    call, and no static call reaching either (lambda bodies excluded)."""
    effectful, calls, _ = _summary(_expr_node(snap, e))
    return not effectful and fun_purity(snap, calls)


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
    for d in snap.callers(key):
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
