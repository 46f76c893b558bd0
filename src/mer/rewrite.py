"""Concrete-syntax templates with metavariables, matching, and rewriting.

Templates are object-language fragments containing ``@E`` scalar
metavariables (one expression, pattern, or name) and ``@Xs...`` list
metavariables (a possibly-empty fragment sequence). A sequence position
may hold at most one list metavariable, which makes matching
deterministic; a metavariable repeated within one pattern must bind
structurally equal fragments.

A template is a node, or a tuple of nodes for an argument list. Each
template node takes the sort of the slot it is placed in: a pattern in
an expression slot becomes the expression of the same shape, and the
other way round. Three forms are matched against more than their own
kind of node: an argument list ``(A...)`` against a call's arguments, a
clause ``(P...) -> B...`` (a Lambda) against a definition's parameters
and body, and a signature ``name(P...)`` (a StaticCall whose arguments
are patterns) against a definition's head as well as against calls.

Rule text format::

    <lhs>
    -----
    <rhs>
    WHEN <conjunct> AND <conjunct> ...

where each conjunct is an object-language expression parsed in meta
mode, like the templates: a predicate call (pure, closed, total,
non_bind, fresh, is_subset), or a match binding a metavariable such as
``@Vars... = free_vars(@E)``; call arguments are calls, metavariables and
names. Conditions are evaluated through the analysis module when a
snapshot is given, and in a pessimistic standalone mode (used by the
rule-level equivalence checker) otherwise.
"""

from __future__ import annotations

import re
from contextlib import suppress
from functools import wraps
from itertools import chain
from typing import Callable, Container, Optional, Sequence, Union

from . import analysis
from .analysis import NodeRef, Snapshot, StaleRef
from .syntax import (
    FIELDS, MIRROR, SLOTS, AtomLit, Body, Expr, FunDef, IdGen, Lambda, Match,
    MetaSeq, MetaVar, ModuleAst, Node, ParseError, PVar, Record, StaticCall,
    SyntacticFlaw, VarRef, clone_fresh, edit_definitions, expr_to_pattern, is_expr,
    is_pattern, node_ids, parse_clause_text, parse_expr_text,
    parse_exprseq_text, parse_fundef_text, parse_patterns_text, pattern_to_expr,
    pretty_expr, pretty_fragment, rebuild, record, remake, struct_eq, walk,
)


class TemplateError(Exception):
    pass


class UnboundMetavariable(Exception):
    pass


Fragment = Union[Node, str, tuple]
Binding = dict  # metavariable name -> Fragment or tuple of Fragments


# ---------------------------------------------------------------------------
# Step outcomes (the transaction currency of every engine)


@record
class Applied(Record):
    """A step applied: the new snapshot, and a reference to the node it
    produced."""

    snapshot: Snapshot
    result: NodeRef


@record
class NotApplicable(Record):
    """A step did not apply, for reason; in a composite, the step's
    index and name."""

    reason: str
    step: Optional[int] = None
    step_name: Optional[str] = None


@record
class PreconditionViolated(Record):
    """A WHEN predicate failed at location; in a composite, the
    step's index and name."""

    predicate: str
    location: str
    step: Optional[int] = None
    step_name: Optional[str] = None


StepOutcome = Union[Applied, NotApplicable, PreconditionViolated]


def is_applied(o: StepOutcome) -> bool:
    return isinstance(o, Applied)


# ---------------------------------------------------------------------------
# Templates


# a node, or an argument list; a node's sort is its slot's
Template = Union[Node, tuple]


def _roots(t: Template) -> tuple:
    return t if type(t) is tuple else (t,)


def validate_template(t: Template):
    """Reject a sequence holding more than one list metavariable."""
    seqs = [_roots(t)]
    for x in chain.from_iterable(map(walk, _roots(t))):
        seqs += [getattr(x, f) for f, seq, _ in SLOTS.get(type(x), ()) if seq]
    if any(sum(type(y) is MetaSeq for y in seq) > 1 for seq in seqs):
        raise TemplateError("more than one list metavariable in a sequence")


def template_metavars(t: Template) -> set[str]:
    out: set[str] = set()
    for x in chain.from_iterable(map(walk, _roots(t))):
        if type(x) is MetaVar or type(x) is MetaSeq:
            out.add(x.name)
        elif type(x) is StaticCall and x.name.startswith("@"):
            out.add(x.name[1:])
    return out


def parse_template_expr(text: str) -> Expr:
    t = parse_expr_text(text, meta=True)
    validate_template(t)
    return t


def parse_template_def(text: str) -> FunDef:
    """A function definition template; its name may be a metavariable."""
    t = parse_fundef_text(text, meta=True)
    validate_template(t)
    return t


def parse_template_head(text: str) -> Lambda:
    """A clause ``(P...) -> B...``, matched against a definition's
    parameters and body."""
    t = parse_clause_text(text, meta=True)
    validate_template(t)
    return t


def parse_template_args(text: str) -> tuple:
    """An argument list ``(A...)``, matched against a call's arguments."""
    m = re.match(r"^\s*\((.*)\)\s*$", text, re.S)
    if not m:
        raise TemplateError(f"argument template must be parenthesized: {text!r}")
    t = parse_exprseq_text(m.group(1), meta=True) if m.group(1).strip() else ()
    validate_template(t)
    return t


def parse_template_signature(text: str) -> StaticCall:
    """A signature ``name(P...)``, its arguments parsed as patterns,
    matched against a definition's head and against calls."""
    m = re.match(r"^\s*(@?\w+)\s*\((.*)\)\s*$", text, re.S)
    if not m:
        raise TemplateError(f"signature template must look like name(..): {text!r}")
    gen = IdGen()
    t = StaticCall(m.group(1), parse_patterns_text(m.group(2), meta=True, gen=gen), gen.fresh())
    validate_template(t)
    return t


# ---------------------------------------------------------------------------
# Matching


def _bind(binding: Binding, name: str, value: Fragment) -> bool:
    if name in binding:
        return struct_eq(binding[name], value)
    binding[name] = value
    return True


def _match_name(pat: str, name: str, binding: Binding) -> bool:
    """A function name against a literal name or an '@X' name metavariable."""
    if pat.startswith("@"):
        return _bind(binding, pat[1:], name)
    return pat == name


def match_fragment(pat: Node, subj: Node, binding: Binding) -> bool:
    if isinstance(pat, MetaVar):
        return _bind(binding, pat.name, subj)
    tp = type(pat)
    # a template matches its mirror across the expression/pattern split
    if type(subj) is not tp and type(subj) is not MIRROR.get(tp):
        return False
    if tp is StaticCall:
        return (_match_name(pat.name, subj.name, binding)
                and match_seq(pat.args, subj.args, binding))
    slots = SLOTS.get(tp, ())
    # non-child fields must agree (a leaf's name or value, a BinOp's operator)
    child_fields = {f for f, _, _ in slots}
    if any(getattr(pat, f) != getattr(subj, f)
           for f in FIELDS[tp] if f not in child_fields):
        return False
    for name, is_seq, _ in slots:
        pv, sv = getattr(pat, name), getattr(subj, name)
        if not (match_seq(pv, sv, binding) if is_seq else match_fragment(pv, sv, binding)):
            return False
    return True


def match_seq(pats: Sequence[Node], subjs: Sequence[Node], binding: Binding) -> bool:
    seq_positions = [i for i, p in enumerate(pats) if isinstance(p, MetaSeq)]
    if not seq_positions:
        if len(pats) != len(subjs):
            return False
        return all(match_fragment(p, s, binding) for p, s in zip(pats, subjs))
    if len(seq_positions) > 1:
        raise TemplateError("more than one list metavariable in a sequence")
    i = seq_positions[0]
    before, after = pats[:i], pats[i + 1:]
    if len(subjs) < len(before) + len(after):
        return False
    mid = tuple(subjs[len(before):len(subjs) - len(after)])
    for p, s in zip(before, subjs[:len(before)]):
        if not match_fragment(p, s, binding):
            return False
    for p, s in zip(after, subjs[len(subjs) - len(after):]):
        if not match_fragment(p, s, binding):
            return False
    return _bind(binding, pats[i].name, mid)


def match_template(t: Template, subject, binding: Optional[Binding] = None) -> Optional[Binding]:
    """Match a template against a node: an argument list against a call's
    arguments, a clause (a Lambda) against a definition's parameters and
    body, a signature (a StaticCall) against a definition's name and
    parameters too. Returns the extended binding, or None on mismatch."""
    b: Binding = dict(binding or {})
    if type(t) is tuple:
        ok = type(subject) is StaticCall and match_seq(t, subject.args, b)
    elif type(subject) is FunDef and type(t) is Lambda:
        ok = match_seq(t.params, subject.params, b) and match_fragment(t.body, subject.body, b)
    elif type(subject) is FunDef and type(t) is StaticCall:
        ok = _match_name(t.name, subject.name, b) and match_seq(t.args, subject.params, b)
    else:
        ok = isinstance(subject, Node) and match_fragment(t, subject, b)
    return b if ok else None


# ---------------------------------------------------------------------------
# Substitution


class SubstCtx:
    """Allocates fresh ids and keeps moved-fragment ids unique.

    A fragment moved from the source tree keeps its node ids the first
    time it is inserted; later insertions (a repeated metavariable) are
    re-idded clones. An id is in use if the module edited holds it and
    the edit does not free it (held, freed), or if this context has taken
    or made it since.
    """

    def __init__(self, gen: IdGen, held: Container[int], freed: Container[int] = ()):
        self.gen = gen
        self.held = held
        self.freed = freed
        self.taken: set[int] = set()

    @classmethod
    def for_snapshot(cls, snap: Snapshot, freed: Sequence[Node] = ()) -> "SubstCtx":
        ids: set[int] = set()
        for f in freed:
            ids |= node_ids(f)
        return cls(IdGen(snap.module.next_node_id), snap.node_ids, ids)

    def _used(self, node_id: int) -> bool:
        return node_id in self.taken or (node_id in self.held and node_id not in self.freed)

    def take(self, frag: Node) -> Node:
        ids = node_ids(frag)
        if any(map(self._used, ids)):
            fresh = clone_fresh(frag, self.gen)
            self.taken |= node_ids(fresh)
            return fresh
        self.taken |= ids
        return frag

    def fresh(self) -> int:
        n = self.gen.fresh()
        self.taken.add(n)
        return n


def _as_sort(frag: Fragment, ctx: SubstCtx, slot: str) -> Node:
    """A bound fragment as a node of the slot's sort: a name becomes a
    variable, and a fragment of the other sort is mirrored."""
    to_pattern = slot == "pattern"
    if isinstance(frag, str):
        return (PVar if to_pattern else VarRef)(frag, node_id=ctx.fresh())
    if isinstance(frag, Node) and (is_expr(frag) or is_pattern(frag)):
        if is_pattern(frag) == to_pattern:
            return ctx.take(frag)
        with suppress(ValueError):  # raised when no pattern mirrors an expression
            return expr_to_pattern(frag, ctx.gen) if to_pattern else pattern_to_expr(frag, ctx.gen)
    # the type, not the repr: a tree may be too deep to print
    sort = "a pattern" if to_pattern else "an expression"
    raise UnboundMetavariable(f"cannot use a {type(frag).__name__} as {sort}")


def _lookup(binding: Binding, name: str) -> Fragment:
    if name not in binding:
        raise UnboundMetavariable(name)
    return binding[name]


def _lookup_seq(binding: Binding, name: str) -> tuple:
    frag = _lookup(binding, name)
    if not isinstance(frag, tuple):
        raise UnboundMetavariable(f"{name} is not a sequence")
    return frag


def subst_seq(pats: Sequence[Node], binding: Binding, ctx: SubstCtx, slot: str) -> tuple:
    out = []
    for p in pats:
        if isinstance(p, MetaSeq):
            out.extend(_as_sort(f, ctx, slot) for f in _lookup_seq(binding, p.name))
        else:
            out.append(subst_fragment(p, binding, ctx, slot))
    return tuple(out)


def _subst_name(name: str, binding: Binding) -> str:
    if not name.startswith("@"):
        return name
    frag = _lookup(binding, name[1:])
    if not isinstance(frag, str):
        raise UnboundMetavariable(f"{name[1:]} is not a name")
    return frag


def subst_fragment(pat: Node, binding: Binding, ctx: SubstCtx, slot: str) -> Node:
    t = type(pat)
    if t is MetaVar:
        return _as_sort(_lookup(binding, pat.name), ctx, slot)
    if t in MIRROR and is_pattern(pat) != (slot == "pattern"):
        t = MIRROR[t]  # a template node takes the sort of its slot
    slots = SLOTS.get(t, ())
    if not slots and t not in MIRROR:
        raise TypeError(f"cannot substitute into {t.__name__}")
    if t is Body and len(pat.exprs) == 1 and type(pat.exprs[0]) is MetaVar:
        frag = binding.get(pat.exprs[0].name)
        if type(frag) is Body:  # a body bound whole, as a Body target binds @E
            return ctx.take(frag)
    changes = {}
    if t is StaticCall or t is FunDef:
        changes["name"] = _subst_name(pat.name, binding)
    for f, seq, sort in slots:
        sub = subst_seq if seq else subst_fragment
        changes[f] = sub(getattr(pat, f), binding, ctx, sort)
    return remake(t, pat, changes, ctx.fresh())


def substitute(t: Template, binding: Binding, ctx: SubstCtx):
    """Instantiate a template: an argument list as a tuple of expressions,
    a node as an expression."""
    if type(t) is tuple:
        return subst_seq(t, binding, ctx, "expr")
    return subst_fragment(t, binding, ctx, "expr")


def finish_step(snap: Snapshot, module: ModuleAst, result_id: int) -> StepOutcome:
    """Applied with the snapshot of module, an edit of snap's module,
    derived from snap (see Snapshot.derive: only the definitions the step
    replaced or added are checked and indexed); NotApplicable when the
    edit left a shape the language cannot express."""
    try:
        out = snap.derive(module)
    except SyntacticFlaw as flaw:
        return NotApplicable(str(flaw))
    return Applied(out, out.ref(result_id))


# ---------------------------------------------------------------------------
# Conditions


# condition function -> the number of arguments it takes
_ARITY = {"free_vars": 1, "vars": 1, "non_bind": 1, "pure": 1, "closed": 1,
          "total": 1, "fresh": 1, "is_subset": 2}


def _parse_conjunct(text: str) -> Expr:
    """A term, or ``@X = term`` binding a metavariable; a term is a
    metavariable, a name (variable or atom), or a condition function
    applied to terms."""
    try:
        e = parse_expr_text(text, meta=True)
    except ParseError as err:
        raise TemplateError(f"cannot parse condition {text.strip()!r}: {err}") from None
    binds = type(e) is Match and type(e.pattern) in (MetaVar, MetaSeq)
    for n in walk(e.rhs if binds else e):
        if type(n) is StaticCall:
            if _ARITY.get(n.name) != len(n.args):
                raise TemplateError(f"unknown condition function {n.name}/{len(n.args)}")
        elif type(n) not in (MetaVar, MetaSeq, VarRef, AtomLit):
            raise TemplateError(f"cannot parse condition term {pretty_expr(n)!r}")
    return e


@record
class Condition(Record):
    """A WHEN clause: conjuncts joined by AND (see _parse_conjunct)."""

    conjuncts: tuple[Expr, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "Condition":
        text = text.strip()
        return cls(tuple(map(_parse_conjunct, re.split(r"\bAND\b", text))) if text else ())

    def fresh_names(self, binding: Binding) -> set[str]:
        """Names constrained to be fresh, resolved against a binding."""
        out: set[str] = set()
        for c in self.conjuncts:
            if type(c) is StaticCall and c.name == "fresh":
                a = c.args[0]
                if type(a) is VarRef or type(a) is AtomLit:
                    out.add(a.name)
                elif type(a) is MetaVar or type(a) is MetaSeq:
                    v = binding.get(a.name)
                    if isinstance(v, str):
                        out.add(v)
                    elif isinstance(v, PVar):
                        out.add(v.name)
        return out

    def metavars(self) -> set[str]:
        return set().union(*map(template_metavars, self.conjuncts))

    def produced(self) -> set[str]:
        return {c.pattern.name for c in self.conjuncts if type(c) is Match}


class ConditionFailure(Exception):
    def __init__(self, predicate: str, location: str):
        super().__init__(f"{predicate} failed at {location}")
        self.predicate = predicate
        self.location = location


def _as_names(v) -> list[str]:
    if isinstance(v, str):
        return [v]
    if isinstance(v, PVar):
        return [v.name]
    if isinstance(v, VarRef):
        return [v.name]
    if isinstance(v, tuple):
        out = []
        for x in v:
            out.extend(_as_names(x))
        return out
    if isinstance(v, Node):
        return analysis.pattern_vars(v)
    raise TemplateError(f"expected names, got {v!r}")


def _locate(snap: Optional[Snapshot], target: Optional[NodeRef], frag) -> str:
    """Where a predicate failed: ``<name>/<arity>: <fragment text>``,
    naming target's function, or the text alone when target is not in
    snap. A fragment is a name, a tuple of names, or a node."""
    if isinstance(frag, str):
        text = frag
    elif isinstance(frag, tuple):
        text = ", ".join(frag)
    else:
        text = pretty_fragment(frag)
    if len(text) > 40:
        text = text[:37] + "..."
    if snap is None or target is None:
        return text
    try:
        d = snap.fundef_of(snap.node(target).node_id)
    except (KeyError, StaleRef):
        return text
    return f"{d.name}/{d.arity}: {text}"


def eval_condition(cond: Condition, binding: Binding, snap: Optional[Snapshot] = None,
                   target: Optional[NodeRef] = None) -> Binding:
    """Evaluate conjuncts left to right, extending the binding; raises
    ConditionFailure naming the first failing predicate.

    With a snapshot, predicates run through the analysis module on the
    matched in-tree fragments, and a failure is located in target's
    function. Standalone (snap None), they run pessimistically on bare
    fragments: any call counts as impure, non_bind requires no visible
    bindings at all, and fresh(N) requires N to occur in no bound fragment.
    """
    b = dict(binding)
    for c in cond.conjuncts:
        if type(c) is Match:
            name, v = c.pattern.name, _value(c.rhs, b, snap, target)
            if name not in b:
                b[name] = v
            elif not struct_eq(b[name], v):
                raise ConditionFailure("binding", _locate(snap, target, name))
        else:
            _value(c, b, snap, target)
    return b


def _value(e: Expr, b: Binding, snap: Optional[Snapshot], target: Optional[NodeRef]):
    """A term's value: a metavariable's binding, a name itself, or a call's
    result; a failing predicate raises ConditionFailure."""
    t = type(e)
    if t is MetaVar or t is MetaSeq:
        if e.name not in b:
            raise UnboundMetavariable(e.name)
        return b[e.name]
    if t is not StaticCall:
        return e.name  # a variable or an atom
    fn = e.name
    args = [_value(a, b, snap, target) for a in e.args]
    if fn == "vars":
        return tuple(_as_names(args[0]))
    if fn == "fresh":
        for nm in _as_names(args[0]):
            if snap is None:
                ok = not any(isinstance(v, Node) and analysis.occurs_var(nm, v)
                             for v in b.values())
            else:
                ok = analysis.fresh(snap, nm, target)
            if not ok:
                raise ConditionFailure("fresh", _locate(snap, target, nm))
        return True
    if fn == "is_subset":
        small, big = set(_as_names(args[0])), set(_as_names(args[1]))
        if not small <= big:
            raise ConditionFailure("is_subset",
                                   _locate(snap, target, tuple(sorted(small - big))))
        return True
    n = args[0]
    if not isinstance(n, Node):
        raise TemplateError(f"expected a fragment, got {n!r}")
    ref = None if snap is None else snap.ref(n.node_id)
    if fn == "free_vars":
        return tuple(analysis.expr_free_vars(n) if snap is None
                     else analysis.free_vars(snap, ref))
    if fn == "pure":
        ok = analysis.standalone_pure(n) if snap is None else analysis.pure(snap, ref)
    elif fn == "closed":
        ok = not analysis.expr_free_vars(n) if snap is None else analysis.closed(snap, ref)
    elif fn == "total":
        ok = analysis.total(n)
    else:  # non_bind
        ok = not analysis.visible_bindings(n) if snap is None else analysis.non_bind(snap, ref)
    if not ok:
        # an expression that may raise is impure to the code it moves past
        raise ConditionFailure("pure" if fn == "total" else fn, _locate(snap, target, n))
    return True


def reports_violations(run: Callable[..., StepOutcome]) -> Callable[..., StepOutcome]:
    """A step whose failing condition ends it: a ConditionFailure raised
    while it runs is its PreconditionViolated outcome."""
    @wraps(run)
    def checked(*args, **kwargs) -> StepOutcome:
        try:
            return run(*args, **kwargs)
        except ConditionFailure as f:
            return PreconditionViolated(f.predicate, f.location)
        except UnboundMetavariable as err:  # or bound to what its slot cannot take
            return NotApplicable(f"the block cannot take this target: {err}")
    return checked


# ---------------------------------------------------------------------------
# Rules


_RULE_SEP = re.compile(r"^\s*-{3,}\s*$", re.M)


@record
class RewriteRule(Record):
    """``lhs ----- rhs WHEN condition``, the templates validated."""

    lhs: Template
    rhs: Template
    condition: Condition = Condition(())

    def __post_init__(self):
        validate_template(self.lhs)
        validate_template(self.rhs)


def parse_rule_text(text: str, kind: str = "expr") -> RewriteRule:
    """Parse ``lhs ----- rhs [WHEN cond]``; kind selects the template
    parser of both sides (expr, head, args, signature)."""
    when_split = re.split(r"^\s*WHEN\b", text, maxsplit=1, flags=re.M)
    rules_part = when_split[0]
    cond = Condition.parse(when_split[1]) if len(when_split) > 1 else Condition(())
    pieces = _RULE_SEP.split(rules_part)
    if len(pieces) != 2:
        raise TemplateError("rule text must contain exactly one ----- separator")
    parsers = {
        "expr": parse_template_expr,
        "head": parse_template_head,
        "args": parse_template_args,
        "signature": parse_template_signature,
    }
    try:
        lhs = parsers[kind](pieces[0].strip())
        rhs = parsers[kind](pieces[1].strip())
    except ParseError as err:
        raise TemplateError(f"cannot parse rule: {err}") from None
    return RewriteRule(lhs, rhs, cond)


@reports_violations
def apply_rule(rule: RewriteRule, snap: Snapshot, target: NodeRef) -> StepOutcome:
    """Apply an expression rewrite rule at one node.

    NotApplicable when the left side fails to match; PreconditionViolated
    when it matches but the condition fails; otherwise a new snapshot with
    the instantiated right side in place of the target.
    """
    subj = snap.node(target)
    if not (is_expr(rule.lhs) or type(rule.lhs) is MetaVar):
        return NotApplicable("rule left side is not an expression template")
    if not is_expr(subj):
        return NotApplicable("target is not an expression")
    b = match_template(rule.lhs, subj)
    if b is None:
        return NotApplicable("left side does not match")
    b = eval_condition(rule.condition, b, snap, target)
    ctx = SubstCtx.for_snapshot(snap, freed=[subj])
    new_frag = subst_fragment(rule.rhs, b, ctx, "expr")
    defs = edit_definitions(snap.module, {snap.fundef_of(subj.node_id).node_id},
                            lambda d: rebuild(d, lambda n: new_frag if n is subj else n))
    return finish_step(snap, ModuleAst(defs, ctx.gen.high), new_frag.node_id)
