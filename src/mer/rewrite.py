"""Concrete-syntax templates with metavariables, matching, and rewriting.

Templates are object-language fragments containing ``@E`` scalar
metavariables (one expression, pattern, or name) and ``@Xs...`` list
metavariables (a possibly-empty fragment sequence). A sequence position
may hold at most one list metavariable, which makes matching
deterministic; a metavariable repeated within one pattern must bind
structurally equal fragments.

Rule text format::

    <lhs>
    -----
    <rhs>
    WHEN <conjunct> AND <conjunct> ...

where a conjunct is either a predicate call (pure, closed, non_bind,
fresh, is_subset) or a binding equation like ``@Vars... = free_vars(@E)``.
Conditions are evaluated through the analysis module when a snapshot
context is available, and in a pessimistic standalone mode (used by the
rule-level equivalence checker) otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

from . import analysis
from .analysis import NodeRef, Snapshot
from .syntax import (
    FIELDS, MIRROR, SLOTS, Expr, FunDef, IdGen, MetaSeq, MetaVar,
    ModuleAst, Node, PVar, Pattern, StaticCall, SyntacticFlaw, VarRef,
    check_module, clone_fresh, expr_to_pattern, is_expr, is_pattern,
    module_node_ids, module_replace, node_ids, parse_expr_text,
    parse_exprseq_text, parse_patterns_text, pattern_to_expr, pretty_expr,
    remake, struct_eq, walk,
)


class TemplateError(Exception):
    pass


class UnboundMetavariable(Exception):
    pass


Fragment = Union[Node, str, tuple]
Binding = dict  # metavariable name -> Fragment or tuple of Fragments


# ---------------------------------------------------------------------------
# Step outcomes (the transaction currency of every engine)


@dataclass(frozen=True)
class Applied:
    snapshot: Snapshot
    result: NodeRef
    step: Optional[int] = None


@dataclass(frozen=True)
class NotApplicable:
    reason: str
    step: Optional[int] = None
    step_name: Optional[str] = None


@dataclass(frozen=True)
class PreconditionViolated:
    predicate: str
    location: str
    step: Optional[int] = None
    step_name: Optional[str] = None


StepOutcome = Union[Applied, NotApplicable, PreconditionViolated]


def is_applied(o: StepOutcome) -> bool:
    return isinstance(o, Applied)


# ---------------------------------------------------------------------------
# Template containers


@dataclass(frozen=True)
class HeadTemplate:
    """A (params, body) shape matched against a function definition."""

    params: tuple[Pattern, ...]
    body: tuple[Expr, ...]


@dataclass(frozen=True)
class ArgsTemplate:
    """An argument-list shape matched against a call's arguments."""

    args: tuple[Expr, ...]


@dataclass(frozen=True)
class SigTemplate:
    """A name-plus-arguments shape matched against heads and calls."""

    name: str  # '@X' marks a name metavariable
    args: tuple[Pattern, ...]


Template = Union[Expr, HeadTemplate, ArgsTemplate, SigTemplate]


def _validate_seq(seq: Sequence[Node], what: str):
    if sum(1 for x in seq if isinstance(x, MetaSeq)) > 1:
        raise TemplateError(f"more than one list metavariable in {what}")


def validate_template(t: Template):
    """Reject a sequence slot holding more than one list metavariable."""
    if isinstance(t, Node):
        for n in walk(t):
            for f, seq, _ in SLOTS.get(type(n), ()):
                if seq:
                    _validate_seq(getattr(n, f), f"{type(n).__name__}.{f}")
        return
    for f in fields(t):
        seq = getattr(t, f.name)
        if isinstance(seq, tuple):
            _validate_seq(seq, f"{type(t).__name__}.{f.name}")
            for e in seq:
                validate_template(e)


def template_metavars(t: Template) -> set[str]:
    out: set[str] = set()

    def scan(n: Node):
        for x in walk(n):
            if isinstance(x, (MetaVar, MetaSeq)):
                out.add(x.name)
            if isinstance(x, StaticCall) and x.name.startswith("@"):
                out.add(x.name[1:])

    if isinstance(t, HeadTemplate):
        for n in t.params + t.body:
            scan(n)
    elif isinstance(t, ArgsTemplate):
        for n in t.args:
            scan(n)
    elif isinstance(t, SigTemplate):
        if t.name.startswith("@"):
            out.add(t.name[1:])
        for n in t.args:
            scan(n)
    else:
        scan(t)
    return out


def parse_template_expr(text: str) -> Expr:
    t = parse_expr_text(text, meta=True)
    validate_template(t)
    return t


def parse_template_head(text: str) -> HeadTemplate:
    m = re.match(r"^\s*\((.*?)\)\s*->\s*(.*?)\s*$", text, re.S)
    if not m:
        raise TemplateError(f"head template must look like (..) -> ..: {text!r}")
    params = parse_patterns_text(m.group(1), meta=True)
    body = parse_exprseq_text(m.group(2), meta=True)
    t = HeadTemplate(params, body)
    validate_template(t)
    return t


def parse_template_args(text: str) -> ArgsTemplate:
    m = re.match(r"^\s*\((.*)\)\s*$", text, re.S)
    if not m:
        raise TemplateError(f"argument template must be parenthesized: {text!r}")
    inner = m.group(1).strip()
    args = parse_exprseq_text(inner, meta=True) if inner else ()
    t = ArgsTemplate(args)
    validate_template(t)
    return t


def parse_template_signature(text: str) -> SigTemplate:
    m = re.match(r"^\s*(@?\w+)\s*\((.*)\)\s*$", text, re.S)
    if not m:
        raise TemplateError(f"signature template must look like name(..): {text!r}")
    name = m.group(1)
    inner = m.group(2).strip()
    args = parse_patterns_text(inner, meta=True) if inner else ()
    t = SigTemplate(name, args)
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
    """Match a template against a node, (params, body) pair, or call.

    Returns the extended binding on success, None on mismatch.
    """
    b: Binding = dict(binding or {})
    if isinstance(t, HeadTemplate):
        if not isinstance(subject, FunDef):
            return None
        if match_seq(t.params, subject.params, b) and match_seq(t.body, subject.body.exprs, b):
            return b
        return None
    if isinstance(t, ArgsTemplate):
        args = subject.args if isinstance(subject, StaticCall) else tuple(subject)
        return b if match_seq(t.args, args, b) else None
    if isinstance(t, SigTemplate):
        if isinstance(subject, FunDef):
            subj_name, subj_args = subject.name, subject.params
        elif isinstance(subject, StaticCall):
            subj_name, subj_args = subject.name, subject.args
        else:
            return None
        ok = _match_name(t.name, subj_name, b) and match_seq(t.args, subj_args, b)
        return b if ok else None
    if not isinstance(subject, Node):
        return None
    return b if match_fragment(t, subject, b) else None


# ---------------------------------------------------------------------------
# Substitution


class SubstCtx:
    """Allocates fresh ids and keeps moved-fragment ids unique.

    A fragment moved from the source tree keeps its node ids the first
    time it is inserted; later insertions (a repeated metavariable) are
    re-idded clones.
    """

    def __init__(self, gen: IdGen, used: set[int]):
        self.gen = gen
        self.used = used

    @classmethod
    def for_module(cls, module: ModuleAst, freed: Sequence[Node] = ()) -> "SubstCtx":
        used = module_node_ids(module)
        for f in freed:
            used -= node_ids(f)
        return cls(IdGen(module.next_node_id), used)

    def take(self, frag: Node) -> Node:
        ids = node_ids(frag)
        if ids & self.used:
            fresh = clone_fresh(frag, self.gen)
            self.used |= node_ids(fresh)
            return fresh
        self.used |= ids
        return frag

    def fresh(self) -> int:
        n = self.gen.fresh()
        self.used.add(n)
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
        return expr_to_pattern(frag, ctx.gen) if to_pattern else pattern_to_expr(frag, ctx.gen)
    raise UnboundMetavariable(f"cannot use {frag!r} as {'a pattern' if to_pattern else 'an expression'}")


def _lookup(binding: Binding, name: str) -> Fragment:
    if name not in binding:
        raise UnboundMetavariable(name)
    return binding[name]


def subst_seq(pats: Sequence[Node], binding: Binding, ctx: SubstCtx, slot: str) -> tuple:
    out = []
    for p in pats:
        if isinstance(p, MetaSeq):
            frag = _lookup(binding, p.name)
            if not isinstance(frag, tuple):
                raise UnboundMetavariable(f"{p.name} is not a sequence")
            out.extend(_as_sort(f, ctx, slot) for f in frag)
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
    slots = SLOTS.get(t)
    if t in MIRROR and not slots:
        # a leaf takes the sort of its slot
        out = t if is_pattern(pat) == (slot == "pattern") else MIRROR[t]
        return remake(out, pat, {}, ctx.fresh())
    if slots is None:
        raise TypeError(f"cannot substitute into {t.__name__}")
    changes = {}
    if t is StaticCall:
        changes["name"] = _subst_name(pat.name, binding)
    for f, seq, sort in slots:
        sub = subst_seq if seq else subst_fragment
        changes[f] = sub(getattr(pat, f), binding, ctx, sort)
    return remake(t, pat, changes, ctx.fresh())


def substitute(t: Template, binding: Binding, ctx: SubstCtx, arg_slot: str = "pattern"):
    """Instantiate a template; returns a node, or structured parts for
    head/args/signature templates. arg_slot is the sort of a signature's
    arguments: patterns in a head, expressions at a call site."""
    if isinstance(t, HeadTemplate):
        return (subst_seq(t.params, binding, ctx, "pattern"),
                subst_seq(t.body, binding, ctx, "expr"))
    if isinstance(t, ArgsTemplate):
        return subst_seq(t.args, binding, ctx, "expr")
    if isinstance(t, SigTemplate):
        return _subst_name(t.name, binding), subst_seq(t.args, binding, ctx, arg_slot)
    return subst_fragment(t, binding, ctx, "expr")


def finish_step(module: ModuleAst, result_id: int) -> StepOutcome:
    """Applied with a snapshot of module, or NotApplicable when the edit left
    a shape the language cannot express."""
    try:
        check_module(module)
    except SyntacticFlaw as flaw:
        return NotApplicable(str(flaw))
    snap = Snapshot(module)
    return Applied(snap, snap.ref(result_id))


# ---------------------------------------------------------------------------
# Conditions


@dataclass(frozen=True)
class CCall:
    fn: str
    args: tuple["CExprT", ...]


@dataclass(frozen=True)
class CMeta:
    name: str
    is_seq: bool


@dataclass(frozen=True)
class CName:
    text: str


CExprT = Union[CCall, CMeta, CName]


@dataclass(frozen=True)
class Conjunct:
    bind_to: Optional[str]
    bind_seq: bool
    expr: CExprT


@dataclass(frozen=True)
class Condition:
    conjuncts: tuple[Conjunct, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "Condition":
        text = text.strip()
        if not text:
            return cls(())
        parts = re.split(r"\bAND\b", text)
        conjuncts = []
        for part in parts:
            part = part.strip()
            m = re.match(r"^@(\w+)(\.\.\.)?\s*=\s*(.+)$", part)
            if m:
                conjuncts.append(Conjunct(m.group(1), bool(m.group(2)),
                                          _parse_cexpr(m.group(3).strip())))
            else:
                conjuncts.append(Conjunct(None, False, _parse_cexpr(part)))
        return cls(tuple(conjuncts))

    def fresh_names(self, binding: Binding) -> set[str]:
        """Names constrained to be fresh, resolved against a binding."""
        out: set[str] = set()
        for c in self.conjuncts:
            if isinstance(c.expr, CCall) and c.expr.fn == "fresh":
                for a in c.expr.args:
                    if isinstance(a, CName):
                        out.add(a.text)
                    elif isinstance(a, CMeta) and a.name in binding:
                        v = binding[a.name]
                        if isinstance(v, str):
                            out.add(v)
                        elif isinstance(v, PVar):
                            out.add(v.name)
        return out

    def metavars(self) -> set[str]:
        out: set[str] = set()

        def scan(e: CExprT):
            if isinstance(e, CMeta):
                out.add(e.name)
            elif isinstance(e, CCall):
                for a in e.args:
                    scan(a)

        for c in self.conjuncts:
            if c.bind_to:
                out.add(c.bind_to)
            scan(c.expr)
        return out

    def produced(self) -> set[str]:
        return {c.bind_to for c in self.conjuncts if c.bind_to}


def _parse_cexpr(text: str) -> CExprT:
    text = text.strip()
    m = re.match(r"^@(\w+)(\.\.\.)?$", text)
    if m:
        return CMeta(m.group(1), bool(m.group(2)))
    m = re.match(r"^(\w+)\((.*)\)$", text, re.S)
    if m:
        fn, inner = m.group(1), m.group(2).strip()
        args: list[CExprT] = []
        depth = 0
        cur = ""
        for ch in inner:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                args.append(_parse_cexpr(cur))
                cur = ""
            else:
                cur += ch
        if cur.strip():
            args.append(_parse_cexpr(cur))
        return CCall(fn, tuple(args))
    if re.match(r"^\w+$", text):
        return CName(text)
    raise TemplateError(f"cannot parse condition term {text!r}")


class CondContext:
    """Where condition predicates get their meaning.

    With a snapshot, predicates run through the analysis module on the
    matched in-tree fragments. Standalone (no snapshot), they run
    pessimistically on bare fragments: any call counts as impure,
    non_bind requires no visible bindings at all, and fresh(N) requires
    N to occur in no bound fragment.
    """

    def __init__(self, snapshot: Optional[Snapshot] = None,
                 target: Optional[NodeRef] = None):
        self.snapshot = snapshot
        self.target = target

    @property
    def standalone(self) -> bool:
        return self.snapshot is None


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


def _locate(ctx: CondContext, frag) -> str:
    if isinstance(frag, Node) and is_expr(frag):
        text = pretty_expr(frag)
    else:
        text = repr(frag)
    if len(text) > 40:
        text = text[:37] + "..."
    if ctx.snapshot is not None and ctx.target is not None:
        try:
            n = ctx.snapshot.node(ctx.target)
            d = ctx.snapshot.fundef_of(n.node_id)
            return f"{d.name}/{d.arity}: {text}"
        except Exception:
            pass
    return text


def eval_condition(cond: Condition, binding: Binding, ctx: CondContext) -> Binding:
    """Evaluate conjuncts left to right, extending the binding; raises
    ConditionFailure naming the first failing predicate."""
    b = dict(binding)

    def value_of(e: CExprT):
        if isinstance(e, CMeta):
            if e.name not in b:
                raise UnboundMetavariable(e.name)
            return b[e.name]
        if isinstance(e, CName):
            return e.text
        return call(e)

    def node_arg(e: CExprT) -> Node:
        v = value_of(e)
        if not isinstance(v, Node):
            raise TemplateError(f"expected a fragment, got {v!r}")
        return v

    def in_tree_ref(n: Node) -> NodeRef:
        return ctx.snapshot.ref(n.node_id)

    def call(e: CCall):
        fn = e.fn
        if fn == "free_vars":
            n = node_arg(e.args[0])
            if ctx.standalone:
                return tuple(analysis.expr_free_vars(n))
            return tuple(analysis.free_vars(ctx.snapshot, in_tree_ref(n)))
        if fn == "vars":
            v = value_of(e.args[0])
            return tuple(_as_names(v))
        if fn == "non_bind":
            n = node_arg(e.args[0])
            if ctx.standalone:
                ok = not analysis.visible_bindings(n)
            else:
                ok = analysis.non_bind(ctx.snapshot, in_tree_ref(n))
            if not ok:
                raise ConditionFailure("non_bind", _locate(ctx, n))
            return True
        if fn == "pure":
            n = node_arg(e.args[0])
            ok = analysis.standalone_pure(n) if ctx.standalone else analysis.pure(ctx.snapshot, in_tree_ref(n))
            if not ok:
                raise ConditionFailure("pure", _locate(ctx, n))
            return True
        if fn == "closed":
            n = node_arg(e.args[0])
            if ctx.standalone:
                ok = not analysis.expr_free_vars(n)
            else:
                ok = analysis.closed(ctx.snapshot, in_tree_ref(n))
            if not ok:
                raise ConditionFailure("closed", _locate(ctx, n))
            return True
        if fn == "fresh":
            names = _as_names(value_of(e.args[0]))
            for nm in names:
                if ctx.standalone:
                    ok = not any(
                        isinstance(v, Node) and analysis.occurs_var(nm, v)
                        for v in b.values())
                else:
                    ok = analysis.fresh(ctx.snapshot, nm, ctx.target)
                if not ok:
                    raise ConditionFailure("fresh", _locate(ctx, nm))
            return True
        if fn == "is_subset":
            small = set(_as_names(value_of(e.args[0])))
            big = set(_as_names(value_of(e.args[1])))
            if not small <= big:
                raise ConditionFailure("is_subset", _locate(ctx, tuple(sorted(small - big))))
            return True
        raise TemplateError(f"unknown condition function {fn!r}")

    for c in cond.conjuncts:
        v = value_of(c.expr)
        if c.bind_to is not None:
            if c.bind_to in b:
                if not struct_eq(b[c.bind_to], v):
                    raise ConditionFailure("binding", c.bind_to)
            else:
                b[c.bind_to] = v
    return b


# ---------------------------------------------------------------------------
# Rules


_RULE_SEP = re.compile(r"^\s*-{3,}\s*$", re.M)


@dataclass(frozen=True)
class RewriteRule:
    lhs: Template
    rhs: Template
    condition: Condition = Condition(())

    def __post_init__(self):
        validate_template(self.lhs)
        validate_template(self.rhs)


def parse_rule_text(text: str, lhs_kind: str = "expr", rhs_kind: Optional[str] = None) -> RewriteRule:
    """Parse ``lhs ----- rhs [WHEN cond]``; kinds select the template parser
    (expr, head, args, signature)."""
    rhs_kind = rhs_kind or lhs_kind
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
    lhs = parsers[lhs_kind](pieces[0].strip())
    rhs = parsers[rhs_kind](pieces[1].strip())
    return RewriteRule(lhs, rhs, cond)


def apply_rule(rule: RewriteRule, snap: Snapshot, target: NodeRef) -> StepOutcome:
    """Apply an expression rewrite rule at one node.

    NotApplicable when the left side fails to match; PreconditionViolated
    when it matches but the condition fails; otherwise a new snapshot with
    the instantiated right side in place of the target.
    """
    subj = snap.node(target)
    if not isinstance(rule.lhs, Node) or not (is_expr(rule.lhs) or isinstance(rule.lhs, MetaVar)):
        return NotApplicable("rule left side is not an expression template")
    if not is_expr(subj):
        return NotApplicable("target is not an expression")
    b = match_template(rule.lhs, subj)
    if b is None:
        return NotApplicable("left side does not match")
    try:
        b = eval_condition(rule.condition, b, CondContext(snap, target))
    except ConditionFailure as f:
        return PreconditionViolated(f.predicate, f.location)
    ctx = SubstCtx.for_module(snap.module, freed=[subj])
    new_frag = subst_fragment(rule.rhs, b, ctx, "expr")
    new_module = module_replace(snap.module, {subj.node_id: new_frag}, ctx.gen.high)
    return finish_step(new_module, new_frag.node_id)
