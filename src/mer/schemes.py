"""The five refactoring scheme engines.

A scheme fixes the shape of its parameter rewrite rules and owns the
side conditions and multi-site bookkeeping its instances rely on:

* local -- one rewrite rule applied at the selected node;
* introduce variable -- the DEFINITION, a binding template such as
  ``@Name = @E``, is placed at the front of the target's scope (or the
  next outer scope), and the REFERENCE rule rewrites the target;
* introduce function -- the DEFINITION, a function definition template
  such as ``@Name(@Params...) -> @E .``, is appended to the module, and
  the REFERENCE rule rewrites the extracted code;
* function refactoring -- one rule on the definition's (params, body)
  pair and one on the argument list of every reference, all or nothing;
* function signature refactoring -- one rule on the head and on every
  reference; the resulting signature must not already exist.

An instance is its block. Each engine takes the step's arguments after
its target and binds them by position to the header's names (a
``Name...`` binds a tuple) before it matches. The parser puts a scheme's
own side conditions into the instance's condition as WHEN text:
introduce variable's ``fresh(@Name) AND pure(@E) AND closed(@E) AND
total(@E)`` and introduce function's ``is_subset(free_vars(@E),
vars(@Params...)) AND non_bind(@E)`` ahead of the WHEN, and a function
refactoring's ``relocatable(@M)``, for each metavariable @M that its
REFERENCE moves from the definition to the call sites, after it.

Every engine either returns Applied with a fresh snapshot or leaves the
input snapshot untouched; there are no partial edits.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import replace
from typing import Callable, Optional, Sequence

from . import analysis
from .analysis import FunKey, NodeRef, NotApplicableError, Snapshot, is_call_to
from .rewrite import (
    Binding, Condition, NotApplicable, PreconditionViolated, RewriteRule,
    StepOutcome, SubstCtx, TemplateError, _locate, _lookup_seq, _subst_name,
    apply_rule, eval_condition, finish_step, match_template, parse_rule_text,
    parse_template_def, parse_template_expr, reports_violations, subst_fragment,
    subst_seq, substitute, template_metavars,
)
from .syntax import (
    KEYWORDS, AtomLit, Body, Expr, FunDef, Match, MetaSeq, ModuleAst, Node,
    ParseError, Record, StaticCall, VarRef, edit_definitions, is_expr,
    node_ids, parse_expr_text, pretty_expr, rebuild, record, walk,
)


# ---------------------------------------------------------------------------
# Scheme instances


@record
class Local(Record):
    """A rule that rewrites the target node in place."""

    rule: RewriteRule
    params: tuple[str, ...] = ()


@record
class IntroduceVariable(Record):
    """The definition, a match template, goes first in the target's own
    scope ("in_scope") or the next outer one ("outer_scope"). In scope,
    @Name is a header argument and the target an expression; outer, the
    target is a binding, and the reference rule binds @Name."""

    placement: str  # "in_scope" | "outer_scope"
    definition: Expr
    ref_rule: RewriteRule
    params: tuple[str, ...] = ()


@record
class IntroduceFunction(Record):
    """The definition, a function definition template, is appended to the
    module, its name a valid function name."""

    definition: FunDef
    ref_rule: RewriteRule
    params: tuple[str, ...] = ()


@record
class FunctionRefactoring(Record):
    """A rule for a function's definition and one for each of its
    call sites' arguments."""

    def_rule: RewriteRule  # head/body shaped, carrying the WHEN clause
    ref_rule: RewriteRule  # argument-list shaped
    params: tuple[str, ...] = ()


@record
class SignatureRefactoring(Record):
    """A rule for a function's signature, applied to its head and to
    every call."""

    head_rule: RewriteRule  # signature shaped
    params: tuple[str, ...] = ()


@record
class CompositeProgram(Record):
    """A step is (assign or None, iterate, call, traced); a call is
    (op, terms); a term is a local name, an atom, or a selector call."""

    name: str
    params: tuple[str, ...]
    steps: tuple[tuple, ...]


class CompositeError(TemplateError):
    pass


# a function name is an atom that the lexer does not read as a keyword
_NAME_RE = re.compile(r"^(?!(?:%s)$)[a-z]\w*$" % "|".join(sorted(KEYWORDS)))
_VAR_RE = re.compile(r"^[A-Z_]\w*$")

# each INTRODUCE scheme's side conditions, put ahead of the instance's
# WHEN. A variable's binding moves to the scope front, so its expression
# must emit nothing and provably evaluate to a value (raising earlier
# would truncate the trace of the code it jumps ahead of); lifted out of a
# lambda, fresh(@Name) would find the binding itself, so the engine checks
# the code outside the lambda. A function's parameters must cover the
# free variables, and bindings made by the extracted code would die in it.
_SCHEME_WHEN = {
    "in_scope": "fresh(@Name) AND pure(@E) AND closed(@E) AND total(@E)",
    "outer_scope": "pure(@E) AND closed(@E) AND total(@E)",
    "introduce_function": "is_subset(free_vars(@E), vars(@Params...)) AND non_bind(@E)",
}


def signature_clash(snap: Snapshot, key: FunKey) -> Optional[PreconditionViolated]:
    """A new function's key must be neither defined nor called: a call
    to it would call the new function."""
    if snap.find_def(key) is not None:
        return PreconditionViolated("signature_clash", f"{key} already defined")
    if snap.callers(key):
        return PreconditionViolated("signature_clash", f"{key} already called")
    return None


def bind_args(params: Sequence[str], args: Sequence) -> Binding:
    """A block's arguments bound by position to its header's names; a
    ``Name...`` binds a tuple."""
    if len(args) != len(params):
        raise TemplateError(f"the block takes {len(params)} argument(s), got {len(args)}")
    return {p.removesuffix("..."): tuple(a) if p.endswith("...") else a
            for p, a in zip(params, args)}


# ---------------------------------------------------------------------------
# Local


def run_local(inst: Local, snap: Snapshot, target: NodeRef, *args) -> StepOutcome:
    return apply_rule(inst.rule, snap, target, bind_args(inst.params, args))


# ---------------------------------------------------------------------------
# Introduce variable


@reports_violations
def run_introduce_variable(inst: IntroduceVariable, snap: Snapshot,
                           target: NodeRef, *args) -> StepOutcome:
    pre = bind_args(inst.params, args)
    subj = snap.node(target)
    in_scope = inst.placement == "in_scope"
    if in_scope:
        if not is_expr(subj):
            return NotApplicable("target is not an expression")
        name = _subst_name("@Name", pre)
        if not _VAR_RE.match(name):
            return NotApplicable(f"invalid variable name {name!r}")
    elif not isinstance(subj, Match):
        return NotApplicable("target is not a variable binding")
    b = match_template(inst.ref_rule.lhs, subj, pre)
    if b is None:
        return NotApplicable("reference rule does not match the target")
    if not (isinstance(b.get("E"), Node) and isinstance(b.get("Name"), (str, Node))):
        return NotApplicable("reference rule does not capture @Name and @E")

    dest = analysis.scope(snap, target)
    if not in_scope:
        owner = snap.parent_of(snap.node(dest).node_id)
        if isinstance(owner, FunDef):
            return NotApplicable("binding is already at function scope")
        # owner is the lambda whose body holds the binding
        try:
            dest = analysis.scope(snap, snap.ref(owner.node_id))
        except NotApplicableError:
            return NotApplicable("no outer scope")
        # only the code outside the lambda must not use its names
        fundef = snap.fundef_of(subj.node_id)
        for nm in analysis.pattern_vars(b["Name"]):
            if analysis.occurs_var(nm, fundef, owner):
                return PreconditionViolated("fresh", _locate(snap, target, nm))
    b = eval_condition(inst.ref_rule.condition, b, snap, target)

    ctx = SubstCtx.for_snapshot(snap, freed=[subj])
    binding = subst_fragment(inst.definition, b, ctx, "expr")
    replacement = substitute(inst.ref_rule.rhs, b, ctx)

    def edit(n: Node) -> Node:
        if n.node_id == subj.node_id:
            return replacement
        if n.node_id == dest.node_id:
            return Body((binding,) + n.exprs, node_id=n.node_id)
        return n

    holder = snap.fundef_of(subj.node_id).node_id  # dest's too
    defs = edit_definitions(snap.module, {holder}, lambda d: rebuild(d, edit))
    return finish_step(snap, ModuleAst(defs, ctx.gen.high), binding.node_id)


# ---------------------------------------------------------------------------
# Introduce function


@reports_violations
def run_introduce_function(inst: IntroduceFunction, snap: Snapshot,
                           target: NodeRef, *args) -> StepOutcome:
    pre = bind_args(inst.params, args)
    subj = snap.node(target)
    if not (is_expr(subj) or isinstance(subj, Body)):
        return NotApplicable("target is not an expression or body")
    name = _subst_name(inst.definition.name, pre)
    if not _NAME_RE.match(name):
        return NotApplicable(f"invalid function name {name!r}")
    b = match_template(inst.ref_rule.lhs, subj, pre)
    if b is None:
        return NotApplicable("reference rule does not match the target")
    if not isinstance(b.get("E"), Node):
        return NotApplicable("reference rule does not capture @E")
    b = eval_condition(inst.ref_rule.condition, b, snap, target)

    ctx = SubstCtx.for_snapshot(snap, freed=[subj])
    new_def = subst_fragment(inst.definition, b, ctx, "expr")
    clash = signature_clash(snap, FunKey(new_def.name, new_def.arity))
    if clash is not None:
        return clash
    replacement = subst_fragment(inst.ref_rule.rhs, b, ctx, "expr")
    if isinstance(subj, Body):
        # a Body target is the new definition's body (see subst_fragment),
        # and what replaces it must be a Body too
        replacement = Body((replacement,), node_id=ctx.fresh())
    holder = rebuild(snap.fundef_of(subj.node_id),
                     lambda n: replacement if n.node_id == subj.node_id else n)
    # a parameter must be bound where the call passes it
    passed = node_ids(replacement)
    for o in analysis.resolve(holder).occurrences:
        if o.kind == "unbound" and o.node_id in passed:
            return PreconditionViolated("bound", _locate(snap, target, o.name))
    defs = edit_definitions(snap.module, {holder.node_id}, lambda d: holder)
    return finish_step(snap, ModuleAst(defs + (new_def,), ctx.gen.high), new_def.node_id)


# ---------------------------------------------------------------------------
# Function refactoring


def _site(snap: Snapshot, call: StaticCall) -> str:
    """A call site's location; a call cloned by the step is not in snap."""
    return _locate(snap, NodeRef(snap.version, call.node_id), call)


class _SiteFailure(Exception):
    def __init__(self, outcome: StepOutcome):
        self.outcome = outcome


def _replace_def(snap: Snapshot, d: FunDef, new_def: FunDef,
                 make: Callable[[StaticCall], Node], ctx: SubstCtx) -> StepOutcome:
    """Put new_def in place of d and rewrite every call to d with make,
    bottom-up, nested calls included; a site make rejects aborts the step."""
    key = FunKey(d.name, d.arity)
    holders = {c.node_id for c in snap.callers(key)} | {d.node_id}

    def edit(n: Node) -> Node:
        return make(n) if is_call_to(n, key) else n

    try:
        new_def = rebuild(new_def, edit)
        defs = edit_definitions(snap.module, holders,
                                lambda old: new_def if old is d else rebuild(old, edit))
    except _SiteFailure as sf:
        return sf.outcome
    return finish_step(snap, ModuleAst(defs, ctx.gen.high), d.node_id)


@reports_violations
def run_function_refactoring(inst: FunctionRefactoring, snap: Snapshot,
                             target: NodeRef, *args) -> StepOutcome:
    pre = bind_args(inst.params, args)
    d = snap.node(target)
    if not isinstance(d, FunDef):
        return NotApplicable("target is not a function definition")
    b = match_template(inst.def_rule.lhs, d, pre)
    if b is None:
        return NotApplicable("definition rule does not match")
    b = eval_condition(inst.def_rule.condition, b, snap, target)

    old_key = FunKey(d.name, d.arity)
    refs = [snap.node(r) for r in analysis.references(snap, old_key)]
    ctx = SubstCtx.for_snapshot(snap, freed=[d] + refs)
    clause = inst.def_rule.rhs
    new_params = subst_seq(clause.params, b, ctx, "pattern")
    new_body_exprs = subst_seq(clause.body.exprs, b, ctx, "expr")
    if not new_body_exprs:
        return NotApplicable("resulting body would be empty")
    new_key = FunKey(d.name, len(new_params))
    clash = signature_clash(snap, new_key) if new_key != old_key else None
    if clash is not None:
        return clash
    new_def = FunDef(d.name, new_params, Body(new_body_exprs, node_id=ctx.fresh()),
                     node_id=d.node_id)

    def rewrite_ref(call: StaticCall) -> StaticCall:
        rb = match_template(inst.ref_rule.lhs, call, b)
        if rb is None:
            raise _SiteFailure(NotApplicable(
                f"reference rule does not match {_site(snap, call)}"))
        new_args = substitute(inst.ref_rule.rhs, rb, ctx)
        return StaticCall(call.name, new_args, node_id=call.node_id)

    return _replace_def(snap, d, new_def, rewrite_ref, ctx)


# ---------------------------------------------------------------------------
# Function signature refactoring


@reports_violations
def run_signature_refactoring(inst: SignatureRefactoring, snap: Snapshot,
                              target: NodeRef, *args) -> StepOutcome:
    pre = bind_args(inst.params, args)
    d = snap.node(target)
    if not isinstance(d, FunDef):
        return NotApplicable("target is not a function definition")
    b = match_template(inst.head_rule.lhs, d, pre)
    if b is None:
        return NotApplicable("head rule does not match")
    b = eval_condition(inst.head_rule.condition, b, snap, target)

    rhs = inst.head_rule.rhs
    if type(rhs) is not StaticCall:
        raise TemplateError("signature rule right side must be a signature")
    # the new key is known before the callers are walked, so a clash is
    # refused in time independent of their number
    new_name = _subst_name(rhs.name, b)
    arity = sum(len(_lookup_seq(b, a.name)) if type(a) is MetaSeq else 1 for a in rhs.args)
    if not _NAME_RE.match(new_name):
        return NotApplicable(f"invalid function name {new_name!r}")
    old_key, new_key = FunKey(d.name, d.arity), FunKey(new_name, arity)
    clash = signature_clash(snap, new_key) if new_key != old_key else None
    if clash is not None:
        return clash
    refs = [snap.node(r) for r in analysis.references(snap, old_key)]
    ctx = SubstCtx.for_snapshot(snap, freed=list(d.params) + refs)
    new_params = subst_seq(rhs.args, b, ctx, "pattern")

    def rewrite_ref(call: StaticCall) -> StaticCall:
        rb = match_template(inst.head_rule.lhs, call, pre)
        if rb is None:
            raise _SiteFailure(NotApplicable(
                f"head rule does not match {_site(snap, call)}"))
        rb = eval_condition(inst.head_rule.condition, rb, snap, snap.ref(call.node_id))
        return StaticCall(_subst_name(rhs.name, rb), subst_seq(rhs.args, rb, ctx, "expr"),
                          node_id=call.node_id)

    new_def = FunDef(new_name, new_params, d.body, node_id=d.node_id)
    return _replace_def(snap, d, new_def, rewrite_ref, ctx)


# ---------------------------------------------------------------------------
# Scheme instance text format


_HEADERS = (
    ("FUNCTION SIGNATURE REFACTORING", "signature"),
    ("FUNCTION REFACTORING", "function"),
    ("INTRODUCE VARIABLE", "introduce_variable"),
    ("INTRODUCE FUNCTION", "introduce_function"),
    ("LOCAL REFACTORING", "local"),
    ("COMPOSITE", "composite"),
)

_PLACEMENTS = {"IN": "in_scope", "IN OUTER": "outer_scope"}  # DEFINITION IN .. SCOPE

_STEP_RE = re.compile(r"(?:([A-Z_]\w*)\s*:=\s*)?(ITERATE\s+)?(\w+\s*\(.*\))(\s+TRACED)?")


def _split_sections(body: str, keywords: Sequence[str]) -> dict[str, str]:
    """Chop text into sections introduced by keyword lines.

    A section keyword starts a line; its content runs to the next keyword.
    WHEN may carry its condition on the same line. Text before the first
    keyword, a repeated keyword and a missing DEFINITION or REFERENCE are
    errors.
    """
    pieces = re.split(r"^[ \t]*(" + "|".join(keywords) + r")\b", body, flags=re.M)
    if pieces[0].strip():
        raise TemplateError(f"text before the first section: {pieces[0].strip()!r}")
    sections = dict(zip(pieces[1::2], pieces[2::2]))
    if len(sections) < len(pieces) // 2:
        raise TemplateError("a section appears twice")
    if "DEFINITION" not in sections or "REFERENCE" not in sections:
        raise TemplateError("a DEFINITION and a REFERENCE section are needed")
    return sections


def _term(e: Node, ops: dict, selectors: dict, assigned: set):
    """A parsed step call or argument as a term: a local, an atom, or
    (op, terms) with op in ops, a name -> callable(snap, target, *args)
    table, taking as many terms as op takes; nested calls are selectors."""
    if type(e) is VarRef or type(e) is AtomLit:
        if _VAR_RE.match(e.name) and e.name not in assigned:
            raise CompositeError(f"local {e.name} used before assignment")
        if not (_VAR_RE.match(e.name) or _NAME_RE.match(e.name)):
            raise CompositeError(f"expected a local or an atom, got {e.name!r}")
        return e.name
    if type(e) is not StaticCall:
        raise CompositeError(f"expected a local, an atom or a call, got {pretty_expr(e)!r}")
    if e.name not in ops:
        raise CompositeError(f"unknown operation {e.name!r}")
    terms = tuple(_term(a, selectors, selectors, assigned) for a in e.args)
    try:
        inspect.signature(ops[e.name]).bind(None, *terms)  # None stands for the snapshot
    except TypeError:
        raise CompositeError(f"{e.name} cannot take {len(terms)} argument(s)") from None
    return e.name, terms


def _parse_composite(name, params, body, selectors, steps) -> CompositeProgram:
    assigned, out = {"THIS", *(p.removesuffix("...") for p in params)}, []
    for line in filter(None, map(str.strip, body.splitlines())):
        m = _STEP_RE.fullmatch(line)
        if not m:
            raise CompositeError(f"malformed step: {line!r}")
        assign, iterate, call_text, traced = m.groups()
        try:
            call = parse_expr_text(call_text, meta=True)
        except ParseError as err:
            raise CompositeError(f"malformed step: {line!r}: {err}") from None
        call = _term(call, {**selectors, **steps}, selectors, assigned)
        if assign in assigned - {"THIS", None}:
            raise CompositeError(f"local {assign} assigned twice")
        assigned.add(assign)
        out.append((assign, bool(iterate), call, bool(traced)))
    return CompositeProgram(name, params, tuple(out))


def _arity_shape(seq: Sequence[Node]) -> tuple[int, list[str]]:
    """What fixes the length of a template sequence's instances: its
    scalar items' number and its list metavariables' names."""
    return (sum(type(x) is not MetaSeq for x in seq),
            sorted(x.name for x in seq if type(x) is MetaSeq))


def _check_reference_calls(definition: FunDef, ref_rule: RewriteRule):
    """An INTRODUCE FUNCTION block's REFERENCE must call the function its
    DEFINITION makes, with as many arguments as it has parameters."""
    calls = [n for n in walk(ref_rule.rhs)
             if type(n) is StaticCall and n.name == definition.name]
    if not calls or any(_arity_shape(c.args) != _arity_shape(definition.params)
                        for c in calls):
        raise TemplateError(f"the REFERENCE must call {definition.name} with as many "
                            "arguments as the DEFINITION has parameters")


def _relocation_checks(ref_rule: RewriteRule) -> Condition:
    """``relocatable(@M)`` for each scalar metavariable, by name, that the
    REFERENCE inserts but does not match: it holds code moved from the
    definition to every call site."""
    lists = {x.name for r in ref_rule.rhs for x in walk(r) if type(x) is MetaSeq}
    moved = template_metavars(ref_rule.rhs) - template_metavars(ref_rule.lhs) - lists
    return Condition.parse(" AND ".join(f"relocatable(@{mv})" for mv in sorted(moved)))


def _with_condition(rule: RewriteRule, *conds: Condition) -> RewriteRule:
    return replace(rule, condition=Condition(sum((c.conjuncts for c in conds), ())))


def parse_scheme_instance(text: str, selectors: Optional[dict] = None,
                          steps: Optional[dict] = None):
    """Parse a scheme-instance block into (kind, name, instance).

    Supported blocks mirror the fixed per-scheme formats with DEFINITION
    / REFERENCE / WHEN sections, and the engines honour all three. An
    INTRODUCE VARIABLE block's DEFINITION reads ``IN [OUTER] SCOPE``
    followed by a match template; an INTRODUCE FUNCTION block's is a
    function definition template. An INTRODUCE block's REFERENCE is an
    expression rule, and its WHEN clause is evaluated after the scheme's
    own side conditions (see the module docstring). Every block's header
    names, such as ``(Name, Params...)``, are the instance's ``params``.

    A COMPOSITE block, one ``[Local :=] [ITERATE] op(Target, Arg, ..)
    [TRACED]`` step per line over the selectors and steps, two name ->
    callable(snap, target, *args) tables, parses to a CompositeProgram;
    a step's call is an expression parsed in meta mode.
    """
    stripped = text.strip()
    for header, kind in _HEADERS:
        if stripped.startswith(header):
            rest = stripped[len(header):].strip()
            break
    else:
        raise TemplateError("unknown scheme header")
    m = re.match(r"^(\w+)\s*\(([^)]*)\)\s*(.*)$", rest, re.S)
    if not m:
        raise TemplateError("expected name(args) after the scheme header")
    name, body = m.group(1), m.group(3)
    params = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
    if not all(_VAR_RE.match(p.removesuffix("...")) for p in params):
        raise TemplateError(f"block parameters must be variables: {m.group(2)!r}")
    if kind == "local":
        return kind, name, Local(parse_rule_text(body, "expr"), params)
    if kind == "signature":
        return kind, name, SignatureRefactoring(parse_rule_text(body, "signature"), params)
    if kind in ("introduce_variable", "introduce_function"):
        sections = _split_sections(body, ("DEFINITION", "REFERENCE"))
        ref_rule = parse_rule_text(sections["REFERENCE"], "expr")
        try:
            if kind == "introduce_function":
                definition = parse_template_def(sections["DEFINITION"])
                _check_reference_calls(definition, ref_rule)
                ref_rule = _with_condition(ref_rule, Condition.parse(_SCHEME_WHEN[kind]),
                                           ref_rule.condition)
                return kind, name, IntroduceFunction(definition, ref_rule, params)
            where, _, def_text = sections["DEFINITION"].partition("SCOPE")
            placement = _PLACEMENTS.get(" ".join(where.split()))
            definition = parse_template_expr(def_text)
        except ParseError as err:
            raise TemplateError(f"cannot parse definition: {err}") from None
        if placement is None or type(definition) is not Match:
            raise TemplateError("definition must be 'IN [OUTER] SCOPE Pattern = Expr'")
        ref_rule = _with_condition(ref_rule, Condition.parse(_SCHEME_WHEN[placement]),
                                   ref_rule.condition)
        return kind, name, IntroduceVariable(placement, definition, ref_rule, params)
    if kind == "function":
        sections = _split_sections(body, ("DEFINITION", "REFERENCE", "WHEN"))
        ref_rule = parse_rule_text(sections["REFERENCE"], "args")
        def_rule = _with_condition(parse_rule_text(sections["DEFINITION"], "head"),
                                   Condition.parse(sections.get("WHEN", "")),
                                   _relocation_checks(ref_rule))
        return kind, name, FunctionRefactoring(def_rule, ref_rule, params)
    if kind == "composite":
        return kind, name, _parse_composite(name, params, body,
                                             selectors or {}, steps or {})
    raise TemplateError(f"unhandled scheme kind {kind}")
