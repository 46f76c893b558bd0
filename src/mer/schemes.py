"""The five refactoring scheme engines.

A scheme fixes the shape of its parameter rewrite rules and owns the
side conditions and multi-site bookkeeping its instances rely on:

* local -- one rewrite rule applied at the selected node;
* introduce variable -- definition template ``Name = E`` placed at the
  front of the target's scope (or the next outer scope), plus a
  reference rewrite of the target; freshness, purity and closedness of
  the bound expression are enforced regardless of the instance rule;
* introduce function -- definition ``Name(Params..) -> E.`` appended to
  the module, the extracted code replaced by a call;
* function refactoring -- one rule on the definition's (params, body)
  pair and one on the argument list of every reference, all or nothing;
* function signature refactoring -- one rule on the head and on every
  reference; the resulting signature must not already exist.

Every engine either returns Applied with a fresh snapshot or leaves the
input snapshot untouched; there are no partial edits.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from . import analysis
from .analysis import FunKey, NodeRef, NotApplicableError, Snapshot, is_call_to
from .rewrite import (
    Binding, Condition, ConditionFailure, NotApplicable,
    PreconditionViolated, RewriteRule, SigTemplate, StepOutcome, SubstCtx,
    TemplateError, apply_rule, eval_condition, finish_step, match_template,
    parse_rule_text, substitute, template_metavars,
)
from .syntax import (
    AtomLit, Body, FunDef, Match, ModuleAst, Node, ParseError, Pattern, PVar,
    StaticCall, VarRef, is_expr, module_replace, parse_expr_text,
    pattern_to_expr, pretty_expr, rebuild, walk,
)


# ---------------------------------------------------------------------------
# Scheme instances


@dataclass(frozen=True)
class Local:
    rule: RewriteRule


@dataclass(frozen=True)
class IntroduceVariable:
    """Definition template is fixed to ``Name = E``; placement selects the
    target's own scope or the next outer one. With in-scope placement the
    name comes from the instance, with outer placement from the matched
    binding itself."""

    placement: str  # "in_scope" | "outer_scope"
    ref_rule: RewriteRule
    name: Optional[str] = None


@dataclass(frozen=True)
class IntroduceFunction:
    """Definition template is fixed to ``Name(Params..) -> E.``; the new
    definition is appended to the module."""

    name: str
    params: tuple[Pattern, ...]
    extra_condition: Condition = Condition(())


@dataclass(frozen=True)
class FunctionRefactoring:
    def_rule: RewriteRule  # head/body shaped, carrying the WHEN clause
    ref_rule: RewriteRule  # argument-list shaped


@dataclass(frozen=True)
class SignatureRefactoring:
    head_rule: RewriteRule  # signature shaped
    pre_binding: Optional[Binding] = None


SchemeInstance = (Local, IntroduceVariable, IntroduceFunction,
                  FunctionRefactoring, SignatureRefactoring)


@dataclass(frozen=True)
class CompositeProgram:
    """A step is (assign or None, iterate, call, traced); a call is
    (op, terms); a term is a local name, an atom, or a selector call."""

    name: str
    params: tuple[str, ...]
    steps: tuple[tuple, ...]


class CompositeError(TemplateError):
    pass


_NAME_RE = re.compile(r"^[a-z]\w*$")
_VAR_RE = re.compile(r"^[A-Z_]\w*$")


def _loc(snap: Snapshot, node: Node) -> str:
    try:
        d = snap.fundef_of(node.node_id)
        return f"{d.name}/{d.arity}"
    except KeyError:
        return "<detached>"


# ---------------------------------------------------------------------------
# Local


def run_local(inst: Local, snap: Snapshot, target: NodeRef) -> StepOutcome:
    return apply_rule(inst.rule, snap, target)


# ---------------------------------------------------------------------------
# Introduce variable


def run_introduce_variable(inst: IntroduceVariable, snap: Snapshot,
                           target: NodeRef) -> StepOutcome:
    if inst.placement == "in_scope":
        return _introduce_in_scope(inst, snap, target)
    if inst.placement == "outer_scope":
        return _introduce_outer_scope(inst, snap, target)
    raise ValueError(f"unknown placement {inst.placement!r}")


def _introduce_in_scope(inst: IntroduceVariable, snap: Snapshot,
                        target: NodeRef) -> StepOutcome:
    subj = snap.node(target)
    if not is_expr(subj):
        return NotApplicable("target is not an expression")
    name = inst.name
    if name is None or not _VAR_RE.match(name):
        return NotApplicable(f"invalid variable name {name!r}")
    b = match_template(inst.ref_rule.lhs, subj, {"Name": name})
    if b is None:
        return NotApplicable("reference rule does not match the target")
    bound = b.get("E")
    if not isinstance(bound, Node):
        return NotApplicable("reference rule does not capture the bound expression")
    # inherent side conditions, independent of the instance's WHEN clause;
    # the binding moves to the scope front, so on top of emitting nothing the
    # expression must provably evaluate to a value (raising earlier would
    # truncate the trace of the code it jumps ahead of)
    if not analysis.fresh(snap, name, target):
        return PreconditionViolated("fresh", f"{name} in {_loc(snap, subj)}")
    if not analysis.pure(snap, snap.ref(bound.node_id)):
        return PreconditionViolated("pure", _loc(snap, subj))
    if not analysis.closed(snap, snap.ref(bound.node_id)):
        return PreconditionViolated("closed", _loc(snap, subj))
    if not analysis.total(bound):
        return PreconditionViolated("pure", f"may raise or bind: {_loc(snap, subj)}")
    try:
        b = eval_condition(inst.ref_rule.condition, b, snap, target)
    except ConditionFailure as f:
        return PreconditionViolated(f.predicate, f.location)

    scope_ref = analysis.scope(snap, target)
    body_node = snap.node(scope_ref)
    ctx = SubstCtx.for_module(snap.module, freed=[subj])
    new_match = Match(PVar(name, node_id=ctx.fresh()), ctx.take(bound), node_id=ctx.fresh())
    return _bind_at_front(snap, body_node, new_match, subj,
                          substitute(inst.ref_rule.rhs, b, ctx), ctx)


def _introduce_outer_scope(inst: IntroduceVariable, snap: Snapshot,
                           target: NodeRef) -> StepOutcome:
    subj = snap.node(target)
    if not isinstance(subj, Match):
        return NotApplicable("target is not a variable binding")
    b = match_template(inst.ref_rule.lhs, subj)
    if b is None:
        return NotApplicable("reference rule does not match the target")
    pattern = b.get("Name")
    bound = b.get("E")
    if not isinstance(pattern, Node) or not isinstance(bound, Node):
        return NotApplicable("reference rule does not capture the binding")

    inner_ref = analysis.scope(snap, target)
    inner_body = snap.node(inner_ref)
    owner = snap.parent_of(inner_body.node_id)
    if isinstance(owner, FunDef):
        return NotApplicable("binding is already at function scope")
    # owner is the lambda whose body holds the binding
    try:
        outer_ref = analysis.scope(snap, snap.ref(owner.node_id))
    except NotApplicableError:
        return NotApplicable("no outer scope")
    outer_body = snap.node(outer_ref)

    fundef = snap.fundef_of(subj.node_id)
    for nm in analysis.pattern_vars(pattern):
        if analysis.occurs_var(nm, fundef, owner):
            return PreconditionViolated("fresh", f"{nm} in {_loc(snap, subj)}")
    if not analysis.pure(snap, snap.ref(bound.node_id)):
        return PreconditionViolated("pure", _loc(snap, subj))
    if not analysis.closed(snap, snap.ref(bound.node_id)):
        return PreconditionViolated("closed", _loc(snap, subj))
    # lifting changes how often and when the expression runs
    if not analysis.total(bound):
        return PreconditionViolated("pure", f"may raise or bind: {_loc(snap, subj)}")
    try:
        b = eval_condition(inst.ref_rule.condition, b, snap, target)
    except ConditionFailure as f:
        return PreconditionViolated(f.predicate, f.location)

    ctx = SubstCtx.for_module(snap.module, freed=[subj])
    new_match = Match(ctx.take(pattern), ctx.take(bound), node_id=ctx.fresh())
    return _bind_at_front(snap, outer_body, new_match, subj,
                          substitute(inst.ref_rule.rhs, b, ctx), ctx)


def _bind_at_front(snap: Snapshot, body: Body, binding: Match, subj: Node,
                   replacement: Node, ctx: SubstCtx) -> StepOutcome:
    """Put binding first in body and replacement in place of subj."""
    def edit(n: Node) -> Node:
        if n.node_id == subj.node_id:
            return replacement
        if n.node_id == body.node_id:
            return Body((binding,) + n.exprs, node_id=n.node_id)
        return n

    defs = tuple(rebuild(d, edit) for d in snap.module.definitions)
    return finish_step(ModuleAst(defs, ctx.gen.high), binding.node_id)


# ---------------------------------------------------------------------------
# Introduce function


def run_introduce_function(inst: IntroduceFunction, snap: Snapshot,
                           target: NodeRef) -> StepOutcome:
    subj = snap.node(target)
    if not (is_expr(subj) or isinstance(subj, Body)):
        return NotApplicable("target is not an expression or body")
    if not _NAME_RE.match(inst.name):
        return NotApplicable(f"invalid function name {inst.name!r}")
    key = FunKey(inst.name, len(inst.params))
    free = analysis.free_vars(snap, target)
    param_names = set(analysis.pattern_vars(list(inst.params)))
    missing = [v for v in free if v not in param_names]
    if missing:
        return PreconditionViolated("is_subset", f"free {', '.join(missing)} not in parameters")
    if snap.find_def(key) is not None:
        return PreconditionViolated("signature_clash", f"{key} already defined")
    # bindings made by the extracted code would die inside the new function
    if not analysis.non_bind(snap, target):
        return PreconditionViolated("non_bind", _loc(snap, subj))
    if inst.extra_condition.conjuncts:
        try:
            eval_condition(inst.extra_condition,
                           {"E": subj, "Params": tuple(inst.params), "Name": inst.name},
                           snap, target)
        except ConditionFailure as f:
            return PreconditionViolated(f.predicate, f.location)

    ctx = SubstCtx.for_module(snap.module, freed=[subj])
    def_params = tuple(ctx.take(p) for p in inst.params)
    if isinstance(subj, Body):
        def_body = ctx.take(subj)
    else:
        def_body = Body((ctx.take(subj),), node_id=ctx.fresh())
    new_def = FunDef(inst.name, def_params, def_body, node_id=ctx.fresh())
    call = StaticCall(inst.name,
                      tuple(pattern_to_expr(p, ctx.gen) for p in inst.params),
                      node_id=ctx.fresh())
    replacement: Node = call
    if isinstance(subj, Body):
        replacement = Body((call,), node_id=ctx.fresh())
    module = module_replace(snap.module, {subj.node_id: replacement}, ctx.gen.high)
    module = ModuleAst(module.definitions + (new_def,), module.next_node_id)
    return finish_step(module, new_def.node_id)


# ---------------------------------------------------------------------------
# Function refactoring


class _SiteFailure(Exception):
    def __init__(self, outcome: StepOutcome):
        self.outcome = outcome


def _replace_def(snap: Snapshot, d: FunDef, new_def: FunDef,
                 make: Callable[[StaticCall], Node], ctx: SubstCtx) -> StepOutcome:
    """Put new_def in place of d and rewrite every call to d with make,
    bottom-up, nested calls included; a site make rejects aborts the step."""
    key = FunKey(d.name, d.arity)

    def edit(n: Node) -> Node:
        return make(n) if is_call_to(n, key) else n

    try:
        new_def = rebuild(new_def, edit)
        defs = tuple(new_def if old.node_id == d.node_id else rebuild(old, edit)
                     for old in snap.module.definitions)
    except _SiteFailure as sf:
        return sf.outcome
    return finish_step(ModuleAst(defs, ctx.gen.high), d.node_id)


def run_function_refactoring(inst: FunctionRefactoring, snap: Snapshot,
                             target: NodeRef) -> StepOutcome:
    d = snap.node(target)
    if not isinstance(d, FunDef):
        return NotApplicable("target is not a function definition")
    b = match_template(inst.def_rule.lhs, d)
    if b is None:
        return NotApplicable("definition rule does not match")
    try:
        b = eval_condition(inst.def_rule.condition, b, snap, target)
    except ConditionFailure as f:
        return PreconditionViolated(f.predicate, f.location)

    old_key = FunKey(d.name, d.arity)
    # metavariables the reference rule re-inserts but does not itself match
    # hold code relocated from the definition to every call site
    relocated = template_metavars(inst.ref_rule.rhs) - template_metavars(inst.ref_rule.lhs)
    for mv in sorted(relocated):
        frag = b.get(mv)
        if not isinstance(frag, Node):
            continue
        if any(is_call_to(x, old_key) for x in walk(frag)):
            return PreconditionViolated(
                "no_self_reference",
                f"{old_key} called inside the relocated expression")
        # relocation to call sites changes the evaluation point
        if is_expr(frag) and not analysis.total(frag):
            return PreconditionViolated("pure", f"may raise or bind: {_loc(snap, d)}")

    refs = [snap.node(r) for r in analysis.references(snap, old_key)]
    ctx = SubstCtx.for_module(snap.module, freed=[d] + refs)
    new_params, new_body_exprs = substitute(inst.def_rule.rhs, b, ctx)
    if not new_body_exprs:
        return NotApplicable("resulting body would be empty")
    new_key = FunKey(d.name, len(new_params))
    if new_key != old_key:
        clash = snap.find_def(new_key)
        if clash is not None:
            return PreconditionViolated("signature_clash", f"{new_key} already defined")
    new_def = FunDef(d.name, new_params, Body(new_body_exprs, node_id=ctx.fresh()),
                     node_id=d.node_id)

    def rewrite_ref(call: StaticCall) -> StaticCall:
        rb = match_template(inst.ref_rule.lhs, call, b)
        if rb is None:
            raise _SiteFailure(NotApplicable(
                f"reference rule does not match {_loc(snap, call)}"))
        new_args = substitute(inst.ref_rule.rhs, rb, ctx)
        return StaticCall(call.name, new_args, node_id=call.node_id)

    return _replace_def(snap, d, new_def, rewrite_ref, ctx)


# ---------------------------------------------------------------------------
# Function signature refactoring


def run_signature_refactoring(inst: SignatureRefactoring, snap: Snapshot,
                              target: NodeRef) -> StepOutcome:
    d = snap.node(target)
    if not isinstance(d, FunDef):
        return NotApplicable("target is not a function definition")
    pre = inst.pre_binding or {}
    b = match_template(inst.head_rule.lhs, d, pre)
    if b is None:
        return NotApplicable("head rule does not match")
    try:
        b = eval_condition(inst.head_rule.condition, b, snap, target)
    except ConditionFailure as f:
        return PreconditionViolated(f.predicate, f.location)

    old_key = FunKey(d.name, d.arity)
    refs = [snap.node(r) for r in analysis.references(snap, old_key)]
    ctx = SubstCtx.for_module(snap.module, freed=list(d.params) + refs)
    new_name, new_params = substitute(inst.head_rule.rhs, b, ctx)
    if not _NAME_RE.match(new_name):
        return NotApplicable(f"invalid function name {new_name!r}")
    new_key = FunKey(new_name, len(new_params))
    if new_key != old_key and snap.find_def(new_key) is not None:
        return PreconditionViolated("signature_clash", f"{new_key} already defined")
    if not isinstance(inst.head_rule.rhs, SigTemplate):
        raise TemplateError("signature rule right side must be a signature")

    def rewrite_ref(call: StaticCall) -> StaticCall:
        rb = match_template(inst.head_rule.lhs, call, pre)
        if rb is None:
            raise _SiteFailure(NotApplicable(
                f"head rule does not match {_loc(snap, call)}"))
        try:
            rb = eval_condition(inst.head_rule.condition, rb, snap,
                                snap.ref(call.node_id))
        except ConditionFailure as f:
            raise _SiteFailure(PreconditionViolated(f.predicate, f.location))
        ref_name, ref_args = substitute(inst.head_rule.rhs, rb, ctx, "expr")
        return StaticCall(ref_name, ref_args, node_id=call.node_id)

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


def _parse_composite(name, argspec, body, selectors, steps) -> CompositeProgram:
    params = tuple(p.strip() for p in argspec.split(",") if p.strip())
    if not all(map(_VAR_RE.match, params)):
        raise CompositeError(f"composite parameters must be variables: {argspec!r}")
    assigned, out = {"THIS", *params}, []
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


def parse_scheme_instance(text: str, selectors: Optional[dict] = None,
                          steps: Optional[dict] = None):
    """Parse a scheme-instance block into (kind, name, instance factory).

    The factory takes the instance arguments named in the header (for
    example the variable name for extract_to_variable) and returns the
    SchemeInstance. Supported blocks mirror the fixed per-scheme formats
    with DEFINITION / REFERENCE / WHEN sections; an INTRODUCE block's
    DEFINITION is its scheme's fixed template, and its REFERENCE is an
    expression rule whose WHEN clause the instance keeps. A COMPOSITE
    block, one ``[Local :=] [ITERATE] op(Target, Arg, ..) [TRACED]`` step
    per line over the selectors and steps, two name -> callable(snap,
    target, *args) tables, parses to a CompositeProgram; a step's call is
    an expression parsed in meta mode.
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
    name, argspec, body = m.group(1), m.group(2).strip(), m.group(3)
    if kind == "local":
        rule = parse_rule_text(body, "expr")
        return kind, name, Local(rule)
    if kind == "signature":
        rule = parse_rule_text(body, "signature")
        return kind, name, SignatureRefactoring(rule)
    if kind in ("introduce_variable", "introduce_function"):
        sections = _split_sections(body, ("DEFINITION", "REFERENCE"))
        def_text = sections["DEFINITION"].strip()
        ref_rule = parse_rule_text(sections["REFERENCE"], "expr")
    if kind == "introduce_variable":
        m = re.fullmatch(r"IN\s+(OUTER\s+)?SCOPE\s+@?\w+\s*=\s*@?\w+", def_text)
        if not m:
            raise TemplateError(f"definition must be 'IN [OUTER] SCOPE Name = E': {def_text!r}")
        return kind, name, IntroduceVariable("outer_scope" if m.group(1) else "in_scope", ref_rule)
    if kind == "introduce_function":
        if not re.fullmatch(r"@?\w+\s*\(\s*@?\w+\.\.\.\s*\)\s*->\s*@?\w+\s*\.", def_text):
            raise TemplateError(f"definition must be 'Name(Params...) -> E .': {def_text!r}")

        def factory(fn_name: str, params: tuple[Pattern, ...]):
            return IntroduceFunction(fn_name, tuple(params), ref_rule.condition)

        return kind, name, factory
    if kind == "function":
        sections = _split_sections(body, ("DEFINITION", "REFERENCE", "WHEN"))
        def_rule = parse_rule_text(sections["DEFINITION"], "head")
        def_rule = replace(def_rule, condition=Condition.parse(sections.get("WHEN", "")))
        ref_rule = parse_rule_text(sections["REFERENCE"], "args")
        return kind, name, FunctionRefactoring(def_rule, ref_rule)
    if kind == "composite":
        return kind, name, _parse_composite(name, argspec, body,
                                             selectors or {}, steps or {})
    raise TemplateError(f"unhandled scheme kind {kind}")
