"""The three refactoring scheme engines.

A scheme is a rule plus a strategy for where it applies. Every instance
is one record, ``Instance``, and one of three engines runs it:

* local -- the rule rewrites the selected node;
* introduce -- the rule, the block's REFERENCE, rewrites the target, and
  the DEFINITION is placed by the instance's site: a binding template
  such as ``@Name = @E`` at the front of the target's scope
  ("in_scope") or of the next outer scope ("outer_scope"), or a function
  definition template such as ``@Name(@Params...) -> @E .`` at the
  module's end ("module_end", which the parser sets for INTRODUCE
  FUNCTION);
* function-wide -- the rule rewrites a function definition, and the
  call rule every call of it, all or nothing. A function refactoring's
  rule is a clause on the definition's (params, body) pair and its call
  rule one on the argument list; a function signature refactoring's
  one rule on the signature is both, matched afresh at every call. A
  new signature must not already exist.

An instance is its block. Each engine takes the step's arguments after
its target and binds them by position to the header's names (a
``Name...`` binds a tuple) before it matches. The parser puts a scheme's
own side conditions into the instance's condition as WHEN text:
introduce variable's ``fresh(@Name) AND pure(@E) AND closed(@E) AND
total(@E)`` and introduce function's ``is_subset(free_vars(@E),
vars(@Params...)) AND non_bind(@E)`` ahead of the WHEN, and a function
refactoring's ``relocatable(@M)``, for each metavariable @M that its
REFERENCE moves from the definition to the call sites, after it. Four
checks stay in Python, each in the strategy that needs it: a new
function's ``signature_clash``, the outer scope's freshness of the
lifted names, and at the module end a parameter ``bound`` where the
call passes it and a call that replaces a ``Body`` target.

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
    StepOutcome, SubstCtx, TemplateError, UnboundMetavariable, _locate,
    _lookup_seq, _subst_name, apply_rule, eval_condition, finish_step,
    match_template, parse_rule_text, parse_template_def, parse_template_expr,
    reports_violations, subst_fragment, subst_seq, substitute, template_metavars,
)
from .syntax import (
    KEYWORDS, AtomLit, Body, FunDef, Match, MetaSeq, ModuleAst, Node,
    ParseError, Record, StaticCall, VarRef, edit_definitions, is_expr,
    node_ids, parse_expr_text, pretty_expr, rebuild, record, walk,
)


# ---------------------------------------------------------------------------
# Scheme instances


@record
class Instance(Record):
    """A scheme instance: its header's names and its rule, applied at the
    target. An introduce instance also has its DEFINITION template and
    site; a function-wide one the rule applied at every call, which is
    the rule itself in a signature refactoring."""

    rule: RewriteRule
    params: tuple[str, ...] = ()
    definition: Optional[Node] = None  # a Match, or a FunDef at the module end
    site: Optional[str] = None  # "in_scope" | "outer_scope" | "module_end"
    call_rule: Optional[RewriteRule] = None


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

# each INTRODUCE site's side conditions, put ahead of the instance's
# WHEN. A variable's binding moves to the scope front, so its expression
# must emit nothing and provably evaluate to a value (raising earlier
# would truncate the trace of the code it jumps ahead of); lifted out of a
# lambda, fresh(@Name) would find the binding itself, so the engine checks
# the code outside the lambda. A function's parameters must cover the
# free variables, and bindings made by the extracted code would die in it.
_SCHEME_WHEN = {
    "in_scope": "fresh(@Name) AND pure(@E) AND closed(@E) AND total(@E)",
    "outer_scope": "pure(@E) AND closed(@E) AND total(@E)",
    "module_end": "is_subset(free_vars(@E), vars(@Params...)) AND non_bind(@E)",
}

# each INTRODUCE site's targets, and the refusal of any other
_SITE_TARGETS = {
    "in_scope": (is_expr, "target is not an expression"),
    "outer_scope": (lambda n: type(n) is Match, "target is not a variable binding"),
    "module_end": (lambda n: is_expr(n) or type(n) is Body,
                   "target is not an expression or body"),
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
    ``Name...`` binds a tuple, and a step given anything but a tuple or
    a list for it does not apply."""
    if len(args) != len(params):
        raise TemplateError(f"the block takes {len(params)} argument(s), got {len(args)}")
    b = {}
    for p, a in zip(params, args):
        if p.endswith("...") and not isinstance(a, (tuple, list)):
            raise UnboundMetavariable(f"{p} needs a sequence, got a {type(a).__name__}")
        b[p.removesuffix("...")] = tuple(a) if p.endswith("...") else a
    return b


# ---------------------------------------------------------------------------
# Local


@reports_violations
def run_local(inst: Instance, snap: Snapshot, target: NodeRef, *args) -> StepOutcome:
    return apply_rule(inst.rule, snap, target, bind_args(inst.params, args))


# ---------------------------------------------------------------------------
# Introduce


@reports_violations
def run_introduce(inst: Instance, snap: Snapshot, target: NodeRef, *args) -> StepOutcome:
    pre = bind_args(inst.params, args)
    subj, site = snap.node(target), inst.site
    takes, refusal = _SITE_TARGETS[site]
    if not takes(subj):
        return NotApplicable(refusal)
    function = site == "module_end"
    if function:
        name = _subst_name(inst.definition.name, pre)
        if not _NAME_RE.match(name):
            return NotApplicable(f"invalid function name {name!r}")
    elif site == "in_scope":
        name = _subst_name("@Name", pre)
        if not _VAR_RE.match(name):
            return NotApplicable(f"invalid variable name {name!r}")
    b = match_template(inst.rule.lhs, subj, pre)
    if b is None:
        return NotApplicable("reference rule does not match the target")
    if not (isinstance(b.get("E"), Node)
            and (function or isinstance(b.get("Name"), (str, Node)))):
        return NotApplicable("reference rule does not capture "
                             + ("@E" if function else "@Name and @E"))

    dest = None if function else analysis.scope(snap, target)
    if site == "outer_scope":
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
    b = eval_condition(inst.rule.condition, b, snap, target)

    ctx = SubstCtx.for_snapshot(snap, freed=[subj])
    new = subst_fragment(inst.definition, b, ctx, "expr")
    clash = signature_clash(snap, FunKey(new.name, new.arity)) if function else None
    if clash is not None:
        return clash
    replacement = substitute(inst.rule.rhs, b, ctx)
    if type(subj) is Body:
        # a Body target is the new definition's body (see subst_fragment),
        # and what replaces it must be a Body too
        replacement = Body((replacement,), node_id=ctx.fresh())

    dest_id = None if dest is None else dest.node_id

    def edit(n: Node) -> Node:
        if n.node_id == subj.node_id:
            return replacement
        if n.node_id == dest_id:
            return Body((new,) + n.exprs, node_id=n.node_id)
        return n

    holder = rebuild(snap.fundef_of(subj.node_id), edit)  # dest's too
    if function:
        # a parameter must be bound where the call passes it
        passed = node_ids(replacement)
        for o in analysis.resolve(holder).occurrences:
            if o.kind == "unbound" and o.node_id in passed:
                return PreconditionViolated("bound", _locate(snap, target, o.name))
    defs = edit_definitions(snap.module, {holder.node_id}, lambda d: holder)
    return finish_step(snap, ModuleAst(defs + ((new,) if function else ()), ctx.gen.high),
                       new.node_id)


# ---------------------------------------------------------------------------
# Function-wide


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


def _length(seq: Sequence[Node], b: Binding) -> int:
    """How many nodes substituting a template sequence makes."""
    return sum(len(_lookup_seq(b, x.name)) if type(x) is MetaSeq else 1 for x in seq)


@reports_violations
def run_function_wide(inst: Instance, snap: Snapshot, target: NodeRef, *args) -> StepOutcome:
    pre = bind_args(inst.params, args)
    d = snap.node(target)
    if not isinstance(d, FunDef):
        return NotApplicable("target is not a function definition")
    # a signature rule, name(P...), rewrites the head and every call and
    # keeps the body; a function refactoring's clause, (P...) -> B...,
    # rewrites the parameters and body and keeps the name
    signature = inst.call_rule is inst.rule
    b = match_template(inst.rule.lhs, d, pre)
    if b is None:
        return NotApplicable(f"{'head' if signature else 'definition'} rule does not match")
    b = eval_condition(inst.rule.condition, b, snap, target)

    rhs = inst.rule.rhs
    name, params = (_subst_name(rhs.name, b), rhs.args) if signature else (d.name, rhs.params)
    new_key = FunKey(name, _length(params, b))
    if not signature and not _length(rhs.body.exprs, b):
        return NotApplicable("resulting body would be empty")
    if signature and not _NAME_RE.match(name):
        return NotApplicable(f"invalid function name {name!r}")
    # the new key is known before the callers are walked, so a clash is
    # refused in time independent of their number
    old_key = FunKey(d.name, d.arity)
    clash = signature_clash(snap, new_key) if new_key != old_key else None
    if clash is not None:
        return clash
    refs = [snap.node(r) for r in analysis.references(snap, old_key)]
    ctx = SubstCtx.for_snapshot(snap, freed=(list(d.params) if signature else [d]) + refs)
    new_params = subst_seq(params, b, ctx, "pattern")
    body = d.body if signature else Body(subst_seq(rhs.body.exprs, b, ctx, "expr"),
                                         node_id=ctx.fresh())
    new_def = FunDef(name, new_params, body, node_id=d.node_id)
    # matched afresh at each call, a signature rule starts from the
    # header's arguments; a function refactoring's call rule uses what
    # the definition rule bound
    call_rule, start = inst.call_rule, pre if signature else b
    call_args = call_rule.rhs.args if signature else call_rule.rhs

    def rewrite_call(call: StaticCall) -> StaticCall:
        rb = match_template(call_rule.lhs, call, start)
        if rb is None:
            raise _SiteFailure(NotApplicable(
                f"{'head' if signature else 'reference'} rule does not match "
                f"{_site(snap, call)}"))
        rb = eval_condition(call_rule.condition, rb, snap, NodeRef(snap.version, call.node_id))
        return StaticCall(name, subst_seq(call_args, rb, ctx, "expr"), node_id=call.node_id)

    return _replace_def(snap, d, new_def, rewrite_call, ctx)


# perfbench/tracer.py wraps the engines under the names they had when
# each scheme had its own
run_introduce_variable = run_introduce_function = run_introduce
run_function_refactoring = run_signature_refactoring = run_function_wide


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
    function definition template, placed at the module end. An INTRODUCE
    block's REFERENCE is an expression rule, and its WHEN clause is
    evaluated after the scheme's own side conditions (see the module
    docstring). Every block's header names, such as ``(Name,
    Params...)``, are the instance's ``params``.

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
        return kind, name, Instance(parse_rule_text(body, "expr"), params)
    if kind == "signature":
        rule = parse_rule_text(body, "signature")
        return kind, name, Instance(rule, params, call_rule=rule)
    if kind == "function":
        sections = _split_sections(body, ("DEFINITION", "REFERENCE", "WHEN"))
        ref_rule = parse_rule_text(sections["REFERENCE"], "args")
        def_rule = _with_condition(parse_rule_text(sections["DEFINITION"], "head"),
                                   Condition.parse(sections.get("WHEN", "")),
                                   _relocation_checks(ref_rule))
        return kind, name, Instance(def_rule, params, call_rule=ref_rule)
    if kind == "composite":
        return kind, name, _parse_composite(name, params, body,
                                             selectors or {}, steps or {})
    sections = _split_sections(body, ("DEFINITION", "REFERENCE"))
    ref_rule = parse_rule_text(sections["REFERENCE"], "expr")
    try:
        if kind == "introduce_function":
            site, definition = "module_end", parse_template_def(sections["DEFINITION"])
            _check_reference_calls(definition, ref_rule)
        else:
            where, _, def_text = sections["DEFINITION"].partition("SCOPE")
            site = _PLACEMENTS.get(" ".join(where.split()))
            definition = parse_template_expr(def_text)
            if site is None or type(definition) is not Match:
                raise TemplateError("definition must be 'IN [OUTER] SCOPE Pattern = Expr'")
    except ParseError as err:
        raise TemplateError(f"cannot parse definition: {err}") from None
    ref_rule = _with_condition(ref_rule, Condition.parse(_SCHEME_WHEN[site]), ref_rule.condition)
    return kind, name, Instance(ref_rule, params, definition, site)
