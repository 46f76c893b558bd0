"""Concrete refactorings: six primes, two composites, and the composite
interpreter with all-or-nothing rollback.

Primes (each one scheme instance):

* wrap()                      -- encapsulate an expression in an applied lambda
* extract_to_variable(Name)   -- bind an expression at the front of its scope
* outer_variable()            -- lift a binding one scope outwards
* extract_to_function(N, Ps)  -- append a definition, call it in place
* var_to_param(X)             -- turn a leading binding into a parameter,
                                 passing the bound expression at call sites
* rename_function(NewName)    -- rename a definition and its references

Composites are step sequences threading a reassignable THIS plus
single-assignment named locals; ITERATE repeats a step until it reports
NotApplicable. The first failing step aborts the whole composition and
the caller keeps the pristine input snapshot.

generalise_function(ParamName) lifts a sub-expression of a function
body into a fresh parameter: the generalised definition gains one
parameter, and a fall-back definition with the original signature calls
it with the extracted expression packaged as a nullary lambda, so the
number and order of its side effects is preserved and existing callers
stay untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

from . import analysis
from .analysis import FunKey, NodeRef, NotApplicableError, Snapshot, StaleRef
from .rewrite import (
    Applied, NotApplicable, PreconditionViolated, StepOutcome, is_applied,
)
from .schemes import (
    parse_scheme_instance, run_function_refactoring, run_introduce_function,
    run_introduce_variable, run_local, run_signature_refactoring,
)
from .syntax import FunDef, Match, Pattern


# ---------------------------------------------------------------------------
# Rule literals


WRAP_RULE_TEXT = """\
@E
-----
(fun(@Vars...) -> @E end)(@Vars...)
WHEN @Vars... = free_vars(@E) AND non_bind(@E)
"""

EXTRACT_TO_VARIABLE_REF_TEXT = """\
@E
-----
@Name
"""

OUTER_VARIABLE_REF_TEXT = """\
@Name = @E
-----
@Name
"""

VAR_TO_PARAM_DEF_TEXT = """\
(@Args...) -> @X = @E, @Body...
-----
(@Args..., @X) -> @Body...
"""

VAR_TO_PARAM_REF_TEXT = """\
(@Args2...)
-----
(@Args2..., @E)
"""

VAR_TO_PARAM_CONDITION = "pure(@E) AND closed(@E)"

RENAME_FUNCTION_RULE_TEXT = """\
@Name(@Args...)
-----
@NewName(@Args...)
"""

# the six primes as scheme-instance blocks, the one source of their rules
PRIME_BLOCKS = (
    "LOCAL REFACTORING wrap()\n" + WRAP_RULE_TEXT,
    "INTRODUCE VARIABLE extract_to_variable(Name)\n"
    "DEFINITION IN SCOPE\n@Name = @E\nREFERENCE\n" + EXTRACT_TO_VARIABLE_REF_TEXT,
    "INTRODUCE VARIABLE outer_variable()\n"
    "DEFINITION IN OUTER SCOPE\n@Name = @E\nREFERENCE\n" + OUTER_VARIABLE_REF_TEXT,
    # no WHEN is_subset(free_vars(@E), vars(@Params...)): the scheme
    # itself checks that the parameters cover the free variables
    "INTRODUCE FUNCTION extract_to_function(Name, Params...)\n"
    "DEFINITION\n@Name(@Params...) -> @E .\n"
    "REFERENCE\n@E\n-----\n@Name(@Params...)\n",
    "FUNCTION REFACTORING var_to_param(X)\n"
    "DEFINITION\n" + VAR_TO_PARAM_DEF_TEXT + "REFERENCE\n" + VAR_TO_PARAM_REF_TEXT
    + "WHEN " + VAR_TO_PARAM_CONDITION + "\n",
    "FUNCTION SIGNATURE REFACTORING rename_function(NewName)\n" + RENAME_FUNCTION_RULE_TEXT,
)

(_WRAP_INSTANCE, _EXTRACT_VAR, _OUTER_VAR, _EXTRACT_FUN, _VAR_TO_PARAM,
 _RENAME) = (parse_scheme_instance(block)[2] for block in PRIME_BLOCKS)
WRAP_RULE = _WRAP_INSTANCE.rule
_EXTRACT_VAR_REF_RULE = _EXTRACT_VAR.ref_rule
_OUTER_VAR_REF_RULE = _OUTER_VAR.ref_rule
_RENAME_RULE = _RENAME.head_rule


# ---------------------------------------------------------------------------
# Primes


def wrap(snap: Snapshot, target: NodeRef) -> StepOutcome:
    """Replace E by ``(fun(Vs) -> E end)(Vs)``, Vs = free variables of E."""
    return run_local(_WRAP_INSTANCE, snap, target)


def extract_to_variable(snap: Snapshot, target: NodeRef, name: str) -> StepOutcome:
    return run_introduce_variable(replace(_EXTRACT_VAR, name=name), snap, target)


def outer_variable(snap: Snapshot, target: NodeRef) -> StepOutcome:
    return run_introduce_variable(_OUTER_VAR, snap, target)


def extract_to_function(snap: Snapshot, target: NodeRef, name: str,
                        params: Sequence[Pattern]) -> StepOutcome:
    return run_introduce_function(_EXTRACT_FUN(name, params), snap, target)


def var_to_param(snap: Snapshot, fn: NodeRef, match_node: NodeRef) -> StepOutcome:
    """The targeted match must be the first body element of fn."""
    d = snap.node(fn)
    if not isinstance(d, FunDef):
        return NotApplicable("target is not a function definition")
    m = snap.node(match_node)
    if not isinstance(m, Match) or not d.body.exprs or d.body.exprs[0] is not m:
        return NotApplicable("binding is not the first body element")
    return run_function_refactoring(_VAR_TO_PARAM, snap, fn)


def rename_function(snap: Snapshot, fn: NodeRef, new_name: str) -> StepOutcome:
    inst = replace(_RENAME, pre_binding={"NewName": new_name})
    return run_signature_refactoring(inst, snap, fn)


# ---------------------------------------------------------------------------
# Composite programs


@dataclass(frozen=True)
class Lit:
    value: object


@dataclass(frozen=True)
class LocalVar:
    name: str


@dataclass(frozen=True)
class FreshFunName:
    """Resolves to the first of base, base1, base2, .. undefined at the
    needed arity (taken from the local holding the parameter patterns)."""

    base: str = "tmp"
    params_local: str = "Params"


Arg = Union[Lit, LocalVar, FreshFunName]


@dataclass(frozen=True)
class Step:
    op: str
    target: str = "THIS"
    args: tuple[Arg, ...] = ()
    assign: Optional[str] = None
    iterate: bool = False
    trace_as: Optional[str] = None


@dataclass(frozen=True)
class CompositeProgram:
    name: str
    params: tuple[str, ...]
    steps: tuple[Step, ...]


class CompositeError(Exception):
    pass


TraceFn = Callable[[int, str, tuple, Snapshot], None]

# selector registry: name -> callable(snap, target_ref, *args) -> value
_SELECTORS = {
    "function_part": analysis.function_part,
    "function": analysis.function,
    "name": analysis.name,
    "function_params": analysis.function_params,
    "body": analysis.body,
}

# prime registry: name -> callable(snap, target_ref, *args) -> StepOutcome
_PRIMES = {
    "wrap": wrap,
    "extract_to_variable": extract_to_variable,
    "outer_variable": outer_variable,
    "extract_to_function": extract_to_function,
    "var_to_param": lambda snap, target, fn: var_to_param(snap, fn, target),
    "rename_function": rename_function,
}


TO_FUNCTION_PARAMETER = CompositeProgram(
    "to_function_parameter",
    params=(),
    steps=(
        Step("outer_variable", target="THIS", assign="THIS", iterate=True),
        Step("function", target="THIS", assign="Fn"),
        # var_to_param targets the enclosing function, passing the binding
        Step("var_to_param", target="THIS", args=(LocalVar("Fn"),)),
    ),
)

GENERALISE_FUNCTION = CompositeProgram(
    "generalise_function",
    params=("ParamName",),
    steps=(
        Step("wrap", target="THIS", assign="THIS", trace_as="wrap"),
        Step("function_part", target="THIS", assign="THIS", trace_as="function_part"),
        Step("function", target="THIS", assign="Old"),
        Step("name", target="Old", assign="Name"),
        Step("function_params", target="Old", assign="Params"),
        Step("body", target="Old", assign="OldBody"),
        Step("extract_to_function", target="OldBody",
             args=(FreshFunName("tmp", "Params"), LocalVar("Params")),
             assign="New", trace_as="extract_to_function"),
        Step("extract_to_variable", target="THIS", args=(LocalVar("ParamName"),),
             assign="Var", trace_as="extract_to_variable"),
        Step("to_function_parameter", target="Var",
             trace_as="to_function_parameter"),
        Step("rename_function", target="New", args=(LocalVar("Name"),),
             trace_as="rename_function"),
    ),
)

_COMPOSITES = {
    "to_function_parameter": TO_FUNCTION_PARAMETER,
}


def _fresh_fun_name(snap: Snapshot, base: str, arity: int) -> str:
    if snap.find_def(FunKey(base, arity)) is None:
        return base
    i = 1
    while snap.find_def(FunKey(f"{base}{i}", arity)) is not None:
        i += 1
    return f"{base}{i}"


class _Runner:
    """Runs a composite over a current snapshot. Snapshots are immutable, so
    a failed run leaves the caller's input snapshot as it was: rollback is
    keeping the original reference, byte-identical when printed."""

    def __init__(self, snap: Snapshot, on_step: Optional[TraceFn],
                 fail_at: Optional[int]):
        self.current = snap
        self.on_step = on_step
        self.fail_at = fail_at
        self.trace_count = 0

    def run(self, program: CompositeProgram, target: NodeRef,
            args: Sequence[object], *, toplevel: bool = True) -> StepOutcome:
        if len(args) != len(program.params):
            raise CompositeError(
                f"{program.name} expects {len(program.params)} argument(s)")
        locals_: dict[str, object] = {"THIS": target}
        locals_.update(zip(program.params, args))
        assigned = set(locals_)
        last_result = target

        for idx, step in enumerate(program.steps, start=1):
            traced = step.trace_as is not None and toplevel
            if traced:
                self.trace_count += 1
            if traced and self.fail_at == self.trace_count:
                return PreconditionViolated("injected", f"step {self.trace_count}", step=idx)
            outcome = self._run_step(program, step, locals_, assigned, idx)
            if outcome is not None:
                if not is_applied(outcome):
                    return outcome
                last_result = outcome.result
            if traced and self.on_step:
                self.on_step(self.trace_count, step.trace_as,
                             tuple(self._fmt_arg(a, locals_) for a in step.args),
                             self.current)
        return Applied(self.current, self._rehomed(last_result))

    def _rehomed(self, ref: NodeRef) -> NodeRef:
        try:
            return self.current.ref(ref.node_id)
        except StaleRef:
            ds = self.current.module.definitions
            return self.current.ref(ds[-1].node_id)

    def _fmt_arg(self, a: Arg, locals_: dict):
        if isinstance(a, Lit):
            return a.value
        if isinstance(a, LocalVar):
            return locals_.get(a.name)
        return a

    def _resolve_args(self, step: Step, locals_: dict) -> list[object]:
        out = []
        for a in step.args:
            if isinstance(a, Lit):
                out.append(a.value)
            elif isinstance(a, LocalVar):
                if a.name not in locals_:
                    raise CompositeError(f"local {a.name} used before assignment")
                out.append(locals_[a.name])
            elif isinstance(a, FreshFunName):
                params = locals_.get(a.params_local, ())
                out.append(_fresh_fun_name(self.current, a.base, len(params)))
            else:
                raise CompositeError(f"unknown argument kind {a!r}")
        return out

    def _assign(self, step: Step, locals_: dict, assigned: set, value):
        if step.assign is None:
            return
        if step.assign != "THIS" and step.assign in assigned:
            raise CompositeError(f"local {step.assign} assigned twice")
        locals_[step.assign] = value
        assigned.add(step.assign)

    def _run_step(self, program: CompositeProgram, step: Step, locals_: dict,
                  assigned: set, idx: int) -> Optional[StepOutcome]:
        if step.target not in locals_:
            raise CompositeError(f"local {step.target} used before assignment")
        target = locals_[step.target]
        if not isinstance(target, NodeRef):
            raise CompositeError(f"local {step.target} does not hold a node reference")
        args = self._resolve_args(step, locals_)

        if step.op in _SELECTORS:
            try:
                value = _SELECTORS[step.op](self.current, target, *args)
            except (NotApplicableError, StaleRef) as exc:
                return NotApplicable(str(exc), step=idx)
            self._assign(step, locals_, assigned, value)
            return None

        if step.op in _COMPOSITES:
            sub = _COMPOSITES[step.op]
            before = self.current
            outcome = self.run(sub, target, args, toplevel=False)
            if not is_applied(outcome):
                return type(outcome)(**{**outcome.__dict__, "step": idx,
                                        "step_name": outcome.step_name or step.op})
            self._rehome_locals(locals_, before, outcome.snapshot)
            self._assign(step, locals_, assigned, outcome.result)
            return outcome

        if step.op in _PRIMES:
            if step.iterate:
                current_target = target
                while True:
                    outcome = _PRIMES[step.op](self.current, current_target, *args)
                    if isinstance(outcome, NotApplicable):
                        break
                    if isinstance(outcome, PreconditionViolated):
                        return PreconditionViolated(outcome.predicate, outcome.location,
                                                    step=idx, step_name=step.op)
                    before = self.current
                    self.current = outcome.snapshot
                    self._rehome_locals(locals_, before, outcome.snapshot)
                    current_target = outcome.result
                self._assign(step, locals_, assigned, current_target)
                return Applied(self.current, current_target)
            outcome = _PRIMES[step.op](self.current, target, *args)
            if not is_applied(outcome):
                return type(outcome)(**{**outcome.__dict__, "step": idx,
                                        "step_name": step.op})
            before = self.current
            self.current = outcome.snapshot
            self._rehome_locals(locals_, before, outcome.snapshot)
            self._assign(step, locals_, assigned, outcome.result)
            return outcome

        raise CompositeError(f"unknown operation {step.op!r}")

    def _rehome_locals(self, locals_: dict, before: Snapshot, after: Snapshot):
        for k, v in list(locals_.items()):
            if isinstance(v, NodeRef) and v.version == before.version:
                try:
                    locals_[k] = after.ref(v.node_id)
                except StaleRef:
                    pass  # the node was consumed by the step; leave it stale


def run_composite(program: CompositeProgram, snap: Snapshot, target: NodeRef,
                  args: Sequence[object] = (), *, on_step: Optional[TraceFn] = None,
                  fail_at: Optional[int] = None) -> StepOutcome:
    """Run a composite program; on failure the input snapshot is untouched
    and the outcome carries the 1-based index of the failing step."""
    return _Runner(snap, on_step, fail_at).run(program, target, args)


def to_function_parameter(snap: Snapshot, match_node: NodeRef, *,
                          on_step: Optional[TraceFn] = None,
                          fail_at: Optional[int] = None) -> StepOutcome:
    """Lift a binding to the function scope, then into the parameter list."""
    return run_composite(TO_FUNCTION_PARAMETER, snap, match_node,
                         on_step=on_step, fail_at=fail_at)


def generalise_function(snap: Snapshot, target: NodeRef, param_name: str, *,
                        on_step: Optional[TraceFn] = None,
                        fail_at: Optional[int] = None) -> StepOutcome:
    """Generalise the function enclosing the target expression.

    on_step receives (index, label, args, snapshot) after each of the six
    traced steps; fail_at forces the step with that index to fail (a test
    hook exercising rollback).
    """
    return run_composite(GENERALISE_FUNCTION, snap, target, (param_name,),
                         on_step=on_step, fail_at=fail_at)
