"""Concrete refactorings: six primes, two composites, and the composite
interpreter with all-or-nothing rollback.

Primes (each one scheme instance):

* wrap()                      -- encapsulate an expression in an applied lambda
* extract_to_variable(Name)   -- bind an expression at the front of its scope
* outer_variable()            -- lift a binding one scope outwards
* extract_to_function(N, Ps)  -- append a definition, call it in place
* var_to_param()              -- turn a leading binding into a parameter,
                                 passing the bound expression at call sites
* rename_function(NewName)    -- rename a definition and its references

Composites are COMPOSITE blocks, one step per line in the notation
``[Local :=] [ITERATE] op(Target, Arg, ..) [TRACED]``. An argument is a
local (capitalised; THIS is reassignable, the others are assigned once),
an atom, or a selector call. A selector yields a value; a prime or
composite yields an outcome, and ITERATE repeats it until it reports
NotApplicable. on_step sees the TRACED steps. The first failing step
aborts the whole composition and the caller keeps the pristine input.

generalise_function(ParamName) lifts a sub-expression of a function
body into a fresh parameter: the generalised definition gains one
parameter, and a fall-back definition with the original signature calls
it with the extracted expression packaged as a nullary lambda, so the
number and order of its side effects is preserved and existing callers
stay untouched.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import replace
from itertools import chain, count
from typing import Callable, Optional, Sequence

from . import analysis
from .analysis import FunKey, NodeRef, NotApplicableError, Snapshot, StaleRef
from .rewrite import (
    Applied, NotApplicable, PreconditionViolated, StepOutcome, is_applied,
)
from .schemes import (
    CompositeError, CompositeProgram, bind_args, parse_scheme_instance,
    run_function_refactoring, run_introduce_function, run_introduce_variable,
    run_local, run_signature_refactoring, signature_clash,
)
from .syntax import FunDef, Match, Node, Pattern, pretty_fragment


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

# the six primes as scheme-instance blocks, the one source of their rules
PRIME_BLOCKS = (
    "LOCAL REFACTORING wrap()\n" + WRAP_RULE_TEXT,
    "INTRODUCE VARIABLE extract_to_variable(Name)\n"
    "DEFINITION IN SCOPE\n@Name = @E\nREFERENCE\n" + EXTRACT_TO_VARIABLE_REF_TEXT,
    "INTRODUCE VARIABLE outer_variable()\n"
    "DEFINITION IN OUTER SCOPE\n@Name = @E\nREFERENCE\n" + OUTER_VARIABLE_REF_TEXT,
    "INTRODUCE FUNCTION extract_to_function(Name, Params...)\n"
    "DEFINITION\n@Name(@Params...) -> @E .\n"
    "REFERENCE\n@E\n-----\n@Name(@Params...)\n",
    "FUNCTION REFACTORING var_to_param()\n"
    "DEFINITION\n(@Args...) -> @X = @E, @Body...\n-----\n(@Args..., @X) -> @Body...\n"
    "REFERENCE\n(@Args2...)\n-----\n(@Args2..., @E)\n"
    "WHEN pure(@E) AND closed(@E)\n",
    "FUNCTION SIGNATURE REFACTORING rename_function(NewName)\n"
    "@Name(@Args...)\n-----\n@NewName(@Args...)\n",
)

(_WRAP_INSTANCE, _EXTRACT_VAR, _OUTER_VAR, _EXTRACT_FUN, _VAR_TO_PARAM,
 _RENAME) = (parse_scheme_instance(block)[2] for block in PRIME_BLOCKS)
WRAP_RULE = _WRAP_INSTANCE.rule


# ---------------------------------------------------------------------------
# Primes


def wrap(snap: Snapshot, target: NodeRef) -> StepOutcome:
    """Replace E by ``(fun(Vs) -> E end)(Vs)``, Vs = free variables of E."""
    return run_local(_WRAP_INSTANCE, snap, target)


def extract_to_variable(snap: Snapshot, target: NodeRef, name: str) -> StepOutcome:
    return run_introduce_variable(_EXTRACT_VAR, snap, target, name)


def outer_variable(snap: Snapshot, target: NodeRef) -> StepOutcome:
    return run_introduce_variable(_OUTER_VAR, snap, target)


def extract_to_function(snap: Snapshot, target: NodeRef, name: str,
                        params: Sequence[Pattern]) -> StepOutcome:
    return run_introduce_function(_EXTRACT_FUN, snap, target, name, params)


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
    return run_signature_refactoring(_RENAME, snap, fn, new_name)


# ---------------------------------------------------------------------------
# Composite programs


COMPOSITE_BLOCKS = (
    """\
COMPOSITE to_function_parameter()
THIS := ITERATE outer_variable(THIS)
Fn := function(THIS)
var_to_param(Fn, THIS)
""",
    """\
COMPOSITE generalise_function(ParamName)
THIS := wrap(THIS) TRACED
THIS := function_part(THIS) TRACED
Old := function(THIS)
Name := name(Old)
Params := function_params(Old)
OldBody := body(Old)
New := extract_to_function(OldBody, fresh_fun_name(tmp, Params), Params) TRACED
Var := extract_to_variable(THIS, ParamName) TRACED
to_function_parameter(Var) TRACED
rename_function(New, Name) TRACED
""",
)

TraceFn = Callable[[int, str, tuple[str, ...], Snapshot], None]


def _fresh_fun_name(snap: Snapshot, base: str, params: Sequence[Pattern]) -> str:
    """The first of base, base1, base2, .. neither defined nor called at
    len(params)."""
    names = chain([base], (f"{base}{i}" for i in count(1)))
    return next(n for n in names if signature_clash(snap, FunKey(n, len(params))) is None)


def _text(snap: Snapshot, v) -> str:
    """A step argument (a name, a node, or a tuple of them) as object-language text."""
    if isinstance(v, tuple):
        return "(" + ", ".join(_text(snap, x) for x in v) + ")"
    if isinstance(v, NodeRef):
        v = snap.node(v)
    if isinstance(v, Node):
        return pretty_fragment(v)
    return str(v)


class _Runner:
    """Runs a composite over a current snapshot. Snapshots are immutable, so
    a failed run leaves the caller's input snapshot as it was: rollback is
    keeping the original reference, byte-identical when printed. A
    NotApplicableError or StaleRef (a consumed node) fails the step."""

    def __init__(self, current: Snapshot, on_step: Optional[TraceFn], fail_at: Optional[int]):
        self.current = current
        self.on_step = on_step
        self.fail_at = fail_at

    def run(self, program: CompositeProgram, target: NodeRef,
            args: Sequence[object]) -> StepOutcome:
        locals_ = {"THIS": target, **bind_args(program.params, args)}
        result, traced_count = target, 0
        for idx, (assign, iterate, (op, terms), traced) in enumerate(program.steps, 1):
            if traced:
                traced_count += 1
                if traced_count == self.fail_at:
                    return PreconditionViolated("injected", f"step {traced_count}", step=idx)
            before = self.current
            try:
                values = [self.value(t, locals_) for t in terms]
                got = (_SELECTORS[op](before, *values) if op in _SELECTORS
                       else self.apply(_STEPS[op], values, iterate, locals_))
            except (NotApplicableError, StaleRef) as exc:
                got = NotApplicable(str(exc))
            if isinstance(got, (NotApplicable, PreconditionViolated)):
                return replace(got, step=idx, step_name=got.step_name or op)
            if isinstance(got, Applied):
                got = result = got.result
            if assign:
                locals_[assign] = got
            if traced and self.on_step:
                self.on_step(traced_count, op,
                             tuple(_text(before, v) for v in values[1:]), self.current)
        return Applied(self.current, result)

    def value(self, term, locals_: dict):
        if isinstance(term, tuple):
            op, terms = term
            return _SELECTORS[op](self.current, *(self.value(t, locals_) for t in terms))
        return locals_.get(term, term)  # an atom never names a local

    def apply(self, fn: Callable, values: list, iterate: bool,
              locals_: dict) -> StepOutcome:
        """Run a prime or composite; ITERATE reruns it on its own result
        until it reports NotApplicable."""
        while True:
            outcome = fn(self.current, *values)
            if not is_applied(outcome):
                if iterate and isinstance(outcome, NotApplicable):
                    return Applied(self.current, values[0])
                return outcome
            for k, v in locals_.items():
                if isinstance(v, NodeRef) and v.version == self.current.version:
                    with suppress(StaleRef):  # a node the step consumed stays stale
                        locals_[k] = outcome.snapshot.ref(v.node_id)
            self.current = outcome.snapshot
            if not iterate:
                return outcome
            values = [outcome.result, *values[1:]]


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

    on_step receives (index, op, args, snapshot) after each of the six
    traced steps, args being the step's arguments after its target as
    object-language text; fail_at forces the traced step with that index
    to fail (a test hook exercising rollback).
    """
    return run_composite(GENERALISE_FUNCTION, snap, target, (param_name,),
                         on_step=on_step, fail_at=fail_at)


# selectors: name -> callable(snap, target, *args) -> value
_SELECTORS = {
    "function_part": analysis.function_part,
    "function": analysis.function,
    "name": analysis.name,
    "function_params": analysis.function_params,
    "body": analysis.body,
    "fresh_fun_name": _fresh_fun_name,
}

# primes and composites: name -> callable(snap, target, *args) -> StepOutcome
_STEPS = {
    "wrap": wrap,
    "extract_to_variable": extract_to_variable,
    "outer_variable": outer_variable,
    "extract_to_function": extract_to_function,
    "var_to_param": var_to_param,
    "rename_function": rename_function,
    "to_function_parameter": to_function_parameter,
}


def parse_composite(text: str) -> CompositeProgram:
    """A COMPOSITE block over this module's selectors, primes and composites."""
    return parse_scheme_instance(text, _SELECTORS, _STEPS)[2]


TO_FUNCTION_PARAMETER, GENERALISE_FUNCTION = map(parse_composite, COMPOSITE_BLOCKS)
