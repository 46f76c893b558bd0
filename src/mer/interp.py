"""Operational semantics for the object language.

Big-step evaluator threading an explicit variable environment and an
append-only side-effect trace through a fuel-bounded run:

* arguments evaluate eagerly left to right, and match right-hand sides
  evaluate before the pattern binds (the value of a match is the value
  of its right-hand side);
* ``begin .. end`` is transparent: bindings made inside leak out;
* a call binds the parameters in a fresh (static call) or captured
  (closure) environment, evaluates the body there, and the caller's
  environment is untouched afterwards;
* ``print(E)`` appends E's value to the trace and returns it;
* environments are single assignment: re-matching a bound name against
  an equal value succeeds, an unequal value raises badmatch.

Closures capture the bindings for the variable names occurring under
the lambda (minus its parameters); with static scoping this is
observationally the same as capturing everything, and it keeps the
structural comparison of closure values meaningful across refactored
trees. Values and environments are never mutated; exception outcomes
carry the trace accumulated strictly before the raise, and running out
of fuel is a distinct Timeout outcome, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .syntax import (
    AtomLit, BinOp, Block, Body, DynCall, Expr, FunDef, IntLit, Lambda,
    Match, ModuleAst, PAtom, PInt, PTuple, PVar, Pattern, Print,
    StaticCall, TupleExpr, VarRef, struct_eq, walk,
)
from .analysis import FunKey, pattern_vars


@dataclass(frozen=True)
class IntV:
    value: int


@dataclass(frozen=True)
class AtomV:
    name: str


@dataclass(frozen=True)
class TupleV:
    elements: tuple["Value", ...]


@dataclass(frozen=True)
class ClosureV:
    params: tuple[Pattern, ...]
    body: Body
    env: dict  # never mutated; no entries for the closure's own params


Value = Union[IntV, AtomV, TupleV, ClosureV]

TRUE = AtomV("true")
FALSE = AtomV("false")

Env = dict  # variable name -> Value

DEFAULT_FUEL = 100_000


@dataclass(frozen=True)
class Ok:
    value: Value
    env_after: Env
    trace: tuple[Value, ...]


@dataclass(frozen=True)
class Exn:
    kind: str  # badmatch | badarith | badfun | badarity | undef | unbound
    trace: tuple[Value, ...]


@dataclass(frozen=True)
class Timeout:
    trace: tuple[Value, ...]


Outcome = Union[Ok, Exn, Timeout]


class UnboundVariable(Exception):
    pass


class EnvConflict(Exception):
    """A concat would silently re-map a name: broken single assignment."""


def values_equal(a: Value, b: Value) -> bool:
    """Structural value equality; closure code compares modulo node ids."""
    if type(a) is not type(b):
        return False
    if isinstance(a, IntV):
        return a.value == b.value
    if isinstance(a, AtomV):
        return a.name == b.name
    if isinstance(a, TupleV):
        return len(a.elements) == len(b.elements) and all(
            values_equal(x, y) for x, y in zip(a.elements, b.elements))
    if isinstance(a, ClosureV):
        if not struct_eq(a.params, b.params) or not struct_eq(a.body, b.body):
            return False
        if a.env.keys() != b.env.keys():
            return False
        return all(values_equal(a.env[k], b.env[k]) for k in a.env)
    raise TypeError(f"not a value: {type(a).__name__}")


def envs_equal(e1: Env, e2: Env) -> bool:
    return e1.keys() == e2.keys() and all(values_equal(e1[k], e2[k]) for k in e1)


def traces_equal(t1: Sequence[Value], t2: Sequence[Value]) -> bool:
    return len(t1) == len(t2) and all(values_equal(a, b) for a, b in zip(t1, t2))


def format_value(v: Value) -> str:
    if isinstance(v, IntV):
        return str(v.value)
    if isinstance(v, AtomV):
        return v.name
    if isinstance(v, TupleV):
        return "{" + ", ".join(format_value(x) for x in v.elements) + "}"
    if isinstance(v, ClosureV):
        return f"#fun/{len(v.params)}"
    raise TypeError(f"not a value: {type(v).__name__}")


def format_outcome(o: Outcome) -> str:
    trace = "[" + ", ".join(format_value(v) for v in o.trace) + "]"
    if isinstance(o, Ok):
        return f"ok value={format_value(o.value)} trace={trace}"
    if isinstance(o, Exn):
        return f"exn kind={o.kind} trace={trace}"
    return f"timeout trace={trace}"


# ---------------------------------------------------------------------------
# Environment algebra


def env_lookup(env: Env, names: Sequence[str]) -> list[Value]:
    """Order- and length-preserving lookup; raises on any missing name."""
    out = []
    for n in names:
        if n not in env:
            raise UnboundVariable(n)
        out.append(env[n])
    return out


def env_remove(env: Env, names: Sequence[str]) -> Env:
    drop = set(names)
    return {k: v for k, v in env.items() if k not in drop}


def env_concat(env: Env, bindings: Env) -> Env:
    for k, v in bindings.items():
        if k in env and not values_equal(env[k], v):
            raise EnvConflict(k)
    out = dict(env)
    out.update(bindings)
    return out


def get_matching(values: Sequence[Value], patterns: Sequence[Pattern],
                 env: Env) -> Optional[Env]:
    """New bindings from matching values against patterns under env, or None.

    A pattern variable already bound (in env or earlier in the list)
    requires an equal value instead of rebinding.
    """
    if len(values) != len(patterns):
        return None
    new: Env = {}

    def match1(p: Pattern, v: Value) -> bool:
        if isinstance(p, PVar):
            if p.name in new:
                return values_equal(new[p.name], v)
            if p.name in env:
                return values_equal(env[p.name], v)
            new[p.name] = v
            return True
        if isinstance(p, PInt):
            return isinstance(v, IntV) and v.value == p.value
        if isinstance(p, PAtom):
            return isinstance(v, AtomV) and v.name == p.name
        if isinstance(p, PTuple):
            if not isinstance(v, TupleV) or len(v.elements) != len(p.elements):
                return False
            return all(match1(sp, sv) for sp, sv in zip(p.elements, v.elements))
        raise TypeError(f"not a concrete pattern: {type(p).__name__}")

    for v, p in zip(values, patterns):
        if not match1(p, v):
            return None
    return new


def is_matching(values: Sequence[Value], patterns: Sequence[Pattern], env: Env) -> bool:
    return get_matching(values, patterns, env) is not None


# ---------------------------------------------------------------------------
# Evaluator


class _Raise(Exception):
    def __init__(self, kind: str):
        self.kind = kind


class _NoFuel(Exception):
    pass


def _erlang_div(a: int, b: int) -> int:
    # truncates toward zero
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


class _Evaluator:
    def __init__(self, module: Optional[ModuleAst], fuel: int):
        self.defs: dict[FunKey, FunDef] = {}
        if module is not None:
            for d in module.definitions:
                self.defs[FunKey(d.name, d.arity)] = d
        self.fuel = fuel
        self.trace: list[Value] = []

    def tick(self):
        self.fuel -= 1
        if self.fuel < 0:
            raise _NoFuel()

    def eval_seq(self, exprs: Sequence[Expr], env: Env) -> tuple[Value, Env]:
        value: Value = AtomV("undefined")
        for e in exprs:
            value, env = self.eval(e, env)
        return value, env

    def eval(self, e: Expr, env: Env) -> tuple[Value, Env]:
        self.tick()
        t = type(e)
        if t is IntLit:
            return IntV(e.value), env
        if t is AtomLit:
            return AtomV(e.name), env
        if t is VarRef:
            if e.name not in env:
                raise _Raise("unbound")
            return env[e.name], env
        if t is BinOp:
            lv, env = self.eval(e.left, env)
            rv, env = self.eval(e.right, env)
            return self._binop(e.op, lv, rv), env
        if t is Match:
            v, env = self.eval(e.rhs, env)
            new = get_matching([v], [e.pattern], env)
            if new is None:
                raise _Raise("badmatch")
            return v, env_concat(env, new)
        if t is Block:
            return self.eval_seq(e.body, env)
        if t is Lambda:
            return self._close(e, env), env
        if t is StaticCall:
            args = []
            for a in e.args:
                v, env = self.eval(a, env)
                args.append(v)
            key = FunKey(e.name, len(args))
            d = self.defs.get(key)
            if d is None:
                raise _Raise("undef")
            bound = get_matching(args, d.params, {})
            if bound is None:
                raise _Raise("badmatch")
            value, _ = self.eval_seq(d.body.exprs, bound)
            return value, env
        if t is DynCall:
            callee, env = self.eval(e.callee, env)
            args = []
            for a in e.args:
                v, env = self.eval(a, env)
                args.append(v)
            if not isinstance(callee, ClosureV):
                raise _Raise("badfun")
            if len(args) != len(callee.params):
                raise _Raise("badarity")
            base = env_remove(callee.env, pattern_vars(callee.params))
            bound = get_matching(args, callee.params, base)
            if bound is None:
                raise _Raise("badmatch")
            value, _ = self.eval_seq(callee.body.exprs, env_concat(base, bound))
            return value, env
        if t is Print:
            v, env = self.eval(e.arg, env)
            self.trace.append(v)
            return v, env
        if t is TupleExpr:
            vs = []
            for x in e.elements:
                v, env = self.eval(x, env)
                vs.append(v)
            return TupleV(tuple(vs)), env
        raise TypeError(f"cannot evaluate {t.__name__}")

    def _close(self, lam: Lambda, env: Env) -> ClosureV:
        own = set(pattern_vars(lam.params))
        used = {n.name for n in walk(lam.body) if isinstance(n, (VarRef, PVar))}
        captured = {k: v for k, v in env.items() if k in used and k not in own}
        return ClosureV(lam.params, lam.body, captured)

    def _binop(self, op: str, a: Value, b: Value) -> Value:
        if op == "==":
            return TRUE if values_equal(a, b) else FALSE
        if not (isinstance(a, IntV) and isinstance(b, IntV)):
            raise _Raise("badarith")
        if op == "+":
            return IntV(a.value + b.value)
        if op == "-":
            return IntV(a.value - b.value)
        if op == "*":
            return IntV(a.value * b.value)
        if op == "div":
            if b.value == 0:
                raise _Raise("badarith")
            return IntV(_erlang_div(a.value, b.value))
        if op == "<":
            return TRUE if a.value < b.value else FALSE
        raise TypeError(f"unknown operator {op}")


def eval_expr(e: Expr, env: Env, fuel: int = DEFAULT_FUEL, *,
              module: Optional[ModuleAst] = None) -> Outcome:
    """Evaluate a standalone expression (or body) under env."""
    ev = _Evaluator(module, fuel)
    try:
        if isinstance(e, Body):
            value, env_after = ev.eval_seq(e.exprs, dict(env))
        else:
            value, env_after = ev.eval(e, dict(env))
        return Ok(value, env_after, tuple(ev.trace))
    except _Raise as r:
        return Exn(r.kind, tuple(ev.trace))
    except (_NoFuel, RecursionError):
        # stack exhaustion is a resource limit like fuel, never a failure
        return Timeout(tuple(ev.trace))


def eval_call(m: ModuleAst, key: FunKey, args: Sequence[Value],
              fuel: int = DEFAULT_FUEL) -> Outcome:
    """Evaluate a module entry point; the outcome carries an empty env."""
    ev = _Evaluator(m, fuel)
    try:
        d = ev.defs.get(key)
        if d is None:
            return Exn("undef", ())
        if len(args) != key.arity:
            return Exn("badarity", ())
        bound = get_matching(list(args), d.params, {})
        if bound is None:
            return Exn("badmatch", ())
        value, _ = ev.eval_seq(d.body.exprs, bound)
        return Ok(value, {}, tuple(ev.trace))
    except _Raise as r:
        return Exn(r.kind, tuple(ev.trace))
    except (_NoFuel, RecursionError):
        return Timeout(tuple(ev.trace))
