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

The evaluator compiles rather than walks the tree, after Feeley &
Lapalme, "Using closures for code generation" (Computer Languages,
1987). A module is compiled once: its program (``_Evaluator``), the
table of its definitions by name and arity, is built on the first call
and kept on the ``ModuleAst`` object, and each definition or lambda body
is compiled on its own first call, so a run pays only for the code it
reaches. Each expression node becomes one Python closure ``(state, env)
-> (value, env)`` that spends one unit of fuel on entry, before its
sub-expressions, so a run times out at the same step as a tree walk
would. Operators, literal values and pattern matchers are resolved when
a node is compiled, and a lambda's capture set and parameter matchers
when it is first evaluated, not each time a closure is made. Compiled
code reaches definitions through the run's state, never through the
module it was compiled in. Compiling and evaluating both nest Python
calls, one per tree level, so evaluation depth is still bounded by
Python's recursion limit; hitting that limit is reported as a Timeout.
Integer size is a resource limit too: fuel bounds the steps of a run but
not the width of its integers, which doubles with each ``X * X``, so a
``*`` whose operands' bit lengths sum past ``MAX_INT_BITS`` ends the run
as a Timeout before it multiplies.

The program also knows, per entry, the definitions a call can reach
through static calls, lambda bodies included; ``same_code`` tells
whether two modules share every one of them by identity, as ``rebuild``
leaves the definitions a step did not touch. A closure argument is the
exception to that reach: its body's static calls resolve in the module
it is run in.
"""

from __future__ import annotations

from dataclasses import field
from typing import Callable, Optional, Sequence, Union

from .syntax import (
    AtomLit, BinOp, Block, Body, DynCall, Expr, FunDef, IntLit, Lambda,
    Match, ModuleAst, PAtom, PInt, PTuple, PVar, Pattern, Print,
    Record, StaticCall, TupleExpr, VarRef, record, struct_eq, walk,
)
from .analysis import FunKey, pattern_vars


@record
class IntV(Record):
    """An integer value."""

    value: int


@record
class AtomV(Record):
    """An atom value."""

    name: str


@record
class TupleV(Record):
    """A tuple value."""

    elements: tuple["Value", ...]


@record
class ClosureV(Record):
    """A closure value: a lambda's parameters and body, and the
    environment it captured."""

    params: tuple[Pattern, ...]
    body: Body
    env: dict  # never mutated; no entries for the closure's own params
    # the compiled lambda; None for a closure built outside the evaluator
    code: Optional[Callable] = field(default=None, compare=False, repr=False)


Value = Union[IntV, AtomV, TupleV, ClosureV]

TRUE = AtomV("true")
FALSE = AtomV("false")

Env = dict  # variable name -> Value

DEFAULT_FUEL = 100_000


@record
class Ok(Record):
    """A call returned value, binding env_after and printing trace."""

    value: Value
    env_after: Env
    trace: tuple[Value, ...]


@record
class Exn(Record):
    """A call raised an exception of the given kind after printing trace."""

    kind: str  # badmatch | badarith | badfun | badarity | undef | unbound
    trace: tuple[Value, ...]


@record
class Timeout(Record):
    """A call ran out of fuel after printing trace."""

    trace: tuple[Value, ...]


Outcome = Union[Ok, Exn, Timeout]


class UnboundVariable(Exception):
    pass


class EnvConflict(Exception):
    """A concat would silently re-map a name: broken single assignment."""


def values_equal(a: Value, b: Value) -> bool:
    """Structural value equality; closure code compares modulo node ids."""
    t = type(a)
    if t is not type(b):
        return False
    if t is IntV:
        return a.value == b.value
    if t is AtomV:
        return a.name == b.name
    return _all_equal([(a, b)])


def envs_equal(e1: Env, e2: Env) -> bool:
    return e1.keys() == e2.keys() and _all_equal([(e1[k], e2[k]) for k in e1])


def traces_equal(t1: Sequence[Value], t2: Sequence[Value]) -> bool:
    return len(t1) == len(t2) and (not t1 or _all_equal(list(zip(t1, t2))))


def _all_equal(todo: list[tuple[Value, Value]]) -> bool:
    """Whether every pair of values on todo is equal, walked from an
    explicit stack so a value of any depth compares. Values are immutable
    and acyclic, so a pair of compound objects is compared once however
    often it is shared, and a value shared 2**n ways in n levels costs n."""
    done = None  # id pairs of the compound values already compared
    while todo:
        a, b = todo.pop()
        t = type(a)
        if t is not type(b):
            return False
        if t is IntV:
            if a.value != b.value:
                return False
        elif t is AtomV:
            if a.name != b.name:
                return False
        elif a is not b:
            if done is None:
                done = set()
            pair = (id(a), id(b))
            if pair in done:
                continue
            done.add(pair)
            if t is TupleV:
                if len(a.elements) != len(b.elements):
                    return False
                todo.extend(zip(a.elements, b.elements))
            elif t is ClosureV:
                if (not struct_eq(a.params, b.params) or not struct_eq(a.body, b.body)
                        or a.env.keys() != b.env.keys()):
                    return False
                todo.extend((a.env[k], b.env[k]) for k in a.env)
            else:
                raise TypeError(f"not a value: {t.__name__}")
    return True


# str() refuses an int longer than sys.get_int_max_str_digits() (4,300
# digits by default, 640 at the least): a longer one is printed in
# chunks shorter than any limit, leaving the process-wide limit alone
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _int_text(n: int) -> str:
    """Exact decimal text of n, however long."""
    try:
        return str(n)
    except ValueError:
        pass
    rest, chunks = abs(n), []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(rest))
    return ("-" if n < 0 else "") + "".join(reversed(chunks))


def format_value(v: Value) -> str:
    # expanded from an explicit stack, so a value of any depth prints; an
    # item on it is a piece of output (a str) or a value still to print
    out, todo = [], [v]
    while todo:
        v = todo.pop()
        t = type(v)
        if t is str:
            out.append(v)
        elif t is IntV:
            out.append(_int_text(v.value))
        elif t is AtomV:
            out.append(v.name)
        elif t is TupleV:
            out.append("{")
            todo.append("}")
            for i in range(len(v.elements) - 1, 0, -1):
                todo += (v.elements[i], ", ")
            if v.elements:
                todo.append(v.elements[0])
        elif t is ClosureV:
            out.append(f"#fun/{len(v.params)}")
        else:
            raise TypeError(f"not a value: {t.__name__}")
    return "".join(out)


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
    out = dict(env)
    for p, v in zip(patterns, values):
        if not _compile_pattern(p)(v, out):
            return None
    return {k: v for k, v in out.items() if k not in env}


def is_matching(values: Sequence[Value], patterns: Sequence[Pattern], env: Env) -> bool:
    return get_matching(values, patterns, env) is not None


# ---------------------------------------------------------------------------
# Compiler


class _Raise(Exception):
    def __init__(self, kind: str):
        self.kind = kind


class _NoFuel(Exception):
    """A resource limit ran out: fuel, or the width of an integer."""


class _State:
    """One run: the program static calls reach, the fuel left, and the
    trace so far."""

    __slots__ = ("program", "fuel", "trace")

    def __init__(self, program: "_Evaluator", fuel: int):
        self.program = program
        self.fuel = fuel
        self.trace: list[Value] = []


# A compiled expression evaluates under (state, env) to (value, env); a
# compiled pattern matches a value, adding bindings to a private env copy;
# a compiled function takes (state, arguments, captured env) to a value.
Code = Callable[[_State, Env], tuple[Value, Env]]
Matcher = Callable[[Value, Env], bool]
Function = Callable[[_State, Sequence[Value], Env], Value]


class _Evaluator:
    """A module's program: its definitions by (name, arity), each
    compiled on its first call, the definitions each entry reaches, and
    the oracle's outcomes of its calls, by trial key (see
    equiv.check_module_equiv).
    Built once per module (see _program), so it dies with the module."""

    def __init__(self, module: Optional[ModuleAst]):
        self.defs: dict[tuple[str, int], FunDef] = (
            {} if module is None else {(d.name, d.arity): d for d in module.definitions})
        self.functions: dict[tuple[str, int], Function] = {}
        self.reaches: dict[tuple[str, int], dict] = {}
        self.outcomes: dict[tuple, Outcome] = {}

    def reach(self, key: tuple[str, int]) -> dict[tuple[str, int], Optional[FunDef]]:
        """The definitions a call of key can reach through static calls,
        lambda bodies included, by key: None for a key not defined."""
        reach = self.reaches.get(key)
        if reach is None:
            reach = self.reaches[key] = {}
            todo = [key]
            while todo:
                k = todo.pop()
                if k not in reach:
                    d = reach[k] = self.defs.get(k)
                    if d is not None:
                        todo.extend((n.name, len(n.args)) for n in walk(d.body)
                                    if type(n) is StaticCall)
        return reach

    def function(self, key: tuple[str, int]) -> Optional[Function]:
        fn = self.functions.get(key)
        if fn is None:
            d = self.defs.get(key)
            if d is None:
                return None
            fn = self.functions[key] = _compile_function(d.params, d.body)
        return fn


def _program(m: ModuleAst) -> _Evaluator:
    """The module's program, built on first use and kept on the module
    object, which is immutable, so it lives exactly as long."""
    program = vars(m).get("_program")
    if program is None:
        program = _Evaluator(m)
        object.__setattr__(m, "_program", program)
    return program


def same_code(m1: ModuleAst, m2: ModuleAst, key: FunKey) -> bool:
    """Whether every definition a call of key can reach in m1 is the very
    same object in m2, or undefined in both: a call then runs the same
    code in both, unless a closure argument brings code of its own."""
    k = (key.name, key.arity)
    program, defs2 = _program(m1), _program(m2).defs
    if program.defs.get(k) is not defs2.get(k):
        return False  # the usual case, decided before computing a reach
    return all(defs2.get(r) is d for r, d in program.reach(k).items())


def _int_op(f: Callable[[int, int], Value]) -> Callable[[Value, Value], Value]:
    def op(a: Value, b: Value) -> Value:
        if type(a) is not IntV or type(b) is not IntV:
            raise _Raise("badarith")
        return f(a.value, b.value)
    return op


# the widest product a run may compute, in bits (about 39,000 decimal
# digits): multiplying at this width takes milliseconds, and each
# doubling of it triples that
MAX_INT_BITS = 1 << 17


def _mul(a: int, b: int) -> Value:
    if a.bit_length() + b.bit_length() > MAX_INT_BITS:
        raise _NoFuel
    return IntV(a * b)


def _div(a: int, b: int) -> Value:
    if b == 0:
        raise _Raise("badarith")
    q = a // b
    if q < 0 and q * b != a:
        q += 1  # truncate toward zero
    return IntV(q)


_BINOPS: dict[str, Callable[[Value, Value], Value]] = {
    "==": lambda a, b: TRUE if values_equal(a, b) else FALSE,
    "+": _int_op(lambda a, b: IntV(a + b)),
    "-": _int_op(lambda a, b: IntV(a - b)),
    "*": _int_op(_mul),
    "div": _int_op(_div),
    "<": _int_op(lambda a, b: TRUE if a < b else FALSE),
}


def _eval_all(codes: tuple[Code, ...], st: _State, env: Env) -> tuple[list, Env]:
    values = []
    for c in codes:
        v, env = c(st, env)
        values.append(v)
    return values, env


# Each compiled expression spends one unit of fuel on entry, before
# anything else it does. The three lines are written out in each rather
# than called: they run once per evaluation step.


def _compile_const(v: Value) -> Code:
    def const(st, env):
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        return v, env
    return const


def _compile_var(e: VarRef) -> Code:
    name = e.name

    def var(st, env):
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        v = env.get(name)
        if v is None:
            raise _Raise("unbound")
        return v, env
    return var


def _compile_binop(e: BinOp) -> Code:
    op = _BINOPS.get(e.op)
    if op is None:
        raise TypeError(f"unknown operator {e.op}")
    left, right = _compile(e.left), _compile(e.right)

    def binop(st, env):
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        a, env = left(st, env)
        b, env = right(st, env)
        return op(a, b), env
    return binop


def _compile_match(e: Match) -> Code:
    match, rhs = _compile_pattern(e.pattern), _compile(e.rhs)

    def match_(st, env):
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        v, env = rhs(st, env)
        env = dict(env)
        if not match(v, env):
            raise _Raise("badmatch")
        return v, env
    return match_


def _compile_block(e: Block) -> Code:
    seq = _compile_seq(e.body)

    def block(st, env):
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        return seq(st, env)
    return block


def _compile_lambda(e: Lambda) -> Code:
    params, body = e.params, e.body
    compiled = None  # (capture set, function), made on first evaluation

    def lambda_(st, env):
        nonlocal compiled
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        if compiled is None:
            own = pattern_vars(params)
            captures = dict.fromkeys(x.name for x in walk(body)  # in preorder
                                     if type(x) in (VarRef, PVar) and x.name not in own)
            compiled = tuple(captures), _compile_function(params, body)
        captures, fn = compiled
        return ClosureV(params, body, {k: env[k] for k in captures if k in env}, fn), env
    return lambda_


def _compile_static_call(e: StaticCall) -> Code:
    key, args = (e.name, len(e.args)), tuple(map(_compile, e.args))

    def static_call(st, env):
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        values, env = _eval_all(args, st, env)
        fn = st.program.function(key)
        if fn is None:
            raise _Raise("undef")
        return fn(st, values, {}), env
    return static_call


def _compile_dyn_call(e: DynCall) -> Code:
    callee, args = _compile(e.callee), tuple(map(_compile, e.args))

    def dyn_call(st, env):
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        f, env = callee(st, env)
        values, env = _eval_all(args, st, env)
        if type(f) is not ClosureV:
            raise _Raise("badfun")
        if len(values) != len(f.params):
            raise _Raise("badarity")
        fn, captured = f.code, f.env
        if fn is None:  # built outside the evaluator: may bind its own parameters
            fn = _compile_function(f.params, f.body)
            captured = env_remove(captured, pattern_vars(f.params))
        return fn(st, values, captured), env
    return dyn_call


def _compile_print(e: Print) -> Code:
    arg = _compile(e.arg)

    def print_(st, env):
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        v, env = arg(st, env)
        st.trace.append(v)
        return v, env
    return print_


def _compile_tuple(e: TupleExpr) -> Code:
    elements = tuple(map(_compile, e.elements))

    def tuple_(st, env):
        st.fuel -= 1
        if st.fuel < 0:
            raise _NoFuel
        values, env = _eval_all(elements, st, env)
        return TupleV(tuple(values)), env
    return tuple_


_COMPILERS: dict[type, Callable[..., Code]] = {
    IntLit: lambda e: _compile_const(IntV(e.value)),
    AtomLit: lambda e: _compile_const(AtomV(e.name)),
    VarRef: _compile_var,
    BinOp: _compile_binop,
    Match: _compile_match,
    Block: _compile_block,
    Lambda: _compile_lambda,
    StaticCall: _compile_static_call,
    DynCall: _compile_dyn_call,
    Print: _compile_print,
    TupleExpr: _compile_tuple,
}


def _compile(e: Expr) -> Code:
    compiler = _COMPILERS.get(type(e))
    if compiler is None:
        raise TypeError(f"cannot evaluate {type(e).__name__}")
    return compiler(e)


def _compile_seq(exprs: Sequence[Expr]) -> Code:
    """A body or block's expressions in turn, spending no fuel of their own."""
    codes = tuple(map(_compile, exprs))
    if len(codes) == 1:
        return codes[0]

    def seq(st, env):
        for c in codes:
            v, env = c(st, env)
        return v, env
    return seq


def _compile_function(params: Sequence[Pattern], body: Body) -> Function:
    """A definition or lambda: match the arguments in the captured env
    (empty for a definition, never binding a parameter for a lambda),
    then run the body there."""
    matchers = tuple(map(_compile_pattern, params))
    run = None  # the body, compiled on the first call

    def function(st, args, captured):
        nonlocal run
        if run is None:
            run = _compile_seq(body.exprs)
        env = dict(captured)
        for match, v in zip(matchers, args):
            if not match(v, env):
                raise _Raise("badmatch")
        return run(st, env)[0]
    return function


def _compile_pattern(p: Pattern) -> Matcher:
    t = type(p)
    if t is PVar:
        name = p.name

        def match_var(v, env):
            bound = env.get(name)
            if bound is None:
                env[name] = v
                return True
            return values_equal(bound, v)
        return match_var
    if t is PInt:
        value = p.value
        return lambda v, env: type(v) is IntV and v.value == value
    if t is PAtom:
        name = p.name
        return lambda v, env: type(v) is AtomV and v.name == name
    if t is PTuple:
        elements = tuple(map(_compile_pattern, p.elements))
        n = len(elements)
        return lambda v, env: (type(v) is TupleV and len(v.elements) == n and all(
            m(x, env) for m, x in zip(elements, v.elements)))
    raise TypeError(f"not a concrete pattern: {t.__name__}")


def eval_expr(e: Expr, env: Env, fuel: int = DEFAULT_FUEL, *,
              module: Optional[ModuleAst] = None) -> Outcome:
    """Evaluate a standalone expression (or body) under env."""
    st = _State(_Evaluator(None) if module is None else _program(module), fuel)
    try:
        run = _compile_seq(e.exprs) if isinstance(e, Body) else _compile(e)
        value, env_after = run(st, dict(env))
        return Ok(value, env_after, tuple(st.trace))
    except _Raise as r:
        return Exn(r.kind, tuple(st.trace))
    except (_NoFuel, RecursionError):
        # stack exhaustion is a resource limit like fuel, never a failure
        return Timeout(tuple(st.trace))


def eval_call(m: ModuleAst, key: FunKey, args: Sequence[Value],
              fuel: int = DEFAULT_FUEL) -> Outcome:
    """Evaluate a module entry point; the outcome carries an empty env."""
    program = _program(m)
    if (key.name, key.arity) not in program.defs:
        return Exn("undef", ())
    if len(args) != key.arity:
        return Exn("badarity", ())
    st = _State(program, fuel)
    try:
        fn = program.function((key.name, key.arity))
        return Ok(fn(st, args, {}), {}, tuple(st.trace))
    except _Raise as r:
        return Exn(r.kind, tuple(st.trace))
    except (_NoFuel, RecursionError):
        return Timeout(tuple(st.trace))
