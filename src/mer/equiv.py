"""Differential equivalence oracle and deterministic program generators.

Two programs are sampled-equivalent when, on shared inputs, they produce
equal values and equal side-effect traces, or both fail with exceptions
after equal traces (the exception kinds are deliberately ignored). At
expression level the comparison also covers the environment after
evaluation; at module level entry calls return no environment. A fuel
timeout on either side makes the trial (and, absent a stronger verdict,
the whole check) Unknown: nontermination is never classified as equal
or different. A plan without ``arg_gen`` draws each argument from its
integer range as ``random.Random.randint`` does, and keys a trial by
its entry, fuel and those plain ints: the key hashes in C, it reads the
same whatever the range, and the ``IntV`` arguments are built only for
a trial that is evaluated. A plan with ``arg_gen`` keys a trial by the
values it makes. Evaluation is deterministic, so a repeated trial (same
key) is evaluated once in a check and counted every time, its timeout
included; ``before``'s side is evaluated once per module, across every
check made against it. A trial of an entry whose
reachable definitions are the very same objects in both modules
(``interp.same_code``) runs on ``before`` alone: equal, or unknown if it
timed out. A trial with a closure argument is neither repeated from an
earlier trial or check nor run on ``before`` alone: the closure's body
calls into whichever module runs it.

All generators are deterministic in their seed, so every Inequivalent
verdict carries a directly replayable witness.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence, Union

from . import analysis
from .analysis import FunKey
from .interp import (
    DEFAULT_FUEL, Env, Exn, IntV, Ok, Outcome, Timeout, Value, _program,
    envs_equal, eval_call, eval_expr, format_outcome, format_value,
    same_code, traces_equal, values_equal,
)
from .rewrite import (
    Binding, Condition, ConditionFailure, SubstCtx, Template,
    UnboundMetavariable, eval_condition, subst_fragment, template_metavars,
)
from .syntax import (
    AtomLit, BinOp, Block, Body, DynCall, Expr, FunDef, IdGen, IntLit,
    Lambda, Match, ModuleAst, PVar, Print, Record, StaticCall, TupleExpr,
    VarRef, pretty_expr, record,
)


class PlanError(Exception):
    """A trial plan with no trials, a fuel below 1, an empty argument
    range, an entry missing from one of the modules, or arguments made
    in the wrong number for an entry."""


class GenerationExhausted(Exception):
    """The rule condition rejected too many generated candidates."""

    def __init__(self, wanted: int, accepted: int, attempts: int):
        super().__init__(
            f"only {accepted}/{wanted} instantiations satisfied the condition "
            f"after {attempts} attempts")
        self.wanted = wanted
        self.accepted = accepted
        self.attempts = attempts


# ---------------------------------------------------------------------------
# Outcome comparison


EQUAL = "equal"
DIFFERENT = "different"
UNKNOWN = "unknown"


def eq_outcomes(o1: Outcome, o2: Outcome, compare_env: bool) -> tuple[str, Optional[str]]:
    """Compare two outcomes; returns (status, first differing component)."""
    if isinstance(o1, Timeout) or isinstance(o2, Timeout):
        return UNKNOWN, None
    if isinstance(o1, Ok) and isinstance(o2, Ok):
        if not values_equal(o1.value, o2.value):
            return DIFFERENT, "value"
        if not traces_equal(o1.trace, o2.trace):
            return DIFFERENT, "trace"
        if compare_env and not envs_equal(o1.env_after, o2.env_after):
            return DIFFERENT, "env"
        return EQUAL, None
    if isinstance(o1, Exn) and isinstance(o2, Exn):
        if not traces_equal(o1.trace, o2.trace):
            return DIFFERENT, "trace"
        return EQUAL, None  # exception kinds are not compared
    return DIFFERENT, "outcome"


# ---------------------------------------------------------------------------
# Verdicts


@record
class Equivalent(Record):
    """Every trial gave the same outcome on both sides."""

    trials: int


@record
class Inequivalent(Record):
    """A trial whose outcomes differ: its entry (None in a rule check)
    and arguments, both outcomes, and why they differ."""

    entry: Optional[FunKey]
    args: tuple
    outcome1: Outcome
    outcome2: Outcome
    reason: str
    trial: int
    timeouts: int = 0


@record
class Unknown(Record):
    """No difference found, but some trials timed out."""

    timeouts: int
    trials: int


Verdict = Union[Equivalent, Inequivalent, Unknown]


def format_verdict(v: Verdict) -> str:
    """Machine-readable verdict document, one key=value per line."""
    lines = []
    if isinstance(v, Equivalent):
        lines.append("verdict=equivalent")
        lines.append(f"trials={v.trials}")
        lines.append("timeouts=0")
    elif isinstance(v, Unknown):
        lines.append("verdict=unknown")
        lines.append(f"trials={v.trials}")
        lines.append(f"timeouts={v.timeouts}")
    else:
        lines.append("verdict=inequivalent")
        lines.append(f"trials={v.trial}")
        lines.append(f"timeouts={v.timeouts}")
        if v.entry is not None:
            lines.append(f"entry={v.entry}")
        lines.append("args=[" + ", ".join(format_value(a) for a in v.args) + "]")
        lines.append(f"reason={v.reason}")
        lines.append(f"outcome1={format_outcome(v.outcome1)}")
        lines.append(f"outcome2={format_outcome(v.outcome2)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Module-level differential check


@record
class TrialPlan(Record):
    """Which entries a module check calls, how many times, and how it
    draws their arguments."""

    entries: tuple[FunKey, ...]
    trials: int = 50
    seed: int = 0
    fuel: int = DEFAULT_FUEL
    arg_lo: int = -5
    arg_hi: int = 5
    arg_gen: Optional[Callable[[random.Random, int], tuple]] = None

    def make_args(self, rng: random.Random, arity: int) -> tuple[Value, ...]:
        """One trial's arguments for an entry of the given arity, drawn
        from rng as check_module_equiv draws them."""
        if self.arg_gen is not None:
            return tuple(self.arg_gen(rng, arity))
        return tuple(map(IntV, _int_drawer(rng, self.arg_lo, self.arg_hi)(arity)))


# the most argument values a plan's range may hold
MAX_ARG_RANGE = 4096


def _int_drawer(rng: random.Random, lo: int, hi: int) -> Callable[[int], tuple[int, ...]]:
    """draw(arity): arity ints in [lo, hi] from rng, as rng.randint(lo, hi)
    draws each: randint's _randbelow(width) takes getrandbits(k) for
    width's bit length k until it is below width. The loop is the same
    from Python 3.10 to 3.13, so the stream is too."""
    width = hi - lo + 1
    k = width.bit_length()
    getrandbits = rng.getrandbits

    def draw(arity: int) -> tuple[int, ...]:
        ints = []
        for _ in range(arity):
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            ints.append(lo + r)
        return tuple(ints)
    return draw


def _check_budget(trials: int, fuel: int, arg_lo: int = 0, arg_hi: int = 0):
    if trials < 1:
        raise PlanError(f"a trial plan needs at least one trial, got {trials}")
    if fuel < 1:
        raise PlanError(f"a trial plan needs a fuel of at least 1, got {fuel}")
    if arg_lo > arg_hi:
        raise PlanError(f"a trial plan needs arg_lo <= arg_hi, got {arg_lo} > {arg_hi}")
    if arg_hi - arg_lo >= MAX_ARG_RANGE:
        raise PlanError(f"a trial plan's argument range holds at most {MAX_ARG_RANGE} "
                        f"values, got {arg_hi - arg_lo + 1}")


def check_module_equiv(before: ModuleAst, after: ModuleAst, plan: TrialPlan) -> Verdict:
    """Run every plan entry on both modules with identical arguments.

    Without arg_gen a trial's arguments are drawn as plain ints, as
    make_args draws them, and the trial is keyed by its call (entry
    and fuel) and those ints; the IntV arguments are built only for a
    trial that is evaluated. With arg_gen it is keyed by the values
    made. Evaluation is deterministic, so a trial repeating an earlier
    key of the same check is not run again: it counts as a trial, and
    as a timeout if the first one timed out. before keeps its outcome
    of each key for later checks, which run only after's side. A trial
    of an entry that runs the same code in both modules is run on
    before only. Arguments that cannot be hashed, such as closures,
    are run every time, on both modules.
    """
    _check_budget(plan.trials, plan.fuel, plan.arg_lo, plan.arg_hi)
    if not plan.entries:
        raise PlanError("a trial plan needs at least one entry")
    before_defs, after_defs = _program(before).defs, _program(after).defs
    for entry in plan.entries:
        key = (entry.name, entry.arity)
        if key not in before_defs or key not in after_defs:
            raise PlanError(f"entry {entry} is not defined in both modules")
    entries = [((e.name, e.arity, plan.fuel), e, same_code(before, after, e)) for e in plan.entries]
    outcomes = _program(before).outcomes  # before's side, kept across checks
    rng = random.Random(plan.seed)
    gen = plan.arg_gen
    if gen is None:
        draw = _int_drawer(rng, plan.arg_lo, plan.arg_hi)
    seen: dict = {}  # key of a trial evaluated in this check -> it timed out
    timeouts = 0
    trial_no = 0
    for _ in range(plan.trials):
        for call, entry, unchanged in entries:
            trial_no += 1
            if gen is None:
                ints = draw(entry.arity)
                key, args = (call, ints), None
            else:
                args = tuple(gen(rng, entry.arity))
                if len(args) != entry.arity:
                    raise PlanError(f"the arguments made for entry {entry} number "
                                    f"{len(args)}, not {entry.arity}")
                key = (call, args)
            try:
                timed_out = seen.get(key)
            except TypeError:  # unhashable: a closure's env is a dict
                key = timed_out = None
            if timed_out is None:
                if args is None:
                    args = tuple(map(IntV, ints))
                o1 = outcomes.get(key)  # None is never a key
                if o1 is None:
                    o1 = eval_call(before, entry, args, plan.fuel)
                    if key is not None:
                        outcomes[key] = o1
                if key is not None and unchanged:
                    timed_out = isinstance(o1, Timeout)
                else:
                    o2 = eval_call(after, entry, args, plan.fuel)
                    status, reason = eq_outcomes(o1, o2, compare_env=False)
                    if status == DIFFERENT:
                        return Inequivalent(entry, args, o1, o2, reason, trial_no, timeouts)
                    timed_out = status == UNKNOWN
                if key is not None:
                    seen[key] = timed_out
            timeouts += timed_out
    if timeouts:
        return Unknown(timeouts, trial_no)
    return Equivalent(trial_no)


# ---------------------------------------------------------------------------
# Expression generation


@record
class GenConfig(Record):
    """Knobs for the expression generator.

    allow_print permits print anywhere; visible_match permits matches
    outside lambda bodies (rule-level binding conditions need them
    confined); lambda_applied_only keeps closures out of result values so
    module entries stay ground; allow_calls lists the functions a static
    call may name.
    """

    allow_print: bool = True
    visible_match: bool = True
    lambda_applied_only: bool = False
    allow_calls: tuple[FunKey, ...] = ()


class _ExprGen:
    ATOMS = ("a", "b", "ok")
    INT_LO, INT_HI = 0, 9

    def __init__(self, rng: random.Random, cfg: GenConfig, gen: IdGen):
        self.rng = rng
        self.cfg = cfg
        self.gen = gen
        self.counter = 0

    def fresh_local(self) -> str:
        self.counter += 1
        return f"V{self.counter}"

    def expr(self, depth: int, env: tuple[str, ...], *, in_lambda: bool = False) -> Expr:
        rng = self.rng
        if depth <= 0:
            return self.leaf(env)
        choices: list[str] = ["leaf", "binop", "binop", "tuple", "block"]
        if self.cfg.allow_print:
            choices.append("print")
        if self.cfg.visible_match or in_lambda:
            choices.append("match")
        choices.append("applied_lambda")
        if not self.cfg.lambda_applied_only:
            choices.append("lambda")
        if self.cfg.allow_calls:
            choices += ["call", "call"]
        kind = rng.choice(choices)
        if kind == "leaf":
            return self.leaf(env)
        if kind == "binop":
            op = rng.choice(("+", "-", "*", "div", "==", "<"))
            return BinOp(op, self.expr(depth - 1, env, in_lambda=in_lambda),
                         self.expr(depth - 1, env, in_lambda=in_lambda),
                         node_id=self.gen.fresh())
        if kind == "tuple":
            n = rng.randint(0, 2)
            return TupleExpr(tuple(self.expr(depth - 1, env, in_lambda=in_lambda)
                                   for _ in range(n)),
                             node_id=self.gen.fresh())
        if kind == "block":
            seq = tuple(self.expr(depth - 1, env, in_lambda=in_lambda)
                        for _ in range(rng.randint(1, 2)))
            return Block(seq, node_id=self.gen.fresh())
        if kind == "print":
            return Print(self.expr(depth - 1, env, in_lambda=in_lambda),
                         node_id=self.gen.fresh())
        if kind == "match":
            name = self.fresh_local()
            return Match(PVar(name, node_id=self.gen.fresh()),
                         self.expr(depth - 1, env, in_lambda=in_lambda),
                         node_id=self.gen.fresh())
        if kind == "lambda":
            return self.lam(depth, env)
        if kind == "applied_lambda":
            lam = self.lam(depth, env)
            args = tuple(self.expr(0, env) for _ in lam.params)
            return DynCall(lam, args, node_id=self.gen.fresh())
        if kind == "call":
            key = rng.choice(self.cfg.allow_calls)
            args = tuple(self.expr(depth - 1, env, in_lambda=in_lambda)
                         for _ in range(key.arity))
            return StaticCall(key.name, args, node_id=self.gen.fresh())
        raise AssertionError(kind)

    def lam(self, depth: int, env: tuple[str, ...]) -> Lambda:
        n = self.rng.randint(0, 2)
        params = tuple(PVar(f"L{self.counter + i + 1}", node_id=self.gen.fresh())
                       for i in range(n))
        self.counter += n
        inner_env = env + tuple(p.name for p in params)
        seq = tuple(self.expr(depth - 1, inner_env, in_lambda=True)
                    for _ in range(self.rng.randint(1, 2)))
        return Lambda(params, Body(seq, node_id=self.gen.fresh()),
                      node_id=self.gen.fresh())

    def leaf(self, env: tuple[str, ...]) -> Expr:
        rng = self.rng
        roll = rng.random()
        if env and roll < 0.45:
            return VarRef(rng.choice(env), node_id=self.gen.fresh())
        if roll < 0.9:
            return IntLit(rng.randint(self.INT_LO, self.INT_HI),
                          node_id=self.gen.fresh())
        return AtomLit(rng.choice(self.ATOMS), node_id=self.gen.fresh())


def gen_expr(seed: int, depth: int, env_vars: Sequence[str],
             cfg: Optional[GenConfig] = None, *, gen: Optional[IdGen] = None) -> Expr:
    """Deterministic random expression over the given environment variables."""
    g = _ExprGen(random.Random(seed), cfg or GenConfig(), gen or IdGen())
    return g.expr(depth, tuple(env_vars))


def gen_args(seed: int, arity: int, lo: int = -5, hi: int = 5) -> tuple[Value, ...]:
    rng = random.Random(seed)
    return tuple(IntV(rng.randint(lo, hi)) for _ in range(arity))


def gen_module(seed: int, size: int = 3) -> ModuleAst:
    """Deterministic random module with an acyclic call graph; every entry
    terminates and returns a ground value."""
    rng = random.Random(seed)
    gen = IdGen()
    count = 1 + rng.randrange(max(size, 1))
    defs: list[FunDef] = []
    keys: list[FunKey] = []
    for i in range(count):
        name = f"f{i}"
        arity = rng.randint(0, 2)
        params = tuple(PVar(f"X{j}", node_id=gen.fresh()) for j in range(arity))
        cfg = GenConfig(
            allow_calls=tuple(keys),
            lambda_applied_only=True,
            allow_print=True,
        )
        eg = _ExprGen(rng, cfg, gen)
        env = tuple(p.name for p in params)
        exprs = tuple(eg.expr(rng.randint(1, 3), env)
                      for _ in range(rng.randint(1, 2)))
        body = Body(exprs, node_id=gen.fresh())
        defs.append(FunDef(name, params, body, node_id=gen.fresh()))
        keys.append(FunKey(name, arity))
    return ModuleAst(tuple(defs), gen.high)


# ---------------------------------------------------------------------------
# Rule-level differential check


def _instantiate(metavars: set[str], produced: set[str], egen: _ExprGen,
                 depth: int, env_vars: tuple[str, ...]) -> Binding:
    b: Binding = {}
    for mv in sorted(metavars - produced):
        if mv in ("E", "E1", "E2"):
            b[mv] = egen.expr(egen.rng.randint(0, depth), env_vars)
        elif mv in ("Name", "X"):
            b[mv] = f"N{egen.rng.randint(1, 3)}"
        else:
            # default scalar: a small expression
            b[mv] = egen.expr(egen.rng.randint(0, max(depth - 1, 0)), env_vars)
    return b


def check_rule_equiv(lhs: Template, rhs: Template, condition: Condition,
                     trials: int = 500, seed: int = 0, fuel: int = DEFAULT_FUEL,
                     depth: int = 4, cfg: Optional[GenConfig] = None) -> Verdict:
    """Differential check of a rewrite rule: generate metavariable
    instantiations satisfying the condition, evaluate both sides in
    identical environments, compare value, environment, and trace.

    Names the condition constrains with fresh(..) are masked from the
    environment comparison (they are dead outside the instantiated code
    precisely because of the freshness condition).
    """
    _check_budget(trials, fuel)
    rng = random.Random(seed)
    cfg = cfg or GenConfig(visible_match=False, lambda_applied_only=False)
    metavars = template_metavars(lhs) | template_metavars(rhs) | condition.metavars()
    produced = condition.produced()
    env_pool = ("X", "Z")
    accepted = 0
    attempts = 0
    timeouts = 0
    max_attempts = max(trials * 50, 1000)
    while accepted < trials:
        attempts += 1
        if attempts > max_attempts:
            raise GenerationExhausted(trials, accepted, attempts)
        egen = _ExprGen(rng, cfg, IdGen())
        n_env = rng.randint(0, len(env_pool))
        env_vars = env_pool[:n_env]
        b = _instantiate(metavars, produced, egen, depth, env_vars)
        try:
            b = eval_condition(condition, b)
        except (ConditionFailure, UnboundMetavariable):
            continue
        fresh_names = condition.fresh_names(b)
        if any(nm in env_vars for nm in fresh_names):
            continue
        ctx1 = SubstCtx(IdGen(1_000_000), set())
        ctx2 = SubstCtx(IdGen(2_000_000), set())
        try:
            left = subst_fragment(lhs, b, ctx1, "expr")
            right = subst_fragment(rhs, b, ctx2, "expr")
        except UnboundMetavariable:
            continue
        free = set(analysis.expr_free_vars(left)) | set(analysis.expr_free_vars(right))
        env: Env = {v: IntV(rng.randint(-5, 5)) for v in sorted(free)}
        accepted += 1
        o1 = eval_expr(left, env, fuel)
        o2 = eval_expr(right, env, fuel)
        o1m = _mask_env(o1, fresh_names)
        o2m = _mask_env(o2, fresh_names)
        status, reason = eq_outcomes(o1m, o2m, compare_env=True)
        if status == DIFFERENT:
            env_text = "{" + ", ".join(f"{k}={format_value(v)}" for k, v in env.items()) + "}"
            witness = f"{reason}: {pretty_expr(left)} vs {pretty_expr(right)} in {env_text}"
            return Inequivalent(None, tuple(env.values()), o1, o2, witness,
                                accepted, timeouts)
        if status == UNKNOWN:
            timeouts += 1
    if timeouts:
        return Unknown(timeouts, accepted)
    return Equivalent(accepted)


def _mask_env(o: Outcome, names: set[str]) -> Outcome:
    if not names or not isinstance(o, Ok):
        return o
    env = {k: v for k, v in o.env_after.items() if k not in names}
    return Ok(o.value, env, o.trace)
