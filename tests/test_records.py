"""Every dataclass in mer is a record: it derives from syntax.Record and
behaves as a dataclass(frozen=True) with the same fields would."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import os
import pickle
import random
from dataclasses import MISSING, FrozenInstanceError, fields

import pytest

from mer import syntax
from mer.analysis import FunKey
from mer.equiv import (
    MAX_ARG_RANGE, Equivalent, PlanError, TrialPlan, check_module_equiv, gen_module,
)
from mer.interp import ClosureV, IntV, eval_call
from mer.refactorings import (
    WRAP_RULE, _EXTRACT_FUN, _EXTRACT_VAR, _RENAME, _VAR_TO_PARAM, _WRAP_INSTANCE,
)
from mer.rewrite import RewriteRule, TemplateError
from mer.syntax import MetaSeq, ModuleAst, Record, TupleExpr, parse, walk

from conftest import GENERALISED_SRC
from test_syntax import _large_inputs

METHODS = ("__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__",
           "__getstate__", "__setstate__")


def _records() -> dict[str, type]:
    package = os.path.dirname(os.path.abspath(syntax.__file__))
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            module = importlib.import_module(f"mer.{name[:-3]}")
            for v in vars(module).values():
                if (isinstance(v, type) and v.__module__ == module.__name__
                        and dataclasses.is_dataclass(v)):
                    found[f"{module.__name__}.{v.__qualname__}"] = v
    return found


RECORDS = _records()

# each scheme kind, under the name its instance record had when each kind
# had its own, and the one record's instance that a prime of that kind
# parses to: the fields each kind sets, and leaves at their defaults, differ
SCHEME_KINDS = {
    "mer.schemes.Local": _WRAP_INSTANCE,
    "mer.schemes.IntroduceVariable": _EXTRACT_VAR,
    "mer.schemes.IntroduceFunction": _EXTRACT_FUN,
    "mer.schemes.FunctionRefactoring": _VAR_TO_PARAM,
    "mer.schemes.SignatureRefactoring": _RENAME,
}


def _values(cls: type) -> tuple:
    """A value for each field: distinct hashable placeholders, except where
    __post_init__ checks them."""
    if cls is RewriteRule:
        return WRAP_RULE.lhs, WRAP_RULE.rhs, WRAP_RULE.condition
    return tuple(f"v{i}" for i in range(len(fields(cls))))


_TWINS: dict[type, type] = {}


def _twin(cls: type) -> type:
    """cls's fields as a dataclass(frozen=True), its methods generated."""
    if cls not in _TWINS:
        spec = []
        for f in fields(cls):
            kw = {} if f.default is MISSING else {"default": f.default}
            spec.append((f.name, f.type, dataclasses.field(compare=f.compare, repr=f.repr, **kw)))
        twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
        twin.__qualname__ = cls.__qualname__
        _TWINS[cls] = twin
    return _TWINS[cls]


def _as_twin(v):
    """v with every record in it, through tuples, replaced by its twin."""
    if isinstance(v, Record):
        return _twin(type(v))(*(_as_twin(getattr(v, f.name)) for f in fields(v)))
    if type(v) is tuple:
        return tuple(_as_twin(x) for x in v)
    return v


def test_every_dataclass_in_mer_is_a_record():
    assert len(RECORDS) >= 43
    for name in ("mer.syntax.ModuleAst", "mer.syntax.BinOp", "mer.interp.ClosureV",
                 "mer.equiv.TrialPlan", "mer.rewrite.RewriteRule", "mer.analysis.FunKey"):
        assert name in RECORDS
    for name, cls in RECORDS.items():
        assert issubclass(cls, Record), name
        assert [getattr(cls, m) for m in METHODS] == [getattr(Record, m) for m in METHODS], name
        # the __init__ record() made, named as dataclass would name it
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__", name


@pytest.mark.parametrize("name", sorted(RECORDS) + sorted(SCHEME_KINDS))
def test_record_follows_the_one_rule(name):
    if name in SCHEME_KINDS:
        instance = SCHEME_KINDS[name]
        cls, values = type(instance), tuple(getattr(instance, f.name) for f in fields(instance))
    else:
        cls = RECORDS[name]
        values = _values(cls)
    r = cls(*values)
    names = [f.name for f in fields(cls)]
    assert [getattr(r, n) for n in names] == list(values)
    assert cls(**dict(zip(names, values))) == r
    if cls is ModuleAst:  # a __dict__ for caches, empty until one is kept
        assert vars(r) == {}
    else:
        assert not hasattr(r, "__dict__")
    for n in names:
        with pytest.raises(FrozenInstanceError):
            setattr(r, n, None)
        with pytest.raises(FrozenInstanceError):
            delattr(r, n)
    assert [getattr(r, n) for n in names] == list(values)

    twin = _twin(cls)(*values)
    compared = tuple(getattr(r, f.name) for f in fields(cls) if f.compare)
    assert hash(r) == hash(compared) == hash(twin)
    assert repr(r) == repr(twin)
    assert r != twin and r != values
    if cls is not RewriteRule:  # its __post_init__ takes templates only
        for f in fields(cls):
            changed = cls(**{**dict(zip(names, values)), f.name: "other"})
            assert (changed == r) is not f.compare, f.name
            assert getattr(dataclasses.replace(r, **{f.name: "other"}), f.name) == "other"

    for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(c) is cls and c is not r
        assert [getattr(c, n) for n in names] == list(values)
        assert c == r and hash(c) == hash(r) and repr(c) == repr(r)
    assert dataclasses.replace(r) == r

    required = [v for f, v in zip(fields(cls), values) if f.default is MISSING]
    if len(required) < len(values):
        assert repr(cls(*required)) == repr(_twin(cls)(*required))


def test_record_runs_post_init():
    bad = TupleExpr((MetaSeq("Xs", 0), MetaSeq("Ys", 1)), 2)
    with pytest.raises(TemplateError, match="more than one list metavariable"):
        RewriteRule(bad, bad)


def test_closure_code_is_neither_compared_nor_shown():
    body = parse("f() -> 1.\n").definitions[0].body
    a, b = ClosureV((), body, {}, None), ClosureV((), body, {}, len)
    assert a == b and hash(ClosureV((), body, (), None)) == hash(((), body, ()))
    assert repr(a) == repr(b) == repr(_twin(ClosureV)((), _as_twin(body), {}, None))
    assert "code" not in repr(a)


def test_repr_is_the_dataclass_one_on_trees_and_values():
    modules = [parse(GENERALISED_SRC)] + [parse(t) for t in _large_inputs()[:-1]]
    modules += [gen_module(seed, 3) for seed in range(20)]
    for m in modules:
        assert repr(m) == repr(_as_twin(m))
    m = parse(GENERALISED_SRC + "h(X) -> print({X, ok}), fun(Y) -> {X, Y} end.\n")
    outcomes = [eval_call(m, FunKey("h", 1), [IntV(3)]), eval_call(m, FunKey("g", 1), [IntV(4)]),
                eval_call(m, FunKey("h", 1), []), eval_call(m, FunKey("g", 1), [IntV(1)], fuel=2)]
    plan = TrialPlan((FunKey("g", 1),), trials=3)
    outcomes.append(check_module_equiv(m, parse(GENERALISED_SRC.replace("2", "3")), plan))
    outcomes.append(check_module_equiv(m, m, plan))
    for o in outcomes:
        assert repr(o) == repr(_as_twin(o))
    assert len({type(o).__name__ for o in outcomes}) == 5


def test_repr_of_a_deep_tree_returns():
    text = _large_inputs()[-1]
    m = parse(text)
    shown = repr(m)
    chain = m.definitions[0].body.exprs[0]
    assert shown.count("BinOp(op='+', left=") == 2999
    assert ("BinOp(op='+', left=" * 2999 + "VarRef(name='X', node_id=1, ") in shown
    assert shown.endswith(f"node_id={m.definitions[0].node_id}, span={m.definitions[0].span!r}),)"
                          f", next_node_id={m.next_node_id})")
    assert sum(1 for _ in walk(chain)) == 2 * 3000 - 1
    # a short chain, within Python's stack, prints as the dataclass does
    short = parse("deep(X) -> " + "X + " * 99 + "1.\n")
    assert repr(short) == repr(_as_twin(short))


def test_trial_arguments_follow_the_randint_stream():
    for lo, hi in ((-5, 5), (0, 0), (3, 9), (-2048, 2047)):
        plan = TrialPlan((FunKey("f", 2),), arg_lo=lo, arg_hi=hi)
        rng, old = random.Random(11), random.Random(11)
        for arity in (0, 1, 2, 3) * 5:
            args = plan.make_args(rng, arity)
            assert args == tuple(IntV(old.randint(lo, hi)) for _ in range(arity))
        assert rng.getstate() == old.getstate()


def test_a_plan_refuses_an_argument_range_too_wide_to_tabulate():
    m = parse("f(X) -> X.\n")
    plan = TrialPlan((FunKey("f", 1),), arg_lo=0, arg_hi=MAX_ARG_RANGE)
    with pytest.raises(PlanError, match=f"at most {MAX_ARG_RANGE} values, got {MAX_ARG_RANGE + 1}"):
        check_module_equiv(m, m, plan)
    widest = TrialPlan((FunKey("f", 1),), arg_lo=1, arg_hi=MAX_ARG_RANGE, trials=3)
    assert check_module_equiv(m, m, widest) == Equivalent(3)
