"""Seeded source-text generators for the benchmark.

They are written against the object language's concrete syntax, not
against mer's own generators (``gen_module``, ``gen_expr``), so a change
to mer cannot change the benchmark's inputs. mer only ever receives the
text produced here. Text is emitted in the pretty-printer's canonical
layout, so an expected sub-expression can be compared with what mer
prints back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Small terminating modules (sweep)

_OPS = ("+", "-", "*", "div", "==", "<")
_ATOMS = ("a", "b", "ok")


class _ExprText:
    """Random expressions as text. Every variable is bound exactly once,
    calls go only to earlier definitions, and closures never escape, so
    every entry terminates and returns a ground value."""

    def __init__(self, rng: random.Random, callable_keys: list[tuple[str, int]]):
        self.rng = rng
        self.keys = callable_keys
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def leaf(self, env: tuple[str, ...]) -> str:
        roll = self.rng.random()
        if env and roll < 0.45:
            return self.rng.choice(env)
        if roll < 0.9:
            return str(self.rng.randint(0, 9))
        return self.rng.choice(_ATOMS)

    def expr(self, depth: int, env: tuple[str, ...]) -> str:
        rng = self.rng
        if depth <= 0:
            return self.leaf(env)
        kinds = ["leaf", "binop", "binop", "tuple", "block", "print", "match",
                 "applied_lambda"]
        if self.keys:
            kinds += ["call", "call"]
        kind = rng.choice(kinds)

        def sub() -> str:
            return self.expr(depth - 1, env)

        if kind == "leaf":
            return self.leaf(env)
        if kind == "binop":
            return f"({sub()} {rng.choice(_OPS)} {sub()})"
        if kind == "tuple":
            return "{" + ", ".join(sub() for _ in range(rng.randint(0, 2))) + "}"
        if kind == "block":
            return "begin " + ", ".join(sub() for _ in range(rng.randint(1, 2))) + " end"
        if kind == "print":
            return f"print({sub()})"
        if kind == "match":
            return f"({self.fresh('V')} = {sub()})"
        if kind == "applied_lambda":
            params = tuple(self.fresh("L") for _ in range(rng.randint(0, 2)))
            inner = env + params
            body = ", ".join(self.expr(depth - 1, inner)
                             for _ in range(rng.randint(1, 2)))
            args = ", ".join(self.leaf(env) for _ in params)
            return f"(fun({', '.join(params)}) -> {body} end)({args})"
        name, arity = rng.choice(self.keys)
        return f"{name}({', '.join(sub() for _ in range(arity))})"


def small_module(seed: int) -> str:
    """A module of 1 to 3 definitions with an acyclic call graph."""
    rng = random.Random(seed)
    keys: list[tuple[str, int]] = []
    lines = []
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(0, 2)
        params = tuple(f"X{j}" for j in range(arity))
        et = _ExprText(rng, list(keys))
        body = ", ".join(et.expr(rng.randint(1, 3), params)
                         for _ in range(rng.randint(1, 2)))
        lines.append(f"f{i}({', '.join(params)}) -> {body}.")
        keys.append((f"f{i}", arity))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Large module (large_refactor, verify_large)

HUBS = (
    "hub0(X) -> X + 1.",
    "hub1(X, Y) -> {X, Y}.",
    "hub2(X) -> begin print(X), X * 2 end.",
)


@dataclass(frozen=True)
class Site:
    """A sub-expression of one definition, reached from the definition by
    a path of attribute names and tuple indices; ``text`` is how it
    prints."""

    fun: str
    arity: int
    path: tuple
    text: str


@dataclass(frozen=True)
class LargeModule:
    text: str
    signatures: frozenset  # of (name, arity)
    sites: dict  # kind -> list[Site]
    entries: tuple  # (name, arity) of terminating, integer-argument entries


def large_module(seed: int, n_defs: int) -> LargeModule:
    """About n_defs definitions of six shapes, with matches, prints,
    lambdas, tuples and calls into three hub functions. Each shape has
    sites whose refactoring outcome is known from the shape alone."""
    rng = random.Random(seed)
    lines = list(HUBS)
    sigs = {("hub0", 1), ("hub1", 2), ("hub2", 1)}
    sites: dict[str, list[Site]] = {k: [] for k in (
        "generalise_ok", "generalise_clash", "wrap_ok", "wrap_binds",
        "extract_ok", "extract_impure")}
    entries = []
    shapes = ("arith", "lam", "prt", "tup", "blk", "clash")
    i = 0
    while len(lines) < n_defs:
        # Shapes come in blocks of one each, in seeded order, so every
        # seed gives the same mix and about the same module size.
        if i % len(shapes) == 0:
            block = rng.sample(shapes, len(shapes))
        shape = block[i % len(shapes)]
        k1, k2 = rng.randint(2, 97), rng.randint(2, 97)
        if shape == "arith":
            name = f"a{i}"
            rhs = f"X * {k1} + hub0(Y)"
            lines.append(f"{name}(X, Y) -> Z = {rhs}, Z - {k2}.")
            sigs.add((name, 2))
            sites["generalise_ok"].append(
                Site(name, 2, ("body", "exprs", 1, "right"), str(k2)))
            sites["wrap_ok"].append(Site(name, 2, ("body", "exprs", 0, "rhs"), rhs))
            sites["wrap_binds"].append(
                Site(name, 2, ("body", "exprs", 0), f"Z = {rhs}"))
            entries.append((name, 2))
        elif shape == "lam":
            name = f"l{i}"
            lines.append(f"{name}(X) -> F = fun(A) -> A + {k1} end, F(X) + hub0({k2}).")
            sigs.add((name, 1))
            entries.append((name, 1))
        elif shape == "prt":
            name = f"p{i}"
            lines.append(f"{name}(X) -> print({{X, ok}}), hub2(X + {k1}), print({k2}).")
            sigs.add((name, 1))
            sites["extract_impure"].append(
                Site(name, 1, ("body", "exprs", 2), f"print({k2})"))
            entries.append((name, 1))
        elif shape == "tup":
            name = f"t{i}"
            lines.append(f"{name}(X) -> {{P, Q}} = hub1(X, {k1}), P * Q + {k2}.")
            sigs.add((name, 1))
            sites["extract_ok"].append(
                Site(name, 1, ("body", "exprs", 1, "right"), str(k2)))
            entries.append((name, 1))
        elif shape == "blk":
            name = f"b{i}"
            lines.append(f"{name}(X, Y) -> begin W = X + {k1}, W * Y end.")
            sigs.add((name, 2))
            entries.append((name, 2))
        else:
            # c/1 is generalisable in shape, but c/2 already exists, so the
            # composite's final rename hits a signature clash.
            name = f"c{i}"
            lines.append(f"{name}(X) -> X * {k1}.")
            lines.append(f"{name}(A, B) -> A - B.")
            sigs.update({(name, 1), (name, 2)})
            sites["generalise_clash"].append(
                Site(name, 1, ("body", "exprs", 0, "right"), str(k1)))
        i += 1
    return LargeModule("\n".join(lines) + "\n", frozenset(sigs), sites,
                       tuple(entries))


def deep_definition(name: str, terms: int) -> str:
    """``name(X) -> X + X + ... + 1.`` with the given number of terms: a
    terminating entry whose expression tree is ``terms`` levels deep."""
    return f"{name}(X) -> " + "X + " * (terms - 1) + "1.\n"


# ---------------------------------------------------------------------------
# The paper's case study (two definitions in, three out)

CASE_STUDY_SRC = "f(X) -> begin X * 2 end.\ng(X) -> f(X+1).\n"
CASE_STUDY_POS = "1:19"
CASE_STUDY_EXPECTED = frozenset({
    "f(X, Y) -> begin X * Y() end.",
    "f(X) -> f(X, fun() -> 2 end).",
    "g(X) -> f(X + 1).",
})
