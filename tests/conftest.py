from __future__ import annotations

import pytest

from mer.analysis import Snapshot

DOUBLER_SRC = "f(X) -> begin X * 2 end.\ng(X) -> f(X+1).\n"
GENERALISED_SRC = (
    "f(X, Y) -> begin X * Y() end.\n"
    "f(X) -> f(X, fun() -> 2 end).\n"
    "g(X) -> f(X+1).\n"
)

DOUBLER_SRC_PRETTY = "f(X) -> begin X * 2 end.\ng(X) -> f(X + 1).\n"


@pytest.fixture
def doubler():
    return Snapshot.from_source(DOUBLER_SRC)


@pytest.fixture
def generalised():
    return Snapshot.from_source(GENERALISED_SRC)


def defs_of(module) -> set[str]:
    """Pretty-printed definitions as a set (definition order ignored)."""
    from mer.syntax import pretty_def
    return {pretty_def(d) for d in module.definitions}


def target_of(snap: Snapshot, expr_text: str, occurrence: int = 1):
    """NodeRef of the nth expression in snap structurally equal to the text."""
    from mer.syntax import is_expr, parse_expr_text, struct_eq, walk
    wanted = parse_expr_text(expr_text)
    count = 0
    for d in snap.module.definitions:
        for n in walk(d):
            if is_expr(n) and struct_eq(n, wanted):
                count += 1
                if count == occurrence:
                    return snap.ref(n.node_id)
    raise AssertionError(f"no occurrence {occurrence} of {expr_text!r}")
