"""The benchmark's tracer wraps mer functions by module and name; every
name it lists must exist, or a traced benchmark run crashes."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module,qual", sorted(
    {target for targets in tracer.SPANS.values() for target in targets}))
def test_traced_name_resolves(module, qual):
    owner = importlib.import_module(f"mer.{module}")
    if "." in qual:
        cls_name, qual = qual.split(".")
        owner = getattr(owner, cls_name)
        assert qual in vars(owner), f"{cls_name}.{qual} is not defined on the class"
    assert callable(getattr(owner, qual))


def test_each_prime_is_one_scheme_span_and_remove_restores_every_name():
    # the six primes run three engines, each held under several names
    import mer
    from mer import refactorings, schemes
    from mer.analysis import Snapshot

    from conftest import target_of

    originals = {m: dict(vars(m)) for m in (schemes, refactorings)}
    snap = Snapshot.from_source("f(X) -> Y = 1, G = fun() -> Z = 2, Z end, X + Y + G().\n")
    fn = snap.ref(snap.module.definitions[0].node_id)
    tr = tracer.Tracer()
    tr.install(mer)
    try:
        mer.wrap(snap, target_of(snap, "1"))
        mer.extract_to_variable(snap, target_of(snap, "2"), "W")
        mer.outer_variable(snap, target_of(snap, "Z = 2"))
        mer.extract_to_function(snap, target_of(snap, "X + Y + G()"), "h", ())
        mer.var_to_param(snap, fn, target_of(snap, "Y = 1"))
        mer.rename_function(snap, fn, "g")
    finally:
        tr.remove()
    assert tr.calls["schemes.run"] == 6
    assert tr.calls["refactorings.prime"] == 6
    for module, names in originals.items():
        for name, value in names.items():
            assert vars(module)[name] is value, f"{module.__name__}.{name}"
