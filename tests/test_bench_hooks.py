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
