"""The benchmark's traced run rebinds gvqa functions by name; each must exist."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracing")


def test_traced_functions_resolve(tracing):
    for mod_name, fn_name, _ in tracing.FUNCTIONS:
        module = importlib.import_module(f"gvqa.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"gvqa.{mod_name}.{fn_name}"


def test_traced_methods_resolve(tracing):
    for mod_name, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"gvqa.{mod_name}"), cls_name, None)
        assert cls is not None, f"gvqa.{mod_name}.{cls_name}"
        assert callable(vars(cls).get(meth)), f"gvqa.{mod_name}.{cls_name}.{meth}"
