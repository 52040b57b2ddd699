"""The benchmark's tracer looks library functions up by name; each must resolve.

``perfbench/tracer.py`` wraps every entry of its ``FUNCTIONS`` table, a
function by module attribute and a method by its class's own namespace, and
``perfbench/run.py`` clears ``cyclotomic_poly``'s cache between passes. A
name deleted or renamed in ``src/`` would crash ``run.py --trace 1``, which
only the benchmark's own suite runs; these tests fail first. The tracer is
imported from ``perfbench/`` as it stands and never modified.
"""

import sys
from importlib import import_module
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    """``perfbench/tracer.py`` as a module, imported without writing bytecode into perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


@pytest.fixture(scope="module")
def tracer():
    module = load_tracer()
    for module_name, _, _ in module.FUNCTIONS:
        import_module(f"cycloderiv.{module_name}")
    return module


def test_every_traced_name_resolves(tracer):
    assert tracer.FUNCTIONS
    for module_name, attr, _ in tracer.FUNCTIONS:
        module = sys.modules[f"cycloderiv.{module_name}"]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            assert callable(vars(getattr(module, cls_name)).get(method)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
    assert callable(sys.modules["cycloderiv.polynomials"].cyclotomic_poly.cache_clear)


def test_installing_the_tracer_wraps_and_restores_det(tracer):
    intlinalg = sys.modules["cycloderiv.intlinalg"]
    original = intlinalg.det
    with tracer.Tracer().installed():
        assert intlinalg.det is not original
        assert intlinalg.det.__wrapped__ is original
    assert intlinalg.det is original
