"""The package namespace: each public name resolves from its home module on use.

``cycloderiv/__init__.py`` lists every public name once, under the module
that defines it, and imports that module the first time the name is read.
It never copies the value into its own namespace, so a rebinding in the
home module is what the package returns.
"""

from importlib import import_module

import pytest

import cycloderiv
from cycloderiv import intlinalg

NAMES = [name for name in cycloderiv.__all__ if name != "__version__"]


def _home(name):
    return import_module(f"cycloderiv.{cycloderiv._HOME[name]}")


@pytest.mark.parametrize("name", NAMES)
def test_each_public_name_is_its_home_modules_binding(name):
    home = _home(name)
    assert name in vars(home)
    assert getattr(cycloderiv, name) is vars(home)[name]


def test_all_lists_each_name_once():
    assert cycloderiv.__all__[0] == "__version__"
    assert len(set(cycloderiv.__all__)) == len(cycloderiv.__all__) == 41
    assert set(cycloderiv.__all__) <= set(dir(cycloderiv))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cycloderiv import *", namespace)
    assert namespace["__version__"] == cycloderiv.__version__
    for name in NAMES:
        assert namespace[name] is getattr(cycloderiv, name)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'cycloderiv' has no attribute 'no_such_name'$"):
        cycloderiv.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from cycloderiv import no_such_name  # noqa: F401


def test_the_package_namespace_keeps_no_library_object():
    values = [getattr(cycloderiv, name) for name in NAMES]
    held = [key for key, value in vars(cycloderiv).items()
            if key != "__version__" and any(value is v for v in values)]
    assert held == []
    assert set(NAMES).isdisjoint(vars(cycloderiv))


def test_a_rebinding_in_the_home_module_is_what_the_package_returns(monkeypatch):
    def stand_in(matrix):
        return 0

    monkeypatch.setattr(intlinalg, "det", stand_in)
    assert cycloderiv.det is stand_in
    monkeypatch.undo()
    assert cycloderiv.det is intlinalg.det is not stand_in
