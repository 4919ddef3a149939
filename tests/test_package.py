import importlib

import pytest

import hessint as h

SUBMODULES = [importlib.import_module(f"hessint.{m}") for m in
              ("errors", "special_functions", "exponent_bounds", "envelope_lab",
               "counterexample")]
LAZY = [name for names in h._LAZY.values() for name in names]


@pytest.fixture
def uncached(monkeypatch):
    # drop the names the numpy layers resolved so far, so each access below is a first one
    for name in LAZY:
        monkeypatch.delitem(vars(h), name, raising=False)


def test_every_public_name_is_its_submodules_object(uncached):
    for name in h.__all__:
        if name == "__version__":
            continue
        value = getattr(h, name)
        owners = [m for m in SUBMODULES if name in vars(m)]
        assert owners, name
        assert all(vars(m)[name] is value for m in owners), name


def test_a_resolved_name_is_cached(uncached):
    for name in LAZY:
        assert name not in vars(h)
        value = getattr(h, name)
        assert vars(h)[name] is value


def test_star_import_and_dir_list_every_public_name(uncached):
    namespace = {}
    exec("from hessint import *", namespace)
    assert set(h.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(h, name) for name in h.__all__)
    assert set(h.__all__) <= set(dir(h))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        h.no_such_name
    assert not hasattr(h, "no_such_name")
