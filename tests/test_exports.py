import importlib
import inspect
import pkgutil

import pytest

import chopt

MODULES = sorted(m.name for m in pkgutil.iter_modules(chopt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"chopt.{name}")
    if not hasattr(module, "__all__"):
        return  # a star import then takes every public name, so nothing can go stale
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"duplicate names in {name}.__all__"
    stale = [n for n in exported if not hasattr(module, n)]
    assert not stale, f"{name}.__all__ lists undefined names {stale}"
    # a re-export would give one name two owners; constants carry no __module__
    foreign = [
        n for n in exported
        if getattr(getattr(module, n), "__module__", module.__name__) != module.__name__
    ]
    assert not foreign, f"{name}.__all__ re-exports names defined elsewhere: {foreign}"
    defined = [
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    unlisted = [n for n in defined if n not in exported]
    assert not unlisted, f"{name} defines public names missing from __all__: {unlisted}"
