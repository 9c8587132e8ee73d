"""Every name in a module's __all__ resolves, so a star import of any
qident module works and no export outlives the code it named; and every
public function or class a library module defines is exported."""

import importlib
import inspect
import pkgutil

import pytest

import qident

MODULES = ["qident"] + [
    f"qident.{info.name}" for info in pkgutil.iter_modules(qident.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    assert [n for n in exports if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exports) <= namespace.keys()


# the command-line module's cmd_* functions are entry points, not API
@pytest.mark.parametrize("name", [m for m in MODULES if m != "qident.cli"])
def test_every_public_definition_is_exported(name):
    module = importlib.import_module(name)
    defined = [
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    assert sorted(set(defined) - set(module.__all__)) == []
