"""Every name in a module's __all__ resolves, so a star import of any
qident module works and no export outlives the code it named."""

import importlib
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
