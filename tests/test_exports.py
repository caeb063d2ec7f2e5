import importlib

import pytest

MODULES = ("dotgates", "dotgates.operators", "dotgates.model", "dotgates.dynamics",
           "dotgates.gates", "dotgates.config", "dotgates.cli")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
