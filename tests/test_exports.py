import importlib

import pytest


@pytest.mark.parametrize("module", ["sweepcvrp", "sweepcvrp.interval"])
def test_star_import_resolves_every_public_name(module):
    # `from ... import *` raises AttributeError on a name in __all__ that the
    # module no longer defines
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    names = importlib.import_module(module).__all__
    assert len(set(names)) == len(names)
    assert all(name in namespace for name in names)
