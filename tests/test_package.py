import importlib
import pkgutil

import radialeit


def test_every_exported_name_resolves():
    assert all(hasattr(radialeit, name) for name in radialeit.__all__)
    for name in [m.name for m in pkgutil.iter_modules(radialeit.__path__)]:
        module = importlib.import_module(f"radialeit.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
