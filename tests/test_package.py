import importlib
import pkgutil
import re
from pathlib import Path

import radialeit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert all(hasattr(radialeit, name) for name in radialeit.__all__)
    for name in [m.name for m in pkgutil.iter_modules(radialeit.__path__)]:
        module = importlib.import_module(f"radialeit.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_readme_python_examples_run():
    # every ```python block of the README, in order, in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
