"""The perfbench layer map names functions that exist.

``perfbench/serve_traced.py`` wraps every function listed in
``perfbench/layers.py`` when a traced server starts; a rename in
``src/`` would only surface there, as a crash at server start.  This
test loads the layer map by path and resolves each entry the same way,
so such a rename fails here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _load_layers()


@pytest.mark.parametrize(
    "module_name,qualname",
    [(module, qualname) for _row, _detail, module, qualname in LAYERS],
    ids=[detail for _row, detail, _module, _qualname in LAYERS],
)
def test_layer_resolves_to_a_function_its_owner_defines(module_name, qualname):
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # The owner's own __dict__, not getattr: a method inherited from a
    # base class would be patched on the wrong class.
    assert name in owner.__dict__, f"{module_name}.{qualname} is gone"
    assert inspect.isfunction(owner.__dict__[name]), f"{module_name}.{qualname}"


def test_layer_map_is_not_empty():
    assert len(LAYERS) > 10
