"""The end-to-end benchmark's layer hooks still name real entry points.

``perfbench/layers.py`` wraps each layer's entry point by module and
attribute name for its ``--trace 1`` breakdown.  A rename under ``src/``
would otherwise surface only there, so every ``(module, attribute)`` in
its ``POINTS`` table must resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _points():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.POINTS


@pytest.mark.parametrize(
    "module_name,attr", [(point[0], point[1]) for point in _points()]
)
def test_hook_point_resolves(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
