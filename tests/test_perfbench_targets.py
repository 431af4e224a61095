"""The traced benchmark wraps pdslab functions by (module, attribute) name.

A rename in pdslab would break ``perfbench/run.py --trace 1`` without any
other test failing, so every target must resolve here.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for module, attr, *_ in layers.TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr} is not callable"
