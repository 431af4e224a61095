import importlib
import pkgutil

import pdslab


def _modules():
    yield pdslab
    for info in pkgutil.walk_packages(pdslab.__path__, prefix="pdslab."):
        yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    exporting = []
    for module in _modules():
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        exporting.append(module.__name__)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
        assert len(set(names)) == len(names), f"{module.__name__}.__all__ repeats a name"
    # the library modules all declare their public surface
    for name in ("randkit", "graphmodels", "detectors", "reduction", "theorychecks"):
        assert f"pdslab.{name}" in exporting
