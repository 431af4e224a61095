import importlib
import inspect

from conftest import pdslab_modules


_LIBRARY = ("randkit", "graphmodels", "detectors", "reduction", "theorychecks")


def test_every_exported_name_resolves():
    exporting = []
    for module in pdslab_modules():
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        exporting.append(module.__name__)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
        assert len(set(names)) == len(names), f"{module.__name__}.__all__ repeats a name"
    # the library modules all declare their public surface
    for name in _LIBRARY:
        assert f"pdslab.{name}" in exporting


def test_every_public_function_and_class_is_exported():
    for name in _LIBRARY:
        module = importlib.import_module(f"pdslab.{name}")
        public = [
            attr for attr, value in vars(module).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        ]
        unexported = [attr for attr in public if attr not in module.__all__]
        assert not unexported, f"{module.__name__} defines public names outside __all__: {unexported}"
