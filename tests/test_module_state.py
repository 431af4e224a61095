"""No module-global caches: running the commands leaves every module's
state as it found it."""

import copy
import io
from contextlib import redirect_stdout

from conftest import pdslab_modules
from pdslab.phaselab.cli import main


def _containers() -> dict:
    """A deep copy of every module-level dict, list and set, by (module, name)."""
    return {
        (module.__name__, name): copy.deepcopy(value)
        for module in pdslab_modules()
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__")
    }


def test_commands_leave_module_state_unchanged(tmp_path):
    before = _containers()
    graph, reduced = tmp_path / "g.txt", tmp_path / "r.txt"
    commands = [
        ["generate", "pc", "--n", "20", "--k", "5", "--gamma", "0.5", "--seed", "1", "--out", str(graph)],
        ["reduce", str(graph), "--k", "5", "--gamma", "0.5", "--ell", "2", "--q", "0.01",
         "--seed", "2", "--out", str(reduced)],
        ["test", str(reduced), "--test", "scan", "--K", "10", "--p", "0.02", "--q", "0.01",
         "--scan-mode", "heuristic", "--restarts", "4"],
        ["verify", "all"],
    ]
    for argv in commands:
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert _containers() == before
    for module in pdslab_modules():
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                assert value.cache_info().currsize == 0, f"{module.__name__}.{name} keeps a cache"
