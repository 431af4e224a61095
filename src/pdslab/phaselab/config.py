"""Sweep configuration: a single JSON file, schema documented in the README.

No environment variables carry semantics; everything an experiment needs is
in the config plus the master seed, so a sweep is reproducible from the
file alone.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields

from ..detectors import DEFAULT_SCAN_BUDGET, _check_exact_scan
from ..errors import BudgetExceededError, ConfigError, TooLargeError
from ..graphmodels import _MAX_VERTEX_COUNT, PdsParams

_TESTS = ("lin", "scan", "combined")
_SCAN_MODES = ("exact", "heuristic")


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    # Python's json also loads NaN, Infinity and integers past the float
    # range, none of which a float holds
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _is_number_array(x) -> bool:
    return isinstance(x, list) and all(map(_is_number, x))


# a SweepConfig field's annotation -> (its JSON check, what the check wants)
_JSON_TYPES = {
    "int": (_is_int, "a JSON integer"),
    "float": (_is_number, "a JSON number"),
    "str": (lambda x: isinstance(x, str), "a JSON string"),
    "tuple": (_is_number_array, "a JSON array of numbers"),
}


@dataclass(frozen=True)
class SweepConfig:
    alpha_grid: tuple
    beta_grid: tuple
    N: int
    trials: int
    test: str
    master_seed: int
    output_path: str
    c: float = 2.0
    restarts: int = 16
    workers: int = 1
    scan_mode: str = None  # exact for N <= 60, else heuristic

    def __post_init__(self):
        # JSON numbers become float grids and a float c; exact enumeration
        # is infeasible past small N, so it must be opted into there
        setattr_ = object.__setattr__
        setattr_(self, "alpha_grid", tuple(map(float, self.alpha_grid)))
        setattr_(self, "beta_grid", tuple(map(float, self.beta_grid)))
        setattr_(self, "c", float(self.c))
        if self.scan_mode is None:
            setattr_(self, "scan_mode", "exact" if self.N <= 60 else "heuristic")
        if not self.alpha_grid or not self.beta_grid:
            raise ConfigError("alpha_grid and beta_grid must be nonempty")
        if not (2 <= self.N <= _MAX_VERTEX_COUNT):
            raise ConfigError(f"need 2 <= N <= {_MAX_VERTEX_COUNT}, got N={self.N}")
        if self.trials < 1:
            raise ConfigError("need trials >= 1")
        if self.test not in _TESTS:
            raise ConfigError(f"test must be one of {_TESTS}, got {self.test!r}")
        if self.scan_mode not in _SCAN_MODES:
            raise ConfigError(f"scan_mode must be one of {_SCAN_MODES}, got {self.scan_mode!r}")
        if self.c <= 1.0:
            raise ConfigError("need c > 1")
        if self.workers < 1 or self.restarts < 1:
            raise ConfigError("workers and restarts must be >= 1")
        # the phase diagram's domain, in which every row is classified; there
        # q = N^-alpha and N^beta cannot overflow, and K lies in [1, N]
        for name, grid, top in (("alpha_grid", self.alpha_grid, 2), ("beta_grid", self.beta_grid, 1)):
            if not all(0.0 <= x <= top for x in grid):
                raise ConfigError(f"{name} values must lie in [0, {top}], got {list(grid)}")
        params = [self.point_params(a, b) for a, b in self.points]  # fail loudly, never clip
        if self.test != "lin" and self.scan_mode == "exact":
            for (alpha, beta), point in zip(self.points, params):
                try:
                    _check_exact_scan(self.N, point.K, DEFAULT_SCAN_BUDGET)
                except BudgetExceededError:
                    raise ConfigError(
                        f"grid point alpha={alpha}, beta={beta} gives C(N, K) = "
                        f"C({self.N}, {point.K}) > {DEFAULT_SCAN_BUDGET}, the exact scan's "
                        "budget; use scan_mode heuristic or move the grid"
                    ) from None
                except TooLargeError as err:
                    raise ConfigError(
                        f"grid point alpha={alpha}, beta={beta}: {err}; use scan_mode heuristic "
                        "or move the grid"
                    ) from None

    def point_params(self, alpha: float, beta: float) -> PdsParams:
        """Derived (N, K, p, q) at one grid point; p > 1 is an error."""
        q = float(self.N) ** (-alpha)
        p = self.c * q
        if p > 1.0:
            raise ConfigError(
                f"grid point alpha={alpha} gives p = c*q = {p:g} > 1; "
                "shrink c or move the grid"
            )
        k = int(math.floor(float(self.N) ** beta + 0.5))
        return PdsParams(N=self.N, K=k, p=p, q=q)

    @property
    def points(self) -> list:
        """Grid points in deterministic row-major (alpha, beta) order."""
        return [(a, b) for a in self.alpha_grid for b in self.beta_grid]


def load_config(path) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    required = [f.name for f in fields(SweepConfig) if f.default is MISSING]
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"config is missing keys: {', '.join(missing)}")
    unknown = sorted(set(raw) - {f.name for f in fields(SweepConfig)})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for f in fields(SweepConfig):
        ok, kind = _JSON_TYPES[f.type]
        if f.name in raw and not ok(raw[f.name]):
            raise ConfigError(f"{f.name} must be {kind}, got {json.dumps(raw[f.name])}")
    return SweepConfig(**raw)
