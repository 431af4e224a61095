"""Deterministic sampling primitives and exact finite-PMF arithmetic.

Everything random in this package flows through :class:`Seed`: a
(master, stream) pair of 64-bit integers.  Child streams are derived with a
splitmix64-style finalizer, so parallel work never shares generator state —
workers derive independent children instead.  Identical (master, stream)
pairs yield bit-identical sample sequences on every platform.

PMFs are dense float vectors over {0, ..., n}.  Supports in this package
are at most a few thousand long, so simplicity beats memory.  Binomial and
hypergeometric weights are computed in log-space (log-gamma) and
exponentiated, with compensated summation for the final normalization.
``scipy.special`` supplies the log-gamma ufuncs; ``binom_pmf`` and
``_log_comb`` import it on their first call, so a process that builds no
such PMF never loads scipy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidPmfError, InvalidProbabilityError

__all__ = [
    "mix64",
    "derive_key",
    "Seed",
    "as_seed",
    "Pmf",
    "binom_pmf",
    "hyper_pmf",
    "sample_pmf",
    "tv_distance",
]

_MASK64 = (1 << 64) - 1

# splitmix64 golden-ratio increment; fixed forever, documented in the README.
_PHI64 = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche mix."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_key(master: int, *indices: int) -> int:
    """Fold stream indices into a master key, one mix per level."""
    key = master & _MASK64
    for ix in indices:
        key = mix64(key ^ ((int(ix) * _PHI64) & _MASK64))
    return key


@dataclass(frozen=True)
class Seed:
    """A (master, stream) pair naming one deterministic random stream.

    ``child(i)`` derives an independent stream; distinct index paths from
    the same root give statistically independent generators.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master", int(self.master) & _MASK64)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def key(self) -> int:
        return derive_key(self.master, self.stream)

    def child(self, index: int) -> "Seed":
        return Seed(self.key(), index)

    def rng(self) -> np.random.Generator:
        """Materialize the stream as a numpy generator (PCG64)."""
        return np.random.Generator(np.random.PCG64(self.key()))


def _integer(n, name: str) -> int:
    """n as a Python int; a bool, float, string or other non-integer is refused, not truncated."""
    if not isinstance(n, (bool, np.bool_)):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, got {n!r}")


def as_seed(seed: "Seed | int") -> Seed:
    return seed if isinstance(seed, Seed) else Seed(_integer(seed, "seed"))


class Pmf:
    """An explicit probability mass function on {0, ..., max_value}.

    Entries in [-1e-12, 0) are round-off and get clamped to zero; anything
    more negative, or a total mass off 1 by more than 1e-12, is a
    construction error.  Instances are immutable and safe to share across
    threads.
    """

    __slots__ = ("probs", "_cdf")

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64).copy()
        if p.ndim != 1 or p.size == 0:
            raise InvalidPmfError("a PMF needs a nonempty 1-d probability vector")
        if np.any(p < -1e-12) or not np.all(np.isfinite(p)):
            # fmin skips NaN like nanmin, without its all-NaN RuntimeWarning
            worst = float(np.fmin.reduce(p))
            raise InvalidPmfError(f"negative or non-finite probability (min entry {worst:g})")
        np.clip(p, 0.0, None, out=p)
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > 1e-12:
            raise InvalidPmfError(f"probabilities sum to {total!r}, not 1")
        p /= total
        p.flags.writeable = False
        self.probs = p
        self._cdf = None

    @property
    def max_value(self) -> int:
        return self.probs.size - 1

    def cdf(self) -> np.ndarray:
        if self._cdf is None:
            c = np.cumsum(self.probs)
            c[-1] = 1.0
            c.flags.writeable = False
            self._cdf = c
        return self._cdf

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, m: int) -> float:
        return float(self.probs[m])

    def __eq__(self, other) -> bool:
        return isinstance(other, Pmf) and np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"Pmf(max_value={self.max_value})"


def binom_pmf(n: int, p: float) -> Pmf:
    """Binomial(n, p) as an explicit PMF, built in log-space."""
    n = _integer(n, "binomial n")
    if n < 0:
        raise InvalidParameterError(f"binomial needs n >= 0, got {n}")
    if not (0.0 <= p <= 1.0):
        raise InvalidProbabilityError(f"success probability {p!r} outside [0, 1]")
    from scipy.special import gammaln, xlog1py, xlogy

    m = np.arange(n + 1)
    log_coeff = gammaln(n + 1) - gammaln(m + 1) - gammaln(n - m + 1)
    logpmf = log_coeff + xlogy(m, p) + xlog1py(n - m, -p)
    return Pmf(np.exp(logpmf))


def hyper_pmf(pop: int, successes: int, draws: int) -> Pmf:
    """Hypergeometric PMF: draws without replacement from a two-type urn."""
    pop, successes, draws = _integer(pop, "pop"), _integer(successes, "successes"), _integer(draws, "draws")
    if not (0 <= successes <= pop and 0 <= draws <= pop):
        raise InvalidParameterError(
            f"need 0 <= successes, draws <= pop; got pop={pop}, successes={successes}, draws={draws}"
        )
    lo = max(0, draws - (pop - successes))
    hi = min(successes, draws)
    probs = np.zeros(draws + 1)
    hh = np.arange(lo, hi + 1)
    logpmf = (
        _log_comb(successes, hh)
        + _log_comb(pop - successes, draws - hh)
        - _log_comb(pop, draws)
    )
    # max-shift before exponentiating: log-gamma round-off over long supports
    # can push the raw sum past the 1e-12 normalization gate
    logpmf -= logpmf.max()
    weights = np.exp(logpmf)
    probs[lo : hi + 1] = weights / math.fsum(weights.tolist())
    return Pmf(probs)


def _log_comb(n, k):
    from scipy.special import gammaln

    return gammaln(n + 1) - gammaln(k + 1) - gammaln(np.asarray(n) - k + 1)


def sample_pmf(pmf: Pmf, rng: np.random.Generator) -> int:
    """One draw from an explicit PMF by inversion (CDF walk)."""
    u = rng.random()
    m = int(np.searchsorted(pmf.cdf(), u, side="right"))
    return min(m, pmf.max_value)


def tv_distance(a: Pmf, b: Pmf) -> float:
    """Total variation distance, (1/2) sum |a - b|; supports are zero-padded."""
    n = max(a.probs.size, b.probs.size)
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: a.probs.size] = a.probs
    pb[: b.probs.size] = b.probs
    return 0.5 * math.fsum(np.abs(pa - pb).tolist())
