"""Detection tests for the planted dense subgraph problem.

Two primitive statistics drive everything here: the total edge count (a
linear-time test) and the maximum edge count over all K-vertex subsets (the
scan statistic, exponential to compute exactly).  Their thresholds are

    tau_lin  = C(N,2) q + C(K,2) (p - q) / 2
    tau_scan = C(K,2) (p + q) / 2

and every comparison against a threshold is strict: ties go to H0.

The exact scan is a depth-first branch-and-bound over the K-subsets.  Its
budget caps C(N, K), not the search nodes visited or wall time, so whether
a call runs depends on N and K alone; above budget callers must fall back
to the restart hill-climbing heuristic, whose value never exceeds the true
maximum.  The heuristic has one engine, `scan_heuristic_batch`: it runs
the restarts of several graphs with the same N and K in lockstep, each
graph with its own seed and its own result, and `t_scan_heuristic` hands
it one graph.  It reads the graphs' sorted keys once, into one CSR
adjacency per lockstep run, a layout no other module sees.  Both engines
take an optional threshold: with it they decide, not maximise, reporting
only whether their value would exceed it, and they stop at the first
K-set that does.  Derived detectors wrap user-supplied subgraph finders:
one thresholds the density of a densest-K-subgraph approximation, the
other runs a recovery algorithm over a sequence of progressively
resampled graphs and scans the recovered sets' edge counts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Callable, Optional

import numpy as np

from .errors import (
    BudgetExceededError,
    ContractViolationError,
    InvalidParameterError,
    PreconditionViolationError,
    TooLargeError,
    VertexCountMismatchError,
)
from .graphmodels import _MAX_VERTEX_ARRAY, Graph, PdsParams, _check_vertex_arrays, subgraph_edge_count
from .randkit import Seed, _integer, as_seed

__all__ = [
    "H0",
    "H1",
    "TestOutcome",
    "ErrorEstimate",
    "DEFAULT_SCAN_BUDGET",
    "scan_subset_count",
    "t_lin",
    "tau_lin",
    "t_scan_exact",
    "t_scan_heuristic",
    "scan_heuristic_batch",
    "scan_statistic",
    "tau_scan",
    "combined_test",
    "prop2_bound_lin",
    "dks_detector",
    "recovery_detector",
    "recovery_threshold",
    "estimate_errors",
    "trial_seeds",
    "is_monotone",
]

H0 = "H0"
H1 = "H1"

DEFAULT_SCAN_BUDGET = 10_000_000
_COUNT_CAP = 30
# entries in the key matrix of a block of lockstep heuristic restarts, and
# in each neighbour gather over the block (8 MB as int64)
_BLOCK = 2**20


def _comb2(x: float) -> float:
    return x * (x - 1) / 2.0


def _threshold(threshold):
    """A scan threshold as a float, or None; a bool, NaN, infinity or
    non-number is refused."""
    if threshold is None:
        return None
    if isinstance(threshold, (bool, np.bool_)) or not isinstance(threshold, numbers.Real) \
            or not math.isfinite(threshold):
        raise InvalidParameterError(f"threshold must be a finite number, got {threshold!r}")
    return float(threshold)


@dataclass(frozen=True)
class TestOutcome:
    """A test statistic, its threshold, and the resulting decision.

    The decision is H1 exactly when statistic > threshold (strictly).  For
    the combined test the statistic is the larger of the two margins and
    the threshold is zero, which preserves that invariant.
    """

    __test__ = False  # not a pytest test class despite the name

    statistic: float
    threshold: float
    decision: str
    parts: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        want = H1 if self.statistic > self.threshold else H0
        if self.decision != want:
            raise InvalidParameterError(
                f"decision {self.decision} inconsistent with statistic/threshold"
            )


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte Carlo Type-I/Type-II rates with 95% normal-approx radii."""

    type1: float
    type2: float
    trials: int
    ci_radius: tuple

    @staticmethod
    def from_rates(type1: float, type2: float, trials: int) -> "ErrorEstimate":
        def radius(r):
            return 1.96 * math.sqrt(r * (1.0 - r) / trials)

        return ErrorEstimate(type1, type2, trials, (radius(type1), radius(type2)))

    @staticmethod
    def from_h1_counts(h1: tuple, trials: int) -> "ErrorEstimate":
        """The rates of `trials` trials per arm, `h1` of them decided H1 in
        the null arm and in the planted arm."""
        return ErrorEstimate.from_rates(h1[0] / trials, (trials - h1[1]) / trials, trials)


def t_lin(g: Graph) -> int:
    """Linear statistic: the total number of edges."""
    return g.num_edges


def tau_lin(params: PdsParams) -> float:
    """Threshold for the linear test, halfway up the planted mean shift."""
    return _comb2(params.N) * params.q + _comb2(params.K) * (params.p - params.q) / 2.0


def tau_scan(K: int, p: float, q: float) -> float:
    """Threshold for the scan test: C(K,2) times the midpoint density."""
    if K < 1:
        raise InvalidParameterError("need K >= 1")
    return _comb2(K) * (p + q) / 2.0


def scan_subset_count(N: int, K: int, budget: int) -> int:
    """C(N, K) when it is at most `budget`, else a count in (budget, C(N, K)].

    C(N, K) = C(N, m) with m = min(K, N - K) grows with m, so past m = 30
    the capped count C(N, 30) >= C(62, 30) > 10^17 is a lower bound that
    tops any budget short of it, found without building an integer of
    thousands of digits; only a larger budget pays for C(N, K) in full.
    """
    m = min(K, N - K)
    count = math.comb(N, min(m, _COUNT_CAP))
    if m > _COUNT_CAP and count <= budget:
        count = math.comb(N, m)
    return count


def _check_exact_scan(N: int, K: int, budget: int) -> None:
    """Refuse an exact scan before any array: an InvalidParameterError for
    a budget that is not an integer of at least 1, a BudgetExceededError
    when C(N, K) exceeds `budget`, then, when K > 1 and the scan's arrays
    would hold more than _MAX_VERTEX_ARRAY entries, a TooLargeError.  Those
    arrays are the N x N adjacency matrix and each stacked frame's two
    N-entry rows, with at most K + 1 frames stacked at once.
    """
    if _integer(budget, "budget") < 1:
        raise InvalidParameterError(f"need a budget of at least 1, got {budget}")
    total = scan_subset_count(N, K, budget)
    if total > budget:
        relation = "=" if min(K, N - K) <= _COUNT_CAP else ">="
        raise BudgetExceededError(
            f"C({N},{K}) {relation} {total} subsets exceeds the budget of {budget}"
        )
    entries = N * (N + 2 * (K + 1))
    if K > 1 and entries > _MAX_VERTEX_ARRAY:
        raise TooLargeError(
            f"the exact scan at N = {N:,}, K = {K:,} holds {entries:,} matrix and row entries, "
            f"above the cap of {_MAX_VERTEX_ARRAY:,}"
        )


def t_scan_exact(g: Graph, K: int, budget: int = DEFAULT_SCAN_BUDGET, threshold=None):
    """Maximum edge count over all K-subsets, plus the first argmax; given a
    `threshold`, only whether some K-subset has more edges than it.

    A depth-first branch-and-bound walks the K-subsets in lexicographic
    order and keeps only strictly better leaves, so the returned set is the
    lexicographically smallest among ties.  A threshold decides rather than
    maximises: the bound starts at floor(threshold), as if a set of that
    many edges had been seen, and the walk stops at the first leaf above
    it.  Raises BudgetExceededError when C(N, K) exceeds the budget, which
    caps subsets, not search nodes, so the check comes first either way;
    then TooLargeError when its N x N matrix and frame rows would pass the
    cap on per-vertex arrays (`_check_exact_scan`).
    """
    N = g.num_vertices
    K = _integer(K, "K")
    threshold = _threshold(threshold)
    if not (0 <= K <= N):
        raise InvalidParameterError(f"need 0 <= K <= N, got K={K}, N={N}")
    _check_exact_scan(N, K, budget)
    if K <= 1:
        return (0, tuple(range(K))) if threshold is None else 0 > threshold
    # uint8 rows: the degree vectors are int64, so every sum is exact
    A = g.adjacency_matrix()
    best = -1 if threshold is None else math.floor(threshold)
    best_set = None
    # A frame stands for the completions of `prefix` by vertices >= v; deg[u]
    # counts u's edges into the prefix, rest[u] its edges to v..N-1.  An
    # explicit stack keeps K near N off the recursion limit.
    stack = [((), 0, 0, np.zeros(N, dtype=np.int64), A.sum(axis=1, dtype=np.int64))]
    while stack:
        prefix, v, count, deg, rest = stack.pop()
        r = K - len(prefix)
        if N - v < r:
            continue
        if r == 1:
            # the leaves prefix + (u,), u >= v, in lexicographic order
            u = v + int(np.argmax(deg[v:]))
            if count + int(deg[u]) > best:
                if threshold is not None:
                    return True
                best, best_set = count + int(deg[u]), prefix + (u,)
            continue
        # Each added vertex brings deg[u] edges into the prefix and at most
        # min(r-1, rest[u]) to the others added with it, each counted from both
        # ends; below 2*best + 2 no completion beats best strictly.  A failed
        # bound also drops the later siblings, which draw on fewer candidates.
        gains = np.sort(2 * deg[v:] + np.minimum(r - 1, rest[v:]))
        if 2 * count + int(gains[-r:].sum()) < 2 * best + 2:
            continue
        rest = rest - A[v]
        # the child goes on top, so the walk stays in lexicographic order
        stack.append((prefix, v + 1, count, deg, rest))
        stack.append((prefix + (v,), v + 1, count + int(deg[v]), deg + A[v], rest))
    return (best, best_set) if threshold is None else False


def _gather(ptr: np.ndarray, nbrs: np.ndarray, vs: np.ndarray, offsets=None) -> np.ndarray:
    """The CSR rows of the vertices `vs`, concatenated; given `offsets`, one
    per vertex, each entry plus its own vertex's offset."""
    starts = ptr[vs]
    lens = ptr[vs + 1] - starts
    index = (starts - lens.cumsum() + lens).repeat(lens)
    index += np.arange(index.size)
    return nbrs[index] if offsets is None else nbrs[index] + offsets.repeat(lens)


def _run_csr(graphs: list, N: int) -> tuple:
    """One CSR (ptr, nbrs) over `graphs`, each on N vertices, read from
    their sorted keys: graph j's vertex x is row j*N + x, and its
    neighbours nbrs[ptr[j*N + x]:ptr[j*N + x + 1]] are its own vertex ids,
    in increasing order, both directions of every edge."""
    # graph j's entries as keys j*N*N + x*N + y, both directions, sorted.
    # They fit int64: a run holds a second graph only when the graphs'
    # N + 2M entries sum to at most _BLOCK = 2^20, so j*N^2 < 2^40
    nbrs = np.concatenate([np.sort(np.concatenate([k, k % N * N + k // N])) + j * N * N
                           for j, k in enumerate(g._keys for g in graphs)])
    # row r's keys start at r*N, so a binary search finds each row
    starts = np.arange(0, (len(graphs) * N + 1) * N, N)
    ptr = np.searchsorted(nbrs, starts)
    nbrs -= starts[:-1].repeat(np.diff(ptr))
    return ptr, nbrs


def t_scan_heuristic(g: Graph, K: int, restarts: int, seed):
    """Best-of-restarts steepest-ascent 1-swap search for a dense K-subset.

    Always a lower bound on the exact scan statistic.  Restart r starts from
    the first K vertices of a permutation drawn from seed child r, then
    swaps a member u for an outside vertex v while the best gain
    d_v - d_u - A_uv is positive, d being the degree into the set.  Ties go
    to the first member, then to the first outside vertex, in vertex order;
    across restarts the larger count wins, then the smaller set.  The
    search itself is `scan_heuristic_batch`'s, on this one graph.
    """
    return scan_heuristic_batch([(g, seed)], g.num_vertices, K, restarts)[0]


def scan_heuristic_batch(graphs, N: int, K: int, restarts: int, threshold=None) -> list:
    """`t_scan_heuristic`'s (value, set) for each (Graph, seed) in
    `graphs`, in order: graphs on N vertices, each with its own restart
    seed.  Given a `threshold`, each graph's entry is instead whether that
    value exceeds it, found without running every restart to its stop.

    The best swap has a closed form.  With D the largest d outside the set
    and T the outside vertices at D, member u's best gain is D - d_u, less 1
    when u is adjacent to every vertex of T, and its partner is the first
    outside v that maximises d_v - A_uv.  A swap updates d on N(u) and N(v)
    only.

    Restarts run in lockstep, those of several graphs together: each
    iteration makes one swap in every live restart, on a matrix of degrees
    with one row per (graph, restart) pair, and a row leaves the matrix
    when its restart stops.  A swap only raises a restart's count, so with
    a threshold a graph is decided as soon as one of its counts exceeds
    it.  Each iteration checks the counts its swaps start from, and a
    decided graph's rows all leave with that iteration's stopped rows,
    before their swaps land.  With a threshold the
    restarts also start in waves: restart 0 of every graph first, then the
    others of the graphs it left undecided.  Restart r always draws from
    seed child r, so no result depends on the order restarts start in.

    `graphs` is read one graph at a time, and graphs join one lockstep run
    while their N + 2M entries sum to at most _BLOCK, so a lazy iterable of
    any length keeps memory bounded.  Each run's CSR adjacency is built
    once, from its graphs' keys (`_run_csr`), and the run drops its
    references to the graphs before its scan starts.  A run's rows go in
    blocks of _BLOCK // N, and at most _BLOCK // max(N, 2M) rows of a block
    gather T's neighbour lists at once, M the most edges of a graph in the
    run, so the matrix and every gather stay within _BLOCK entries: no
    N x N or K x (N - K) array is built.
    """
    N = _integer(N, "N")
    K = _integer(K, "K")
    restarts = _integer(restarts, "restarts")
    threshold = _threshold(threshold)
    if not (1 <= K <= N):
        raise InvalidParameterError(f"need 1 <= K <= N, got K={K}, N={N}")
    if restarts < 1:
        raise InvalidParameterError("need at least one restart")
    # each restart draws a permutation of N and holds a key row of N
    _check_vertex_arrays(N)
    results = []
    run, size = [], 0
    for g, seed in graphs:
        if g.num_vertices != N:
            raise VertexCountMismatchError(f"a graph has {g.num_vertices} vertices, the batch {N}")
        if run and size + N + 2 * g.num_edges > _BLOCK:
            results += _lockstep_scan(run, N, K, restarts, threshold)  # empties run
            size = 0
        run.append((g, as_seed(seed)))
        size += N + 2 * g.num_edges
    if run:
        results += _lockstep_scan(run, N, K, restarts, threshold)
    return results


def _lockstep_scan(run: list, N: int, K: int, restarts: int, threshold) -> list:
    """The (value, set) of each (Graph, Seed) in `run`, or whether the value
    exceeds `threshold` if one is given, by one lockstep run; `run` is left
    empty, so the graphs go before the scan starts."""
    seeds = [seed for _, seed in run]
    if K == 1:
        run.clear()
        return [(0, (0,)) if threshold is None else 0 > threshold] * len(seeds)
    ptr, nbrs = _run_csr([g for g, _ in run], N)
    per_gather = max(1, _BLOCK // max(N, *(2 * g.num_edges for g, _ in run)))
    run.clear()
    # key[x] is x's degree into the set, less `off` for members: members sit
    # at or below -2 and outside vertices at or above 0
    off = N + 1
    best_count = [-1] * len(seeds)
    best_set = [None] * len(seeds)
    decided = np.zeros(len(seeds), dtype=bool)  # graphs with a count above threshold
    per_block = max(1, _BLOCK // N)

    def blocks():
        # the (graph, restart) pairs in start order, per_block at a time.  A
        # block takes its pairs as it starts, so a graph decided by then
        # starts no more restarts; with a threshold, restarts 1.. wait until
        # restart 0 of every graph has stopped
        firsts = ((j, 0) for j in range(len(seeds)))
        others = ((j, r) for j in range(len(seeds)) for r in range(1, restarts) if not decided[j])
        for wave in (chain(firsts, others),) if threshold is None else (firsts, others):
            while block := list(islice(wave, per_block)):
                yield block

    for block in blocks():
        keys = np.empty((len(block), N), dtype=np.int64)
        counts = np.empty(len(block), dtype=np.int64)
        for i, (j, r) in enumerate(block):
            start = seeds[j].child(r).rng().permutation(N)[:K]
            key = np.bincount(_gather(ptr, nbrs, start + j * N), minlength=N)
            counts[i] = key[start].sum() // 2
            key[start] -= off
            keys[i] = key
        base = np.arange(len(block)) * N  # each row's offset in `flat`
        vbase = np.array([j for j, _ in block]) * N  # its graph's in ptr
        flat = keys.reshape(-1)
        while len(keys):
            D = keys.max(axis=1)
            u = keys.argmin(axis=1)  # the first member of least degree
            # no swap gains more than D - d_u; with K = N, D is a member's key
            # and this is negative
            gain = D - off - flat[base + u]
            # take u's edges off: within a row the neighbours are distinct, so
            # each flat index occurs once and a fancy -= is exact.  The first
            # argmax of a row is then the first outside v maximising
            # d_v - A_uv, since members stay below -1
            at = _gather(ptr, nbrs, vbase + u, base)
            flat[at] -= 1
            v = keys.argmax(axis=1)
            # a row whose largest key fell below D saw every vertex of T lose
            # one: u sees all of T, so its gain is one less and a later member
            # may reach more.  Those rows get u's edges back and choose again
            sees = (flat[base + v] < D) & (gain > 0)
            if sees.any():
                flat[at[sees[at // N]]] += 1
                # T's neighbour lists reach 2M entries a row, so at most
                # per_gather rows gather them at once
                rows = sees.nonzero()[0]
                for first_row in range(0, rows.size, per_gather):
                    s = rows[first_row:first_row + per_gather]
                    ks = keys[s]
                    top = ks == D[s, None]
                    t_row, t = top.nonzero()
                    # x sees all of T when all of T is among x's neighbours
                    sees_top = np.bincount(_gather(ptr, nbrs, vbase[s][t_row] + t, t_row * N),
                                           minlength=top.size)
                    sees_top = sees_top.reshape(top.shape) == np.count_nonzero(top, axis=1)[:, None]
                    # the first member of largest row maximum; outside vertices at
                    # -off, below every member's D - d_x - 1
                    row_max = np.where(ks < 0, (D[s] - off)[:, None] - ks - sees_top, -off)
                    u[s] = row_max.argmax(axis=1)
                    gain[s] = row_max.max(axis=1)
                    s = s[gain[s] > 0]
                    if s.size:
                        flat[_gather(ptr, nbrs, vbase[s] + u[s], base[s])] -= 1
                        v[s] = keys[s].argmax(axis=1)
            # a restart stops at its first gain <= 0.  Its members are the keys
            # below -1 even with u's edges still off: members at -3 or below,
            # outside vertices at -1 or above; its graph's best is the larger
            # count, then the smaller set.  A threshold keeps no sets: a
            # count above it decides its graph, whose rows all stop
            done = gain <= 0
            if threshold is not None:
                decided[vbase[counts > threshold] // N] = True
                done |= decided[vbase // N]
            if done.any():
                for i in done.nonzero()[0] if threshold is None else ():
                    j = vbase[i] // N
                    cand = tuple((keys[i] < -1).nonzero()[0].tolist())
                    if counts[i] > best_count[j] or (counts[i] == best_count[j] and cand < best_set[j]):
                        best_count[j], best_set[j] = int(counts[i]), cand
                keep = ~done
                keys, counts, u, v, gain = keys[keep], counts[keep], u[keep], v[keep], gain[keep]
                vbase = vbase[keep]
                base = base[:len(keys)]
                flat = keys.reshape(-1)
            flat[_gather(ptr, nbrs, vbase + v, base)] += 1
            flat[base + u] += off
            flat[base + v] -= off
            counts += gain
    return list(zip(best_count, best_set)) if threshold is None else decided.tolist()


def scan_statistic(g: Graph, K: int, scan_mode: str, restarts: int, seed,
                   budget: int = DEFAULT_SCAN_BUDGET):
    """The scan statistic and its set, by `t_scan_exact` (scan_mode
    "exact", within `budget`) or `t_scan_heuristic` ("heuristic")."""
    if scan_mode == "exact":
        return t_scan_exact(g, K, budget=budget)
    if scan_mode == "heuristic":
        return t_scan_heuristic(g, K, restarts, seed)
    raise InvalidParameterError(f"unknown scan_mode {scan_mode!r}")


def combined_test(
    g: Graph,
    params: PdsParams,
    scan_mode: str = "exact",
    restarts: int = 20,
    seed=None,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> TestOutcome:
    """Declare H1 when either the linear or the scan statistic clears its
    threshold.  The outcome statistic is the larger threshold margin."""
    lin = t_lin(g)
    t1 = tau_lin(params)
    scan, _ = scan_statistic(g, params.K, scan_mode, restarts, Seed(0) if seed is None else seed, budget)
    t2 = tau_scan(params.K, params.p, params.q)
    margin = max(lin - t1, scan - t2)
    decision = H1 if margin > 0.0 else H0
    parts = {
        "t_lin": lin,
        "tau_lin": t1,
        "t_scan": scan,
        "tau_scan": t2,
        "scan_mode": scan_mode,
    }
    return TestOutcome(statistic=margin, threshold=0.0, decision=decision, parts=parts)


def prop2_bound_lin(params: PdsParams):
    """Explicit Bernstein-style error bounds for the linear test.

    Type-I: exp(-(C(K,2)^2 (p-q)^2 / 4) / (2 C(N,2) q + C(K,2)(p-q)/3)).
    Type-II evaluates the matching Chernoff expression at the conditioning
    boundary K' = 0.9 K and adds the exp(-K/200) conditioning term.  Both
    are clamped into (0, 1]; a vacuous bound reports as 1.
    """
    N, K, p, q = params.N, params.K, params.p, params.q
    gap = p - q

    num1 = _comb2(K) ** 2 * gap**2 / 4.0
    den1 = 2.0 * _comb2(N) * q + _comb2(K) * gap / 3.0
    if num1 == 0.0:
        type1 = 1.0
    elif den1 <= 0.0:
        type1 = 0.0
    else:
        type1 = math.exp(-num1 / den1)

    kp = 0.9 * K
    num2 = (2.0 * _comb2(kp) - _comb2(K)) ** 2 * gap**2
    den2 = 8.0 * (_comb2(N) * q + _comb2(kp) * gap)
    if num2 == 0.0 or den2 <= 0.0:
        main2 = 1.0
    else:
        main2 = math.exp(-num2 / den2)
    type2 = min(1.0, main2 + math.exp(-K / 200.0))
    return min(1.0, type1), type2


def dks_detector(
    dks_alg: Callable[[Graph], object],
    eta: float,
    epsilon: float,
    params: PdsParams,
) -> Callable[[Graph], str]:
    """Turn any densest-K-subgraph approximation into a detector.

    The wrapped algorithm must return a K-vertex set; H1 is declared when
    the density of that set strictly exceeds (1 + epsilon) q.  A set of
    K < 2 vertices holds no pair and has no density, so it is refused.
    """
    if params.K < 2:
        raise InvalidParameterError(f"dks detector needs K >= 2, got K={params.K}")
    if params.q <= 0.0:
        raise InvalidParameterError("dks detector needs q > 0")
    c = params.p / params.q
    if not ((1.0 - epsilon) * c > (1.0 + epsilon) * eta):
        raise InvalidParameterError(
            f"need (1-eps)c > (1+eps)eta, got c={c}, eta={eta}, eps={epsilon}"
        )
    cutoff = (1.0 + epsilon) * params.q
    pairs = _comb2(params.K)

    def test(g: Graph) -> str:
        s_hat = list(dks_alg(g))
        if len(set(s_hat)) != params.K:
            raise ContractViolationError(
                f"dks algorithm returned {len(set(s_hat))} vertices, expected {params.K}"
            )
        density = subgraph_edge_count(g, s_hat) / pairs
        return H1 if density > cutoff else H0

    return test


def recovery_detector(
    recovery_alg: Callable[[Graph], object],
    params: PdsParams,
    epsilon: float,
    seed,
) -> Callable[[Graph], str]:
    """Detector built from a planted-set recovery algorithm.

    On input G it draws a uniform random vertex order, resamples vertices
    one at a time (each replacement reconnects to all others independently
    with probability q), runs the recovery algorithm on every intermediate
    graph, and declares H1 as soon as a recovered set's edge count strictly
    exceeds tau * C(K,2) with tau = q + (1-eps)^2 (p-q)/2.

    Under H0 every intermediate graph is G(N, q), so for any recovery
    algorithm the Type-I error is at most the union bound
    N * C(N,K) * P(Binom(C(K,2), q) > tau * C(K,2)).  That is the only
    Type-I guarantee, and it is vacuous at desk-scale points such as
    N=40, K=6, q=0.1 (p=0.9, eps=0.5): the bound is ~8.5e6, since the
    cutoff of 3 edges sits far below the densest 6-subgraph of G(40, 0.1).

    Resampling randomness is derived from the captured seed and a digest of
    the input graph, so repeated calls on the same graph are reproducible
    and distinct inputs get fresh coins.
    """
    if not epsilon < 1.0:  # NaN fails the gate too
        raise PreconditionViolationError("need epsilon < 1")
    # each test draws a permutation of N and N-entry rows
    _check_vertex_arrays(params.N)
    tau = recovery_threshold(params.q, params.p, epsilon)
    cutoff = tau * _comb2(params.K)
    root = as_seed(seed)

    def test(g: Graph) -> str:
        N = params.N
        if g.num_vertices != N:
            raise VertexCountMismatchError(
                f"graph has {g.num_vertices} vertices, parameters say {N}"
            )
        rng = root.child(g.fingerprint()).rng()
        order = rng.permutation(N)
        g_t = g
        for t in range(N):
            v = int(order[t])
            row = rng.random(N) < params.q
            row[v] = False
            # v's old edges go, its freshly drawn ones come in
            edges = g_t.edges
            kept = edges[(edges[:, 0] != v) & (edges[:, 1] != v)]
            fresh = np.flatnonzero(row)
            g_t = Graph(N, np.concatenate([kept, np.column_stack([np.full(fresh.size, v), fresh])]))
            recovered = list(recovery_alg(g_t))
            if len(set(recovered)) != params.K:
                raise ContractViolationError(
                    f"recovery returned {len(set(recovered))} vertices, expected {params.K}"
                )
            # max_i only matters through the threshold, so stop at first hit
            if subgraph_edge_count(g_t, recovered) > cutoff:
                return H1
        return H0

    return test


def recovery_threshold(q: float, p: float, epsilon: float) -> float:
    """tau = q + (1-eps)^2 (p-q) / 2, the recovery detector's density cut."""
    return q + (1.0 - epsilon) ** 2 * (p - q) / 2.0


def trial_seeds(seed, trials: int) -> list:
    """(arm, seed) of every trial of a two-arm error estimate: the null arm
    0, then the planted arm 1, trial i of an arm drawing from
    root.child(arm).child(i), so no result depends on execution order."""
    root = as_seed(seed)
    return [(arm, root.child(arm).child(i)) for arm in (0, 1) for i in range(trials)]


def estimate_errors(
    null_gen: Callable[[Seed], Graph],
    alt_gen: Callable[[Seed], Graph],
    test: Callable[[Graph], object],
    trials: int,
    seed,
) -> ErrorEstimate:
    """Empirical Type-I/Type-II rates over independent trials.

    Generators are callables Seed -> Graph, and each trial draws from its
    own `trial_seeds` seed.
    """
    trials = _integer(trials, "trials")
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    gens = (null_gen, alt_gen)
    h1 = [0, 0]
    for arm, trial_seed in trial_seeds(seed, trials):
        h1[arm] += _decision(test(gens[arm](trial_seed))) == H1
    return ErrorEstimate.from_h1_counts(h1, trials)


def _decision(result) -> str:
    if isinstance(result, TestOutcome):
        return result.decision
    if result in (H0, H1):
        return result
    raise ContractViolationError(f"test returned {result!r}, expected H0/H1 or TestOutcome")


def is_monotone(test: Callable[[Graph], object], N: int) -> bool:
    """Exhaustively check that H1 decisions survive edge additions.

    Enumerates all 2^C(N,2) graphs and every single-edge addition; only
    feasible for N <= 5.
    """
    if N > 5:
        raise TooLargeError("exhaustive monotonicity check is capped at N = 5")
    pairs = list(combinations(range(N), 2))
    n_pairs = len(pairs)
    decisions = np.empty(1 << n_pairs, dtype=bool)
    for mask in range(1 << n_pairs):
        edges = [pairs[i] for i in range(n_pairs) if mask >> i & 1]
        decisions[mask] = _decision(test(Graph(N, edges))) == H1
    for mask in range(1 << n_pairs):
        if not decisions[mask]:
            continue
        for i in range(n_pairs):
            if not mask >> i & 1 and not decisions[mask | (1 << i)]:
                return False
    return True
