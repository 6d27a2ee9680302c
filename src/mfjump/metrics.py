"""Distances, rate fitting and run diagnostics.

W1 between equal-size empirical measures is exact: sorted matching in 1D,
optimal assignment in R^d (uniform empirical measures couple optimally by a
permutation) by scipy's compiled ``linear_sum_assignment`` (Crouse 2016) on a
cost built in place coordinate by coordinate: ``np.linalg.norm``'s bits, d <= 7.
A pair near a translation is solved on a potential-reduced cost (``_solve``).
A sup over pairs (``w1_sup``) runs its d >= 2 solves on up to one thread per
CPU in the process's affinity, with the same bits for any count.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .drivers import SUBSAMPLE_REPLICA, InvalidInputError, StreamKey, StreamState, scipy_extension

ASSIGNMENT_CAP = 512
_Z95 = 1.96  # two-sided 95% normal quantile


def _require_finite(fn: str, a: np.ndarray, b: np.ndarray) -> None:
    bad = [int(np.count_nonzero(~np.isfinite(x.reshape(len(x), -1)).all(axis=1))) for x in (a, b)]
    if any(bad):
        raise InvalidInputError(f"{fn}: {bad[0]} rows of a and {bad[1]} rows of b hold NaN or inf")


def w1_1d(a, b) -> float:
    """Exact W1 between two equal-size 1D empirical measures, each given as a 1-D or (n, 1) array."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if not all(x.ndim == 1 or x.shape[1:] == (1,) for x in (a, b)):
        raise InvalidInputError(f"w1_1d needs 1-D or (n, 1) samples, got shapes {a.shape} and {b.shape}")
    a, b = a.reshape(-1), b.reshape(-1)
    if a.size == 0 or a.size != b.size:
        raise InvalidInputError("w1_1d needs two nonempty samples of equal size")
    _require_finite("w1_1d", a, b)
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def _linear_sum_assignment():
    return scipy_extension("scipy.optimize._lsap").linear_sum_assignment


def _solver_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _pairwise_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cost = np.subtract.outer(a[:, 0], b[:, 0])
    np.square(cost, out=cost)
    scratch = np.empty((min(64, len(a)), len(b)))  # 64 rows at a time, not a second n x n
    for k in range(1, a.shape[1]):
        for r in range(0, len(a), 64):
            block = np.subtract.outer(a[r : r + 64, k], b[:, k], out=scratch[: len(a) - r])
            cost[r : r + 64] += np.square(block, out=block)
    return np.sqrt(cost, out=cost)


def _checked_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """``w1_assignment``'s checks and cost matrix for equal-shape (n, d >= 2) samples; None if identical."""
    if len(a) > ASSIGNMENT_CAP:
        raise InvalidInputError(f"n={len(a)} exceeds assignment cap {ASSIGNMENT_CAP}; subsample first")
    _require_finite("w1_assignment", a, b)
    if np.array_equal(a, b):
        return None
    cost = _pairwise_cost(a, b)
    if not np.isfinite(cost).all():
        raise InvalidInputError("w1_assignment: pairwise distances overflow float64")
    return cost


def _solve(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """The W1 of equal-shape (n, d >= 2) samples from their ``_checked_cost``, which it may overwrite.

    Where J = |mean(b - a)|, at most the W1, is half the identity cost or more, and u_i = k.(a_i - a_0)
    and v_j = k.(b_j - a_0), k the unit mean shift, lie within 1024 J, it solves cost + u_i - v_j: every
    permutation's total moves by one constant, the solver is faster, and the permutation found stays
    within 7e-13 relative of optimal.  Its matched distances are recomputed as in ``_pairwise_cost``.
    """
    jensen = float(np.linalg.norm(shift := (b - a).mean(axis=0)))
    if jensen > 0.0 and 2.0 * jensen >= np.linalg.norm(b - a, axis=1).mean():
        u, v = (a - a[0]) @ (shift / jensen), (b - a[0]) @ (shift / jensen)
        if max(np.abs(u).max(), np.abs(v).max()) <= 1024.0 * jensen:
            cost += u[:, None]
            cost -= v
    rows, cols = _linear_sum_assignment()(cost)
    return float(np.sqrt(functools.reduce(np.add, np.square(a[rows] - b[cols]).T)).mean())


def w1_assignment(a, b) -> float:
    """Exact W1 between equal-size empirical measures in R^d.

    Euclidean ground cost, squared differences summed in place in coordinate
    order, then rooted: ``np.linalg.norm``'s bits for d <= 7.  In d = 1 the
    sorted matching is exact at any n; in d >= 2, n above ``ASSIGNMENT_CAP``
    is rejected (callers subsample explicitly via ``subsample_indices``).
    Duplicate points are fine; identical samples give 0.0 without a solve.
    A pair near a translation is solved on a potential-reduced cost (``_solve``),
    which may pick another optimal permutation where several tie.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] == 0 or a.shape != b.shape:
        raise InvalidInputError("w1_assignment needs equal-shape (n, d) samples")
    if a.shape[0] == 0:
        raise InvalidInputError("empty sample")
    if a.shape[1] == 1:
        return w1_1d(a[:, 0], b[:, 0])
    if (cost := _checked_cost(a, b)) is None:
        return 0.0
    return _solve(cost, a, b)


def subsample_indices(n: int, cap: int, seed: int) -> np.ndarray:
    """Deterministic subsample of size cap: first cap of a seeded permutation, sorted.

    The subsampled estimator carries extra Monte Carlo variance of order
    cap**-1/2; report it alongside when it matters.
    """
    if n <= cap:
        return np.arange(n)
    s = StreamState(StreamKey(seed, SUBSAMPLE_REPLICA, 0, "init").hash64())
    order = np.argsort(s.uniforms(n))
    return np.sort(order[:cap])


def w1_capped(a, b, seed: int = 0) -> float:
    """W1 with the documented deterministic subsample when n exceeds ``ASSIGNMENT_CAP``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] == 1 == b.shape[1]:
        return w1_1d(a[:, 0], b[:, 0])
    if a.shape != b.shape:
        raise InvalidInputError("w1_capped needs equal-shape (n, d) samples")
    idx = subsample_indices(a.shape[0], ASSIGNMENT_CAP, seed)
    return w1_assignment(a[idx], b[idx])


def _block_bound(a: np.ndarray, b: np.ndarray) -> float:
    """Mean cost of an assignment of equal-shape (n, d >= 2) samples that bounds their W1 from above.

    Each sample splits into four equal-count blocks, halves by coordinate 0 and then halves of each
    by coordinate 1; block k of ``a`` is matched to block k of ``b`` by an exact assignment.  The four
    together are one permutation, and any permutation's mean cost is at least the W1.
    """

    def blocks(x):
        halves = np.array_split(np.argsort(x[:, 0], kind="stable"), 2)
        return [h[q] for h in halves for q in np.array_split(np.argsort(x[h, 1], kind="stable"), 2)]

    total = 0.0
    for ia, ib in zip(blocks(a), blocks(b)):
        cost = _pairwise_cost(a[ia], b[ib])
        total += float(cost[_linear_sum_assignment()(cost)].sum())
    return total / len(a)


def w1_sup(pairs, seed: int = 0) -> float:
    """``max(w1_capped(a, b, seed) for a, b in pairs)`` (0.0 for none), bit for bit, with fewer solves.

    A pair's identity-matching cost on the rows ``w1_capped`` uses bounds its W1 from above, so pairs
    are visited by descending bound and solved only while the bound, widened by 1e-9 for rounding,
    reaches the running max.  A bound that is not finite, and in d >= 2 a pair with a point above
    1e150, makes the pair always solved, so pairs of unequal shapes or with a point not finite raise
    as in ``w1_capped``.  The subsample is drawn once per call.

    In d >= 2 the calling thread builds and checks each cost matrix, and up to ``_solver_threads()``
    ``_solve`` calls run at once on threads that end with the call.  A pair is submitted only while its
    bound also reaches each submitted pair's lower bound |mean(a - b)| (Jensen) less 1e-9 of that
    pair's bound.  Once every thread is busy or a W1 is known, a pair of at least 64 rows that its
    identity bound cannot skip gets the tighter ``_block_bound`` on the calling thread, beside the
    running solves, and is skipped when that bound, widened by 1e-9, is below the running max or a
    submitted pair's lower bound.  Every pair left unsolved has a W1 at most a solved pair's, so the
    max has the plain loop's bits whichever pairs thread timing leaves to be solved.
    """
    sub = functools.cache(lambda n: subsample_indices(n, ASSIGNMENT_CAP, seed))
    work = []
    for a, b in pairs:
        a, b = (np.atleast_2d(np.asarray(x, dtype=np.float64)) for x in (a, b))
        bound, low = np.inf, 0.0
        if a.shape == b.shape and a.size and a.shape[1] == 1:
            bound = float(np.mean(np.abs(a - b)))
        elif a.shape == b.shape and a.size:
            a, b = a[sub(len(a))], b[sub(len(a))]
            if np.abs(a).max() <= 1e150 and np.abs(b).max() <= 1e150:
                diff = a - b
                bound = float(np.mean(np.linalg.norm(diff, axis=1)))
                low = float(np.linalg.norm(diff.mean(axis=0))) - 1e-9 * bound
        work.append((bound if bound < np.inf else np.inf, low, a, b))  # NaN or overflow: always solved
    w1s, lows, running = [0.0], [0.0], set()  # running: in-flight solves
    with ThreadPoolExecutor(threads := _solver_threads()) as pool:
        for bound, low, a, b in sorted(work, key=lambda w: -w[0]):  # stable: ties stay in order
            block, blockable = np.inf, a.shape[1] > 1 and len(a) >= 64 and bound < np.inf
            while max(w1s + lows) <= min(bound, block) * (1.0 + 1e-9):
                if blockable and (len(running) >= threads or len(w1s) > 1):
                    block, blockable = _block_bound(a, b), False
                elif len(running) >= threads:
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    w1s += [f.result() for f in done]
                else:
                    if a.shape[1] == 1 or bound == np.inf:
                        w1s.append(w1_capped(a, b, seed))
                    elif (cost := _checked_cost(a, b)) is not None:
                        running.add(pool.submit(_solve, cost, a, b))
                        lows.append(low)
                    break
        w1s += [f.result() for f in running]
    return max(w1s)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float
    slope_se: float
    slope_ci: tuple[float, float]


def fit_rate(Ns, errors, std_errs=None) -> RateFit:
    """Least squares of log error against log N.

    When per-point standard errors are given the fit is weighted by the
    delta-method variances of the log errors and the CI uses those known
    variances; otherwise the CI comes from the residual variance.
    """
    Ns = np.asarray(Ns, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if len(set(Ns.tolist())) < 3:
        raise InvalidInputError("need at least 3 distinct N values")
    if np.any(errors <= 0):
        raise InvalidInputError("errors must be positive")
    x = np.log(Ns)
    y = np.log(errors)
    if std_errs is not None:
        se = np.asarray(std_errs, dtype=np.float64)
        var_log = np.maximum((se / errors) ** 2, 1e-30)
        w = 1.0 / var_log
    else:
        w = np.ones_like(x)
    X = np.column_stack([np.ones_like(x), x])
    XtW = X.T * w
    A = XtW @ X
    beta = np.linalg.solve(A, XtW @ y)
    intercept, slope = float(beta[0]), float(beta[1])
    resid = y - X @ beta
    cov = np.linalg.inv(A)
    if std_errs is not None:
        slope_var = cov[1, 1]
    else:
        dof = max(len(x) - 2, 1)
        slope_var = cov[1, 1] * float(np.sum(w * resid**2)) / dof
    slope_se = float(np.sqrt(slope_var))
    ybar = float(np.sum(w * y) / np.sum(w))
    ss_tot = float(np.sum(w * (y - ybar) ** 2))
    ss_res = float(np.sum(w * resid**2))
    if ss_tot < 1e-24:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(
        slope=slope,
        intercept=intercept,
        r2=r2,
        slope_se=slope_se,
        slope_ci=(slope - _Z95 * slope_se, slope + _Z95 * slope_se),
    )


@dataclass(frozen=True)
class MomentSeries:
    times: np.ndarray
    values: np.ndarray
    trend_slope: float
    trend_se: float


def _ols_slope(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    tc = t - t.mean()
    denom = float(np.sum(tc**2))
    if denom == 0.0:
        return 0.0, 0.0
    slope = float(np.sum(tc * y) / denom)
    resid = y - y.mean() - slope * tc
    dof = max(len(t) - 2, 1)
    se = float(np.sqrt(np.sum(resid**2) / dof / denom))
    return slope, se


def moment_diagnostics(paths, spec, p: int) -> MomentSeries:
    """Time series of the empirical p-th moment of the jump rate.

    For each grid time t computes the mean over particles of
    rate(x_i(t), mu^N(t))**p; the trend is an OLS slope over the second
    half of the horizon with its standard error.
    """
    if p not in (1, 2, 3, 4):
        raise InvalidInputError("moment power must be in {1, 2, 3, 4}")
    from .models import make_empirical

    times = np.asarray(paths.times)
    vals = np.empty(len(times))
    for k, _t in enumerate(times):
        pos = paths.positions[k]
        mu = make_empirical(pos)
        lam = np.asarray(spec.rate(pos, mu), dtype=np.float64)
        vals[k] = float(np.mean(lam**p))
    half = times >= (times[0] + 0.5 * (times[-1] - times[0]))
    slope, se = _ols_slope(times[half], vals[half])
    return MomentSeries(
        times=times,
        values=vals,
        trend_slope=slope,
        trend_se=se,
    )


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at 95%."""
    if n == 0:
        return (0.0, 1.0)
    phat = k / n
    denom = 1.0 + _Z95**2 / n
    center = (phat + _Z95**2 / (2 * n)) / denom
    half = _Z95 * np.sqrt(phat * (1 - phat) / n + _Z95**2 / (4 * n**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class JumpTailTable:
    thresholds: np.ndarray
    tail_prob: np.ndarray
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray


def jump_count_stats(jump_counts, N: int, thresholds) -> JumpTailTable:
    """Empirical tails P(C_N(T)/N >= H) across replicas with Wilson intervals.

    ``jump_counts`` holds one accepted-main-jump count per replica (the
    jump-log length of each run).
    """
    counts = np.asarray(jump_counts, dtype=np.float64)
    if np.any(np.asarray(thresholds) <= 0):
        raise InvalidInputError("thresholds must be positive")
    ratios = counts / float(N)
    hs = np.asarray(thresholds, dtype=np.float64)
    n = len(ratios)
    tail = np.empty(len(hs))
    lo = np.empty(len(hs))
    hi = np.empty(len(hs))
    for i, h in enumerate(hs):
        k = int(np.sum(ratios >= h))
        tail[i] = k / n if n else 0.0
        lo[i], hi[i] = wilson_interval(k, n)
    return JumpTailTable(thresholds=hs, tail_prob=tail, wilson_lo=lo, wilson_hi=hi)


@dataclass
class ChaosReport:
    """Aggregated result of an N-sweep chaos experiment."""

    model_id: str
    Ns: list[int]
    replica_count: int
    distances: dict  # pair -> {"mean": [...], "se": [...], "per_replica": [[...], ...]}
    fits: dict  # pair -> RateFit
    diagnostics: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)
