"""Offline training: per-KPI seasonal baselines and the Granger causality graph."""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .core import (
    HOURS_PER_WEEK,
    MIN_TRAINING_SPAN_S,
    CADENCE_S,
    Frame,
    InsufficientTrainingError,
    KpiId,
    TimeSeries,
    hour_of_week,
    kpi_id,
    lags,
)
from .io import Artifact, check_kind, check_ranges, from_json, to_json, typed_array

logger = logging.getLogger(__name__)

BASELINE_KIND = "faultcast-baseline"
BASELINE_SCHEMA_VERSION = 1

#: Relative and absolute floors applied to bucket standard deviations.
STD_FLOOR_REL = 1e-9
STD_FLOOR_ABS = 1e-12

DEFAULT_K_SIGMA = 3.0
DEFAULT_LAG_ORDER = 3
DEFAULT_ALPHA = 0.01
DEFAULT_PREFILTER_R = 0.2


# ---------------------------------------------------------------------------
# univariate seasonal baselines


@dataclass(frozen=True)
class UnivariateBaseline:
    """Hour-of-week mean/std buckets plus a k-sigma band, checked by the model that holds it."""

    kpi: KpiId
    bucket_means: np.ndarray
    bucket_stds: np.ndarray
    k_sigma: float
    std_floor: float
    global_mean: float
    global_std: float


def _std_floor(values: np.ndarray) -> float:
    """The smallest std a band of ``values`` may have: max(STD_FLOOR_REL *
    value range, STD_FLOOR_ABS)."""
    return max(STD_FLOOR_REL * float(values.max() - values.min()), STD_FLOOR_ABS)


def fit_univariate(
    series: TimeSeries,
    k_sigma: float = DEFAULT_K_SIGMA,
    *,
    allow_short: bool = False,
) -> UnivariateBaseline:
    """Fit hour-of-week buckets over a training series.

    Requires the series to span at least two full weeks (the last sample is
    credited with one cadence interval) unless ``allow_short`` is set.
    Buckets with fewer than two samples inherit the global mean/std; every
    stored std is clamped up to the floor max(1e-9 * value range, 1e-12).
    """
    if not 0.0 < k_sigma < math.inf:
        raise ValueError(f"k_sigma {k_sigma!r} must be finite and positive")
    span = series.span_s + CADENCE_S
    if span < MIN_TRAINING_SPAN_S and not allow_short:
        raise InsufficientTrainingError(
            f"training series for {series.kpi} spans {span / 86400:.2f} days; "
            f"at least {MIN_TRAINING_SPAN_S // 86400} are required"
        )
    values = series.values
    buckets = hour_of_week(series.timestamps)
    std_floor = _std_floor(values)

    counts = np.bincount(buckets, minlength=HOURS_PER_WEEK)
    sums = np.bincount(buckets, weights=values, minlength=HOURS_PER_WEEK)
    sq_sums = np.bincount(buckets, weights=values * values, minlength=HOURS_PER_WEEK)

    global_mean = float(values.mean())
    global_std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    global_std = max(global_std, std_floor)

    means = np.full(HOURS_PER_WEEK, global_mean)
    stds = np.full(HOURS_PER_WEEK, global_std)
    filled = counts >= 2
    with np.errstate(invalid="ignore", divide="ignore"):
        bucket_mean = sums[filled] / counts[filled]
        # unbiased variance from the raw moments; clip tiny negatives from rounding
        var = (sq_sums[filled] - counts[filled] * bucket_mean**2) / (counts[filled] - 1)
    means[filled] = bucket_mean
    stds[filled] = np.sqrt(np.clip(var, 0.0, None))
    stds = np.maximum(stds, std_floor)
    means.setflags(write=False)
    stds.setflags(write=False)
    return UnivariateBaseline(
        kpi=series.kpi,
        bucket_means=means,
        bucket_stds=stds,
        k_sigma=float(k_sigma),
        std_floor=float(std_floor),
        global_mean=global_mean,
        global_std=global_std,
    )


# ---------------------------------------------------------------------------
# Granger causality


@dataclass(frozen=True)
class GrangerResult:
    """Outcome of one causality test of cause x against effect y.

    ``coefficients`` belong to the unrestricted regression and are ordered
    intercept, then the effect's own lags 1..p, then the cause's lags 1..p.
    A ``degenerate`` result (singular design, e.g. constant series) carries
    p_value 1 and is not an error.
    """

    f_stat: float
    p_value: float
    lag_order: int
    n_obs: int
    rss_restricted: float
    rss_unrestricted: float
    coefficients: Tuple[float, ...]
    residual_std: float
    degenerate: bool = False


def _ols_fit(design: np.ndarray, target: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """(coefficients, residual, rank) of the least-squares fit."""
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    return coef, target - design @ coef, int(rank)


class _Restricted(NamedTuple):
    """The lag-p autoregression of a target on its own lags; the design's
    columns are the intercept and lags 1..p."""

    rss: float
    full_rank: bool
    design: np.ndarray
    target: np.ndarray
    resid: np.ndarray


def _restricted_fit(target: np.ndarray, own: np.ndarray) -> _Restricted:
    """The fit of ``target`` [m] on its own lags ``own`` [p, m]."""
    design = np.column_stack([np.ones(len(target)), *own])
    _, resid, rank = _ols_fit(design, target)
    return _Restricted(float(resid @ resid), rank == design.shape[1], design, target, resid)


#: B_2k / (2k (2k - 1)), k = 1..8: the coefficients of Stirling's series for ln Gamma.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _log_gamma_ratio(a: float, b: float, nu: float) -> float:
    """ln(Gamma(a + b) / (Gamma(a) nu^b)) for positive a, b and nu, without
    the cancellation of two large ln Gamma values: Stirling's series for the
    ratio, once Gamma(a + 1) = a Gamma(a) has raised a to at least 10."""
    s = 0.0
    while a < 10.0:
        s -= math.log1p(b / a)
        a += 1.0
    s += (a - 0.5) * math.log1p(b / a) - b + b * math.log((a + b) / nu)
    for k, c in enumerate(_STIRLING, 1):
        s += c * ((a + b) ** (1 - 2 * k) - a ** (1 - 2 * k))
    return s


def _bgrat_coefficients(b: float, n: int) -> Tuple[float, ...]:
    """The d_n of BGRAT's expansion (DiDonato & Morris 1992, section 9) for
    one b; they depend on b alone."""
    c: List[float] = []
    d: List[float] = []
    cn = 1.0
    for m in range(1, n + 1):
        cn /= 2 * m * (2 * m + 1)
        c.append(cn)
        s = sum((b - m + i * b) * c[i] * d[m - 2 - i] for i in range(m - 1))
        d.append((b - 1.0) * cn + s / m)
    return tuple(d)


_BGRAT_HALF = _bgrat_coefficients(0.5, 30)
_TINY = 1e-17  # BGRAT stops once its terms fall below this, relative to the sum


def _bgrat_half(a: float, t: np.ndarray) -> np.ndarray:
    """I_x(a, 1/2) at x = 1 / (1 + t), for a >= 15 and x > 0.7: BGRAT, the
    expansion of DiDonato & Morris (1992), in incomplete gamma functions
    Q(1/2, z) = erfc(sqrt z) with z = -(a - 1/4) ln x."""
    nu = a - 0.25
    lg = np.log1p(t)  # -ln x
    z = nu * lg
    root = np.sqrt(z)
    k = np.array([math.erfc(s) for s in root.tolist()])  # the first term, Q(1/2, z)
    r = np.exp(-z) * root / math.sqrt(math.pi)  # e^-z z^b / Gamma(b), times (ln x / 2)^2n
    t2 = 0.25 * lg * lg
    v = 0.25 / (nu * nu)
    total = k.copy()
    for n, d in enumerate(_BGRAT_HALF):
        b2n = 0.5 + 2 * n
        k = (b2n * (b2n + 1.0) * k + (z + b2n + 1.0) * r) * v
        r = r * t2
        term = d * k
        total += term
        if np.all(np.abs(term) <= _TINY * total):
            break
    return math.exp(_log_gamma_ratio(a, 0.5, nu)) * total


def _bfrac(a, b, x, y, lam) -> np.ndarray:
    """I_x(a, b) / (x^a y^b / B(a, b)) for lam = (a + b) y - b >= 0: BFRAC,
    the continued fraction of DiDonato & Morris (1992), whose terms take the
    distance from the distribution's mean from lam, not from x."""
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    p = np.ones_like(a)
    s = a + 1.0
    an, bn, anp1, bnp1 = np.zeros_like(a), np.ones_like(a), np.ones_like(a), c / c1
    r = c1 / c
    n = 0
    while True:
        n += 1
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        p = 1.0 + n / a
        beta = n + w / s + p / (c1 + 2.0 * n / a) * (c + n * yp1)
        s = s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if np.all(np.abs(r - r0) <= 4 * np.finfo(float).eps * r):
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, np.ones_like(a)


def _f_survival(dfn: int, dfd: int, f_stat) -> np.ndarray:
    """P(F > f_stat) for an F(dfn, dfd) variate, element-wise, in numpy.

    This is the regularized incomplete beta I_x(a, b), a = dfd/2, b = dfn/2,
    x = 1 / (1 + t), t = dfn f_stat / dfd, by the routes of DiDonato &
    Morris, ACM TOMS Algorithm 708 (1992).  Every quantity is built from t,
    never from x, so that no digits are lost where x is close to 1.  For
    a >= 15 and x > 0.7, b is lowered to 1/2 or 1 by adding the terms
    I_x(a, b + 1) - I_x(a, b) (BUP); I_x(a, 1) is x^a and I_x(a, 1/2) comes
    from BGRAT's expansion.  Otherwise BFRAC's continued fraction gives
    I_x(a, b), or 1 - I_x(a, b) = I_y(b, a) below the mean.  A p-value is
    within 4e-15 (1 + |ln P|) relative of the exact one wherever it is above
    1e-300 (tests/test_baseline.py measures it); F = 0 gives 1, F = inf gives
    0, and a negative or NaN F gives NaN.
    """
    f = np.asarray(f_stat, dtype=float)
    a, b = dfd / 2, dfn / 2
    with np.errstate(over="ignore"):  # t beyond the float range is inf: P = 0
        t = f.ravel() * (dfn / dfd)
    out = np.full(t.shape, np.nan)
    out[t == 0.0] = 1.0
    out[t == np.inf] = 0.0
    inner = (t > 0.0) & (t < np.inf)
    t = t[inner]
    y = t / (1.0 + t)
    value = np.empty_like(t)
    expand = (y < 0.3) & (a >= 15)
    if expand.any():
        tn, yn = t[expand], y[expand]
        steps = math.ceil(b) - 1
        b0 = b - steps
        log_x_a = -a * np.log1p(tn)
        total = np.exp(log_x_a) if b0 == 1.0 else _bgrat_half(a, tn)
        # I_x(a, b0 + j + 1) - I_x(a, b0 + j) = Gamma(a + b0 + j) / (Gamma(a) Gamma(b0 + j + 1)) x^a y^(b0 + j)
        log_term = (
            log_x_a + b0 * np.log((a + b0) * yn) + _log_gamma_ratio(a, b0, a + b0) - math.lgamma(b0 + 1.0)
        )
        log_y = np.log(yn)
        for j in range(steps):
            total += np.exp(log_term)
            log_term += log_y + math.log((a + b0 + j) / (b0 + j + 1.0))
        value[expand] = total
    fraction = ~expand
    if fraction.any():
        tf, yf = t[fraction], y[fraction]
        xf = 1.0 / (1.0 + tf)
        lam = (a + b) * yf - b
        below = lam < 0.0  # I_y(b, a) there, in the roles swapped
        cf = _bfrac(
            np.where(below, b, a), np.where(below, a, b), np.where(below, yf, xf), np.where(below, xf, yf), np.abs(lam)
        )
        log_prefix = -a * np.log1p(tf) + b * np.log((a + b) * yf) + _log_gamma_ratio(a, b, a + b) - math.lgamma(b)
        w = np.exp(log_prefix) * cf
        value[fraction] = np.where(below, 1.0 - w, w)
    out[inner] = np.minimum(value, 1.0)  # a sum of terms may round above 1
    return out.reshape(f.shape)


def _granger_from(cause: np.ndarray, restricted: _Restricted) -> GrangerResult:
    """The unrestricted fit of the ``restricted`` fit's target on its own
    lags and a cause's lags ``cause`` [p, m], F-tested against the
    ``restricted`` fit."""
    p = len(cause)
    rss_r, full_rank_r = restricted.rss, restricted.full_rank
    t_obs = len(restricted.target)
    df_denom = t_obs - (2 * p + 1)
    design_u = np.column_stack([restricted.design, *cause])
    coef_u, resid_u, rank_u = _ols_fit(design_u, restricted.target)
    rss_u = float(resid_u @ resid_u)
    coefficients = tuple(float(c) for c in coef_u)

    if not full_rank_r or rank_u < design_u.shape[1]:
        return GrangerResult(
            f_stat=0.0,
            p_value=1.0,
            lag_order=p,
            n_obs=t_obs,
            rss_restricted=rss_r,
            rss_unrestricted=rss_u,
            coefficients=coefficients,
            residual_std=math.sqrt(max(rss_u, 0.0) / df_denom) if df_denom > 0 else 0.0,
            degenerate=True,
        )

    # nested models: the unrestricted fit can only reduce the RSS
    rss_u = min(rss_u, rss_r)
    diff = max(rss_r - rss_u, 0.0)
    residual_std = math.sqrt(rss_u / df_denom)
    if rss_u <= 0.0:
        f_stat = math.inf
        p_value = 0.0
    else:
        f_stat = (diff / p) / (rss_u / df_denom)
        p_value = float(_f_survival(p, df_denom, f_stat))
    return GrangerResult(
        f_stat=float(f_stat),
        p_value=p_value,
        lag_order=p,
        n_obs=t_obs,
        rss_restricted=rss_r,
        rss_unrestricted=rss_u,
        coefficients=coefficients,
        residual_std=residual_std,
    )


@dataclass(frozen=True)
class GrangerEdge:
    """A causal edge cause -> effect for multivariate detection, checked by the model that holds it."""

    cause: KpiId
    effect: KpiId
    weight: float
    lag_order: int
    coefficients: Tuple[float, ...]
    residual_std: float


#: A pair takes the projection route only when that is clearly well posed;
#: any other pair is refitted by lstsq (:func:`_granger_from`), whose rank
#: verdict and numbers then stand.  Clearly well posed means: the unrestricted
#: design's singular values stay this many times above lstsq's rank cutoff
#: eps * max(M, N) * (largest singular value) ...
_RANK_MARGIN = 1e3
#: ... and, with every column scaled to unit norm, [design | target] has a
#: condition number below this, so that neither a cause close to the effect's
#: own history nor a near-exact fit leaves the two routes' numbers apart by
#: more than rounding.
_COND_LIMIT = 1e5
#: Values per block of causes: 1 MB, within a core's cache.
_BLOCK_VALUES = 1 << 17


class _EffectTests(NamedTuple):
    """One effect's causes, tested up to the p-value (:func:`_effect_tests`)."""

    fac: np.ndarray  # [causes, k + 1, k + 1], the R factors of [design | target]
    clear: np.ndarray  # [causes], False where the pair was refitted by lstsq
    rss_u: np.ndarray  # [causes]
    f_stat: np.ndarray  # [causes], NaN where not clear
    refits: Dict[int, GrangerResult]  # the lstsq fits of the pairs not clear, by position


def _effect_tests(
    targets: List[np.ndarray], row_lags: List[np.ndarray], e: int, causes: List[int], p: int
) -> Optional[_EffectTests]:
    """Test each of ``causes`` against effect ``e``, whose regression targets
    are ``targets[e]`` and their lags 1..p ``row_lags[e]``, up to the F
    statistic; None when the effect's own autoregression is degenerate.

    By the Frisch-Waugh-Lovell theorem the unrestricted fit's gain over the
    restricted one is the fit of the restricted residual r on the cause's
    lags with the effect's own history partialled out.  So the restricted
    design is factored once, Q R; each cause's p lag columns are projected
    off Q; and one QR of [lag residuals | r] yields Q_x' r and the remaining
    residual norm, whose square is RSS_u = RSS_r - ||Q_x' r||^2.  Together
    they form the R factor of the whole [design | target], from which the
    F statistic, the conditioning and the coefficients all follow.
    """
    restricted = _restricted_fit(targets[e], row_lags[e])
    if not restricted.full_rank:
        return None
    q, upper = np.linalg.qr(restricted.design)
    qt = np.ascontiguousarray(q.T)
    m, k = len(restricted.target), 2 * p + 1
    # R factors of [1, y lags, x lags | target], one per cause:
    # [[R, Q' X, Q' target], [0, R_x, Q_x' r], [0, 0, +-sqrt(RSS_u)]]
    fac = np.zeros((len(causes), k + 1, k + 1))
    fac[:, : p + 1, : p + 1] = upper
    fac[:, : p + 1, k] = qt @ restricted.target
    block = max(1, _BLOCK_VALUES // ((p + 1) * m))
    for lo in range(0, len(causes), block):
        part = slice(lo, lo + block)
        stack = np.empty((len(causes[part]), p + 1, m))
        for j, c in enumerate(causes[part]):
            stack[j, :p] = row_lags[c]
        stack[:, p] = restricted.resid
        block_lags = stack[:, :p]
        coords = block_lags @ q
        block_lags -= coords @ qt
        fac[part, : p + 1, p + 1 : k] = coords.transpose(0, 2, 1)
        fac[part, p + 1 :, p + 1 :] = np.linalg.qr(stack.transpose(0, 2, 1), mode="r")
    sv = np.linalg.svd(fac[:, :k, :k], compute_uv=False)
    norms = np.linalg.norm(fac, axis=1)
    norms[norms == 0.0] = 1.0
    sv_scaled = np.linalg.svd(fac / norms[:, None, :], compute_uv=False)
    clear = (sv[:, -1] > _RANK_MARGIN * np.finfo(float).eps * max(m, k) * sv[:, 0]) & (
        sv_scaled[:, 0] < _COND_LIMIT * sv_scaled[:, -1]
    )
    df_denom = m - k
    rss_u = np.minimum(fac[:, k, k] ** 2, restricted.rss)
    gain = (fac[:, p + 1 : k, k] ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # pairs not clear are refitted below
        f_stat = np.where(clear, (gain / p) / (rss_u / df_denom), np.nan)
    refits = {j: _granger_from(row_lags[c], restricted) for j, c in enumerate(causes) if not clear[j]}
    return _EffectTests(fac, clear, rss_u, f_stat, refits)


def _effect_edges(
    kpis: List[KpiId],
    e: int,
    causes: List[int],
    tests: _EffectTests,
    p_values: np.ndarray,
    p: int,
    alpha: float,
    df_denom: int,
    floor: float,
) -> Iterator[GrangerEdge]:
    """Yield the kept edges of effect ``e``'s ``tests``, whose clear pairs'
    p-values are ``p_values``.  A pair whose residual std is at most
    ``floor``, the effect's band floor, is an exact fit and is skipped."""
    fac, clear, rss_u, _, refits = tests
    k = 2 * p + 1
    kept = clear & (p_values < alpha)
    solved = np.zeros((len(causes), k))
    if kept.any():  # back-substitution, for kept edges only
        solved[kept] = np.linalg.solve(fac[kept, :k, :k], fac[kept, :k, k, None])[..., 0]
    for j, c in enumerate(causes):
        if clear[j]:
            if not kept[j]:
                continue
            p_value, coefficients = float(p_values[j]), solved[j].tolist()
            residual_std = math.sqrt(rss_u[j] / df_denom)
        else:
            result = refits[j]
            if result.degenerate:
                logger.info("graph: %s -> %s degenerate fit skipped", kpis[c], kpis[e])
                continue
            if result.p_value >= alpha:
                continue
            p_value, coefficients, residual_std = result.p_value, result.coefficients, result.residual_std
        if residual_std <= floor:  # the cause's lags reproduce the effect to rounding
            logger.info("graph: %s -> %s exact fit skipped", kpis[c], kpis[e])
            continue
        yield GrangerEdge(
            cause=kpis[c],
            effect=kpis[e],
            weight=1.0 - p_value,
            lag_order=p,
            coefficients=tuple(coefficients),
            residual_std=residual_std,
        )


def _alignment_edges(
    kpis: List[KpiId], rows: List[np.ndarray], keep, pairs: List[List[int]], p: int, alpha: float, prefilter_r: float
) -> Iterator[GrangerEdge]:
    """Test (cause row, effect row) ``pairs`` of ``rows``, the values of
    ``kpis`` that the pairs' regression reads, and yield every kept edge: its
    rows are positions ``keep`` of ``rows[:, p:]``, each lagged by position."""
    targets = [row[p:][keep] for row in rows]
    m = len(targets[0])
    if m < 3 * p + 8:
        for c, e in pairs:
            logger.info("graph: %s -> %s skipped (only %d regression rows)", kpis[c], kpis[e], m)
        return
    sds = [row.std() for row in rows]
    if prefilter_r > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):  # constant rows are skipped below
            r = np.corrcoef(rows)
    causes: Dict[int, List[int]] = {}
    for c, e in pairs:
        if sds[c] == 0.0 or sds[e] == 0.0:
            logger.info("graph: %s -> %s skipped (constant series)", kpis[c], kpis[e])
            continue
        if prefilter_r > 0.0 and abs(r[c, e]) < prefilter_r:
            continue
        causes.setdefault(e, []).append(c)
    row_lags = [lags(row, p)[:, keep] for row in rows]
    tests = {e: _effect_tests(targets, row_lags, e, tested, p) for e, tested in causes.items()}
    # every pair here has the same degrees of freedom: one p-value call for all
    df_denom = m - 2 * p - 1
    f_stats = [t.f_stat for t in tests.values() if t is not None]
    p_values = _f_survival(p, df_denom, np.concatenate(f_stats or [np.empty(0)]))
    at = 0
    for e, tested in causes.items():
        if tests[e] is None:
            for c in tested:
                logger.info("graph: %s -> %s degenerate fit skipped", kpis[c], kpis[e])
            continue
        part = p_values[at : at + len(tested)]
        yield from _effect_edges(kpis, e, tested, tests[e], part, p, alpha, df_denom, _std_floor(rows[e]))
        at += len(tested)


def _run(index: np.ndarray):
    """A sorted index array as a slice when it is one run of consecutive
    positions, so that indexing with it gives a view."""
    if len(index) and index[-1] - index[0] == len(index) - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def build_graph(
    training: Dict[KpiId, TimeSeries],
    p: int = DEFAULT_LAG_ORDER,
    alpha: float = DEFAULT_ALPHA,
    prefilter_r: float = DEFAULT_PREFILTER_R,
) -> List[GrangerEdge]:
    """Assemble the causality graph over every ordered KPI pair.

    The data must lie on one cadence grid (:meth:`~faultcast.core.Frame.of`).
    A pair is regressed at the timestamps where both KPIs have a sample and
    their samples 1..p cadences earlier; its prefilter, constant check and
    band floor read those samples and their lags.  Pairs whose absolute
    Pearson correlation falls below ``prefilter_r`` are skipped (0 disables
    the prefilter).  Degenerate fits, exact fits (a residual std at or below
    the effect's band floor) and pairs with fewer than 3p + 8 regression
    rows are skipped with a log entry.  An edge is kept when the test's
    p-value beats ``alpha``; its weight is 1 - p_value.  Edges come back
    ordered by (cause, effect).

    The test is that of ``granger_fit``, the single-pair lstsq reference in
    ``tests/oracles.py``, computed another way: the pairs with the same
    regression rows (all, on gap-free data) are tested together; each
    effect's own history is partialled out once and every cause's lags are
    projected off it (Frisch-Waugh-Lovell); a pair too close to singular for
    that is fitted by lstsq as in the reference (:func:`_granger_from`).
    Kept edges and rank verdicts match it; the floats round differently, in
    the last ~10 significant digits.
    """
    BaselineConfig(lag_order=p, alpha=alpha, prefilter_r=prefilter_r)  # checks the settings
    kpis = sorted(training)
    frame = Frame.of(training, kpis)
    full = frame.history(p)
    # KPIs with their lags at the same timestamps are one kind, and the pairs
    # of two kinds, one group: they share their regression rows
    kinds: Dict[bytes, int] = {}
    kind_of = [kinds.setdefault(row.tobytes(), len(kinds)) for row in full]
    groups: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
    for c, e in itertools.permutations(range(len(kpis)), 2):
        groups.setdefault(tuple(sorted((kind_of[c], kind_of[e]))), []).append((c, e))
    edges: List[GrangerEdge] = []
    for pairs in groups.values():
        at = full[pairs[0][0]] & full[pairs[0][1]]  # the regression rows
        read = at.copy()  # and their lags
        for i in range(1, p + 1):
            read[:-i] |= at[i:]
        members, local = np.unique(pairs, return_inverse=True)  # the group's KPIs, and its pairs in their numbers
        columns = _run(np.flatnonzero(read))
        rows = [frame.values[k, columns] for k in members]
        keep = _run(np.flatnonzero(at[read]) - p)
        local = local.reshape(-1, 2).tolist()
        edges.extend(_alignment_edges([kpis[k] for k in members], rows, keep, local, p, alpha, prefilter_r))
    return sorted(edges, key=lambda edge: (edge.cause, edge.effect))


# ---------------------------------------------------------------------------
# the combined model


@dataclass(frozen=True)
class BaselineConfig:
    """Configuration echo stored alongside a trained model."""

    lag_order: int = DEFAULT_LAG_ORDER
    alpha: float = DEFAULT_ALPHA
    k_sigma: float = DEFAULT_K_SIGMA
    prefilter_r: float = DEFAULT_PREFILTER_R

    def __post_init__(self):
        check_ranges(
            self,
            ("lag_order", self.lag_order >= 1, "at least 1"),
            ("alpha", 0 < self.alpha < 1, "in (0, 1)"),
            ("k_sigma", 0 < self.k_sigma < math.inf, "finite and positive"),
            ("prefilter_r", 0 <= self.prefilter_r < 1, "in [0, 1)"),
        )


#: A band's arrays and floats in a baseline file, in the order of its fields.
_BUCKETS, _BAND_FLOATS = ("bucket_means", "bucket_stds"), ("k_sigma", "std_floor", "global_mean", "global_std")


def _first_bad(ok: np.ndarray, message) -> None:
    """Raise :class:`ValueError` with ``message(i)`` for the first i where
    ``ok`` is False."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        raise ValueError(message(int(bad[0])))


def _positive(values: np.ndarray, name) -> None:
    """Reject the first of ``values`` that is not finite and positive,
    naming ``name(i)`` and the value as a plain float."""
    ok = (0.0 < values) & (values < math.inf)
    _first_bad(ok, lambda i: f"{name(i)} {values[i].item()!r} must be finite and positive")


def _stack(rows: list, key: str, width: int = 0, name=None) -> np.ndarray:
    """The ``key`` values of ``rows`` as one float array: [len(rows)], or
    [len(rows), width] for flat sequences of ``width``, where the first of
    another shape raises :class:`ValueError` naming ``name(i)``."""
    values = [getattr(row, key) for row in rows]
    if not width:
        return np.array(values, dtype=float)
    ok = np.array([getattr(v, "ndim", 1) == 1 and len(v) == width for v in values], dtype=bool)
    _first_bad(ok, lambda i: f"{name(i)} {key} must have {width} entries")
    return np.array(values, dtype=float).reshape(len(values), width)


@dataclass(frozen=True)
class BaselineModel(Artifact):
    """Everything the online detector needs: per-KPI baselines plus the graph.

    Construction stacks the rows once into the read-only arrays detection
    reads: ``kpis``, sorted; by KPI number the [K, 168] ``bucket_means`` and
    ``bucket_stds`` and the [K] ``k_sigma``; by edge, in the model's order,
    the [E] ``cause`` and ``effect`` KPI numbers, the [E, 2p + 1]
    ``coefficients`` and the [E] ``residual_std``; and ``effect_order``, the
    edge numbers sorted by effect, in model order within one effect.  It
    checks every value there, rule by rule as whole arrays, and a
    :class:`ValueError` names the first bad KPI or edge.  Every edge has the
    model's one lag order p.
    """

    baselines: Dict[KpiId, UnivariateBaseline]
    edges: Tuple[GrangerEdge, ...]
    config: BaselineConfig = field(default_factory=BaselineConfig)

    def __post_init__(self):
        kpis = tuple(sorted(self.baselines))
        bands = [self.baselines[kpi] for kpi in kpis]
        means, stds = (_stack(bands, key, HOURS_PER_WEEK, kpis.__getitem__) for key in _BUCKETS)
        k_sigma, std_floor, global_mean, global_std = (_stack(bands, key) for key in _BAND_FLOATS)
        _positive(k_sigma, lambda k: f"{kpis[k]} k_sigma")
        _positive(std_floor, lambda k: f"{kpis[k]} std_floor")
        finite = np.isfinite(np.column_stack([means, stds, global_mean, global_std])).all(1)
        _first_bad(finite, lambda k: f"the bucket and global means and stds of {kpis[k]} must be finite")
        _first_bad((stds >= std_floor[:, None]).all(1), lambda k: f"{kpis[k]} bucket stds must respect the std floor")

        edges, p = self.edges, self.config.lag_order

        def edge(e: int) -> str:
            return f"edge {edges[e].cause} -> {edges[e].effect}"

        lag_order = _stack(edges, "lag_order")
        _first_bad(lag_order == p, lambda e: f"{edge(e)} has lag order {edges[e].lag_order}, the model's is {p}")
        index = {kpi: k for k, kpi in enumerate(kpis)}
        cause = np.array([index.get(e.cause, -1) for e in edges], dtype=np.intp)
        effect = np.array([index.get(e.effect, -1) for e in edges], dtype=np.intp)
        _first_bad(
            (cause >= 0) & (effect >= 0),
            lambda e: f"edge endpoint {edges[e].cause if cause[e] < 0 else edges[e].effect} has no baseline entry",
        )
        _first_bad(cause != effect, lambda e: f"{edge(e)} may not loop onto its own KPI")
        weight = _stack(edges, "weight")
        ok = (0.0 <= weight) & (weight <= 1.0)
        _first_bad(ok, lambda e: f"{edge(e)} weight {weight[e].item()!r} must lie in [0, 1]")
        coefficients = _stack(edges, "coefficients", 2 * p + 1, edge)
        _first_bad(np.isfinite(coefficients).all(1), lambda e: f"{edge(e)} regression coefficients must be finite")
        residual_std = _stack(edges, "residual_std")
        _positive(residual_std, lambda e: f"{edge(e)} residual_std")

        arrays = dict(bucket_means=means, bucket_stds=stds, k_sigma=k_sigma, cause=cause, effect=effect)
        arrays.update(effect_order=np.argsort(effect, kind="stable"))
        arrays.update(coefficients=coefficients, residual_std=residual_std)
        for array in arrays.values():
            array.setflags(write=False)
        vars(self).update(arrays, kpis=kpis)  # attributes, not fields: == and repr ignore them

    def to_dict(self) -> dict:
        return {
            "kind": BASELINE_KIND,
            "schema_version": BASELINE_SCHEMA_VERSION,
            "config": to_json(self.config),
            "baselines": [
                {
                    "resource": kpi.resource,
                    "metric": kpi.metric,
                    **{key: getattr(self.baselines[kpi], key) for key in _BAND_FLOATS},
                    "bucket_means": means,
                    "bucket_stds": stds,
                }
                for kpi, means, stds in zip(self.kpis, self.bucket_means.tolist(), self.bucket_stds.tolist())
            ],
            "edges": [
                {
                    "cause": [e.cause.resource, e.cause.metric],
                    "effect": [e.effect.resource, e.effect.metric],
                    "weight": e.weight,
                    "lag_order": e.lag_order,
                    "coefficients": list(e.coefficients),
                    "residual_std": e.residual_std,
                }
                for e in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineModel":
        """The model a baseline file holds.  Each key is read as one array
        (:func:`~faultcast.io.typed_array`), and each edge endpoint resolves
        to the file's own KPI; the model checks the values."""
        check_kind(data, BASELINE_KIND, BASELINE_SCHEMA_VERSION)
        config = from_json(BaselineConfig, data["config"], prefix="config ")
        bands, links = data["baselines"], data["edges"]
        kpis = [kpi_id(item["resource"], item["metric"]) for item in bands]
        if len(set(kpis)) < len(kpis):
            raise ValueError(f"{next(kpi for k, kpi in enumerate(kpis) if kpi in kpis[:k])} has two baselines")
        cause, effect = ([kpi_id(*item[key]) for item in links] for key in ("cause", "effect"))

        def column(items, key, name, kind=float) -> list:
            return typed_array(lambda i: f"{name(i)} {key}", [item[key] for item in items], kind).tolist()

        def rows(items, key, name) -> List[np.ndarray]:  # read-only rows of one array
            lists = [item[key] for item in items]
            bounds = [0, *itertools.accumulate(map(len, lists))]
            values = list(itertools.chain.from_iterable(lists))
            flat = typed_array(lambda i: f"{name(bisect_right(bounds, i) - 1)} {key}", values)
            flat.setflags(write=False)
            return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

        def edge(e: int) -> str:
            return f"edge {cause[e]} -> {effect[e]}"

        band = kpis.__getitem__
        columns = [rows(bands, key, band) for key in _BUCKETS] + [column(bands, key, band) for key in _BAND_FLOATS]
        edges = map(
            GrangerEdge,
            cause,
            effect,
            column(links, "weight", edge),
            column(links, "lag_order", edge, int),
            [tuple(row.tolist()) for row in rows(links, "coefficients", edge)],
            column(links, "residual_std", edge),
        )
        return cls(dict(zip(kpis, map(UnivariateBaseline, kpis, *columns))), tuple(edges), config)


def fit_baseline_model(
    training: Dict[KpiId, TimeSeries],
    *,
    k_sigma: float = DEFAULT_K_SIGMA,
    lag_order: int = DEFAULT_LAG_ORDER,
    alpha: float = DEFAULT_ALPHA,
    prefilter_r: float = DEFAULT_PREFILTER_R,
    allow_short: bool = False,
) -> BaselineModel:
    """Fit univariate baselines for every KPI and the causality graph on top."""
    if not training:
        raise ValueError("training data is empty")
    baselines = {
        kpi: fit_univariate(series, k_sigma, allow_short=allow_short)
        for kpi, series in training.items()
    }
    edges = tuple(build_graph(training, p=lag_order, alpha=alpha, prefilter_r=prefilter_r))
    config = BaselineConfig(
        lag_order=lag_order, alpha=alpha, k_sigma=k_sigma, prefilter_r=prefilter_r
    )
    return BaselineModel(baselines=baselines, edges=edges, config=config)
