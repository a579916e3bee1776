"""Seasonal baselines and the causality graph.

The causality test is cross-checked two independent ways: a second regression
route built on the pseudoinverse, and the F survival function evaluated with
mpmath's regularized incomplete beta instead of the package's numpy routine,
which is itself checked against mpmath and scipy.
"""

import copy
import logging
import math
import subprocess
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import granger_fit

from faultcast.baseline import (
    BaselineConfig,
    BaselineModel,
    GrangerEdge,
    UnivariateBaseline,
    _f_survival,
    build_graph,
    fit_baseline_model,
    fit_univariate,
)
from faultcast.core import (
    CADENCE_S,
    DAY_S,
    HOURS_PER_WEEK,
    FaultcastError,
    InsufficientTrainingError,
    KpiId,
    TimeSeries,
    format_timestamp,
    hour_of_week,
)
from faultcast.sim import WorkloadModel, default_topology, gen_run


# ---------------------------------------------------------------------------
# seasonal bands


def minute_series(kpi, start, n, values):
    return TimeSeries(kpi, start + CADENCE_S * np.arange(n, dtype=np.int64), values)


def test_constant_series_gets_floor_band():
    kpi = KpiId("Homer", "CpuIdlePct")
    n = 28 * DAY_S // CADENCE_S
    series = minute_series(kpi, 0, n, np.full(n, 42.0))
    baseline = fit_univariate(series)
    assert np.all(baseline.bucket_means == 42.0)
    # zero spread collapses to the absolute floor, keeping bands non-empty
    assert np.all(baseline.bucket_stds == baseline.std_floor)
    assert baseline.std_floor == 1e-12
    assert np.all(oracles.zscores(baseline, series.timestamps[:100], series.values[:100]) == 0.0)


def test_bucket_stats_match_group_by_oracle():
    kpi = KpiId("Sprout", "BytesReceivedPerSec")
    n = 28 * DAY_S // CADENCE_S
    timestamps = CADENCE_S * np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(99)
    how = hour_of_week(timestamps)
    values = 50.0 + 10.0 * np.sin(2 * np.pi * how / HOURS_PER_WEEK) + rng.normal(0, 1.5, n)
    baseline = fit_univariate(TimeSeries(kpi, timestamps, values))

    for bucket in range(HOURS_PER_WEEK):
        group = values[how == bucket]
        assert len(group) >= 2
        assert baseline.bucket_means[bucket] == pytest.approx(group.mean(), abs=1e-8)
        assert baseline.bucket_stds[bucket] == pytest.approx(
            group.std(ddof=1), abs=1e-8
        ), f"std off in bucket {bucket}"


def test_sparse_buckets_inherit_global_stats():
    kpi = KpiId("Homer", "MemUsedPct")
    # one sample every two hours leaves the odd buckets empty...
    timestamps = np.arange(0, 14 * DAY_S - 7200 + 1, 7200, dtype=np.int64)
    # ...and a final sample stretches the span to the full fortnight
    timestamps = np.append(timestamps, 14 * DAY_S - CADENCE_S)
    rng = np.random.default_rng(3)
    values = rng.normal(70.0, 5.0, len(timestamps))
    baseline = fit_univariate(TimeSeries(kpi, timestamps, values))

    how = hour_of_week(timestamps)
    counts = np.bincount(how, minlength=HOURS_PER_WEEK)
    assert (counts < 2).any() and (counts >= 2).any()
    for bucket in np.nonzero(counts < 2)[0]:
        assert baseline.bucket_means[bucket] == baseline.global_mean
        assert baseline.bucket_stds[bucket] == max(baseline.global_std, baseline.std_floor)


def test_training_span_gate():
    kpi = KpiId("Homer", "CpuIdlePct")
    rng = np.random.default_rng(0)
    # 13 days is too little history
    n13 = 13 * DAY_S // CADENCE_S
    short = minute_series(kpi, 0, n13, rng.normal(50, 2, n13))
    with pytest.raises(InsufficientTrainingError):
        fit_univariate(short)
    assert fit_univariate(short, allow_short=True).kpi == kpi

    # a minute-cadence fortnight ends one cadence before the 14-day mark and
    # is credited with that final minute; one sample fewer falls short
    n14 = 14 * DAY_S // CADENCE_S
    values = rng.normal(50, 2, n14)
    fit_univariate(minute_series(kpi, 0, n14, values))
    with pytest.raises(InsufficientTrainingError):
        fit_univariate(minute_series(kpi, 0, n14 - 1, values[:-1]))


def test_zscores_use_bucket_band():
    kpi = KpiId("Homer", "CpuIdlePct")
    means = np.full(HOURS_PER_WEEK, 100.0)
    stds = np.full(HOURS_PER_WEEK, 2.0)
    baseline = UnivariateBaseline(
        kpi=kpi,
        bucket_means=means,
        bucket_stds=stds,
        k_sigma=3.0,
        std_floor=1e-12,
        global_mean=100.0,
        global_std=2.0,
    )
    z = oracles.zscores(baseline, np.array([0, 60, 120]), np.array([101.0, 107.0, 99.0]))
    assert z.tolist() == [0.5, 3.5, 0.5]


@pytest.mark.parametrize("k_sigma", [0.0, -1.0, math.nan, math.inf])
def test_k_sigma_must_be_finite_and_positive(k_sigma):
    # a NaN or infinite band is never exceeded: fitted or loaded, it is refused
    kpi = KpiId("Homer", "CpuIdlePct")
    series = minute_series(kpi, 0, 10, np.arange(10.0))
    with pytest.raises(ValueError, match="k_sigma"):
        fit_univariate(series, k_sigma, allow_short=True)
    with pytest.raises(ValueError, match="k_sigma"):
        BaselineModel({kpi: replace(fit_univariate(series, allow_short=True), k_sigma=k_sigma)}, ())


# ---------------------------------------------------------------------------
# causality test, cross-checked against an independent route


def oracle_granger(x, y, p):
    """Pseudoinverse regressions and an mpmath p-value, fully independent of
    the implementation under test."""
    n = len(y)
    target = y[p:]
    rows_r, rows_u = [], []
    for t in range(p, n):
        restricted = [1.0] + [y[t - i] for i in range(1, p + 1)]
        rows_r.append(restricted)
        rows_u.append(restricted + [x[t - i] for i in range(1, p + 1)])

    def rss(rows):
        a = np.array(rows)
        coef = np.linalg.pinv(a) @ target
        resid = target - a @ coef
        return float(resid @ resid)

    rss_r = rss(rows_r)
    rss_u = min(rss(rows_u), rss_r)
    t_obs = n - p
    d1, d2 = p, t_obs - 2 * p - 1
    f = ((rss_r - rss_u) / d1) / (rss_u / d2)
    p_value = float(
        mpmath.betainc(d2 / 2, d1 / 2, 0, d2 / (d2 + d1 * f), regularized=True)
    )
    return f, p_value


def coupled_pair(seed, n=200, phi=0.9, gain=0.6):
    """x an AR(1) process, y driven by x's previous step."""
    rng = np.random.default_rng(seed)
    ex, ey = rng.standard_normal(n), rng.standard_normal(n)
    x, y = np.zeros(n), np.zeros(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + ex[t]
        y[t] = 0.5 * y[t - 1] + gain * x[t - 1] + ey[t]
    return x, y


def test_granger_matches_independent_oracle():
    for seed in range(5):
        x, y = coupled_pair(seed)
        res = granger_fit(x, y, 3)
        f_expected, p_expected = oracle_granger(x, y, 3)
        assert res.f_stat == pytest.approx(f_expected, rel=1e-9)
        assert res.p_value == pytest.approx(p_expected, rel=1e-6, abs=1e-300)
        # and on the causally silent direction
        res_rev = granger_fit(y, x, 3)
        f_rev, p_rev = oracle_granger(y, x, 3)
        assert res_rev.f_stat == pytest.approx(f_rev, rel=1e-9, abs=1e-12)
        assert res_rev.p_value == pytest.approx(p_rev, rel=1e-9)


def exact_f_survival(p, df_denom, f_stat):
    """P(F > f_stat) to 40 digits: mpmath's regularized incomplete beta."""
    with mpmath.workdps(40):
        a, b, f = mpmath.mpf(df_denom) / 2, mpmath.mpf(p) / 2, mpmath.mpf(float(f_stat))
        return mpmath.betainc(a, b, 0, df_denom / (df_denom + p * f), regularized=True)


def rel_error(got, exact):
    """|got - exact| / exact, on the scale 1 + |ln P|: a p-value near e^-700
    carries ~700 ulps of unavoidable error from its exponent alone."""
    return float(abs(mpmath.mpf(float(got)) - exact) / exact / (1 + abs(mpmath.log(exact))))


#: Relative error of _f_survival on the scale of rel_error, against mpmath.
#: Measured: 3.9e-16 on 5 000 random points of the gate below, 3.5e-16 on the
#: five benchmark input sets' 4 050 F statistics and 2.0e-15 on 3 288 random
#: points of the scipy property's domain (scipy.stats.f.sf: 1.4e-15 at the gate).
F_SURVIVAL_RTOL = 4e-15


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 100_000),
    st.one_of(
        st.just(0.0),
        st.floats(0.0, 10.0),
        st.floats(1e-12, 1e12),
        st.floats(0.0, 1e300, allow_infinity=False),
    ),
)
def test_f_survival_matches_scipy(p, df_denom, f_stat):
    # scipy.stats.f.sf is the oracle within 1e-12 (1 + |ln P|) relative. On
    # 100 000 draws from this domain the two differed by up to 1.2e-12 of
    # that scale at even p and dfd near 1e5, and by 1.2e-11 at p = dfd = 1
    # and F near 1e-11; scipy was the one off each time mpmath was asked (by
    # 2.8e-11 at F = 1e-12). So past 1e-12 mpmath decides, at this
    # function's own bound.
    from scipy import stats

    got = float(_f_survival(p, df_denom, f_stat))
    expected = float(stats.f.sf(f_stat, p, df_denom))
    if expected < 1e-300:  # near and below the subnormals no relative bound holds
        assert abs(got - expected) <= 1e-300
        return
    if abs(got - expected) > 1e-12 * (1 + abs(math.log(expected))) * expected:
        assert rel_error(got, exact_f_survival(p, df_denom, f_stat)) <= F_SURVIVAL_RTOL


def test_f_survival_meets_the_gate_against_mpmath():
    # p 1-3, dfd 30-50 000 and F log-spaced over [1e-3, 1e3]: every p-value
    # above 1e-300 within 4e-15 (1 + |ln P|) relative, which moves the weight
    # 1 - P of an edge at P = 0.01 by at most 2 ulps
    f_stats = np.geomspace(1e-3, 1e3, 49)
    worst = 0.0
    for p in (1, 2, 3):
        for df_denom in (30, 31, 57, 128, 401, 1000, 2870, 5001, 9999, 20150, 33333, 50000):
            for f_stat, got in zip(f_stats, _f_survival(p, df_denom, f_stats)):
                exact = exact_f_survival(p, df_denom, f_stat)
                if exact >= 1e-300:
                    worst = max(worst, rel_error(got, exact))
    assert worst <= F_SURVIVAL_RTOL


def test_f_survival_edge_cases_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f_stats = np.array([0.0, np.inf, np.nan, -1.0, 1e-300, 1e300])
        for p in (1, 3, 12):
            for df_denom in (1, 2, 29, 30, 2870, 50_000, 100_000):
                got = _f_survival(p, df_denom, f_stats)
                assert got[0] == 1.0 and got[1] == 0.0
                assert np.isnan(got[2]) and np.isnan(got[3])
                assert 0.0 <= got[5] <= got[4] <= 1.0
        # dfd = 1, p = 1 has a closed form: P = (2/pi) atan(1 / sqrt F)
        for f_stat in (1e-12, 1e-3, 1.0, 1e3, 1e12, 1e300):
            with mpmath.workdps(40):
                exact = 2 / mpmath.pi * mpmath.atan(1 / mpmath.sqrt(mpmath.mpf(f_stat)))
            assert rel_error(_f_survival(1, 1, f_stat), exact) <= F_SURVIVAL_RTOL
        # p-values below 1e-300 stay accurate down to the subnormals, then reach 0
        for p, df_denom, f_stat in ((3, 2870, 605.0), (1, 30, 4.873e21), (12, 100_000, 122.2)):
            exact = exact_f_survival(p, df_denom, f_stat)
            assert 1e-308 < exact < 1e-300
            assert rel_error(_f_survival(p, df_denom, f_stat), exact) <= F_SURVIVAL_RTOL
        assert _f_survival(3, 2870, 1e3) == 0.0  # exact: 3.5e-445
        # shape in, shape out
        assert _f_survival(3, 30, np.ones((2, 3))).shape == (2, 3)
        assert _f_survival(3, 30, 1.0).shape == ()


def test_import_leaves_scipy_stats_unloaded():
    # the package computes its p-values with numpy: importing it or the CLI
    # loads no scipy module at all, scipy.stats included
    for module in ("faultcast", "faultcast.cli"):
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", (module, out.stdout)


def test_granger_frozen_anchor():
    # values computed once with the oracle above and pinned here, so the two
    # live routes cannot drift in tandem unnoticed
    x, y = coupled_pair(12345)
    res = granger_fit(x, y, 3)
    assert res.f_stat == pytest.approx(38.554201435809084, rel=1e-9)
    assert res.p_value == pytest.approx(1.6566956269438649e-19, rel=1e-6)


def test_granger_affine_invariance():
    x, y = coupled_pair(7)
    base = granger_fit(x, y, 3)
    scaled = granger_fit(1000.0 * x - 5.0, 0.01 * y + 3.0, 3)
    assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-9)
    assert scaled.p_value == pytest.approx(base.p_value, rel=1e-6, abs=1e-300)


def test_granger_nested_models_property():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.standard_normal(60)
        y = rng.standard_normal(60)
        res = granger_fit(x, y, 3)
        assert res.rss_unrestricted <= res.rss_restricted
        assert 0.0 <= res.p_value <= 1.0
        assert len(res.coefficients) == 2 * 3 + 1
        assert res.n_obs == 60 - 3


def test_granger_input_gates():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        granger_fit(rng.standard_normal(19), rng.standard_normal(19), 3)
    granger_fit(rng.standard_normal(20), rng.standard_normal(20), 3)
    with pytest.raises(ValueError):
        granger_fit(rng.standard_normal(50), rng.standard_normal(50), 0)
    with pytest.raises(ValueError):
        granger_fit(rng.standard_normal(50), rng.standard_normal(40), 3)


def test_granger_degenerate_inputs():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(100)
    res = granger_fit(x, np.full(100, 5.0), 3)
    assert res.degenerate
    assert res.p_value == 1.0
    # a perfectly deterministic relation drives the residual to zero
    x = rng.standard_normal(100)
    y = np.concatenate(([0.0], 2.0 * x[:-1]))
    res = granger_fit(x, y, 1)
    assert res.p_value == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# graph assembly


def three_kpi_training(seed=21, n=2000):
    """x drives y one step ahead; z is independent noise."""
    x, y = coupled_pair(seed, n=n, gain=0.8)
    z = np.random.default_rng(seed + 1).standard_normal(n)
    ts = 60 * np.arange(n, dtype=np.int64)
    kx, ky, kz = KpiId("A", "x"), KpiId("B", "y"), KpiId("C", "z")
    return {
        kx: TimeSeries(kx, ts, x),
        ky: TimeSeries(ky, ts, y),
        kz: TimeSeries(kz, ts, z),
    }


def c1_pairs():
    """The (x, y) series of the acceptance check C1: 20 seeds of y driven by
    x one lag back, then 200 seeds of independent noise."""
    n = 500
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, noise = rng.standard_normal(n), rng.standard_normal(n)
        yield x, np.r_[noise[0], 0.8 * x[:-1] + noise[1:]]
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        yield rng.standard_normal(n), rng.standard_normal(n)


def test_graph_verdicts_on_c1_seeds_equal_the_single_pair_reference():
    # C1 measures the causality claim on granger_fit; the shipped route is
    # the batched graph, which must keep or drop each direction alike
    kx, ky = KpiId("C1", "x"), KpiId("C1", "y")
    ts = 60 * np.arange(500, dtype=np.int64)
    for i, (x, y) in enumerate(c1_pairs()):
        edges = build_graph({kx: TimeSeries(kx, ts, x), ky: TimeSeries(ky, ts, y)}, p=3, alpha=0.01, prefilter_r=0.0)
        want = {(kx, ky)} if granger_fit(x, y, 3).p_value < 0.01 else set()
        want |= {(ky, kx)} if granger_fit(y, x, 3).p_value < 0.01 else set()
        assert {(e.cause, e.effect) for e in edges} == want, f"seed {i}"


def test_single_kpi_graph_is_empty():
    kpi = KpiId("A", "x")
    series = TimeSeries(kpi, 60 * np.arange(100, dtype=np.int64), np.random.default_rng(0).standard_normal(100))
    assert build_graph({kpi: series}) == []


def test_graph_finds_the_coupled_pair():
    training = three_kpi_training()
    kx, ky = KpiId("A", "x"), KpiId("B", "y")
    edges = build_graph(training)
    directed = {(e.cause, e.effect) for e in edges}
    assert (kx, ky) in directed, "the seeded direction must be recovered"
    assert (ky, kx) not in directed, "the silent direction must stay absent"

    # every surviving edge must also survive a brute-force pass over all
    # ordered pairs with the correlation prefilter disabled
    oracle = set()
    for cause in training:
        for effect in training:
            if cause == effect:
                continue
            res = granger_fit(training[cause].values, training[effect].values, 3)
            if not res.degenerate and res.p_value < 0.01:
                oracle.add((cause, effect))
    assert directed <= oracle


def test_edge_weight_is_recomputable():
    training = three_kpi_training()
    for edge in build_graph(training):
        res = granger_fit(training[edge.cause].values, training[edge.effect].values, 3)
        assert edge.weight == pytest.approx(1.0 - res.p_value, abs=1e-12)
        assert edge.lag_order == 3
        assert len(edge.coefficients) == 7
        assert edge.residual_std == pytest.approx(res.residual_std, rel=1e-12)


@st.composite
def ragged_training(draw, gaps=False):
    """KPIs on two shifted runs of the cadence grid, one on part of the
    first, one constant, one barely overlapping the rest, all sampled from
    shared coupled processes.  Without ``gaps`` each KPI's samples are one
    unbroken run of the grid; with ``gaps`` the partial KPI misses random
    minutes and up to two KPIs miss a span."""
    n = draw(st.integers(40, 300))
    shift = draw(st.integers(0, n // 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x, y = coupled_pair(seed, n=n + shift, gain=draw(st.sampled_from([0.1, 0.8])))
    w = np.zeros(n + shift)
    for t in range(1, n + shift):
        w[t] = 0.3 * w[t - 1] + 0.7 * y[t - 1] + rng.standard_normal()
    z = rng.standard_normal(n + shift)
    plateau = np.where(np.arange(n + shift) < n, 4.0, z)  # constant where it meets grid A
    grid_a = np.arange(n)
    grid_b = np.arange(shift, n + shift)
    if gaps:
        gappy = np.sort(rng.choice(n, size=max(n - draw(st.integers(0, n // 3)), 1), replace=False))
    else:
        gappy = np.arange(draw(st.integers(0, n // 3)), n)
    late = np.arange(n + shift - draw(st.integers(1, 30)), n + shift)
    layout = {
        KpiId("A", "x"): (grid_a, x),
        KpiId("A", "y"): (grid_a, y),
        KpiId("A", "const"): (grid_a, np.full(n + shift, 7.5)),
        KpiId("B", "w"): (grid_b, w),
        KpiId("B", "z"): (grid_b, z),
        KpiId("B", "plateau"): (grid_b, plateau),
        KpiId("C", "gappy"): (gappy, y + 0.5 * rng.standard_normal(n + shift)),
        KpiId("D", "late"): (late, x),
    }
    if gaps:
        for kpi in draw(st.lists(st.sampled_from(sorted(layout)), max_size=2, unique=True)):
            idx, values = layout[kpi]
            cut = draw(st.integers(0, len(idx) - 1))
            kept = np.r_[idx[:cut], idx[cut + draw(st.integers(1, 20)) :]]
            layout[kpi] = (kept if len(kept) else idx[:1], values)
    return {kpi: TimeSeries(kpi, 60 * idx, values[idx]) for kpi, (idx, values) in layout.items()}


def assert_same_edges(edges, expected, tol=1e-12):
    """The same (cause, effect, lag order) in the same order.  The graph's
    projection route rounds differently from lstsq: weights agree to ``tol``,
    residual stds to ``tol`` relative, coefficients to 1e-9 of the edge's
    largest."""
    assert [(e.cause, e.effect, e.lag_order) for e in edges] == [
        (e.cause, e.effect, e.lag_order) for e in expected
    ]
    for got, want in zip(edges, expected):
        assert got.weight == pytest.approx(want.weight, rel=0, abs=tol)
        assert got.residual_std == pytest.approx(want.residual_std, rel=tol)
        scale = max(abs(c) for c in want.coefficients)
        assert np.allclose(got.coefficients, want.coefficients, rtol=0, atol=1e-9 * scale)


@settings(max_examples=40, deadline=None)
@given(ragged_training(), st.sampled_from([1, 2, 3]), st.sampled_from([0.0, 0.2]))
def test_graph_matches_the_pairwise_oracle_on_ragged_input(training, p, prefilter_r):
    edges = build_graph(training, p=p, prefilter_r=prefilter_r)
    assert_same_edges(edges, oracles.build_graph_pairwise(training, p=p, prefilter_r=prefilter_r))
    assert_same_edges(edges, oracles.build_graph_by_timestamp(training, p=p, prefilter_r=prefilter_r))


@settings(max_examples=40, deadline=None)
@given(ragged_training(gaps=True), st.sampled_from([1, 2, 3]), st.sampled_from([0.0, 0.2]))
def test_graph_with_gaps_matches_the_by_timestamp_oracle(training, p, prefilter_r):
    edges = build_graph(training, p=p, prefilter_r=prefilter_r)
    assert_same_edges(edges, oracles.build_graph_by_timestamp(training, p=p, prefilter_r=prefilter_r))


def test_graph_rejects_samples_off_the_cadence_grid():
    training = three_kpi_training(n=100)
    kpi = sorted(training)[1]
    s = training[kpi]
    training[kpi] = TimeSeries(kpi, np.r_[s.timestamps, s.timestamps[-1] + 90], np.r_[s.values, 0.0])
    late = format_timestamp(int(s.timestamps[-1]) + 90)
    with pytest.raises(FaultcastError, match=f"{kpi} has a sample at {late}, off the data's 60-second cadence"):
        build_graph(training)


def test_graph_matches_the_pairwise_oracle_on_simulated_days():
    training, _ = gen_run(default_topology(), WorkloadModel(), None, 0, 2 * DAY_S, seed=5)
    edges = build_graph(training)
    assert len(edges) > 100
    assert_same_edges(edges, oracles.build_graph_pairwise(training))


@st.composite
def collinear_training(draw):
    """An effect's own history copied into other KPIs: exactly, with a little
    noise, shifted one step ahead, or mixed with its previous step; plus an
    independent coupled cause, a constant KPI and one sharing too few
    timestamps with the rest."""
    n = draw(st.integers(40, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x, y = coupled_pair(seed, n=n + 1, gain=draw(st.sampled_from([0.1, 0.8])))
    level = draw(st.sampled_from([0.0, 1e3]))
    y = y + level

    def noise():
        return draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3])) * rng.standard_normal(n)

    # nonzero weights of unit scale: lstsq is not invariant to column scaling,
    # and on a KPI ~1e-9 the intercept's scale it rounds the coefficients to
    # ~1e-8 only, where the projection route keeps ~1e-15
    a, b = (draw(st.sampled_from([-1.5, -0.5, 0.5, 2.0])) for _ in range(2))
    layout = {
        KpiId("A", "y"): y[:n],
        KpiId("A", "copy"): y[:n] + noise(),
        KpiId("A", "lead"): y[1:] + noise(),
        KpiId("A", "mix"): a * y[1:] + b * y[:n] + noise(),
        KpiId("A", "x"): x[:n],
        KpiId("A", "const"): np.full(n, 7.5),
    }
    ts = 60 * np.arange(n, dtype=np.int64)
    training = {kpi: TimeSeries(kpi, ts, values) for kpi, values in layout.items()}
    short = ts[-draw(st.integers(1, 19)) :]
    training[KpiId("B", "short")] = TimeSeries(KpiId("B", "short"), short, y[: len(short)])
    return training


@settings(max_examples=60, deadline=None)
@given(collinear_training(), st.integers(1, 3), st.sampled_from([0.0, 0.2]))
def test_graph_matches_the_lstsq_oracle_on_collinear_causes(training, p, prefilter_r):
    # the projection route hands every pair it cannot call well posed to
    # lstsq, so rank verdicts and edges match exactly
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("faultcast.baseline")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        edges = build_graph(training, p=p, prefilter_r=prefilter_r)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    # an exact fit leaves a zero residual std: both skip the pair
    expected, expected_degenerate = oracles.build_graph_lstsq(training, p=p, prefilter_r=prefilter_r)
    degenerate = {rec.args[:2] for rec in records if "degenerate" in rec.msg}
    assert degenerate == set(expected_degenerate)
    # near-collinear pairs the projection takes (scaled condition number up
    # to 1e5) leave both routes' rounding larger than on the data above
    assert_same_edges(edges, expected, tol=1e-9)


def test_exact_fit_is_skipped_with_a_log_entry(caplog):
    # the lead's lag 1 is the effect itself.  On seed 23 lstsq leaves an RSS
    # of exactly 0, which once failed the whole fit with "residual_std must be
    # positive"; on the others a residual std of ~1e-14 to 1e-11, rounding
    # that once made an edge of weight 1 whose scores are noise
    for seed in (0, 1, 2, 23):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 300))
        y = np.cumsum(rng.standard_normal(n + 1)) * 0.3 + rng.standard_normal(n + 1) + 1e3
        ts = 60 * np.arange(n, dtype=np.int64)
        effect, cause = KpiId("A", "y"), KpiId("A", "lead")
        training = {effect: TimeSeries(effect, ts, y[:n]), cause: TimeSeries(cause, ts, y[1:])}
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="faultcast.baseline"):
            edges = build_graph(training, p=1, prefilter_r=0.0)
        assert [(edge.cause, edge.effect) for edge in edges if edge.cause == cause] == [], seed
        assert [rec.args[:2] for rec in caplog.records if "exact fit" in rec.msg] == [(cause, effect)], seed
        expected, _ = oracles.build_graph_lstsq(training, p=1, prefilter_r=0.0)
        assert_same_edges(edges, expected)


def test_graph_argument_gates():
    training = three_kpi_training(n=100)
    with pytest.raises(ValueError):
        build_graph(training, alpha=0.0)
    with pytest.raises(ValueError):
        build_graph(training, alpha=1.0)
    with pytest.raises(ValueError):
        build_graph(training, prefilter_r=1.0)
    with pytest.raises(ValueError):
        build_graph(training, prefilter_r=-0.1)
    with pytest.raises(ValueError):
        build_graph(training, prefilter_r=float("nan"))
    with pytest.raises(ValueError):
        build_graph(training, p=0)


def test_granger_edge_validation():
    kx, ky = KpiId("A", "x"), KpiId("B", "y")
    bands = {kpi: fit_univariate(minute_series(kpi, 0, 10, np.arange(10.0)), allow_short=True) for kpi in (kx, ky)}
    good = dict(cause=kx, effect=ky, weight=0.99, lag_order=1,
                coefficients=(0.0, 0.5, 0.5), residual_std=1.0)

    def model(**edge):
        return BaselineModel(bands, (GrangerEdge(**{**good, **edge}),), BaselineConfig(lag_order=1))

    model()
    with pytest.raises(ValueError, match="loop onto its own KPI"):
        model(effect=kx)
    with pytest.raises(ValueError, match=r"weight 1.5 must lie in \[0, 1\]"):
        model(weight=1.5)
    with pytest.raises(ValueError, match="coefficients must have 3 entries"):
        model(coefficients=(0.0, 0.5))
    with pytest.raises(ValueError, match="residual_std 0.0 must be finite and positive"):
        model(residual_std=0.0)


# ---------------------------------------------------------------------------
# whole-model round trip


def test_baseline_model_round_trip(tmp_path):
    training = three_kpi_training()
    model = fit_baseline_model(training, allow_short=True)
    assert model.kpis == tuple(sorted(training))
    path = tmp_path / "baseline.json"
    model.save(path)
    again = BaselineModel.load(path)
    assert again.to_dict() == model.to_dict()
    again_path = tmp_path / "baseline2.json"
    again.save(again_path)
    assert again_path.read_bytes() == path.read_bytes()


def _small_baseline_dict():
    """A valid baseline file's data: three bands and two lag-1 edges."""
    rng = np.random.default_rng(7)
    kpis = [KpiId("A", "x"), KpiId("B", "y"), KpiId("C", "z")]
    bands = {
        kpi: UnivariateBaseline(kpi, rng.normal(size=168), 0.5 + rng.random(168), 3.0, 0.5, 1.0, 2.0)
        for kpi in kpis
    }
    edges = (
        GrangerEdge(kpis[0], kpis[1], 0.99, 1, (0.1, 0.2, 0.3), 0.5),
        GrangerEdge(kpis[2], kpis[1], 0.95, 1, (0.0, -0.5, 1.5), 1.25),
    )
    return BaselineModel(bands, edges, BaselineConfig(lag_order=1)).to_dict()


SMALL_BASELINE = _small_baseline_dict()

#: The values a spoiled file may hold in place of one of its own.
SPOILS = [True, "3", None, math.nan, math.inf, -math.inf, 0, -1.5]

#: What ``load_json`` reports as a malformed file.
MALFORMED = (ValueError, KeyError, TypeError, AttributeError, OverflowError)


def _nodes(node, path=()):
    """(key path, value) of every value below the top of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def spoiled_baselines(draw):
    """The small baseline's data with one spoil: a value replaced, a list one
    short, a repeated KPI, an edge endpoint moved (dangling, or onto another
    KPI) or another lag order."""
    data = copy.deepcopy(SMALL_BASELINE)
    bands, edges = data["baselines"], data["edges"]
    how = draw(st.sampled_from(["value", "value", "value", "short", "repeated", "endpoint", "lag"]))
    if how == "value":
        # a field first, then one of its numbers: each field is as likely as a bucket list
        fields = {}
        for path, value in _nodes(data):
            if path[0] in ("config", "baselines", "edges") and not isinstance(value, (dict, list)):
                fields.setdefault(path[:-1] if isinstance(path[-1], int) else path, []).append(path)
        path = draw(st.sampled_from(fields[draw(st.sampled_from(sorted(fields, key=repr)))]))
        _at(data, path[:-1])[path[-1]] = draw(st.sampled_from(SPOILS))
    elif how == "short":
        lists = [path for path, value in _nodes(data) if isinstance(value, list) and value]
        _at(data, draw(st.sampled_from(lists))).pop()
    elif how == "repeated":
        i, j = draw(st.integers(0, len(bands) - 1)), draw(st.integers(0, len(bands) - 1))
        if draw(st.booleans()):
            bands.append(copy.deepcopy(bands[i]))
        else:
            bands[i].update(resource=bands[j]["resource"], metric=bands[j]["metric"])
    elif how == "endpoint":
        names = [["Nowhere", "m"]] + [[band["resource"], band["metric"]] for band in bands]
        edges[draw(st.integers(0, len(edges) - 1))][draw(st.sampled_from(["cause", "effect"]))] = draw(
            st.sampled_from(names)
        )
    else:
        p = draw(st.sampled_from([0, 2, 3]))
        if draw(st.booleans()):
            data["config"]["lag_order"] = p
        else:
            edge = edges[draw(st.integers(0, len(edges) - 1))]
            edge["lag_order"] = p
            if draw(st.booleans()):
                edge["coefficients"] = [0.25] * (2 * p + 1)
    return data


@settings(max_examples=1000, deadline=None)
@given(spoiled_baselines())
@example(copy.deepcopy(SMALL_BASELINE))  # unspoiled: both read it, to the same model
def test_from_dict_rejects_exactly_what_the_row_checks_rejected(data):
    try:
        expected = oracles.baseline_from_dict(copy.deepcopy(data))
    except MALFORMED:
        with pytest.raises(MALFORMED):
            BaselineModel.from_dict(data)
    else:
        assert BaselineModel.from_dict(data).to_dict() == expected


def test_baseline_model_rejects_dangling_edges():
    training = three_kpi_training()
    model = fit_baseline_model(training, allow_short=True)
    assert model.edges, "fixture should produce at least one edge"
    with pytest.raises(ValueError):
        BaselineModel(
            baselines={k: v for k, v in model.baselines.items() if k != model.edges[0].cause},
            edges=model.edges,
        )
