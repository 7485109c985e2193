import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jjaging import (
    AgingParams,
    ChipDataset,
    FitOptions,
    InsufficientDataError,
    TwoLogParams,
    ValidationError,
    effective_tau,
    eval_single_log,
    eval_two_log,
    fit_chip,
    fit_single_log,
    fit_two_log,
    grid_search_oracle,
)
from jjaging import fitting
from jjaging.ensemble import ENV_LABELS, FLAGS
from jjaging.fitting import (
    _inv,
    _linalg_errstate,
    _single_log_rj,
    _solve,
    _two_log_rj,
    _two_log_vp_rj,
)
from reference_report import v1_histogram

DAY = 86400.0
CHIP1 = AgingParams(a=0.21, tau_s=1.2e4, b=1.01)
CHIP2 = AgingParams(a=0.15, tau_s=4.3e4, b=1.06)


def single_log_series(p, n=40, lo=1e3, hi=56 * DAY):
    t = np.logspace(np.log10(lo), np.log10(hi), n)
    return np.column_stack([t, eval_single_log(p, t)])


class TestSingleLogFit:
    @pytest.mark.parametrize("p", [CHIP1, CHIP2])
    def test_noiseless_round_trip(self, p):
        res = fit_single_log(single_log_series(p))
        assert res.converged
        assert res.params.a == pytest.approx(p.a, rel=1e-4)
        assert res.params.tau_s == pytest.approx(p.tau_s, rel=1e-4)
        assert res.params.b == pytest.approx(p.b, rel=1e-4)
        assert res.rss < 1e-16

    def test_constant_series_flat_fit(self):
        t = np.logspace(3, 6, 10)
        series = np.column_stack([t, np.ones_like(t)])
        res = fit_single_log(series)
        assert res.params.a == 0.0
        assert res.rss == 0.0
        assert "a" in res.at_bounds

    def test_noisy_ensemble_median_amplitude(self):
        # Chip-2-like, 0.5% noise: median recovered amplitude within 15%.
        rng_master = np.random.default_rng(2024)
        recovered = []
        for _ in range(100):
            series = single_log_series(CHIP2)
            series[:, 1] *= 1 + 0.005 * rng_master.standard_normal(series.shape[0])
            recovered.append(fit_single_log(series).params.a)
        med = float(np.median(recovered))
        assert abs(med - 0.15) / 0.15 < 0.15

    def test_never_worse_than_init(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = AgingParams(a=rng.uniform(0.05, 0.5), tau_s=10 ** rng.uniform(3, 6),
                            b=rng.uniform(0.5, 2.0))
            series = single_log_series(p, n=20)
            series[:, 1] *= 1 + 0.01 * rng.standard_normal(20)
            init = (rng.uniform(0, 1), 10 ** rng.uniform(2.5, 7.5), rng.uniform(0.1, 5))
            opts = FitOptions(init=init)
            res = fit_single_log(series, opts)
            t, y = series[:, 0], series[:, 1]
            r0 = 1 + init[0] * np.log(t / init[1] + init[2]) - y
            assert res.rss <= float(r0 @ r0) + 1e-12

    def test_scale_invariance_through_chip_normalization(self):
        # Scaling every resistance by a constant and renormalizing by the new
        # earliest value leaves the fractional-fit parameters unchanged.
        ds1 = synthetic_dataset(n_junctions=3)
        scaled = ChipDataset(ds1.junction_id, ds1.t_s, 3.7 * ds1.r_ohm, ds1.env, ds1.flag,
                             ds1.chip_id)
        out1, out2 = fit_chip(ds1), fit_chip(scaled)
        assert out2.average.params.a == pytest.approx(out1.average.params.a, abs=1e-10)
        assert out2.average.params.tau_s == pytest.approx(out1.average.params.tau_s, rel=1e-10)
        assert out2.average.params.b == pytest.approx(out1.average.params.b, abs=1e-10)

    def test_non_convergence_returns_best_so_far(self):
        series = single_log_series(CHIP1)
        with mock.patch.object(fitting, "_MAX_ITERATIONS", 1):
            res = fit_single_log(series)
        assert not res.converged
        assert res.iterations == 1
        assert np.isfinite(res.rss)

    def test_short_span_warns(self):
        t = np.linspace(1e4, 5e4, 8)
        series = np.column_stack([t, eval_single_log(CHIP1, t)])
        with pytest.warns(UserWarning, match="decade"):
            res = fit_single_log(series)
        assert res.messages

    def test_prechecks(self):
        with pytest.raises(InsufficientDataError):
            fit_single_log([(1e3, 1.0), (1e4, 1.1), (1e5, 1.2)])
        with pytest.raises(ValidationError):
            fit_single_log([(1e3, 1.0), (1e4, np.nan), (1e5, 1.2), (1e6, 1.3)])

    @pytest.mark.parametrize("model, init", [
        ("single-log", (math.nan, 1e4, 1.0)),
        ("single-log", (0.2, math.inf)),
        ("single-log", (0.2, 1e4, -math.inf)),
        ("two-log", (0.1, 1e4, 0.1, math.nan)),
    ])
    def test_non_finite_init_refused_naming_it(self, model, init):
        # Refused when the options are made, before any fit starts from it.
        with pytest.raises(ValidationError, match="init"):
            FitOptions(model=model, init=init)

    def test_zero_amplitude_keeps_the_amplitude_stderr(self):
        # Deaging data ends the fit at a = 0, where the tau and b columns of
        # J vanish: only their errors are undefined.
        t = np.arange(0.0, 30 * DAY + 1.0, DAY)
        res = fit_single_log(np.column_stack([t, 1.0 - 0.001 * np.log1p(t / 1e4)]))
        assert res.params.a == 0.0 and res.at_bounds == ("a",)
        assert math.isfinite(res.stderr["a"]) and res.stderr["a"] > 0
        assert math.isnan(res.stderr["tau_s"]) and math.isnan(res.stderr["b"])

    def test_fixed_b(self):
        series = single_log_series(AgingParams(a=0.21, tau_s=1.2e4, b=1.0))
        res = fit_single_log(series, FitOptions(fix_b=1.0))
        assert res.params.b == 1.0
        assert res.params.a == pytest.approx(0.21, rel=1e-6)
        assert res.stderr["b"] == 0.0


class TestTwoLogFit:
    def test_single_channel_limit(self):
        gen = TwoLogParams(a_int=0.12, tau_int_s=3.3e4, a_ext=0.0, tau_ext_s=1e3)
        t = np.logspace(3, np.log10(56 * DAY), 40)
        series = np.column_stack([t, eval_two_log(gen, t)])
        res = fit_two_log(series)
        total = res.params.a_int + res.params.a_ext
        assert total == pytest.approx(0.12, abs=1e-3)
        # the active channel's curve matches the generator within 1e-3
        fit_curve = eval_two_log(res.params, t)
        np.testing.assert_allclose(fit_curve, series[:, 1], atol=1e-3)

    def test_round_trip_well_separated(self):
        gen = TwoLogParams(a_int=0.10, tau_int_s=3.9e5, a_ext=0.11, tau_ext_s=1.2e3)
        t = np.logspace(2.5, 7, 60)
        series = np.column_stack([t, eval_two_log(gen, t)])
        res = fit_two_log(series)
        assert res.converged
        assert res.params.a_int == pytest.approx(gen.a_int, rel=1e-3)
        assert res.params.tau_int_s == pytest.approx(gen.tau_int_s, rel=1e-2)
        assert res.params.a_ext == pytest.approx(gen.a_ext, rel=1e-3)
        assert res.params.tau_ext_s == pytest.approx(gen.tau_ext_s, rel=1e-2)

    def test_canonical_ordering_under_swapped_init(self):
        gen = TwoLogParams(a_int=0.10, tau_int_s=3.9e4, a_ext=0.11, tau_ext_s=1.2e4)
        t = np.logspace(3, np.log10(5e6), 40)
        series = np.column_stack([t, eval_two_log(gen, t)])
        r1 = fit_two_log(series, FitOptions(model="two-log", init=(3.9e4, 1.2e4)))
        r2 = fit_two_log(series, FitOptions(model="two-log", init=(1.2e4, 3.9e4)))
        assert r1.params.tau_int_s >= r1.params.tau_ext_s
        assert r2.params.tau_int_s >= r2.params.tau_ext_s
        assert r1.params.a_int == pytest.approx(r2.params.a_int, rel=1e-6)
        assert r1.params.tau_int_s == pytest.approx(r2.params.tau_int_s, rel=1e-6)

    def test_degenerate_flagged(self):
        gen = TwoLogParams(a_int=0.1, tau_int_s=2.2e4, a_ext=0.1, tau_ext_s=1.6e4)
        t = np.logspace(3, 6.5, 30)
        series = np.column_stack([t, eval_two_log(gen, t)])
        res = fit_two_log(series)
        assert res.degenerate_timescales

    def test_effective_tau_agreement(self):
        # Single-log refit of a two-channel curve recovers the weighted
        # geometric-mean timescale (observed ratio ~0.94 pre-build).
        gen = TwoLogParams(a_int=0.10, tau_int_s=3.9e4, a_ext=0.11, tau_ext_s=1.2e4)
        t = np.logspace(3, np.log10(5e6), 40)
        series = np.column_stack([t, eval_two_log(gen, t)])
        res = fit_single_log(series)
        assert abs(res.params.tau_s / effective_tau(gen) - 1) <= 0.30


class TestJacobians:
    @staticmethod
    def _fd(fun, x, eps=1e-6):
        r0, _ = fun(x)
        J = np.empty((r0.size, len(x)))
        for k in range(len(x)):
            h = eps * max(abs(x[k]), 1.0)
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            J[:, k] = (fun(xp)[0] - fun(xm)[0]) / (2 * h)
        return J

    def test_single_log_jacobian_vs_central_differences(self):
        rng = np.random.default_rng(17)
        t = np.logspace(3, 6.5, 25)
        y = eval_single_log(CHIP1, t)
        fun = lambda x: _single_log_rj(x, t, y)
        for _ in range(100):
            x = np.array([rng.uniform(0.02, 0.9), rng.uniform(math.log(3e2), math.log(3e7)),
                          rng.uniform(0.2, 8.0)])
            J_an = fun(x)[1]
            J_fd = self._fd(fun, x)
            np.testing.assert_allclose(J_an, J_fd, rtol=1e-6, atol=1e-9)

    def test_two_log_jacobian_vs_central_differences(self):
        rng = np.random.default_rng(23)
        t = np.logspace(3, 6.5, 25)
        gen = TwoLogParams(a_int=0.1, tau_int_s=3.9e4, a_ext=0.11, tau_ext_s=1.2e4)
        y = eval_two_log(gen, t)
        fun = lambda x: _two_log_rj(x, t, y)
        for _ in range(100):
            x = np.array([
                rng.uniform(0.02, 0.9), rng.uniform(math.log(3e2), math.log(3e7)),
                rng.uniform(0.02, 0.9), rng.uniform(math.log(3e2), math.log(3e7)),
            ])
            np.testing.assert_allclose(fun(x)[1], self._fd(fun, x), rtol=1e-6, atol=1e-9)


    def test_separable_two_log_jacobian_vs_central_differences(self):
        # The projected residual is smooth where the set of amplitudes on a
        # bound does not change: points whose difference stencil crosses a
        # switch are skipped, and every set is required to occur.
        rng = np.random.default_rng(29)
        t = np.logspace(3, 6.5, 25)
        gen = TwoLogParams(a_int=0.1, tau_int_s=3.9e4, a_ext=0.11, tau_ext_s=1.2e4)
        y = eval_two_log(gen, t) * (1.0 + 0.01 * rng.standard_normal(t.size))
        seen = set()
        for a_bounds in [(0.0, 1.0), (0.0, 0.05), (0.02, 0.08), (0.15, 0.3)]:
            lo, hi = a_bounds

            def free(x):
                return tuple(lo < a < hi for a in fitting._two_log_vp_resid(x, t, y)[1][:2])

            fun = lambda x: _two_log_vp_rj(x, t, y)
            with mock.patch.object(fitting, "_A_BOUNDS", a_bounds):
                for _ in range(100):
                    x = rng.uniform(math.log(3e2), math.log(3e7), 2)
                    steps = np.diag(1e-5 * np.maximum(abs(x), 1.0))   # _fd's, at eps=1e-5
                    if len({free(x)} | {free(x + s) for s in steps}
                           | {free(x - s) for s in steps}) > 1:
                        continue
                    seen.add(free(x))
                    J = fun(x)[1]
                    np.testing.assert_allclose(J, self._fd(fun, x, eps=1e-5),
                                               rtol=1e-6, atol=1e-7 * abs(J).max())
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


class TestGridOracle:
    def test_fit_dominates_grid_with_contained_init(self):
        series = single_log_series(CHIP1)
        t, y = series[:, 0], series[:, 1]
        res = fit_single_log(series)
        a0 = (y.max() - y.min()) / math.log(t.max() / t.min())
        grid = {
            "a": np.unique(np.append(np.linspace(0, 1, 50), a0)),
            "tau_s": np.unique(np.append(np.logspace(2, 8, 50), t.min())),
            "b": np.unique(np.append(np.linspace(0.05, 10, 20), 1.0)),
        }
        best, best_rss = grid_search_oracle(series, grid)
        assert best_rss >= res.rss - 1e-12

    def test_grid_best_within_one_cell_of_truth(self):
        # "Within one cell": the winning node sits at most one index away
        # from the node nearest the generating parameters on every axis.
        series = single_log_series(CHIP1)
        a_ax = np.linspace(0, 1, 50)
        tau_ax = np.logspace(2, 8, 50)
        b_ax = np.linspace(0.05, 10, 20)
        best, _ = grid_search_oracle(series, {"a": a_ax, "tau_s": tau_ax, "b": b_ax})

        def index_dist(axis, got, truth, log=False):
            ax = np.log(axis) if log else axis
            g, tr = (math.log(got), math.log(truth)) if log else (got, truth)
            return abs(int(np.argmin(np.abs(ax - g))) - int(np.argmin(np.abs(ax - tr))))

        assert index_dist(a_ax, best["a"], 0.21) <= 1
        assert index_dist(tau_ax, best["tau_s"], 1.2e4, log=True) <= 1
        assert index_dist(b_ax, best["b"], 1.01) <= 1

    def test_single_point_grid_returns_truth(self):
        series = single_log_series(CHIP1)
        best, rss = grid_search_oracle(
            series, {"a": [0.21], "tau_s": [1.2e4], "b": [1.01]}
        )
        assert best == {"a": 0.21, "tau_s": 1.2e4, "b": 1.01}
        assert rss < 1e-20

    def test_two_log_grid(self):
        gen = TwoLogParams(a_int=0.10, tau_int_s=3.9e4, a_ext=0.11, tau_ext_s=1.2e4)
        t = np.logspace(3, 6.5, 20)
        series = np.column_stack([t, eval_two_log(gen, t)])
        best, rss = grid_search_oracle(series, {
            "a_int": [0.05, 0.10, 0.2], "tau_int_s": [1e4, 3.9e4, 1e5],
            "a_ext": [0.05, 0.11, 0.2], "tau_ext_s": [5e3, 1.2e4, 5e4],
        })
        assert rss < 1e-20
        assert best["tau_int_s"] == 3.9e4 and best["tau_ext_s"] == 1.2e4

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_two_log_start_dominates_the_grid(self, data):
        # The start's amplitudes are exact for its node pair, so it is at or
        # below the grid's best over the same ln tau nodes (tau_int > tau_ext)
        # and any amplitude grid in the box.  Its pairs are ranked by the
        # normal equations, which are exact to about 1e-16 of sum((y - 1)^2);
        # the noise keeps the grid's best rss far above that.
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        t = np.geomspace(draw(st.floats(10.0, 1e4)), 84 * DAY, draw(st.integers(6, 40)))
        if draw(st.booleans()):
            t[0] = 0.0
        gen = TwoLogParams(a_int=draw(st.floats(0.0, 0.4)),
                           tau_int_s=10 ** draw(st.floats(2.0, 7.0)),
                           a_ext=draw(st.floats(0.0, 0.4)),
                           tau_ext_s=10 ** draw(st.floats(2.0, 7.0)))
        noise = draw(st.sampled_from([1e-3, 2e-2]))
        y = eval_two_log(gen, t) * (1.0 + noise * rng.standard_normal(t.size))
        lo, hi = draw(st.sampled_from([(0.0, 1.0), (0.0, 0.05), (0.02, 0.08), (0.15, 0.3)]))
        with mock.patch.object(fitting, "_A_BOUNDS", (lo, hi)):
            ai, ti, ae, te = fitting._two_log_start(t, y)
        assert lo <= ai <= hi and lo <= ae <= hi and ti > te
        basis = np.log1p(t / ti), np.log1p(t / te)
        r = 1.0 + ai * basis[0] + ae * basis[1] - y
        rss = float(r @ r)
        # The amplitudes are the box minimizer for their pair: the rss rises
        # into the box from each bound an amplitude sits on, and is flat
        # along an amplitude strictly inside.
        for a, b in zip((ai, ae), basis):
            slope, scale = r @ b, 1e-7 * math.sqrt(rss * (b @ b))
            assert slope >= -scale if a == lo else slope <= scale if a == hi else (
                abs(slope) <= scale)
        taus = np.exp(np.linspace(*fitting._LOG_TAU_BOUNDS, 41))
        amps = np.linspace(lo, hi, 21)
        series = np.column_stack([t, y])
        grid_rss = min(
            grid_search_oracle(series, {"a_int": amps, "tau_int_s": [taus[k]],
                                        "a_ext": amps, "tau_ext_s": taus[:k]})[1]
            for k in range(1, taus.size))
        assert rss <= grid_rss * (1.0 + 1e-9)

    def test_two_log_start_ties_go_to_the_first_pair(self):
        # A flat series fits every pair exactly with zero amplitudes.
        t = np.geomspace(1e3, 84 * DAY, 20)
        lo, hi = fitting._LOG_TAU_BOUNDS
        ai, ti, ae, te = fitting._two_log_start(t, np.ones_like(t))
        assert (ai, ae) == (0.0, 0.0)
        assert (ti, te) == pytest.approx((math.exp(lo + (hi - lo) / 40), math.exp(lo)), rel=1e-12)

    def test_node_budget_refusal(self):
        series = single_log_series(CHIP1, n=4)
        huge = np.linspace(0, 1, 2000)
        with pytest.raises(ValidationError, match="coarsen"):
            grid_search_oracle(series, {"a": huge, "tau_s": huge * 1e5 + 1, "b": huge + 0.1})


class TestHistogram:
    """The version 1 report's parameter binning, as its oracle restates it."""

    def _results(self, values):
        from jjaging import FitResult

        return [
            FitResult(params=AgingParams(a=v, tau_s=1e4, b=1.0), stderr={},
                      rss=0.0, converged=True, n_points=4, iterations=1)
            for v in values
        ]

    def test_single_result_one_occupied_bin(self):
        res = self._results([0.2])
        counts, edges = v1_histogram(res, "a", n_bins=5)
        assert counts.sum() == 1
        assert (counts > 0).sum() == 1

    def test_values_ulps_apart_get_finite_bins(self):
        # 0 and the smallest subnormal used to make numpy refuse the range
        # ("Too many bins for data range").
        counts, edges = v1_histogram(self._results([0.0, 5e-324]), "a", n_bins=8)
        assert counts.sum() == 2
        assert (np.diff(edges) > 0).all()

    def test_counts_conserved(self):
        res = self._results([0.1, 0.15, 0.2, 0.25, 0.3, 0.12])
        counts, _ = v1_histogram(res, "a", 4)
        assert counts.sum() == len(res)

    def test_log_tau_bins_uniform_in_log(self):
        import jjaging

        results = []
        for tau in (1e3, 1e4, 1e5, 1e6):
            results.append(jjaging.FitResult(
                params=AgingParams(a=0.1, tau_s=tau, b=1.0),
                stderr={}, rss=0.0, converged=True, n_points=4, iterations=1,
            ))
        counts, edges = v1_histogram(results, "log_tau", 3)
        widths = np.diff(edges)
        np.testing.assert_allclose(widths, widths[0])
        assert counts.sum() == 4

    def test_symmetric_log_draws_give_symmetric_log_histogram(self):
        import jjaging

        rng = np.random.default_rng(3)
        taus = np.exp(math.log(3e4) + 0.5 * rng.standard_normal(4000))
        results = [jjaging.FitResult(
            params=AgingParams(a=0.1, tau_s=float(tau), b=1.0),
            stderr={}, rss=0.0, converged=True, n_points=4, iterations=1,
        ) for tau in taus]
        counts, edges = v1_histogram(results, "log_tau", 21)
        centers = (edges[:-1] + edges[1:]) / 2
        mean_of_hist = float((centers * counts).sum() / counts.sum())
        assert abs(mean_of_hist - math.log(3e4)) < 0.05


def synthetic_dataset(n_junctions=6, p=CHIP1, r0=22_800.0, open_ids=(), n_times=12):
    t = np.logspace(3, np.log10(56 * DAY), n_times)
    curve = [float(r0 * eval_single_log(p, tt)) for tt in t]
    is_open = np.isin(np.arange(n_junctions), open_ids)
    return ChipDataset(
        junction_id=np.repeat(np.arange(n_junctions), n_times),
        t_s=np.tile(t, n_junctions),
        r_ohm=np.where(is_open[:, None], np.nan, curve).ravel(),
        env=np.full(n_junctions * n_times, ENV_LABELS.index("unknown")),
        flag=np.repeat(np.where(is_open, FLAGS.index("open"), FLAGS.index("ok")), n_times),
        chip_id="sync",
    )


class TestFitChip:
    def test_identical_junctions_match_average(self):
        ds = synthetic_dataset()
        out = fit_chip(ds)
        assert len(out.per_junction) == 6
        for res in out.per_junction.values():
            assert res.params.a == pytest.approx(out.average.params.a, rel=1e-6)
            assert res.params.tau_s == pytest.approx(out.average.params.tau_s, rel=1e-5)

    def test_recovers_reference_parameters(self):
        ds = synthetic_dataset()
        out = fit_chip(ds)
        # normalization is by the earliest sample (t=1e3 s), not t=0, so
        # allow the stated uncertainty band rather than exact recovery
        assert abs(out.average.params.a - 0.21) < 0.02
        assert abs(out.average.params.tau_s - 1.2e4) < 0.5e4
        assert abs(out.average.params.b - 1.01) < 0.23

    def test_open_junction_excluded_from_results(self):
        ds = synthetic_dataset(open_ids=(2,))
        out = fit_chip(ds)
        assert len(out.per_junction) == 5
        assert 2 not in out.per_junction

    def test_share_b_mode(self):
        ds = synthetic_dataset()
        out = fit_chip(ds, share_b=True)
        bs = {res.params.b for res in out.per_junction.values()}
        assert bs == {out.average.params.b}

    def test_too_few_points_is_fatal_for_average(self):
        ds = synthetic_dataset(n_times=3)
        with pytest.raises(InsufficientDataError):
            fit_chip(ds)

    @pytest.mark.parametrize("share_b", [False, True])
    def test_junction_series_equal_their_own_rows(self, share_b):
        # Each junction's fit, r0 and skip reason are those of its own usable
        # rows over the first one, fitted alone: with excluded rows, a
        # repeated time, a junction whose repeats leave three distinct times,
        # one with no usable row, and one whose ratios overflow the rss.
        base = synthetic_dataset(n_junctions=6)
        j, t, r, flag = (np.array(c) for c in (base.junction_id, base.t_s, base.r_ohm,
                                               base.flag))
        rng = np.random.default_rng(4)
        r = r * (1.0 + 1e-3 * rng.standard_normal(r.size))
        excluded = FLAGS.index("excluded")
        flag[(j == 1) & (t < 2e4)] = excluded
        t[(j == 2) & (t == t[j == 2][5])] = t[j == 2][4]
        t[j == 3] = np.repeat(t[j == 3][:3], 4)
        flag[j == 4] = excluded
        r[(j == 5) & (t == t.min())] = 1e-150
        ds = ChipDataset(j, t, r, base.env, flag, base.chip_id)
        out = fit_chip(ds, share_b=share_b)

        p = out.average.params
        opts = FitOptions(init=(p.a, p.tau_s, p.b), fix_b=p.b if share_b else None)
        fits, r0s, skipped = {}, {}, {}
        ok = ds.flag == FLAGS.index("ok")
        for jid in ds.junction_ids():
            rows = (ds.junction_id == jid) & ok
            tj, rj = ds.t_s[rows], ds.r_ohm[rows]
            if np.unique(tj).size < 4:
                skipped[jid] = "fewer than 4 usable time points"
                continue
            try:
                fits[jid] = fit_single_log(np.column_stack([tj, rj / rj[0]]), opts)
                r0s[jid] = float(rj[0])
            except ValidationError as exc:
                skipped[jid] = str(exc)
        assert repr(out.per_junction) == repr(fits)
        assert out.r0_ohm == r0s
        assert list(out.skipped.items()) == list(skipped.items())
        assert sorted(skipped) == [3, 4, 5]
        assert "residual sum of squares is not finite" in skipped[5]


@pytest.mark.parametrize("fit, tau_init", [(fit_single_log, (0.2, 1e4, 1.0)),
                                           (fit_two_log, (3e5, 2e3))])
def test_fit_is_the_same_for_any_series_container(fit, tau_init):
    t = np.concatenate([[0.0], np.geomspace(3600.0, 84 * DAY, 29)])
    y = eval_single_log(CHIP1, t) * (1.0 + 1e-3 * np.random.default_rng(2).standard_normal(30))
    pairs = list(zip(t.tolist(), y.tolist()))
    strided = np.zeros((90, 5))
    strided[::3, 1], strided[::3, 3] = t, y
    containers = {
        "pairs": pairs,
        "C order": np.array(pairs),
        "Fortran order": np.asfortranarray(pairs),
        "strided view": strided[::3, 1::2],
    }
    for opts in (None, FitOptions(model="single-log" if fit is fit_single_log else "two-log",
                                  init=tau_init)):
        results = {name: repr(fit(series, opts)) for name, series in containers.items()}
        assert len(set(results.values())) == 1, results


@pytest.mark.parametrize("fit", [fit_single_log, fit_two_log])
def test_an_overflowing_rss_is_refused_before_any_warning(fit):
    t = np.arange(0.0, 85 * DAY, 2 * DAY)
    y = np.full(t.size, 3.6e154)   # about 1e4 ohm read as 1e-150 ohm on day 0
    y[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="residual sum of squares is not finite"):
            fit(np.column_stack([t, y]))
        # Large ratios whose squares still sum to a finite rss are fitted.
        y[1:] = 1e150
        assert math.isfinite(fit(np.column_stack([t, y])).rss)


def _solved(solve, *args):
    try:
        return solve(*args).tobytes()
    except np.linalg.LinAlgError:
        return "LinAlgError"


@st.composite
def lm_systems(draw):
    """An LM trial system JᵀJ + λ·diag(d) and its right side -Jᵀr, with the
    kernel's diagonal rule (d = diag(JᵀJ), zeros replaced by 1).  J may have
    zero or duplicated columns, or be all zero; the undamped JᵀJ is also
    returned, so singular systems are exercised too."""
    p = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(4, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    J = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-6, 6, p)
    shape = draw(st.sampled_from(["full", "zero column", "duplicate column", "all zero"]))
    k = draw(st.integers(0, p - 1))
    if shape == "zero column":
        J[:, k] = 0.0
    elif shape == "duplicate column":
        J[:, k] = J[:, (k + 1) % p]
    elif shape == "all zero":
        J[:] = 0.0
    lam = 10.0 ** draw(st.floats(-14, 15))
    JtJ = J.T @ J
    d = JtJ.diagonal().copy()
    d[d <= 0] = 1.0
    neg_g = -(J.T @ rng.standard_normal(n))
    return JtJ + lam * np.diag(d), JtJ, neg_g


@settings(max_examples=300, deadline=None)
@given(system=lm_systems())
def test_solve_matches_numpy_solve_bytes(system):
    # _solve runs under the error state that its caller, _lm_minimize, holds.
    solve = _linalg_errstate(_solve)
    damped, undamped, neg_g = system
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (damped, undamped):
            assert _solved(solve, a, neg_g) == _solved(np.linalg.solve, a, neg_g)
            # The undamped JᵀJ is what the standard errors invert.
            assert _solved(_inv, a) == _solved(np.linalg.inv, a)
        assert _solved(solve, np.zeros_like(damped), neg_g) == "LinAlgError"
        assert _solved(_inv, np.zeros_like(damped)) == "LinAlgError"
    assert np.geterr() == before


def test_fits_leave_the_error_state_as_they_found_it():
    # _lm_minimize holds the linalg error state for a whole run, not per
    # solve; afterwards numpy's state is the caller's again, also when a fit
    # or the run itself raises.
    state = np.geterr(), np.geterrcall()
    fit_single_log(single_log_series(CHIP1))
    fit_two_log(single_log_series(CHIP2))
    fit_chip(synthetic_dataset())
    fit_chip(synthetic_dataset(), share_b=True)
    with pytest.raises(InsufficientDataError):
        fit_single_log(single_log_series(CHIP1, n=3))
    assert (np.geterr(), np.geterrcall()) == state

    seen = []

    def resid(x):
        seen.append((np.geterr()["invalid"], np.geterrcall()))
        if len(seen) == 3:
            raise ZeroDivisionError("from the residual")
        return x - 1.0, None

    lo, hi = np.full(2, -5.0), np.full(2, 5.0)
    with pytest.raises(ZeroDivisionError, match="from the residual"):
        fitting._lm_minimize(resid, lambda cache: np.eye(2), [0.0, 0.0], lo, hi, ())
    assert seen == [("call", fitting._raise_singular)] * 3
    assert (np.geterr(), np.geterrcall()) == state
