import math

import numpy as np
import pytest

from jjaging import (
    AMBIENT,
    AgingParams,
    AnnealEvent,
    ChipDataset,
    ChipSpec,
    DrawnChip,
    InsufficientDataError,
    MeasurementRecord,
    SimConfig,
    StorageSchedule,
    ValidationError,
    VoltageAnneal,
    aggregate_series,
    draw_chip,
    eval_single_log,
    load_measurements,
    save_measurements,
    simulate_chip,
    simulate_trajectory,
)
from jjaging import ensemble
from jjaging.ensemble import FLAGS, MAX_JUNCTION_RANGE

DAY = 86400.0


def flat_spec(**over):
    base = dict(
        r0_mean_ohm=22_800.0, r0_cv=0.0, a_mean=0.21, a_sd=0.0,
        log_tau_mean=math.log(1.2e4), log_tau_sd=0.0, b_mean=1.01, b_sd=0.0,
        noise_sigma=0.0,
    )
    base.update(over)
    return ChipSpec(**base)


class TestDrawChip:
    def test_zero_spreads_give_identical_junctions(self):
        chip = draw_chip(flat_spec(), seed=1)
        params = {p for p, _ in chip}
        assert len(params) == 1
        p = next(iter(params))
        assert (p.a, p.tau_s, p.b, p.r0_ohm) == (0.21, pytest.approx(1.2e4), 1.01, 22_800.0)
        assert not any(open_ for _, open_ in chip)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            draw_chip(flat_spec(), seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert draw_chip(flat_spec(), seed=np.int64(9)) == draw_chip(flat_spec(), seed=9)

    def test_seed_repeat_identical(self):
        spec = flat_spec(r0_cv=0.05, a_sd=0.02, log_tau_sd=0.4, b_sd=0.1, open_prob=0.2)
        assert draw_chip(spec, seed=9) == draw_chip(spec, seed=9)
        assert draw_chip(spec, seed=9) != draw_chip(spec, seed=10)

    def test_chip6_like_r0_cv_statistical(self):
        # High-spread chip: sample CV of drawn R0 lands near the configured 12.1%.
        spec = flat_spec(r0_mean_ohm=11_100.0, r0_cv=0.121, open_prob=0.2, n_junctions=1000)
        chip = draw_chip(spec, seed=5)
        r0s = np.array([p.r0_ohm for p, _ in chip])
        cv = np.std(r0s, ddof=1) / np.mean(r0s)
        assert abs(cv - 0.121) < 0.03
        opens = sum(1 for _, o in chip if o)
        assert 120 < opens < 280

    def test_seed_changes_realization_not_configured_means(self):
        spec = flat_spec(r0_mean_ohm=11_100.0, r0_cv=0.121, n_junctions=1000)
        for seed in (1, 2):
            chip = draw_chip(spec, seed=seed)
            mean = np.mean([p.r0_ohm for p, _ in chip])
            assert abs(mean / 11_100.0 - 1) < 0.02

    def test_positivity_enforced(self):
        spec = flat_spec(a_mean=0.01, a_sd=0.2, b_mean=0.1, b_sd=0.5, n_junctions=200)
        chip = draw_chip(spec, seed=3)
        assert all(p.a > 0 and p.b > 0 and p.r0_ohm > 0 for p, _ in chip)

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            ChipSpec(r0_mean_ohm=1e4, r0_cv=0.05, a_mean=0.2, n_junctions=0)

    @pytest.mark.parametrize("n", [True, 2.5, "16", math.nan, 16.0])
    def test_n_junctions_must_be_an_integer(self, n):
        with pytest.raises(ValidationError, match="n_junctions must be an integer >= 1"):
            flat_spec(n_junctions=n)

    def test_n_junctions_capped(self):
        # Only specs are built here: a chip this large is never drawn.
        assert flat_spec(n_junctions=MAX_JUNCTION_RANGE).n_junctions == MAX_JUNCTION_RANGE
        for n in (MAX_JUNCTION_RANGE + 1, 10**9):
            with pytest.raises(ValidationError, match=f"n_junctions must be <= "
                                                      f"{MAX_JUNCTION_RANGE}, got {n}"):
                flat_spec(n_junctions=n)

    def test_numpy_integer_n_junctions_accepted(self):
        assert len(draw_chip(flat_spec(n_junctions=np.int64(3)), seed=1)) == 3


class TestSimulateChip:
    @pytest.mark.parametrize("seed", [-1, 1.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        chip = draw_chip(flat_spec(), seed=1)
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            simulate_chip(chip, StorageSchedule.single(AMBIENT), [], [0.0, DAY],
                          SimConfig(), seed=seed)

    def test_sample_times_must_be_one_dimensional(self):
        chip = draw_chip(flat_spec(), seed=1)
        with pytest.raises(ValidationError, match="1-D"):
            simulate_chip(chip, StorageSchedule.single(AMBIENT), [], [[0.0, DAY]],
                          SimConfig(), seed=1)

    def test_zero_noise_zero_spread_matches_closed_form(self):
        spec = flat_spec(n_junctions=4)
        chip = draw_chip(spec, seed=0)
        cfg = SimConfig()
        samples = np.linspace(0, 56 * DAY, 15)
        ds = simulate_chip(chip, StorageSchedule.single(AMBIENT), [], samples, cfg, seed=0)
        ref = 22_800.0 * eval_single_log(AgingParams(a=0.21, tau_s=1.2e4, b=1.01), samples)
        for _, lo, hi in ds.junction_rows():
            np.testing.assert_allclose(ds.r_ohm[lo:hi], ref, rtol=1e-12)

    def test_voltage_anneal_on_half_leaves_rest_unperturbed(self):
        spec = flat_spec(n_junctions=8)
        chip = draw_chip(spec, seed=0)
        cfg = SimConfig(voltage_jump_mean=0.142, voltage_jump_sd=0.0)
        ev = [AnnealEvent(t_s=30 * DAY, kind=VoltageAnneal(), junction_ids=(0, 1, 2, 3))]
        samples = [0.0, 29 * DAY, 31 * DAY]
        ds = simulate_chip(chip, StorageSchedule.single(AMBIENT), ev, samples, cfg, seed=0)
        baseline = simulate_chip(chip, StorageSchedule.single(AMBIENT), [], samples, cfg, seed=0)
        r, r_base = ds.r_ohm.reshape(8, 3), baseline.r_ohm.reshape(8, 3)
        assert r[4:].tolist() == r_base[4:].tolist()
        assert (r[:4, 2] / r[:4, 1] > 1.10).all()

    def test_open_junctions_flagged_without_resistance(self):
        spec = flat_spec(open_prob=0.5, n_junctions=20)
        chip = draw_chip(spec, seed=11)
        cfg = SimConfig()
        ds = simulate_chip(chip, StorageSchedule.single(AMBIENT), [], [0.0, DAY], cfg, seed=0)
        open_ids = [j for j, (_, o) in enumerate(chip) if o]
        assert open_ids, "seed should produce some open junctions"
        rows = np.isin(ds.junction_id, open_ids)
        assert (ds.flag[rows] == FLAGS.index("open")).all()
        assert np.isnan(ds.r_ohm[rows]).all()

    def test_one_simulate_trajectory_call_per_junction_not_open(self, monkeypatch):
        # The benchmark's tracer counts samples through this public call.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return simulate_trajectory(*args, **kwargs)

        monkeypatch.setattr(ensemble, "simulate_trajectory", counting)
        chip = draw_chip(flat_spec(open_prob=0.5, n_junctions=20), seed=11)
        simulate_chip(chip, StorageSchedule.single(AMBIENT), [], [0.0, DAY],
                      SimConfig(), seed=0)
        # Each call gets the junction's drawn AgingParams object itself.
        drawn = [p for p, is_open in chip if not is_open]
        assert len(calls) == len(drawn) and all(c is p for c, p in zip(calls, drawn))
        assert 0 < len(calls) < len(chip)

    @staticmethod
    def all_open_chip(n=3):
        params = AgingParams(a=0.21, tau_s=1.2e4, b=1.01, r0_ohm=22_800.0)
        return DrawnChip(junctions=((params, True),) * n, spec=flat_spec(n_junctions=n))

    @pytest.mark.parametrize("times", [
        [0.0, math.nan, 2 * DAY], [-5.0, 0.0, 1.0], [0.0, DAY, math.inf],
    ], ids=["nan", "negative", "inf"])
    def test_all_open_chip_checks_sample_times(self, times):
        # No junction reaches simulate_trajectory, so the chip checks the
        # times itself, with the same message.
        with pytest.raises(ValidationError, match="sample times must be finite and >= 0"):
            simulate_chip(self.all_open_chip(), StorageSchedule.single(AMBIENT), [], times,
                          SimConfig(), seed=1)

    def test_strict_increase_checked_before_finiteness(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            simulate_chip(self.all_open_chip(), StorageSchedule.single(AMBIENT), [],
                          [-5.0, -5.0, 1.0], SimConfig(), seed=1)

    def test_all_open_chip_saves_and_loads_back(self, tmp_path):
        ds = simulate_chip(self.all_open_chip(), StorageSchedule.single(AMBIENT), [],
                           [0.0, DAY, 2 * DAY], SimConfig(), seed=1, chip_id="c")
        assert (ds.flag == FLAGS.index("open")).all()
        save_measurements(ds, tmp_path / "open.csv")
        back = load_measurements(tmp_path / "open.csv")
        for col in ("junction_id", "t_s", "env", "flag"):
            assert getattr(back, col).tolist() == getattr(ds, col).tolist()
        assert np.isnan(back.r_ohm).all() and back.chip_id == "c"

    def test_mean_amplitude_round_trip(self):
        # Heterogeneous chip: refitting the mean curve lands near the mean amplitude.
        from jjaging import FitOptions, fit_single_log

        spec = flat_spec(r0_cv=0.048, a_sd=0.015, log_tau_sd=0.3, noise_sigma=0.003)
        chip = draw_chip(spec, seed=21)
        cfg = SimConfig()
        samples = np.concatenate([[600.0, 3600.0, 6 * 3600.0], np.linspace(DAY, 56 * DAY, 28)])
        ds = simulate_chip(chip, StorageSchedule.single(AMBIENT), [], samples, cfg, seed=21)
        agg = aggregate_series(ds)
        r0 = agg[0][1]
        series = [(t, m / r0) for t, m, _, _ in agg]
        res = fit_single_log(series, FitOptions())
        assert abs(res.params.a - 0.21) < 0.03


class TestAggregateSeries:
    def _ds(self, rows):
        j, t, r = zip(*rows)
        return ChipDataset(j, t, r, env=[0] * len(rows), flag=[0] * len(rows), chip_id="c")

    def test_single_junction_flagged_n1(self):
        ds = self._ds([(0, 0.0, 10.0), (0, DAY, 11.0)])
        agg = aggregate_series(ds)
        assert [n for _, _, _, n in agg] == [1, 1]
        assert all(math.isnan(cv) for _, _, cv, _ in agg)

    def test_two_identical_junctions_cv_zero(self):
        ds = self._ds([(0, 0.0, 10.0), (1, 0.0, 10.0), (0, DAY, 12.0), (1, DAY, 12.0)])
        agg = aggregate_series(ds)
        assert [cv for _, _, cv, _ in agg] == [0.0, 0.0]

    def test_hand_computed_pair_cv(self):
        # The sample sd of [9, 11] is sqrt(2) and their mean 10.
        agg = aggregate_series(self._ds([(0, 0.0, 9.0), (1, 0.0, 11.0)]))
        assert agg == [(0.0, 10.0, pytest.approx(math.sqrt(2) / 10, rel=1e-15), 2)]

    def test_window_groups_nearby_times(self):
        ds = self._ds([(0, 0.0, 10.0), (1, 500.0, 12.0), (0, 5000.0, 11.0)])
        agg = aggregate_series(ds, window_s=600.0)
        assert len(agg) == 2
        assert agg[0][3] == 2 and agg[1][3] == 1

    def test_permutation_invariance(self):
        rows = [(0, 0.0, 10.0), (1, 0.0, 12.0), (2, 0.0, 9.5)]
        a1 = aggregate_series(self._ds(rows))
        a2 = aggregate_series(self._ds(list(reversed(rows))))
        assert a1 == a2

    def test_empty_dataset_rejected(self):
        ds = ChipDataset([0], [0.0], [np.nan], env=[0], flag=[FLAGS.index("open")],
                         chip_id="c")
        with pytest.raises(InsufficientDataError):
            aggregate_series(ds)


class TestRecordValidation:
    def test_open_requires_no_resistance_check(self):
        MeasurementRecord("c", 0, 0.0, None, flag="open")  # fine
        with pytest.raises(ValidationError):
            MeasurementRecord("c", 0, 0.0, None, flag="ok")
        with pytest.raises(ValidationError):
            MeasurementRecord("c", 0, 0.0, -5.0)

    def test_dataset_sorted_on_construction(self):
        ds = ChipDataset([1, 0, 0], [5.0, 9.0, 1.0], [10.0] * 3, env=[0] * 3, flag=[0] * 3,
                         chip_id="c")
        keys = list(zip(ds.junction_id.tolist(), ds.t_s.tolist()))
        assert keys == sorted(keys)
