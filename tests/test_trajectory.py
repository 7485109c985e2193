import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jjaging import (
    AMBIENT,
    GLOVEBOX,
    VACUUM,
    AgingParams,
    AnnealEvent,
    ConfigurationError,
    ParameterError,
    SimConfig,
    StorageSchedule,
    ThermalAnneal,
    TrajectoryState,
    ValidationError,
    VoltageAnneal,
    apply_thermal_anneal,
    apply_voltage_anneal,
    eval_single_log,
    simulate_trajectory,
)
from jjaging.model import EnvironmentKind
from jjaging.trajectory import _in_force, _run_from, _segment, _tau_scale
from reference_trajectory import reference_simulate_trajectory

DAY = 86400.0


def junction(a=0.21, r0=1.0, b=1.0, first=AMBIENT):
    """A junction of amplitude ``a`` whose timescale is the configured one in
    ``first``, the schedule's first environment."""
    return AgingParams(a=a, tau_s=SimConfig().env_tau_s[first], b=b, r0_ohm=r0)


CHIP1 = junction()   # a chip1 junction's bound curve, at r0 = 1


def chip1_cfg(**over):
    defaults = dict(voltage_jump_mean=0.142, voltage_jump_sd=0.0)
    defaults.update(over)
    return SimConfig(**defaults)


class TestSchedule:
    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            StorageSchedule(segments=((5.0, AMBIENT),))

    def test_strictly_increasing(self):
        with pytest.raises(ValidationError):
            StorageSchedule(segments=((0.0, AMBIENT), (4 * DAY, GLOVEBOX), (4 * DAY, AMBIENT)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, bad):
        with pytest.raises(ValidationError):
            StorageSchedule(segments=((0.0, AMBIENT), (bad, GLOVEBOX)))

    def test_segment_environment_must_be_an_environment(self):
        with pytest.raises(ValidationError, match="must be an EnvironmentKind, got 'ambient'"):
            StorageSchedule(segments=((0.0, "ambient"),))

    def test_environment_lookup(self):
        sched = StorageSchedule(segments=((0.0, AMBIENT), (4 * DAY, GLOVEBOX)))
        assert _in_force(sched, SimConfig(), 0.0)[0] is AMBIENT
        assert _in_force(sched, SimConfig(), 3.9 * DAY)[0] is AMBIENT
        assert _in_force(sched, SimConfig(), 4 * DAY)[0] is GLOVEBOX

    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.floats(1e-300, 1e9), min_size=0, max_size=6),
           first=st.sampled_from([0.0, -0.0]), data=st.data())
    def test_environment_lookup_matches_linear_scan(self, gaps, first, data):
        starts = [first]
        for g in gaps:
            nxt = starts[-1] + g
            if nxt > starts[-1]:
                starts.append(nxt)
        envs = [list(EnvironmentKind)[k % 3] for k in range(len(starts))]
        sched = StorageSchedule(segments=tuple(zip(starts, envs)))
        near = [float(np.nextafter(s, d)) for s in starts for d in (-math.inf, math.inf)]
        t = data.draw(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                st.sampled_from(starts + near)))

        # The linear scan the lookup replaced.  The swaps after the segment
        # in force tell apart segments of the same environment.
        k = 0
        for i, (start, _) in enumerate(sched.segments):
            if t >= start:
                k = i
        env, _, after = _in_force(sched, SimConfig(), t)
        assert env is envs[k] and after == sched.segments[k + 1:]


class TestMissingTimescale:
    """An environment without a configured timescale is a ConfigurationError
    wherever a junction is advanced through it."""

    def cfg(self):
        return chip1_cfg(env_tau_s={EnvironmentKind.AMBIENT: 1.2e4})

    def test_simulate_trajectory_segment_after_t0(self):
        sched = StorageSchedule(segments=((0.0, AMBIENT), (4 * DAY, GLOVEBOX)))
        samples = np.linspace(0.0, 8 * DAY, 9)
        with pytest.raises(ConfigurationError, match="'glovebox'"):
            simulate_trajectory(sched, [], self.cfg(), junction(r0=22_800.0), samples)

    def test_comes_before_a_timescale_that_does_not_scale(self):
        sched = StorageSchedule(segments=((0.0, AMBIENT), (4 * DAY, GLOVEBOX)))
        with pytest.raises(ConfigurationError, match="'glovebox'"):
            simulate_trajectory(sched, [], self.cfg(), AgingParams(a=0.21, tau_s=5e-324),
                                [0.0, DAY])


class TestEnvironmentMessages:
    """A message names an environment by its value, on every Python: an
    f-string of the member reads ``EnvironmentKind.AMBIENT`` on some."""

    @staticmethod
    def message(exc_type, call) -> str:
        with pytest.raises(exc_type) as info:
            call()
        return str(info.value)

    @pytest.fixture(params=list(EnvironmentKind), ids=lambda env: env.value)
    def env(self, request):
        return request.param

    def check(self, text, env):
        assert repr(env.value) in text and "EnvironmentKind." not in text

    def test_missing_timescale(self, env):
        others = {e: 1e4 for e in EnvironmentKind if e is not env}
        self.check(self.message(ConfigurationError, lambda: simulate_trajectory(
            StorageSchedule.single(env), [], SimConfig(env_tau_s=others),
            AgingParams(a=0.2, tau_s=1e4), [0.0])), env)

    def test_missing_thermal_response(self, env):
        ev = AnnealEvent(t_s=0.0, kind=ThermalAnneal(temp_c=300.0, env=env))
        text = self.message(ConfigurationError,
                            lambda: apply_thermal_anneal(TrajectoryState(), ev, SimConfig()))
        assert "no thermal response" in text
        self.check(text, env)

    def test_timescale_that_does_not_scale(self, env):
        self.check(self.message(ParameterError, lambda: simulate_trajectory(
            StorageSchedule.single(env), [], SimConfig(), AgingParams(a=0.2, tau_s=5e-324),
            [0.0])), env)

    def test_bad_configured_timescale(self, env):
        self.check(self.message(ParameterError, lambda: SimConfig(env_tau_s={env: math.nan})),
                   env)


class TestTimescaleScale:
    """A junction's ``tau_s`` is its timescale in the schedule's first
    environment; the ratio to that environment's configured timescale must
    be a finite factor > 0."""

    @pytest.mark.parametrize("tau_s, env_tau_s", [(5e-324, 1.2e4), (1e300, 1e-10)],
                             ids=["to-0", "to-inf"])
    def test_tau_s_that_scales_to_0_or_inf_rejected(self, tau_s, env_tau_s):
        cfg = chip1_cfg(env_tau_s={EnvironmentKind.AMBIENT: env_tau_s})
        with pytest.raises(ParameterError, match="not by a finite factor > 0"):
            simulate_trajectory(StorageSchedule.single(AMBIENT), [], cfg,
                                AgingParams(a=0.21, tau_s=tau_s), [0.0, DAY])

    def test_scale_carries_to_every_environment(self):
        # A junction aging 3x slower than nominal in its first environment,
        # the glovebox, is 3x slower on the ambient bound it meets later.
        cfg = chip1_cfg()
        slow = AgingParams(a=0.21, tau_s=3 * 4.3e4)
        sched = StorageSchedule(segments=((0.0, GLOVEBOX), (4 * DAY, AMBIENT)))
        r = simulate_trajectory(sched, [], cfg, slow, [400 * DAY])[0]
        bound = eval_single_log(AgingParams(a=0.21, tau_s=3 * 1.2e4), 400 * DAY)
        assert r == pytest.approx(bound, rel=1e-9)


class TestSingleEnvironment:
    def test_matches_closed_form_to_rounding(self):
        # On-bound start: the exact-feedforward scheme reproduces the bound.
        cfg = chip1_cfg()
        samples = np.linspace(0, 56 * DAY, 57)
        traj = simulate_trajectory(StorageSchedule.single(AMBIENT), [], cfg,
                                   junction(r0=22_800.0), samples)
        ref = 22_800.0 * eval_single_log(AgingParams(a=0.21, tau_s=1.2e4, b=1.0), samples)
        np.testing.assert_allclose(traj, ref, rtol=1e-12)

    def test_within_half_percent_of_fitted_curve_with_offset(self):
        cfg = chip1_cfg()
        samples = np.linspace(0, 56 * DAY, 113)
        traj = simulate_trajectory(StorageSchedule.single(AMBIENT), [], cfg,
                                   junction(r0=22_800.0), samples)
        ref = 22_800.0 * eval_single_log(AgingParams(a=0.21, tau_s=1.2e4, b=1.01), samples)
        rel = np.abs(traj / ref - 1)
        assert rel.max() < 5e-3

    def test_validation_errors(self):
        cfg = chip1_cfg()
        sched = StorageSchedule.single(AMBIENT)
        with pytest.raises(ValidationError):
            simulate_trajectory(sched, [], cfg, CHIP1, [2.0, 1.0])
        ev = [
            AnnealEvent(t_s=5 * DAY, kind=VoltageAnneal()),
            AnnealEvent(t_s=1 * DAY, kind=VoltageAnneal()),
        ]
        with pytest.raises(ValidationError):
            simulate_trajectory(sched, ev, cfg, CHIP1, [0.0])

    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            simulate_trajectory(StorageSchedule.single(AMBIENT), [], chip1_cfg(), CHIP1,
                                [0.0, DAY], seed=seed)

    @pytest.mark.parametrize("bad", [5.0, [[0.0, DAY]]], ids=["scalar", "2-D"])
    def test_sample_times_must_be_one_dimensional(self, bad):
        with pytest.raises(ValidationError, match="1-D"):
            simulate_trajectory(StorageSchedule.single(AMBIENT), [], chip1_cfg(), CHIP1, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_time_rejected(self, bad):
        cfg = chip1_cfg()
        with pytest.raises(ValidationError):
            simulate_trajectory(StorageSchedule.single(AMBIENT), [], cfg, CHIP1, [bad, DAY])

    @pytest.mark.parametrize("times", [
        [0.0, math.nan], [0.0, DAY, math.inf], [-1.0, DAY], [2 * DAY, math.nan, DAY],
        [0.0, math.nan, DAY], [0.0, DAY, 2 * DAY, math.inf], [-math.inf, 0.0, DAY],
        [DAY, 0.0, math.nan], [math.nan, DAY, 0.0],
    ])
    def test_bad_sample_time_anywhere_rejected_first(self, times):
        # The finiteness check comes before the order check, with the
        # reference's message: a NaN in the middle, +inf last, -inf first,
        # and disorder together with a NaN.
        args = (StorageSchedule.single(AMBIENT), [], chip1_cfg(), CHIP1, times)
        with pytest.raises(ValidationError, match="finite and >= 0") as got:
            simulate_trajectory(*args)
        with pytest.raises(ValidationError) as ref:
            reference_simulate_trajectory(*args)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("times", [[DAY, 0.0], [0.0, 2 * DAY, DAY, 3 * DAY]])
    def test_disorder_alone_rejected_as_nondecreasing(self, times):
        args = (StorageSchedule.single(AMBIENT), [], chip1_cfg(), CHIP1, times)
        with pytest.raises(ValidationError) as got:
            simulate_trajectory(*args)
        with pytest.raises(ValidationError) as ref:
            reference_simulate_trajectory(*args)
        assert str(got.value) == str(ref.value) == "sample times must be nondecreasing"

    def test_negative_zero_first_time_accepted(self):
        sched, cfg = StorageSchedule.single(AMBIENT), chip1_cfg()
        r = simulate_trajectory(sched, [], cfg, junction(r0=5.0), [-0.0, DAY])
        assert r.tolist() == simulate_trajectory(sched, [], cfg, junction(r0=5.0),
                                                 [0.0, DAY]).tolist()
        ref = reference_simulate_trajectory(sched, [], cfg, junction(r0=5.0), [-0.0, DAY])
        assert r.tolist() == [r_ohm for _, r_ohm in ref]

    def test_returns_float_resistances_aligned_with_samples(self):
        sched, cfg = StorageSchedule.single(AMBIENT), chip1_cfg()
        r = simulate_trajectory(sched, [], cfg, junction(r0=5.0), [0.0, DAY, 3 * DAY])
        assert isinstance(r, np.ndarray) and r.dtype == np.float64 and r.shape == (3,)
        # The bound starts at y = a ln(b) = 0; each entry is its own time's value.
        assert r[0] == 5.0
        assert r[2] == simulate_trajectory(sched, [], cfg, junction(r0=5.0),
                                           [3 * DAY])[0] > r[1] > 5.0

    def test_no_sample_times_give_no_samples(self):
        assert simulate_trajectory(StorageSchedule.single(AMBIENT), [], chip1_cfg(), CHIP1,
                                   []).shape == (0,)

    @pytest.mark.parametrize("r0", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_initial_resistance_must_be_finite_and_positive(self, r0):
        with pytest.raises(ParameterError, match="r0_ohm must be finite and > 0"):
            simulate_trajectory(StorageSchedule.single(AMBIENT), [], chip1_cfg(),
                                junction(r0=r0), [0.0, DAY])

    def test_start_below_minus_one_rejected(self):
        # y(0) = a ln(b) = 0.5 ln(0.1) < -1.
        with pytest.raises(ParameterError, match="fractional aging cannot go below -1"):
            simulate_trajectory(StorageSchedule.single(AMBIENT), [], chip1_cfg(),
                                junction(a=0.5, b=0.1), [0.0, DAY])


class TestSwapDynamics:
    def test_short_relaxation_gap_shrinks_every_sample(self):
        # Relaxation faster than the sampling: after the swap the state
        # must close in on the new bound at every sample, never overshoot
        # it and swing back.
        cfg = chip1_cfg(relax_gas_to_gas_s=300.0)
        sched = StorageSchedule(segments=((0.0, AMBIENT), (4 * DAY, GLOVEBOX)))
        samples = 4 * DAY + 60.0 * np.arange(31)
        y = simulate_trajectory(sched, [], cfg, junction(r0=1000.0), samples) / 1000.0 - 1.0
        y_gb = 0.21 * np.log(samples / 4.3e4 + 1.0)
        gap = y - y_gb
        assert np.all(gap > 0)
        assert np.all(np.diff(gap) < 0)

    def test_extra_samples_do_not_change_shared_values(self):
        cfg = chip1_cfg(voltage_jump_sd=0.02)
        sched = StorageSchedule(segments=((0.0, AMBIENT), (4 * DAY, GLOVEBOX),
                                          (9 * DAY, VACUUM), (15 * DAY, AMBIENT)))
        ev = [AnnealEvent(t_s=6.3 * DAY, kind=VoltageAnneal()),
              AnnealEvent(t_s=16.1 * DAY, kind=ThermalAnneal(200.0, GLOVEBOX))]
        daily = np.arange(0.0, 21 * DAY, DAY)
        rng = np.random.default_rng(3)
        dense = np.sort(np.concatenate([daily, rng.uniform(0.0, 21 * DAY, 200)]))
        coarse = dict(zip(daily, simulate_trajectory(sched, ev, cfg, junction(r0=9e3), daily,
                                                     seed=5)))
        fine = dict(zip(dense, simulate_trajectory(sched, ev, cfg, junction(r0=9e3), dense,
                                                   seed=5)))
        for t, r in coarse.items():
            assert fine[t] == pytest.approx(r, rel=1e-12)

    def test_deaging_after_move_into_glovebox(self):
        sched = StorageSchedule(segments=((0.0, AMBIENT), (4 * DAY, GLOVEBOX)))
        samples = np.arange(4 * DAY, 6 * DAY, 0.1 * DAY)
        rs = simulate_trajectory(sched, [], chip1_cfg(), junction(a=0.05), samples)
        first_incr = np.diff(rs)[:5]
        assert np.all(first_incr < 0), "expected an initial resistance decrease"
        # and the transient flattens: late increments are small and positive
        late = np.diff(rs)[-3:]
        assert np.all(np.abs(late) < np.abs(first_incr[0]))

    def test_faster_aging_after_move_into_ambient(self):
        sched = StorageSchedule(segments=((0.0, GLOVEBOX), (4 * DAY, AMBIENT)))
        samples = [3.5 * DAY, 4 * DAY, 4.5 * DAY, 5 * DAY]
        traj = simulate_trajectory(sched, [], chip1_cfg(), junction(a=0.05, first=GLOVEBOX),
                                   samples)
        before = traj[1] - traj[0]
        after = traj[3] - traj[2]
        assert after > before

    def test_vacuum_exit_rapid_relaxation(self):
        sched = StorageSchedule(segments=((0.0, VACUUM), (7 * DAY, GLOVEBOX)))
        samples = np.arange(7 * DAY, 9 * DAY, 0.05 * DAY)
        y = simulate_trajectory(sched, [], chip1_cfg(), junction(a=0.12, first=VACUUM),
                                samples) - 1.0
        gb = eval_single_log(AgingParams(a=0.12, tau_s=4.3e4, b=1.0), samples) - 1.0
        rel = np.abs(y - gb) / gb
        hit = samples[rel <= 0.10]
        assert hit.size and hit[0] - 7 * DAY < 1 * DAY

    def test_contraction_same_environment(self):
        # Two states in one environment converge monotonically in |dy|.
        relax = chip1_cfg().relax_gas_to_gas_s
        t, y1, y2 = 10 * DAY, 0.30, 0.80
        gaps = []
        for _ in range(20):
            y1 = _segment(y1, t, t + DAY / 4, 0.21, 1.2e4, 1.0, relax)
            y2 = _segment(y2, t, t + DAY / 4, 0.21, 1.2e4, 1.0, relax)
            t += DAY / 4
            gaps.append(abs(y2 - y1))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_determinism(self):
        cfg = chip1_cfg(voltage_jump_sd=0.02)
        sched = StorageSchedule(segments=((0.0, AMBIENT), (10 * DAY, GLOVEBOX)))
        ev = [AnnealEvent(t_s=20 * DAY, kind=VoltageAnneal())]
        samples = np.linspace(0, 30 * DAY, 61)
        t1 = simulate_trajectory(sched, ev, cfg, junction(r0=9e3), samples, seed=42)
        t2 = simulate_trajectory(sched, ev, cfg, junction(r0=9e3), samples, seed=42)
        assert t1.tobytes() == t2.tobytes()
        t3 = simulate_trajectory(sched, ev, cfg, junction(r0=9e3), samples, seed=43)
        assert t3.tobytes() != t1.tobytes()


class TestVoltageAnneal:
    def test_jump_is_exactly_configured_mean_when_sd_zero(self):
        cfg = chip1_cfg()
        state = TrajectoryState(t_s=56 * DAY, y_env=1.26)
        ev = AnnealEvent(t_s=56 * DAY, kind=VoltageAnneal())
        out = apply_voltage_anneal(state, ev, cfg, rng_seed=1)
        assert (1 + out.y) / (1 + state.y) == pytest.approx(1.142, rel=1e-15)

    def test_chip2_like_jump_and_drift_tau(self):
        cfg = SimConfig(voltage_jump_mean=0.181, voltage_jump_sd=0.0,
                        voltage_drift_tau_s=1.6e4)
        state = TrajectoryState(t_s=56 * DAY, y_env=0.71)
        out = apply_voltage_anneal(state, AnnealEvent(t_s=56 * DAY, kind=VoltageAnneal()), cfg, 7)
        assert (1 + out.y) / (1 + state.y) == pytest.approx(1.181, rel=1e-15)
        assert out.post_anneal.tau_s == 1.6e4

    def test_zero_response_leaves_trajectory_unchanged(self):
        cfg = chip1_cfg(voltage_jump_mean=0.0, voltage_jump_sd=0.0, voltage_drift_a=0.0)
        state = TrajectoryState(t_s=10 * DAY, y_env=0.5)
        out = apply_voltage_anneal(state, AnnealEvent(t_s=10 * DAY, kind=VoltageAnneal()), cfg, 3)
        assert out.y == state.y
        assert out.drift_factor(20 * DAY) == 1.0
        assert out.post_anneal is not None  # event bookkeeping retained

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_event_time_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValidationError):
            AnnealEvent(t_s=bad, kind=VoltageAnneal())

    def test_wrong_kind_rejected(self):
        cfg = chip1_cfg()
        ev = AnnealEvent(t_s=0.0, kind=ThermalAnneal(temp_c=200.0, env=GLOVEBOX))
        with pytest.raises(TypeError):
            apply_voltage_anneal(TrajectoryState(), ev, cfg, 0)

    def test_post_anneal_drift_grows_then_slows(self):
        cfg = chip1_cfg()
        state = TrajectoryState(t_s=0.0, y_env=0.0)
        out = apply_voltage_anneal(state, AnnealEvent(t_s=0.0, kind=VoltageAnneal()), cfg, 0)
        f1 = out.drift_factor(1 * DAY)
        f2 = out.drift_factor(2 * DAY)
        f4 = out.drift_factor(4 * DAY)
        assert 1.0 < f1 < f2 < f4
        assert (f2 - f1) > (f4 - f2) / 2  # log-like slowing


class TestThermalAnneal:
    def test_sign_conventions(self):
        cfg = chip1_cfg()
        base = TrajectoryState(t_s=85 * DAY, y_env=0.30)

        def step(temp, env):
            ev = AnnealEvent(t_s=85 * DAY, kind=ThermalAnneal(temp_c=temp, env=env))
            return apply_thermal_anneal(base, ev, cfg).y - base.y

        assert step(200.0, GLOVEBOX) < 0
        assert step(250.0, GLOVEBOX) < 0
        assert step(200.0, AMBIENT) > 0
        assert step(250.0, AMBIENT) < 0
        assert abs(step(250.0, AMBIENT)) < abs(step(250.0, GLOVEBOX))

    def test_floor_clamps_at_initial_resistance(self):
        cfg = chip1_cfg()
        state = TrajectoryState(t_s=85 * DAY, y_env=0.05)
        ev = AnnealEvent(t_s=85 * DAY, kind=ThermalAnneal(temp_c=250.0, env=GLOVEBOX))
        out = apply_thermal_anneal(state, ev, cfg)
        assert 1.0 + out.y == pytest.approx(1.0, abs=1e-15)

    def test_floor_disabled_allows_below_r0(self):
        cfg = chip1_cfg(floor_at_r0=False)
        state = TrajectoryState(t_s=85 * DAY, y_env=0.05)
        ev = AnnealEvent(t_s=85 * DAY, kind=ThermalAnneal(temp_c=250.0, env=GLOVEBOX))
        out = apply_thermal_anneal(state, ev, cfg)
        assert 1.0 + out.y == pytest.approx(1.05 * 0.88, rel=1e-12)

    def test_decrease_from_aged_state_stays_above_floor(self):
        cfg = chip1_cfg()
        state = TrajectoryState(t_s=85 * DAY, y_env=0.30)
        ev = AnnealEvent(t_s=85 * DAY, kind=ThermalAnneal(temp_c=250.0, env=GLOVEBOX))
        out = apply_thermal_anneal(state, ev, cfg)
        assert out.y < state.y
        assert 1.0 + out.y >= 1.0

    def test_zero_step_identity(self):
        cfg = chip1_cfg(thermal_response={(150.0, EnvironmentKind.AMBIENT): 0.0})
        state = TrajectoryState(t_s=1 * DAY, y_env=0.2)
        ev = AnnealEvent(t_s=1 * DAY, kind=ThermalAnneal(temp_c=150.0, env=AMBIENT))
        assert apply_thermal_anneal(state, ev, cfg).y == state.y

    def test_floor_refuses_a_zero_resistance(self):
        # y_env = -1 is a valid state, but no gain lifts its R = 0 to R0.
        ev = AnnealEvent(t_s=1.0, kind=ThermalAnneal(temp_c=200.0))
        state = TrajectoryState(y_env=-1.0)
        with pytest.raises(ParameterError, match="y_env = -1.0"):
            apply_thermal_anneal(state, ev, SimConfig())
        out = apply_thermal_anneal(state, ev, SimConfig(floor_at_r0=False))
        assert out.y == -1.0

    def test_missing_table_entry(self):
        cfg = chip1_cfg()
        ev = AnnealEvent(t_s=0.0, kind=ThermalAnneal(temp_c=300.0, env=AMBIENT))
        with pytest.raises(ConfigurationError):
            apply_thermal_anneal(TrajectoryState(), ev, cfg)


class TestUnreadEventFields:
    """An event's pulse-train fields and a thermal step's ``hold_min`` are
    validated, but the simulated trajectory does not read them."""

    @staticmethod
    def run(*kinds):
        cfg = chip1_cfg(voltage_jump_sd=0.02)
        sched = StorageSchedule(segments=((0.0, AMBIENT), (10 * DAY, GLOVEBOX)))
        events = [AnnealEvent(t_s=(12 + 4 * k) * DAY, kind=kind) for k, kind in enumerate(kinds)]
        return simulate_trajectory(sched, events, cfg, junction(r0=9e3),
                                   np.linspace(0, 30 * DAY, 61), seed=5)

    def test_voltage_pulse_fields(self):
        given = self.run(VoltageAnneal())
        other = self.run(VoltageAnneal(n_pulses=3, amplitude_v=0.2, pulse_duration_s=60.0))
        assert given.tobytes() == other.tobytes()
        assert given.tobytes() != self.run().tobytes()   # the event does act

    def test_thermal_hold_min(self):
        # The step applies at the event's time, whatever the hold; so does
        # the voltage anneal after it.
        given = self.run(ThermalAnneal(temp_c=200.0), VoltageAnneal())
        other = self.run(ThermalAnneal(temp_c=200.0, hold_min=0.0), VoltageAnneal())
        longer = self.run(ThermalAnneal(temp_c=200.0, hold_min=600.0), VoltageAnneal())
        assert given.tobytes() == other.tobytes() == longer.tobytes()
        assert self.run(ThermalAnneal(temp_c=200.0)).tobytes() != self.run().tobytes()


class TestMeasurementExposure:
    """A probe-station visit of a glovebox-stored junction is a swap from
    the glovebox to ambient storage: for the visit's duration the state
    relaxes toward the ambient bound."""

    @staticmethod
    def exposed(duration_s):
        """R/R0 at the start and at the end of a visit that begins on day 30."""
        sched = StorageSchedule(segments=((0.0, GLOVEBOX), (30 * DAY, AMBIENT)))
        return simulate_trajectory(sched, [], chip1_cfg(), junction(first=GLOVEBOX),
                                   [30 * DAY, 30 * DAY + duration_s])

    def test_zero_duration_identity(self):
        start, end = self.exposed(0.0)
        assert end == start
        # The visit starts from the glovebox-stored state; the swap at that
        # instant moves it only by rounding.
        stored = simulate_trajectory(StorageSchedule.single(GLOVEBOX), [], chip1_cfg(),
                                     junction(first=GLOVEBOX), [30 * DAY])
        assert start == pytest.approx(stored[0], rel=1e-15)

    def test_20_minutes_on_glovebox_stored_junction_is_tiny(self):
        start, end = self.exposed(20 * 60.0)
        r_gb = float(eval_single_log(AgingParams(a=0.21, tau_s=4.3e4, b=1.0), 30 * DAY))
        assert start == pytest.approx(r_gb, rel=1e-15)
        change = end / start - 1
        assert 0 < change < 1e-3

    def test_90_minutes_larger_than_20(self):
        start, end20 = self.exposed(20 * 60.0)
        _, end90 = self.exposed(90 * 60.0)
        c20, c90 = end20 / start - 1, end90 / start - 1
        assert c90 > c20 > 0


def resume(y_from, t_from, schedule, cfg, t_to, params):
    """R/R0 - 1 at ``t_to`` of a junction (r0 = 1) in state ``y_from`` at
    ``t_from``, advanced by the trajectory engine the way ``predict`` runs it,
    with ``params.tau_s`` the timescale in the schedule's first environment."""
    env, relax, swaps = _in_force(schedule, cfg, t_from)
    swaps = [sw for sw in swaps if sw[0] < t_to]
    r = _run_from(TrajectoryState(t_s=t_from, y_env=y_from), env, relax, swaps, None,
                  np.array([t_to]), [0] * len(swaps), params,
                  _tau_scale(params, schedule.segments[0][1], cfg), cfg)
    return r[0] - 1.0


class TestResume:
    def test_on_bound_continuation_matches_closed_form(self):
        cfg = chip1_cfg()
        p = AgingParams(a=0.21, tau_s=1.2e4, b=1.01)
        y56 = float(eval_single_log(p, 56 * DAY)) - 1
        y63 = resume(y56, 56 * DAY, StorageSchedule.single(AMBIENT), cfg, 63 * DAY, p)
        assert y63 == pytest.approx(float(eval_single_log(p, 63 * DAY)) - 1, rel=1e-10)

    def test_crosses_swaps(self):
        cfg, p = chip1_cfg(), junction(a=0.05)
        sched = StorageSchedule(segments=((0.0, AMBIENT), (4 * DAY, GLOVEBOX)))
        full = simulate_trajectory(sched, [], cfg, p, [2 * DAY, 6 * DAY])
        y6 = resume(full[0] - 1.0, 2 * DAY, sched, cfg, 6 * DAY, p)
        assert y6 == pytest.approx(full[1] - 1.0, rel=1e-12)

    @pytest.mark.parametrize("t_from", [5 * DAY, 6 * DAY, 6.5 * DAY, 8 * DAY])
    def test_resumes_in_the_segment_in_force(self, t_from):
        # From a simulated state, resuming anywhere (a swap's own time
        # included) continues the simulation: after a vacuum exit with the
        # vacuum-to-gas relaxation time, not the gas-to-gas one.
        cfg = chip1_cfg()
        sched = StorageSchedule(segments=((0.0, AMBIENT), (3 * DAY, VACUUM),
                                          (6 * DAY, GLOVEBOX), (7 * DAY, AMBIENT)))
        p = junction(a=0.05)
        full = simulate_trajectory(sched, [], cfg, p, [t_from, 10 * DAY])
        y10 = resume(full[0] - 1.0, t_from, sched, cfg, 10 * DAY, p)
        assert y10 == pytest.approx(full[1] - 1.0, rel=1e-12)

    def test_relaxation_in_force(self):
        cfg = chip1_cfg()
        sched = StorageSchedule(segments=((0.0, VACUUM), (2 * DAY, AMBIENT),
                                          (4 * DAY, GLOVEBOX)))
        assert _in_force(sched, cfg, 0.0) == (VACUUM, cfg.relax_gas_to_gas_s,
                                              sched.segments[1:])
        assert _in_force(sched, cfg, 2 * DAY) == (AMBIENT, cfg.relax_vacuum_to_gas_s,
                                                  sched.segments[2:])
        assert _in_force(sched, cfg, 5 * DAY) == (GLOVEBOX, cfg.relax_gas_to_gas_s, ())


class TestPropagate:
    """Propagating a state through one storage segment: the engine's exact
    segment map, ``_segment``."""

    def test_on_bound_state_stays_on_bound(self):
        p = AgingParams(a=0.21, tau_s=1.2e4, b=1.01)
        y3 = float(eval_single_log(p, 3 * DAY)) - 1
        y40 = _segment(y3, 3 * DAY, 40 * DAY, 0.21, 1.2e4, 1.01, chip1_cfg().relax_gas_to_gas_s)
        assert y40 == pytest.approx(float(eval_single_log(p, 40 * DAY)) - 1, rel=1e-12)

    def test_gap_decays_by_step_factor(self):
        # Off-bound by e: after a span s the gap is e exp(-s/T).
        relax = chip1_cfg().relax_gas_to_gas_s
        yb1, yb2 = (0.21 * math.log(t / 1.2e4 + 1.0) for t in (DAY, 2 * DAY))
        y2 = _segment(yb1 + 0.1, DAY, 2 * DAY, 0.21, 1.2e4, 1.0, relax)
        expected = 0.1 * math.exp(-DAY / relax)
        assert y2 - yb2 == pytest.approx(expected, rel=1e-12)


class TestConfigValidation:
    def test_relax_times_positive(self):
        with pytest.raises(ParameterError):
            SimConfig(relax_gas_to_gas_s=0.0)

    @pytest.mark.parametrize("name", ["relax_gas_to_gas_s", "relax_vacuum_to_gas_s"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_relax_times_finite_and_positive(self, name, bad):
        with pytest.raises(ParameterError):
            SimConfig(**{name: bad})
        SimConfig(**{name: 1.0})

    @pytest.mark.parametrize("over", [
        {"voltage_jump_mean": math.nan},
        {"voltage_jump_sd": math.nan},
        {"voltage_drift_a": math.inf},
        {"voltage_drift_tau_s": math.inf},
        {"env_tau_s": {EnvironmentKind.AMBIENT: math.nan}},
        {"env_tau_s": {EnvironmentKind.AMBIENT: math.inf}},
        {"thermal_response": {(200.0, EnvironmentKind.AMBIENT): math.nan}},
        {"thermal_response": {(200.0, EnvironmentKind.AMBIENT): -1.0}},
        {"floor_at_r0": "false"},
        {"floor_at_r0": 0},
    ], ids=repr)
    def test_non_finite_or_out_of_range_rejected(self, over):
        with pytest.raises(ParameterError):
            SimConfig(**over)

    def test_relax_class_selection(self):
        cfg = chip1_cfg()
        assert cfg.relax_time_s(VACUUM, GLOVEBOX) == cfg.relax_vacuum_to_gas_s
        assert cfg.relax_time_s(AMBIENT, GLOVEBOX) == cfg.relax_gas_to_gas_s
        assert cfg.relax_time_s(GLOVEBOX, AMBIENT) == cfg.relax_gas_to_gas_s


class TestObjectValidation:
    @pytest.mark.parametrize("kwargs", [
        {"hold_min": math.nan}, {"hold_min": math.inf}, {"hold_min": -1.0},
        {"temp_c": math.nan}, {"temp_c": math.inf},
        # A string is refused, though the response table lookup would take it.
        {"env": "glovebox"}, {"env": None},
    ], ids=repr)
    def test_thermal_anneal_rejects_bad_values(self, kwargs):
        # The message names the value refused.
        [bad] = kwargs.values()
        with pytest.raises(ValidationError, match=re.escape(f"got {bad!r}")):
            ThermalAnneal(**{"temp_c": 200.0, "env": GLOVEBOX, **kwargs})

    @pytest.mark.parametrize("kwargs", [
        {"amplitude_v": math.nan}, {"amplitude_v": 0.0}, {"pulse_duration_s": math.inf},
        {"pulse_duration_s": math.nan}, {"n_pulses": 2.5}, {"n_pulses": 0},
        {"n_pulses": True},
    ], ids=repr)
    def test_voltage_anneal_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            VoltageAnneal(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"t_s": math.nan}, {"t_s": math.inf}, {"y_env": math.nan}, {"y_env": math.inf},
        {"y_env": -1.5}, {"anneal_gain": math.nan}, {"anneal_gain": math.inf},
        {"anneal_gain": 0.0}, {"anneal_gain": -2.0}, {"post_anneal_t0_s": math.nan},
        {"post_anneal_t0_s": -math.inf},
    ], ids=repr)
    def test_trajectory_state_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            TrajectoryState(**kwargs)

    def test_valid_objects_accepted(self):
        TrajectoryState(t_s=3.0, y_env=-1.0, anneal_gain=1e-300, post_anneal_t0_s=2.0)
        ThermalAnneal(temp_c=250.0, env=AMBIENT, hold_min=0.0)
        VoltageAnneal(n_pulses=np.int64(5), amplitude_v=0.9, pulse_duration_s=1e-3)


class TestBreakpointFree:
    """A one-segment schedule without events has no breakpoints, so
    ``simulate_trajectory`` evaluates it as one closed-form piece from t = 0."""

    @settings(max_examples=600, deadline=None)
    @given(env=st.sampled_from([AMBIENT, GLOVEBOX, VACUUM]),
           a=st.floats(0.0, 1.0), b=st.floats(0.5, 10.0).filter(lambda b: b != 1.0),
           tau_scale=st.floats(0.01, 100.0), r0=st.floats(1.0, 1e6),
           data=st.data())
    def test_equals_the_engine_bytes_across_a_re_entry(self, env, a, b, tau_scale, r0, data):
        # Re-entering the same environment at t_sw is a breakpoint that the
        # engine maps with a gap of exactly 0.0: the junction stays on its
        # bound, so the two schedules give the same resistances.
        times = data.draw(st.lists(st.floats(0.0, 400 * DAY), max_size=40))
        times = [0.0, *times]
        times += data.draw(st.lists(st.sampled_from(times), max_size=5))
        times.sort()
        positive = [t for t in times if t > 0]
        if positive and data.draw(st.booleans()):
            t_sw = data.draw(st.sampled_from(positive))
        else:
            t_sw = data.draw(st.floats(1.0, 400 * DAY))
        cfg = chip1_cfg()
        params = AgingParams(a=a, tau_s=tau_scale * cfg.env_tau_s[env], b=b, r0_ohm=r0)
        one = simulate_trajectory(StorageSchedule.single(env), [], cfg, params, times)
        split = simulate_trajectory(StorageSchedule(((0.0, env), (t_sw, env))), [], cfg, params,
                                    times)
        assert one.dtype == np.float64 and one.shape == (len(times),)
        assert one.tobytes() == split.tobytes()
