"""Unit tests for the closed-form models.

Expected decimals were computed with a 40-digit mpmath oracle and frozen.
"""

import math

import numpy as np
import pytest

from jjaging import (
    AgingParams,
    BarrierParams,
    DEFAULT_CONSTANTS,
    Environment,
    EnvironmentKind,
    ParameterError,
    PhysicalConstants,
    TwoLogParams,
    barrier_kappa,
    critical_current_from_resistance,
    effective_tau,
    eval_single_log,
    eval_two_log,
    qubit_frequency_shift,
    resistance_ratio_from_barrier,
)

DAY = 86400.0

CHIP1 = AgingParams(a=0.21, tau_s=1.2e4, b=1.01, r0_ohm=22_800.0)
CHIP2 = AgingParams(a=0.15, tau_s=4.3e4, b=1.06, r0_ohm=24_300.0)


class TestSingleLog:
    def test_value_at_t0(self):
        # 1 + 0.21*ln(1.01), high-precision oracle
        assert eval_single_log(CHIP1, 0.0) == pytest.approx(1.0020895694791653, rel=1e-12)

    def test_b_equal_one_gives_exactly_one_at_t0(self):
        for a in (0.0, 0.1, 0.7):
            p = AgingParams(a=a, tau_s=5e4, b=1.0)
            assert eval_single_log(p, 0.0) == 1.0

    def test_56_day_value_and_absolute_resistance(self):
        ratio = eval_single_log(CHIP2, 56 * DAY)
        assert ratio == pytest.approx(1.7098773436786830, rel=1e-12)
        # ~41.6 kohm for the glovebox reference chip
        assert ratio * CHIP2.r0_ohm == pytest.approx(41550.02, abs=0.5)

    def test_vectorized_and_increasing(self):
        t = np.linspace(0, 30 * DAY, 50)
        vals = eval_single_log(CHIP1, t)
        assert vals.shape == t.shape
        assert np.all(np.diff(vals) > 0)

    def test_zero_amplitude_constant(self):
        p = AgingParams(a=0.0, tau_s=1e4, b=1.0)
        t = np.linspace(0, 100 * DAY, 7)
        assert np.all(eval_single_log(p, t) == 1.0)

    def test_rejects_negative_time_and_bad_params(self):
        with pytest.raises(ParameterError):
            eval_single_log(CHIP1, -1.0)
        with pytest.raises(ParameterError):
            AgingParams(a=0.2, tau_s=-5.0, b=1.0)
        with pytest.raises(ParameterError):
            AgingParams(a=0.2, tau_s=5.0, b=0.0)
        with pytest.raises(ParameterError):
            AgingParams(a=-0.1, tau_s=5.0, b=1.0)


class TestTwoLog:
    def test_exactly_one_at_t0(self):
        p = TwoLogParams(a_int=0.3, tau_int_s=1e5, a_ext=0.2, tau_ext_s=1e3)
        assert eval_two_log(p, 0.0) == 1.0

    def test_degenerates_to_single_log_when_one_channel_off(self):
        p2 = TwoLogParams(a_int=0.12, tau_int_s=3.3e4, a_ext=0.0, tau_ext_s=1e3)
        p1 = AgingParams(a=0.12, tau_s=3.3e4, b=1.0)
        t = np.logspace(2, 7, 25)
        np.testing.assert_allclose(eval_two_log(p2, t), eval_single_log(p1, t), rtol=1e-14)

    def test_reference_value(self):
        p = TwoLogParams(a_int=0.10, tau_int_s=3.9e4, a_ext=0.11, tau_ext_s=1.2e4)
        assert eval_two_log(p, 1e6) == pytest.approx(1.8160707265034933, rel=1e-12)


class TestEffectiveTau:
    def test_symmetric_case(self):
        p = TwoLogParams(a_int=0.1, tau_int_s=5e4, a_ext=0.1, tau_ext_s=5e4)
        assert effective_tau(p) == pytest.approx(5e4, rel=1e-12)

    def test_single_channel_limit(self):
        p = TwoLogParams(a_int=0.0, tau_int_s=9e5, a_ext=0.2, tau_ext_s=7e3)
        assert effective_tau(p) == pytest.approx(7e3, rel=1e-12)

    def test_reference_value(self):
        p = TwoLogParams(a_int=0.10, tau_int_s=3.9e4, a_ext=0.11, tau_ext_s=1.2e4)
        assert effective_tau(p) == pytest.approx(21034.646966619958, rel=1e-12)

    def test_zero_total_amplitude_rejected(self):
        p = TwoLogParams(a_int=0.0, tau_int_s=1e4, a_ext=0.0, tau_ext_s=1e4)
        with pytest.raises(ParameterError):
            effective_tau(p)


FREE_ELECTRON_KG = 9.1093837015e-31
EV = 1.602176634e-19


class TestBarrier:
    def test_kappa_sqrt_scaling(self):
        base = BarrierParams(thickness_d_m=1e-9, height_U_J=1.0 * EV, mass_m_kg=FREE_ELECTRON_KG)
        u4 = BarrierParams(thickness_d_m=1e-9, height_U_J=4.0 * EV, mass_m_kg=FREE_ELECTRON_KG)
        m4 = BarrierParams(thickness_d_m=1e-9, height_U_J=1.0 * EV, mass_m_kg=4 * FREE_ELECTRON_KG)
        k0 = barrier_kappa(base)
        assert barrier_kappa(u4) == pytest.approx(2 * k0, rel=1e-12)
        assert barrier_kappa(m4) == pytest.approx(2 * k0, rel=1e-12)

    def test_kappa_free_electron_2ev(self):
        bp = BarrierParams(thickness_d_m=1e-9, height_U_J=2.0 * EV, mass_m_kg=FREE_ELECTRON_KG)
        assert barrier_kappa(bp) == pytest.approx(7.2452525688e9, rel=1e-9)

    def test_ratio_identity(self):
        b = BarrierParams(thickness_d_m=1.5e-9, height_U_J=2 * EV, mass_m_kg=FREE_ELECTRON_KG)
        assert resistance_ratio_from_barrier(b, b) == 1.0

    def test_ratio_analytic_doubling(self):
        b1 = BarrierParams(thickness_d_m=1.5e-9, height_U_J=2 * EV, mass_m_kg=FREE_ELECTRON_KG)
        kappa = barrier_kappa(b1)
        b2 = BarrierParams(
            thickness_d_m=b1.thickness_d_m + math.log(2) / (2 * kappa),
            height_U_J=b1.height_U_J,
            mass_m_kg=b1.mass_m_kg,
        )
        assert resistance_ratio_from_barrier(b1, b2) == pytest.approx(2.0, rel=1e-12)

    def test_sub_angstrom_change_is_order_tens_of_percent(self):
        # 0.3 angstrom at kappa ~ 1e10 1/m: exp(0.6) ~ 1.82
        u = 2 * EV
        m = (1e10 * DEFAULT_CONSTANTS.hbar_Js) ** 2 / (2 * u)
        b1 = BarrierParams(thickness_d_m=1.0e-9, height_U_J=u, mass_m_kg=m)
        b2 = BarrierParams(thickness_d_m=1.0e-9 + 0.3e-10, height_U_J=u, mass_m_kg=m)
        assert resistance_ratio_from_barrier(b1, b2) == pytest.approx(1.8221188003905089, rel=1e-9)


class TestCriticalCurrent:
    def test_product_invariant(self):
        rs = [1e3, 8e3, 50e3]
        prods = [critical_current_from_resistance(r) * r for r in rs]
        assert max(prods) == pytest.approx(min(prods), rel=1e-12)

    def test_doubling_resistance_halves_current(self):
        i1 = critical_current_from_resistance(6e3)
        i2 = critical_current_from_resistance(12e3)
        assert i1 == pytest.approx(2 * i2, rel=1e-12)

    def test_reference_value_180uev_8kohm(self):
        c = PhysicalConstants(gap_delta_J=180e-6 * EV)
        ic = critical_current_from_resistance(8000.0, c)
        assert ic == pytest.approx(3.534291735e-8, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            critical_current_from_resistance(0.0)


class TestFrequencyShift:
    def test_zero(self):
        assert qubit_frequency_shift(0.0) == 0.0

    def test_21_percent(self):
        assert qubit_frequency_shift(0.21) == pytest.approx(-1 / 11, rel=1e-12)

    def test_perfect_square(self):
        assert qubit_frequency_shift(3.0) == pytest.approx(-0.5, rel=1e-14)

    def test_small_change_linearization(self):
        x = 1e-6
        assert qubit_frequency_shift(x) == pytest.approx(-x / 2, rel=1e-4)

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            qubit_frequency_shift(-1.0)


class TestEnvironment:
    def test_defaults(self):
        assert Environment.from_kind("ambient").kind is EnvironmentKind.AMBIENT
        gb = Environment.from_kind(EnvironmentKind.NITROGEN_GLOVEBOX)
        assert gb.kind is EnvironmentKind.NITROGEN_GLOVEBOX
        assert Environment.from_kind("vacuum").kind is EnvironmentKind.HIGH_VACUUM
