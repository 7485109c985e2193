"""Unit tests for the closed-form models.

Expected decimals were computed with a 40-digit mpmath oracle and frozen.
"""

import math

import numpy as np
import pytest

from jjaging import (
    AgingParams,
    AMBIENT,
    GLOVEBOX,
    VACUUM,
    EnvironmentKind,
    ParameterError,
    TwoLogParams,
    critical_current_from_resistance,
    effective_tau,
    eval_single_log,
    eval_two_log,
    qubit_frequency_shift,
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


_SINGLE_KW = {"a": 0.2, "tau_s": 1e4, "b": 1.0}
_TWO_KW = {"a_int": 0.1, "tau_int_s": 1e5, "a_ext": 0.1, "tau_ext_s": 1e3}


@pytest.mark.parametrize("cls, kw, name", [
    *((AgingParams, _SINGLE_KW, name) for name in ("a", "tau_s", "b", "r0_ohm")),
    *((TwoLogParams, _TWO_KW, name) for name in (*_TWO_KW, "r0_ohm")),
])
def test_params_take_numpy_and_int_scalars_and_refuse_non_finite(cls, kw, name):
    for ok in (np.float64(2.0), np.float32(2.0), np.int64(2), 2):
        assert getattr(cls(**{**kw, name: ok}), name) == ok
    label = "amplitude a" if name == "a" else name
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf")):
        with pytest.raises(ParameterError, match=f"^{label} must be finite and "):
            cls(**{**kw, name: bad})


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


EV = 1.602176634e-19


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
        ic = critical_current_from_resistance(8000.0, gap_delta_J=180e-6 * EV)
        assert ic == pytest.approx(3.534291735e-8, rel=1e-9)
        assert critical_current_from_resistance(8000.0) == ic   # the default gap

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            critical_current_from_resistance(0.0)

    @pytest.mark.parametrize("gap", [0.0, -1e-23, math.nan, math.inf])
    def test_rejects_a_gap_not_finite_and_positive(self, gap):
        with pytest.raises(ParameterError, match="gap_delta_J must be finite and > 0"):
            critical_current_from_resistance(8000.0, gap)


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
        # An environment is its EnvironmentKind member; text parses to it.
        assert AMBIENT is EnvironmentKind("ambient") is EnvironmentKind.AMBIENT
        assert GLOVEBOX is EnvironmentKind("glovebox") is EnvironmentKind.NITROGEN_GLOVEBOX
        assert VACUUM is EnvironmentKind("vacuum") is EnvironmentKind.HIGH_VACUUM
