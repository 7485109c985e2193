"""Closed-form junction aging models and the resistance -> qubit observable chain.

The resistance of an Al/AlOx/Al tunnel junction drifts upward after
fabrication, approximately logarithmically in time.  This module evaluates
the two phenomenological forms used throughout the package:

* single-channel:  ``R(t)/R0 = 1 + a * ln(t/tau + b)``
* two-channel:     ``R(t)/R0 = 1 + a_int * ln(1 + t/tau_int)
  + a_ext * ln(1 + t/tau_ext)``

where the "internal" channel is insensitive to the storage environment and
the "external" channel carries the environment-dependent kinetics.  All
logarithms are natural logarithms and all times are seconds.

It also provides the zero-temperature Ambegaokar-Baratoff mapping from
normal-state resistance to critical current, and a transmon-style
fractional frequency shift for a given fractional resistance change.

A storage ``Environment`` is its ``EnvironmentKind`` (ambient air, nitrogen
glovebox, high vacuum): the kinetics config keys the aging timescales and
thermal responses on the kind alone.

Everything here is pure and stateless; scalar or ndarray time inputs are
accepted and the output follows the input shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError

__all__ = [
    "EnvironmentKind",
    "Environment",
    "AMBIENT",
    "GLOVEBOX",
    "VACUUM",
    "AgingParams",
    "TwoLogParams",
    "eval_single_log",
    "eval_two_log",
    "effective_tau",
    "critical_current_from_resistance",
    "qubit_frequency_shift",
]


class EnvironmentKind(str, Enum):
    """Storage environment classes distinguished by the kinetics config."""

    AMBIENT = "ambient"
    NITROGEN_GLOVEBOX = "glovebox"
    HIGH_VACUUM = "vacuum"


@dataclass(frozen=True)
class Environment:
    """A storage environment.  The kinetics key on its kind alone."""

    kind: EnvironmentKind

    @classmethod
    def from_kind(cls, kind: EnvironmentKind | str) -> "Environment":
        """Build the environment of ``kind`` (an ``EnvironmentKind`` or its value)."""
        return cls(kind=EnvironmentKind(kind))


AMBIENT = Environment.from_kind(EnvironmentKind.AMBIENT)
GLOVEBOX = Environment.from_kind(EnvironmentKind.NITROGEN_GLOVEBOX)
VACUUM = Environment.from_kind(EnvironmentKind.HIGH_VACUUM)


@dataclass(frozen=True)
class AgingParams:
    """Single-channel aging parameters.

    Attributes
    ----------
    a : float
        Fractional aging amplitude (dimensionless, >= 0).
    tau_s : float
        Aging timescale in seconds (> 0).
    b : float
        Offset inside the logarithm (> 0); keeps the value finite at t = 0
        and is ~1 for freshly fabricated junctions.
    r0_ohm : float
        Reference resistance at t ~ 0 in ohms (> 0).
    """

    a: float
    tau_s: float
    b: float = 1.0
    r0_ohm: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 0):
            raise ParameterError(f"amplitude a must be finite and >= 0, got {self.a}")
        if not (math.isfinite(self.tau_s) and self.tau_s > 0):
            raise ParameterError(f"tau_s must be finite and > 0, got {self.tau_s}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ParameterError(f"b must be finite and > 0, got {self.b}")
        if not (math.isfinite(self.r0_ohm) and self.r0_ohm > 0):
            raise ParameterError(f"r0_ohm must be finite and > 0, got {self.r0_ohm}")


@dataclass(frozen=True)
class TwoLogParams:
    """Two-channel (internal + external reservoir) aging parameters."""

    a_int: float
    tau_int_s: float
    a_ext: float
    tau_ext_s: float
    r0_ohm: float = 1.0

    def __post_init__(self):
        for name in ("a_int", "a_ext"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ParameterError(f"{name} must be finite and >= 0, got {v}")
        for name in ("tau_int_s", "tau_ext_s", "r0_ohm"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be finite and > 0, got {v}")


ELECTRON_CHARGE_C = 1.602176634e-19
# The superconducting gap depends on the film; 180 ueV is typical of
# thin-film aluminum.
DEFAULT_GAP_DELTA_J = 180e-6 * ELECTRON_CHARGE_C


def _check_times(t_s):
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ParameterError("times must be finite and >= 0")
    return t


def _as_input_shape(value: np.ndarray, like) -> float | np.ndarray:
    if np.ndim(like) == 0:
        return float(value)
    return value


def eval_single_log(p: AgingParams, t_s) -> float | np.ndarray:
    """Fractional resistance ``R(t)/R0 = 1 + a ln(t/tau + b)``.

    Parameters
    ----------
    p : AgingParams
        Model parameters; validated at construction.
    t_s : float or array_like
        Time since fabrication in seconds, >= 0.

    Returns
    -------
    float or ndarray
        Dimensionless fractional resistance, strictly increasing in t for
        a > 0 and constant (== 1 + a ln b) for a = 0 only when b = 1.
    """
    t = _check_times(t_s)
    out = 1.0 + p.a * np.log(t / p.tau_s + p.b)
    return _as_input_shape(out, t_s)


def eval_two_log(p: TwoLogParams, t_s) -> float | np.ndarray:
    """Fractional resistance of the two-channel model.

    ``R(t)/R0 = 1 + a_int ln(1 + t/tau_int) + a_ext ln(1 + t/tau_ext)``;
    equals 1 exactly at t = 0 and reduces to the single-channel form with
    b = 1 when one amplitude vanishes.
    """
    t = _check_times(t_s)
    out = (
        1.0
        + p.a_int * np.log1p(t / p.tau_int_s)
        + p.a_ext * np.log1p(t / p.tau_ext_s)
    )
    return _as_input_shape(out, t_s)


def effective_tau(p: TwoLogParams) -> float:
    """Amplitude-weighted geometric mean of the two channel timescales.

    Returns ``tau_int**(a_int/a) * tau_ext**(a_ext/a)`` with
    ``a = a_int + a_ext``, computed in log space.  This is the single-log
    timescale that best approximates the two-channel curve over a limited
    dynamic range.
    """
    a = p.a_int + p.a_ext
    if a <= 0:
        raise ParameterError("effective_tau requires a_int + a_ext > 0")
    log_tau = (p.a_int * math.log(p.tau_int_s) + p.a_ext * math.log(p.tau_ext_s)) / a
    return math.exp(log_tau)


def critical_current_from_resistance(
    r_ohm: float, gap_delta_J: float = DEFAULT_GAP_DELTA_J
) -> float:
    """Zero-temperature critical current ``I_c = pi Delta / (2 e R)`` in A,
    for a gap ``Delta`` in J."""
    if not (np.isfinite(gap_delta_J) and gap_delta_J > 0):
        raise ParameterError(f"gap_delta_J must be finite and > 0, got {gap_delta_J}")
    if not (np.isfinite(r_ohm) and r_ohm > 0):
        raise ParameterError(f"resistance must be finite and > 0, got {r_ohm}")
    return math.pi * gap_delta_J / (2.0 * ELECTRON_CHARGE_C * r_ohm)


def qubit_frequency_shift(dr_over_r) -> float | np.ndarray:
    """Fractional transmon frequency shift for a fractional resistance change.

    The qubit frequency scales as 1/sqrt(R) through the Josephson energy,
    so ``df/f = (1 + dR/R)**(-1/2) - 1``, which is ~ -dR/R / 2 for small
    changes.  Requires dR/R > -1.
    """
    x = np.asarray(dr_over_r, dtype=float)
    if np.any(x <= -1.0):
        raise ParameterError("fractional resistance change must be > -1")
    out = (1.0 + x) ** -0.5 - 1.0
    return _as_input_shape(out, dr_over_r)
