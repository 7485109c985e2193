"""Shipped chip presets for the measured test chips.

Each preset bundles the chip's initial-resistance statistics, its
average-curve aging parameters, the storage schedule it saw, a kinetics
config whose environment timescales are rescaled so the chip's own
timescale is reproduced in its home environment, and a population spec for
Monte Carlo ensembles.

Chips 3 and 4 come from a fabrication run without reported fit parameters;
their amplitude (0.05) is a modeling default calibrated so the alternating
schedule shows the observed post-swap quiet period.  Population spreads
(a_sd, sd of ln tau) are calibrated to reproduce the observed CV trend
rather than taken from single-junction fit uncertainties, which include fit
noise on top of device spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from .ensemble import ChipSpec
from .errors import ConfigurationError
from .model import AMBIENT, GLOVEBOX, VACUUM, AgingParams, EnvironmentKind
from .trajectory import DAY_S, DEFAULT_ENV_TAU_S, SimConfig, StorageSchedule

__all__ = ["ChipPreset", "chip_preset", "PRESET_NAMES"]

_A_SD = 0.015
_LOG_TAU_SD = 0.3
_B_SD = 0.05
_NOISE_SIGMA = 0.003


@dataclass(frozen=True)
class ChipPreset:
    name: str
    description: str
    aging: AgingParams          # average-curve parameters, r0 = chip mean
    schedule: StorageSchedule
    spec: ChipSpec
    sim: SimConfig

    @property
    def home_env(self) -> EnvironmentKind:
        """The first segment's environment, where the timescale is ``aging.tau_s``."""
        return self.schedule.segments[0][1]


def _preset(
    name: str,
    description: str,
    a: float,
    tau_s: float,
    b: float,
    r0: float,
    r0_cv: float,
    schedule: StorageSchedule,
    open_prob: float = 0.0,
    voltage_jump=(0.16, 0.02),
    voltage_drift_tau_s: float = 5.0e4,
) -> ChipPreset:
    scale = tau_s / DEFAULT_ENV_TAU_S[schedule.segments[0][1]]
    sim = SimConfig(
        env_tau_s={kind: tau * scale for kind, tau in DEFAULT_ENV_TAU_S.items()},
        voltage_jump_mean=voltage_jump[0],
        voltage_jump_sd=voltage_jump[1],
        voltage_drift_tau_s=voltage_drift_tau_s,
    )
    spec = ChipSpec(
        r0_mean_ohm=r0,
        r0_cv=r0_cv,
        a_mean=a,
        a_sd=_A_SD,
        log_tau_mean=math.log(tau_s),
        log_tau_sd=_LOG_TAU_SD,
        b_mean=b,
        b_sd=_B_SD,
        open_prob=open_prob,
        noise_sigma=_NOISE_SIGMA,
    )
    return ChipPreset(
        name=name, description=description,
        aging=AgingParams(a=a, tau_s=tau_s, b=b, r0_ohm=r0),
        schedule=schedule, spec=spec, sim=sim,
    )


def _alternating(first: EnvironmentKind, second: EnvironmentKind) -> StorageSchedule:
    return StorageSchedule(
        segments=(
            (0.0, first),
            (4 * DAY_S, second),
            (8 * DAY_S, first),
            (12 * DAY_S, second),
        )
    )


_PRESETS = {
    "chip1": _preset(
        "chip1", "ambient-stored reference chip, voltage-annealed at day 56",
        a=0.21, tau_s=1.2e4, b=1.01, r0=22_800.0, r0_cv=0.048,
        schedule=StorageSchedule.single(AMBIENT),
        voltage_jump=(0.142, 0.010),
    ),
    "chip2": _preset(
        "chip2", "glovebox-stored reference chip, voltage-annealed at day 56",
        a=0.15, tau_s=4.3e4, b=1.06, r0=24_300.0, r0_cv=0.059,
        schedule=StorageSchedule.single(GLOVEBOX),
        voltage_jump=(0.181, 0.014), voltage_drift_tau_s=1.6e4,
    ),
    "chip3": _preset(
        "chip3", "alternating storage starting in ambient air; thermally annealed",
        a=0.05, tau_s=1.2e4, b=1.0, r0=7_500.0, r0_cv=0.039,
        schedule=_alternating(AMBIENT, GLOVEBOX),
    ),
    "chip4": _preset(
        "chip4", "alternating storage starting in the glovebox; thermally annealed",
        a=0.05, tau_s=4.3e4, b=1.0, r0=8_700.0, r0_cv=0.051,
        schedule=_alternating(GLOVEBOX, AMBIENT),
    ),
    "chip5": _preset(
        "chip5", "high vacuum for 7 days, then glovebox",
        a=0.12, tau_s=6.9e4, b=0.97, r0=11_100.0, r0_cv=0.033,
        schedule=StorageSchedule(segments=((0.0, VACUUM), (7 * DAY_S, GLOVEBOX))),
    ),
    "chip6": _preset(
        "chip6", "glovebox-stored chip with a region of open junctions",
        a=0.11, tau_s=3.9e4, b=0.98, r0=11_100.0, r0_cv=0.121,
        schedule=StorageSchedule.single(GLOVEBOX),
        open_prob=0.20,
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def chip_preset(name: str) -> ChipPreset:
    """Look up a shipped chip preset by name (chip1 .. chip6)."""
    try:
        return _PRESETS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
