"""jjaging: Josephson junction resistance aging, annealing, and prediction.

The package simulates junction resistance trajectories through storage
environment schedules and discrete anneal events, fits measured time series
to logarithmic aging models, runs chip-level variability Monte Carlo, and
predicts resistance / critical-current / qubit-frequency drift at a future
cooldown time.
"""

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    JJAgingError,
    ParameterError,
    ParseError,
    ValidationError,
)
from .model import (
    AMBIENT,
    GLOVEBOX,
    VACUUM,
    AgingParams,
    EnvironmentKind,
    TwoLogParams,
    critical_current_from_resistance,
    effective_tau,
    eval_single_log,
    eval_two_log,
    qubit_frequency_shift,
)
from .trajectory import (
    DAY_S,
    AnnealEvent,
    SimConfig,
    StorageSchedule,
    ThermalAnneal,
    TrajectoryState,
    VoltageAnneal,
    apply_thermal_anneal,
    apply_voltage_anneal,
    simulate_trajectory,
)
from .ensemble import (
    ENV_LABELS,
    FLAGS,
    OPEN_RESISTANCE_THRESHOLD_OHM,
    ChipDataset,
    ChipSpec,
    DrawnChip,
    MeasurementRecord,
    aggregate_series,
    draw_chip,
    simulate_chip,
)
from .fitting import (
    FitOptions,
    FitReport,
    FitResult,
    fit_chip,
    fit_single_log,
    fit_two_log,
    grid_search_oracle,
)
from .dataio import (
    MEASUREMENT_HEADER,
    TOOL_VERSION as __version__,
    load_events,
    load_measurements,
    load_schedule,
    read_report,
    save_measurements,
    write_report,
)
from .presets import PRESET_NAMES, ChipPreset, chip_preset
