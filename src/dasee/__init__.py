"""Energy efficiency of multi-cell massive distributed-antenna downlinks.

Deterministic-equivalent SINR analysis under pilot contamination, a
Monte-Carlo link-level oracle, geometry-based calibration of the averaged
interference model, and closed-form/bisection/scan optimizers for the
EE-optimal antennas per RRH, user count, and RRH count.
"""
from .asymptotic import (Design, InfeasibleAntennasError, OperatingPoint,
                         RateUnachievableError, SinrBreakdown,
                         deterministic_sinr, energy_efficiency,
                         large_scale_gains, min_antennas, operating_point,
                         rate_from_sinr, sinr_breakdown, total_power_at_se)
from .config import (ConfigError, DerivedScalars, PowerModel, SystemConfig,
                     dbm_from_watts, derived_scalars, load_scenario,
                     validate_config, watts_from_dbm, write_scenario)
from .geometry import (CalibrationResult, Layout, build_layout, calibrate,
                       drop_users)
from .montecarlo import (ChannelRealization, empirical_ee,
                         empirical_sinr_rate, generate_realization,
                         steering_matrix)
from .optimize import (OptimizationError, OptimizationResult, ee_or_none,
                       exhaustive_argmax, floor_ceil_select, optimal_k,
                       optimal_m, optimal_n, optimal_n_no_pc, z_of_k)
from .rmt import (CorrelationSet, general_deterministic_sinr, phi_matrix,
                  simplified_correlation_set)

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization", "CalibrationResult", "ConfigError",
    "CorrelationSet", "DerivedScalars", "Design", "InfeasibleAntennasError",
    "Layout", "OperatingPoint", "OptimizationError", "OptimizationResult",
    "PowerModel", "RateUnachievableError", "SinrBreakdown",
    "SystemConfig", "build_layout", "calibrate", "dbm_from_watts",
    "derived_scalars", "deterministic_sinr", "drop_users", "ee_or_none",
    "empirical_ee", "empirical_sinr_rate", "energy_efficiency",
    "exhaustive_argmax", "floor_ceil_select", "general_deterministic_sinr",
    "generate_realization", "large_scale_gains", "load_scenario",
    "min_antennas", "operating_point", "optimal_k", "optimal_m", "optimal_n",
    "optimal_n_no_pc", "phi_matrix", "rate_from_sinr",
    "simplified_correlation_set", "sinr_breakdown", "steering_matrix",
    "total_power_at_se", "validate_config", "watts_from_dbm",
    "write_scenario", "z_of_k",
]
