"""Adaptive line enhancer noise cancellation with LMS and PSO adaptation."""

from .ale import AleConfig, FilterRun, filter_frame
from .channel import (
    DEFAULT_PROFILES,
    ChannelConfig,
    NonlinearProfile,
    add_awgn,
    apply_nonlinear,
    transmit,
)
from .errors import ConfigError, DivergenceError
from .lms import LmsConfig, lms_batch, lms_step
from .metrics import mse
from .pso import PsoConfig, SwarmState, evaluate_cost, frame_costs, run_pso
from .signal import ModConfig, align_and_compare, demodulate, generate_bits, modulate

__version__ = "0.1.0"

__all__ = [
    "AleConfig",
    "FilterRun",
    "filter_frame",
    "ChannelConfig",
    "NonlinearProfile",
    "DEFAULT_PROFILES",
    "add_awgn",
    "apply_nonlinear",
    "transmit",
    "ConfigError",
    "DivergenceError",
    "LmsConfig",
    "lms_batch",
    "lms_step",
    "mse",
    "PsoConfig",
    "SwarmState",
    "evaluate_cost",
    "frame_costs",
    "run_pso",
    "ModConfig",
    "align_and_compare",
    "demodulate",
    "generate_bits",
    "modulate",
    "__version__",
]
