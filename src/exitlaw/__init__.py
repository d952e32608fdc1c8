"""exitlaw: Monte Carlo sampling of Brownian-motion exit distributions.

Three independent samplers of the same boundary law — a discretized
Brownian walk, walk on spheres, and exact rejection from the ball's
closed-form exit density — plus the closed-form mean/trace/exit-time
formulas to verify them against, and a location-privacy application
built on the same machinery.
"""

__version__ = "0.4.0"

from .geometry import Ball, BoxDomain, Domain
from .exits import ExitBatch
from .brownian import BrownianConfig, MaxStepsExceeded, simulate_exit_batch
from .wos import MaxHopsExceeded, WosConfig, wos_exit_batch
from .ball import (
    ExactConfig,
    MaxProposalsExceeded,
    expected_exit_time,
    kernel_normalization,
    poisson_kernel,
    rejection_envelope,
    sample_exact_batch,
    theoretical_mean,
    theoretical_trace,
)
from .stats import ComparisonRow, SummaryStats, compare, reproduce_table1, summarize
from .privacy import CloakScenario, PrivacyReport, privacy_curve, run_attacks

__all__ = [
    "__version__",
    "Ball", "BoxDomain", "Domain",
    "ExitBatch",
    "BrownianConfig", "MaxStepsExceeded", "simulate_exit_batch",
    "MaxHopsExceeded", "WosConfig", "wos_exit_batch",
    "ExactConfig", "MaxProposalsExceeded", "expected_exit_time",
    "kernel_normalization", "poisson_kernel", "rejection_envelope", "sample_exact_batch",
    "theoretical_mean", "theoretical_trace",
    "ComparisonRow", "SummaryStats", "compare", "reproduce_table1", "summarize",
    "CloakScenario", "PrivacyReport", "privacy_curve", "run_attacks",
]
