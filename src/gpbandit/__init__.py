"""Gaussian-process bandit optimization with expected-improvement acquisition,
adaptive domain partitioning, and a reproducible benchmark harness."""

from .acquisition import (
    OMEGA_FIXED,
    OMEGA_POLYLOG_T,
    OMEGA_THEORY_EI,
    OmegaSchedule,
    beta_value,
    ei_score,
    ei_scores,
    omega_at,
    tau,
    ucb_score,
)
from .gp import GpModel, GpNumericsError
from .kernels import MATERN, SQUARED_EXPONENTIAL, KernelSpec, gram_matrix, kernel_eval
from .optimizers import (
    ALG_GP_EI,
    ALG_IMPROVED_GP_EI,
    ALG_PI_UCB,
    RunConfig,
    RunTrace,
    maximize_acquisition,
    run,
)
from .partition import Cell, Cover, initial_cover, locate, maybe_split
from .testbed import (
    NoisyOracle,
    RkhsFunction,
    estimate_optimum,
    make_rkhs_function,
    standard_function,
)

__all__ = [
    "ALG_GP_EI",
    "ALG_IMPROVED_GP_EI",
    "ALG_PI_UCB",
    "MATERN",
    "OMEGA_FIXED",
    "OMEGA_POLYLOG_T",
    "OMEGA_THEORY_EI",
    "SQUARED_EXPONENTIAL",
    "Cell",
    "Cover",
    "GpModel",
    "GpNumericsError",
    "KernelSpec",
    "NoisyOracle",
    "OmegaSchedule",
    "RkhsFunction",
    "RunConfig",
    "RunTrace",
    "beta_value",
    "ei_score",
    "ei_scores",
    "estimate_optimum",
    "gram_matrix",
    "initial_cover",
    "kernel_eval",
    "locate",
    "make_rkhs_function",
    "maximize_acquisition",
    "maybe_split",
    "omega_at",
    "run",
    "standard_function",
    "tau",
    "ucb_score",
]
