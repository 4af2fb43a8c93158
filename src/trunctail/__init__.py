"""Tail-index estimation for randomly right-truncated heavy-tailed data.

The package provides product-limit estimators of the observed joint
distribution, a weighted Hill-type estimator of the target tail index
gamma1, its asymptotic variance and confidence interval, Wiener-path
simulation of the limiting law, and a replicated Monte Carlo study
harness with a command-line front end.
"""

from .distributions import HeavyTailModel, burr, frechet, parse_model, pareto
from .errors import (DegenerateTailError, EmptySampleError,
                     ModelViolationError, NumericError)
from .limit_process import (DeltaMoments, EnsembleStats, WienerPath,
                            combined_delta_second_moment, delta_moments,
                            delta_moments_mc, gamma_process, limiting_rv,
                            mc_variance, simulate_wiener, transformed_grid)
from .montecarlo import (CellSpec, StudyConfig, StudyReport, StudyRow,
                         run_cell, run_study)
from .product_limit import (LYNDEN_BELL, WOODROOFE, ProductLimitFit,
                            empirical_c, fit_product_limit, tail_process)
from .tail_index import (ConfidenceInterval, TailIndexEstimate,
                         asymptotic_variance, confidence_interval,
                         default_k_max, estimate_gamma2, full_report,
                         gamma1_estimate, gamma1_path,
                         generalized_statistic_complete, hill, hill_path,
                         select_k_dispersion)
from .truncation import (TruncatedSample, TruncationModel,
                         gamma2_for_target_p)

__version__ = "0.1.0"

__all__ = [
    "HeavyTailModel", "burr", "pareto", "frechet", "parse_model",
    "EmptySampleError", "DegenerateTailError", "ModelViolationError",
    "NumericError",
    "TruncatedSample", "TruncationModel", "gamma2_for_target_p",
    "WOODROOFE", "LYNDEN_BELL", "ProductLimitFit", "empirical_c",
    "fit_product_limit", "tail_process",
    "ConfidenceInterval", "TailIndexEstimate", "asymptotic_variance",
    "confidence_interval", "default_k_max", "estimate_gamma2",
    "full_report", "gamma1_estimate", "gamma1_path",
    "generalized_statistic_complete", "hill", "hill_path",
    "select_k_dispersion",
    "WienerPath", "simulate_wiener", "transformed_grid", "gamma_process",
    "limiting_rv", "DeltaMoments", "delta_moments", "delta_moments_mc",
    "combined_delta_second_moment", "EnsembleStats", "mc_variance",
    "CellSpec", "StudyConfig", "StudyRow", "StudyReport", "run_cell",
    "run_study",
]
