"""Rank and null-vector statistics of sparse random GF(2) matrices."""

__version__ = "0.1.0"

from .weights import WeightDist, parse_rho
from .gf2 import GF2Matrix, RankState, enumerate_null_vectors, is_one_null
from .sampling import SampleConfig, make_rng, run_Tn, sample_matrix, sample_row
from .peeling import CoreStats, Hypergraph, check_E, corank, peel_2core
from .exact import (
    ParitySpec,
    expected_null_count,
    gfq_dense_survival,
    multinomial_parity,
    pi_multinomial,
    poissonization_check,
    prob_A_general,
)
from .thresholds import (
    CoreTheory,
    ThresholdReport,
    F_gamma,
    F_of_alpha,
    alpha_bar,
    alpha_sharp,
    alpha_star,
    core_theory,
    discontinuities,
    g_star,
    h_psi,
    psi_roots,
    threshold_asymptotics,
    threshold_report,
    x_star_iteration,
)
from .experiments import ExperimentConfig, ExperimentResult, run_experiment

__all__ = [
    "WeightDist", "parse_rho",
    "GF2Matrix", "RankState", "corank", "enumerate_null_vectors", "is_one_null",
    "SampleConfig", "make_rng", "run_Tn", "sample_matrix", "sample_row",
    "CoreStats", "Hypergraph", "check_E", "peel_2core",
    "ParitySpec", "expected_null_count", "gfq_dense_survival", "multinomial_parity",
    "pi_multinomial", "poissonization_check", "prob_A_general",
    "CoreTheory", "ThresholdReport", "F_gamma", "F_of_alpha", "alpha_bar",
    "alpha_sharp", "alpha_star", "core_theory", "discontinuities", "g_star", "h_psi",
    "psi_roots", "threshold_asymptotics", "threshold_report", "x_star_iteration",
    "ExperimentConfig", "ExperimentResult", "run_experiment",
]
