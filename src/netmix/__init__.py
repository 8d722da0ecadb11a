"""Mixtures of low-rank factorizations for populations of binary networks.

Workflow: build or load a cohort of labeled binary networks, fit the
mixture with the Gibbs sampler (run_chain), then test for group
differences (compute_test_report) and score subjects (classify).
"""
from .core import (EdgeIndexMap, MixtureParameters, NetworkObservation,
                   component_log_pmf, conditional_log_pmf, edge_index_map,
                   joint_log_pmf, logistic_map, marginal_log_pmf, matricize,
                   sample_cohort, sample_joint_cohort, sample_network,
                   vectorize)
from .inference import (AugmentedState, CohortData, PosteriorDraws,
                        SamplerConfig, gibbs_sweep, run_chain)
from .oracle import ExactPmfTable, enumerate_pmf, exact_cramers_v
from .pg import polya_gamma
from .priors import HyperParameters, sample_prior
from .testing import (ClassificationResult, TestReport, classify,
                      compute_test_report, cramers_v, edge_difference,
                      evaluate_classifier, fisher_baseline, global_test,
                      local_test, test_degree)

__version__ = "0.1.0"

__all__ = [
    "EdgeIndexMap", "MixtureParameters", "NetworkObservation",
    "component_log_pmf", "conditional_log_pmf", "edge_index_map",
    "joint_log_pmf", "logistic_map", "marginal_log_pmf", "matricize",
    "sample_cohort", "sample_joint_cohort", "sample_network", "vectorize",
    "AugmentedState", "CohortData", "PosteriorDraws", "SamplerConfig",
    "gibbs_sweep", "run_chain",
    "ExactPmfTable", "enumerate_pmf", "exact_cramers_v",
    "polya_gamma",
    "HyperParameters", "sample_prior",
    "ClassificationResult", "TestReport", "classify", "compute_test_report",
    "cramers_v", "edge_difference", "evaluate_classifier", "fisher_baseline",
    "global_test", "local_test", "test_degree",
    "__version__",
]
