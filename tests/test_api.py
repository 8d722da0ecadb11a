"""The public API is pinned: a change to netmix.__all__ edits this file,
and every name a module exports must exist."""
import importlib
import pkgutil

import netmix

PUBLIC = [
    "EdgeIndexMap", "MixtureParameters", "NetworkObservation",
    "component_log_pmf", "conditional_log_pmf", "edge_index_map",
    "joint_log_pmf", "logistic_map", "marginal_log_pmf", "matricize",
    "sample_cohort", "sample_joint_cohort", "sample_network", "vectorize",
    "AugmentedState", "CohortData", "PosteriorDraws", "SamplerConfig",
    "gibbs_sweep", "run_chain",
    "polya_gamma",
    "HyperParameters", "sample_prior",
    "ClassificationResult", "TestReport", "classify", "compute_test_report",
    "cramers_v", "evaluate_classifier", "fisher_baseline", "global_test",
    "test_degree",
    "__version__",
]


def test_public_api_is_pinned_and_every_export_resolves():
    assert netmix.__all__ == PUBLIC
    modules = [netmix] + [importlib.import_module(f"netmix.{info.name}")
                          for info in pkgutil.iter_modules(netmix.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
