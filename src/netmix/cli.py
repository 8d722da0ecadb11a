"""Command line interface.

Subcommands cover the full workflow on files: simulate a synthetic
cohort, fit the model, run the group-difference tests, score subjects,
and render a markdown report. All outputs are deterministic given the
inputs and seed. run_cli is the one place errors become diagnostics: a
NetmixError, an OSError or a ValueError (the library's signal for bad
input) ends the command with exit code 1 and one ``error:`` line on
stderr. Each command parses its config with the keys it reads, so a key
meant for another command, or another scenario, is an error too.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataio, synthetic
from .core import MixtureParameters, sample_cohort
from .dataio import ConfigError, DataFormatError, NetmixError
from .inference import CohortData, SamplerConfig, _check_seed, run_chain
from .priors import HyperParameters, sample_prior
from .testing import (classify, compute_test_report, evaluate_classifier,
                      test_degree)

# Each command reads the config keys of its tables and no others; a key
# names the HyperParameters or SamplerConfig field of that name, case aside.
_HYPER_KEYS = {"h": int, "r": int, "a0": float, "a1": float, "z_mean": float,
               "z_var": float, "mig_a1": float, "mig_a2": float,
               "dirichlet_conc": float, "prior_t1": float}
_SAMPLER_KEYS = {"n_iter": int, "burn_in": int, "thin": int, "seed": int}
_FIT_KEYS = {"v": int, **_HYPER_KEYS, **_SAMPLER_KEYS}
_SIMULATE_KEYS = {"scenario": str, "v": int, "n0": int, "n1": int, "seed": int}
_HYPER_FIELDS = {f.name.lower(): f.name for f in fields(HyperParameters)}


def _build_hyper(cfg: dict, V: int) -> HyperParameters:
    return HyperParameters(V=V, **{_HYPER_FIELDS[key]: cfg[key]
                                   for key in _HYPER_KEYS if key in cfg})


def _build_sampler(cfg: dict, seed_flag: int | None) -> SamplerConfig:
    kwargs = {key: cfg[key] for key in _SAMPLER_KEYS if key in cfg}
    if seed_flag is not None:
        kwargs["seed"] = seed_flag
    return SamplerConfig(**kwargs)


def _prior_params(V: int, seed: int, **hyper_keys) -> MixtureParameters:
    return sample_prior(_build_hyper(hyper_keys, V),
                        np.random.default_rng(seed))[0]


# scenario -> (builder, the config keys it reads besides _SIMULATE_KEYS)
_SCENARIOS = {
    "prior": (_prior_params, _HYPER_KEYS),
    "shifted": (synthetic.shifted_mixture_truth, {"shift": float}),
    "null": (synthetic.null_mixture_truth, {"shift": float}),
    "clique": (synthetic.clique_difference_truth,
               {"clique_size": int, "low": float, "high": float}),
    "separable": (synthetic.separable_truth, {"shift": float}),
    "rank1": (synthetic.rank_one_truth, {"weight": float, "share": float}),
}
_SCENARIO_KEYS = {key: kind for _, keys in _SCENARIOS.values()
                  for key, kind in keys.items()}


def _params_to_json(params: MixtureParameters) -> dict:
    return {
        "Z": params.Z.tolist(),
        "components": [{"X": X.tolist(), "lam": lam.tolist()}
                       for X, lam in zip(params.X, params.lam)],
        "nu0": params.nu[0].tolist(),
        "nu1": params.nu[1].tolist(),
        "pY1": params.pY1,
        "T": params.T,
    }


def _cmd_simulate(args) -> int:
    cfg = dataio.parse_config(args.config, _SIMULATE_KEYS | _SCENARIO_KEYS)
    for key in ("scenario", "v", "n0", "n1"):
        if key not in cfg:
            raise ConfigError(f"simulate config needs key {key!r}")
    scenario = cfg["scenario"]
    if scenario not in _SCENARIOS:
        raise ConfigError(f"{args.config}: scenario must be one of "
                          f"{tuple(_SCENARIOS)}, got {scenario!r}")
    builder, keys = _SCENARIOS[scenario]
    unread = [key for key in cfg if key not in _SIMULATE_KEYS and key not in keys]
    if unread:
        raise ConfigError(f"{args.config}: scenario {scenario!r} does not read "
                          + ", ".join(f"key {key!r}" for key in unread))
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    V, n0, n1 = cfg["v"], cfg["n0"], cfg["n1"]
    options = {key: cfg[key] for key in keys if key in cfg}
    _check_seed(seed)
    truth = builder(V, seed=seed, **options)
    if scenario == "prior":  # a bare parameter draw: no difference truth
        params, truth_summary = truth, {}
    else:
        params = truth.params
        truth_summary = {
            "rho": truth.rho.tolist(),
            "different_edges": [int(l) + 1 for l in truth.different_edges],
            "pi0": truth.pi0.tolist(),
            "pi1": truth.pi1.tolist(),
        }
    observations = sample_cohort(params, n0, n1, np.random.default_rng([seed, 1]))
    out = Path(args.out_dir)
    manifest_path = dataio.write_dataset(out, observations)
    payload = {"scenario": scenario, "seed": seed, "n0": n0, "n1": n1,
               "options": options, "params": _params_to_json(params),
               **truth_summary}
    dataio.atomic_write_text(out / "truth.json",
                             json.dumps(payload, sort_keys=True) + "\n")
    print(f"simulate: wrote {len(observations)} subjects (V={V}) to "
          f"{manifest_path}")
    return 0


def _cmd_fit(args) -> int:
    cfg = dataio.parse_config(args.config, _FIT_KEYS) if args.config else {}
    observations, _ = dataio.load_dataset(args.manifest)
    cohort = CohortData.from_observations(observations)
    if "v" in cfg and cfg["v"] != cohort.V:
        raise ConfigError(f"config says v={cfg['v']} but the data has "
                          f"V={cohort.V} nodes")
    hyper = _build_hyper(cfg, cohort.V)
    draws = run_chain(cohort, hyper, _build_sampler(cfg, args.seed))
    out = Path(args.out_dir)
    dataio.save_draws(draws, out / "draws.bin")
    if args.format == "csv":
        dataio.write_draws_table(draws, out / "draws.csv")
    flag = " (single group)" if cohort.single_group else ""
    print(f"fit: n={cohort.n} V={cohort.V} kept {draws.n_draws} draws{flag} "
          f"-> {out / 'draws.bin'}")
    return 0


def _load_metadata_checked(path, V: int):
    metadata = dataio.load_node_metadata(path)
    if len(metadata) != V:
        raise DataFormatError(f"{path}: {len(metadata)} node rows but the "
                              f"fitted model has V={V} nodes")
    return metadata


def _check_manifest(path, draws, hint: str = "") -> CohortData:
    """The cohort of a manifest, which must be the one the draws were fit to."""
    cohort = CohortData.from_observations(dataio.load_dataset(path)[0])
    if cohort.checksum != draws.meta.get("data_checksum"):
        raise NetmixError(f"{path}: cohort does not match the one the "
                          f"archive was fit to{hint}")
    return cohort


def _cmd_test(args) -> int:
    draws = dataio.load_draws(args.archive)
    if args.manifest is not None:
        _check_manifest(args.manifest, draws)
    metadata = None
    if args.metadata is not None:
        metadata = _load_metadata_checked(args.metadata, draws.X.shape[2])
    report = compute_test_report(draws, epsilon=args.epsilon, cutoff=args.cutoff)
    out = Path(args.out_dir)
    dataio.save_test_report(report, out / "test_report.json")
    dataio.write_edge_table(report, out / "edges.csv", metadata)
    dataio.write_degree_table(test_degree(report.significant_edges),
                              out / "degree.csv", metadata)
    dataio.write_difference_matrix(report, out / "difference_matrix.csv")
    pr = "n/a" if report.pr_H1 is None else format(report.pr_H1, ".4f")
    print(f"test: Pr(group difference)={pr}, "
          f"{int(report.significant_edges.sum())} of {report.L} edges flagged "
          f"-> {out / 'test_report.json'}")
    return 0


def _cmd_predict(args) -> int:
    draws = dataio.load_draws(args.archive)
    hint = "" if args.new_data else "; pass held-out subjects via --new-data"
    cohort = _check_manifest(args.manifest, draws, hint)
    if args.new_data is not None:
        cohort = CohortData.from_observations(
            dataio.load_dataset(args.new_data)[0])
    result = classify(draws, cohort)
    if cohort.single_group:  # every probability is defined, the AUC is not
        auc, accuracy = None, float(np.mean(result.predicted == result.labels))
    else:
        auc, accuracy = evaluate_classifier(result)
    out = Path(args.out_dir)
    dataio.write_predictions(result, out / "predictions.csv")
    dataio.save_classification(auc, accuracy, cohort.n,
                               out / "classification.json")
    auc_text = "n/a" if auc is None else format(auc, ".4f")
    print(f"predict: n={cohort.n} AUC={auc_text} accuracy={accuracy:.4f} "
          f"-> {out / 'predictions.csv'}")
    return 0


def _cmd_report(args) -> int:
    out = Path(args.out_dir)
    fit_meta = None
    archive = Path(args.archive) if args.archive else out / "draws.bin"
    # only the default archive may be absent; a named one must be read
    if args.archive or archive.exists():
        fit_meta = dataio.load_draws_meta(archive)
    test_report = None
    if (out / "test_report.json").exists():
        test_report = dataio.load_test_report(out / "test_report.json")
    classification = None
    if (out / "classification.json").exists():
        classification = dataio.load_classification(out / "classification.json")
    text = dataio.render_report(fit_meta, test_report, classification)
    dataio.atomic_write_text(out / "report.md", text)
    print(f"report: wrote {out / 'report.md'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmix",
        description="Mixture-of-low-rank-factorizations analysis of "
                    "binary network cohorts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the config seed")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="run the Gibbs sampler on a cohort")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None,
                   help="hyper/sampler config; defaults apply if omitted")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the config seed")
    p.add_argument("--format", choices=("binary", "csv"), default="binary",
                   help="csv adds a per-draw summary table")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("test", help="group-difference tests from draws")
    p.add_argument("--archive", required=True, help="draws.bin from fit")
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="practical relevance threshold on the association")
    p.add_argument("--cutoff", type=float, default=0.95,
                   help="posterior exceedance cutoff for flagging edges")
    p.add_argument("--manifest", default=None,
                   help="optional: verify the archive matches this cohort")
    p.add_argument("--metadata", default=None, help="node metadata CSV")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("predict", help="score subjects against a fit")
    p.add_argument("--archive", required=True)
    p.add_argument("--manifest", required=True,
                   help="training cohort manifest (checksum always verified)")
    p.add_argument("--new-data", default=None,
                   help="manifest of held-out subjects to score instead")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("report", help="render report.md from artifacts")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--archive", default=None,
                   help="draws archive (default: out-dir/draws.bin)")
    p.set_defaults(func=_cmd_report)
    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # ValueError is how the library says an input is out of its domain
    try:
        return args.func(args)
    except (NetmixError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
