"""Command-line entry points: gen-synthetic, run, compare."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import (ExperimentConfig, _read_json, _require_directory, compare_models,
                          emit_report, run_experiment)
from .synthetic import SyntheticSpec, write_bundle


def _cmd_gen_synthetic(args) -> int:
    spec = _read_json(SyntheticSpec, args.spec, "spec")
    out = Path(args.out)
    write_bundle(spec, out)
    print(f"wrote train.csv ({spec.n_samples} x {spec.n_features}) to {out}")
    print(f"wrote validation.csv, augment.csv (unlabeled), graph.tsv to {out}")
    return 0


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    out_dir = args.out or cfg.output_dir
    if out_dir is None:
        raise ValueError("no output directory: set output_dir in the config or pass --out")
    _require_directory(out_dir, "--out" if args.out else "output_dir")
    report = run_experiment(cfg)
    written = emit_report(report, out_dir)
    for path in written:
        print(f"wrote {path}")
    print(
        f"model={report.model} auc={report.validation_auc:.4f} "
        f"selected={report.selected_count}/{report.n_features} "
        f"ci={[(k, round(v, 4)) for k, v in report.ci_curve]}"
    )
    return 0


def _cmd_compare(args) -> int:
    cfgs = [ExperimentConfig.from_json(path) for path in args.configs]
    _require_directory(args.out, "--out")
    reports = compare_models(cfgs, output_dir=args.out)
    print(f"wrote {Path(args.out) / 'comparison.csv'}")
    for r in reports:
        ci = " ".join(f"k={k}:{v:.4f}" for k, v in r.ci_curve)
        print(
            f"{r.model:<28} auc={r.validation_auc:.4f} "
            f"selected={r.selected_fraction:.3f} snr>={r.snr_threshold}: "
            f"{r.snr_above_count:>3}  {ci}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepred",
        description="Stability experiments for autoencoder-regularized sparse linear models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic cohort bundle")
    gen.add_argument("--spec", required=True, help="JSON file of generator settings")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_gen_synthetic)

    run = sub.add_parser("run", help="run one experiment config")
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--out", default=None, help="override the config's output_dir")
    run.set_defaults(func=_cmd_run)

    cmp_ = sub.add_parser("compare", help="run several configs and tabulate them")
    cmp_.add_argument("--configs", required=True, nargs="+", help="experiment config JSONs")
    cmp_.add_argument("--out", default=".", help="directory for comparison.csv")
    cmp_.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # noqa: BLE001 - single diagnostic line, nonzero exit
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
