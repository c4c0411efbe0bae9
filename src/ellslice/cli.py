"""Command-line front end.

Subcommands: ``generate``, ``run``, ``tune-mh``, ``benchmark``,
``diagnose``. Chain lengths default to desk scale (10^3 burn, 10^4 kept);
``--paper-scale`` switches to 10^4/10^5. Explicit ``--burn``/``--keep`` win
over both the flag and the config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness
from .errors import EllsliceError


def _add_common(p: argparse.ArgumentParser, *, needs_out: bool = True) -> None:
    p.add_argument("--config", required=True, help="JSON config file")
    if needs_out:
        p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--burn", type=int, default=None, help="burn-in iterations")
    p.add_argument("--keep", type=int, default=None, help="kept iterations")
    p.add_argument("--paper-scale", action="store_true",
                   help="10^4 burn / 10^5 kept instead of desk scale")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellslice",
        description="Latent-Gaussian MCMC: dataset generation, runs, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write dataset directories")
    _add_common(p)

    p = sub.add_parser("run", help="single chain on an existing dataset")
    p.add_argument("dataset", help="dataset directory from `generate`")
    _add_common(p)

    p = sub.add_parser("tune-mh", help="grid-search the M-H step size")
    p.add_argument("dataset", help="dataset directory from `generate`")
    _add_common(p)

    p = sub.add_parser("benchmark", help="samplers x models matrix")
    _add_common(p)

    p = sub.add_parser("diagnose", help="recompute ESS from a trace CSV")
    p.add_argument("trace", help="trace.csv produced by `run` or `benchmark`")
    p.add_argument("--out", default=None, help="optional JSON output path")
    return parser


def _load(args: argparse.Namespace) -> harness.ExperimentConfig:
    overrides: dict[str, object] = {
        "seed": args.seed,
        "n_burn": args.burn,
        "n_keep": args.keep,
    }
    if args.paper_scale:
        if args.burn is None:
            overrides["n_burn"] = harness.PAPER_BURN
        if args.keep is None:
            overrides["n_keep"] = harness.PAPER_KEEP
    return harness.load_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            written = harness.cli_generate(_load(args), args.out)
            for path in written:
                print(f"wrote {path}")
        elif args.command == "run":
            report = harness.cli_run(_load(args), args.dataset, args.out)
            print(f"ess={report.ess:.1f} n_kept={report.n_kept} "
                  f"lik_evals={report.total_lik_evals} "
                  f"prior_evals={report.total_prior_evals} "
                  f"seconds={report.seconds:.2f}")
        elif args.command == "tune-mh":
            best, results = harness.cli_tune_mh(_load(args), args.dataset, args.out)
            for row in results:
                print(f"epsilon={row['epsilon']:g} ess_mean={row['ess_mean']:.1f} "
                      f"failures={len(row['failures'])}")
            print(f"best_epsilon={best:g}")
        elif args.command == "benchmark":
            summary = harness.cli_benchmark(_load(args), args.out)
            for cell in summary["cells"]:
                print(f"{cell['cell']}: ess={cell['ess_mean']:.1f}"
                      f"±{cell['ess_std']:.1f} "
                      f"lik_evals={cell['lik_evals_mean']:.0f} "
                      f"failures={len(cell['failures'])}")
        elif args.command == "diagnose":
            report = harness.cli_diagnose(args.trace)
            payload = json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(payload + "\n")
            print(payload)
    except (EllsliceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
