"""Command-line interface.

Subcommands::

    validate <model>
    simulate <model> --n N --seed S --out-x x.csv --out-y y.csv [--out-factors f.csv]
    scores <model> --x x.csv [--y y.csv] --method regression|takeuchi|cp-params --out s.csv
    transform <model> --scores pv.csv --mode joint|exogenous --out cp.csv
    determinacy <model> --scores s.csv --x x.csv [--y y.csv] [--appendix-compat]
    verify [--seed S] [--n N]

Exit codes: 0 success, 1 verification tolerance failure, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import io
from .determinacy import NORMALIZER_SD, NORMALIZER_VARIANCE, determinacy
from .errors import CpscoresError
from .model import combined_factor_corr, validate_model
from .scores import (
    cp_scores_from_params,
    cp_transform,
    orthogonal_scores,
    regression_scores,
)
from .simulate import (
    DEFAULT_N_CASES,
    DEFAULT_SEED,
    RNG_NAME,
    SimulationSpec,
    run_example,
    simulate_dataset,
)

USAGE_ERROR = 2


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpscores",
        description="Correlation-preserving factor scores and determinacy "
        "coefficients for structural equation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")

    p = sub.add_parser("simulate", help="draw a dataset from a model")
    p.add_argument("model")
    p.add_argument("--n", type=int, required=True, help="number of cases")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-x", required=True)
    p.add_argument("--out-y", required=True)
    p.add_argument("--out-factors")

    p = sub.add_parser("scores", help="compute factor scores from data")
    p.add_argument("model")
    p.add_argument("--x", required=True, help="x indicator CSV")
    p.add_argument("--y", help="y indicator CSV (regression method only)")
    p.add_argument(
        "--method", required=True,
        choices=("regression", "takeuchi", "cp-params"),
    )
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "transform", help="correlation-preserving transformation of scores"
    )
    p.add_argument("model")
    p.add_argument("--scores", required=True)
    p.add_argument("--mode", choices=("joint", "exogenous"), default="joint")
    p.add_argument("--out", required=True)

    p = sub.add_parser("determinacy", help="determinacy of score columns")
    p.add_argument("model")
    p.add_argument("--scores", required=True)
    p.add_argument("--x", help="x indicator CSV (for exogenous columns)")
    p.add_argument("--y", help="y indicator CSV (for endogenous columns)")
    p.add_argument(
        "--appendix-compat", action="store_true",
        help="variance-normalized endogenous variant of a legacy script",
    )

    p = sub.add_parser("verify", help="run the bundled example verification")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--n", type=int, default=DEFAULT_N_CASES)

    return parser


def _cmd_validate(args) -> int:
    model = io.parse_model_file(args.model)
    # parse_model_file already rejects invalid models; report acceptance
    print(f"model hash: {io.model_hash(model)}")
    print(validate_model(model))
    return 0


def _cmd_simulate(args) -> int:
    # a second write to one file would keep only the last output, and a
    # write to the model file would lose the model
    named = {os.path.realpath(args.model): "the model file"}
    for flag, path in (("--out-x", args.out_x), ("--out-y", args.out_y),
                       ("--out-factors", args.out_factors)):
        if path is not None:
            first = named.setdefault(os.path.realpath(path), flag)
            if first != flag:
                raise CpscoresError(f"{first} and {flag} name the same file {path}")
    model = io.parse_model_file(args.model)
    spec = SimulationSpec(
        model, args.n, args.seed, emit_true_factors=args.out_factors is not None
    )
    x_data, y_data, factors = simulate_dataset(spec)
    io.write_matrix_csv(args.out_x, x_data.labels, x_data.values)
    io.write_matrix_csv(args.out_y, y_data.labels, y_data.values)
    if factors is not None:
        io.write_scores_csv(args.out_factors, factors)
    print(
        f"simulated {args.n} cases (seed {args.seed}, {RNG_NAME}, "
        f"model hash {io.model_hash(model)})"
    )
    return 0


def _cmd_scores(args) -> int:
    if args.y is not None and args.method != "regression":
        raise CpscoresError(f"--y is for --method regression, not {args.method}")
    model = io.parse_model_file(args.model)
    x_data = io.read_data_csv(args.x)
    if args.method == "regression":
        if args.y is not None:
            y_data = io.read_data_csv(args.y)
            result = regression_scores(model.joint, x_data, y_data)
            note = "joint regression scores (all indicators)"
        else:
            result = regression_scores(model.exo, x_data)
            note = "exogenous regression scores"
    elif args.method == "takeuchi":
        result = orthogonal_scores(model, x_data)
        note = "orthogonal scores (unit covariance)"
    else:
        result = cp_scores_from_params(model, x_data)
        note = "correlation-preserving scores from parameters"
    io.write_scores_csv(args.out, result)
    print(
        f"wrote {note} for {result.n_cases} cases to {args.out} "
        f"(model hash {io.model_hash(model)})"
    )
    return 0


def _cmd_transform(args) -> int:
    model = io.parse_model_file(args.model)
    scores = io.read_scores_csv(args.scores, model)
    target = combined_factor_corr(model) if args.mode == "joint" else model.phi
    result = cp_transform(scores, target)
    io.write_scores_csv(args.out, result)
    print(
        f"wrote correlation-preserving scores ({args.mode} mode) to "
        f"{args.out} (model hash {io.model_hash(model)})"
    )
    return 0


def _cmd_determinacy(args) -> int:
    model = io.parse_model_file(args.model)
    scores = io.read_scores_csv(args.scores, model)
    normalizer = NORMALIZER_VARIANCE if args.appendix_compat else NORMALIZER_SD
    print(f"model hash: {io.model_hash(model)}   cases: {scores.n_cases}")
    if args.appendix_compat:
        print(
            "note: endogenous coefficients use the variance-normalized "
            "compatibility variant; they are not correlations"
        )
    # read_scores_csv refuses a column that names no model factor, so at
    # least one block is reported
    for block, path, flag, norm in (
        (model.exo, args.x, "--x", NORMALIZER_SD),
        (model.endo, args.y, "--y", normalizer),
    ):
        if not set(block.factor_labels) & set(scores.labels):
            continue
        if path is None:
            raise CpscoresError(f"{flag} is required for {block.name} score columns")
        data = io.read_data_csv(path)
        print(determinacy(block, scores.select(block.factor_labels), data,
                          normalizer=norm))
    return 0


def _cmd_verify(args) -> int:
    report = run_example(seed=args.seed, n_cases=args.n)
    print(report.render())
    return 0 if report.ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "scores": _cmd_scores,
    "transform": _cmd_transform,
    "determinacy": _cmd_determinacy,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except (CpscoresError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
