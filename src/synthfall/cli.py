"""Command-line interface.

Subcommands: ingest, kinematics, align, experiment, prompts, report.
experiment reads a JSON config file mirroring ExperimentConfig; every
field can be overridden by a flag, and --seed is always required.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import fields

from . import ingest
from .classifier import TrainConfig
from .errors import ConfigError, DataError, ToolkitError
from .harness import (
    AlignmentOptions,
    ExperimentConfig,
    emit_report,
    load_report,
    report_files,
    run_alignment,
    run_experiment,
)
from .kinematics import DEFAULT_FRAME_RATE_HZ, SensorPlacement, differentiate_to_accel, extract_joint

DEFAULT_VARIANTS = "neutral,man,woman,young,elderly,left_wrist,right_wrist"


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file mirroring the experiment config")
    parser.add_argument("--seed", type=int, required=True, help="master seed (required)")
    parser.add_argument("--real-manifest", help="real dataset manifest path")
    parser.add_argument(
        "--synthetic-manifest", action="append", dest="synthetic_manifests",
        metavar="PATH", help="synthetic manifest; repeat to pool sources",
    )
    parser.add_argument("--window", type=int)
    parser.add_argument("--stride", type=int)
    parser.add_argument("--mix", help="ADL,real-fall,synthetic-fall fractions, e.g. 0.6,0.2,0.2")
    parser.add_argument("--split-sizes", help="train,val,test subject counts, e.g. 8,2,2")
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--hidden-size", type=int)
    parser.add_argument("--dense-units", type=int)
    parser.add_argument("--learning-rate", type=float)
    parser.add_argument("--max-epochs", type=int)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--baseline-report", help="baseline report JSON for the percent delta")
    parser.add_argument("--out", default=".", help="output directory")


def _parse_numbers(text: str, n: int, flag: str, kind=float) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{flag} expects {n} comma-separated values, got {text!r}")
    try:
        return [kind(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{flag} expects {kind.__name__} values, got {text!r}") from None


def _build_experiment_config(args) -> ExperimentConfig:
    if args.config:
        base = ingest.read_json(args.config, "config file", ConfigError)
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a JSON object")
    else:
        base = {}
    # Every config field with a flag of the same name; flags left unset are None.
    flags = dict(vars(args))
    if args.mix:
        flags["mix"] = _parse_numbers(args.mix, 3, "--mix")
    if args.split_sizes:
        flags["split_sizes"] = _parse_numbers(args.split_sizes, 3, "--split-sizes", int)
    for f in fields(ExperimentConfig):
        if flags.get(f.name) is not None:
            base[f.name] = flags[f.name]
    train_flags = {f.name: flags[f.name] for f in fields(TrainConfig) if flags.get(f.name) is not None}
    train_cfg = base.get("train", {})
    # A train value that is not an object is left for from_dict to reject.
    if train_flags and isinstance(train_cfg, dict):
        base["train"] = {**train_cfg, **train_flags}
    if "real_manifest" not in base:
        raise ConfigError("a real manifest is required (--real-manifest or config file)")
    return ExperimentConfig.from_dict(base)


def _cmd_ingest(args) -> int:
    catalog = ingest.catalog_dataset(args.manifest)
    hist = catalog.activity_histogram()
    print(f"entries: {len(catalog)}")
    print(f"subjects: {len(catalog.subjects())}")
    print(f"adl files: {hist['adl']}")
    print(f"fall files: {hist['fall']}")
    return 0


def _cmd_kinematics(args) -> int:
    placement = SensorPlacement(args.placement)
    # The scheme divides by dt**2, so its square must be a normal float.
    if not (args.dt > 0 and sys.float_info.min <= args.dt * args.dt < math.inf):
        raise ConfigError(f"--dt must be positive and finite with a normal float square, got {args.dt!r}")
    traj = ingest.read_motion_array(ingest.read_file(args.motion, "motion file"), frame_rate=1.0 / args.dt)
    series = differentiate_to_accel(
        extract_joint(traj, placement),
        central_second_difference=args.central_diff,
    )
    data = ingest.write_accel_csv(series)
    # Six written decimals can round a slow motion's every sample to zero.
    peak = float(abs(series.samples).max())
    if peak > 0 and not ingest.read_accel_csv(data).samples.any():
        raise ConfigError(f"--dt {args.dt!r} writes every acceleration as 0 (largest |a| {peak:.3g})")
    ingest.write_file(args.output, data)
    print(f"wrote {len(series)} samples at {series.sampling_rate:g} Hz to {args.output}")
    return 0


def _cmd_align(args) -> int:
    options = AlignmentOptions(**{f.name: getattr(args, f.name) for f in fields(AlignmentOptions)})
    # Every comparison runs before anything is written, so a failing one
    # leaves no reports behind; the real side is prepared once and kept.
    reports = [run_alignment(args.real_manifest, syn, options) for syn in args.synthetic_manifests]
    files = [report_files(report, "json", args.out) for report in reports]
    ingest.ensure_output_dir(args.out)
    ingest.write_files([pair for pairs in files for pair in pairs])
    for report, pairs in zip(reports, files):
        print(f"jsd: {report.jsd:.6f}  coverage: {report.coverage:.6f}  ks mean D: {report.ks_mean_statistic:.6f}")
        for path, _ in pairs:
            print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    config = _build_experiment_config(args)
    out_dir = ingest.ensure_output_dir(args.out)
    histories = []
    report = run_experiment(config, histories)
    # The report and every iteration's training history, written as one set.
    tag = report.fingerprint[:12]
    files = report_files(report, args.format, out_dir) + [
        (out_dir / f"history_{tag}_{i}.csv", history.to_csv().encode("utf-8"))
        for i, history in enumerate(histories)
    ]
    ingest.write_files(files)
    print(f"mean f1: {report.mean_f1:.4f} over {len(report.iterations)} iterations")
    if report.delta_percent is not None:
        print(f"delta vs baseline: {report.delta_percent:+.2f}%")
    for path, _ in files:
        print(f"wrote {path}")
    return 0


def _cmd_prompts(args) -> int:
    catalog = ingest.load_prompt_catalog(args.base)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    prompts = ingest.generate_prompt_variants(catalog, variants)
    text = "\n".join(prompts) + "\n"
    if args.out:
        ingest.write_file(args.out, text.encode("utf-8"))
        print(f"wrote {len(prompts)} prompts to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    report = load_report(ingest.read_json(args.report, "report", DataError))
    for out_path in emit_report(report, args.format, args.out):
        print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="synthfall", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a dataset manifest")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("kinematics", help="convert a motion array to an accelerometer CSV")
    p.add_argument("motion", help="NPY motion file")
    p.add_argument("output", help="output CSV path")
    p.add_argument(
        "--placement", default=SensorPlacement.LEFT_WRIST.value,
        choices=[pl.value for pl in SensorPlacement],
    )
    p.add_argument("--dt", type=float, default=1.0 / DEFAULT_FRAME_RATE_HZ,
                   help="seconds per motion frame")
    p.add_argument("--central-diff", action="store_true",
                   help="use the central second difference (output length F-2)")
    p.set_defaults(func=_cmd_kinematics)

    p = sub.add_parser("align", help="real-vs-synthetic alignment report")
    p.add_argument("real_manifest")
    p.add_argument("synthetic_manifests", nargs="+", metavar="synthetic_manifest",
                   help="one report per synthetic manifest, in order")
    p.add_argument("--window", type=int, default=AlignmentOptions.window)
    p.add_argument("--stride", type=int, default=AlignmentOptions.stride)
    p.add_argument("--bins", type=int, default=AlignmentOptions.bins)
    p.add_argument("--k", type=int, default=AlignmentOptions.k)
    p.add_argument("--per-axis", action="store_true", help="also report per-axis JSD")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("experiment", help="multi-iteration augmentation experiment")
    _add_experiment_flags(p)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("prompts", help="generate a prompt variant catalog")
    p.add_argument("--base", help="base prompt file (default: bundled catalog)")
    p.add_argument("--variants", default=DEFAULT_VARIANTS,
                   help="comma-separated variant tags")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_prompts)

    p = sub.add_parser("report", help="re-emit an existing report")
    p.add_argument("report", help="report JSON file")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
