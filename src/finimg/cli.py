"""Command line interface.

Subcommands: synth, encode, train, evaluate, compare, grid-search. A
JSON config file in ExperimentConfig.from_dict form (unknown keys are
rejected) can seed any run; explicit flags override file values. Exit
code 0 on success, 2 on failure with a stage-labeled message on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import load_dataset, save_csv
from .encoding import (
    ARRANGEMENTS,
    DETERMINISTIC_METHODS,
    ZERO_PAD,
    arrange,
    default_spec,
    image,
    render_pgm,
    save_grid,
)
from .experiment import (
    ALL_METHODS,
    ExperimentConfig,
    RunRecord,
    classifier_spec,
    emit_report,
    evaluate_pipeline,
    fit_pipeline,
    fmt_stat,
    load_or_generate,
    load_pipeline,
    prepare_pipeline,
    run_compare,
    save_pipeline,
    write_table,
)
from .nnet import GridSearchRow, grid_search
from .schema import SECTION_LABELS, save_schema
from .synthetic import SyntheticSpec, generate_synthetic


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _parse_years(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi or lo)
    except ValueError:
        raise ValueError(f"--years must be first:last (or one year), got {text!r}") from None


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the config-driven subcommands; each dest is its config key."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--data", help="data CSV path")
    p.add_argument("--schema", help="schema CSV path")
    p.add_argument("--test-year", type=int, dest="test_year")
    p.add_argument("--seed", type=int, dest="train.seed", metavar="SEED", help="training seed")
    p.add_argument("--epochs", type=int, dest="train.epochs", metavar="EPOCHS")
    p.add_argument("--lr", type=float, dest="train.learning_rate", metavar="LR")
    p.add_argument("--batch", type=int, dest="train.batch_size", metavar="BATCH")
    p.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    if not isinstance(raw.get("train", {}), dict):  # the CLI's epochs default goes into it
        raise ValueError(f"{path}: train must be a JSON object")
    return raw


# The CLI trains for fewer epochs than TrainConfig's default of 100.
CLI_EPOCHS = 30

def _experiment_config(args) -> ExperimentConfig:
    """The config file's values with the given flags over them (flags win); a
    flag's dest is its config key, and a dotted one names a nested block's key."""
    raw = _load_config_file(args.config)
    raw["train"] = {"epochs": CLI_EPOCHS, **raw.get("train", {})}
    config_keys = {f.name for f in fields(ExperimentConfig)}
    for key, value in vars(args).items():
        block, _, name = key.rpartition(".")
        if value is not None and (block or name) in config_keys:
            (raw[block] if block else raw)[name] = value
    return ExperimentConfig.from_dict(raw)


def _cmd_synth(args) -> int:
    with _stage("config"):
        given = {f.name: getattr(args, f.name, None) for f in fields(SyntheticSpec)}
        if args.years is not None:
            given["years"] = _parse_years(args.years)
        spec = SyntheticSpec(**{k: v for k, v in given.items() if v is not None})
        if args.features_per_section is not None:
            spec = replace(spec, section_counts={
                label: args.features_per_section for label in SECTION_LABELS[spec.kind]})
        out = Path(args.out or "out")
    with _stage("data"):
        ds = generate_synthetic(spec)
        out.mkdir(parents=True, exist_ok=True)
        save_csv(ds, out / "data.csv")
        save_schema(ds.schema, out / "schema.csv")
    print(f"wrote {out / 'data.csv'} ({len(ds)} observations) and {out / 'schema.csv'}")
    return 0


def _cmd_encode(args) -> int:
    with _stage("data"):
        ds = load_dataset(args.data, args.schema)
        if not 0 <= args.row < len(ds):
            raise ValueError(f"row {args.row} outside 0..{len(ds) - 1}")
        vector = np.where(np.isnan(ds.values[args.row]), 0.0, ds.values[args.row])
    with _stage("encode"):
        spec = default_spec(args.method, ds.schema, seed=args.seed or 0)
        provenance = arrange(ds.schema, spec)
        cells = image(vector, provenance)
        out = Path(args.out or "out")
        out.mkdir(parents=True, exist_ok=True)
        stem = out / args.method
        save_grid(cells, provenance, f"{stem}_cells.csv", f"{stem}_provenance.csv")
        render_pgm(cells, f"{stem}.pgm")
    rows, cols = provenance.shape
    print(f"encoded row {args.row} as {rows}x{cols} {args.method} grid "
          f"({(provenance == ZERO_PAD).sum()} zero-pad cells) under {out}/")
    return 0


def _cmd_train(args) -> int:
    with _stage("config"):
        config = _experiment_config(args)
    with _stage("data"):
        ds = load_or_generate(config)
    with _stage("train"):
        pipe, record, _ = fit_pipeline(config, args.method, ds, config.train.seed,
                                       arrangement_seed=config.arrangement_seed)
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_pipeline(pipe, out / "model.npz")
        _write_metrics(out, record)
    print(f"{args.method}: test accuracy {record.accuracy:.3f}, "
          f"notch distance {fmt_stat(record.cond_notch)} -> {out / 'model.npz'}")
    return 0


def _write_metrics(out: Path, record: RunRecord) -> None:
    """One run's metrics.csv: its RunRecord less the run's place in a protocol."""
    write_table(out / "metrics.csv", RunRecord, [record],
                exclude=("run_index", "arrangement_seed", "train_seed"))


def _cmd_evaluate(args) -> int:
    with _stage("data"):
        ds = load_dataset(args.data, args.schema)
    with _stage("evaluate"):
        pipe = load_pipeline(args.model)
        record = evaluate_pipeline(pipe, ds, args.test_year)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            _write_metrics(out, record)
    print(f"{record.method}: accuracy {record.accuracy:.3f}, "
          f"abs notch {record.abs_notch:.3f}, cond notch {fmt_stat(record.cond_notch)} "
          f"on {record.n_test} observations")
    return 0


def _cmd_compare(args) -> int:
    with _stage("config"):
        config = _experiment_config(args)
    with _stage("data"):
        ds = load_or_generate(config)
    with _stage("train"):
        report = run_compare(config, ds)
    with _stage("report"):
        written = emit_report(report, config.output_dir)
    for row in report.rows:
        print(f"{row.method:>14}: "
              f"{fmt_stat(row.accuracy_mean, row.accuracy_stderr, bool(row.significant))}")
    print(f"report files: {', '.join(str(p) for p in written)}")
    return 0


def _cmd_grid_search(args) -> int:
    with _stage("config"):
        config = _experiment_config(args)
        for x in args.grid.split(","):
            if not x.strip().isdecimal() or int(x) < 1:
                raise ValueError(f"grid value {x!r} is not a positive integer")
        grid = [int(x) for x in args.grid.split(",")]
    with _stage("data"):
        ds = load_or_generate(config)
    with _stage("train"):
        pipe, tx, train_raw, test_raw = prepare_pipeline(
            config, args.model, ds, config.train, arrangement_seed=config.arrangement_seed)

        def builder(n1, n2):
            return classifier_spec(pipe.input_shape, filters1=n1, filters2=n2)

        best, rows = grid_search(builder, grid, (tx, train_raw.labels),
                                 (pipe.transform(test_raw), test_raw.labels), config.train)
    with _stage("report"):
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_table(out / "grid_search.csv", GridSearchRow, rows)
    print(f"best (neurons1, neurons2) = {best}; table -> {out / 'grid_search.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finimg",
        description="Image encodings of financial feature vectors and CNN comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--n-per-year", type=int, dest="n_per_year")
    p.add_argument("--years", help="first:last")
    p.add_argument("--kind", choices=tuple(SECTION_LABELS))
    p.add_argument("--features-per-section", type=int, dest="features_per_section")
    p.add_argument("--factor-strength", type=float, dest="factor_strength")
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("encode", help="image one observation and render it")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--method", required=True, choices=ARRANGEMENTS)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="train one method and checkpoint the pipeline")
    _add_common_flags(p)
    p.add_argument("--method", required=True, choices=ALL_METHODS)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpointed pipeline")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--test-year", type=int, dest="test_year")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="run the full encoding comparison protocol")
    _add_common_flags(p)
    p.add_argument("--methods", type=lambda s: s.split(","))
    p.add_argument("--runs", type=int, dest="randomization_runs", metavar="RUNS",
                   help="randomization runs per randomized method")
    p.add_argument("--training-seeds", type=int, dest="training_seeds")
    p.add_argument("--arrangement-seed", type=int, dest="arrangement_seed")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("grid-search", help="tune conv filter counts on a grid")
    _add_common_flags(p)
    p.add_argument("--model", default="sa", choices=DETERMINISTIC_METHODS + ("cnn1d",))
    p.add_argument("--grid", default="16,32,64,128")
    p.set_defaults(func=_cmd_grid_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
