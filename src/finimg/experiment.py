"""End-to-end experiment pipelines and report emission.

A method label names one pipeline: mlp and cnn1d consume the raw
standardized vector; sa/ra/cca/wcr/bcr/hva/hvr image it and train the 2D
CNN; reduced_hva drops missing-heavy features to a square Hilbert grid
with no padding; autoencoder_sa trains an auto-encoder on the training
inputs, images the codes sequentially, and classifies those.

fit_plan lists a protocol's fits. Randomized encodings are repeated
randomization_runs times with arrangement seeds arrangement_seed+0..runs-1
under one training seed, so run spread reflects the arrangement alone.
Deterministic encodings repeat over training seeds train.seed+0..
training_seeds-1 at arrangement seed 0, when ranking needs samples.

Every fit and every inference runs at one BLAS thread (nnet.lanes), so
a fit's bits depend on its config and data alone. On a machine with two
or more usable CPUs, run_compare runs a plan of two or more fits in
forked worker processes, one per CPU (run_pooled), which start with
numpy and finimg already imported.
"""
from __future__ import annotations

import hashlib
import json
import multiprocessing
import zipfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import (
    Dataset,
    StandardizationParams,
    apply_standardizer,
    fit_standardizer,
    load_dataset,
    out_of_time_split,
    standardize,
)
from .encoding import (
    CONTROLS,
    RANDOMIZED_METHODS,
    ZERO_PAD,
    arrange,
    default_spec,
    grid_tensor,
    hilbert_arrange,
    reduce_features,
    sequential_arrange,
)
from .metrics import (
    AllCorrectError,
    PredictionSet,
    accuracy,
    conditional_notch,
    expected_abs_notch,
    notch_frequency,
)
from .nnet import (
    ENCODER_LAYERS,
    MIN_SIDE,
    Network,
    NetworkSpec,
    SpecError,
    TrainConfig,
    build_autoencoder,
    build_cnn1d,
    build_cnn2d,
    build_mlp,
    network_arrays,
    network_from_arrays,
    save_arrays,
)
from .nnet.lanes import init_worker, one_blas_thread, usable_cpus
from .nnet.train import train
from .schema import N_CLASSES, write_rows
from .stats import (SIGNIFICANCE, ZeroVarianceError, one_sample_t_greater,
                    pairwise_t_bonferroni, summarize)
from .synthetic import SyntheticSpec, generate_synthetic

METHOD_TITLES = {
    "mlp": "MLP",
    "cnn1d": "1D CNN",
    "sa": "Sequential Arrangement (SA)",
    "ra": "Random Arrangement",
    "cca": "Category Chunk Arrangement (CCA)",
    "wcr": "Within Chunk Randomization",
    "bcr": "Between Chunk Randomization",
    "hva": "Hilbert Vector Arrangement (HVA)",
    "hvr": "Hilbert Vector Randomization",
    "reduced_hva": "Reduced-Zero Padding (HVA)",
    "autoencoder_sa": "Auto-encoder + SA",
}
ALL_METHODS = tuple(METHOD_TITLES)
RANDOMIZED = RANDOMIZED_METHODS
# Side-study method -> (the method it is compared with, report heading,
# the two column titles of its report table).
SIDE_STUDIES = {
    "reduced_hva": ("hva", "Reduced zero padding",
                    ("Reduced HVA accuracy", "Original HVA accuracy")),
    "autoencoder_sa": ("sa", "Auto-encoder study", ("Auto-encoder accuracy", "SA accuracy")),
}


class ExperimentError(ValueError):
    """Raised for invalid experiment configurations."""


class CheckpointError(ExperimentError, SpecError):
    """Every failure to load a checkpoint; the message names the file, and the key at fault."""


class SchemaMismatchError(ExperimentError):
    """A dataset whose schema is not the one a pipeline was fitted on."""


def _fits(value, tp) -> bool:
    """Whether a JSON value fits a field type; an int fits a float, a bool no number."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:
        return any(_fits(value, a) for a in args)
    if origin is tuple:  # tuple[T, ...], or a fixed-length tuple of one T
        return (isinstance(value, tuple) and (args[-1] is Ellipsis or len(value) == len(args))
                and all(_fits(v, args[0]) for v in value))
    if origin is dict:
        return isinstance(value, dict) and all(_fits(v, args[1]) for v in value.values())
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def _from_json(cls, raw, where: str = ""):
    """The dataclass a JSON object describes; its keys are fields of cls, and
    every field without a default.

    Each value must fit its field's type. Nested dataclasses are JSON
    objects and tuples are JSON arrays; errors name the dotted key, and a
    nested block's own check names the block.
    """
    if not isinstance(raw, dict):
        raise ExperimentError(f"{where.rstrip('.') or 'config'} must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ExperimentError("unknown key " + ", ".join(repr(where + k) for k in unknown))
    missing = [f.name for f in fields(cls) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ExperimentError("missing key " + ", ".join(repr(where + k) for k in missing))
    types = get_type_hints(cls)
    values = {}
    for key, value in raw.items():
        tp = types[key]
        nested = [t for t in get_args(tp) or (tp,) if is_dataclass(t)]
        if nested and isinstance(value, dict):
            value = _from_json(nested[0], value, f"{where}{key}.")
        elif isinstance(value, list):
            value = tuple(value)
        if not _fits(value, tp):
            name = tp.__name__ if isinstance(tp, type) else tp
            raise ExperimentError(f"{where}{key} must be {name}, got {value!r}")
        values[key] = value
    try:
        return cls(**values)
    except ValueError as exc:
        if not where:
            raise
        raise ExperimentError(f"{exc} (in {where.rstrip('.')!r})") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    data: str | None = None
    schema: str | None = None
    synthetic: SyntheticSpec | None = None
    test_year: int = 2016
    methods: tuple[str, ...] = tuple(m for m in ALL_METHODS if m not in SIDE_STUDIES)
    randomization_runs: int = 30
    training_seeds: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)
    arrangement_seed: int = 0
    autoencoder_code_dim: int | None = None
    output_dir: str = "out"

    def __post_init__(self):
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ExperimentError(f"unknown method {m!r}")
        if not self.methods:
            raise ExperimentError("no methods selected")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ExperimentError(f"methods lists {', '.join(map(repr, repeated))} more than once")
        for name in ("randomization_runs", "training_seeds", "arrangement_seed"):
            if getattr(self, name) < 0:
                raise ExperimentError(f"{name} must not be negative, got {getattr(self, name)}")
        if any(m in RANDOMIZED for m in self.methods) and self.randomization_runs < 2:
            raise ExperimentError("randomized methods need randomization_runs >= 2")
        if any(m not in RANDOMIZED for m in self.methods) and self.training_seeds < 1:
            raise ExperimentError("deterministic methods need training_seeds >= 1")
        if self.data is None and self.synthetic is None:
            raise ExperimentError("provide a data path or a synthetic spec")

    def to_json(self) -> str:
        raw = asdict(self)
        del raw["output_dir"]
        return json.dumps(raw, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> ExperimentConfig:
        """The config a JSON object describes; its keys are exactly the fields."""
        return _from_json(cls, raw)

    def config_hash(self) -> str:
        """Hash of to_json with the data and schema paths nulled: it names no file's location."""
        raw = json.loads(self.to_json()) | {"data": None, "schema": None}
        return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunRecord:
    method: str
    run_index: int
    arrangement_seed: int | None
    train_seed: int
    accuracy: float
    abs_notch: float
    cond_notch: float | None
    n_test: int


@dataclass(frozen=True)
class ReportRow:
    method: str
    accuracy_mean: float
    accuracy_stderr: float | None
    notch_mean: float | None
    notch_stderr: float | None
    n_runs: int
    p_vs_control: dict[str, float] = field(default_factory=dict)
    significant: bool | None = None


@dataclass(frozen=True)
class PairwiseP:
    """One pair of the Bonferroni ranking's p-value matrix."""

    method_a: str
    method_b: str
    p_value: float


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    records: dict[str, list[RunRecord]]
    config_hash: str
    seeds: dict[str, int]
    ranking_p: dict[tuple[str, str], float] | None = None
    ranking_text: str | None = None


def load_or_generate(config: ExperimentConfig) -> Dataset:
    if config.data is not None:
        if config.schema is None:
            raise ExperimentError("a data path needs a schema path")
        return load_dataset(config.data, config.schema)
    return generate_synthetic(config.synthetic)


def largest_square_target(d: int) -> int:
    """Largest 4**n not exceeding d."""
    if d < 4:
        raise ExperimentError(f"{d} features cannot fill any Hilbert square")
    return 4 ** ((d.bit_length() - 1) // 2)


def autoencoder_code_dim(config: ExperimentConfig, d: int) -> int:
    if config.autoencoder_code_dim is not None:
        return config.autoencoder_code_dim
    # Mirror the 332 -> 69 compression when the data is wide enough.
    return 69 if d > 69 else max(2, d // 2)


def _code_grid_shape(code_dim: int) -> tuple[int, int]:
    rows = max(MIN_SIDE, int(np.sqrt(code_dim)))
    cols = max(MIN_SIDE, -(-code_dim // rows))
    return rows, cols


@dataclass
class FittedPipeline:
    """Everything needed to map rows of the fitted schema (features) to class predictions."""

    method: str
    features: tuple[str, ...]
    keep: np.ndarray
    standardizer: StandardizationParams | None = None
    network: Network | None = None
    provenance: np.ndarray | None = None
    autoencoder: Network | None = None

    @property
    def input_shape(self) -> tuple[int, ...]:
        """The classifier's input shape (no batch axis)."""
        if self.provenance is not None:
            return (1, *self.provenance.shape)
        return (len(self.keep),) if self.method == "mlp" else (1, len(self.keep))

    @one_blas_thread()
    def transform(self, ds: Dataset) -> np.ndarray:
        values = standardize(ds.values, self.standardizer)[:, self.keep]
        if self.autoencoder is not None:  # its encoder half maps values to codes
            for layer in self.autoencoder.layers[:ENCODER_LAYERS]:
                values = layer.forward(values, False)
        if self.provenance is None:
            return values.reshape(len(values), *self.input_shape)
        return grid_tensor(values, self.provenance)


def _layout(config: ExperimentConfig, method: str, ds: Dataset, arrangement_seed: int,
            ) -> tuple[FittedPipeline, NetworkSpec | None]:
    """The part of a method that reads no data: it reads the schema alone.

    Returns the pipeline with its feature record, kept features and index
    map but nothing fitted, and the auto-encoder architecture
    (autoencoder_sa only). reduced_hva's kept features are fitted:
    prepare_pipeline picks them from the training rows.
    """
    if method not in ALL_METHODS:
        raise ExperimentError(f"unknown method {method!r}")
    d = len(ds.schema)
    pipe = FittedPipeline(method=method, features=ds.schema.names, keep=np.arange(d))
    autoencoder = None
    if method == "reduced_hva":
        pipe.provenance = hilbert_arrange(largest_square_target(d))
    elif method == "autoencoder_sa":
        code_dim = autoencoder_code_dim(config, d)
        autoencoder = build_autoencoder(d, code_dim)
        pipe.provenance = sequential_arrange(code_dim, *_code_grid_shape(code_dim))
    elif method not in ("mlp", "cnn1d"):
        pipe.provenance = arrange(ds.schema, default_spec(method, ds.schema, seed=arrangement_seed))
    return pipe, autoencoder


def prepare_pipeline(config: ExperimentConfig, method: str, ds: Dataset,
                     train_config: TrainConfig, arrangement_seed: int = 0,
                     ) -> tuple[FittedPipeline, np.ndarray, Dataset, Dataset]:
    """Everything before the classifier: split, standardize, encode.

    Returns the pipeline without its classifier network, the encoded
    training inputs, and the raw training and test splits (full schema).
    reduced_hva's kept features and the auto-encoder of autoencoder_sa are
    fitted here, on training rows only.
    """
    pipe, autoencoder = _layout(config, method, ds, arrangement_seed)
    train_raw, test_raw = out_of_time_split(ds, config.test_year)
    if len(train_raw) == 0:
        raise ExperimentError(f"no training data before {config.test_year}")
    if method == "reduced_hva":
        pipe.keep = reduce_features(train_raw, pipe.provenance.size)
    pipe.standardizer = fit_standardizer(train_raw)
    if autoencoder is not None:
        train_values = apply_standardizer(train_raw, pipe.standardizer).values
        pipe.autoencoder = train(autoencoder, train_values, train_values, train_config)
    return pipe, pipe.transform(train_raw), train_raw, test_raw


def classifier_spec(input_shape: tuple[int, ...], **filters) -> NetworkSpec:
    """The classifier for an encoded input shape (no batch axis), by its rank:
    a vector feeds the MLP, one channel of a vector the 1D CNN, an image the 2D CNN."""
    if len(input_shape) == 1:
        return build_mlp(input_shape[0])
    if len(input_shape) == 2:
        return build_cnn1d(input_shape[1], **filters)
    return build_cnn2d(*input_shape[1:], **filters)


def check_input_shapes(config: ExperimentConfig, ds: Dataset) -> None:
    """Build each configured method's networks from its input shape alone.

    Raises the builders' errors (such as InputTooSmallError) before any
    model is trained, so a method that cannot run costs no earlier fits.
    """
    for method in config.methods:
        pipe, _ = _layout(config, method, ds, config.arrangement_seed)
        classifier_spec(pipe.input_shape)


def fit_pipeline(config: ExperimentConfig, method: str, ds: Dataset,
                 train_seed: int, arrangement_seed: int = 0,
                 ) -> tuple[FittedPipeline, RunRecord, int]:
    """Split, standardize, encode, and train one model; also evaluates it.

    Returns the fitted pipeline, the test-set record for this run, and
    the run's arrangement seed (meaningful for randomized methods only).
    """
    train_config = replace(config.train, seed=train_seed)
    pipe, train_x, train_raw, test_raw = prepare_pipeline(
        config, method, ds, train_config, arrangement_seed)
    pipe.network = train(classifier_spec(pipe.input_shape), train_x, train_raw.labels,
                         train_config)
    record = evaluate_pipeline(pipe, test_raw)
    if method in RANDOMIZED:
        record = replace(record, arrangement_seed=arrangement_seed)
    return pipe, record, arrangement_seed


@dataclass(frozen=True)
class _Meta:
    """A checkpoint's meta_json; one without features predates feature records."""

    method: str
    features: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise ExperimentError(f"unknown method {self.method!r}")


def save_pipeline(pipe: FittedPipeline, path: str | Path) -> None:
    """Checkpoint the whole pipeline (standardizer, arrangement, networks)."""
    payload = {
        "meta_json": np.array(json.dumps(asdict(_Meta(pipe.method, pipe.features)),
                                         sort_keys=True)),
        "keep": pipe.keep,
        "mean": pipe.standardizer.mean,
        "stddev": pipe.standardizer.stddev,
        **network_arrays(pipe.network, "net_"),
    }
    if pipe.provenance is not None:
        payload["provenance"] = pipe.provenance
    if pipe.autoencoder is not None:
        payload.update(network_arrays(pipe.autoencoder, "ae_"))
    save_arrays(path, payload)


class _Checkpoint(dict):
    """A checkpoint's arrays by key; reading a missing key names the key."""

    def __missing__(self, key: str):
        raise ExperimentError(f"has no key {key!r}")


def load_pipeline(path: str | Path) -> FittedPipeline:
    """The pipeline a checkpoint holds; every failure raises CheckpointError naming the file."""
    try:
        with open(path, "rb") as handle:
            # np.load reads a file without the npz or npy magic as a pickle.
            if not zipfile.is_zipfile(handle):
                raise ValueError("not a zip archive")
            handle.seek(0)  # is_zipfile leaves it at the archive's end record
            with np.load(handle, allow_pickle=False) as archive:
                data = _Checkpoint(archive)
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: not an npz checkpoint: {exc}") from None
    try:
        try:
            meta = _from_json(_Meta, json.loads(str(data["meta_json"])), "meta_json.")
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"key 'meta_json' is not JSON: {exc}") from None
        if meta.features is None:
            raise ExperimentError("records no feature names; retrain it")
        network = network_from_arrays(data, "net_")
        autoencoder = network_from_arrays(data, "ae_") if meta.method == "autoencoder_sa" else None
        provenance = None if meta.method in ("mlp", "cnn1d") else data["provenance"]
        pipe = FittedPipeline(meta.method, meta.features, data["keep"],
                              StandardizationParams(data["mean"], data["stddev"]), network,
                              provenance, autoencoder)
        _check_pipeline(pipe)
    except (ExperimentError, SpecError) as exc:
        raise CheckpointError(f"{path}: checkpoint {exc}") from None
    return pipe


def _check_pipeline(pipe: FittedPipeline) -> None:
    """Check a loaded pipeline's arrays against its features; name the key."""
    def fail(key: str, detail: str):
        raise ExperimentError(f"key {key!r} {detail}")

    d, keep = len(pipe.features), pipe.keep
    if keep.ndim != 1 or keep.dtype.kind not in "iu":
        fail("keep", f"must be a 1-D integer array, got {keep.dtype} of shape {keep.shape}")
    outside = keep[(keep < 0) | (keep >= d)]
    if outside.size:
        fail("keep", f"holds {outside[0]}, outside the {d} features")
    if len(np.unique(keep)) != len(keep):
        fail("keep", "repeats a feature")
    for key, values in vars(pipe.standardizer).items():  # mean, stddev
        if values.shape != (d,):
            fail(key, f"has shape {values.shape}, not ({d},)")
        if values.dtype.kind != "f" or not np.isfinite(values).all():
            fail(key, "holds an entry that is not a finite float")
    if not np.all(pipe.standardizer.stddev > 0):
        fail("stddev", "holds an entry that is not positive")
    inputs = len(keep)
    if pipe.autoencoder is not None:  # it encodes the kept features; the map places the codes
        codes = int((pipe.provenance != ZERO_PAD).sum())
        if not 1 <= codes < inputs or pipe.autoencoder.spec != build_autoencoder(inputs, codes):
            fail("ae_spec_json", f"is not the auto-encoder of {inputs} kept features "
                                 f"to the map's {codes} codes")
        inputs = codes
    if pipe.provenance is not None:
        cells = pipe.provenance[pipe.provenance != ZERO_PAD]
        if pipe.provenance.dtype.kind not in "iu" or not np.array_equal(
                np.sort(cells), np.arange(inputs)):
            fail("provenance", f"is not a one-to-one map of {inputs} inputs plus {ZERO_PAD}s")
    if pipe.network.spec.input_shape != pipe.input_shape:
        fail("net_spec_json", f"takes input {pipe.network.spec.input_shape}, "
                              f"the encoding gives {pipe.input_shape}")
    outputs = pipe.network.spec.layer_shapes()[-1]
    if outputs != (N_CLASSES,):
        fail("net_spec_json", f"outputs {outputs}, not the {N_CLASSES} rating classes")


def evaluate_pipeline(pipe: FittedPipeline, ds: Dataset,
                      test_year: int | None = None) -> RunRecord:
    """Metrics of a saved pipeline on a dataset of its schema (optionally one year)."""
    names = ds.schema.names
    if len(names) != len(pipe.features):
        raise SchemaMismatchError(f"the pipeline was fitted on {len(pipe.features)} features, "
                                  f"the dataset has {len(names)}")
    for i, (given, fitted) in enumerate(zip(names, pipe.features)):
        if given != fitted:
            raise SchemaMismatchError(f"feature {i} is {given!r} in the dataset, "
                                      f"{fitted!r} in the fitted pipeline")
    if test_year is not None:
        mask = ds.years == test_year
        if not mask.any():
            raise ExperimentError(f"no observations in year {test_year}")
        ds = ds.take(mask)
    pset = PredictionSet(ds.labels, pipe.network.predict_classes(pipe.transform(ds)))
    dist = notch_frequency(pset)
    try:
        cond = conditional_notch(dist)
    except AllCorrectError:
        cond = None
    return RunRecord(pipe.method, 0, None, pipe.network.seed, accuracy(pset),
                     expected_abs_notch(dist), cond, len(pset))


def fit_plan(config: ExperimentConfig) -> list[tuple[str, int, int, int]]:
    """Every fit of the protocol in report order, as (method, run_index,
    train_seed, arrangement_seed), by the seed rule of the module docstring."""
    seed, first = config.train.seed, config.arrangement_seed
    return [(m, i, seed, first + i) if m in RANDOMIZED else (m, i, seed + i, 0)
            for m in config.methods
            for i in range(config.randomization_runs if m in RANDOMIZED else config.training_seeds)]


def _mean_stderr(values: list[float]) -> tuple[float, float | None]:
    if len(values) == 1:
        return values[0], None
    s = summarize(values)
    return s.mean, s.stderr


def pool_size(n_fits: int) -> int:
    """Processes for n_fits fits: one per usable CPU, at most one per fit."""
    return max(1, min(usable_cpus(), n_fits))


def run_pooled(fn, tasks: list[tuple], workers: int) -> list:
    """fn(*task) for each task in forked worker processes that run numpy
    at one BLAS thread and one row lane; results in task order.

    A forked worker starts with the parent's modules imported, so it pays
    no interpreter start or import and does not re-run the calling script:
    a script needs no `if __name__ == "__main__":` guard. The workers are
    forked before the executor starts its manager thread. Each task's
    arguments travel with its call. A worker that dies breaks the pool
    with an ExperimentError. The first task in order that raises
    re-raises here; pending tasks are cancelled and every worker has
    exited when this returns or raises. fn must be a module-level
    function: it is pickled by name.
    """
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=init_worker)
    try:
        futures = [pool.submit(fn, *task) for task in tasks]
        try:
            return [f.result() for f in futures]
        except BrokenProcessPool as exc:
            raise ExperimentError("a worker process died before its fits were done") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _fit_record(config: ExperimentConfig, ds: Dataset, method: str, run_index: int,
                train_seed: int, arrangement_seed: int) -> RunRecord:
    """The test-set record of one fit_plan entry."""
    _, record, _ = fit_pipeline(config, method, ds, train_seed, arrangement_seed)
    return replace(record, run_index=run_index)


def run_compare(config: ExperimentConfig, ds: Dataset | None = None) -> ExperimentReport:
    """The full protocol: every configured method, significance, ranking.

    The fits run in pool_size(fits) processes: in this process when that
    is 1, else through run_pooled.
    """
    plan = fit_plan(config)
    if ds is None:
        ds = load_or_generate(config)
    check_input_shapes(config, ds)
    n = pool_size(len(plan))
    if n == 1:
        fitted = [_fit_record(config, ds, *entry) for entry in plan]
    else:
        fitted = run_pooled(_fit_record, [(config, ds, *entry) for entry in plan], n)
    records: dict[str, list[RunRecord]] = {method: [] for method in config.methods}
    for record in fitted:
        records[record.method].append(record)

    rows = []
    for method in config.methods:
        recs = records[method]
        accs = [r.accuracy for r in recs]
        conds = [r.cond_notch for r in recs if r.cond_notch is not None]
        if method in RANDOMIZED:
            acc_mean, acc_se = _mean_stderr(accs)
            notch_mean, notch_se = _mean_stderr(conds) if conds else (None, None)
            rows.append(ReportRow(method, acc_mean, acc_se, notch_mean, notch_se, len(recs)))
        else:
            headline = recs[0]
            p_vs = {}
            for control in CONTROLS.get(method, ()):
                control_accs = [r.accuracy for r in records.get(control, ())]
                if len(control_accs) >= 2:
                    try:
                        _, p_vs[control] = one_sample_t_greater(control_accs, headline.accuracy)
                    except ZeroVarianceError:
                        pass  # degenerate control sample, no verdict
            significant = all(p < SIGNIFICANCE for p in p_vs.values()) if p_vs else None
            rows.append(ReportRow(
                method, headline.accuracy, None, headline.cond_notch, None,
                len(recs), p_vs, significant))

    ranking_p = ranking_text = None
    ranked = [m for m in CONTROLS if m in records and len(records[m]) >= 2]
    if len(ranked) >= 2:
        groups = {m: [r.accuracy for r in records[m]] for m in ranked}
        p_matrix, grouping = pairwise_t_bonferroni(groups)
        ranking_p = p_matrix
        ranking_text = grouping.as_text()

    return ExperimentReport(
        rows=rows,
        records=records,
        config_hash=config.config_hash(),
        seeds={"train": config.train.seed, "arrangement": config.arrangement_seed},
        ranking_p=ranking_p,
        ranking_text=ranking_text,
    )


def fmt_stat(value: float | None, stderr: float | None = None, star: bool = False) -> str:
    """A value to 3 decimals, its stderr in parentheses, `*` if starred; n/a if None."""
    if value is None:
        return "n/a"
    text = f"{value:.3f}"
    if stderr is not None:
        text += f" ({stderr:.3f})"
    if star:
        text += "*"
    return text


def _cell(value) -> str:
    """The one cell rule of every CSV table."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, dict):
        return ";".join(f"{k}:{v:.6f}" for k, v in sorted(value.items()))
    return str(value)


def write_table(path: str | Path, cls, rows, exclude: tuple[str, ...] = ()) -> Path:
    """Write dataclass rows as CSV: one column per field of cls not in exclude."""
    names = [f.name for f in fields(cls) if f.name not in exclude]
    write_rows(path, [names, *([_cell(getattr(row, n)) for n in names] for row in rows)])
    return Path(path)


def emit_report(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write report.csv, runs.csv, report.md and (with a ranking) pairwise_p.csv;
    byte-deterministic for identical inputs."""
    if not report.rows:
        raise ExperimentError("report has no rows")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = [r for method in sorted(report.records) for r in report.records[method]]
    written = [write_table(out / "report.csv", ReportRow, report.rows),
               write_table(out / "runs.csv", RunRecord, runs)]

    lines = [
        "# Encoding method comparison",
        "",
        f"Config hash: `{report.config_hash}`; seeds: {json.dumps(report.seeds, sort_keys=True)}",
        "",
        "| Method | Accuracy | Notch Distance |",
        "| --- | --- | --- |",
    ]
    for row in report.rows:
        star = bool(row.significant)
        title = METHOD_TITLES.get(row.method, row.method)
        lines.append(
            f"| {title} | {fmt_stat(row.accuracy_mean, row.accuracy_stderr, star)} "
            f"| {fmt_stat(row.notch_mean, row.notch_stderr)} |"
        )
    lines.append("")
    lines.append("`*` marks encodings one-sidedly above their randomized control "
                 f"at p < {SIGNIFICANCE}.")
    if report.ranking_text:
        lines += ["", f"Ranking groups (Bonferroni-adjusted): {report.ranking_text}"]
    for study, (baseline, heading, titles) in SIDE_STUDIES.items():
        if study in report.records and baseline in report.records:
            accs = (report.records[study][0].accuracy, report.records[baseline][0].accuracy)
            lines += ["", f"## {heading}", "", "| {} | {} |".format(*titles), "| --- | --- |",
                      "| {} | {} |".format(*map(fmt_stat, accs))]
    path = out / "report.md"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    if report.ranking_p is not None:
        labels = sorted({a for a, _ in report.ranking_p})
        pairs = [PairwiseP(a, b, report.ranking_p[(a, b)])
                 for a in labels for b in labels if a < b]
        written.append(write_table(out / "pairwise_p.csv", PairwiseP, pairs))
    return written
