import importlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finimg import experiment
from finimg.data import Dataset
from finimg.encoding import ZERO_PAD
from finimg.experiment import (
    ALL_METHODS,
    CheckpointError,
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    ReportRow,
    RunRecord,
    autoencoder_code_dim,
    emit_report,
    evaluate_pipeline,
    fit_pipeline,
    fit_plan,
    grid_tensor,
    largest_square_target,
    load_pipeline,
    pool_size,
    run_compare,
    run_pooled,
    save_pipeline,
)
from finimg.nnet import (DivergenceError, InputTooSmallError, Network, NetworkSpec,
                         TrainConfig, network_arrays, save_arrays)
from finimg.nnet.network import dense
from finimg.schema import FUNDAMENTAL_SECTIONS, SECTION_LABELS
from finimg.synthetic import SyntheticSpec, generate_synthetic

# Multi-fit run_compare calls run in process unless a test asks for two CPUs.
pytestmark = pytest.mark.usefixtures("one_cpu")

SMALL = {s: 11 for s in FUNDAMENTAL_SECTIONS}  # 66 features, reduced target 64


def small_spec(**kw):
    defaults = dict(n_per_year=60, years=(2014, 2016), section_counts=SMALL,
                    factor_strength=0.9, noise=1.0, seed=0)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


def small_config(**kw):
    defaults = dict(
        synthetic=small_spec(),
        test_year=2016,
        methods=("cca", "wcr"),
        randomization_runs=2,
        training_seeds=1,
        train=TrainConfig(epochs=1, batch_size=64, seed=0),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(small_spec())


def test_config_validation():
    with pytest.raises(ExperimentError):
        small_config(methods=("nope",))
    with pytest.raises(ExperimentError):
        small_config(methods=())
    with pytest.raises(ExperimentError):
        small_config(methods=("ra",), randomization_runs=1)
    with pytest.raises(ExperimentError):
        ExperimentConfig(data=None, synthetic=None)


@pytest.mark.parametrize("build, message", [
    (lambda: small_config(methods=("cca", "wcr", "cca")), "methods lists 'cca' more than once"),
    (lambda: small_config(training_seeds=0), "deterministic methods need training_seeds >= 1"),
    (lambda: small_config(arrangement_seed=-3), "arrangement_seed must not be negative, got -3"),
    (lambda: TrainConfig(seed=-1), "seed must not be negative, got -1"),
    (lambda: small_spec(seed=-2), "seed must not be negative, got -2"),
    # Negative counts fail whether or not a listed method reads them.
    (lambda: small_config(methods=("mlp",), randomization_runs=-1),
     "randomization_runs must not be negative, got -1"),
    (lambda: small_config(methods=("cca", "wcr"), randomization_runs=-1),
     "randomization_runs must not be negative, got -1"),
    (lambda: small_config(methods=("wcr", "bcr"), training_seeds=-1),
     "training_seeds must not be negative, got -1"),
    (lambda: small_config(methods=("cca",), training_seeds=-1),
     "training_seeds must not be negative, got -1"),
], ids=["repeated_method", "no_training_seeds", "arrangement_seed", "train_seed",
        "synthetic_seed", "negative_unused_runs", "negative_runs", "negative_unused_seeds",
        "negative_seeds"])
def test_config_rejects_bad_protocol_settings_naming_the_field(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("raw, message", [
    ({"synthetic": {"seed": -2}}, "seed must not be negative, got -2 (in 'synthetic')"),
    ({"synthetic": {}, "train": {"seed": -2}}, "seed must not be negative, got -2 (in 'train')"),
], ids=["synthetic", "train"])
def test_config_errors_of_a_nested_block_name_the_block(raw, message):
    with pytest.raises(ExperimentError) as info:
        ExperimentConfig.from_dict(raw)
    assert str(info.value) == message


def test_training_seeds_are_unused_by_randomized_methods():
    # Only deterministic methods repeat over training seeds.
    assert small_config(methods=("wcr", "bcr"), training_seeds=0).training_seeds == 0


def test_config_hash_stable_and_sensitive():
    a = small_config()
    b = small_config()
    assert a.config_hash() == b.config_hash()
    c = small_config(randomization_runs=3)
    assert a.config_hash() != c.config_hash()


# The config JSON is hashed into every report, so its exact bytes are pinned.
PLAIN_CONFIG_JSON = (
    '{"arrangement_seed": 0, "autoencoder_code_dim": null, "data": "d.csv", "methods": '
    '["mlp", "cnn1d", "sa", "ra", "cca", "wcr", "bcr", "hva", "hvr"], "randomization_runs": 30, '
    '"schema": "s.csv", "synthetic": null, "test_year": 2016, "train": {"batch_size": 32, '
    '"epochs": 100, "learning_rate": 0.001, "optimizer": "adam", "seed": 0}, "training_seeds": 1}'
)
SYNTHETIC_CONFIG_JSON = (
    '{"arrangement_seed": 2, "autoencoder_code_dim": 9, "data": null, "methods": '
    '["mlp", "hva", "hvr"], "randomization_runs": 3, "schema": null, "synthetic": '
    '{"factor_strength": 0.9, "kind": "ratio", "n_per_year": 30, "noise": 1.0, '
    '"section_counts": {"capitalization": 1, "efficiency": 1, "financial_soundness": 1, '
    '"liquidity": 1, "other": 3, "profitability": 1, "solvency": 1, "valuation": 2}, '
    '"seed": 4, "years": [2014, 2016]}, '
    '"test_year": 2016, "train": {"batch_size": 8, "epochs": 3, "learning_rate": 0.01, '
    '"optimizer": "sgd", "seed": 5}, "training_seeds": 2}'
)


RATIO_COUNTS = {"valuation": 2, "profitability": 1, "capitalization": 1, "financial_soundness": 1,
                "solvency": 1, "liquidity": 1, "efficiency": 1, "other": 3}


def test_config_json_and_hash_are_pinned():
    plain = ExperimentConfig(data="d.csv", schema="s.csv")
    synthetic = ExperimentConfig(
        synthetic=SyntheticSpec(n_per_year=30, years=(2014, 2016), kind="ratio", seed=4,
                                section_counts=RATIO_COUNTS),
        methods=("mlp", "hva", "hvr"), randomization_runs=3, training_seeds=2,
        train=TrainConfig(learning_rate=0.01, epochs=3, batch_size=8, seed=5, optimizer="sgd"),
        arrangement_seed=2, autoencoder_code_dim=9, output_dir="elsewhere")
    assert plain.to_json() == PLAIN_CONFIG_JSON
    assert plain.config_hash() == "a42c53411c80bd38"  # the paths are not hashed
    moved = ExperimentConfig(data="elsewhere/d.csv", schema="elsewhere/s.csv")
    assert moved.to_json() != PLAIN_CONFIG_JSON and moved.config_hash() == plain.config_hash()
    assert synthetic.to_json() == SYNTHETIC_CONFIG_JSON
    assert synthetic.config_hash() == "3193eb93a63947bb"


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(tuple(SECTION_LABELS)))
    synthetic = draw(st.none() | st.builds(
        SyntheticSpec,
        n_per_year=st.integers(12, 5000),
        years=st.tuples(st.integers(1990, 2010), st.integers(2010, 2030)),
        kind=st.just(kind),
        section_counts=st.none() | st.fixed_dictionaries(
            {s: st.integers(1, 90) for s in SECTION_LABELS[kind]}),
        factor_strength=st.floats(0.0, 1.0),
        noise=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    ))
    path = st.text(max_size=12)
    return ExperimentConfig(
        data=draw(path if synthetic is None else st.none() | path),
        schema=draw(st.none() | path),
        synthetic=synthetic,
        test_year=draw(st.integers(1990, 2030)),
        methods=tuple(draw(st.lists(st.sampled_from(ALL_METHODS), min_size=1, unique=True))),
        randomization_runs=draw(st.integers(2, 100)),
        training_seeds=draw(st.integers(1, 10)),
        train=draw(st.builds(
            TrainConfig,
            learning_rate=st.floats(0.0, 1.0),
            epochs=st.integers(0, 1000),
            batch_size=st.integers(1, 1024),
            seed=st.integers(0, 2**32 - 1),
            optimizer=st.sampled_from(("sgd", "adam")),
        )),
        arrangement_seed=draw(st.integers(0, 2**32 - 1)),
        autoencoder_code_dim=draw(st.none() | st.integers(1, 400)),
    )


@settings(max_examples=60, deadline=None)
@given(configs())
def test_config_from_dict_inverts_to_json(config):
    assert ExperimentConfig.from_dict(json.loads(config.to_json())) == config


@pytest.mark.parametrize("raw, message", [
    ({"synthetic": {"n_per_year": "40"}}, "synthetic.n_per_year must be int, got '40'"),
    ({"data": "d.csv", "test_year": True}, "test_year must be int, got True"),
    ({"data": "d.csv", "methods": ["mlp", 3]}, "methods must be tuple[str, ...], got ('mlp', 3)"),
    ({"synthetic": {"years": [2014]}}, "synthetic.years must be tuple[int, int], got (2014,)"),
    ({"data": "d.csv", "train": {"learning_rate": "0.1"}},
     "train.learning_rate must be float, got '0.1'"),
    ({"synthetic": {"section_counts": {"valuation": 2.5}}},
     "synthetic.section_counts must be dict[str, int] | None, got {'valuation': 2.5}"),
])
def test_config_from_dict_rejects_values_of_the_wrong_type(raw, message):
    with pytest.raises(ExperimentError) as info:
        ExperimentConfig.from_dict(raw)
    assert str(info.value) == message


def test_config_from_dict_accepts_an_int_for_a_float():
    config = ExperimentConfig.from_dict({"data": "d.csv", "train": {"learning_rate": 1}})
    assert config.train.learning_rate == 1.0


@pytest.mark.parametrize("spec", [
    small_spec(n_per_year=24, years=(2015, 2016),
               section_counts={s: 16 for s in FUNDAMENTAL_SECTIONS}),
    small_spec(n_per_year=24, years=(2015, 2016), kind="ratio", section_counts=None),
], ids=["chunky96", "ratio69"])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_layout_input_shape_is_the_training_input_shape(spec, method):
    ds = generate_synthetic(spec)
    config = small_config(synthetic=spec, methods=(method,), arrangement_seed=5)
    pipe, _ = experiment._layout(config, method, ds, config.arrangement_seed)
    _, train_x, train_raw, _ = experiment.prepare_pipeline(
        config, method, ds, config.train, config.arrangement_seed)
    assert train_x.shape == (len(train_raw), *pipe.input_shape)
    assert experiment.classifier_spec(pipe.input_shape).input_shape == pipe.input_shape


@pytest.mark.parametrize("method", ALL_METHODS)
def test_every_network_runs_its_spec_one_layer_per_entry(method, dataset):
    config = small_config(methods=(method,))
    pipe, autoencoder = experiment._layout(config, method, dataset, 0)
    for spec in (experiment.classifier_spec(pipe.input_shape), autoencoder):
        if spec is not None:
            names = [l.name for l in Network(spec, 0).layers]
            kinds = [{"activation": "relu"}.get(l.kind, l.kind) for l in spec.layers]
            assert len(names) == len(kinds)
            assert all(name.startswith(kind) for name, kind in zip(names, kinds)), names


def test_benchmark_tracer_finds_every_wrapped_name(monkeypatch):
    """The benchmark's tracer wraps names bound on finimg modules; each must exist."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = (experiment.emit_report, experiment.fit_pipeline, experiment.train)
    with tracing.Tracer().installed():
        assert experiment.emit_report is not originals[0]
    assert (experiment.emit_report, experiment.fit_pipeline, experiment.train) == originals


def test_grid_tensor_places_values_and_pads():
    from finimg.encoding import sequential_arrange

    values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    images = grid_tensor(values, sequential_arrange(3, 2, 2))
    assert images.shape == (2, 1, 2, 2)
    assert images[0, 0].tolist() == [[1.0, 2.0], [3.0, 0.0]]
    assert images[1, 0].tolist() == [[4.0, 5.0], [6.0, 0.0]]


def test_largest_square_target():
    assert largest_square_target(332) == 256
    assert largest_square_target(69) == 64
    assert largest_square_target(64) == 64
    assert largest_square_target(4) == 4
    with pytest.raises(ExperimentError):
        largest_square_target(3)


def test_autoencoder_code_dim_defaults():
    assert autoencoder_code_dim(small_config(), 332) == 69
    assert autoencoder_code_dim(small_config(), 66) == 33
    assert autoencoder_code_dim(small_config(autoencoder_code_dim=16), 332) == 16


def test_run_method_randomized_produces_runs_records(dataset):
    config = small_config(methods=("wcr",), randomization_runs=3)
    records = run_compare(config, dataset).records["wcr"]
    assert len(records) == 3
    assert [r.run_index for r in records] == [0, 1, 2]
    assert [r.arrangement_seed for r in records] == [0, 1, 2]
    assert len({r.accuracy for r in records}) > 1  # arrangements actually differ


def test_run_method_deterministic_repeatable(dataset):
    config = small_config(methods=("cca",))
    a = run_compare(config, dataset).records["cca"]
    b = run_compare(config, dataset).records["cca"]
    assert [r.accuracy for r in a] == [r.accuracy for r in b]


def test_run_method_training_seeds(dataset):
    config = small_config(methods=("sa",), training_seeds=2)
    records = run_compare(config, dataset).records["sa"]
    assert len(records) == 2
    assert [r.train_seed for r in records] == [0, 1]


@pytest.mark.parametrize("method", ["mlp", "cnn1d", "sa", "hva", "reduced_hva",
                                    "autoencoder_sa"])
def test_every_method_runs(method, dataset):
    config = small_config(methods=(method,))
    records = run_compare(config, dataset).records[method]
    assert len(records) == 1
    assert 0.0 <= records[0].accuracy <= 1.0
    assert records[0].n_test == 60


def test_reduced_pipeline_has_no_padding(dataset):
    config = small_config()
    pipe, record, _ = fit_pipeline(config, "reduced_hva", dataset, train_seed=0)
    assert pipe.provenance.shape == (8, 8)
    assert (pipe.provenance != ZERO_PAD).all()
    assert pipe.keep.shape == (64,)


def test_no_test_leakage_in_standardizer_and_autoencoder(dataset):
    config = small_config()
    pipe_a, _, _ = fit_pipeline(config, "autoencoder_sa", dataset, train_seed=0)
    # corrupt every test-year row; training artifacts must not move
    values = dataset.values.copy()
    values[dataset.years == 2016] *= 1000.0
    mutated = Dataset(
        schema=dataset.schema,
        entity_ids=dataset.entity_ids,
        years=dataset.years,
        quarters=dataset.quarters,
        values=values,
        labels=dataset.labels,
    )
    pipe_b, _, _ = fit_pipeline(config, "autoencoder_sa", mutated, train_seed=0)
    assert np.array_equal(pipe_a.standardizer.mean, pipe_b.standardizer.mean)
    assert np.array_equal(pipe_a.standardizer.stddev, pipe_b.standardizer.stddev)
    for a, b in zip(pipe_a.autoencoder.parameters(), pipe_b.autoencoder.parameters()):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(pipe_a.network.parameters(), pipe_b.network.parameters()):
        assert a.tobytes() == b.tobytes()


def test_reduced_hva_keeps_features_chosen_from_the_training_years(dataset):
    # The test year is unseen at fitting time, so its missing cells must not
    # decide which features are kept.
    config = small_config()
    values = dataset.values.copy()
    values[np.ix_(dataset.years == 2016, [1, 2, 3])] = np.nan
    blanked = replace(dataset, values=values)
    kept = [experiment.prepare_pipeline(config, "reduced_hva", ds, config.train)[0].keep
            for ds in (dataset, blanked)]
    assert np.array_equal(kept[0], np.arange(64))
    assert np.array_equal(kept[1], kept[0])
    # Blanks in the training years still drop their features.
    values[np.ix_(dataset.years == 2014, [1, 2])] = np.nan
    pipe, *_ = experiment.prepare_pipeline(config, "reduced_hva", replace(dataset, values=values),
                                           config.train)
    assert np.array_equal(pipe.keep, np.delete(np.arange(66), [1, 2]))


def test_pipeline_checkpoint_roundtrip(tmp_path, dataset):
    config = small_config()
    for method in ALL_METHODS:
        pipe, record, _ = fit_pipeline(config, method, dataset, train_seed=0)
        path = tmp_path / f"{method}.npz"
        save_pipeline(pipe, path)
        back = load_pipeline(path)
        assert back.method == method
        assert back.features == pipe.features == dataset.schema.names
        x_back, x = back.transform(dataset), pipe.transform(dataset)
        assert np.array_equal(back.network.predict_classes(x_back), pipe.network.predict_classes(x))
        assert np.array_equal(back.network.predict(x_back), pipe.network.predict(x))
        again = evaluate_pipeline(back, dataset, test_year=2016)
        assert again.accuracy == record.accuracy
        assert again.n_test == record.n_test


def test_no_method_keeps_layer_state_after_training_or_inference(dataset):
    def holders(pipe):
        nets = (pipe.network, pipe.autoencoder)
        return [layer.name for net in nets if net for layer in net.layers
                if layer._saved is not None]

    for method in ALL_METHODS:
        pipe, _, _ = fit_pipeline(small_config(), method, dataset, train_seed=0)
        assert holders(pipe) == [], method  # trained, then scored on the test year
        x = pipe.transform(dataset)
        assert holders(pipe) == [], method
        pipe.network.loss_and_grad(x[:5], dataset.labels[:5], rng=np.random.default_rng(0))
        assert holders(pipe) == [], method
        pipe.network.predict(x)
        assert holders(pipe) == [], method


def test_fit_plan_lists_every_fit_in_report_order():
    config = small_config(methods=("wcr", "sa", "cca"), randomization_runs=2, training_seeds=2,
                          arrangement_seed=5, train=TrainConfig(epochs=1, seed=7))
    assert fit_plan(config) == [
        ("wcr", 0, 7, 5), ("wcr", 1, 7, 6),
        ("sa", 0, 7, 0), ("sa", 1, 8, 0),
        ("cca", 0, 7, 0), ("cca", 1, 8, 0),
    ]


def test_evaluate_rejects_a_dataset_of_another_schema(dataset):
    pipe, _, _ = fit_pipeline(small_config(), "cca", dataset, train_seed=0)
    features = list(dataset.schema.features)
    features[7] = ("renamed", features[7][1])
    renamed = replace(dataset, schema=replace(dataset.schema, features=tuple(features)))
    name = dataset.schema.names[7]
    with pytest.raises(ExperimentError,
                       match=f"feature 7 is 'renamed' in the dataset, '{name}' in the fitted"):
        evaluate_pipeline(pipe, renamed)


def test_run_compare_report_structure(dataset):
    config = small_config(methods=("mlp", "sa", "cca", "wcr"), randomization_runs=2)
    report = run_compare(config, dataset)
    by_method = {row.method: row for row in report.rows}
    assert set(by_method) == {"mlp", "sa", "cca", "wcr"}
    # randomized rows carry stderr over exactly `runs` records
    assert by_method["wcr"].n_runs == 2
    assert by_method["wcr"].accuracy_stderr is not None
    assert len(report.records["wcr"]) == 2
    # deterministic rows carry no stderr; cca is tested against wcr only
    assert by_method["cca"].accuracy_stderr is None
    assert set(by_method["cca"].p_vs_control) == {"wcr"}
    assert by_method["sa"].p_vs_control == {}  # ra not in the method list
    assert by_method["sa"].significant is None
    assert by_method["mlp"].p_vs_control == {}


def test_control_pairing(dataset):
    config = small_config(
        methods=("sa", "ra", "cca", "wcr", "bcr", "hva", "hvr"),
        randomization_runs=3,
        train=TrainConfig(epochs=2, batch_size=64, seed=0),
    )
    report = run_compare(config, dataset)
    by_method = {row.method: row for row in report.rows}
    assert set(by_method["sa"].p_vs_control) == {"ra"}
    assert set(by_method["cca"].p_vs_control) == {"wcr", "bcr"}
    assert set(by_method["hva"].p_vs_control) == {"hvr"}
    for m in ("ra", "wcr", "bcr", "hvr"):
        assert by_method[m].p_vs_control == {}


def test_run_compare_ranking_produced_with_training_seeds(dataset):
    config = small_config(methods=("sa", "cca"), training_seeds=2)
    report = run_compare(config, dataset)
    assert report.ranking_text is not None
    assert ("sa" in report.ranking_text) and ("cca" in report.ranking_text)
    assert report.ranking_p is not None


def test_emit_report_files_and_determinism(tmp_path, dataset):
    config = small_config(methods=("cca", "wcr"), randomization_runs=2)
    report = run_compare(config, dataset)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    emit_report(report, out_a)
    emit_report(report, out_b)
    for name in ("report.csv", "report.md", "runs.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    text = (out_a / "report.md").read_text()
    assert "| Category Chunk Arrangement (CCA) |" in text
    # randomized row renders as mean (stderr) to 3 decimals
    assert "(" in text.split("Within Chunk Randomization")[1].splitlines()[0]
    runs_lines = (out_a / "runs.csv").read_text().splitlines()
    assert len([l for l in runs_lines if l.startswith("wcr,")]) == 2


def test_emit_report_significance_star(tmp_path, dataset):
    config = small_config(methods=("cca", "wcr"), randomization_runs=4,
                          train=TrainConfig(epochs=4, batch_size=64, seed=0))
    report = run_compare(config, dataset)
    row = {r.method: r for r in report.rows}["cca"]
    written = emit_report(report, tmp_path)
    content = next(p for p in written if p.name == "report.md").read_text()
    line = next(l for l in content.splitlines() if "Category Chunk" in l)
    assert ("*" in line) == (row.significant is True)


def test_emit_report_empty_rows_rejected():
    from finimg.experiment import ExperimentReport

    empty = ExperimentReport(rows=[], records={}, config_hash="x", seeds={})
    with pytest.raises(ExperimentError):
        emit_report(empty, "/tmp/should_not_exist_report")


def test_emit_report_bytes_are_pinned(tmp_path):
    """Every cell kind of the CSV tables, on a hand-built report."""
    report = ExperimentReport(
        rows=[
            ReportRow("hva", 0.25, None, 1.5, None, 1, {"hvr": 0.0123456789}, True),
            ReportRow("cca", 0.2, None, None, None, 1, {"wcr": 0.5, "bcr": 0.04}, False),
            ReportRow("hvr", 0.125, 0.0312, 2.25, 0.5, 2),
        ],
        records={
            "hvr": [RunRecord("hvr", 0, 3, 0, 0.125, 1.75, 2.25, 8),
                    RunRecord("hvr", 1, 4, 0, 0.25, 1.0, None, 8)],
            "hva": [RunRecord("hva", 0, None, 7, 1 / 3, 2.0, 1.5, 9)],
        },
        config_hash="0123456789abcdef",
        seeds={"train": 7, "arrangement": 3},
        ranking_p={("cca", "hva"): 0.001, ("hva", "cca"): 0.001, ("cca", "sa"): 0.5,
                   ("sa", "cca"): 0.5, ("hva", "sa"): 1.0, ("sa", "hva"): 1.0},
        ranking_text="hva a; cca ab; sa b",
    )
    written = emit_report(report, tmp_path)
    assert [p.name for p in written] == ["report.csv", "runs.csv", "report.md", "pairwise_p.csv"]
    assert (tmp_path / "report.csv").read_bytes() == (
        b"method,accuracy_mean,accuracy_stderr,notch_mean,notch_stderr,n_runs,p_vs_control,"
        b"significant\n"
        b"hva,0.250000,,1.500000,,1,hvr:0.012346,true\n"
        b"cca,0.200000,,,,1,bcr:0.040000;wcr:0.500000,false\n"
        b"hvr,0.125000,0.031200,2.250000,0.500000,2,,\n"
    )
    assert (tmp_path / "runs.csv").read_bytes() == (
        b"method,run_index,arrangement_seed,train_seed,accuracy,abs_notch,cond_notch,n_test\n"
        b"hva,0,,7,0.333333,2.000000,1.500000,9\n"
        b"hvr,0,3,0,0.125000,1.750000,2.250000,8\n"
        b"hvr,1,4,0,0.250000,1.000000,,8\n"
    )
    assert (tmp_path / "pairwise_p.csv").read_bytes() == (
        b"method_a,method_b,p_value\ncca,hva,0.001000\ncca,sa,0.500000\nhva,sa,1.000000\n"
    )
    assert (tmp_path / "report.md").read_bytes() == (
        b"# Encoding method comparison\n\n"
        b'Config hash: `0123456789abcdef`; seeds: {"arrangement": 3, "train": 7}\n\n'
        b"| Method | Accuracy | Notch Distance |\n| --- | --- | --- |\n"
        b"| Hilbert Vector Arrangement (HVA) | 0.250* | 1.500 |\n"
        b"| Category Chunk Arrangement (CCA) | 0.200 | n/a |\n"
        b"| Hilbert Vector Randomization | 0.125 (0.031) | 2.250 (0.500) |\n\n"
        b"`*` marks encodings one-sidedly above their randomized control at p < 0.05.\n\n"
        b"Ranking groups (Bonferroni-adjusted): hva a; cca ab; sa b\n"
    )


def _study_section(heading: str, titles: tuple[str, str], accs: tuple[float, float]) -> str:
    return (f"\n## {heading}\n\n| {titles[0]} | {titles[1]} |\n| --- | --- |\n"
            f"| {accs[0]:.3f} | {accs[1]:.3f} |\n")


def test_reduced_padding_study_rows(dataset, tmp_path):
    config = small_config(methods=("hva", "reduced_hva"))
    report = run_compare(config, dataset)
    acc = {m: recs[0].accuracy for m, recs in report.records.items()}
    emit_report(report, tmp_path)
    text = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert text.endswith(_study_section(
        "Reduced zero padding", ("Reduced HVA accuracy", "Original HVA accuracy"),
        (acc["reduced_hva"], acc["hva"])))
    assert 0.0 <= acc["reduced_hva"] <= 1.0
    assert 0.0 <= acc["hva"] <= 1.0
    assert "Auto-encoder study" not in text


def test_autoencoder_study_rows(dataset, tmp_path):
    config = small_config(methods=("sa", "autoencoder_sa"))
    report = run_compare(config, dataset)
    acc = {m: recs[0].accuracy for m, recs in report.records.items()}
    emit_report(report, tmp_path)
    text = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert text.endswith(_study_section(
        "Auto-encoder study", ("Auto-encoder accuracy", "SA accuracy"),
        (acc["autoencoder_sa"], acc["sa"])))
    assert autoencoder_code_dim(config, 66) == 33
    assert "Reduced zero padding" not in text


def saved_checkpoint(tmp_path, dataset, method="cca"):
    """A trained pipeline's checkpoint path and its arrays."""
    pipe, _, _ = fit_pipeline(small_config(), method, dataset, train_seed=0)
    path = tmp_path / f"{method}.npz"
    save_pipeline(pipe, path)
    with np.load(path, allow_pickle=False) as data:
        return path, {name: data[name] for name in data.files}


def test_load_pipeline_rejects_mis_shaped_parameter(tmp_path, dataset):
    path, arrays = saved_checkpoint(tmp_path, dataset)
    assert arrays["net_param_0001"].shape == (64,)
    arrays["net_param_0001"] = np.array([0.5])
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match="net_param_0001"):
        load_pipeline(path)


def test_load_pipeline_rejects_a_checkpoint_without_feature_names(tmp_path, dataset):
    path, arrays = saved_checkpoint(tmp_path, dataset)
    assert set(json.loads(str(arrays["meta_json"]))) == {"features", "method"}
    arrays["meta_json"] = np.array(json.dumps({"method": "cca"}))
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: checkpoint records no feature")):
        load_pipeline(path)


def test_load_pipeline_names_a_text_file_no_npz_checkpoint(tmp_path):
    # np.load alone calls such a file pickled data and advises an unsafe load.
    path = tmp_path / "model.npz"
    path.write_text("garbage\n", encoding="utf-8")
    with pytest.raises(CheckpointError) as caught:
        load_pipeline(path)
    assert str(caught.value) == f"{path}: not an npz checkpoint: not a zip archive"


def test_load_pipeline_names_a_plain_npy_file_no_npz_checkpoint(tmp_path):
    # np.load alone returns its array, which is no context manager.
    path = tmp_path / "model.npy"
    np.save(path, np.arange(3.0))
    with pytest.raises(CheckpointError) as caught:
        load_pipeline(path)
    assert str(caught.value) == f"{path}: not an npz checkpoint: not a zip archive"


def test_load_pipeline_rejects_unsupported_padding(tmp_path, dataset):
    path, arrays = saved_checkpoint(tmp_path, dataset)
    spec_json = str(arrays["net_spec_json"])
    assert spec_json.count('"padding": "valid"') == 2
    arrays["net_spec_json"] = np.array(spec_json.replace('"valid"', '"same"', 1))
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=r"layer 0 \(conv2d\): unsupported padding 'same'"):
        load_pipeline(path)


def _keep_at_500(arrays):
    arrays["keep"] = arrays["keep"].copy()
    arrays["keep"][0] = 500


def _keep_repeated(arrays):
    arrays["keep"] = arrays["keep"].copy()
    arrays["keep"][1] = arrays["keep"][0]


def _provenance_repeated(arrays):
    prov = arrays["provenance"].copy()
    first, second = np.flatnonzero(prov.ravel() != ZERO_PAD)[:2]
    prov.ravel()[second] = prov.ravel()[first]
    arrays["provenance"] = prov


def _provenance_dropped(arrays):
    prov = arrays["provenance"].copy()
    prov.ravel()[np.flatnonzero(prov.ravel() != ZERO_PAD)[0]] = ZERO_PAD
    arrays["provenance"] = prov


def _mean_short(arrays):
    arrays["mean"] = arrays["mean"][:-1]


def _stddev_zero(arrays):
    arrays["stddev"] = arrays["stddev"].copy()
    arrays["stddev"][3] = 0.0


def _set_first(key, value):
    def mutate(arrays):
        arrays[key] = arrays[key].copy()
        arrays[key].flat[0] = value
    return mutate


def _mean_text(arrays):
    arrays["mean"] = arrays["mean"].astype(str)


def _net_transposed(arrays):
    spec = json.loads(str(arrays["net_spec_json"]))
    c, h, w = spec["input_shape"]
    spec["input_shape"] = [c, w, h]  # the same parameter shapes fit
    arrays["net_spec_json"] = np.array(json.dumps(spec, sort_keys=True))


def _net_five_classes(arrays):
    spec = json.loads(str(arrays["net_spec_json"]))
    spec["layers"][-1]["args"]["classes"] = 5
    arrays["net_spec_json"] = np.array(json.dumps(spec, sort_keys=True))
    weight, bias = sorted(k for k in arrays if k.startswith("net_param_"))[-2:]
    arrays[weight], arrays[bias] = arrays[weight][:, :5], arrays[bias][:5]


def _ae_keep_short(arrays):
    arrays["keep"] = arrays["keep"][:-1]


_ae_keep_short.method = "autoencoder_sa"  # the checkpoint it mutates; cca by default


def _ae_two_layers(arrays):
    # A valid mse network on the kept features, but not build_autoencoder's:
    # it has no third layer to read a code width from.
    for key in [k for k in arrays if k.startswith("ae_")]:
        del arrays[key]
    net = Network(NetworkSpec((66,), (dense(33), dense(66)), loss="mse"), seed=0)
    arrays.update(network_arrays(net, "ae_"))


_ae_two_layers.method = "autoencoder_sa"


@pytest.mark.parametrize("mutate, key, detail", [
    (_keep_at_500, "keep", "holds 500, outside the 66 features"),
    (_keep_repeated, "keep", "repeats a feature"),
    (_provenance_repeated, "provenance", "is not a one-to-one map of 66 inputs"),
    (_provenance_dropped, "provenance", "is not a one-to-one map of 66 inputs"),
    (_mean_short, "mean", "has shape (65,), not (66,)"),
    (_stddev_zero, "stddev", "holds an entry that is not positive"),
    (_set_first("mean", np.nan), "mean", "holds an entry that is not a finite float"),
    (_set_first("stddev", np.inf), "stddev", "holds an entry that is not a finite float"),
    (_mean_text, "mean", "holds an entry that is not a finite float"),
    (_set_first("net_param_0000", np.nan), "net_param_0000",
     "holds an entry that is not a finite float"),
    (_net_transposed, "net_spec_json", "takes input (1, 12, 8), the encoding gives (1, 8, 12)"),
    (_net_five_classes, "net_spec_json", "outputs (5,), not the 12 rating classes"),
    (_ae_keep_short, "ae_spec_json",
     "is not the auto-encoder of 65 kept features to the map's 33 codes"),
    (_ae_two_layers, "ae_spec_json",
     "is not the auto-encoder of 66 kept features to the map's 33 codes"),
])
def test_load_pipeline_checks_arrays_against_features(tmp_path, dataset, mutate, key, detail):
    path, arrays = saved_checkpoint(tmp_path, dataset, getattr(mutate, "method", "cca"))
    mutate(arrays)
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: checkpoint key {key!r} {detail}")):
        load_pipeline(path)


@pytest.mark.parametrize("method, dropped, key", [
    ("cca", "provenance", "provenance"),
    ("reduced_hva", "provenance", "provenance"),
    ("autoencoder_sa", "provenance", "provenance"),
    ("autoencoder_sa", "ae_", "ae_spec_json"),
])
def test_load_pipeline_names_the_missing_key(tmp_path, dataset, method, dropped, key):
    # The method says which keys its checkpoint holds; a missing one used
    # to be blamed on another key.
    path, arrays = saved_checkpoint(tmp_path, dataset, method)
    save_arrays(path, {k: v for k, v in arrays.items() if not k.startswith(dropped)})
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: checkpoint has no key {key!r}")):
        load_pipeline(path)


@st.composite
def fitted_pipelines(draw):
    """One small fit of a drawn method on a drawn schema and seeds."""
    counts = {s: draw(st.integers(11, 16)) for s in FUNDAMENTAL_SECTIONS}
    spec = small_spec(n_per_year=24, section_counts=counts, seed=draw(st.integers(0, 2**16)))
    config = small_config(synthetic=spec, train=TrainConfig(epochs=1, batch_size=16, seed=0))
    ds = generate_synthetic(spec)
    method = draw(st.sampled_from(ALL_METHODS))
    pipe, _, _ = fit_pipeline(config, method, ds, train_seed=draw(st.integers(0, 2**16)),
                              arrangement_seed=draw(st.integers(0, 2**16)))
    return pipe, ds


@settings(max_examples=30, deadline=None)
@given(fitted=fitted_pipelines())
def test_checkpoint_roundtrip_is_bit_exact(tmp_path_factory, fitted):
    pipe, ds = fitted
    path = tmp_path_factory.mktemp("ckpt") / "pipe.npz"
    save_pipeline(pipe, path)
    back = load_pipeline(path)
    assert (back.method, back.features) == (pipe.method, pipe.features)
    for got, want in ((back.keep, pipe.keep), (back.provenance, pipe.provenance),
                      (back.standardizer.mean, pipe.standardizer.mean),
                      (back.standardizer.stddev, pipe.standardizer.stddev)):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want)
    nets = [(back.network, pipe.network), (back.autoencoder, pipe.autoencoder)]
    for got, want in nets:
        assert (got is None) == (want is None)
        if want is not None:
            assert got.spec == want.spec and got.seed == want.seed
            for a, b in zip(got.parameters(), want.parameters(), strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.array_equal(back.network.predict(back.transform(ds)),
                          pipe.network.predict(pipe.transform(ds)))
    again = path.with_name("again.npz")
    save_pipeline(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_run_compare_checks_every_input_shape_before_training(monkeypatch):
    # 54 features: sa and hva fit, but reduced_hva keeps 16, a 4x4 grid.
    ds = generate_synthetic(small_spec(section_counts={s: 9 for s in FUNDAMENTAL_SECTIONS}))
    calls = []
    real_train = experiment.train
    monkeypatch.setattr(experiment, "train",
                        lambda *a, **kw: calls.append(1) or real_train(*a, **kw))
    config = small_config(methods=("sa", "hva", "reduced_hva"))
    with pytest.raises(InputTooSmallError, match="4x4"):
        run_compare(config, ds)
    assert calls == []


def test_pool_size_is_capped_by_cpus_and_fits(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert pool_size(15) == 8
    assert pool_size(3) == 3
    assert pool_size(1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert pool_size(15) == 1


@pytest.mark.parametrize("blas_threads", [None, "3"])
def test_pooled_compare_restores_the_environment_and_leaves_no_process(
        dataset, monkeypatch, two_cpus, blas_threads):
    if blas_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    before = dict(os.environ)
    report = run_compare(small_config(methods=("mlp", "cca")), dataset)
    assert [r.method for recs in report.records.values() for r in recs] == ["mlp", "cca"]
    assert dict(os.environ) == before
    assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("settings, error", [
    (dict(train=TrainConfig(epochs=1, batch_size=64, seed=0, learning_rate=1e300)),
     DivergenceError),
    (dict(test_year=2014), ExperimentError),
], ids=["diverging", "no_training_rows"])
def test_a_failing_fit_raises_the_same_error_pooled_and_in_process(
        dataset, monkeypatch, settings, error):
    config = small_config(methods=("mlp", "cca", "wcr"), **settings)
    raised = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        with pytest.raises(error) as info:
            run_compare(config, dataset)
        raised.append((type(info.value), str(info.value)))
        assert multiprocessing.active_children() == []
    assert raised[0] == raised[1]


def _python(script: str, blas_threads: str, core: str | None = None) -> str:
    """Run a script in a fresh interpreter at the given BLAS thread count, on
    the given OpenBLAS core's kernels (None: the ones OpenBLAS picks); its stdout."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    env.pop("OPENBLAS_CORETYPE", None)
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# A fit that ends each epoch on a short batch, at one BLAS thread on
# OpenBLAS's Haswell kernels, which every AVX2 x86-64 CPU runs. At 2
# threads its conv weight gradient would give other bits, and so may the
# kernels OpenBLAS picks for another CPU (one set of bits per core).
PINNED_CORE = "Haswell"
TAIL_BATCH_HVA_HASH = "5da1f026ef8788df74224fa31ddb03e994e0162df7db605d60d755b741ff408a"


def test_every_method_trains_to_one_set_of_bits_on_every_path():
    # Each method's tail-batch fit, and a 330-feature auto-encoder fit of two
    # full 64-row batches (whose forward pass gives other bits at 2 threads),
    # in process at 2 BLAS threads and at 1, on one usable CPU, and pooled:
    # on the pinned core, and on the kernels OpenBLAS picks for this CPU.
    script = """
import json, os
from support import parameter_hash, tail_batch_case
from finimg.experiment import ALL_METHODS, ExperimentConfig, run_pooled
from finimg.nnet import TrainConfig
from finimg.schema import FUNDAMENTAL_SECTIONS
from finimg.synthetic import SyntheticSpec, generate_synthetic
config, ds = tail_batch_case()
spec = SyntheticSpec(n_per_year=64, years=(2014, 2016), seed=3,
                     section_counts={s: 55 for s in FUNDAMENTAL_SECTIONS})
wide = ExperimentConfig(synthetic=spec, test_year=2016, methods=("autoencoder_sa",),
                        train=TrainConfig(epochs=1, batch_size=64))
tasks = [(config, ds, m, 7) for m in ALL_METHODS]
tasks.append((wide, generate_synthetic(spec), "autoencoder_sa", 0))
ways = {"in process": [parameter_hash(*task) for task in tasks]}
if os.environ["OPENBLAS_NUM_THREADS"] == "2":
    ways["pooled"] = run_pooled(parameter_hash, tasks, 2)
    os.sched_getaffinity = lambda pid: {0}
    ways["one CPU"] = [parameter_hash(*task) for task in tasks]
print(json.dumps(ways))
"""
    for core in (PINNED_CORE, None):
        ways = {f"{way} at {threads}": hashes for threads in ("2", "1")
                for way, hashes in json.loads(_python(script, threads, core)).items()}
        assert len(ways) == 4
        if core == PINNED_CORE:
            assert ways["in process at 1"][ALL_METHODS.index("hva")] == TAIL_BATCH_HVA_HASH
        for way, hashes in ways.items():
            assert hashes == ways["in process at 1"], (core, way)


def test_report_bytes_do_not_depend_on_the_pool_size_at_one_blas_thread(tmp_path):
    # 120 training rows at batch 64: each epoch ends on a 56-row batch.
    script = f"""
import os
from finimg.experiment import ExperimentConfig, emit_report, run_compare
from finimg.nnet import TrainConfig
from finimg.schema import FUNDAMENTAL_SECTIONS
from finimg.synthetic import SyntheticSpec
spec = SyntheticSpec(n_per_year=60, years=(2014, 2016), seed=0,
                     section_counts={{s: 11 for s in FUNDAMENTAL_SECTIONS}})
config = ExperimentConfig(synthetic=spec, methods=("mlp", "cnn1d", "cca", "wcr", "hva"),
                          randomization_runs=2, training_seeds=2,
                          train=TrainConfig(epochs=2, batch_size=64))
for cpus in (1, 2):
    os.sched_getaffinity = lambda pid: set(range(cpus))
    emit_report(run_compare(config), {str(tmp_path)!r} + f"/c{{cpus}}")
"""
    _python(script, "1")
    names = sorted(p.name for p in (tmp_path / "c1").iterdir())
    assert names == ["pairwise_p.csv", "report.csv", "report.md", "runs.csv"]
    for name in names:
        assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()


def test_an_unguarded_script_gives_the_records_of_a_guarded_one(tmp_path):
    # Forked workers do not re-run the calling script, so a script that
    # calls run_compare at its top level runs the pooled protocol as one
    # under `if __name__ == "__main__":` does.
    body = f"""
os.sched_getaffinity = lambda pid: {{0, 1}}
spec = SyntheticSpec(n_per_year=60, years=(2014, 2016), seed=0,
                     section_counts={{s: 11 for s in FUNDAMENTAL_SECTIONS}})
report = run_compare(ExperimentConfig(synthetic=spec, methods=("mlp", "cca"),
                                      train=TrainConfig(epochs=1, batch_size=64)))
emit_report(report, {str(tmp_path)!r} + "/" + OUT)
"""
    head = """
import os
from finimg.experiment import ExperimentConfig, emit_report, run_compare
from finimg.nnet import TrainConfig
from finimg.schema import FUNDAMENTAL_SECTIONS
from finimg.synthetic import SyntheticSpec
"""
    guarded = "\nif __name__ == '__main__':\n" + "".join(
        f"    {line}\n" for line in body.strip().splitlines())
    root = Path(__file__).resolve().parents[1]
    for name, text in (("unguarded", body), ("guarded", guarded)):
        script = tmp_path / f"{name}.py"
        script.write_text(head + f"OUT = {name!r}\n" + text)
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
        assert done.returncode == 0, done.stderr
    names = sorted(p.name for p in (tmp_path / "guarded").iterdir())
    assert "runs.csv" in names
    for name in names:
        assert (tmp_path / "unguarded" / name).read_bytes() == \
            (tmp_path / "guarded" / name).read_bytes(), name


def _die():
    """A pooled task whose worker exits at once."""
    os._exit(1)


def test_a_worker_that_dies_fails_the_pool_and_leaves_no_process():
    with pytest.raises(ExperimentError, match="a worker process died"):
        run_pooled(_die, [(), (), ()], 2)
    assert multiprocessing.active_children() == []
