"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria execute. The protocol-reproduction criterion trains the full
method battery and takes several minutes; everything else is fast.
"""
import math
import time

import numpy as np
import pytest

from finimg.encoding import ZERO_PAD, arrange, default_spec, hilbert_arrange, image, reduce_features
from finimg.experiment import ExperimentConfig, emit_report, grid_tensor, run_compare
from finimg.hilbert import HilbertOrder, hilbert_d2xy, hilbert_xy2d
from finimg.metrics import (
    AllCorrectError,
    PredictionSet,
    accuracy,
    conditional_notch,
    expected_abs_notch,
    notch_frequency,
    precision_recall_f1_binary,
)
from finimg.nnet import NetworkSpec, TrainConfig, build_cnn2d, grid_search
from finimg.nnet.network import activation, conv1d, conv2d, dense, dropout, flatten, maxpool, softmax_output
from finimg.schema import FUNDAMENTAL_SECTIONS, build_schema
from finimg.stats import pairwise_t_bonferroni, summarize, t_cdf
from finimg.synthetic import SyntheticSpec, generate_synthetic
from support import Observation, dataset_from_observations, gradient_check


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_hilbert_correctness():
    started = time.perf_counter()
    for n in range(1, 7):
        order = HilbertOrder(n)
        points = [hilbert_d2xy(order, i) for i in range(order.capacity)]
        assert len(set(points)) == order.capacity
        for i, (x, y) in enumerate(points):
            assert hilbert_xy2d(order, x, y) == i
        for i in range(order.capacity - 1):
            x0, y0 = points[i]
            x1, y1 = points[i + 1]
            assert abs(x0 - x1) + abs(y0 - y1) == 1
    elapsed = time.perf_counter() - started
    report(1, elapsed < 1.0,
           f"orders 1..6 bijective with unit adjacency and exact inverse in {elapsed:.2f}s")


def test_criterion_2_encoding_provenance():
    started = time.perf_counter()
    expected_shapes = {
        "fundamental": {"sa": (18, 27), "ra": (18, 27), "cca": (18, 27),
                        "wcr": (18, 27), "bcr": (18, 27), "hva": (32, 32),
                        "hvr": (32, 32)},
        "ratio": {"sa": (8, 16), "ra": (8, 16), "cca": (8, 16), "wcr": (8, 16),
                  "bcr": (8, 16), "hva": (16, 16), "hvr": (16, 16)},
    }
    checked = 0
    for schema in (build_schema("fundamental"), build_schema("ratio")):
        d = len(schema)
        v = np.arange(d, dtype=float) + 1.0
        for method in ("sa", "ra", "cca", "wcr", "bcr", "hva", "hvr"):
            spec = default_spec(method, schema, seed=3)
            grid = image(v, arrange(schema, spec))
            assert (grid.rows, grid.cols) == expected_shapes[schema.dataset_kind][method], method
            occupied = grid.provenance[grid.provenance != ZERO_PAD]
            assert sorted(occupied.tolist()) == list(range(d))
            assert grid.pad_count() == grid.rows * grid.cols - d
            checked += 1
        cca_spec = default_spec("cca", schema)
        expected_chunks = (9, 9) if schema.dataset_kind == "fundamental" else (4, 4)
        expected_layout = (2, 3) if schema.dataset_kind == "fundamental" else (2, 4)
        assert cca_spec.chunk_dims == expected_chunks
        assert cca_spec.chunk_layout == expected_layout
    elapsed = time.perf_counter() - started
    report(2, elapsed < 1.0 and checked == 14,
           f"14 arrangements on the 332/69 schemas have exact provenance in {elapsed:.2f}s")


def test_criterion_3_gradient_fidelity():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    per_kind = {
        "dense": NetworkSpec((6,), (dense(5), softmax_output(3))),
        "activation": NetworkSpec((6,), (dense(5), activation(), softmax_output(3))),
        "conv1d": NetworkSpec((2, 10), (conv1d(4, 3), flatten(), softmax_output(3))),
        "conv2d": NetworkSpec((2, 7, 8), (conv2d(4, 3, 3), flatten(), softmax_output(3))),
        "maxpool1d": NetworkSpec((2, 10), (conv1d(4, 3), maxpool(2), flatten(),
                                           softmax_output(3))),
        "maxpool2d": NetworkSpec((2, 7, 8), (conv2d(4, 3, 3), maxpool(2), flatten(),
                                             softmax_output(3))),
        "dropout_off": NetworkSpec((6,), (dense(5), dropout(0.5), softmax_output(3))),
        "mse_output": NetworkSpec((5,), (dense(4), activation(), dense(5)), loss="mse"),
    }
    worst = {}
    for kind, spec in per_kind.items():
        x = rng.normal(size=(3,) + spec.input_shape)
        if spec.loss == "cross_entropy":
            y = rng.integers(0, spec.layer_shapes()[-1][0], size=3)
        else:
            y = rng.normal(size=(3,) + spec.layer_shapes()[-1])
        worst[kind] = gradient_check(spec, x, y, epsilon=1e-5,
                                     max_checks_per_param=None, seed=2)
    full = build_cnn2d(8, 8)
    x = rng.normal(size=(2, 1, 8, 8))
    y = rng.integers(0, 12, size=2)
    worst["full_cnn2d_8x8"] = gradient_check(full, x, y, epsilon=1e-5,
                                             max_checks_per_param=40, seed=3)
    elapsed = time.perf_counter() - started
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    report(3, not bad and elapsed < 30.0,
           f"max relative errors {max(worst.values()):.2e} over {len(worst)} cases "
           f"in {elapsed:.1f}s" + (f"; failures {bad}" if bad else ""))


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(17)
    identity_worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        y = rng.integers(0, 12, n)
        yhat = rng.integers(0, 12, n)
        pset = PredictionSet(y, yhat)
        acc_loop = sum(1 for a, b in zip(y, yhat) if a == b) / n
        freq_loop: dict[int, float] = {}
        for a, b in zip(y, yhat):
            freq_loop[int(b - a)] = freq_loop.get(int(b - a), 0) + 1
        freq_loop = {i: c / n for i, c in freq_loop.items()}
        notch_loop = 0.0
        for i in sorted(freq_loop):
            notch_loop += abs(i) * freq_loop[i]
        dist = notch_frequency(pset)
        assert accuracy(pset) == acc_loop
        assert dist.freq == freq_loop
        assert expected_abs_notch(dist) == notch_loop
        wrong_items = [(i, f) for i, f in sorted(freq_loop.items()) if i != 0]
        if wrong_items:
            wrong_mass = 0.0
            cond_num = 0.0
            for i, f in wrong_items:
                wrong_mass += f
                cond_num += abs(i) * f
            assert conditional_notch(dist) == cond_num / wrong_mass
            identity_worst = max(
                identity_worst,
                abs(expected_abs_notch(dist) - (1 - acc_loop) * conditional_notch(dist)),
            )
        else:
            with pytest.raises(AllCorrectError):
                conditional_notch(dist)
    p1 = precision_recall_f1_binary(tp=9, fp=1, fn=91)
    p2 = precision_recall_f1_binary(tp=5, fp=5, fn=1)
    worked = (
        round(p1[0], 2) == 0.90 and round(p1[1], 2) == 0.09 and round(p1[2], 2) == 0.16
        and round(p2[0], 2) == 0.50 and round(p2[1], 2) == 0.83 and round(p2[2], 2) == 0.62
    )
    report(4, identity_worst <= 1e-12 and worked,
           f"1000 random prediction sets match brute force exactly; "
           f"identity gap {identity_worst:.1e}; worked examples reproduce")


def test_criterion_5_statistics():
    table = [
        (2.045, 29, 0.975),
        (1.812, 10, 0.95),
        (2.571, 5, 0.975),
        (6.314, 1, 0.95),
        (1.980, 120, 0.975),
        (0.0, 7, 0.5),
    ]
    worst = max(abs(t_cdf(t, df) - p) for t, df, p in table)
    rng = np.random.default_rng(5)
    planted = {
        "high": list(rng.normal(0.6, 0.01, 30)),
        "mid": list(rng.normal(0.5, 0.01, 30)),
        "low": list(rng.normal(0.3, 0.01, 30)),
    }
    _, grouping = pairwise_t_bonferroni(planted)
    singletons = grouping.groups == ((0, 0), (1, 1), (2, 2))
    base = list(rng.normal(0.5, 0.02, 12))
    _, merged = pairwise_t_bonferroni({"a": base, "b": list(base), "c": list(base)})
    one_group = merged.groups == ((0, 2),)
    report(5, worst < 1e-3 and singletons and one_group,
           f"t table max error {worst:.1e}; planted separation gives three "
           f"singletons; identical samples merge into one group")


CHUNKY = {s: 16 for s in FUNDAMENTAL_SECTIONS}  # 96 features, 6 sections


@pytest.mark.slow
def test_criterion_6_protocol_reproduction(tmp_path):
    spec = SyntheticSpec(n_per_year=800, years=(2012, 2016), section_counts=CHUNKY,
                         factor_strength=0.9, noise=1.5, seed=42)
    config = ExperimentConfig(
        synthetic=spec,
        test_year=2016,
        methods=("mlp", "cnn1d", "sa", "ra", "cca", "wcr", "bcr", "hva", "hvr"),
        randomization_runs=10,
        training_seeds=1,
        train=TrainConfig(epochs=10, batch_size=64, seed=7),
    )
    started = time.perf_counter()
    rep = run_compare(config)
    elapsed = time.perf_counter() - started

    rows = {row.method: row for row in rep.rows}
    cca_acc = rows["cca"].accuracy_mean
    wcr_mean = rows["wcr"].accuracy_mean
    p = rows["cca"].p_vs_control["wcr"]
    directional = cca_acc > wcr_mean and p < 0.05

    stderr_ok = True
    for m in ("ra", "wcr", "bcr", "hvr"):
        recs = rep.records[m]
        stderr_ok &= len(recs) == 10 and rows[m].n_runs == 10
        recomputed = summarize([r.accuracy for r in recs]).stderr
        stderr_ok &= math.isclose(rows[m].accuracy_stderr, recomputed, rel_tol=0, abs_tol=0)

    written = emit_report(rep, tmp_path)
    md = next(p_ for p_ in written if p_.name == "report.md").read_text()
    table_style = all(
        title in md
        for title in ("| MLP |", "| 1D CNN |", "Sequential Arrangement (SA)",
                      "Category Chunk Arrangement (CCA)", "Hilbert Vector Arrangement (HVA)")
    )
    report(6, directional and stderr_ok and table_style and elapsed < 900.0,
           f"compare finished in {elapsed / 60:.1f} min; cca {cca_acc:.3f} vs "
           f"wcr {wcr_mean:.3f} (one-sided p {p:.1e}); randomized stderr from "
           f"exactly 10 records; comparison report emitted")


@pytest.mark.slow
def test_criterion_7_chance_level_control():
    counts = {s: 11 for s in FUNDAMENTAL_SECTIONS}
    spec = SyntheticSpec(n_per_year=288, years=(2014, 2016), section_counts=counts,
                         factor_strength=0.0, noise=1.0, seed=13)
    config = ExperimentConfig(
        synthetic=spec,
        test_year=2016,
        methods=("mlp", "cnn1d", "sa", "ra", "cca", "wcr", "bcr", "hva", "hvr",
                 "reduced_hva", "autoencoder_sa"),
        randomization_runs=10,
        training_seeds=10,
        train=TrainConfig(epochs=3, batch_size=64, seed=100),
    )
    from finimg.experiment import run_compare

    records = run_compare(config, generate_synthetic(spec)).records
    failures = []
    details = []
    for method in config.methods:
        accs = [r.accuracy for r in records[method]]
        s = summarize(accs)
        deviation = abs(s.mean - 1 / 12)
        details.append(f"{method}={s.mean:.3f}±{s.stderr:.3f}")
        if deviation > 3 * s.stderr:
            failures.append(method)
    report(7, not failures,
           "all methods within 3 stderr of 1/12 over 10 runs: " + ", ".join(details)
           + (f"; failures {failures}" if failures else ""))


def test_criterion_8_cli_determinism(tmp_path):
    from finimg.cli import main

    def synth(out):
        assert main(["synth", "--n-per-year", "24", "--years", "2015:2016",
                     "--features-per-section", "11", "--seed", "4",
                     "--out", str(out)]) == 0

    synth(tmp_path / "s1")
    synth(tmp_path / "s2")
    same = (tmp_path / "s1/data.csv").read_bytes() == (tmp_path / "s2/data.csv").read_bytes()

    data = str(tmp_path / "s1/data.csv")
    schema = str(tmp_path / "s1/schema.csv")
    for out in ("e1", "e2"):
        assert main(["encode", "--data", data, "--schema", schema, "--method", "hvr",
                     "--seed", "2", "--out", str(tmp_path / out)]) == 0
    same &= all(
        (tmp_path / "e1" / n).read_bytes() == (tmp_path / "e2" / n).read_bytes()
        for n in ("hvr_cells.csv", "hvr_provenance.csv", "hvr.pgm")
    )

    for out in ("t1", "t2"):
        assert main(["train", "--data", data, "--schema", schema, "--test-year", "2016",
                     "--method", "cca", "--epochs", "1", "--seed", "6",
                     "--out", str(tmp_path / out)]) == 0
    same &= all(
        (tmp_path / "t1" / n).read_bytes() == (tmp_path / "t2" / n).read_bytes()
        for n in ("model.npz", "metrics.csv")
    )

    for out in ("c1", "c2"):
        assert main(["compare", "--data", data, "--schema", schema, "--test-year", "2016",
                     "--methods", "cca,wcr", "--runs", "2", "--epochs", "1",
                     "--seed", "0", "--out", str(tmp_path / out)]) == 0
    same &= all(
        (tmp_path / "c1" / n).read_bytes() == (tmp_path / "c2" / n).read_bytes()
        for n in ("report.csv", "report.md", "runs.csv")
    )
    report(8, same, "synth, encode, train, and compare reruns are byte-identical")


def test_criterion_9_grid_search_structure():
    spec = SyntheticSpec(n_per_year=100, years=(2015, 2016), section_counts=CHUNKY,
                         factor_strength=0.9, noise=1.0, seed=3)
    ds = generate_synthetic(spec)
    train_mask = ds.years < 2016
    prov = arrange(ds.schema, default_spec("cca", ds.schema))
    values = np.where(np.isnan(ds.values), 0.0, ds.values)
    images = grid_tensor(values, prov)
    tx, ty = images[train_mask], ds.labels[train_mask]
    vx, vy = images[~train_mask], ds.labels[~train_mask]

    def builder(n1, n2):
        return build_cnn2d(*prov.shape, filters1=n1, filters2=n2)

    best, rows = grid_search(builder, [16, 32, 64, 128], (tx, ty), (vx, vy),
                             TrainConfig(epochs=2, batch_size=64, seed=0))
    structure = len(rows) == 16 and [(r.neurons1, r.neurons2) for r in rows] == [
        (a, b) for a in (16, 32, 64, 128) for b in (16, 32, 64, 128)
    ]
    scored = [r for r in rows if r.error is None]
    argmax = max(scored, key=lambda r: (r.val_accuracy, -r.parameter_count))
    picks_argmax = best == (argmax.neurons1, argmax.neurons2)
    report(9, structure and picks_argmax,
           f"16 rows for the 4x4 grid; best {best} is the validation argmax")


def test_criterion_10_reduced_padding():
    rng = np.random.default_rng(9)

    def with_missing(schema):
        values = rng.normal(size=(24, len(schema)))
        holes = rng.random(values.shape) < 0.05
        values[holes] = np.nan
        obs = [Observation(f"c{i}", 2015 + i % 2, i % 4 + 1, values[i], int(i % 12))
               for i in range(24)]
        return dataset_from_observations(schema, obs)

    ds = with_missing(build_schema("fundamental"))
    keep = reduce_features(ds, 256)
    prov = hilbert_arrange(len(keep))
    ok = len(keep) == 256 and prov.shape == (16, 16) and (prov != ZERO_PAD).all()

    ds = with_missing(build_schema("ratio"))
    keep = reduce_features(ds, 64)
    prov = hilbert_arrange(len(keep))
    ok &= len(keep) == 64 and prov.shape == (8, 8) and (prov != ZERO_PAD).all()
    report(10, ok, "332->256 gives a 16x16 grid and 69->64 an 8x8 grid, both with "
                   "zero padding cells")
