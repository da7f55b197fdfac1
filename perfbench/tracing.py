"""Outside-in tracing of finimg from the benchmark's own process.

Each public entry point of a finimg module is wrapped where it is looked
up: `finimg.experiment` imports its helpers by name, so the wrapper for
training replaces `finimg.experiment.train`, not `finimg.nnet.train.train`.
Layer methods are looked up on their classes, so those are wrapped there.
Nothing under `src/` changes, and the wrappers are removed again when a
traced block ends, so untraced work runs the original functions.

A span is (name, start, end, parent). A span's self time is its duration
minus the durations of its direct children; wrapped calls in one thread
nest strictly, so the children never overlap. Counts (elements, flops,
batches, fits) are derived from array shapes at the wrapped calls and
repeat exactly from run to run.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from finimg import data, experiment, synthetic
from finimg.nnet import layers, network

# `finimg.nnet` re-exports the function `train` under the module's name.
nnet_train = importlib.import_module("finimg.nnet.train")

LAYER_KINDS = ("conv2d", "conv1d", "maxpool2d", "maxpool1d", "relu", "dense",
               "dropout", "softmax_output")
GFLOP_KINDS = ("conv2d", "conv1d", "dense")


def _gemm_flops(m: int, k: int, n: int) -> int:
    return 2 * m * k * n


def _conv2d_fwd_flops(layer, args, out) -> int:
    f, c, kh, kw = layer.weight.shape
    n, _, oh, ow = out.shape
    return _gemm_flops(n * oh * ow, c * kh * kw, f)


def _conv2d_bwd_flops(layer, args, out) -> int:
    f, c, kh, kw = layer.weight.shape
    n, _, oh, ow = args[0].shape
    flops = _gemm_flops(f, n * oh * ow, c * kh * kw)
    if layer.needs_input_grad:
        # The input gradient is a full correlation over the (padded) input,
        # whose side is the output side plus kernel - 1.
        flops += _gemm_flops(n * (oh + kh - 1) * (ow + kw - 1), f * kh * kw, c)
    return flops


def _conv1d_fwd_flops(layer, args, out) -> int:
    f, c, k = layer.weight.shape
    n, _, length = out.shape
    return _gemm_flops(n * length, c * k, f)


def _conv1d_bwd_flops(layer, args, out) -> int:
    f, c, k = layer.weight.shape
    n, _, length = args[0].shape
    flops = _gemm_flops(f, n * length, c * k)
    if layer.needs_input_grad:
        flops += _gemm_flops(n * (length + k - 1), f * k, c)
    return flops


def _dense_fwd_flops(layer, args, out) -> int:
    d, u = layer.weight.shape
    return _gemm_flops(args[0].shape[0], d, u)


def _dense_bwd_flops(layer, args, out) -> int:
    d, u = layer.weight.shape
    n = args[0].shape[0]
    flops = _gemm_flops(d, n, u)
    if layer.needs_input_grad:
        flops += _gemm_flops(n, u, d)
    return flops


_FLOPS = {
    ("conv2d", "fwd"): _conv2d_fwd_flops,
    ("conv2d", "bwd"): _conv2d_bwd_flops,
    ("conv1d", "fwd"): _conv1d_fwd_flops,
    ("conv1d", "bwd"): _conv1d_bwd_flops,
    ("dense", "fwd"): _dense_fwd_flops,
    ("dense", "bwd"): _dense_bwd_flops,
}

_LAYER_CLASSES = {
    "conv2d": layers.Conv2D,
    "conv1d": layers.Conv1D,
    "maxpool2d": layers.MaxPool2D,
    "maxpool1d": layers.MaxPool1D,
    "relu": layers.ReLU,
    "dense": layers.Dense,
    "dropout": layers.Dropout,
    "softmax_output": layers.SoftmaxOutput,
}


@dataclass(frozen=True)
class Target:
    """One name to wrap: owner.attr records spans called `span`."""

    owner: object
    attr: str
    span: str


def _targets() -> list[Target]:
    exp = experiment
    out = [
        Target(synthetic, "generate_synthetic", "synthetic.generate"),
        Target(exp, "generate_synthetic", "synthetic.generate"),
        Target(data, "load_dataset", "data.load_csv"),
        Target(data, "load_csv", "data.load_csv"),
        Target(exp, "out_of_time_split", "data.split"),
        Target(exp, "fit_standardizer", "data.standardize"),
        Target(exp, "apply_standardizer", "data.standardize"),
        Target(exp, "default_spec", "encoding.arrange"),
        Target(exp, "arrange", "encoding.arrange"),
        Target(exp, "sequential_arrange", "encoding.arrange"),
        Target(exp, "reduce_features", "encoding.reduce"),
        Target(exp, "run_compare", "experiment.compare"),
        Target(exp, "fit_pipeline", "experiment.fit"),
        Target(exp, "grid_tensor", "experiment.gather"),
        Target(exp.FittedPipeline, "transform", "experiment.transform"),
        Target(exp, "save_pipeline", "experiment.checkpoint_save"),
        Target(exp, "load_pipeline", "experiment.checkpoint_load"),
        Target(exp, "evaluate_pipeline", "experiment.evaluate"),
        Target(exp, "emit_report", "experiment.report"),
        Target(exp, "train", "nnet.train"),
        Target(nnet_train, "make_optimizer", "nnet.make_optimizer"),
        Target(nnet_train, "backward_and_step", "nnet.finite_check"),
        Target(network.Network, "forward", "nnet.forward"),
        Target(network.Network, "loss_and_grad", "nnet.loss_and_grad"),
        Target(network.Network, "predict", "nnet.predict"),
    ]
    for name in ("accuracy", "notch_frequency", "expected_abs_notch", "conditional_notch"):
        out.append(Target(exp, name, "metrics.score"))
    for name in ("summarize", "one_sample_t_greater", "pairwise_t_bonferroni"):
        out.append(Target(exp, name, "stats.tests"))
    for kind, cls in _LAYER_CLASSES.items():
        out.append(Target(cls, "forward", f"nnet.{kind}.fwd"))
        bwd = "backward_from_labels" if cls is layers.SoftmaxOutput else "backward"
        out.append(Target(cls, bwd, f"nnet.{kind}.bwd"))
    return out


class Tracer:
    """Records spans and counts while installed; summarizes one block."""

    def __init__(self):
        self.targets = _targets()
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, label]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _count(self, span: str, args: tuple, result) -> None:
        counts = self.counts
        if span == "experiment.fit":
            counts["experiment.fits"] += 1
        elif span == "nnet.finite_check":
            counts["nnet.batches"] += 1
            counts["nnet.samples"] += args[1].shape[0]
        elif span.startswith("nnet.") and span.count(".") == 2:
            _, kind, phase = span.split(".")
            if phase == "fwd":
                counts[f"nnet.{kind}.elements"] += args[1].size
            flops = _FLOPS.get((kind, phase))
            if flops is not None:
                counts[f"nnet.{kind}.flop"] += flops(args[0], args[1:], result)

    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            label = None
            if span == "experiment.fit":
                label = kwargs.get("method", args[1] if len(args) > 1 else None)
            record = [span, 0.0, 0.0, parent, label]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if span == "nnet.make_optimizer":
                result.step = tracer._wrap("nnet.optimizer", result.step)
            tracer._count(span, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for t in self.targets:
                original = vars(t.owner)[t.attr]
                originals.append((t, original))
                setattr(t.owner, t.attr, self._wrap(t.span, original))
            yield self
        finally:
            for t, original in reversed(originals):
                setattr(t.owner, t.attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        selfs = self.self_times()
        inclusive: dict[str, float] = defaultdict(float)
        fit_by_method: dict[str, float] = defaultdict(float)
        forward_under_loss = 0.0
        for name, start, end, parent, label in self.spans:
            inclusive[name] += end - start
            if name == "experiment.fit":
                fit_by_method[label] += end - start
            if name == "nnet.forward" and parent >= 0 and self.spans[parent][0] == "nnet.loss_and_grad":
                forward_under_loss += end - start
        m: dict[str, float] = {
            "synthetic.generate_s": selfs["synthetic.generate"],
            "data.load_csv_s": selfs["data.load_csv"],
            "data.split_s": selfs["data.split"],
            "data.standardize_s": selfs["data.standardize"],
            "encoding.arrange_s": selfs["encoding.arrange"],
            "encoding.reduce_s": selfs["encoding.reduce"],
            "experiment.gather_s": selfs["experiment.gather"],
            "experiment.transform_s": selfs["experiment.transform"],
            "experiment.checkpoint_load_s": selfs["experiment.checkpoint_load"],
            "experiment.report_s": selfs["experiment.report"],
            "experiment.fits": self.counts["experiment.fits"],
        }
        for method in experiment.ALL_METHODS:
            m[f"experiment.fit_s.{method}"] = fit_by_method[method]
        m.update({
            "nnet.train_s": inclusive["nnet.train"],
            "nnet.optimizer_s": selfs["nnet.optimizer"],
            "nnet.finite_check_s": selfs["nnet.finite_check"],
            "nnet.batches": self.counts["nnet.batches"],
            "nnet.samples": self.counts["nnet.samples"],
            "nnet.forward_s": inclusive["nnet.forward"],
            "nnet.backward_s": inclusive["nnet.loss_and_grad"] - forward_under_loss,
            "nnet.predict_s": inclusive["nnet.predict"],
        })
        for kind in LAYER_KINDS:
            m[f"nnet.{kind}.fwd_s"] = selfs[f"nnet.{kind}.fwd"]
            m[f"nnet.{kind}.bwd_s"] = selfs[f"nnet.{kind}.bwd"]
            m[f"nnet.{kind}.elements"] = self.counts[f"nnet.{kind}.elements"]
        for kind in GFLOP_KINDS:
            m[f"nnet.{kind}.gflop"] = self.counts[f"nnet.{kind}.flop"] / 1e9
        m["metrics.score_s"] = selfs["metrics.score"]
        m["stats.tests_s"] = selfs["stats.tests"]
        return m


COUNT_METRICS = ("experiment.fits", "nnet.batches", "nnet.samples") + tuple(
    f"nnet.{kind}.elements" for kind in LAYER_KINDS
) + tuple(f"nnet.{kind}.gflop" for kind in GFLOP_KINDS)


def unit_of(metric: str) -> str:
    if metric.endswith(".gflop"):
        return "GFLOP"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return "count"
