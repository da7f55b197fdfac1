"""Network specifications, parameter initialization, and checkpoints.

A NetworkSpec is a declarative layer list with an input shape and a loss
kind; Network materializes it with seeded fan-in-scaled uniform weights.
Checkpoints are npz-compatible containers holding the spec as JSON plus
the raw parameter arrays; they round-trip bit-exactly and are written
with fixed zip timestamps so identical contents give identical bytes.
"""
from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from .lanes import one_blas_thread
from .layers import (
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool1D,
    MaxPool2D,
    ReLU,
    ShapeMismatchError,
    SoftmaxOutput,
    loss_crossentropy,
)


# Rows per forward pass of Network.predict.
PREDICT_ROWS = 64


class SpecError(ValueError):
    """Raised when layer shapes do not compose."""


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    args: dict = field(default_factory=dict)


def dense(units: int) -> LayerSpec:
    return LayerSpec("dense", {"units": units})


def conv1d(filters: int, kernel: int) -> LayerSpec:
    return LayerSpec("conv1d", {"filters": filters, "kernel": kernel, "padding": "valid"})


def conv2d(filters: int, kernel_h: int, kernel_w: int) -> LayerSpec:
    return LayerSpec(
        "conv2d",
        {"filters": filters, "kernel_h": kernel_h, "kernel_w": kernel_w, "padding": "valid"},
    )


def maxpool(window: int) -> LayerSpec:
    return LayerSpec("maxpool", {"window": window})


def dropout(rate: float) -> LayerSpec:
    return LayerSpec("dropout", {"rate": rate})


def activation(kind: str = "relu") -> LayerSpec:
    return LayerSpec("activation", {"kind": kind})


def flatten() -> LayerSpec:
    return LayerSpec("flatten", {})


def softmax_output(classes: int) -> LayerSpec:
    return LayerSpec("softmax_output", {"classes": classes})


@dataclass(frozen=True)
class NetworkSpec:
    """Input shape (without batch), ordered layers, and loss kind."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    loss: str = "cross_entropy"

    def __post_init__(self):
        if self.loss not in ("cross_entropy", "mse"):
            raise SpecError(f"unknown loss {self.loss!r}")
        if not all(map(_is_size, self.input_shape)):
            raise SpecError(f"input shape {self.input_shape} holds a size that is not "
                            "a positive integer")
        self.layer_shapes()
        last = self.layers[-1].kind if self.layers else None
        if self.loss == "cross_entropy" and last != "softmax_output":
            raise SpecError("cross-entropy networks must end in softmax_output")

    def layer_shapes(self) -> list[tuple[int, ...]]:
        """Output shape after each layer; raises SpecError on mismatch."""
        shapes = [self.input_shape]
        for i, layer in enumerate(self.layers):
            shapes.append(_propagate(shapes[-1], layer, i))
        return shapes[1:]

    def parameter_count(self) -> int:
        inputs = (self.input_shape, *self.layer_shapes())
        return sum(math.prod(s) for shape, layer in zip(inputs, self.layers)
                   if layer.kind in _PARAM_SHAPES
                   for s in _PARAM_SHAPES[layer.kind](shape, layer.args))

    def to_json(self) -> str:
        layers = [{"kind": l.kind, "args": l.args} for l in self.layers]
        return json.dumps({"input_shape": list(self.input_shape), "layers": layers,
                           "loss": self.loss}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> NetworkSpec:
        raw = json.loads(text)
        layers = tuple(LayerSpec(l["kind"], dict(l["args"])) for l in raw["layers"])
        return cls(tuple(raw["input_shape"]), layers, raw["loss"])


def _conv_len(length: int, kernel: int) -> int:
    out = length - kernel + 1
    if out < 1:
        raise SpecError(f"kernel {kernel} does not fit input of length {length}")
    return out


# (weight shape, bias shape) of each parameterized kind on an input shape.
_PARAM_SHAPES = {
    "dense": lambda shape, a: ((shape[0], a["units"]), (a["units"],)),
    "softmax_output": lambda shape, a: ((shape[0], a["classes"]), (a["classes"],)),
    "conv1d": lambda shape, a: ((a["filters"], shape[0], a["kernel"]), (a["filters"],)),
    "conv2d": lambda shape, a: (
        (a["filters"], shape[0], a["kernel_h"], a["kernel_w"]), (a["filters"],)),
}
_PARAM_LAYERS = {"dense": Dense, "softmax_output": SoftmaxOutput, "conv1d": Conv1D,
                 "conv2d": Conv2D}


# The layer arguments that count units, filters or cells.
_SIZES = ("units", "classes", "filters", "kernel", "kernel_h", "kernel_w", "window")


def _is_size(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _propagate(shape: tuple[int, ...], layer: LayerSpec, index: int) -> tuple[int, ...]:
    kind, args = layer.kind, layer.args
    for name in _SIZES:
        value = args.get(name, 1)
        if not _is_size(value):
            raise SpecError(f"layer {index} ({kind}): {name} must be a positive integer, "
                            f"got {value!r}")
    if kind in ("conv1d", "conv2d") and args.get("padding") != "valid":
        raise SpecError(f"layer {index} ({kind}): unsupported padding {args.get('padding')!r}")
    if kind == "activation" and args["kind"] != "relu":
        raise SpecError(f"layer {index}: unsupported activation {args['kind']!r}")
    if kind == "dropout" and not 0 <= args["rate"] < 1:
        raise SpecError(f"layer {index}: dropout rate {args['rate']} outside [0, 1)")
    try:
        if kind == "dense":
            (d,) = shape
            return (args["units"],)
        if kind == "softmax_output":
            (d,) = shape
            return (args["classes"],)
        if kind in ("conv1d", "conv2d"):
            c, *spatial = shape
            kernel = _PARAM_SHAPES[kind](shape, args)[0][2:]  # (filters, c, *kernel)
            if len(spatial) != len(kernel):
                raise SpecError(f"{kind} needs {len(kernel)} spatial axes")
            return (args["filters"], *(_conv_len(n, k) for n, k in zip(spatial, kernel)))
        if kind == "maxpool":
            c, *spatial = shape
            if len(spatial) not in (1, 2):
                raise SpecError("maxpool needs 1 or 2 spatial axes")
            w = args["window"]
            out = tuple(n // w for n in spatial)
            if min(out) < 1:
                raise SpecError(f"pool window {w} empties {'x'.join(map(str, spatial))}")
            return (c, *out)
        if kind == "flatten":
            return (int(np.prod(shape)),)
        if kind in ("dropout", "activation"):
            return shape
    except ValueError as exc:  # a SpecError keeps its message
        detail = exc if isinstance(exc, SpecError) else f"incompatible input shape {shape}"
        raise SpecError(f"layer {index} ({kind}): {detail}") from exc
    raise SpecError(f"layer {index}: unknown kind {kind!r}")


def _uniform(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _materialize(shape: tuple[int, ...], layer: LayerSpec, rng: np.random.Generator) -> Layer:
    kind, args = layer.kind, layer.args
    if kind in _PARAM_SHAPES:
        w_shape, b_shape = _PARAM_SHAPES[kind](shape, args)
        # Every weight element feeds one output unit: fan-in is size / units.
        w = _uniform(rng, math.prod(w_shape) // b_shape[0], w_shape)
        return _PARAM_LAYERS[kind](w, np.zeros(b_shape))
    if kind == "maxpool":
        return MaxPool1D(args["window"]) if len(shape) == 2 else MaxPool2D(args["window"])
    if kind == "dropout":
        return Dropout(args["rate"])
    if kind == "activation":
        return ReLU()
    if kind == "flatten":
        return Flatten()
    raise SpecError(f"unknown layer kind {kind!r}")


class Network:
    """A materialized NetworkSpec: one live layer per spec layer, run in spec order."""

    def __init__(self, spec: NetworkSpec, seed: int):
        self.spec = spec
        self.seed = seed
        rng = np.random.default_rng(seed)
        inputs = (spec.input_shape, *spec.layer_shapes())
        self.layers: list[Layer] = [_materialize(shape, layer_spec, rng)
                                    for shape, layer_spec in zip(inputs, spec.layers)]
        if self.layers:
            self.layers[0].needs_input_grad = False
        self.history: list[float] = []

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """The one walk over the layers; with train=False, the inference
        pass, which leaves no layer state for a backward."""
        if x.shape[1:] != self.spec.input_shape:
            raise ShapeMismatchError(
                f"network expects input {self.spec.input_shape}, got {x.shape[1:]}"
            )
        for layer in self.layers:
            x = layer.forward(x, train, rng)
        return x

    @one_blas_thread()
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass (class probabilities for classifiers),
        PREDICT_ROWS rows at a time, so memory does not grow with len(x)."""
        return np.concatenate([self.forward(x[i : i + PREDICT_ROWS])
                               for i in range(0, max(len(x), 1), PREDICT_ROWS)])

    def predict_classes(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x).argmax(axis=1)

    def _loss(self, out: np.ndarray, target: np.ndarray) -> float:
        if self.spec.loss == "cross_entropy":
            return loss_crossentropy(out, target)
        return float(((out - target) ** 2).mean())

    def loss_and_grad(self, x: np.ndarray, target: np.ndarray, train: bool = True,
                      rng: np.random.Generator | None = None) -> float:
        """Forward plus backward; leaves gradients on the layers."""
        out = self.forward(x, train=train, rng=rng)
        loss = self._loss(out, target)
        if self.spec.loss == "cross_entropy":
            grad = self.layers[-1].backward_from_labels(np.asarray(target, dtype=int))
            rest = self.layers[:-1]
        else:
            grad = 2.0 * (out - target) / out.size
            rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        return loss

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write an npz-compatible archive with deterministic bytes."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            npy_format.write_array(buf, np.asanyarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def network_arrays(net: Network, prefix: str = "") -> dict[str, np.ndarray]:
    """The checkpoint codec: spec JSON, seed and parameters under prefix."""
    arrays = {f"{prefix}param_{i:04d}": p for i, p in enumerate(net.parameters())}
    arrays[f"{prefix}spec_json"] = np.array(net.spec.to_json())
    arrays[f"{prefix}seed"] = np.array(net.seed, dtype=np.int64)
    return arrays


def network_from_arrays(data, prefix: str = "") -> Network:
    """Inverse of network_arrays; a spec, seed or parameter it cannot use
    raises SpecError naming its key."""
    key = f"{prefix}spec_json"
    text = str(data[key])
    try:
        spec = NetworkSpec.from_json(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"key {key!r} is not JSON: {exc}") from None
    except KeyError as exc:
        raise SpecError(f"key {key!r} has no entry {exc}") from None
    except (ValueError, TypeError) as exc:  # a wrong type or a bad spec
        raise SpecError(f"key {key!r}: {exc}") from None
    seed = data[f"{prefix}seed"]
    if seed.shape or seed.dtype.kind not in "iu":
        raise SpecError(f"key '{prefix}seed' must hold one integer, got {seed.dtype} {seed}")
    if seed < 0:
        raise SpecError(f"key '{prefix}seed' holds {seed}, not a non-negative seed")
    net = Network(spec, seed=int(seed))
    for i, p in enumerate(net.parameters()):
        name = f"{prefix}param_{i:04d}"
        stored = data[name]
        if stored.shape != p.shape:
            raise SpecError(f"key {name!r} has shape {stored.shape}, not {p.shape}")
        if stored.dtype.kind != "f" or not np.isfinite(stored).all():
            raise SpecError(f"key {name!r} holds an entry that is not a finite float")
        p[...] = stored
    return net
