"""Canonical architectures for the rating classifiers and the auto-encoder.

The convolutional stacks use two conv layers (64 then 32 filters, kernel
3) each followed by a window-2 max pool and a ReLU, then two 128-unit
dense layers. A pool is skipped when it would empty a dimension, as on
an 8x16 grid after the second convolution. Pooling before the ReLU gives
the bits of the reverse order on every non-NaN input at a quarter of the
ReLU work: the max of the ReLUs is the ReLU of the max, and a window's
gradient reaches the same first maximum (or nothing, if that max is not
positive) either way.
"""
from __future__ import annotations

from ..schema import N_CLASSES
from .network import (
    LayerSpec,
    NetworkSpec,
    SpecError,
    activation,
    conv1d,
    conv2d,
    dense,
    dropout,
    flatten,
    maxpool,
    softmax_output,
)

DENSE_UNITS = 128
DROPOUT_RATE = 0.3
KERNEL = 3
# The smallest input side both convolutions fit: (side - KERNEL + 1) // 2 >= KERNEL.
MIN_SIDE = 3 * KERNEL - 1
# Layers of build_autoencoder's network that make up the encoder half.
ENCODER_LAYERS = 3


class InputTooSmallError(ValueError):
    """Raised when an input cannot pass through the convolutional stack."""


def build_mlp(input_dim: int, classes: int = N_CLASSES) -> NetworkSpec:
    """Two dense hidden layers with dropout, then a softmax output."""
    if input_dim < 1:
        raise InputTooSmallError("input dimension must be positive")
    return NetworkSpec(
        input_shape=(input_dim,),
        layers=(
            dense(DENSE_UNITS), activation(), dropout(DROPOUT_RATE),
            dense(DENSE_UNITS), activation(), dropout(DROPOUT_RATE),
            softmax_output(classes),
        ),
    )


def _build_cnn(spatial: tuple[int, ...], filters: tuple[int, int]) -> NetworkSpec:
    """Conv stack over one (conv1d) or two (conv2d) spatial axes, then dense head.

    Every conv checks its feature map fits the kernel; that needs inputs of
    at least MIN_SIDE on each axis.
    """
    layers: list[LayerSpec] = []
    sizes = spatial
    for f in filters:
        if min(sizes) < KERNEL:
            raise InputTooSmallError(
                f"input {'x'.join(map(str, spatial))} too small: feature map "
                f"{'x'.join(map(str, sizes))} is smaller than kernel {KERNEL}"
            )
        conv = conv1d(f, KERNEL) if len(sizes) == 1 else conv2d(f, KERNEL, KERNEL)
        layers.append(conv)
        sizes = tuple(n - KERNEL + 1 for n in sizes)
        if min(sizes) // 2 >= 1:
            layers.append(maxpool(2))
            sizes = tuple(n // 2 for n in sizes)
        layers.append(activation())
    layers += [
        flatten(),
        dense(DENSE_UNITS), activation(),
        dense(DENSE_UNITS), activation(),
        softmax_output(N_CLASSES),
    ]
    return NetworkSpec(input_shape=(1, *spatial), layers=tuple(layers))


def build_cnn1d(input_len: int, filters1: int = 64, filters2: int = 32) -> NetworkSpec:
    """Two 1D convolutions over the raw feature vector, then dense head."""
    return _build_cnn((input_len,), (filters1, filters2))


def build_cnn2d(rows: int, cols: int, filters1: int = 64, filters2: int = 32) -> NetworkSpec:
    """Two 2D convolutions over an image grid, then dense head."""
    return _build_cnn((rows, cols), (filters1, filters2))


def build_autoencoder(input_dim: int, code_dim: int, hidden: int = DENSE_UNITS) -> NetworkSpec:
    """Symmetric encoder/decoder trained on mean-squared reconstruction."""
    if not 1 <= code_dim < input_dim:
        raise SpecError(f"code dimension {code_dim} must be in 1..{input_dim - 1}")
    return NetworkSpec(
        input_shape=(input_dim,),
        layers=(
            dense(hidden), activation(),
            dense(code_dim),
            dense(hidden), activation(),
            dense(input_dim),
        ),
        loss="mse",
    )
