"""Canonical architectures for the rating classifiers and the auto-encoder.

The convolutional stacks use two conv layers (64 then 32 filters, kernel
3) each followed by a window-2 max pool, then two 128-unit dense layers.
A pool is skipped when it would produce a zero-sized dimension, which
happens on small grids such as 8x16 after the second convolution.
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


class InputTooSmallError(ValueError):
    """Raised when an input cannot pass through the convolutional stack."""


def build_mlp(input_dim: int, hidden: int = 128, dropout_rate: float = 0.3,
              classes: int = N_CLASSES) -> NetworkSpec:
    """Two dense hidden layers with dropout, then a softmax output."""
    if input_dim < 1:
        raise InputTooSmallError("input dimension must be positive")
    return NetworkSpec(
        input_shape=(input_dim,),
        layers=(
            dense(hidden), activation(), dropout(dropout_rate),
            dense(hidden), activation(), dropout(dropout_rate),
            softmax_output(classes),
        ),
    )


def _conv_stack_1d(length: int, filters1: int, filters2: int, kernel: int) -> list[LayerSpec]:
    layers: list[LayerSpec] = []
    for filters in (filters1, filters2):
        if length < kernel:
            raise InputTooSmallError(
                f"input of length {length} too short for kernel {kernel}"
            )
        layers += [conv1d(filters, kernel), activation()]
        length = length - kernel + 1
        if length // 2 >= 1:
            layers.append(maxpool(2))
            length //= 2
    return layers


def build_cnn1d(input_len: int, filters1: int = 64, filters2: int = 32,
                kernel: int = 3, dense_units: int = 128,
                classes: int = N_CLASSES) -> NetworkSpec:
    """Two 1D convolutions over the raw feature vector, then dense head."""
    if input_len < 7:
        raise InputTooSmallError(f"need at least 7 inputs, got {input_len}")
    layers = _conv_stack_1d(input_len, filters1, filters2, kernel)
    layers += [
        flatten(),
        dense(dense_units), activation(),
        dense(dense_units), activation(),
        softmax_output(classes),
    ]
    return NetworkSpec(input_shape=(1, input_len), layers=tuple(layers))


def build_cnn2d(rows: int, cols: int, filters1: int = 64, filters2: int = 32,
                kernel: int = 3, dense_units: int = 128,
                classes: int = N_CLASSES) -> NetworkSpec:
    """Two 2D convolutions over an image grid, then dense head."""
    if rows < 7 or cols < 7:
        raise InputTooSmallError(f"need at least a 7x7 grid, got {rows}x{cols}")
    layers: list[LayerSpec] = []
    h, w = rows, cols
    for filters in (filters1, filters2):
        if h < kernel or w < kernel:
            raise InputTooSmallError(
                f"feature map {h}x{w} too small for a {kernel}x{kernel} kernel"
            )
        layers += [conv2d(filters, kernel, kernel), activation()]
        h, w = h - kernel + 1, w - kernel + 1
        if h // 2 >= 1 and w // 2 >= 1:
            layers.append(maxpool(2))
            h, w = h // 2, w // 2
    layers += [
        flatten(),
        dense(dense_units), activation(),
        dense(dense_units), activation(),
        softmax_output(classes),
    ]
    return NetworkSpec(input_shape=(1, rows, cols), layers=tuple(layers))


def build_autoencoder(input_dim: int, code_dim: int, hidden: int = 128) -> NetworkSpec:
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


def encoder_layer_count() -> int:
    """Layers of the auto-encoder that make up the encoder half."""
    return 3
